"""Design rules checked on the source: no global statements, no dangling
or unused exports, one graph-module elimination, one truncation ladder,
membership as the only normal-form query, a fraction-free reduction loop
on packed terms, isolatedness decided once, from the pipeline's own
colengths, df(Theta_X) built only by VarietyGerm.bruce_roberts, no
module-level cache but the Milnor chain's and the CLI parser's, and an
oracle that imports nothing from germlab but the ring."""

import ast
from pathlib import Path

import germlab


def parsed_sources():
    sources = sorted(Path(germlab.__file__).parent.glob("*.py"))
    assert {"__init__.py", "standard_basis.py", "cli.py"} <= {p.name for p in sources}
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sources
    ]


def test_no_global_statements():
    offenders = []
    for path, tree in parsed_sources():
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)
        ]
    assert offenders == []


def test_every_export_resolves():
    missing = [name for name in germlab.__all__ if not hasattr(germlab, name)]
    assert missing == []
    assert len(set(germlab.__all__)) == len(germlab.__all__)


# exports that no code in the package uses, each kept for a reason
UNUSED_EXPORTS: dict[str, str] = {}


class _References(ast.NodeVisitor):
    """Names loaded anywhere outside the definition of that same name."""

    def __init__(self):
        self.scope = []
        self.names = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.scope:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.scope:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_export_is_used_by_the_package():
    # re-exporting a name in __init__ does not count as a use
    references = _References()
    for path, tree in parsed_sources():
        if path.name != "__init__.py":
            references.visit(tree)
    unused = set(germlab.__all__) - references.names
    assert unused == set(UNUSED_EXPORTS)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _called_name(call: ast.Call):
    return _name(call.func)


class _Callers(ast.NodeVisitor):
    """Qualified names of the functions holding a call that `matches`."""

    def __init__(self, module: str, matches):
        self.scope = [module]
        self.matches = matches
        self.callers = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if self.matches(node):
            self.callers.append(".".join(self.scope))
        self.generic_visit(node)


def _callers(matches) -> list[str]:
    callers = []
    for path, tree in parsed_sources():
        visitor = _Callers(path.stem, matches)
        visitor.visit(tree)
        callers += visitor.callers
    return callers


def test_one_graph_module_elimination():
    callers = _callers(
        lambda call: _called_name(call) == "standard_basis"
        and any(kw.arg == "block" for kw in call.keywords)
    )
    assert callers == ["module_ops.submodule_pullback"]


def test_one_truncation_ladder():
    # every colength's truncated run starts at local_colength's axis floor;
    # Theta_X's certificate compares two truncated colengths at each rung
    callers = _callers(
        lambda call: _called_name(call) == "standard_basis"
        and any(kw.arg == "truncate_degree" for kw in call.keywords)
    )
    assert callers == [
        "derlog._certified_theta",
        "derlog._certified_theta",
        "standard_basis.local_colength",
    ]


def test_membership_is_the_only_normal_form_query():
    # a weak normal form never leaves the kernel: a standard-basis run
    # reduces its S-elements, and contains only asks whether f reduces to 0
    callers = _callers(lambda call: _called_name(call) == "_mora_nf")
    assert sorted(callers) == [
        "standard_basis.StandardBasis.contains",
        "standard_basis.standard_basis",
    ]


def test_one_home_for_df_theta():
    # the three Bruce-Roberts numbers share the one df(Theta_X) it builds
    assert _callers(lambda call: _called_name(call) == "df_theta") == [
        "derlog.VarietyGerm.bruce_roberts"
    ]


def test_module_level_caches():
    # tau and Theta_X are cached on the germ; only these two remain global
    cached = []
    for path, tree in parsed_sources():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(
                _name(d.func if isinstance(d, ast.Call) else d) in {"cache", "lru_cache"}
                for d in node.decorator_list
            ):
                cached.append(f"{path.stem}.{node.name}")
    assert sorted(cached) == ["cli._parser", "invariants._milnor_chain"]


def test_reduction_loop_is_fraction_free():
    # the kernel reduces integer vectors; Fractions only cross its boundary
    tree = {path.name: parsed for path, parsed in parsed_sources()}["standard_basis.py"]
    kernel = {"_mora_nf", "_normalize", "_vec_axpy", "standard_basis"}
    offenders = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in kernel:
            kernel.remove(node.name)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Div) or (
                    isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "Fraction"
                ):
                    offenders.append(f"{node.name}:{getattr(inner, 'lineno', node.lineno)}")
    assert kernel == set()
    assert offenders == []


def test_reduction_loop_orders_and_divides_packed_terms():
    # terms are packed ints: the lead is min(vec), a shift is an addition and
    # divisibility a guard-bit test, so the kernel needs no order key, no
    # memo of one and no tuple monomial helper
    tree = {path.name: parsed for path, parsed in parsed_sources()}["standard_basis.py"]
    kernel = {"_mora_nf", "_vec_axpy", "standard_basis"}
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in kernel:
            kernel.remove(node.name)
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                name = _called_name(inner) or ""
                if (
                    name in {"term_key", "keyf", "cache", "lru_cache"}
                    or name.startswith("mono_")
                    or any(kw.arg == "key" for kw in inner.keywords)
                ):
                    offenders.append(f"{node.name}:{inner.lineno}:{name}")
    assert kernel == set()
    assert offenders == []


def test_invariants_catch_no_infinite_colength():
    # an infinite chain step or tau is an ICISViolation where it is computed
    tree = {path.name: parsed for path, parsed in parsed_sources()}["invariants.py"]
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
            if "InfiniteColength" in names:
                offenders.append(node.lineno)
    assert offenders == []


def test_the_oracle_imports_only_the_ring_from_germlab():
    # the oracle cross-checks the standard-basis code, so it must not use it
    path = Path(__file__).with_name("_oracle.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m and m.split(".")[0] == "germlab"} == {"germlab.ring"}
