"""Design rules checked on the source: no global statements, no dangling
exports, one graph-module elimination, a fraction-free reduction loop on
packed terms, and isolatedness decided once, from the pipeline's own
colengths."""

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


class _BlockCalls(ast.NodeVisitor):
    """Qualified names of the functions that call standard_basis(..., block=...)."""

    def __init__(self, module: str):
        self.scope = [module]
        self.callers = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "standard_basis" and any(kw.arg == "block" for kw in node.keywords):
            self.callers.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_graph_module_elimination():
    callers = []
    for path, tree in parsed_sources():
        visitor = _BlockCalls(path.stem)
        visitor.visit(tree)
        callers += visitor.callers
    assert callers == ["module_ops.submodule_pullback"]


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


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


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


def test_no_pipeline_code_calls_verify_icis():
    # verify_icis is the independent route the tests compare against
    offenders = []
    for path, tree in parsed_sources():
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "verify_icis"
        ]
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
