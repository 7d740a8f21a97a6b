"""Design rules checked on the source: no global statements, no dangling
exports, one graph-module elimination."""

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
