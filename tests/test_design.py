"""Design rules checked on the source: no global statements, no dangling exports."""

import ast
from pathlib import Path

import germlab


def test_no_global_statements():
    sources = sorted(Path(germlab.__file__).parent.glob("*.py"))
    assert {"__init__.py", "standard_basis.py", "cli.py"} <= {p.name for p in sources}
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)
        ]
    assert offenders == []


def test_every_export_resolves():
    missing = [name for name in germlab.__all__ if not hasattr(germlab, name)]
    assert missing == []
    assert len(set(germlab.__all__)) == len(germlab.__all__)
