"""The generic side (algebra, spaces, nomizu) imports nothing from the closed
forms or the layers built on them, at module level or inside a function."""

import ast
from pathlib import Path

import pytest

import bergerconn

ABOVE = {"families", "einstein", "cli"}


def _package_imports(source: str):
    """(module, line) for every bergerconn module the source imports, the
    modules named in a `from ... import` included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bergerconn" if node.level else "", node.module]))
            paths = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "bergerconn" and len(parts) > 1:
                yield parts[1], node.lineno


@pytest.mark.parametrize("module", ["algebra", "spaces", "nomizu"])
def test_generic_side_imports_no_closed_form(module):
    source = (Path(bergerconn.__file__).parent / f"{module}.py").read_text()
    found = [(name, line) for name, line in _package_imports(source) if name in ABOVE]
    assert found == [], f"{module}.py imports {found}"
