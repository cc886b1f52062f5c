"""The generic side (algebra, spaces, nomizu) imports nothing from the closed
forms or the layers built on them, at module level or inside a function.  The
closed forms (families) compute nothing with the generic calculus they are
checked against: from nomizu they take only its tensor types."""

import ast
from pathlib import Path

import pytest

import bergerconn

ABOVE = {"families", "einstein", "cli"}
NOMIZU_TYPES = {"CurvTensor", "Rank2Tensor"}
GENERIC_CALCULUS = {"structure_tensors", "adjoint_matrices", "_nullspace", "_solution_space"}


def _source(module: str) -> str:
    return (Path(bergerconn.__file__).parent / f"{module}.py").read_text()


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
    found = [(name, line) for name, line in _package_imports(_source(module)) if name in ABOVE]
    assert found == [], f"{module}.py imports {found}"


def _taken_from(source: str, module: str):
    """Names the source imports from bergerconn.<module>, and "<module>" if
    it imports the module object itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (module for a in node.names if a.name == f"bergerconn.{module}")
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bergerconn" if node.level else "", node.module]))
            if base == f"bergerconn.{module}":
                yield from (a.name for a in node.names)
            elif base == "bergerconn":
                yield from (module for a in node.names if a.name == module)


def test_closed_forms_take_only_types_from_nomizu():
    taken = set(_taken_from(_source("families"), "nomizu"))
    assert taken <= NOMIZU_TYPES, f"families.py imports {taken - NOMIZU_TYPES} from nomizu"


def test_closed_forms_never_reference_generic_calculus():
    tree = ast.parse(_source("families"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for a in node.names for part in a.name.split(".")}
    assert names & GENERIC_CALCULUS == set()
