"""The generic side (algebra, spaces, nomizu) imports nothing from the closed
forms or the layers built on them, at module level or inside a function.  The
closed forms (families) compute nothing with the generic calculus they are
checked against: from nomizu they take only its tensor types.  Every rank
decision goes through spaces._guarded_rank.  Neither the closed forms nor
nomizu use np.tensordot, np.cross or np.stack.  The generic Levi-Civita map
calls nothing from np.linalg.  The per-vector layer (MVec, standard_basis,
Bilin.from_function) is held in the package only for the benchmark's tracer:
no other module reads it, and the acceptance gate builds nothing with it.  The
test oracles that no program path enters live in tests/reference.py, not in
the package."""

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


#: numpy helpers written in Python, each a few microseconds a call: kept off
#: the per-map paths of the closed forms and of the one-map products
PYTHON_LEVEL_HELPERS = {"tensordot", "cross", "stack"}


@pytest.mark.parametrize("module", ["families", "nomizu"])
def test_no_python_level_numpy_helpers(module):
    used = [(node.attr, node.lineno) for node in ast.walk(ast.parse(_source(module)))
            if isinstance(node, ast.Attribute) and node.attr in PYTHON_LEVEL_HELPERS
            and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert used == [], f"{module}.py uses {used}"


#: the only reader of TOL_RANK: the guarded rank decision
RANK_CUTOFF_READERS = {("spaces", "_guarded_rank")}


def _package_modules():
    return sorted(p.stem for p in Path(bergerconn.__file__).parent.glob("*.py"))


def _scoped_nodes(tree):
    """(qualified name of the enclosing function or class, node) for every node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)

    yield from walk(tree, "")


def test_rank_cutoff_read_in_one_place():
    readers = set()
    for module in _package_modules():
        for scope, node in _scoped_nodes(ast.parse(_source(module))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "TOL_RANK" and isinstance(node.ctx, ast.Load):
                readers.add((module, scope))
    assert readers == RANK_CUTOFF_READERS


def _rank_slot_read(call, parents) -> bool:
    """Whether the 4-tuple an np.linalg.lstsq call returns has its third item,
    the rank from lstsq's own cutoff, indexed or bound to a name other than _."""
    use = parents[call]
    if isinstance(use, ast.Subscript):
        return not (isinstance(use.slice, ast.Constant) and use.slice.value % 4 != 2)
    if isinstance(use, ast.Assign) and isinstance(use.targets[0], ast.Tuple):
        elts = use.targets[0].elts
        star = next((i for i, e in enumerate(elts) if isinstance(e, ast.Starred)), len(elts))
        slot = elts[2] if star > 2 else elts[star].value
        return not (isinstance(slot, ast.Name) and slot.id == "_")
    return True


def test_no_module_reads_the_lstsq_rank():
    readers = []
    for module in _package_modules():
        tree = ast.parse(_source(module))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "lstsq" and _rank_slot_read(node, parents)):
                readers.append((module, node.lineno))
    assert readers == []


@pytest.mark.parametrize("line,reads", [
    ("x, _, _, sv = np.linalg.lstsq(M, b)", False),
    ("x, *_ = np.linalg.lstsq(M, b)", False),
    ("x = np.linalg.lstsq(M, b)[0]", False),
    ("x, _, rank, _ = np.linalg.lstsq(M, b)", True),
    ("x, *rest = np.linalg.lstsq(M, b)", True),
    ("rank = np.linalg.lstsq(M, b)[2]", True),
    ("rank = np.linalg.lstsq(M, b)[-2]", True),
    ("out = np.linalg.lstsq(M, b)", True),
])
def test_lstsq_rank_detector(line, reads):
    tree = ast.parse(line)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    (call,) = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert _rank_slot_read(call, parents) is reads


def _unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for every name an import binds that the source never
    reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


@pytest.mark.parametrize("module", [m for m in _package_modules() if m != "__init__"])
def test_every_import_is_used(module):
    # __init__ imports to re-export, and is exempt
    assert _unused_imports(_source(module)) == []


@pytest.mark.parametrize("source,unused", [
    ("import numpy as np\nnp.zeros(1)", []),
    ("import numpy as np", [("np", 1)]),
    ("import os.path\nos.sep", []),
    ("from . import a, b\nb.f()", [("a", 1)]),
    ("from x import y as z\ndef f(v: z): pass", []),
    ("from __future__ import annotations", []),
])
def test_unused_import_detector(source, unused):
    assert _unused_imports(source) == unused


def test_levi_civita_map_solves_nothing():
    # the Koszul formula is a tensor expression: no np.linalg call
    (fn,) = [node for node in ast.walk(ast.parse(_source("spaces")))
             if isinstance(node, ast.FunctionDef) and node.name == "levi_civita_generic"]
    calls = [node.attr for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
             and node.value.attr == "linalg"]
    assert calls == []


#: the per-vector layer, kept only because perfbench's tracer hooks it
PER_VECTOR = {"MVec", "standard_basis", "from_function"}


def _names(tree):
    """(scope, name) for every name, attribute and imported name of the tree."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Name):
            yield scope, node.id
        elif isinstance(node, ast.Attribute):
            yield scope, node.attr
        elif isinstance(node, ast.alias):
            yield scope, node.name.split(".")[-1]


def test_per_vector_layer_read_only_by_algebra_and_from_function():
    readers = {(module, scope) for module in _package_modules() if module != "algebra"
               for scope, name in _names(ast.parse(_source(module)))
               if name in PER_VECTOR - {"from_function"}}
    assert readers <= {("spaces", "Bilin.from_function")}


def test_acceptance_gate_builds_without_the_per_vector_layer():
    gate = (Path(__file__).parent / "test_acceptance.py").read_text()
    assert {name for _, name in _names(ast.parse(gate))} & PER_VECTOR == set()


#: oracles only the tests read, held in tests/reference.py
TEST_ORACLES = {"is_metric", "scalar", "_metric_violation", "metric_violation", "alpha_metric"}


def test_test_oracles_not_defined_in_the_package():
    defined = {(module, node.name) for module in _package_modules()
               for node in ast.walk(ast.parse(_source(module)))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in TEST_ORACLES}
    assert defined == set()
    assert TEST_ORACLES & set(dir(bergerconn)) == set()


def _numpy_random_lines(source: str) -> list[int]:
    """Lines where the source reaches numpy.random: as np.random or
    numpy.random, or by an import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = (node.attr == "random" and isinstance(node.value, ast.Name)
                     and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            found = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("line,reaches", [
    ("rng = np.random.default_rng(0)", True),
    ("import numpy.random", True),
    ("from numpy import random", True),
    ("from numpy.random import default_rng", True),
    ("x = numpy.random.rand()", True),
    ("rng = random.Random(0)", False),
    ("import random", False),
])
def test_numpy_random_scan(line, reaches):
    assert bool(_numpy_random_lines(line)) is reaches


@pytest.mark.parametrize("module", _package_modules())
def test_no_module_uses_numpy_random(module):
    # seeded draws come from Python's random, so no command imports numpy.random
    assert _numpy_random_lines(_source(module)) == [], f"{module}.py reaches numpy.random"
