"""Every module of the package and of its tests uses each name it
imports, and only ``rng.py`` reaches ``numpy.random``.

No linter runs on this code base, so a name left imported after its last
use goes (a deleted exception class, a dropped helper) is caught here.
The package ``__init__`` imports to re-export; ``test_public_names`` pins
those names.

Every draw is addressed by (master_seed, iteration, role) through an
``RngStream``, so no other module may build, take or test for a numpy
generator; annotating a parameter with its type is allowed.
"""

import ast
from pathlib import Path

import pytest

import woesim

SOURCES = sorted(p for p in Path(woesim.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))

#: Imported but unused on purpose: ``bench/layers.py`` traces these
#: functions under ``woesim.engine``, so they stay importable there, though
#: ``run_iteration`` reads its cutoffs, confusion counts and Gini from one
#: ranking per scored split and calls none of them.
ALLOWED = {"engine.py": {"confusion", "default_cutoff_grid", "gini", "optimize_cutoff"}}
LAYERS = Path(__file__).parents[1] / "bench" / "layers.py"


def unused_imports(source: str) -> set[str]:
    """The names ``source`` imports and never refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_check_sees_a_stale_import():
    source = (
        "from .errors import DegeneratePlan, InsufficientEvents\n"
        "import numpy as np\n"
        "def f(n):\n"
        "    if n < 2:\n"
        "        raise DegeneratePlan(n)\n"
        "    return np.zeros(n)\n"
    )
    assert unused_imports(source) == {"InsufficientEvents"}


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == ALLOWED.get(path.name, set())


def traced_functions() -> dict[str, set[str]]:
    """The functions ``bench/layers.py`` ``TARGETS`` traces, by module file name."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    traced: dict[str, set[str]] = {}
    for entry in targets.elts:
        module, _, attr = (ast.literal_eval(e) for e in entry.elts[:3])
        traced.setdefault(module.rsplit(".", 1)[-1] + ".py", set()).add(attr)
    return traced


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_every_allowed_unused_import_is_a_traced_function_of_its_module(name):
    # an allowance outliving its bench target would hide a stale import
    assert ALLOWED[name] <= traced_functions().get(name, set())


def numpy_random_uses(source: str) -> list[int]:
    """The lines where ``source`` refers to ``numpy.random`` outside an annotation."""
    tree = ast.parse(source)
    numpy_names = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy"
    }
    # parameter and variable annotations, and return annotations
    annotations = [
        ann for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)) if ann
    ]
    in_annotation = {id(sub) for ann in annotations for sub in ast.walk(ann)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names)
            )
        else:
            hit = (
                isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names
                and id(node) not in in_annotation
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_numpy_random_outside_annotations():
    source = (
        "import numpy as np\n"
        "from numpy import random\n"
        "def f(gen: np.random.Generator) -> np.random.Generator:\n"
        "    x: np.random.Generator = gen\n"
        "    if isinstance(x, np.random.Generator):\n"
        "        return np.random.default_rng(0)\n"
    )
    assert numpy_random_uses(source) == [2, 5, 6]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rng.py"], ids=lambda p: p.name)
def test_only_rng_reaches_numpy_random(path):
    assert numpy_random_uses(path.read_text(encoding="utf-8")) == []
