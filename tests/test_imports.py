"""Every module of the package and of its tests uses each name it
imports, and only ``rng.py`` reaches ``numpy.random``.

No linter runs on this code base, so a name left imported after its last
use goes (a deleted exception class, a dropped helper) is caught here.
The package ``__init__`` imports to re-export; ``test_public_names`` pins
those names.

Every draw is addressed by (master_seed, iteration, role) through an
``RngStream``, so no other module may build, take or test for a numpy
generator; annotating a parameter with its type is allowed.

Likewise only ``io.py`` opens a file for writing, so every output goes
through its one helper and is replaced, not truncated in place.

And every private module-level name of the package (a helper, class or
constant whose name starts with one underscore) is referred to by some
package module outside its own definition, so a helper does not outlive
its last caller; references from the tests do not count.
"""

from collections import Counter

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


def write_opens(source: str) -> list[int]:
    """The lines where ``source`` opens a file for writing: ``open`` or an
    ``.open`` method with a mode that is not a literal read mode (so one
    holding w, x, a or +, or computed), ``write_text`` or ``write_bytes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # the mode follows the path of ``open`` and comes first for ``Path.open``
            position = 1 if isinstance(node.func, ast.Name) else 0
            modes = node.args[position:position + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wxa+")
                for m in modes
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_write_open():
    source = (
        "from pathlib import Path\n"
        "def f(path, mode):\n"
        "    open(path).read()\n"
        "    open(path, 'rb').read()\n"
        "    Path(path).open(encoding='utf-8').read()\n"
        "    open(path, 'w')\n"
        "    open(path, mode='x', newline='')\n"
        "    Path(path).open('a')\n"
        "    open(path, 'r+b')\n"
        "    open(path, mode)\n"
        "    Path(path).write_text('')\n"
        "    Path(path).write_bytes(b'')\n"
    )
    assert write_opens(source) == [6, 7, 8, 9, 10, 11, 12]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "io.py"], ids=lambda p: p.name)
def test_only_io_opens_a_file_for_writing(path):
    assert write_opens(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module):
    """Each module-level def, class or assignment of ``tree`` with a name
    that starts with a single underscore, as (name, node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a loaded name, an
    attribute, or a name imported from another module."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(a.name for a in sub.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each private module-level name of ``sources`` (source
    text by module name) that no module refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return {
        (module, name)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if total[name] == _references(node)[name]
    }


def test_the_check_sees_a_private_name_without_a_reference():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_ORPHAN, public = 1, 2\n"
            "__dunder__ = 0\n"
            "def _recurse(n):\n"
            "    return _recurse(n - 1) if n else _LIMIT\n"
            "def _imported():\n"
            "    pass\n"
            "def _called_as_attribute():\n"
            "    pass\n"
            "class _Unused:\n"
            "    def make(self):\n"
            "        return _Unused()\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _imported\n"
            "a._called_as_attribute()\n"
        ),
    }
    assert unreferenced_private_names(sources) == {
        ("a.py", "_ORPHAN"), ("a.py", "_recurse"), ("a.py", "_Unused"),
    }


def test_every_private_name_of_the_package_is_referred_to_in_the_package():
    package = Path(woesim.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == set()
