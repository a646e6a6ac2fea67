"""Every module of the package uses each name it imports.

No linter runs on this code base, so a name left imported after its last
use goes (a deleted exception class, a dropped helper) is caught here.
The package ``__init__`` imports to re-export; ``test_public_names`` pins
those names.
"""

import ast
from pathlib import Path

import pytest

import woesim

SOURCES = sorted(p for p in Path(woesim.__file__).parent.glob("*.py") if p.name != "__init__.py")

#: Imported but unused on purpose: ``bench/layers.py`` traces these
#: functions under ``woesim.engine``, so they stay importable there.
ALLOWED = {"engine.py": {"confusion", "default_cutoff_grid", "optimize_cutoff"}}


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == ALLOWED.get(path.name, set())
