"""Source hygiene: no module keeps a top-level import it never uses.

A package's `__init__.py` re-exports names, `from __future__` imports
change the compiler, and a line marked `# noqa: F401` keeps a name on
purpose; none of these is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _used(tree: ast.Module) -> set:
    """Every name the module loads, also inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list:
    """`line: name` for each top-level import of `source` that it never
    uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used(tree)
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            marked = NOQA in lines[stmt.lineno - 1] or NOQA in lines[alias.lineno - 1]
            if not marked and _bound(alias) not in used:
                found.append(f"{alias.lineno}: {_bound(alias)}")
    return found


def test_no_module_has_an_unused_import():
    modules = [
        path
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert modules
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text("utf-8"))
             for path in modules}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "import os.path as osp\n"
        "from typing import (  # noqa: F401\n"
        "    Dict,\n"
        ")\n"
        "from typing import List, Optional\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    assert unused_imports(source) == ["2: os", "4: osp"]
