"""Source hygiene: no module keeps a top-level import it never uses, no
private top-level name in `src/` goes unread, and nothing public in `src/`
is kept for tests alone.

A name that a package's `__init__.py` in `src/` re-exports must be loaded
through the package by a module in `src/` or `bench/` outside it: by
`from revenant.<pkg> import name`, `from .<pkg> import name` or as
`<pkg>.name`; a name in a string, such as a span label, is no load.
Tests import every other name from its submodule.  `from __future__`
imports change the compiler, and a line marked `# noqa: F401` keeps a
name on purpose; neither is checked for use, so such a mark in `src/`
may sit only on an import of one name.  A private name (`_name`, not
a dunder such as `__all__`) defined at the top of a module in `src/` is
read when some other top-level statement of a module in `src/` or
`tests/` loads it, as a name or as an attribute.  A public top-level name
of a module in `src/` must be loaded the same way by a module in `src/` or
`bench/`, and a public method or property must be read as an attribute
there outside its own body; a name inside a string counts, so the names
the benchmark's tracer looks up are read.  No parameter default of a
function in `src/` is passed by every call in `src/` or `bench/` that
reaches the function's name, so a default says what most callers get,
and some call there passes each, so a default that no caller changes is
a constant instead.  `revenant.forge`, the fixture library that the tests and the benchmark
share, is not checked.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of `tree`, and of each string in it that parses as an
    expression (a quoted annotation, or a name that code looks up)."""
    for node in ast.walk(tree):
        yield node
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from ast.walk(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue


def _used(tree: ast.AST) -> set:
    """Every name `tree` loads, also inside quoted annotations."""
    return {node.id for node in _walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _attributes(tree: ast.AST) -> Counter:
    """How often `tree` reads each attribute name, also inside strings."""
    return Counter(node.attr for node in _walk(tree) if isinstance(node, ast.Attribute))


def _loads(trees: dict) -> dict:
    """(path, index) -> the names and attribute names that each top-level
    statement of `trees` (path -> module) loads."""
    return {(path, k): _used(stmt) | set(_attributes(stmt))
            for path, tree in trees.items() for k, stmt in enumerate(tree.body)}


def _defined(stmt: ast.stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def dead_helpers(sources: dict, readers: dict) -> list:
    """`path: name` for each private top-level name of the modules
    `sources` (path -> source) that no other live top-level statement of
    `sources` or `readers` loads; a statement whose private names are all
    unread is not live."""
    trees = {path: ast.parse(source) for path, source in {**readers, **sources}.items()}
    loads = _loads(trees)
    private = {}
    for path in sources:
        for k, stmt in enumerate(trees[path].body):
            names = [n for n in _defined(stmt) if n.startswith("_") and not n.startswith("__")]
            if names:
                private[(path, k)] = names
    dead: dict = {}

    def read(name: str, at: tuple) -> bool:
        return any(name in used for by, used in loads.items() if by != at and by not in dead)

    while True:  # what only dead statements read is dead too
        found = {at: names for at, names in private.items()
                 if at not in dead and not any(read(name, at) for name in names)}
        if not found:
            return sorted(f"{path}: {name}" for (path, _), names in dead.items() for name in names)
        dead.update(found)


def unread_public_names(sources: dict, readers: dict) -> list:
    """`path: name` for each public top-level name of the modules `sources`
    (path -> source) that no other top-level statement of `sources` or
    `readers` loads, and `path: Class.name` for each public method or
    property of their top-level classes that nothing there reads as an
    attribute outside its own body."""
    trees = {path: ast.parse(source) for path, source in {**readers, **sources}.items()}
    loads = _loads(trees)
    attributes = sum(map(_attributes, trees.values()), Counter())
    found = []
    for path in sources:
        for k, stmt in enumerate(trees[path].body):
            found += [f"{path}: {name}" for name in _defined(stmt) if not name.startswith("_")
                      and not any(name in used for at, used in loads.items() if at != (path, k))]
            methods = stmt.body if isinstance(stmt, ast.ClassDef) else []
            found += [f"{path}: {stmt.name}.{fn.name}" for fn in methods
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not fn.name.startswith("_")
                      and attributes[fn.name] <= _attributes(fn)[fn.name]]
    return sorted(found)


def _dotted(node: ast.AST) -> str:
    """`a.b.c` for a chain of names and attributes, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def unread_reexports(sources: dict) -> list:
    """`path: name` for each name that a package's `__init__.py` among
    `sources` (path under its import root -> source) imports, and that no
    module of `sources` outside the package loads through the package:
    from an import of the package, or as an attribute of its name."""
    through = set()  # (reader path, module, name)
    trees = {path: ast.parse(source) for path, source in sources.items()}
    for path, tree in trees.items():
        package = path.split("/")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                through |= {(path, module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                through.add((path, _dotted(node.value), node.attr))
    found = []
    for path, tree in trees.items():
        if not path.endswith("/__init__.py"):
            continue
        inside = path[: -len("__init__.py")]
        names = {inside[:-1].replace("/", "."), inside[:-1].rsplit("/", 1)[-1]}
        exported = [_bound(alias) for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
                    and stmt.module != "__future__" for alias in stmt.names]
        found += [f"{path}: {name}" for name in exported
                  if not any(module in names and read == name and not by.startswith(inside)
                             for by, module, read in through)]
    return sorted(found)


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


def broad_noqa_imports(source: str) -> list:
    """`line: names` for each import statement of `source` marked
    `# noqa: F401` that binds more than one name: the mark keeps every
    name it binds, used or not."""
    lines = source.splitlines()
    found = []
    for stmt in ast.walk(ast.parse(source)):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or len(stmt.names) < 2:
            continue
        if any(NOQA in line for line in lines[stmt.lineno - 1 : stmt.end_lineno]):
            found.append(f"{stmt.lineno}: {', '.join(_bound(a) for a in stmt.names)}")
    return found


def _call_name(call: ast.Call) -> str:
    """The name a call reaches: `f` for `f(...)` and for `x.f(...)`."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _defaults(fn: ast.FunctionDef, method: bool) -> list:
    """(name, position or None) of each parameter of `fn` that has a
    default; the position counts the arguments a call passes, so a
    method's `self` or `cls` takes none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ) else 0
    found = [(a.arg, i - skip)
             for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _passes(call: ast.Call, name: str, position, starred: bool) -> bool:
    """Whether `call` passes the parameter `name`, by keyword or at
    `position`; a call with `*args` or `**kwargs` counts as `starred`."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return starred
    return any(k.arg == name for k in call.keywords) or (
        position is not None and position < len(call.args))


def _defaults_and_calls(sources: dict, callers: dict) -> Iterator[tuple]:
    """(`path: function(parameter)`, parameter, position, calls) for each
    parameter default of a function or method of `sources` (path ->
    source), with every call in `sources` or `callers` that reaches the
    function by name; a call that names a class reaches its `__init__`."""
    trees = {path: ast.parse(source) for path, source in {**callers, **sources}.items()}
    calls: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    for path in sources:
        owner = {id(fn): node.name for node in ast.walk(trees[path])
                 if isinstance(node, ast.ClassDef) for fn in node.body}
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            reached_as = cls if cls and fn.name == "__init__" else fn.name
            for name, position in _defaults(fn, cls is not None):
                label = f"{path}: {cls + '.' if cls else ''}{fn.name}({name})"
                yield label, name, position, calls.get(reached_as, [])


def overridden_defaults(sources: dict, callers: dict) -> list:
    """`path: function(parameter)` for each parameter default of `sources`
    that at least one call in `sources` or `callers` reaches by name, and
    that every such call passes; a call with `*args` or `**kwargs` passes
    nothing."""
    return sorted(label for label, name, position, reaching in _defaults_and_calls(sources, callers)
                  if reaching and all(_passes(call, name, position, False) for call in reaching))


def unoverridden_defaults(sources: dict, callers: dict) -> list:
    """`path: function(parameter)` for each parameter default of `sources`
    that no call in `sources` or `callers` passes; a call with `*args` or
    `**kwargs` counts as passing it."""
    return sorted(label for label, name, position, reaching in _defaults_and_calls(sources, callers)
                  if not any(_passes(call, name, position, True) for call in reaching))


def _src_and_callers() -> tuple:
    """The modules of `src/` but forge, and the modules that call them:
    `bench/` and forge, the fixture library that the tests and the
    benchmark share (path -> source)."""
    sources = {top: {str(path.relative_to(ROOT)): path.read_text("utf-8")
                     for path in sorted((ROOT / top).rglob("*.py"))}
               for top in ("src", "bench")}
    forge = {"src/revenant/forge.py": sources["src"].pop("src/revenant/forge.py")}
    return sources["src"], {**sources["bench"], **forge}


def test_no_default_in_src_is_overridden_by_every_caller():
    assert overridden_defaults(*_src_and_callers()) == []


def test_every_default_in_src_has_a_caller_that_overrides_it():
    assert unoverridden_defaults(*_src_and_callers()) == []


def test_no_noqa_import_in_src_binds_more_than_one_name():
    found = {str(path.relative_to(ROOT)): broad_noqa_imports(path.read_text("utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {path: hits for path, hits in found.items() if hits} == {}


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


def test_every_private_helper_in_src_is_read():
    sources = {top: {str(path.relative_to(ROOT)): path.read_text("utf-8")
                     for path in sorted((ROOT / top).rglob("*.py"))}
               for top in ("src", "tests")}
    assert sources["src"]
    assert dead_helpers(sources["src"], sources["tests"]) == []


def test_every_public_name_in_src_has_a_reader():
    assert unread_public_names(*_src_and_callers()) == []


def test_every_reexport_in_src_is_loaded_through_its_package():
    sources = {str(path.relative_to(ROOT / "src")): path.read_text("utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert "revenant/patchcore/__init__.py" in sources
    sources.update({str(path.relative_to(ROOT)): path.read_text("utf-8")
                    for path in sorted((ROOT / "bench").rglob("*.py"))})
    assert unread_reexports(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_ARGS = ('log',)\n"
            "_LIMIT: int = 3\n"
            "def _log(git):\n"
            "    return _log(git) + _ARGS\n"
            "def _read(x: '_Tree'):\n"
            "    return x\n"
            "class _Tree:\n"
            "    pass\n"
            "def f():\n"
            "    return _read(None)\n"
            "def _peek():\n"
            "    pass\n"
        ),
    }
    readers = {"test_a.py": "import a\na._peek()\n_LIMIT = 4\n"}
    assert dead_helpers(sources, readers) == ["a.py: _ARGS", "a.py: _LIMIT", "a.py: _log"]


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "WIDTH: int = 4\n"
            "def walk(n):\n"
            "    return walk(n - 1) if n else LIMIT\n"
            "def traced():\n"
            "    pass\n"
            "def _helper():\n"
            "    pass\n"
            "class Report:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    @property\n"
            "    def count(self):\n"
            "        return self.count\n"
            "    def render(self):\n"
            "        return self.size()\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def remove(self):\n"
            "        pass\n"
        ),
        "__init__.py": "from .a import WIDTH\n",
    }
    readers = {"run.py": "import a\nTRACED = ('traced', 'Report.remove')\na.Report().render()\n"}
    assert unread_public_names(sources, readers) == [
        "a.py: Report.count", "a.py: WIDTH", "a.py: walk",
    ]


def test_the_check_sees_an_overridden_default():
    sources = {
        "a.py": (
            "def f(x, y=1, *, z=2):\n"
            "    return x\n"
            "def g(a=0):\n"
            "    pass\n"
            "def h(b=0):\n"
            "    pass\n"
            "def unused(c=0):\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self, n=0):\n"
            "        pass\n"
            "    def m(self, k=1):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def s(j, k=1):\n"
            "        pass\n"
        ),
    }
    callers = {
        "run.py": (
            "import a\n"
            "a.f(1, 2, z=3)\n"
            "a.f(1, y=5, z=4)\n"
            "a.g(*[1])\n"
            "a.g(a=1)\n"
            "a.h(**{'b': 1})\n"
            "a.C(n=1).m(2)\n"
            "a.C.s(1)\n"
        ),
    }
    assert overridden_defaults(sources, callers) == [
        "a.py: C.__init__(n)", "a.py: C.m(k)", "a.py: f(y)", "a.py: f(z)",
    ]


def test_the_check_sees_a_default_no_caller_overrides():
    sources = {
        "a.py": (
            "def f(x, y=1, *, z=2):\n"
            "    return g(x)\n"
            "def g(a=0, b=0):\n"
            "    pass\n"
            "def h(c=0):\n"
            "    pass\n"
            "def unused(d=0):\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self, n=0):\n"
            "        pass\n"
            "    def m(self, k=1):\n"
            "        pass\n"
        ),
    }
    callers = {
        "run.py": (
            "import a\n"
            "a.f(1, 2)\n"
            "a.g(*[1])\n"
            "a.h(**{'c': 1})\n"
            "a.C().m()\n"
        ),
    }
    assert unoverridden_defaults(sources, callers) == [
        "a.py: C.__init__(n)", "a.py: C.m(k)", "a.py: f(z)", "a.py: unused(d)",
    ]


def test_the_check_sees_an_unread_reexport():
    sources = {
        "pkg/__init__.py": "from .a import A, B, C, D\nfrom .b import E as F\n",
        "pkg/a.py": "A = B = C = D = 1\n",
        "pkg/b.py": "from . import F\nfrom pkg import D\nE = F\n",
        "app.py": "from pkg import A\nimport pkg\nprint(pkg.B)\n",
        "lib/mod.py": "from ..pkg import C\nfrom pkg.a import D\nLABEL = 'pkg.D'\n",
    }
    assert unread_reexports(sources) == ["pkg/__init__.py: D", "pkg/__init__.py: F"]


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


def test_the_check_sees_a_broad_noqa_import():
    source = (
        "import json  # noqa: F401\n"
        "from os import (  # noqa: F401\n"
        "    path,\n"
        "    sep,\n"
        ")\n"
        "from typing import List, Optional\n"
        "import sys, re  # noqa: F401\n"
    )
    assert broad_noqa_imports(source) == ["2: path, sep", "7: sys, re"]
