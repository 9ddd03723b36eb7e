"""No module of the package imports a name at module level that it never
uses, and no module defines a function or class that nothing names.

No linter runs on the package, so this AST scan stands in for pyflakes'
F401. A name counts as used when the module reads it anywhere (also inside
a string annotation) or lists it in ``__all__``. An import whose line
carries ``# noqa: F401`` is exempt: those bind names only for the
benchmark's per-layer probes, or load a module ahead of the commands.

The library stays separate from its command line: no module of the
package but ``__main__`` imports ``cli``, at module level or inside a
function.

A module-level function or class counts as named when some module of the
package reads it (by name, as an attribute, or in a string annotation),
imports it, or lists it in ``__all__``; code that only tests call belongs
in the tests. A module-level constant (a name bound by assignment) must be
read, imported or listed in ``__all__`` the same way: assigning it does not
count.

No option goes unused: a parameter with a default of a module-level
function that the package calls must be set, by keyword or by position,
by at least one of those calls. A value that no caller changes is a
constant of the module, not a parameter.

No dataclass compares an array: a dataclass that holds a field annotated
``np.ndarray`` takes ``eq=False``, since the ``__eq__`` it would generate
raises on arrays (and a frozen one's ``__hash__`` would too).
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil

import arscreen

PACKAGE = os.path.dirname(os.path.abspath(arscreen.__file__))
EXEMPT = "# noqa: F401"


def _bound_imports(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name -> line of every module-level import that is not exempt."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if any(EXEMPT in lines[n - 1] for n in {node.lineno, alias.lineno}):
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = alias.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and isinstance(
                node.annotation, ast.Constant):
            used |= _names_in_string(node.annotation.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and isinstance(
                node.returns, ast.Constant):
            used |= _names_in_string(node.returns.value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def _names_in_string(annotation) -> set[str]:
    """Names read by a string annotation (none for ``-> None``)."""
    if not isinstance(annotation, str):
        return set()
    return {n.id for n in ast.walk(ast.parse(annotation, mode="eval")) if isinstance(n, ast.Name)}


def _named_anywhere(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, imports or lists
    in ``__all__``."""
    named = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
    return named


def _definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every module-level function, class and constant
    (each name an assignment binds, ``__dunder__`` names aside)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and not t.id.startswith("__")]
    return found


def unnamed_definitions(paths: list[str]) -> list[str]:
    """``module:line: name`` of every module-level function, class or
    constant of the modules at ``paths`` that none of them names."""
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), filename=path)
    named = set().union(*map(_named_anywhere, trees.values()))
    return [f"{os.path.basename(path)}:{line}: {name}"
            for path, tree in trees.items() for line, name in _definitions(tree)
            if name not in named]


def _defaulted(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, or None for a keyword-only one, name) of every parameter
    of ``func`` that has a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter, by keyword or by position; a
    call that unpacks ``*args`` or ``**kwargs`` may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (position is not None and position < len(call.args)) or any(
        k.arg == name for k in call.keywords)


def unset_options(paths: list[str]) -> list[str]:
    """``module:line: function(parameter)`` of every defaulted parameter of
    a module-level function of the modules at ``paths`` that some call in
    them reaches but none sets. A call reaches every function of the name
    it calls, plainly (``f(...)``) or as an attribute (``m.f(...)``)."""
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), filename=path)
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return [f"{os.path.basename(path)}:{func.lineno}: {func.name}({name})"
            for path, tree in trees.items() for func in tree.body
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name in calls
            for position, name in _defaulted(func)
            if not any(_sets(call, position, name) for call in calls[func.name])]


def unused_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    used = _used_names(tree)
    bound = _bound_imports(tree, source.splitlines())
    return [f"{os.path.basename(path)}:{line}: {name}"
            for line, name in sorted((line, name) for name, line in bound.items())
            if name not in used]


def cli_imports(path: str) -> list[str]:
    """``module:line`` of every import of the package's ``cli`` in the
    module at ``path``, relative or absolute, at any depth."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            loaded = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("arscreen" if node.level else "", node.module)))
            loaded = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "arscreen.cli" or name.startswith("arscreen.cli.") for name in loaded):
            found.append(f"{os.path.basename(path)}:{node.lineno}")
    return found


def test_no_library_module_imports_the_cli():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__main__.py")
    assert "__init__.py" in modules and "cli.py" in modules
    assert [hit for f in modules for hit in cli_imports(os.path.join(PACKAGE, f))] == []
    assert cli_imports(os.path.join(PACKAGE, "__main__.py")) == ["__main__.py:5"]


def test_scan_finds_a_cli_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .cli import main\n"
                    "from . import cli, errors\n"
                    "from .clinic import x\n"
                    "import arscreen.cli as c\n"
                    "import arscreen.client\n"
                    "def f():\n"
                    "    from arscreen import cli\n"
                    "    from arscreen.cli import main\n"
                    "    from . import trajectory\n")
    assert cli_imports(str(path)) == ["mod.py:1", "mod.py:2", "mod.py:4", "mod.py:7", "mod.py:8"]


def test_package_modules_use_every_import():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "trajectory.py" in modules
    unused = [u for f in modules for u in unused_imports(os.path.join(PACKAGE, f))]
    assert unused == []


def test_package_names_every_function_and_class():
    modules = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert unnamed_definitions(modules) == []


# ``cli.main``'s ``argv`` is exempt: ``main`` is the console entry point,
# which the installed script and ``python -m arscreen`` call without
# arguments so that it reads ``sys.argv``; a caller in the same process
# (the tests, an embedding program) passes its argv.
ENTRY_POINT_OPTION = ("cli.py", "main(argv)")


def test_package_sets_every_option():
    modules = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    unset = [u for u in unset_options(modules)
             if (u.split(":")[0], u.split(": ")[1]) != ENTRY_POINT_OPTION]
    assert unset == []


def test_scan_finds_an_unset_option(tmp_path):
    (tmp_path / "a.py").write_text("import b\n"
                                   "def f(x, scale=1.0, *, mode='a', tag=None):\n"
                                   "    return x\n"
                                   "def g(x, y=2):\n"
                                   "    return x\n"
                                   "def h(z=0):\n"
                                   "    return z\n"
                                   "def uncalled(w=0):\n"
                                   "    return w\n"
                                   "def k(q=1):\n"
                                   "    return q\n"
                                   "f(1, 2.0)\n"
                                   "b.f(1, mode='b')\n"
                                   "g(1)\n"
                                   "h(*[])\n"
                                   "k(**{})\n")
    (tmp_path / "b.py").write_text("def f(x, scale=1.0, *, mode='a', tag=None):\n"
                                   "    return x\n")
    paths = [str(tmp_path / f) for f in ("a.py", "b.py")]
    assert unset_options(paths) == ["a.py:2: f(tag)", "a.py:4: g(y)", "b.py:1: f(tag)"]


def test_scan_finds_an_unnamed_definition(tmp_path):
    (tmp_path / "a.py").write_text("import b\n"
                                   "from c import C\n"
                                   "__all__ = ['api', 'EXPORTED']\n"
                                   "def api(x: 'Hint'):\n"
                                   "    return b.helper(x), C, LOW + b.SCALE + LIMIT\n"
                                   "class Hint:\n"
                                   "    pass\n"
                                   "def orphan():\n"
                                   "    return 'orphan'\n"
                                   "EXPORTED = 1\n"
                                   "LOW, HIGH = 0, 1\n"
                                   "LIMIT: int = 3\n"
                                   "UNREAD = ('x', 'y')\n")
    (tmp_path / "b.py").write_text("def helper(x):\n"
                                   "    return x\n"
                                   "async def unused():\n"
                                   "    pass\n"
                                   "SCALE = 2.0\n"
                                   "_PRIVATE: float = 1.0\n")
    (tmp_path / "c.py").write_text("class C:\n"
                                   "    def method(self):\n"
                                   "        pass\n")
    paths = [str(tmp_path / f) for f in ("a.py", "b.py", "c.py")]
    assert unnamed_definitions(paths) == ["a.py:8: orphan", "a.py:11: HIGH", "a.py:13: UNREAD",
                                          "b.py:3: unused", "b.py:6: _PRIVATE"]


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\n"
                    "import numpy.ma  # noqa: F401\n"
                    "from json import (\n"
                    "    dumps,\n"
                    "    loads,\n"
                    ")\n"
                    "from typing import Any, Sequence as Seq\n"
                    "__all__ = ['dumps']\n"
                    "def f(x: 'Seq[int]') -> 'Any':\n"
                    "    return x\n")
    assert unused_imports(str(path)) == ["mod.py:2: os", "mod.py:6: loads"]


def comparing_array_dataclasses(modules) -> list[str]:
    """``module.Class.field`` of every field annotated ``np.ndarray`` that a
    dataclass defined in one of ``modules`` compares in its ``__eq__``."""
    return [f"{module.__name__}.{name}.{f.name}"
            for module in modules for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.eq
            for f in dataclasses.fields(cls) if f.compare and "np.ndarray" in str(f.type)]


def test_no_dataclass_compares_an_array():
    modules = [importlib.import_module(f"arscreen.{m.name}")
               for m in pkgutil.iter_modules(arscreen.__path__)]
    assert len(modules) > 5
    assert comparing_array_dataclasses(modules) == []


def test_scan_finds_a_compared_array(tmp_path, monkeypatch):
    (tmp_path / "arrays_mod.py").write_text(
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "@dataclass(frozen=True)\n"
        "class Held:\n"
        "    x: np.ndarray\n"
        "    y: np.ndarray | None = None\n"
        "    n: int = 0\n"
        "@dataclass(eq=False)\n"
        "class Skipped:\n"
        "    x: np.ndarray\n"
        "@dataclass\n"
        "class Uncompared:\n"
        "    x: np.ndarray = field(compare=False)\n"
        "    n: int = 0\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("arrays_mod")
    assert comparing_array_dataclasses([module]) == ["arrays_mod.Held.x", "arrays_mod.Held.y"]
