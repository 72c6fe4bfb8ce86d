"""Structural rules of the package source: no import cycles inside the
package, each module importing only the layers below it, no module
reaching for another module's private names, and no definition that only
the tests read."""

import ast
import pathlib

import ahbopt

PACKAGE = "ahbopt"
SOURCE = pathlib.Path(ahbopt.__file__).parent

# the package's layers, lowest first; a module imports only earlier ones
LAYERS = ("errors", "_io", "_radon", "objective", "trace", "solvers", "certify", "cli",
          "__main__", "__init__")


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _scan(sources):
    """Map each module name to the package modules it imports and to the
    private names of other modules it imports or reads.

    ``sources`` maps module names (file stems, ``__init__`` for the
    package) to source text. Imports anywhere in a module count,
    including those inside functions. A private module imported by name,
    such as ``from . import _radon``, is a module import, not a private
    name; reading ``_radon._x`` is one.
    """
    edges, private = {}, {}
    for name, text in sources.items():
        deps, uses, aliases = set(), [], {}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                if (node.level == 1 and node.module is None) or node.module == PACKAGE:
                    target = "__init__"
                elif node.level == 1:
                    target = node.module.split(".")[0]
                elif node.module and node.module.startswith(PACKAGE + "."):
                    target = node.module.split(".")[1]
                else:
                    continue
                for alias in node.names:
                    if target == "__init__" and alias.name in sources:
                        deps.add(alias.name)
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        deps.add(target)
                        if _private(alias.name):
                            uses.append(f"from {target} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == PACKAGE and len(parts) > 1 and alias.asname:
                        deps.add(parts[1])
                        aliases[alias.asname] = parts[1]
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                uses.append(f"{aliases[node.value.id]}.{node.attr}")
        deps.discard(name)
        edges[name], private[name] = deps, uses
    return edges, private


def _unread(sources, public):
    """The top-level functions, classes and assigned names, as
    ``module.name``, that no module of ``sources`` reads and ``public``
    does not list. A read is a load of the bare name or of an attribute
    of that name anywhere in any module; dunder names are exempt."""
    read, defined = set(), []
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(module, sub.id) for target in node.targets
                            for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and name not in public and not name.startswith("__"))


def _cycle(edges):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(edges.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for start in sorted(edges):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def _package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCE.glob("*.py")}


def test_the_package_imports_have_no_cycle():
    edges, _ = _scan(_package_sources())
    assert edges["__init__"] >= {"certify", "objective", "solvers", "trace"}
    assert _cycle(edges) is None


def test_each_module_imports_only_lower_layers():
    sources = _package_sources()
    assert sorted(sources) == sorted(LAYERS)
    edges, _ = _scan(sources)
    upward = {(name, dep) for name, deps in edges.items() for dep in deps
              if LAYERS.index(dep) > LAYERS.index(name)}
    assert upward == set()


def test_no_module_imports_or_reads_another_modules_private_names():
    edges, private = _scan(_package_sources())
    assert "_radon" in edges["objective"] and "_io" in edges["cli"]
    assert {name: uses for name, uses in private.items() if uses} == {}


def test_the_scan_sees_cycles_and_private_names():
    edges, private = _scan({
        "a": "from .b import f, _g\nfrom . import c\nc._h()\n",
        "b": "def f():\n    from .a import x\n",
        "c": "import ahbopt.b as bee\nbee._k\n",
        "__init__": "from .a import f\n",
    })
    assert edges == {"a": {"b", "c"}, "b": {"a"}, "c": {"b"}, "__init__": {"a"}}
    assert private == {"a": ["from b import _g", "c._h"], "b": [], "c": ["b._k"],
                       "__init__": []}
    assert _cycle(edges) == ["a", "b", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_every_definition_is_read_by_the_package_or_public():
    assert _unread(_package_sources(), set(ahbopt.__all__)) == []
    assert _unread({
        "a": "X, Y = 1, 2\ndef f():\n    return Y\n__all__ = []\n",
        "b": "from . import a\na.g()\ndef g():\n    pass\nclass C:\n    pass\n",
    }, {"C"}) == ["a.X", "a.f"]
