"""Every public name, and every public method and property of a public
class, has a caller outside the tests.

A name in ``dsekit.__all__`` must be read somewhere in ``src/dsekit`` (other
than ``__init__.py``, which only re-exports), ``demos/`` or ``bench/`` (other
than its tests), outside its own definition.  So must a method that a class
in ``dsekit.__all__`` defines in its body, and a property it has, whether
made by ``@property`` or by an assignment, if the name does not start with
an underscore.  A name that only tests call is code that no user of the
package needs.

The same holds inside the package: a function, class or method of
``src/dsekit`` whose name starts with one underscore, defined at module
level or in the body of a module-level class, must be read somewhere in
``src/dsekit`` outside its own definition.  A private helper that only
tests call adds a name and no behaviour.
"""

import ast
from pathlib import Path

import dsekit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dsekit"


def _reads(tree: ast.AST, inside: tuple = ()) -> set:
    """Names and attributes the tree loads, less those loaded inside the
    function or class that defines the same name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found |= _reads(node, inside + (node.name,))
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        found |= _reads(node, inside)
    return found


def _reads_in(files: list) -> set:
    found = set()
    for path in files:
        found |= _reads(ast.parse(path.read_text(), str(path)))
    return found


def callers() -> set:
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += [p for p in sorted((ROOT / "bench").glob("*.py"))
              if not p.name.startswith("test_")]
    assert files
    return _reads_in(files)


def private_definitions() -> set:
    """The dotted path, module first, of each function, class or method of
    ``src/dsekit`` whose name starts with one underscore: one at module
    level, or in the body of a class at module level."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            named = [(path.stem, node)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{path.stem}.{node.name}", f) for f in node.body]
            found |= {f"{prefix}.{f.name}" for prefix, f in named
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                      and f.name.startswith("_")
                      and not f.name.startswith("__")}
    return found


def public_methods() -> set:
    """(class, method) for each public method defined in the body of a
    class in ``dsekit.__all__``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name in dsekit.__all__:
                found |= {(node.name, f.name) for f in node.body
                          if isinstance(f, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                          and not f.name.startswith("_")}
    return found


def public_properties() -> set:
    """(class, property) for each public property of a class in
    ``dsekit.__all__``: one assigned in the class body is not a ``def``."""
    return {(c, name) for c in dsekit.__all__
            if isinstance(cls := getattr(dsekit, c), type)
            for name, value in vars(cls).items()
            if isinstance(value, property) and not name.startswith("_")}


def test_every_public_name_has_a_caller_outside_the_tests():
    unread = sorted(set(dsekit.__all__) - callers())
    assert not unread, f"public names that only tests read: {unread}"


def test_every_public_method_has_a_caller_outside_the_tests():
    methods = public_methods()
    assert ("PartialMap", "restrict") in methods
    read = callers()
    unread = sorted(f"{c}.{m}" for c, m in methods if m not in read)
    assert not unread, f"public methods that only tests read: {unread}"


def test_every_public_property_has_a_caller_outside_the_tests():
    properties = public_properties()
    # Atom's read-outs are assigned, IntervalSet.pairs is decorated
    assert {("Atom", "lo"), ("IntervalSet", "pairs")} <= properties
    read = callers()
    unread = sorted(f"{c}.{p}" for c, p in properties if p not in read)
    assert not unread, f"public properties that only tests read: {unread}"


def test_every_private_helper_is_read_in_the_package():
    defs = private_definitions()
    # a module-level function, a class and a method
    assert {"intervals._merged", "intervals._Grid",
            "maps.PartialMap._cut"} <= defs
    read = _reads_in(sorted(SRC.glob("*.py")))
    unread = sorted(p for p in defs if p.rpartition(".")[2] not in read)
    assert not unread, f"private helpers that only tests read: {unread}"


def test_a_self_reference_is_not_a_caller():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    def g(self):\n        return C\n\n"
                     "x = g\n")
    assert _reads(tree) == {"n", "g"}
