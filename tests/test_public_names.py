"""Every public name, and every public method and property of a public
class, has a caller outside the tests.

A name in ``dsekit.__all__`` must be read somewhere in ``src/dsekit`` (other
than ``__init__.py``, which only re-exports), ``demos/`` or ``bench/`` (other
than its tests), outside its own definition.  So must a method that a class
in ``dsekit.__all__`` defines in its body, and a property it has, whether
made by ``@property`` or by an assignment, if the name does not start with
an underscore.  A name that only tests call is code that no user of the
package needs.
"""

import ast
from pathlib import Path

import dsekit

ROOT = Path(__file__).resolve().parents[1]


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


def callers() -> set:
    files = [p for p in sorted((ROOT / "src" / "dsekit").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += [p for p in sorted((ROOT / "bench").glob("*.py"))
              if not p.name.startswith("test_")]
    assert files
    found = set()
    for path in files:
        found |= _reads(ast.parse(path.read_text(), str(path)))
    return found


def public_methods() -> set:
    """(class, method) for each public method defined in the body of a
    class in ``dsekit.__all__``."""
    found = set()
    for path in sorted((ROOT / "src" / "dsekit").glob("*.py")):
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


def test_a_self_reference_is_not_a_caller():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    def g(self):\n        return C\n\n"
                     "x = g\n")
    assert _reads(tree) == {"n", "g"}
