"""Every public name of the package has a caller outside the tests: the
command line, a demo, an acceptance criterion, the benchmark or the
package's own code.  A name that only tests call fails here, so the
package holds what the program runs.

A caller is found by name with ``ast``: a name, an attribute or a string
constant equal to it (the benchmark's tracer patches attributes named by
strings), anywhere in those files but in the name's own definition and in
an ``__all__`` list."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timebin"
CALLERS = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def exported(tree):
    """The names in a module's ``__all__``, or, in a module without one (the
    package's ``__init__``), its public functions; and the public methods of
    the public classes among them as ``Class.method``."""
    names = next((ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                 [node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")])
    methods = [f"{node.name}.{item.name}" for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in names
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return [*names, *methods]


def definition(tree, dotted):
    """The node that defines ``dotted`` in a module, or None for a constant."""
    nodes = tree.body
    for part in dotted.split("."):
        node = next((n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            return None
        nodes = node.body
    return node


def references(tree):
    """How often each name, attribute name and string constant occurs in
    ``tree``, leaving out every ``__all__`` list."""
    found, stack = Counter(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


MODULES = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
CALLS = sum((references(tree) for tree in [*MODULES.values(), *map(parse, CALLERS)]),
            Counter())
PUBLIC = [(module, name) for module, tree in MODULES.items() for name in exported(tree)]


def test_every_module_is_walked():
    assert len(CALLERS) >= 6 and len(PUBLIC) > 50
    assert {"cli", "simulate", "streams", "analysis", "quantum", "tomography"} <= set(MODULES)
    assert {("__init__", "finite_number"), ("__init__", "whole_count")} <= set(PUBLIC)


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller_outside_the_tests(module, name):
    leaf = name.rpartition(".")[2]
    own = definition(MODULES[module], name)
    inside = references(own)[leaf] if own is not None else 0
    assert CALLS[leaf] > inside, f"{module}.{name} is called only by tests, or by nothing"
