"""Every function, class and method of lgrnok, public or private (dunders
aside), has a reader in the program: a name or attribute in `src/` or
`scripts/` outside its own definition.  The one exception is a public
function that a per-layer metric of BENCHMARK.json names, which the traced
benchmark run reads.  Code that only the tests read belongs in
tests/oracles.py.

The scan matches names, not bindings, so a definition that shares its name
with a name used elsewhere counts as read.

No function of the program takes a `deadline` parameter either: the run's
one deadline is armed by its entry point and looked up by the loops that
poll it (`lgrnok.budget`).
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "lgrnok").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree, public):
    """The module-level functions and classes of a module and the methods of
    its classes, as AST nodes: the public ones, or the private ones (a
    leading underscore, dunders excepted)."""
    def wanted(name):
        return not name.startswith("_") if public else name.startswith("_") and not is_dunder(name)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and wanted(item.name))


def names_read(node) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def unread(public):
    """The definitions of lgrnok that nothing in the program reads."""
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pinned = {m["name"].split(".")[1] for m in metrics if m["name"].count(".") == 2}
    return [f"{path.name}: {node.name}"
            for path, tree in trees.items() if path.parent.name == "lgrnok"
            for node in definitions(tree, public)
            if node.name not in pinned and read[node.name] == names_read(node)[node.name]]


def test_every_public_definition_is_read_by_the_program():
    assert not unread(public=True)


def test_every_private_definition_is_read_by_the_program():
    # a helper left behind by a deletion, such as a lone `_full_dim`
    assert not unread(public=False)


def test_no_function_takes_a_deadline():
    taking = [f"{path.name}: {getattr(node, 'name', 'lambda')}"
              for path in PROGRAM for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                          node.args.vararg, node.args.kwarg)
              if arg is not None and arg.arg == "deadline"]
    assert PROGRAM and not taking
