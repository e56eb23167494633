"""Source hygiene: checks that read the package's code instead of running it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "deutsch_paths"


def private_definitions(tree):
    """The private names a module binds at its top level (functions, classes
    and assignment targets, one leading underscore), each with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in found:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def references(tree):
    """Every name a module reads: loaded names and attributes, and the names
    it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_used():
    # a private helper left behind by a refactor has no caller in the package
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "strip.py" in trees  # an empty glob would pass vacuously
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in private_definitions(tree) if name not in used]
    assert not unused, f"private names nothing in the package refers to: {unused}"
