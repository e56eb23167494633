"""Source hygiene: checks that read the package's code instead of running it."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "deutsch_paths"
PERFBENCH = SRC.parents[1] / "perfbench"

# Public names that no code reads: the benchmark's tracer reaches each one
# only through an attribute string in its LAYERS table, which a name scan
# does not see.  The list is kept exact, so a name that gains a reader
# leaves it.
UNREACHED = {"strip.seq_a", "strip.seq_b", "series.ZSeries.inverse", "series.IntPoly.divmod_by"}


def definitions(tree):
    """The names a module binds at its top level (functions, classes and
    assignment targets) and the methods of its classes, each as (label,
    name, line), the label of a method being Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item.name, item.lineno)
                            for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, n.id, node.lineno)
                        for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def private_definitions(tree):
    """The private names a module binds at its top level (one leading
    underscore), each with its line."""
    for label, name, line in definitions(tree):
        if "." not in label and name.startswith("_") and not name.startswith("__"):
            yield name, line


def public_definitions(tree):
    """The public names a module binds at its top level (no leading
    underscore) and the methods of its classes but for dunders, each as
    (label, name)."""
    for label, name, _ in definitions(tree):
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and ("." in label or not name.startswith("_")):
            yield label, name


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


def pass_throughs(tree):
    """The functions and methods whose body, after any docstring, is only
    `return g(p1, ..., pn)`: their own parameters, in order, and no
    keywords.  Each as (name, line)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        if (isinstance(call, ast.Call) and not call.keywords
                and not (args.vararg or args.kwarg)
                and [a.id if isinstance(a, ast.Name) else None for a in call.args] == params):
            yield node.name, node.lineno


def test_every_private_name_is_used():
    # a private helper left behind by a refactor has no caller in the package
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "strip.py" in trees  # an empty glob would pass vacuously
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in private_definitions(tree) if name not in used]
    assert not unused, f"private names nothing in the package refers to: {unused}"


def test_every_public_name_is_used():
    # the twin of the private scan: a public name that no code in the
    # package or the benchmark reads is dead, however public it looks.  A
    # name scan cannot see the operator dunders ZSeries.__add__, __sub__ and
    # __mul__ (read by +, - and *), so dunders are left out.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    assert "strip" in trees and bench  # an empty glob would pass vacuously
    used = {name for tree in [*trees.values(), *bench] for name in references(tree)}
    unused = {f"{module}.{label}" for module, tree in trees.items()
              for label, name in public_definitions(tree) if name not in used}
    assert not unused - UNREACHED, f"public names nothing reads: {sorted(unused - UNREACHED)}"
    assert not UNREACHED - unused, f"now read, so drop from UNREACHED: {sorted(UNREACHED - unused)}"
    # each listed name is still one the tracer reaches by its string
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    strings = {n.value for n in ast.walk(tracing) if isinstance(n, ast.Constant)}
    assert {label.split(".", 1)[1] for label in UNREACHED} <= strings


def test_no_function_only_passes_its_arguments_on():
    # a wrapper that hands its parameters, unchanged, to one other function
    # adds a name and a frame but no behaviour: its callers can call the
    # function it wraps
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "strip.py" in trees  # an empty glob would pass vacuously
    found = [f"{module}:{line} {name}" for module, tree in trees.items()
             for name, line in pass_throughs(tree)]
    assert not found, f"functions that only pass their arguments on: {found}"


def module_containers(tree):
    """The private names a module binds at its top level to a dict or a
    list (a display, a comprehension or a dict()/list() call), each with its
    line: the state a process keeps between calls."""
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        container = isinstance(value, (ast.Dict, ast.List, ast.DictComp, ast.ListComp)) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list"))
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if container:
            yield from ((t.id, node.lineno) for t in targets
                        if isinstance(t, ast.Name) and t.id.startswith("_")
                        and not t.id.startswith("__"))


def test_every_cache_starts_cold_in_tests():
    # a private module-level dict or list outlives the test that filled it;
    # conftest's fixture empties each one, so a test never reads another's
    from conftest import CACHES

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "strip" in trees  # an empty glob would pass vacuously
    found = {f"{module}.{name}" for module, tree in trees.items()
             for name, _ in module_containers(tree)}
    reset = {f"{module.__name__.rsplit('.', 1)[1]}.{name}" for module, name in CACHES}
    assert found == reset, f"not reset: {sorted(found - reset)}, not a cache: {sorted(reset - found)}"


def test_no_dataclasses():
    # a value is a tuple, or a named tuple where its fields help: dataclasses,
    # with the inspect, ast, dis and tokenize it imports, would be loaded by
    # every fresh process that imports the cli
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "strip.py" in trees  # an empty glob would pass vacuously
    found = [f"{module}:{node.lineno}" for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported at {found}"


def exception_classes(trees):
    """Every class the modules define, at any depth, that derives from a
    builtin exception or from another such class, each as module.Class."""
    classes = [(module, node) for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    def base_name(base):  # Error or module.Error
        return base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)

    while grown := {node.name for _, node in classes if node.name not in found
                    and any(base_name(b) in found for b in node.bases)}:
        found |= grown
    return {f"{module}.{node.name}" for module, node in classes if node.name in found}


def test_exception_set_is_closed():
    # one exception per nonzero exit code it stands for: UsageError is exit
    # 2, ConsistencyError exit 3; a failed check (exit 1) is a value, the
    # failure lines its verdict returns, never an exception
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "errors" in trees  # an empty glob would pass vacuously
    assert exception_classes(trees) == {"errors.UsageError", "errors.ConsistencyError"}
