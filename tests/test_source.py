"""Checks on the package source itself."""

import ast
import dataclasses
from pathlib import Path

import fedsim
from fedsim.scenario import Scenario

PACKAGE = Path(fedsim.__file__).resolve().parent


def test_no_bare_assert_in_the_package():
    # `assert` is stripped under `python -O`; runtime invariants must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []


def _unused_imports(path):
    """Names a module imports but never reads; `__all__` counts as a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports_in_the_package():
    # an import nothing reads is dead code, and often the last trace of a deleted feature
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unused_imports(path)]
    assert found == []


def test_every_top_level_definition_is_used_by_the_package():
    # a function or class that only tests call is code the simulator never runs;
    # decorated ones (click commands) are reached through their decorator
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set(fedsim.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.decorator_list
        and node.name not in read
    ]
    assert len(trees) > 5
    assert found == []


_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def _enum_members(tree):
    """(class, member, line) for each member of each enum.Enum subclass defined in `tree`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None))
            in _ENUM_BASES
            for base in node.bases
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            yield node.name, target.id, stmt.lineno


def _member_bindings(tree):
    """The module-level `NAME = Class.MEMBER` statements of `tree`, by their value node."""
    return {
        id(stmt.value): stmt.targets[0].id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Attribute)
        and isinstance(stmt.value.value, ast.Name)
    }


def test_every_enum_member_is_read_by_the_package():
    # a member the package never names as `Class.MEMBER` is a protocol edge or
    # state no run can reach; iterating or parsing the enum does not count, and
    # a module-level name bound to the member counts only where the package reads it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names_read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read = set()
    for tree in trees.values():
        bindings = _member_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bound_to = bindings.get(id(node))
                if bound_to is None or bound_to in names_read:
                    read.add((node.value.id, node.attr))
    members = [
        (name, cls, member, line)
        for name, tree in trees.items()
        for cls, member, line in _enum_members(tree)
    ]
    found = [
        f"{name}:{line} {cls}.{member}"
        for name, cls, member, line in members
        if (cls, member) not in read
    ]
    assert len(members) > 30
    assert found == []


# the modules whose functions run on every event
EVENT_PATH = ("agents.py", "engine.py", "model.py", "migration.py")


def test_the_event_path_reads_enum_members_through_module_level_names():
    # on CPython 3.10 and 3.11 the enum metaclass defines `__getattr__`, so a
    # read like `Performative.CFP` is never specialized: about six times a
    # plain class attribute read, some 16 times an event. A function body reads
    # the name its enum's module binds to the member once, at import.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    members = {(cls, member) for tree in trees.values() for cls, member, _ in _enum_members(tree)}
    found = sorted({
        f"{name}:{node.lineno} {node.value.id}.{node.attr}"
        for name in EVENT_PATH
        for function in ast.walk(trees[name])
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for stmt in ([function.body] if isinstance(function, ast.Lambda) else function.body)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in members
    })
    assert len({cls for cls, _ in members}) > 5
    assert found == []


def _unread_parameters(path):
    """Parameters of each function or lambda in a module that its body never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                continue
            if param.arg not in read:
                yield f"{path.name}:{node.lineno} {name}({param.arg})"


def test_every_parameter_is_read():
    # a parameter no body reads is a knob that changes nothing
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unread_parameters(path)]
    assert found == []


def _is_record(node):
    """A dataclass (bare or called decorator) or a class with `NamedTuple` among its bases."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = [getattr(d, "id", getattr(d, "attr", None)) for d in decorators + node.bases]
    return "dataclass" in names or "NamedTuple" in names


def test_every_record_field_is_read_by_the_package():
    """A dataclass or NamedTuple field nothing reads is state built or copied for no reader.

    Matching is by name, so a field that shares its name with any attribute
    the package reads anywhere escapes this check.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (name, stmt.lineno, node.name, stmt.target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    found = [f"{name}:{line} {cls}.{field}" for name, line, cls, field in fields if field not in read]
    assert len(fields) > 100
    assert found == []


def test_only_the_parser_raises_scenario_error():
    # a ScenarioError says the input file is at fault, and the parser checks each
    # scenario fact once; past it, code trusts those facts and checks none again
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "scenario.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ScenarioError"
    ]
    assert found == []


def test_no_agent_state_copies_a_scenario_setting():
    # an agent reads the run's settings through its one `scenario` reference,
    # so each setting and its default live once, in `Scenario`
    settings = {field.name for field in dataclasses.fields(Scenario)}
    tree = ast.parse((PACKAGE / "agents.py").read_text())
    states = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in ("ConsumerState", "BrokerState", "ProviderState")
    ]
    found = [
        f"{cls.name}.{stmt.target.id}"
        for cls in states
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and (stmt.target.id in settings or "PricingParams" in ast.unparse(stmt.annotation))
    ]
    assert len(states) == 3
    assert found == []
