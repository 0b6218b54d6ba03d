"""The package's import structure, read from its source with ``ast``.

Every import of a package module in a core module sits at module level, so
its dependencies are read from its head.  The edge modules ``cli`` and
``jsonio`` import at their heads only what every command runs; each command
and each loader imports the rest itself, so a command, which runs in a fresh
process, compiles only the modules it runs.  ``LATE`` names each such import
exactly, and no other import may sit inside a function.  The modules import
each other without a cycle, every name a module imports is used in it, and
no module reads a private name that it does not define itself.  A group
table is wrapped as a ``FiniteGroup`` in two places only.
"""

import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src" / "eulerchi"
MODULES = {path.stem: path for path in sorted(SRC.glob("*.py"))}
# (module, function) -> the package modules that function may import itself
LATE = {
    ("cli", "cmd_gamma_chi"): {"catalog", "groupoid"},
    ("cli", "cmd_translation"): {"translation"},
    ("cli", "cmd_order_ell"): {"translation"},
    ("cli", "cmd_inertia"): {"translation"},
    ("cli", "cmd_atlas"): {"translation"},
    ("cli", "cmd_extension"): {"translation"},
    ("cli", "cmd_verify"): {"harness"},
    ("jsonio", "load_group"): {"groups"},
    ("jsonio", "load_presentation"): {"groups"},
    ("jsonio", "_load_isotropy"): {"catalog"},
    ("jsonio", "load_groupoid"): {"groupoid"},
    ("jsonio", "load_complex"): {"translation"},
    ("jsonio", "load_extension"): {"translation"},
}


def _targets(node: ast.AST) -> set[str]:
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("eulerchi.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level:
        within = node.module or ""
    elif node.module == "eulerchi" or node.module.startswith("eulerchi."):
        within = node.module[len("eulerchi."):]
    else:
        return set()
    return {within.split(".")[0]} if within else {alias.name for alias in node.names}


def _scoped(name: str) -> Iterator[tuple[str | None, ast.AST]]:
    """Every node of module ``name`` with the function or class it sits in
    (None at module level)."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node: ast.AST, scope: str | None) -> Iterator[tuple[str | None, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            yield scope, child
            yield from visit(child, child.name if isinstance(child, scopes) else scope)

    return visit(ast.parse(MODULES[name].read_text(encoding="utf-8")), None)


def _imports(name: str) -> list[tuple[str | None, set[str]]]:
    """Per package import in module ``name``: the function or class it sits
    in (None at module level) and the modules it names."""
    return [(scope, targets) for scope, node in _scoped(name) if (targets := _targets(node))]


def test_package_imports_sit_at_module_level():
    late = {}
    for name in MODULES:
        for scope, targets in _imports(name):
            if scope is not None:
                late.setdefault((name, scope), set()).update(targets)
    assert late == LATE


def test_module_imports_have_no_cycle():
    graph = {name: set().union(*(t for _, t in _imports(name))) & set(MODULES) for name in MODULES}
    done: set[str] = set()

    def walk(name: str, path: list[str]) -> None:
        assert name not in path, " -> ".join(path + [name])
        if name not in done:
            for target in sorted(graph[name]):
                walk(target, path + [name])
            done.add(name)

    for name in graph:
        walk(name, [])


def _module_aliases(tree: ast.AST) -> set[str]:
    """The names an import binds to a package module, as in
    ``from . import translation as tr``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("eulerchi", 0), (None, 1)):
            out |= {alias.asname or alias.name for alias in node.names if alias.name in MODULES}
        elif isinstance(node, ast.Import):
            out |= {a.asname for a in node.names if a.asname and a.name.startswith("eulerchi.")}
    return out


def _class_members(tree: ast.AST) -> set[str]:
    """The names the module's classes define: slots, methods and class
    attributes."""
    out = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                out |= names
                if "__slots__" in names:
                    out |= {
                        c.value for c in ast.walk(stmt.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    }
    return out


def test_no_module_reads_another_modules_private_names():
    """A private name is read through a module alias, or off an object
    other than ``self``/``cls`` when no class of the reading module
    defines it."""
    reads = []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, members = _module_aliases(tree), _class_members(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                continue
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base in aliases or (base not in ("self", "cls") and node.attr not in members):
                reads.append(f"{name}.py:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


def test_module_level_imports_are_used():
    """Every name a module imports at module level is read in it, save
    ``from __future__`` and the package's re-exports in ``__init__``."""
    unused = []
    for name, path in MODULES.items():
        if name == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {(a.asname or a.name): node.lineno for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}.py:{line}: {alias}" for alias, line in bound.items() if alias not in read]
    assert unused == []


# Record classes that write their own ``__init__``: one converts a value,
# two give a field a default, two start fields as fresh containers.
OWN_INIT = {"CellSpace", "Presentation", "CustomIsotropy", "SuiteResult", "Report"}


def test_records_are_constructed_in_one_module():
    """``object.__setattr__`` is called only in ``records``, and a record
    class writes its own ``__init__`` only where ``Record``'s cannot do."""
    setters, own_init = [], set()
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                name != "records"
                and isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                setters.append(f"{name}.py:{node.lineno}")
            if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & {"Record", "Value"}:
                if any(isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body):
                    own_init.add(node.name)
    assert setters == []
    assert own_init == OWN_INIT


def test_finite_groups_are_built_in_two_places():
    """A ``FiniteGroup`` is constructed once in ``groups._table``, which
    builds every table the package tabulates itself, and once in
    ``groups.validate_group``, which proves a table from outside."""
    sites = [
        f"{name}.{scope}"
        for name in MODULES
        for scope, node in _scoped(name)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "FiniteGroup"
    ]
    assert sorted(sites) == ["groups._table", "groups.validate_group"]


# The limits that only a command's exit code needs, and the refusal that
# one of them raises.
COMMAND_LIMITS = {"DEFAULT_RECURSION_CAP", "LEVELSET_VALUE_BOUND"}


def test_command_limits_live_in_the_cli():
    """The order-ell cap and the level-set value bound are assigned, and
    ``RecursionCapExceeded`` is raised, only in ``cli``: the computations
    they guard take any order and any value."""
    sites = set()
    for name in MODULES:
        for _, node in _scoped(name):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                sites |= {(t.id, name) for t in targets if isinstance(t, ast.Name) and t.id in COMMAND_LIMITS}
            elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "RecursionCapExceeded":
                sites.add(("RecursionCapExceeded", name))
    assert sites == {(limit, "cli") for limit in COMMAND_LIMITS | {"RecursionCapExceeded"}}


def test_main_makes_and_emits_every_report():
    """``Report(...)`` and ``_emit(...)`` are called only in ``cli.main``,
    and each ``cli.cmd_*`` takes exactly ``(args, report)``: a command
    fills the report that ``main`` made for it."""
    sites = [
        f"{name}.{scope}:{ast.unparse(node.func)}"
        for name in MODULES
        for scope, node in _scoped(name)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("Report", "_emit")
    ]
    assert sorted(sites) == ["cli.main:Report", "cli.main:_emit"]
    commands = {
        node.name: [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        for _, node in _scoped("cli")
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    assert commands and all(params == ["args", "report"] for params in commands.values()), commands
