"""Source hygiene checks that need no linter: unused imports,
module-level functions or classes that nothing in the package uses,
memo tables that README does not list, parameters that their
function never reads, verify options that no check declares, syntax
newer than the Python that pyproject.toml declares, and input rules
checked outside ``partitions.py``."""
import argparse
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kshape"
README = SRC.parents[1] / "README.md"
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _bound_names(top: ast.AST) -> set[str]:
    """Names a top-level statement binds anywhere inside it: targets,
    parameters, definitions and exception names."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    return out


def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` names, or None."""
    if node.level == 1:
        return node.module  # None for ``from . import module``
    if (node.module or "").startswith("kshape."):
        return node.module.split(".", 1)[1]
    return None


def _used_definitions(module: str, tree: ast.Module, top: ast.AST) -> set[tuple[str, str]]:
    """The (module, name) pairs a top-level statement of ``module`` uses:
    a load of a name the statement does not bind, an import of a name
    from its own module, or an attribute read on that module.  A local
    variable or a field that shares a definition's name is not a use."""
    modules = {
        a.asname or a.name: a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for a in node.names
    }
    bound = _bound_names(top)
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            out.add((module, node.id))
        elif isinstance(node, ast.ImportFrom) and _source_module(node):
            out.update((_source_module(node), a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            out.add((modules[node.value.id], node.attr))
    return out


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement of the module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                bound = a.asname or a.name.split(".")[0]
                out[bound] = node.lineno
    return out


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_no_unused_imports(name):
    tree = MODULES[name]
    body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
    used = set()
    for top in body:
        used |= {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert not unused, f"{name} imports names it never uses: {unused}"


# public names kept for library users although nothing else in src/ uses
# them; for every other name an ``__init__`` re-export is not a use
PUBLIC_API: set[str] = set()


def _unused_definitions(private: bool) -> list[str]:
    """Module-level functions and classes, private or public, that no other
    top-level statement in src/ uses.  An ``__init__`` re-export counts
    only for a name in ``PUBLIC_API``."""
    uses = [
        (node, _used_definitions(name.removesuffix(".py"), tree, node))
        for name, tree in MODULES.items()
        if name != "__init__.py"
        for node in tree.body
    ]
    unused = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name.startswith("_") != private:
                continue
            key = (name.removesuffix(".py"), node.name)
            if node.name not in PUBLIC_API and not any(
                key in used for other, used in uses if other is not node
            ):
                unused.append(f"{name}:{node.lineno} {node.name}")
    return unused


def test_a_local_or_field_of_the_same_name_is_not_a_use():
    source = (
        "from . import classical\n"
        "from .partitions import addable_corners\n"
        "def f(lam, k):\n"
        "    corners = addable_corners(lam)\n"
        "    return [c.cells for c in corners], classical.charge(lam), g(k)\n"
    )
    tree = ast.parse(source)
    assert _used_definitions("poset", tree, tree.body[2]) == {
        ("poset", "addable_corners"),
        ("poset", "classical"),
        ("poset", "g"),
        ("classical", "charge"),
    }
    assert _used_definitions("poset", tree, tree.body[1]) == {("partitions", "addable_corners")}


def test_private_definitions_are_used():
    unused = _unused_definitions(private=True)
    assert not unused, f"private definitions nothing in src/ uses: {unused}"


def test_public_definitions_are_used():
    # classical.py is the independent oracle: its functions are called
    # from tests and checks, not necessarily from the rest of src/
    unused = [u for u in _unused_definitions(private=False) if not u.startswith("classical.py:")]
    assert not unused, f"public definitions nothing in src/ uses: {unused}"


def test_classical_oracle_imports_only_the_partition_alias():
    # classical.py is the independent oracle: sharing code with the
    # kernels it checks would let one bug pass on both sides
    imported = set()
    for node in ast.walk(MODULES["classical.py"]):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kshape")):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("kshape"))
    assert imported <= {"Partition"}, f"classical.py imports {sorted(imported - {'Partition'})} from kshape"


# (module, function, parameter) defaults that only callers outside src/ set
DEFAULTS_SET_OUTSIDE_SRC = {
    # the command-line entry point: tests pass argv, the console script does not
    ("cli.py", "main", "argv"),
}


def _defaulted_parameters(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """Each defaulted parameter with its positional index (None if keyword-only)."""
    a = node.args
    positional = a.posonlyargs + a.args
    out = [
        (p.arg, i)
        for i, p in enumerate(positional)
        if i >= len(positional) - len(a.defaults)
    ]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)


def test_defaulted_parameters_are_set():
    # a default that no call in src/ overrides is a knob nothing turns,
    # and an entry of DEFAULTS_SET_OUTSIDE_SRC that a call in src/ sets is stale
    calls: dict[str, list[ast.Call]] = {}
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset, stale = [], []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, index in _defaulted_parameters(node):
                is_set = any(_sets(c, param, index) for c in calls.get(node.name, []))
                where = f"{name}:{node.lineno} {node.name}({param})"
                if (name, node.name, param) in DEFAULTS_SET_OUTSIDE_SRC:
                    if is_set:
                        stale.append(where)
                elif not is_set:
                    unset.append(where)
    assert not unset, f"defaulted parameters no call in src/ sets: {unset}"
    assert not stale, f"DEFAULTS_SET_OUTSIDE_SRC entries a call in src/ sets: {stale}"


def _is_lru_cache(decorator: ast.expr) -> bool:
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(f, "id", None) == "lru_cache" or getattr(f, "attr", None) == "lru_cache"


def _memo_tables(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds to an lru_cache table: a
    decorated function or class, ``name = lru_cache(...)(f)`` or
    ``name = lru_cache(f)``; ``lru_cache(maxsize=...)`` alone is no table."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name] if any(map(_is_lru_cache, node.decorator_list)) else []
    value = getattr(node, "value", None)
    if isinstance(node, ast.Assign) and isinstance(value, ast.Call) and _is_lru_cache(value.func):
        if isinstance(value.func, ast.Call) or value.args:
            return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def test_memo_table_finder_sees_every_form():
    source = (
        "@lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "@functools.lru_cache\n"
        "class C: pass\n"
        "g = lru_cache(maxsize=None)(C)\n"
        "h = lru_cache(C)\n"
        "factory = lru_cache(maxsize=None)\n"
        "def plain(x): return x\n"
        "y = plain(1)\n"
    )
    found = [name for node in ast.parse(source).body for name in _memo_tables(node)]
    assert found == ["f", "C", "g", "h"]


def _outside_parentheses(text: str) -> str:
    depth, out = 0, []
    for ch in text:
        depth += ch == "("
        if not depth:
            out.append(ch)
        depth -= ch == ")"
    return "".join(out)


def test_memo_tables_are_listed_in_readme():
    # every module-level lru_cache table lives for the whole process, so
    # README's "Memo tables" names each one in its module's row, and a
    # name there outside parentheses is a table of that module
    tables = {
        (name.removesuffix(".py"), table)
        for name, tree in MODULES.items()
        for node in tree.body
        for table in _memo_tables(node)
    }
    assert len(tables) > 20
    section = README.read_text().split("\n## Memo tables\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \|(.*)\|$", section, flags=re.M))
    listed = {
        (mod, fn)
        for mod, row in rows.items()
        for fn in re.findall(r"`(\w+)`", _outside_parentheses(row))
    }
    missing = sorted(f"{mod}.{fn}" for mod, fn in tables - listed)
    assert not missing, f"memo tables missing from README's Memo tables list: {missing}"
    extra = sorted(f"{mod}.{fn}" for mod, fn in listed - tables)
    assert not extra, f"README's Memo tables list names that are not memo tables: {extra}"


def _dict_tables(tree: ast.Module) -> list[str]:
    """Names a module binds at top level to an empty dict display."""
    out = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if isinstance(getattr(node, "value", None), ast.Dict) and not node.value.keys:
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def test_module_level_dict_tables_are_named_in_readme():
    # a module-level dict filled at run time is a table that lives for the
    # whole process, like the lru tables, so README's "Memo tables" names
    # it; the canonical table of partitions.py is one
    tables = [(name, t) for name, tree in MODULES.items() for t in _dict_tables(tree)]
    assert ("partitions.py", "_CANONICAL") in tables
    section = README.read_text().split("\n## Memo tables\n", 1)[1].split("\n## ", 1)[0]
    missing = [f"{name}:{t}" for name, t in tables if f"`{t}`" not in section]
    assert not missing, f"module-level tables missing from README's Memo tables: {missing}"


def _parameters(node: ast.FunctionDef | ast.Lambda) -> list[str]:
    a = node.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return [p.arg for p in params]


def test_parameters_are_read():
    # a parameter its body never reads is an argument every caller passes
    # for nothing; a leading underscore marks one an interface requires
    unread = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for param in _parameters(node):
                if param in ("self", "cls") or param.startswith("_") or param in read:
                    continue
                unread.append(f"{name}:{node.lineno} {getattr(node, 'name', 'lambda')}({param})")
    assert not unread, f"parameters their function never reads: {unread}"


def test_verify_options_are_the_declared_check_parameters():
    # every parameter a check declares can be given to ``kshape verify``,
    # and every option of it is a parameter some check declares
    from kshape.cli import build_parser
    from kshape.verify import CHECKS

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    verify = sub.choices["verify"]
    options = {a.dest for a in verify._actions if a.option_strings} - {"help", "check", "report"}
    assert options == {p for check in CHECKS.values() for p in check.defaults}


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml,
    read with a regex because ``tomllib`` needs Python 3.11."""
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, flags=re.M).groups()
    return int(major), int(minor)


def test_floor_parse_rejects_newer_syntax():
    floor = _python_floor()
    assert floor == (3, 10)
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=floor)


@pytest.mark.parametrize("name", list(MODULES))
def test_source_parses_at_the_declared_python_floor(name):
    # the package must run on the oldest Python it declares, so no module
    # may use syntax that only a newer one parses
    ast.parse((SRC / name).read_text(), filename=name, feature_version=_python_floor())


# The input rules checked in one place, ``partitions.require_k``,
# ``require_size`` and ``_require_partition``: no other module may raise
# a message of theirs, since a hand-written copy is one that can drift.
RULE_MESSAGES = ("k must be", "partition parts must be", "n must be", "size must be")


def _raise_messages(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) of each raise whose exception takes a string or an
    f-string first; an f-string's text ends at its first field."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            msg = node.exc.args[0]
            if isinstance(msg, ast.JoinedStr):
                msg = msg.values[0] if msg.values else ast.Constant("")
            if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
                out.append((node.lineno, msg.value))
    return out


def _rule_checks_outside_partitions(modules: dict[str, ast.Module]) -> list[str]:
    return [
        f"{name}:{line} {text}"
        for name, tree in modules.items()
        if name != "partitions.py"
        for line, text in _raise_messages(tree)
        if text.startswith(RULE_MESSAGES)
    ]


def test_the_rule_scan_finds_a_planted_check():
    source = (
        "def f(lam, k):\n"
        "    if k < 2:\n"
        "        raise ValueError(f'k must be at least 2: {k}')\n"
        "    if not all(type(x) is int for x in lam):\n"
        "        raise ValueError('partition parts must be integers')\n"
        "    raise ValueError(f'{k} must be at least 2')\n"
    )
    tree = ast.parse(source)
    assert _rule_checks_outside_partitions({"poset.py": tree, "partitions.py": tree}) == [
        "poset.py:3 k must be at least 2: ",
        "poset.py:5 partition parts must be integers",
    ]


def test_each_input_rule_is_checked_in_partitions_only():
    found = _rule_checks_outside_partitions(MODULES)
    assert not found, f"input rules checked outside partitions.py: {found}"
