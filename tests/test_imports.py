"""Every name the benchmark, the demos and the scripts take from xdiscord
exists, so trimming the API cannot silently break one of them; and the
library defines nothing that only the tests call."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import xdiscord

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(p for d in ("xbench", "demos", "scripts")
               for p in (ROOT / d).glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "xdiscord").glob("*.py"))


def xdiscord_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs a file takes from the package.

    Covers `from xdiscord[.mod] import name`, `import xdiscord[.mod]` and
    attribute access `alias.name` on a module imported as `alias`.
    """
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "xdiscord"):
            found |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "xdiscord":
                    parent, _, leaf = a.name.rpartition(".")
                    if parent:
                        found.add((parent, leaf))
                    if a.asname or not parent:
                        aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


def test_all_lists_every_public_name_the_package_imports():
    tree = ast.parse((ROOT / "src" / "xdiscord" / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(set(xdiscord.__all__)) == len(xdiscord.__all__)
    assert {n for n in imported if not n.startswith("_")} == \
        set(xdiscord.__all__)


def test_users_found():
    names = {p.name for p in USERS}
    assert {"run.py", "traced.py", "workloads.py",
            "worked_example.py", "falsify_router.py"} <= names


@pytest.mark.parametrize("path", USERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_taken_from_xdiscord_resolve(path):
    used = xdiscord_names(ast.parse(path.read_text(), filename=str(path)))
    missing = sorted(f"{mod}.{name}" for mod, name in used
                     if not hasattr(importlib.import_module(mod), name))
    assert not missing, f"{path.name} uses names xdiscord lacks: {missing}"


def loaded_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def top_level_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def test_library_defines_nothing_only_tests_call():
    # a name outside __all__ must be read somewhere in src/, xbench/,
    # demos/ or scripts/ other than inside its own definition
    refs = Counter()
    for path in LIBRARY + USERS:
        refs += loaded_names(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in top_level_definitions(tree):
            if name in xdiscord.__all__ or name.startswith("__"):
                continue
            if refs[name] - loaded_names(node)[name] <= 0:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"defined but used by no library code: {unused}"
