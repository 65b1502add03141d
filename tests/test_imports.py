"""Every name the benchmark, the demos and the scripts take from xdiscord
exists, so trimming the API cannot silently break one of them."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(p for d in ("xbench", "demos", "scripts")
               for p in (ROOT / d).glob("*.py"))


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
