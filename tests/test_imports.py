"""Every name the benchmark, the demos and the scripts take from xdiscord
exists, so trimming the API cannot silently break one of them; and the
library defines nothing, public or private, that only the tests and the
identity corpus call.  FContext, the bench's alias of the state, is
checked to hand the state through unchanged and to be named nowhere
else."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import EX_MATRIX
import xdiscord
from xdiscord import engine

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(p for d in ("xbench", "demos", "scripts")
               for p in (ROOT / d).glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "xdiscord").glob("*.py"))
# the identity gate's own harness prints whatever the library offers, so
# calling a name there does not make it used
HARNESS = ROOT / "scripts" / "identity_corpus.py"


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
    assert HARNESS in USERS


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
    # every name, in __all__ or not, must be read somewhere in src/,
    # xbench/, demos/ or scripts/ other than inside its own definition
    # and the identity corpus; __init__.py only imports and lists names
    refs = Counter()
    for path in LIBRARY + [p for p in USERS if p != HARNESS]:
        refs += loaded_names(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in top_level_definitions(tree):
            if name.startswith("__"):
                continue
            if refs[name] - loaded_names(node)[name] <= 0:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"defined but used by no library code: {unused}"


def test_fcontext_alias_gives_the_state_to_the_bench_calls(rng):
    # xbench/traced.py spells the state FContext.from_state(p) and makes
    # three calls through it; each gives what global_max reads off the
    # state, so the traced pieces time the work the scan does
    grid, xp = np.linspace(0.0, 1.0, engine.SCAN_POINTS), engine._ARRAY
    ex = xdiscord.matrix_to_bloch(xdiscord.XDensityMatrix(EX_MATRIX))
    for p in [ex] + xdiscord.random_states(rng, 20):
        ctx = xdiscord.FContext.from_state(p)
        assert ctx is p
        ref = xdiscord.global_max(p)
        with np.errstate(all="ignore"):
            want = engine._fp(p, grid, engine._radicals(p, grid, xp), xp)
            assert np.array_equal(xdiscord.f_derivative(ctx, grid), want)
        assert xdiscord.newton_critical_point(ctx, 1.0) == ref.newton_runs[0]
        assert (xdiscord.f_value(ctx, 0.0), xdiscord.f_value(ctx, 1.0)) == (
            ref.candidates[0][1], ref.candidates[1][1])


def test_fcontext_is_named_only_by_its_definition_and_the_bench():
    # once xbench/traced.py stops calling the alias, deleting it is an
    # edit to engine.py and __init__.py, and to this file
    naming = {}
    for d in ("src", "tests", "demos", "scripts", "xbench"):
        for path in (ROOT / d).rglob("*.py"):
            count = path.read_text().count("FContext")
            if count:
                naming[path.relative_to(ROOT).as_posix()] = count
    assert naming.pop("tests/test_imports.py") > 0
    assert naming.pop("src/xdiscord/engine.py") == 1, "one definition"
    assert set(naming) == {"src/xdiscord/__init__.py", "xbench/traced.py"}
