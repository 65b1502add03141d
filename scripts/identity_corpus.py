"""Print the repr of every engine result on a fixed corpus of states.

tests/identity_reference.json holds a digest of each 16 lines of the
output, section by section, and tests/test_identity_corpus.py checks
every section against it in the test suite.  --check compares every
section with it, and --write-reference rewrites it after a change meant
to move results:

    PYTHONPATH=src python3 scripts/identity_corpus.py --check
    PYTHONPATH=src python3 scripts/identity_corpus.py --write-reference

The reference holds the results of the numpy and libm it was written
with; another platform may differ in the last bits.  To see which lines
a change moves, run the script at the parent commit and at the change
and compare the two outputs:

    PYTHONPATH=src python3 scripts/identity_corpus.py > new.txt
    diff old.txt new.txt

The corpus draws, with fixed seeds, uniform states, states of endpoint
regions a to d, Bell-diagonal states and rank-2 states of cases I to III,
the boundary states BOUNDARY_BLOCH and the region-edge states
REGION_EDGE_BLOCH of tests/conftest.py (the latter at -2, -0.5, 0.5 and
2 times CLASSIFY_TOL from each inequality of hypotheses a to d), each
also with its qubits swapped, plus the worked example (EX_MATRIX of
tests/conftest.py).  Every state gets one line each for
region_conditions() and entropies(), and one for each of discord() with
method "auto", "numeric" and verify=True, and one for global_max().

The rank-2 bridge gets three more sections, all on real matrices: each
rank-2 state and its swap prints its koashi_winter() report (whose
concurrence_bc comes from the purification's 2x2 Wootters matrix), its
rank_two_classify() decomposition, and Wootters' lambda_i
(entanglement._mu, the general 4x4 route) and concurrence() of the
decomposition's rho_bc (so the kw and concurrence_bc lines show both
derivations); each uniform state, and each of a set of rank-1 and rank-3
states, prints the exception rank_two_classify() raises on it, and each
uniform state also the lambda_i of its matrix; and a near-rank ladder
c3 = +/-(1 - eps) prints each warning and result of both calls.

A last section prints what matrix validation makes of a fixed list of
matrices: the worked example; a case-I, a case-III and a uniform state
with k * 1e-11 moved from rho_22 to rho_11, k = 1 to 20, which walks the
rank-2 states out through the PHYS_TOL band; and one non-positive,
non-X, non-hermitian, bad-trace, non-finite and wrong-shape matrix.
Each gets the result or the exception of XDensityMatrix(),
matrix_to_bloch(), XDensityMatrix().phases (the corner_phases line) and
rank_two_classify(), one line each.

The oracle section prints oracle_classical_correlation() on states with
c1^2 = c2^2, where the sweep needs one phi column, and on states
without: the rank-2 states of cases I to III and their swaps, the worked
example, the first uniform states and their swaps, one-corner states
(a uniform state's matrix with rho_14 or rho_23 set to 0) and Werner
states.  Each runs at grid_n 1, 17, 64 and 100 without refinement, and
at grid_n 1, 100 and 256 with it.  A 100 x 100 grid ends in a partial
sweep block (19 of 81 rows), which no other grid size here slices.  The
first three case-III rank-2 states and the first three uniform states,
each also swapped, run once more at grid_n 512.  Near-product states
and |s| = 1 states (c2 set inside PHYS_TOL, so phi is swept) run at
grid_n 256 with and without refinement: their grids are flat within
the float32 screen's margin, so the screen keeps every row.

The next section gives the public F API on every corpus state:
classify_region() and analytic_max() (or the exception it raises),
f_value(), f_derivative() and f_second_derivative() at z = 0, 0.5 and 1
and on 9 evenly spaced points of [0, 1], and newton_critical_point()
from z = 1.

The section printed last gives the outcome, a value or the exception,
of the three F functions and newton_critical_point() on two states at
z = nan, -0.5 and 1.5 and on the array [0.5, nan], and of xlog2(),
binary_entropy() and eof_from_concurrence() at nan.

The CLI section runs each subcommand through xdiscord.cli.main, in text
and JSON, on a handful of corpus states, on states read from a
plain-number matrix file, a JSON matrix file with complex corners, a
JSON Bloch file, a JSON file with both keys and stdin, on --help, and
once for each error exit: input errors (2), usage errors (argparse's
SystemExit 2), an unphysical state (3) and a full-rank kw-check (4).
Each invocation prints its exit code, its stdout and its stderr, with
the temporary directory's path replaced by <tmp> and each warning as its
category and message.

The section printed after the CLI gives the lambda_i and concurrence()
of the local-unitary images of tests/conftest.py (local_unitary_images:
300 uniform and 300 rank-2 states, each under a Haar-random
U_a (x) U_b), where concurrence takes its general route alone.

The last section prints the pools the samplers draw: random_states,
random_bell_diagonal, random_case for cases a to d and random_rank_two
for cases I to III, each from default_rng(seed) with n = 1 + seed % 8,
for seeds 0 to 39, one as_tuple() a line, and the state the generator
ends in.  Needs numpy, and pytest for the states it reads from
tests/conftest.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np

from xdiscord import (BlochX, PhysicalityError, XDensityMatrix,
                      analytic_max, binary_entropy, bloch_to_matrix,
                      classify_region, concurrence, discord, entropies,
                      f_derivative, f_second_derivative, f_value,
                      global_max, koashi_winter, matrix_to_bloch,
                      newton_critical_point,
                      oracle_classical_correlation, random_bell_diagonal,
                      random_case, random_rank_two, random_states,
                      rank_two_classify, region_conditions, xlog2)
from xdiscord.cli import main as cli_main
from xdiscord.entanglement import _as_array, _mu, eof_from_concurrence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from conftest import (BOUNDARY_BLOCH, EX_MATRIX,  # noqa: E402
                      REGION_EDGE_BLOCH, local_unitary_images)


def corpus() -> list[tuple[str, object]]:
    """(label, state) pairs: each drawn state, then its swap."""
    rng = np.random.default_rng(20161)
    drawn = [("uniform", p) for p in random_states(rng, 200)]
    for case in "abcd":
        drawn += [(case, p) for p in random_case(rng, case, 40)]
    drawn += [("bell", p) for p in random_bell_diagonal(rng, 40)]
    for case in ("I", "II", "III"):
        drawn += [(f"rank2-{case}", p)
                  for p in random_rank_two(rng, case, 40)]
    drawn += [("boundary", BlochX(*t)) for t in BOUNDARY_BLOCH]
    drawn += [("edge", BlochX(*t)) for t in REGION_EDGE_BLOCH]
    states = [("worked", matrix_to_bloch(XDensityMatrix(EX_MATRIX)))]
    for label, p in drawn:
        states += [(label, p), (label + "-swap", p.swapped())]
    return states


def other_ranks(n: int = 40) -> list[BlochX]:
    """n pure states in each block (rank 1), then n rank-3 states."""
    rng = np.random.default_rng(20162)
    states = []
    for phi in rng.uniform(0.0, 2.0 * np.pi, n):
        r, c = np.cos(phi), np.sin(phi)
        states += [BlochX(r, r, c, -c, 1.0), BlochX(r, -r, c, c, -1.0)]
    while len(states) < 3 * n:
        # the middle block has rank 1, the outer one full rank
        r, s, c1, c3 = rng.uniform(-1.0, 1.0, 4)
        c2 = np.sqrt(max((1.0 - c3) ** 2 - (r - s) ** 2, 0.0)) - c1
        try:
            p = BlochX(r, s, c1, c2, c3)
        except PhysicalityError:
            continue
        if p.margins[1] > 1e-3:
            states.append(p)
    return states


# third eigenvalue eps/4: below RANK_TOL, in the warning band, then above
LADDER_EPS = [1e-12, 1e-10, 4e-10, 1e-9, 1e-8, 1e-7, 1e-6, 2e-6, 4e-6, 1e-5]
LADDER_BASES = [(0.3, 0.3, 0.2, -0.2, 1.0), (0.3, -0.3, 0.2, 0.2, -1.0),
                (-0.55, -0.55, -0.1, 0.1, 1.0), (0.1, -0.1, 0.6, 0.6, -1.0)]


def validation_corpus() -> list[tuple[str, object]]:
    """(label, matrix) pairs for the validation section."""
    uniform = random_states(np.random.default_rng(20163), 1)[0]
    mats = [("worked", EX_MATRIX)]
    for label, p in (("case-I", BlochX(0.3, 0.3, 0.2, -0.2, 1.0)),
                     ("case-III", BlochX(0.3, 0.3, 0.9, 0.1, 0.0)),
                     ("uniform", uniform)):
        for k in range(1, 21):
            m = bloch_to_matrix(p).matrix.copy()
            m[1, 1] -= k * 1e-11
            m[0, 0] += k * 1e-11
            mats.append((f"{label} k={k}", m))
    bad = {name: EX_MATRIX.astype(complex) for name in
           ("non-X", "non-hermitian", "bad-trace", "non-finite")}
    bad["non-X"][0, 1] = 1e-6
    bad["non-hermitian"][1, 2] = 0.1 + 0.05j
    bad["bad-trace"] *= 1.5
    bad["non-finite"][2, 2] = np.nan
    non_psd = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    non_psd[0, 3] = non_psd[3, 0] = 0.6
    return (mats + [("non-PSD", non_psd)] + list(bad.items())
            + [("wrong-shape", np.eye(3) / 3.0)])


# (grid_n, refine_rounds) of each oracle call
ORACLE_RUNS = [(1, 0), (1, 30), (17, 0), (64, 0), (100, 0), (100, 30),
               (256, 30)]
WERNER_W = [-0.3, 0.0, 0.2, 0.5, 0.9, 1.0]


def oracle_corpus(states) -> list[tuple[str, BlochX]]:
    """(label, state) pairs for the oracle section, from corpus()."""
    picked = [(label, p) for label, p in states
              if label.startswith(("worked", "rank2"))]
    picked += [(label, p) for label, p in states
               if label.startswith("uniform")][:12]
    for p in random_states(np.random.default_rng(20164), 6):
        for corner in ((0, 3), (1, 2)):
            m = bloch_to_matrix(p).matrix.copy()
            m[corner] = m[corner[::-1]] = 0.0
            picked.append((f"corner{corner}=0",
                           matrix_to_bloch(XDensityMatrix(m))))
    picked += [(f"werner w={w}", BlochX(0.0, 0.0, -w, -w, -w))
               for w in WERNER_W]
    return picked


def big_grid_corpus(states) -> list[tuple[str, BlochX]]:
    """(label, state) pairs the oracle section sweeps at grid_n 512."""
    return [(label, p) for kind in ("rank2-III", "uniform")
            for label, p in [(label, p) for label, p in states
                             if label.startswith(kind)][:6]]


def flat_grid_corpus() -> list[tuple[str, BlochX]]:
    """Near-product states, then |s| = 1 states with a tiny c2."""
    rng = np.random.default_rng(20165)
    picked = []
    for r, s, c1, c2, dc in zip(*rng.uniform(-0.8, 0.8, (2, 6)),
                                *rng.uniform(-1e-3, 1e-3, (3, 6))):
        picked.append(("near-product", BlochX(r, s, c1, c2, r * s + dc)))
    for r, s, c2 in ((0.3, 1.0, 1e-11), (0.0, -1.0, 3e-11),
                     (-0.5, 1.0, -2e-11)):
        picked.append(("|s|=1", BlochX(r, s, 0.0, c2, r * s)))
    return picked


def decomposition_lines(m) -> list[str]:
    """The report and the decomposition of the bridge on matrix m."""
    d = rank_two_classify(m)
    return ["  kw " + repr(koashi_winter(m)),
            f"  case {d.case} weights {d.weights!r}",
            "  vectors " + repr(d.vectors.tolist()),
            "  purification " + repr(d.purification.tolist()),
            "  rho_bc " + repr(d.rho_bc.tolist()),
            "  mu_bc " + repr(_mu(_as_array(d.rho_bc)).tolist()),
            "  concurrence_bc " + repr(concurrence(d.rho_bc))]


def outcome(call, m) -> str:
    """The warnings call(m) gives, then its result or its exception."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(call(m))
        except Exception as exc:     # the type and message are the output
            result = f"{type(exc).__name__}: {exc}"
    return " | ".join([f"{w.category.__name__}: {w.message}"
                       for w in caught] + [result])


F_POINTS = [0.0, 0.5, 1.0]
F_GRID = np.linspace(0.0, 1.0, 9)
OFF_DOMAIN_STATES = [BlochX(0.3, 0.1, 0.05, 0.0, 0.4),
                     BlochX(0.1, 0.2, 0.3, 0.1, 0.2)]
OFF_DOMAIN_Z = [float("nan"), -0.5, 1.5, np.array([0.5, np.nan])]


def f_lines(p: BlochX) -> list[str]:
    """The region, closed form, F functions and Newton run of state p."""
    lines = ["  classify " + repr(classify_region(p)),
             "  analytic_max " + outcome(analytic_max, p)]
    for f in (f_value, f_derivative, f_second_derivative):
        with np.errstate(all="ignore"):
            grid = f(p, F_GRID).tolist()
        lines.append(f"  {f.__name__} "
                     + " ".join(repr(f(p, z)) for z in F_POINTS)
                     + " grid " + repr(grid))
    lines.append("  newton " + repr(newton_critical_point(p, 1.0)))
    return lines


def cli_run(argv: list[str]) -> str:
    """Exit code, stdout, stderr and warnings of one CLI invocation; stdin
    holds a Werner state for --input -."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO("0 0 -0.5 -0.5 -0.5")
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli_main(argv)
            except SystemExit as exc:     # argparse's usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return "\n".join([f"  exit {code}", out.getvalue() + err.getvalue()]
                     + [f"  {w.category.__name__}: {w.message}"
                        for w in caught])


def cli_invocations(states, tmp: str) -> list[list[str]]:
    """argv lists of the CLI section; files are written under tmp."""
    picked = {}
    for label, p in states:
        picked.setdefault(label, p)
    bloch = {label: ["--bloch", *(repr(x) for x in picked[label].as_tuple())]
             for label in ("worked", "uniform", "a", "b", "c", "d", "bell",
                           "rank2-I", "rank2-III-swap", "boundary")}
    general = ["--bloch", "0.1", "0.3", "-0.35", "0.35", "0.2"]
    m = bloch_to_matrix(BlochX(0.1, -0.2, 0.4, 0.2, 0.1)).matrix
    u = np.kron(np.diag([1.0, np.exp(0.7j)]), np.diag([1.0, np.exp(-0.4j)]))
    non_x = EX_MATRIX.copy()
    non_x[0, 1] = non_x[1, 0] = 0.01
    files = {
        "plain.txt": " ".join(repr(float(x)) for x in EX_MATRIX.ravel()),
        "non-x.txt": " ".join(repr(float(x)) for x in non_x.ravel()),
        "corners.json": json.dumps({"matrix": [
            [[e.real, e.imag] for e in row] for row in u @ m @ u.conj().T]}),
        "bloch.json": json.dumps({"bloch": [0.4, 0.1, 0.1, -0.05, -0.2]}),
        "both.json": json.dumps({"bloch": [0.4, 0.1, 0.1, -0.05, -0.2],
                                 "matrix": EX_MATRIX.tolist()}),
        "no-key.json": '{"state": [0.1, 0.2, 0.3, 0.4, 0.5]}',
    }
    for name, text in files.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    runs = []
    for label in bloch:
        for cmd in (["discord"], ["discord", "--verify", "--grid", "17"],
                    ["discord", "--method", "numeric"], ["classify"],
                    ["scan", "--points", "5"], ["kw-check"]):
            for fmt in ("text", "json"):
                runs.append(cmd + bloch[label] + ["--format", fmt])
    for name in ("plain.txt", "corners.json", "bloch.json", "both.json"):
        for fmt in ("text", "json"):
            runs.append(["discord", "--input", os.path.join(tmp, name),
                         "--verify", "--grid", "9", "--format", fmt])
    runs += [["classify", "--input", "-"],
             ["discord", *bloch["worked"], "--precision", "12"],
             ["discord", *bloch["worked"], "--precision", "0"],
             ["scan", *bloch["bell"], "--points", "3", "--precision", "3"]]
    for cmd in (["random", "--count", "5", "--seed", "3"],
                ["random", "--count", "6", "--seed", "1", "--verify-sample",
                 "3", "--grid", "17"],
                ["random", "--count", "51", "--seed", "11"]):
        for fmt in ("text", "json"):
            runs.append(cmd + ["--format", fmt])
    runs += [["discord"],
             ["discord", "--input", os.path.join(tmp, "missing.txt")],
             ["discord", "--input", os.path.join(tmp, "no-key.json")],
             ["discord", "--input", os.path.join(tmp, "non-x.txt")],
             ["discord", "--method", "analytic", *general],
             ["discord", *general, "--input", os.path.join(tmp, "plain.txt")],
             ["random", "--count", "0"],
             ["scan", *general, "--points", "x"],
             ["discord", "--bloch", "0", "0", "0.6", "0.6", "0"],
             ["kw-check", *bloch["uniform"]],
             ["--help"]]
    runs += [[cmd, "--help"]
             for cmd in ("discord", "scan", "random", "kw-check", "classify")]
    return runs


def engine_section(states):
    for i, (label, p) in enumerate(states):
        yield f"{i} {label} {p!r}"
        yield f"  regions {region_conditions(p)!r}"
        yield f"  entropies {entropies(p)!r}"
        yield f"  auto {discord(p)!r}"
        yield f"  numeric {discord(p, method='numeric')!r}"
        yield f"  verify {discord(p, verify=True)!r}"
        yield f"  global_max {global_max(p)!r}"


def bridge_section(states):
    for i, (label, p) in enumerate(states):
        if label.startswith("rank2"):
            yield f"bridge {i} {label}"
            yield from decomposition_lines(bloch_to_matrix(p))
        elif label.startswith("uniform"):
            m = bloch_to_matrix(p)
            yield f"not rank 2 {i} {label} {outcome(rank_two_classify, m)}"
            yield f"  mu {_mu(_as_array(m)).tolist()!r}"
    for i, p in enumerate(other_ranks()):
        yield (f"other rank {i} {p!r} "
               + outcome(rank_two_classify, bloch_to_matrix(p)))
    for base in LADDER_BASES:
        for eps in LADDER_EPS:
            c3 = base[4] - eps if base[4] > 0 else base[4] + eps
            m = bloch_to_matrix(BlochX(*base[:4], c3))
            yield f"ladder {base} {eps}"
            yield "  classify " + outcome(
                lambda x: rank_two_classify(x).weights, m)
            yield f"  kw {outcome(koashi_winter, m)}"


def oracle_section(states):
    for i, (label, p) in enumerate(oracle_corpus(states)):
        yield f"oracle {i} {label} {p!r}"
        for grid_n, rounds in ORACLE_RUNS:
            yield (f"  grid {grid_n} rounds {rounds} "
                   + repr(oracle_classical_correlation(p, grid_n, rounds)))
    for label, p in big_grid_corpus(states):
        yield f"oracle grid 512 {label} {p!r}"
        yield f"  rounds 30 {oracle_classical_correlation(p, 512)!r}"
    for label, p in flat_grid_corpus():
        yield f"oracle flat grid {label} {p!r}"
        for rounds in (0, 30):
            yield (f"  grid 256 rounds {rounds} "
                   + repr(oracle_classical_correlation(p, 256, rounds)))


def corner_phases(m) -> tuple[float, float]:
    """The corner phases (outer, inner) that matrix validation removes."""
    return XDensityMatrix(m).phases


def validation_section(states):
    for label, m in validation_corpus():
        yield f"validate {label}"
        for call in (XDensityMatrix, matrix_to_bloch, corner_phases,
                     rank_two_classify):
            yield f"  {call.__name__} " + " ".join(outcome(call, m).split())


def f_section(states):
    for i, (label, p) in enumerate(states):
        yield f"f {i} {label}"
        yield from f_lines(p)
    for p in OFF_DOMAIN_STATES:
        yield f"off domain {p!r}"
        for f in (f_value, f_derivative, f_second_derivative,
                  newton_critical_point):
            for z in OFF_DOMAIN_Z:
                yield (f"  {f.__name__} {z!r} "
                       + outcome(lambda x, f=f: f(p, x), z))
    for f in (xlog2, binary_entropy, eof_from_concurrence):
        yield f"nan {f.__name__} {outcome(f, float('nan'))}"


def cli_section(states):
    # argparse wraps help to the terminal; COLUMNS is restored afterwards
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            tempfile.TemporaryDirectory() as tmp:
        for argv in cli_invocations(states, tmp):
            yield "cli " + " ".join(argv).replace(tmp, "<tmp>")
            yield cli_run(argv).replace(tmp, "<tmp>")


def local_unitary_section(states):
    for i, (_, image) in enumerate(local_unitary_images()):
        yield f"local unitary {i}"
        yield f"  mu {_mu(_as_array(image)).tolist()!r}"
        yield f"  concurrence {concurrence(image)!r}"


POOL_SAMPLERS = ([("states", random_states),
                  ("bell", random_bell_diagonal)]
                 + [(case, lambda rng, n, case=case: random_case(rng, case, n))
                    for case in "abcd"]
                 + [(f"rank2-{case}",
                     lambda rng, n, case=case: random_rank_two(rng, case, n))
                    for case in ("I", "II", "III")])


def pools_section(states):
    for name, sampler in POOL_SAMPLERS:
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for i, p in enumerate(sampler(rng, 1 + seed % 8)):
                yield f"pool {name} seed {seed} {i} {p.as_tuple()!r}"
            # how far the generator moved, drawn rows kept or not
            yield (f"pool {name} seed {seed} generator at "
                   f"{rng.bit_generator.state['state']['state']}")


# (name, generator of the lines it prints) of each section, in order
SECTIONS = [("engine", engine_section), ("bridge", bridge_section),
            ("oracle", oracle_section), ("validation", validation_section),
            ("f", f_section), ("cli", cli_section),
            ("local unitary", local_unitary_section),
            ("pools", pools_section)]


REFERENCE = os.path.join(os.path.dirname(__file__), "..", "tests",
                         "identity_reference.json")
CHUNK = 16          # lines per digest of the reference


def section_lines(section, states) -> list[str]:
    """The lines a section prints, without their newlines."""
    return "".join(text + "\n" for text in section(states)).split("\n")[:-1]


def digests(lines: list[str]) -> list[str]:
    """A 64-bit SHA-256 prefix of each run of CHUNK lines."""
    return [hashlib.sha256("".join(line + "\n" for line in
                                   lines[k:k + CHUNK]).encode()).hexdigest()
            [:16] for k in range(0, len(lines), CHUNK)]


def read_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(name: str, lines: list[str], reference: dict) -> str | None:
    """None if section name's lines match the reference, else a report
    naming the first chunk that differs and showing its lines now."""
    want = reference["sections"][name]
    got = digests(lines)
    if got == want["digests"] and len(lines) == want["lines"]:
        return None
    k = next((k for k, (a, b) in enumerate(zip(got, want["digests"]))
              if a != b), min(len(got), len(want["digests"])))
    first = want["first_line"] + k * CHUNK
    now = lines[k * CHUNK:(k + 1) * CHUNK]
    return "\n".join(
        [f"section {name!r} differs from the reference at lines {first} to "
         f"{first + CHUNK - 1} of the output ({len(lines)} lines now, "
         f"{want['lines']} in the reference); those lines now read:"]
        + [f"  {first + i}: {line}" for i, line in enumerate(now)]
        + [f"The reference was written with numpy {reference['numpy']} "
           f"(numpy {np.__version__} here) and its platform's libm, whose "
           "last bits another machine may not share.  Compare with the "
           "parent commit's output to see which lines changed.  A change "
           "meant to move results regenerates the reference with",
           "    PYTHONPATH=src python3 scripts/identity_corpus.py "
           "--write-reference",
           "and lists the changed lines in CHANGES.md."])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    act = parser.add_mutually_exclusive_group()
    act.add_argument("--write-reference", action="store_true",
                     help="write each section's digests to "
                     "tests/identity_reference.json instead of printing")
    act.add_argument("--check", action="store_true",
                     help="compare every section with the reference "
                     "instead of printing; exit 1 on a mismatch")
    args = parser.parse_args()
    states = corpus()
    if args.write_reference:
        sections, first = {}, 1
        for name, section in SECTIONS:
            lines = section_lines(section, states)
            sections[name] = {"first_line": first, "lines": len(lines),
                              "digests": digests(lines)}
            first += len(lines)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump({"numpy": np.__version__, "sections": sections}, fh,
                      indent=1)
            fh.write("\n")
        return 0
    if args.check:
        reference = read_reference()
        reports = [mismatch(name, section_lines(section, states), reference)
                   for name, section in SECTIONS]
        print("\n".join(r for r in reports if r) or "every section matches")
        return 1 if any(reports) else 0
    for _, section in SECTIONS:
        for text in section(states):
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
