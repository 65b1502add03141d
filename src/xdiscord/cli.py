"""Command line interface.

Subcommands: discord (one state, optionally cross-checked), scan
(tabulate F and derivatives), random (sample and summarize), kw-check
(rank-2 purification identity), classify (region breakdown).  Exit
codes: 0 success, 2 input problems, 3 unphysical state, 4 rank errors.
Each cmd_* function takes the parsed arguments and g, which formats a
number to --precision significant digits, and returns the JSON payload
and the text lines; main prints one of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .engine import (classify_region, discord, f_derivative,
                     f_second_derivative, f_value, region_conditions)
from .entanglement import RankError, koashi_winter
from .oracle import oracle_classical_correlation
from .sampling import random_states
from .states import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                     bloch_to_matrix, spectrum)


class InputError(ValueError):
    """Bad command line payload or file contents."""


def _numbers(text: str) -> list[float]:
    toks = text.replace(",", " ").split()
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise InputError(f"could not parse number: {exc}") from None


def _number(v, where: str) -> float:
    # a JSON number; bool is an int subclass, so it is refused by name
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"{where} must be a number, got {json.dumps(v)}")
    try:
        return float(v)
    except OverflowError:
        raise InputError(f"{where} is out of range") from None


def _matrix_from_rows(rows) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != 4:
        raise InputError("matrix must be a list of 4 rows")
    arr = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise InputError(f"matrix row {i} must have 4 entries")
        for j, e in enumerate(row):
            where = f"matrix entry ({i}, {j})"
            if isinstance(e, list) and len(e) == 2:
                arr[i, j] = complex(_number(e[0], where), _number(e[1], where))
            else:
                arr[i, j] = _number(e, where)
    return arr


def _read_input(path: str) -> list[float] | np.ndarray:
    """The 5 Pauli coefficients or the 4x4 matrix in a file; '-' is stdin."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    text = text.strip()
    if not text:
        raise InputError(f"{path} is empty")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON: {exc}") from None
        if "bloch" in obj and "matrix" in obj:
            raise InputError("JSON has both a 'bloch' and a 'matrix' key; "
                             "give one")
        if "bloch" in obj:
            vals = obj["bloch"]
            if not isinstance(vals, list) or len(vals) != 5:
                raise InputError("'bloch' must be a list of 5 numbers")
            return [_number(v, "'bloch' entry") for v in vals]
        if "matrix" in obj:
            return _matrix_from_rows(obj["matrix"])
        raise InputError("JSON needs a 'bloch' or 'matrix' key")
    nums = _numbers(text)
    if len(nums) == 5:
        return nums
    if len(nums) == 16:
        return np.array(nums, dtype=complex).reshape(4, 4)
    raise InputError(
        f"expected 5 numbers (bloch) or 16 (matrix), got {len(nums)}")


def _load_state(args) -> tuple[BlochX, dict]:
    """State from --bloch or --input, and its JSON "input" block."""
    if args.bloch is None and not args.input:    # argparse refuses both
        raise InputError("no state given; use --bloch or --input")
    src = args.bloch if args.bloch is not None else _read_input(args.input)
    if isinstance(src, np.ndarray):
        xm = XDensityMatrix(src)
        p, meta = xm.bloch, {"source": "matrix", "phases": list(xm.phases)}
    else:
        p, meta = BlochX(*src), {"source": "bloch"}
    return p, {"bloch": list(p.as_tuple()), **meta}


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"    # argparse's "invalid int value" names it
    return parse


def _state_line(g, bloch) -> str:
    return "state: r=%s s=%s c1=%s c2=%s c3=%s" % tuple(g(v) for v in bloch)


# ---------------------------------------------------------------------------

def cmd_discord(args, g) -> tuple[dict, list[str]]:
    p, inp = _load_state(args)
    try:
        res = discord(p, method=args.method, verify=args.verify)
    except ValueError as exc:
        # p is already validated, so this is --method analytic on a state
        # outside regions a-d
        raise InputError(str(exc)) from None
    spec = [float(x) for x in spectrum(p)]
    payload = {
        "input": inp,
        "region": res.region,
        "method": res.method,
        "z_star": res.z_star,
        "f_max": res.f_max,
        "discord": res.discord,
        "classical_correlation": res.classical_correlation,
        "mutual_information": res.mutual_information,
        "spectrum": spec,
    }
    lines = [_state_line(g, inp["bloch"])]
    phases = inp.get("phases")
    if phases and any(abs(x) > 0 for x in phases):
        lines.append("stripped corner phases: " + " ".join(map(g, phases)))
    lines += [f"region: {res.region} ({res.method})",
              "spectrum: " + " ".join(g(x) for x in spec),
              f"z* = {g(res.z_star)}   F(z*) = {g(res.f_max)}",
              f"discord = {g(res.discord)}",
              f"classical correlation = {g(res.classical_correlation)}",
              f"mutual information = {g(res.mutual_information)}"]
    search = res.search
    if search is not None:
        payload["search"] = {
            "route": search.route,
            "candidates": [[z, f] for z, f in search.candidates],
            "newton": [{"seed": run.seed,
                        "iterates": list(run.iterates),
                        "converged": run.converged,
                        "note": run.note}
                       for run in search.newton_runs],
            "tie": search.tie,
            "fallback": search.fallback,
        }
        run = search.newton_runs[0]
        its = run.note      # no step taken: say why
        if run.iterates or not run.note:
            its = " ".join(g(z) for z in run.iterates) + (
                " [converged]" if run.converged else " [abandoned]")
        lines += [f"route: {search.route}",
                  f"newton from z0={g(run.seed)}: {its}"]
        if search.tie:
            lines.append("note: F(0) and F(1) tie at the maximum")
        if search.fallback:
            lines.append(f"note: {search.fallback} fallback was used")
    if res.verify_gap is not None:
        payload["verify_gap"] = res.verify_gap
        lines.append(f"route gap = {g(res.verify_gap)}")
    if args.verify:
        orc = oracle_classical_correlation(p, grid_n=args.grid)
        diff = abs(orc.classical_correlation - res.classical_correlation)
        payload["oracle"] = {
            "classical_correlation": orc.classical_correlation,
            "difference": diff,
            "grid_n": orc.grid_n,
            "z3": orc.z3,
            "phi": orc.phi,
        }
        lines.append(f"oracle (grid {orc.grid_n}): classical correlation = "
                     f"{g(orc.classical_correlation)}, difference = {g(diff)}")
    return payload, lines


def cmd_scan(args, g) -> tuple[dict, list[str]]:
    p, inp = _load_state(args)
    zs = np.linspace(0.0, 1.0, args.points)
    with np.errstate(all="ignore"):
        fs = f_value(p, zs)
        d1 = f_derivative(p, zs)
        d2 = f_second_derivative(p, zs)
    payload = {
        "input": inp,
        "z": [float(x) for x in zs],
        "f": [float(x) for x in fs],
        "f_prime": [float(x) for x in d1],
        "f_second": [float(x) for x in d2],
    }
    w = args.precision + 8
    table = [("z", "F", "F'", "F''"),
             *(map(g, row) for row in zip(zs, fs, d1, d2))]
    return payload, [" ".join(c.rjust(w) for c in row) for row in table]


def cmd_classify(args, g) -> tuple[dict, list[str]]:
    p, inp = _load_state(args)
    conds = region_conditions(p)
    tag = classify_region(p)
    m1, m2 = p.margins
    payload = {
        "input": inp,
        "selected": tag.value,
        "conditions": conds,
        "margins": [m1, m2],
    }
    lines = [_state_line(g, inp["bloch"]),
             f"region: {tag.value}",
             "hypotheses: " + " ".join(f"{k}={'yes' if v else 'no'}"
                                       for k, v in conds.items()),
             f"positivity margins: {g(m1)} {g(m2)}"]
    return payload, lines


def cmd_kw(args, g) -> tuple[dict, list[str]]:
    p, inp = _load_state(args)
    rep = koashi_winter(bloch_to_matrix(p))
    payload = {"input": inp, **dataclasses.asdict(rep)}
    lines = [f"rank-2 case {rep.case}, weights %s %s"
             % (g(rep.weights[0]), g(rep.weights[1])),
             f"classical correlation (measured on a) = "
             f"{g(rep.classical_correlation_a)}",
             f"concurrence of complementary pair = {g(rep.concurrence_bc)}",
             f"entanglement of formation = {g(rep.eof_bc)}",
             f"marginal entropy S(b) = {g(rep.marginal_entropy_b)}",
             f"identity residual = {g(rep.residual)}",
             f"z* of the swapped-state search = {g(rep.z_star_swapped)}"]
    return payload, lines


def cmd_random(args, g) -> tuple[dict, list[str]]:
    states = random_states(np.random.default_rng(args.seed), args.count)
    k = min(args.verify_sample, args.count)
    spot = set(np.linspace(0, args.count - 1, k).round().astype(int).tolist())
    rows, lines = [], []
    region_counts: dict[str, int] = {}
    interior = 0
    worst = 0.0
    for i, p in enumerate(states):
        res = discord(p)
        bloch = list(p.as_tuple())
        region_counts[res.region] = region_counts.get(res.region, 0) + 1
        if 1e-9 < res.z_star < 1.0 - 1e-9:
            interior += 1
        rows.append({
            "bloch": bloch,
            "region": res.region,
            "method": res.method,
            "z_star": res.z_star,
            "discord": res.discord,
            "classical_correlation": res.classical_correlation,
        })
        if args.count <= 50:
            lines.append("r=%s s=%s c1=%s c2=%s c3=%s  region=%s z*=%s Q=%s"
                         % (*(g(v) for v in bloch), res.region,
                            g(res.z_star), g(res.discord)))
        if i in spot:
            orc = oracle_classical_correlation(p, grid_n=args.grid)
            worst = max(worst, abs(orc.classical_correlation
                                   - res.classical_correlation))
    qs = [row["discord"] for row in rows]
    regions = dict(sorted(region_counts.items()))
    mean, top = float(np.mean(qs)), float(np.max(qs))
    summary = {
        "count": args.count,
        "seed": args.seed,
        "regions": regions,
        "interior_maximizers": interior,
        "discord_mean": mean,
        "discord_max": top,
    }
    lines += [f"sampled {args.count} states (seed {args.seed})",
              "regions: " + " ".join(f"{r}:{n}" for r, n in regions.items()),
              f"interior maximizers: {interior}",
              f"discord mean = {g(mean)}, max = {g(top)}"]
    if args.verify_sample:
        summary["verified"] = {"indices": sorted(spot),
                               "grid_n": args.grid,
                               "max_difference": worst}
        lines.append(f"oracle spot check on {len(spot)} states "
                     f"(grid {args.grid}): max difference = {g(worst)}")
    return {"summary": summary, "states": rows}, lines


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xdiscord",
        description="Quantum discord of two-qubit X-states.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, summary in (
            ("discord", cmd_discord, "discord of one state"),
            ("scan", cmd_scan, "tabulate F, F', F'' on a z grid"),
            ("random", cmd_random, "sample random states and summarize"),
            ("kw-check", cmd_kw, "purification identity for a rank-2 state"),
            ("classify", cmd_classify, "region breakdown for one state")):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if name != "random":
            one = sp.add_mutually_exclusive_group()
            one.add_argument("--bloch", nargs=5, type=float,
                             metavar=("R", "S", "C1", "C2", "C3"),
                             help="Pauli coefficients of the state")
            one.add_argument("--input", help="file with the state (JSON with "
                             "'bloch' or 'matrix', or plain numbers); '-' "
                             "reads stdin")
        if name == "discord":
            sp.add_argument("--method", choices=("auto", "analytic",
                                                 "numeric"), default="auto")
            sp.add_argument("--verify", action="store_true",
                            help="cross-check with the closed forms and the "
                                 "measurement-grid oracle")
            sp.add_argument("--grid", type=_int_at_least(1), default=256,
                            help="oracle grid size for --verify")
        elif name == "scan":
            sp.add_argument("--points", type=_int_at_least(1), default=101)
        elif name == "random":
            sp.add_argument("--count", type=_int_at_least(1), default=10)
            sp.add_argument("--seed", type=_int_at_least(0), default=0)
            sp.add_argument("--verify-sample", type=_int_at_least(0),
                            default=0, metavar="K", help="spot-check K "
                            "evenly spaced states with the oracle")
            sp.add_argument("--grid", type=_int_at_least(1), default=256)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--precision", type=_int_at_least(0), default=6,
                        help="significant digits in text output")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    g = f"{{:.{args.precision}g}}".format     # --precision significant digits
    # (exit code, message prefix) of each error exit
    exits = {InputError: (2, ""), RankError: (4, ""),
             XPatternError: (2, "not an X-shaped matrix: "),
             PhysicalityError: (3, "unphysical state: ")}
    try:
        payload, lines = args.func(args, g)
    except tuple(exits) as exc:
        code, prefix = next(v for t, v in exits.items() if isinstance(exc, t))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
