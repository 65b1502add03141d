"""Command line interface.

Subcommands: discord (one state, optionally cross-checked), scan
(tabulate F and derivatives), random (sample and summarize), kw-check
(rank-2 purification identity), classify (region breakdown).  Exit
codes: 0 success, 2 input problems, 3 unphysical state, 4 rank errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .engine import (FContext, classify_region, discord, f_derivative,
                     f_second_derivative, f_value, region_conditions)
from .entanglement import RankError, koashi_winter
from .oracle import oracle_classical_correlation
from .sampling import random_states
from .states import (BlochX, PhysicalityError, XDensityMatrix, XPatternError,
                     bloch_to_matrix, corner_phases, matrix_to_bloch,
                     spectrum)


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
    if getattr(args, "bloch", None) is not None:
        src = args.bloch
    elif getattr(args, "input", None):
        src = _read_input(args.input)
    else:
        raise InputError("no state given; use --bloch or --input")
    if isinstance(src, np.ndarray):
        xm = XDensityMatrix(src)
        p = matrix_to_bloch(xm)
        meta = {"source": "matrix", "phases": list(corner_phases(xm))}
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


def _add_state_args(sp):
    sp.add_argument("--bloch", nargs=5, type=float,
                    metavar=("R", "S", "C1", "C2", "C3"),
                    help="Pauli coefficients of the state")
    sp.add_argument("--input",
                    help="file with the state (JSON with 'bloch' or "
                         "'matrix', or plain numbers); '-' reads stdin")


def _add_format_args(sp):
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--precision", type=_int_at_least(0), default=6,
                    help="significant digits in text output")


def _emit(payload: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text_lines))


def _g(prec: int):
    return lambda x: f"{x:.{prec}g}"


# ---------------------------------------------------------------------------

def _result_payload(p: BlochX, res, inp: dict) -> dict:
    out = {
        "input": inp,
        "region": res.region,
        "method": res.method,
        "z_star": res.z_star,
        "f_max": res.f_max,
        "discord": res.discord,
        "classical_correlation": res.classical_correlation,
        "mutual_information": res.mutual_information,
        "spectrum": [float(x) for x in spectrum(p)],
    }
    if res.search is not None:
        out["search"] = {
            "route": res.search.route,
            "candidates": [[z, f] for z, f in res.search.candidates],
            "newton": [{"seed": run.seed,
                        "iterates": list(run.iterates),
                        "converged": run.converged,
                        "note": run.note}
                       for run in res.search.newton_runs],
            "tie": res.search.tie,
            "fallback": res.search.fallback,
        }
    if res.verify_gap is not None:
        out["verify_gap"] = res.verify_gap
    return out


def cmd_discord(args) -> int:
    p, inp = _load_state(args)
    res = discord(p, method=args.method, verify=args.verify)
    payload = _result_payload(p, res, inp)
    if args.verify:
        orc = oracle_classical_correlation(p, grid_n=args.grid)
        payload["oracle"] = {
            "classical_correlation": orc.classical_correlation,
            "difference": abs(orc.classical_correlation
                              - res.classical_correlation),
            "grid_n": orc.grid_n,
            "z3": orc.z3,
            "phi": orc.phi,
        }
    g = _g(args.precision)
    lines = ["state: r=%s s=%s c1=%s c2=%s c3=%s"
             % tuple(g(v) for v in payload["input"]["bloch"])]
    phases = inp.get("phases")
    if phases and any(abs(x) > 0 for x in phases):
        lines.append("stripped corner phases: %s %s"
                     % (g(phases[0]), g(phases[1])))
    lines.append(f"region: {payload['region']} ({payload['method']})")
    lines.append("spectrum: " + " ".join(g(x) for x in payload["spectrum"]))
    lines.append(f"z* = {g(payload['z_star'])}   "
                 f"F(z*) = {g(payload['f_max'])}")
    lines.append(f"discord = {g(payload['discord'])}")
    lines.append(f"classical correlation = "
                 f"{g(payload['classical_correlation'])}")
    lines.append(f"mutual information = {g(payload['mutual_information'])}")
    if "search" in payload:
        lines.append(f"route: {payload['search']['route']}")
        run = payload["search"]["newton"][0]
        its = " ".join(g(z) for z in run["iterates"])
        state = "converged" if run["converged"] else "abandoned"
        if run["iterates"] or not run["note"]:
            its += f" [{state}]"
        else:
            its = run["note"]     # no step taken: say why
        lines.append(f"newton from z0={g(run['seed'])}: {its}")
        if payload["search"]["tie"]:
            lines.append("note: F(0) and F(1) tie at the maximum")
        if payload["search"]["fallback"]:
            lines.append(f"note: {payload['search']['fallback']} "
                         "fallback was used")
    if "verify_gap" in payload:
        lines.append(f"route gap = {g(payload['verify_gap'])}")
    if "oracle" in payload:
        o = payload["oracle"]
        lines.append(f"oracle (grid {o['grid_n']}): classical correlation = "
                     f"{g(o['classical_correlation'])}, "
                     f"difference = {g(o['difference'])}")
    _emit(payload, args, lines)
    return 0


def cmd_scan(args) -> int:
    p, inp = _load_state(args)
    ctx = FContext.from_state(p)
    zs = np.linspace(0.0, 1.0, args.points)
    with np.errstate(all="ignore"):
        fs = f_value(ctx, zs)
        d1 = f_derivative(ctx, zs)
        d2 = f_second_derivative(ctx, zs)
    payload = {
        "input": inp,
        "z": [float(x) for x in zs],
        "f": [float(x) for x in fs],
        "f_prime": [float(x) for x in d1],
        "f_second": [float(x) for x in d2],
    }
    g = _g(args.precision)
    w = args.precision + 8
    lines = ["%*s %*s %*s %*s" % (w, "z", w, "F", w, "F'", w, "F''")]
    for z, f, a, b in zip(zs, fs, d1, d2):
        lines.append("%*s %*s %*s %*s"
                     % (w, g(z), w, g(f), w, g(a), w, g(b)))
    _emit(payload, args, lines)
    return 0


def cmd_classify(args) -> int:
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
    g = _g(args.precision)
    lines = ["state: r=%s s=%s c1=%s c2=%s c3=%s"
             % tuple(g(v) for v in p.as_tuple()),
             f"region: {tag.value}",
             "hypotheses: " + " ".join(f"{k}={'yes' if v else 'no'}"
                                       for k, v in conds.items()),
             f"positivity margins: {g(m1)} {g(m2)}"]
    _emit(payload, args, lines)
    return 0


def cmd_kw(args) -> int:
    p, inp = _load_state(args)
    rep = koashi_winter(bloch_to_matrix(p))
    payload = {"input": inp, **dataclasses.asdict(rep)}
    g = _g(args.precision)
    lines = [f"rank-2 case {rep.case}, weights %s %s"
             % (g(rep.weights[0]), g(rep.weights[1])),
             f"classical correlation (measured on a) = "
             f"{g(rep.classical_correlation_a)}",
             f"concurrence of complementary pair = {g(rep.concurrence_bc)}",
             f"entanglement of formation = {g(rep.eof_bc)}",
             f"marginal entropy S(b) = {g(rep.marginal_entropy_b)}",
             f"identity residual = {g(rep.residual)}",
             f"z* of the swapped-state search = {g(rep.z_star_swapped)}"]
    _emit(payload, args, lines)
    return 0


def cmd_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    states = random_states(rng, args.count)
    rows = []
    region_counts: dict[str, int] = {}
    interior = 0
    for p in states:
        res = discord(p)
        region_counts[res.region] = region_counts.get(res.region, 0) + 1
        if 1e-9 < res.z_star < 1.0 - 1e-9:
            interior += 1
        rows.append({
            "bloch": list(p.as_tuple()),
            "region": res.region,
            "method": res.method,
            "z_star": res.z_star,
            "discord": res.discord,
            "classical_correlation": res.classical_correlation,
        })
    qs = [row["discord"] for row in rows]
    summary = {
        "count": args.count,
        "seed": args.seed,
        "regions": dict(sorted(region_counts.items())),
        "interior_maximizers": interior,
        "discord_mean": float(np.mean(qs)),
        "discord_max": float(np.max(qs)),
    }
    if args.verify_sample:
        k = min(args.verify_sample, args.count)
        idx = sorted(set(np.linspace(0, args.count - 1, k).round()
                         .astype(int).tolist()))
        worst = 0.0
        for i in idx:
            orc = oracle_classical_correlation(states[i], grid_n=args.grid)
            gap = abs(orc.classical_correlation
                      - rows[i]["classical_correlation"])
            worst = max(worst, gap)
        summary["verified"] = {"indices": [int(i) for i in idx],
                               "grid_n": args.grid,
                               "max_difference": worst}
    payload = {"summary": summary, "states": rows}
    g = _g(args.precision)
    lines = []
    if args.count <= 50:
        for row in rows:
            lines.append("r=%s s=%s c1=%s c2=%s c3=%s  region=%s z*=%s Q=%s"
                         % (*(g(v) for v in row["bloch"]), row["region"],
                            g(row["z_star"]), g(row["discord"])))
    lines.append(f"sampled {args.count} states (seed {args.seed})")
    lines.append("regions: " + " ".join(f"{k}:{v}" for k, v
                                        in summary["regions"].items()))
    lines.append(f"interior maximizers: {interior}")
    lines.append(f"discord mean = {g(summary['discord_mean'])}, "
                 f"max = {g(summary['discord_max'])}")
    if "verified" in summary:
        v = summary["verified"]
        lines.append(f"oracle spot check on {len(v['indices'])} states "
                     f"(grid {v['grid_n']}): max difference = "
                     f"{g(v['max_difference'])}")
    _emit(payload, args, lines)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xdiscord",
        description="Quantum discord of two-qubit X-states.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discord", help="discord of one state")
    _add_state_args(d)
    d.add_argument("--method", choices=("auto", "analytic", "numeric"),
                   default="auto")
    d.add_argument("--verify", action="store_true",
                   help="cross-check with the closed forms and the "
                        "measurement-grid oracle")
    d.add_argument("--grid", type=_int_at_least(1), default=256,
                   help="oracle grid size for --verify")
    _add_format_args(d)
    d.set_defaults(func=cmd_discord)

    s = sub.add_parser("scan", help="tabulate F, F', F'' on a z grid")
    _add_state_args(s)
    s.add_argument("--points", type=_int_at_least(1), default=101)
    _add_format_args(s)
    s.set_defaults(func=cmd_scan)

    r = sub.add_parser("random", help="sample random states and summarize")
    r.add_argument("--count", type=_int_at_least(1), default=10)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--verify-sample", type=_int_at_least(0), default=0,
                   metavar="K",
                   help="spot-check K evenly spaced states with the oracle")
    r.add_argument("--grid", type=_int_at_least(1), default=256)
    _add_format_args(r)
    r.set_defaults(func=cmd_random)

    k = sub.add_parser("kw-check",
                       help="purification identity for a rank-2 state")
    _add_state_args(k)
    _add_format_args(k)
    k.set_defaults(func=cmd_kw)

    c = sub.add_parser("classify", help="region breakdown for one state")
    _add_state_args(c)
    _add_format_args(c)
    c.set_defaults(func=cmd_classify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XPatternError as exc:
        print(f"error: not an X-shaped matrix: {exc}", file=sys.stderr)
        return 2
    except PhysicalityError as exc:
        print(f"error: unphysical state: {exc}", file=sys.stderr)
        return 3
    except RankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    sys.exit(main())
