"""Random X-state generators for tests, demos, and the CLI.

All samplers take a numpy Generator, so runs are reproducible from a
seed.  Rejection sampling from the Pauli box [-1, 1]^5 accepts roughly
8 percent of draws; batches are sized accordingly.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .states import BlochX, physicality_margins


def _physical(rows: np.ndarray, margin: float = 0.0) -> np.ndarray:
    # rows (N, 5) with both positivity margins at least margin, in order
    m1, m2 = physicality_margins(*rows.T)
    return rows[(m1 >= margin) & (m2 >= margin)]


def _fill(n: int, draw) -> list[BlochX]:
    # the first n rows of successive draw(todo) batches, as states
    if operator.index(n) < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    out: list[BlochX] = []
    while len(out) < n:
        rows = draw(n - len(out))
        out += [BlochX(*row) for row in rows[:n - len(out)]]
    return out


def random_states(rng: np.random.Generator, n: int,
                  margin: float = 0.0) -> list[BlochX]:
    """n states uniform over the physical region of the Pauli box.

    margin > 0 keeps a slack of at least margin on both positivity
    constraints (useful where derivatives of boundary states blow up).
    """
    return _fill(n, lambda todo: _physical(
        rng.uniform(-1.0, 1.0, size=(max(16 * todo, 64), 5)), margin))


def random_bell_diagonal(rng: np.random.Generator, n: int) -> list[BlochX]:
    """n states with r = s = 0, uniform over the physical c-cube."""
    def draw(todo):
        cs = rng.uniform(-1.0, 1.0, size=(max(4 * todo, 64), 3))
        return _physical(np.column_stack([np.zeros((len(cs), 2)), cs]))
    return _fill(n, draw)


def random_case(rng: np.random.Generator, case: str, n: int) -> list[BlochX]:
    """n physical states satisfying the named endpoint-region hypothesis.

    Cases "a" and "b" are rejection sampled from the full box; "c" builds
    r = 0 states (half with c3^2 >= max(|c1|, |c2|)^2, half with s = 0 as
    well); "d" builds states with s = r c3 <= 0 and max |ci| = |c3|.
    """
    if case not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown case {case!r}")

    def draw(todo):
        if case in ("a", "b"):
            batch = rng.uniform(-1.0, 1.0, size=(max(32 * todo, 64), 5))
            r, s, c1, c2, c3 = batch.T
            q = c3 * c3 - np.maximum(np.abs(c1), np.abs(c2)) ** 2
            rc3 = r * c3
            sg = 1.0 if case == "a" else -1.0   # sigma_x on b: a <-> b
            ok = (sg * s >= 0.0) & (sg * rc3 <= 0.0) & (q >= s * rc3)
            return _physical(batch[ok])
        if case == "c":
            batch = rng.uniform(-1.0, 1.0, size=(max(8 * todo, 64), 4))
            s, c1, c2, c3 = batch.T
            # half of the family: s = 0 exactly, any max |ci|
            s = np.where(rng.random(len(batch)) < 0.5, s, 0.0)
            axis_ok = (c3 * c3 >= np.maximum(np.abs(c1), np.abs(c2)) ** 2)
            keep = axis_ok | (s == 0.0)
            return _physical(np.column_stack(
                [np.zeros(len(batch)), s, c1, c2, c3])[keep])
        c3 = rng.uniform(-1.0, 1.0, size=max(8 * todo, 64))
        u = rng.uniform(0.0, 1.0, size=len(c3))
        r = -np.sign(c3) * u          # makes r c3 <= 0
        s = r * c3
        big = np.where(rng.random(len(c3)) < 0.5, c3, -c3)
        small = rng.uniform(-1.0, 1.0, size=len(c3)) * np.abs(c3)
        which = rng.random(len(c3)) < 0.5
        c1 = np.where(which, big, small)
        c2 = np.where(which, small, big)
        rows = np.column_stack([r, s, c1, c2, c3])
        return _physical(rows[c3 * c3 + r * r <= 2.0 / 3.0])

    return _fill(n, draw)


def random_rank_two(rng: np.random.Generator, case: str,
                    n: int) -> list[BlochX]:
    """n rank-2 states of the named case ("I", "II", or "III").

    Case I: c3 = 1, s = r, c2 = -c1.  Case II: c3 = -1, s = -r, c2 = c1.
    Case III saturates both positivity constraints with |c3| <= 0.9 so
    both surviving eigenvalues stay safely away from zero, and emits
    |c1| >= |c2|; the two orderings are locally equivalent, and the
    closed concurrence form for the complementary state assumes this one.
    """
    if case not in ("I", "II", "III"):
        raise ValueError(f"unknown case {case!r}")

    def draw(todo):
        if case in ("I", "II"):
            r = rng.uniform(-0.95, 0.95)
            amp = math.sqrt(max(0.999 ** 2 - r * r, 0.0))
            c1 = rng.uniform(-amp, amp)
            if case == "I":
                return [(r, r, c1, -c1, 1.0)]
            return [(r, -r, c1, c1, -1.0)]
        c3 = rng.uniform(-0.9, 0.9)
        th1, th2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        rm = (1.0 - c3) * math.cos(th1)
        cp = (1.0 - c3) * math.sin(th1)
        rp = (1.0 + c3) * math.cos(th2)
        cm = (1.0 + c3) * math.sin(th2)
        r = (rp + rm) / 2.0
        s = (rp - rm) / 2.0
        c1 = (cp + cm) / 2.0
        c2 = (cp - cm) / 2.0
        if abs(c1) < abs(c2):
            c1, c2 = c2, c1
        return [(r, s, c1, c2, c3)]

    return _fill(n, draw)
