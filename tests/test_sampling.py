"""Samplers: physicality, hypothesis targeting, determinism."""

import numpy as np
import pytest

from xdiscord import (BlochX, Region, classify_region, region_conditions,
                      spectrum)
from xdiscord.sampling import (random_bell_diagonal, random_case,
                               random_rank_two, random_states)


def test_random_states_count_and_physicality(rng):
    states = random_states(rng, 257)
    assert len(states) == 257
    for p in states:
        assert isinstance(p, BlochX)   # construction re-runs validation
        assert min(p.margins) >= -1e-10


def test_random_bell_diagonal(rng):
    for p in random_bell_diagonal(rng, 100):
        assert p.r == 0.0 and p.s == 0.0
        assert classify_region(p) in (Region.CASE_A, Region.CASE_C)


def test_random_case_satisfies_hypothesis(rng):
    for case in "abcd":
        for p in random_case(rng, case, 50):
            assert region_conditions(p)[case], (case, p.as_tuple())


def test_random_case_rejects_unknown(rng):
    with pytest.raises(ValueError):
        random_case(rng, "e", 1)
    with pytest.raises(ValueError):
        random_rank_two(rng, "IV", 1)


def test_random_rank_two_spectra(rng):
    for case in ("I", "II", "III"):
        for p in random_rank_two(rng, case, 30):
            lam = spectrum(p)
            assert lam[1] > 1e-10          # genuinely rank 2
            assert abs(lam[2]) <= 1e-10    # and no third eigenvalue
            assert abs(lam[3]) <= 1e-10


def test_random_rank_two_normal_form(rng):
    for p in random_rank_two(rng, "III", 50):
        assert abs(p.c1) >= abs(p.c2)


def test_samplers_are_deterministic():
    a = random_states(np.random.default_rng(42), 20)
    b = random_states(np.random.default_rng(42), 20)
    assert [p.as_tuple() for p in a] == [p.as_tuple() for p in b]
    c = random_rank_two(np.random.default_rng(7), "III", 5)
    d = random_rank_two(np.random.default_rng(7), "III", 5)
    assert [p.as_tuple() for p in c] == [p.as_tuple() for p in d]


@pytest.mark.parametrize("sampler", [
    random_states, random_bell_diagonal,
    lambda rng, n: random_case(rng, "a", n),
    lambda rng, n: random_rank_two(rng, "III", n),
], ids=["states", "bell-diagonal", "case", "rank-two"])
def test_samplers_reject_a_negative_count(sampler):
    # a negative n raised nothing and returned []; a float n returned
    # states or failed after a draw; neither, nor n = 0, draws anything
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=r"^n must be at least 0, got -1$"):
        sampler(rng, -1)
    for n in (2.5, 2.0):
        with pytest.raises(TypeError):
            sampler(rng, n)
    assert sampler(rng, 0) == []
    fresh = np.random.default_rng(3)
    assert rng.bit_generator.state == fresh.bit_generator.state


class BatchStub:
    # a generator whose uniform() batches start with the given rows, then
    # repeat a row that hypotheses a and b both reject (s > 0, r c3 > 0)
    def __init__(self, rows):
        self.rows = rows

    def uniform(self, low, high, size):
        batch = np.tile([0.2, 0.2, 0.0, 0.0, 0.5], (size[0], 1))
        batch[:len(self.rows)] = self.rows
        return batch


def test_random_case_a_and_b_at_signed_zeros():
    # s and r c3 at -0.0 or +0.0 pass both cases' sign tests, which are
    # non-strict; a nonzero s or r c3 of the wrong sign fails one case
    zeros = [(r, s, 0.1, -0.1, c3) for r in (0.0, -0.0)
             for s in (0.0, -0.0) for c3 in (0.5, -0.5)]
    zeros += [(0.3, s, 0.0, 0.0, c3) for s in (0.0, -0.0)
              for c3 in (0.0, -0.0)]      # q = 0 = s r c3
    b_only = [(0.2, 0.0, 0.1, 0.1, 0.5), (0.0, -0.1, 0.1, 0.1, 0.5)]
    a_only = [(-0.2, -0.0, 0.1, 0.1, 0.5), (-0.0, 0.1, 0.1, 0.1, 0.5)]
    rows = zeros + [b_only[0], a_only[0], a_only[1], b_only[1]]
    for case, want in (("a", zeros + a_only), ("b", zeros + b_only)):
        got = random_case(BatchStub(rows), case, len(want))
        assert repr([tuple(map(float, p.as_tuple())) for p in got]) == (
            repr(want)), case
