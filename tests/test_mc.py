import itertools
import math
import tracemalloc

import numpy as np
import pytest

from extsource import mc
from extsource.weights import IntervalSet
from extsource.mc import estimate_expectation, cross_check
from mc_oracles import batch_values, reference_estimate, sample_spiked_eigenvalues

RIGHT1 = IntervalSet([[1, "inf"]])
FULL = IntervalSet([["-inf", "inf"]])


def test_d1_zero_source_standard_normal():
    N = 50000
    [est] = estimate_expectation(1, [[]], FULL, 0.0, N, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0
    # empirical mean of the eigenvalue itself
    vals = [sample_spiked_eigenvalues(1, [], seed)[0] for seed in range(300)]
    m = np.mean(vals)
    assert abs(m) < 3.0 / math.sqrt(300)


def test_d1_shift():
    mu = 1.3
    vals = [sample_spiked_eigenvalues(1, [mu], seed)[0] for seed in range(300)]
    assert abs(np.mean(vals) - mu) < 3.0 / math.sqrt(300)


def test_trace_second_moment():
    # E[sum lambda^2] = d^2 at this normalization
    d, n = 2, 4000
    real, imag = mc._hermitian_draws(mc._rng_for_batch(7, 0), n, d)
    lam = np.linalg.eigvalsh((real + 1j * imag).transpose(2, 0, 1))
    tot = (lam ** 2).sum(axis=1)
    assert abs(tot.mean() - d * d) < 4 * tot.std() / math.sqrt(n)


def test_trivial_values():
    [est0] = estimate_expectation(3, [[0.5]], RIGHT1, 0.0, 2000, seed=5)
    assert est0.mean == 1.0 and est0.stderr == 0.0
    [est1] = estimate_expectation(3, [[0.5]], FULL, 1.0, 2000, seed=5)
    assert est1.mean == 0.0 and est1.stderr == 0.0


def test_mean_in_unit_interval_for_s_in_01():
    [est] = estimate_expectation(3, [[0.9, 0.3]], RIGHT1, 0.7, 5000, seed=11)
    assert 0.0 <= est.mean <= 1.0


def test_seed_determinism_bitwise():
    a = estimate_expectation(3, [[0.5, 1.4]], RIGHT1, 1.0, 30000, seed=42)
    b = estimate_expectation(3, [[0.5, 1.4]], RIGHT1, 1.0, 30000, seed=42)
    assert a == b
    estimate_expectation(3, [[0.5, 1.4]], RIGHT1, 1.0, 30000, seed=43)
    c = estimate_expectation(3, [[0.5, 1.4]], RIGHT1, 1.0, 30000, seed=42)
    assert c == a  # no generator state outlives a call


def test_stderr_scaling():
    rates = []
    for N in (1000, 10000, 100000):
        [est] = estimate_expectation(2, [[0.5]], RIGHT1, 1.0, N, seed=9)
        rates.append(est.stderr * math.sqrt(N))
    base = rates[-1]
    for r in rates:
        assert abs(r - base) / base < 0.2


def test_cross_check_agreement():
    [chk] = cross_check(2, [[0.5]], RIGHT1, 1.0, 100000, seed=3)
    assert chk.z <= 3.0
    assert 0.0 < chk.quad < 1.0


def test_cross_check_s0_exact():
    [chk] = cross_check(2, [[0.5]], RIGHT1, 0.0, 2000, seed=3)
    assert chk.z == 0.0


def test_cross_check_detects_corruption():
    [good] = cross_check(2, [[0.5]], RIGHT1, 1.0, 100000, seed=3)
    [bad] = cross_check(2, [[0.5]], RIGHT1, 1.0, 100000, seed=3,
                        quads=[good.quad * 1.02])
    assert bad.z > 3.0


def test_estimate_requires_minimum_samples():
    with pytest.raises(ValueError):
        estimate_expectation(2, [[0.5]], RIGHT1, 1.0, 10, seed=0)


# the eigenvalue counter against the eigvalsh oracle: same draws, same
# per-draw values to the last bit
ORACLE_SETS = [
    RIGHT1,
    IntervalSet([[-0.5, 0.7], [2, "inf"]]),
    IntervalSet([["-inf", 0.2]]),
    IntervalSet([]),
]


@pytest.mark.parametrize("d", range(1, 7))
def test_inertia_count_matches_eigvalsh_per_draw(d):
    A = np.array(([0.9, 0.3, 1.4] + [0.0] * d)[:d])
    for E in ORACLE_SETS:
        for s in (0.0, 0.6, 1.0):
            [got] = mc._batch_values(d, [A], E, s, 100 + d, 1, 5000)
            want = batch_values(d, A, E, s, 100 + d, 1, 5000)
            assert got.tobytes() == want.tobytes(), (E, s)


# the source grid of perfbench/workloads/mc-sampler.yaml, one group per d
MC_SAMPLER_GRID = {d: [list(tup) for m in range(1, min(d, 3) + 1)
                       for tup in itertools.combinations((0.3, 0.9, 1.4), m)]
                   for d in (2, 4)}


def test_estimate_matches_reference_on_mc_sampler_grid():
    # each estimate of a grouped call equals, to the last bit, the eigvalsh
    # oracle's and the one its tuple gets alone: sharing the draws changes
    # no value
    for d, group in MC_SAMPLER_GRID.items():
        got = estimate_expectation(d, group, RIGHT1, 1.0, 100000, 20260809)
        for est, tup in zip(got, group, strict=True):
            want = reference_estimate(d, tup, RIGHT1, 1.0, 100000, 20260809)
            assert est == want, (d, tup)
            assert [est] == estimate_expectation(d, [tup], RIGHT1, 1.0, 100000, 20260809)


def test_group_returns_one_result_per_tuple():
    assert estimate_expectation(2, [], RIGHT1, 1.0, 2000, seed=1) == []
    group = [[0.5], [1.4], [0.5]]
    chks = cross_check(2, group, RIGHT1, 1.0, 2000, seed=1, quads=[0.2, 0.3, 0.4])
    assert [c.quad for c in chks] == [0.2, 0.3, 0.4]
    assert chks[0].mc == chks[2].mc != chks[1].mc
    with pytest.raises(ValueError):
        cross_check(2, group, RIGHT1, 1.0, 2000, seed=1, quads=[0.2])
    with pytest.raises(ValueError, match="more sources"):
        estimate_expectation(2, [[0.5], [0.1, 0.2, 0.3]], RIGHT1, 1.0, 2000, seed=1)


def test_grouped_call_holds_one_batch_at_a_time():
    # seven tuples over five batches peak no higher than one tuple over one
    # batch: each batch of H is dropped before the next is drawn (holding
    # the previous one while drawing adds about 3 MB at d = 4)
    def peak(group, N):
        tracemalloc.start()
        try:
            estimate_expectation(4, group, RIGHT1, 1.0, N, 20260809)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    group = MC_SAMPLER_GRID[4]
    assert len(group) == 7
    peak(group[:1], mc.BATCH)  # first-call allocations out of the way
    one = peak(group[:1], mc.BATCH)
    assert peak(group, 5 * mc.BATCH) <= one + 1_000_000


def test_zero_pivot_is_recounted():
    # a cut placed exactly on the eigenvalue h + a of a 1 x 1 draw: the
    # pivot is 0, which the inertia count alone would read as "not below";
    # the recount must add the source too, or h = c - a falls outside E
    for a in (0.0, -0.7):
        rng = mc._rng_for_batch(5, 0)
        c = float(rng.standard_normal((1, 1, 1))[0, 0, 0]) + a
        E = IntervalSet([["-inf", c]])
        A = np.array([a])
        real, imag = mc._hermitian_draws(mc._rng_for_batch(5, 0), 1000, 1)
        below, bad = mc._count_below(real, imag, A, [c])
        assert bad[0] and below[0, 0] == 0
        [got] = mc._batch_values(1, [A], E, 0.6, 5, 0, 1000)
        want = batch_values(1, A, E, 0.6, 5, 0, 1000)
        assert got[0] == 1.0 - 0.6, a
        assert got.tobytes() == want.tobytes(), a
