import itertools
import math
import tracemalloc

import numpy as np
import pytest

from extsource import mc
from extsource.weights import IntervalSet
from extsource.mc import estimate_expectation, cross_check
from mc_oracles import batch_values, reference_estimates, sample_spiked_eigenvalues

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
    draws = mc._hermitian_draws(mc._rng_for_batch(7, 0), n, d)
    lam = np.linalg.eigvalsh(mc._dense(draws, np.zeros(d), np.ones(n, dtype=bool)))
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


def test_cross_check_detects_corruption(monkeypatch):
    [good] = cross_check(2, [[0.5]], RIGHT1, 1.0, 100000, seed=3)
    monkeypatch.setattr(mc, "expectation", lambda q: good.quad * 1.02)
    [bad] = cross_check(2, [[0.5]], RIGHT1, 1.0, 100000, seed=3)
    assert bad.z > 3.0


def test_cross_check_rejects_a_model_before_sampling(monkeypatch):
    monkeypatch.setattr(mc, "estimate_expectation", lambda *a: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="cap"):
        cross_check(11, [[0.5]], RIGHT1, 1.0, 1000, seed=0)


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
        want = reference_estimates(d, group, RIGHT1, 1.0, 100000, 20260809)
        for est, ref, tup in zip(got, want, group, strict=True):
            assert est == ref, (d, tup)
            assert [est] == estimate_expectation(d, [tup], RIGHT1, 1.0, 100000, 20260809)


def test_group_returns_one_result_per_tuple(monkeypatch):
    assert estimate_expectation(2, [], RIGHT1, 1.0, 2000, seed=1) == []
    group = [[0.5], [1.4], [0.5]]
    quads = iter([0.2, 0.3, 0.4])  # one expectation per tuple, in order
    monkeypatch.setattr(mc, "expectation", lambda q: next(quads))
    chks = cross_check(2, group, RIGHT1, 1.0, 2000, seed=1)
    assert [c.quad for c in chks] == [0.2, 0.3, 0.4]
    assert chks[0].mc == chks[2].mc != chks[1].mc
    with pytest.raises(ValueError, match="more sources"):
        estimate_expectation(2, [[0.5], [0.1, 0.2, 0.3]], RIGHT1, 1.0, 2000, seed=1)


def test_grouped_call_holds_one_batch_at_a_time():
    # seven tuples over five batches peak no higher than one tuple over one
    # batch: each batch of H is dropped before the next is drawn (holding
    # the previous one while drawing adds 2.56 MB at d = 4)
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
    # the recount must add the source too, or h = c - a falls outside E;
    # at a = 0.3 the pivot is zero only if formed as (h + a) - c
    for a in (0.0, -0.7, 0.3):
        rng = mc._rng_for_batch(5, 0)
        c = float(rng.standard_normal((1, 1, 1))[0, 0, 0]) + a
        E = IntervalSet([["-inf", c]])
        A = np.array([a])
        draws = mc._hermitian_draws(mc._rng_for_batch(5, 0), 1000, 1)
        [(below, bad)] = mc._count_below(draws, [A], [c])
        assert bad[0] and below[0, 0] == 0
        [got] = mc._batch_values(1, [A], E, 0.6, 5, 0, 1000)
        want = batch_values(1, A, E, 0.6, 5, 0, 1000)
        assert got[0] == 1.0 - 0.6, a
        assert got.tobytes() == want.tobytes(), a


@pytest.mark.parametrize("d", range(1, 7))
def test_grouped_sweep_equals_alone(d):
    # a group that mixes every source extent from 0 to min(d, 3), several
    # tuples per extent: each tuple finishes the shared sweep on its own
    # Schur complement, and its values equal the eigvalsh oracle's and those
    # of a call with the tuple alone, to the last bit
    group = [tup for m in range(min(d, 3) + 1)
             for tup in itertools.combinations((0.9, -0.7, 1.4, 0.3), m)]
    As = [mc._source_diagonal(d, tup) for tup in group]
    E = IntervalSet([[-0.5, 0.7], [2, "inf"]])
    for s in (0.6, 1.0):
        got = mc._batch_values(d, As, E, s, 300 + d, 2, 4000)
        for A, v in zip(As, got, strict=True):
            want = batch_values(d, A, E, s, 300 + d, 2, 4000)
            [alone] = mc._batch_values(d, [A], E, s, 300 + d, 2, 4000)
            assert v.tobytes() == want.tobytes() == alone.tobytes(), (s, A)


def test_zero_pivot_in_shared_block_is_recounted():
    # at d = 2 the first pivot, index 1, is source free for every tuple of
    # extent 0 or 1: a cut on H_11 of draw 0 zeroes it, so every such tuple
    # must flag draw 0 and recount it (the tuple of extent 0 has no pivot of
    # its own to flag it); a tuple of extent 2 carries its source on that
    # pivot and keeps the draw
    rng = mc._rng_for_batch(8, 0)
    c = float(rng.standard_normal((4, 1000))[1, 0])
    E = IntervalSet([[c, "inf"]])
    group = [(), (0.3,), (0.9,), (-0.7,), (1.4,), (0.3, 0.9)]
    As = [mc._source_diagonal(2, tup) for tup in group]
    draws = mc._hermitian_draws(mc._rng_for_batch(8, 0), 1000, 2)
    counts = mc._count_below(draws, As, [c])
    assert [bool(bad[0]) for _, bad in counts] == [True] * 5 + [False]
    got = mc._batch_values(2, As, E, 0.6, 8, 0, 1000)
    for A, v in zip(As, got, strict=True):
        want = batch_values(2, A, E, 0.6, 8, 0, 1000)
        assert v.tobytes() == want.tobytes(), A


def test_draws_have_the_gue_entry_moments_and_stay_intact():
    # each entry of H against e^{-Tr H^2/2}: H_ii ~ N(0, 1), Re H_ij and
    # Im H_ij ~ N(0, 1/2) and uncorrelated, every sample moment within 5
    # standard errors; the rows are views of one (d^2, n) array, so the
    # counters must replace entries, never write into them
    d, n = 4, 20000
    re, im = draws = mc._hermitian_draws(mc._rng_for_batch(11, 0), n, d)
    Z = re[0][0].base
    assert Z.shape == (d * d, n) and Z.flags.c_contiguous
    rows = [t for row in re + im for t in row]
    assert len(rows) == d * d and all(t.base is Z for t in rows)
    for i in range(d):
        for j in range(i + 1):
            parts = [re[i][j]] if i == j else [re[i][j], im[i][j]]
            var = 1.0 if i == j else 0.5
            for x in parts:
                assert abs(x.mean()) < 5 * math.sqrt(var / n), (i, j)
                # Var(x^2) = 2 var^2 for a centred normal
                assert abs((x * x).mean() - var) < 5 * var * math.sqrt(2 / n), (i, j)
            if i != j:
                # Var(xy) = var^2 for independent centred normals
                assert abs((re[i][j] * im[i][j]).mean()) < 5 * var / math.sqrt(n), (i, j)
    before = Z.tobytes()
    As = [mc._source_diagonal(d, tup) for tup in [(), (0.9,), (0.3, 1.4), (0.9, -0.7, 1.4)]]
    mc._count_below(draws, As, [-0.5, 0.7, 2.0])
    # a cut on an entry of draw 0 forces the eigvalsh recount through _dense
    E = IntervalSet([[float(re[3][3][0]), "inf"]])
    for _ in mc._inside_counts(draws, As, E):
        pass
    assert Z.tobytes() == before
