import math
import random
from fractions import Fraction

import pytest

from extsource.series import TruncatedSeries, LaurentSlice
from extsource.schur import det_series, elementary_schur, h_series
from extsource.weights import NearConfluent
from schur_oracles import (
    Partition, partitions_iter, schur_series, schur_poly, complete_homogeneous,
    hciz_expansion_residual, dodgson_residual, h_by_partitions,
)
from series_oracles import miwa_eval, partition_count_dp, h_shift_down, h_shift_up


def test_partition_invariants():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((3, 1))
    assert p.length == 2 and p.weight == 4 and p.part(3) == 0


def test_partitions_iter_hand_enumeration():
    got = [p.parts for p in partitions_iter(2, 3)]
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1)]


def test_partitions_iter_zero_len():
    assert [p.parts for p in partitions_iter(0, 5)] == [()]


def test_partitions_iter_single_row():
    n = 6
    got = [p.parts for p in partitions_iter(1, n)]
    assert got == [()] + [(k,) for k in range(1, n + 1)]


def test_partitions_iter_counts_against_dp():
    for max_len in range(5):
        for max_weight in range(8):
            per_weight = partition_count_dp(max_len, max_weight)
            seen = [0] * (max_weight + 1)
            for p in partitions_iter(max_len, max_weight):
                seen[p.weight] += 1
            assert seen == per_weight


def test_partitions_iter_unique():
    ps = [p.parts for p in partitions_iter(4, 9)]
    assert len(ps) == len(set(ps))


def test_elementary_schur_low_cases():
    cap = 4
    assert elementary_schur(-3, cap).is_zero()
    assert elementary_schur(0, cap) == TruncatedSeries.one(cap)
    t1 = TruncatedSeries.variable(1, cap)
    t2 = TruncatedSeries.variable(2, cap)
    assert elementary_schur(2, cap) == t2 + t1 * t1 / 2


@pytest.mark.parametrize("nblocks,block", [(1, 0), (2, 0), (2, 1), (3, 1)])
def test_elementary_schur_matches_partition_sum(nblocks, block):
    # the recurrence j h_j = sum_k k t_k h_{j-k} against the sum over
    # partitions of j, structurally equal at every j <= cap
    for cap in range(11):
        for j in range(cap + 1):
            assert (elementary_schur(j, cap, nblocks, block)
                    == h_by_partitions(j, cap, nblocks, block)), (j, cap)


def test_elementary_schur_cap_guard():
    with pytest.raises(ValueError):
        elementary_schur(5, 4)


def test_h_at_miwa_point_is_power():
    # sum_j h_j([a]) w^j = 1/(1-aw), i.e. h_j([a]) = a^j
    a = Fraction(2, 3)
    for j in range(7):
        assert miwa_eval(elementary_schur(j, 8), [(a, 1)]) == a ** j


def test_h_shift_down_forms():
    cap = 5
    s0 = h_shift_down(0, cap)
    assert s0.get(0) == TruncatedSeries.one(cap)
    assert s0.get(-1).is_zero()
    s1 = h_shift_down(1, cap)
    assert s1.get(0) == TruncatedSeries.variable(1, cap)
    assert s1.get(-1) == -TruncatedSeries.one(cap)


def test_h_shift_down_miwa_consistency():
    # evaluate h_j(t - [1/z]) at t = [a], z = 2 against h_j of the two
    # points {a, -1/z} computed directly
    a = Fraction(1, 2)
    z = Fraction(2)
    for j in range(6):
        window = h_shift_down(j, 8)
        val = miwa_eval(window.get(0), [(a, 1)]) + miwa_eval(window.get(-1), [(a, 1)]) / z
        direct = miwa_eval(elementary_schur(j, 8), [(a, 1), (Fraction(1) / z, -1)])
        assert val == direct


def test_h_shift_up_low_cases():
    cap = 5
    c = Fraction(3, 4)
    assert h_shift_up(0, c, cap) == TruncatedSeries.one(cap)
    assert h_shift_up(1, c, cap) == TruncatedSeries.variable(1, cap) + c


def test_h_shift_up_two_point_identity():
    # miwa_eval(h_j(t+[c]), t=[a]) equals h_j of the pair {a, c}
    a, c = Fraction(1, 3), Fraction(5, 7)
    for j in range(7):
        lhs = miwa_eval(h_shift_up(j, c, 8), [(a, 1)])
        rhs = sum(a ** i * c ** (j - i) for i in range(j + 1))
        assert lhs == rhs


def test_schur_poly_elementary_cases():
    a = [Fraction(2), Fraction(5)]
    assert schur_poly(Partition((1,)), a) == a[0] + a[1]
    assert schur_poly(Partition((1, 1)), a) == a[0] * a[1]
    assert schur_poly(Partition((2,)), a) == a[0] ** 2 + a[0] * a[1] + a[1] ** 2


def test_schur_poly_symmetry():
    rng = random.Random(3)
    for _ in range(10):
        a = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3)]
        kappa = Partition((3, 1))
        vals = {schur_poly(kappa, perm) for perm in
                ([a[0], a[1], a[2]], [a[2], a[0], a[1]], [a[1], a[2], a[0]])}
        assert len(vals) == 1


def test_jacobi_trudi_matches_alternant():
    rng = random.Random(17)
    kappas = [p for p in partitions_iter(4, 6)]
    for _ in range(6):
        n = rng.randrange(2, 5)
        a = []
        while len(a) < n:
            x = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
            if x not in a:
                a.append(x)
        for kappa in kappas:
            if kappa.length > n:
                continue
            assert schur_poly(kappa, a) == schur_poly(kappa, a, method="alternant")


def test_alternant_near_confluent_guard():
    with pytest.raises(NearConfluent):
        schur_poly(Partition((1,)), [0.5, 0.5 + 1e-10], method="alternant")


def test_schur_series_matches_numeric_eval():
    # miwa evaluation of the series at [a1]+[a2] is the numeric Schur value
    pts = [(Fraction(1, 2), 1), (Fraction(1, 5), 1)]
    vals = [Fraction(1, 2), Fraction(1, 5)]
    for kappa in partitions_iter(2, 5):
        f = schur_series(kappa, 8)
        assert miwa_eval(f, pts) == schur_poly(kappa, vals)


def test_complete_homogeneous_dp():
    a = [Fraction(1), Fraction(2)]
    assert complete_homogeneous(2, a) == 1 + 2 + 4
    assert complete_homogeneous(0, a) == 1
    assert complete_homogeneous(-1, a) == 0


def test_hciz_d1_reduces_to_exp_tail():
    # d = 1: LHS = e^{a lam}; truncation at D leaves the Taylor tail
    a, lam, D = 0.3, 0.7, 8
    expected_tail = abs(math.exp(a * lam) - sum((a * lam) ** k / math.factorial(k)
                                                for k in range(D + 1)))
    assert abs(hciz_expansion_residual([a], [lam], D) - expected_tail) < 1e-15


def test_hciz_d2_converges():
    a = [0.1, 0.2]
    lam = [0.3, 0.5]
    assert hciz_expansion_residual(a, lam, 12) < 1e-12


def test_hciz_d0_truncation():
    # D = 0 keeps only the empty partition: residual = |LHS - 1/prod (d-q)!|
    a = [0.1, 0.4]
    lam = [0.2, 0.3]
    r0 = hciz_expansion_residual(a, lam, 0)
    E = [[math.exp(x * y) for y in lam] for x in a]
    det = E[0][0] * E[1][1] - E[0][1] * E[1][0]
    lhs = det / ((a[1] - a[0]) * (lam[1] - lam[0]))
    assert abs(r0 - abs(lhs - 1.0)) < 1e-14


def test_hciz_rejects_confluent():
    with pytest.raises(NearConfluent):
        hciz_expansion_residual([0.1, 0.1], [0.3, 0.5], 4)


def test_dodgson_identity_matrix():
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert dodgson_residual(eye) == 0


def test_dodgson_worked_example():
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert dodgson_residual([[Fraction(x) for x in row] for row in M]) == 0


def test_dodgson_random_rational_exact():
    rng = random.Random(99)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            M = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                  for _ in range(n)] for _ in range(n)]
            assert dodgson_residual(M) == 0


def test_dodgson_size_guard():
    with pytest.raises(ValueError):
        dodgson_residual([[1, 2], [3, 4]])


def test_elementary_schur_memo_survives_ring_operations():
    # memoised series are shared by every caller, so no operation may
    # write into an operand's terms
    h = elementary_schur(3, 6, 2, 1)
    snapshot = dict(h.terms)
    g = elementary_schur(2, 6, 2, 0)
    results = [h * h, h * g, g * h, h + g, h - h, -h, h * 3, h / 5, 1 - h,
               h.flip_signs(), h.substitute_point(0, Fraction(1, 2)), h ** 2,
               schur_series(Partition((3, 1)), 6, 2, 1)]
    assert all(r is not h for r in results)
    assert elementary_schur(3, 6, 2, 1) is h
    assert h.terms == snapshot
    assert h.terms == elementary_schur.__wrapped__(3, 6, 2, 1).terms


def test_trimmed_determinant_keeps_the_high_powers():
    # up-shift entries h_a(t + [1/z]) = sum_i h_{a-i} z^{-i} carry no
    # positive power, so trimming every product at lo leaves the powers
    # >= lo of the determinant exact
    cap, nb = 5, 2

    def up(a):
        return LaurentSlice(-a, [h_series(a - i, cap, nb, 0) for i in range(a, -1, -1)])
    rows = [[up(max(kp - p + q, 0)) for q in range(3)] for p, kp in enumerate((4, 2, 1))]
    full = det_series(rows)
    assert (full.lo, full.hi) == (-8, 0)
    for lo in (-8, -6, -3, -1, 0):
        got = det_series(rows, lo)
        assert (got.lo, got.hi) == (lo, 0)
        assert got.coeffs == full.coeffs[lo - full.lo:]


def test_det_series_rejects_non_square():
    def const(rows):
        return [[TruncatedSeries.const(v, 3) for v in row] for row in rows]
    # a longer later row used to be cut silently (this one gave -5)
    with pytest.raises(ValueError, match="row 1 has 3 entries, row 0 has 2"):
        det_series(const([[1, 2], [3, 1, 2]]))
    with pytest.raises(ValueError, match="row 1 has 1 entries, row 0 has 2"):
        det_series(const([[1, 2], [3]]))
    with pytest.raises(ValueError, match="got 1 rows of 2 entries"):
        det_series(const([[1, 2]]))
    with pytest.raises(ValueError, match="got 4 rows of 2 entries"):
        det_series(iter(const([[1, 2], [3, 4], [5, 6], [7, 8]])))
    with pytest.raises(ValueError, match="row 2 has 2 entries, row 0 has 3"):
        det_series([[LaurentSlice(0, [1])] * 3] * 2 + [[LaurentSlice(0, [1])] * 2])
    assert det_series(const([[1, 2], [3, 1]])) == TruncatedSeries.const(-5, 3)
