import random
from fractions import Fraction

import pytest

from extsource.series import (
    TruncatedSeries, LaurentSlice, FieldMismatch, WindowError,
    series_exp, miwa_eval, laurent_residue, laurent_mul,
)
from series_oracles import reference_add, reference_mul


def t(j, cap, **kw):
    return TruncatedSeries.variable(j, cap, **kw)


def random_series(rng, cap, max_terms=6):
    f = TruncatedSeries.zero(cap)
    for _ in range(rng.randrange(max_terms)):
        j = rng.randrange(1, cap + 1)
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        f = f + t(j, cap) * c
    # sprinkle a quadratic monomial now and then
    if rng.random() < 0.5 and cap >= 2:
        f = f + t(1, cap) * t(1, cap) * Fraction(rng.randrange(-3, 4))
    return f


def test_mul_difference_of_squares():
    cap = 3
    one = TruncatedSeries.one(cap)
    f = (one + t(1, cap)) * (one - t(1, cap))
    assert f == one - t(1, cap) * t(1, cap)


def test_mul_identity_element():
    cap = 4
    f = t(2, cap) + t(1, cap) * 3 - 2
    assert f * TruncatedSeries.one(cap) == f


def test_mul_truncation_by_weight():
    # t1 * t2 has weight 3 and must drop at cap 2
    f = t(1, 2) * t(2, 2)
    assert f.is_zero()


def test_field_mismatch_rejected():
    # the kernel is exact-only: a float never becomes a coefficient
    f = t(1, 3)
    with pytest.raises(FieldMismatch):
        TruncatedSeries.const(1.5, 3)
    with pytest.raises(FieldMismatch):
        TruncatedSeries(3, {((1,),): 0.5})
    with pytest.raises(FieldMismatch):
        f + 0.5
    with pytest.raises(FieldMismatch):
        f - 0.5
    with pytest.raises(FieldMismatch):
        f * 0.5
    with pytest.raises(FieldMismatch):
        f / 2.0
    with pytest.raises(FieldMismatch):
        miwa_eval(f, [(0.5, 1)])


def test_exp_of_zero():
    assert series_exp(TruncatedSeries.zero(5)) == TruncatedSeries.one(5)


def test_exp_scalar_coefficients():
    f = series_exp(t(1, 3))
    x = t(1, 3)
    expect = TruncatedSeries.one(3) + x + x * x / 2 + x * x * x / 6
    assert f == expect


def test_exp_two_variables_cap2():
    f = series_exp(t(1, 2) + t(2, 2))
    x = t(1, 2)
    expect = TruncatedSeries.one(2) + x + t(2, 2) + x * x / 2
    assert f == expect


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.one(3))


def test_exp_inverse_property():
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, 6)
        assert series_exp(f) * series_exp(-f) == TruncatedSeries.one(6)


def test_ring_axioms_randomized():
    rng = random.Random(123)
    for _ in range(25):
        f = random_series(rng, 5)
        g = random_series(rng, 5)
        h = random_series(rng, 5)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_miwa_eval_basics():
    a = Fraction(3, 2)
    b = Fraction(-1, 3)
    assert miwa_eval(t(1, 4), [(a, 1)]) == a
    assert miwa_eval(t(2, 4), [(a, 1), (b, 1)]) == (a * a + b * b) / 2


def test_miwa_eval_is_ring_morphism():
    rng = random.Random(5)
    pts = [(Fraction(1, 2), 1), (Fraction(2, 3), -1)]
    for _ in range(15):
        f = random_series(rng, 5)
        g = random_series(rng, 5)
        # morphism property only holds when the product does not truncate,
        # so evaluate the product at matching caps
        fw, gw = f.weight(), g.weight()
        if fw + gw > 5:
            continue
        assert miwa_eval(f * g, pts) == miwa_eval(f, pts) * miwa_eval(g, pts)


def test_blocks_are_independent():
    cap = 4
    u = t(1, cap, nblocks=2, block=0)
    v = t(1, cap, nblocks=2, block=1)
    p = u * v
    assert not p.is_zero()
    assert p.coeff(((1,), (1,))) == 1
    # joint weight truncation: weight 2 + weight 3 drops at cap 4
    q = t(2, cap, nblocks=2, block=0) * t(3, cap, nblocks=2, block=1)
    assert q.is_zero()


def test_substitute_point_block():
    cap = 3
    s = t(1, cap, nblocks=2, block=1)
    f = TruncatedSeries.one(cap, nblocks=2) + s * 2 + s * s * 3
    g = f.substitute_point(1, Fraction(1, 2))
    assert g.nblocks == 1
    assert g.constant_term() == 1 + 1 + Fraction(3, 4)


def test_flip_signs():
    cap = 4
    f = t(1, cap) + t(2, cap) * t(1, cap) + 5
    g = f.flip_signs()
    assert g == -t(1, cap) + t(2, cap) * t(1, cap) + 5


def test_laurent_residue_readoff():
    L = LaurentSlice(-2, [2, 5, 7])  # 2 z^-2 + 5 z^-1 + 7
    assert laurent_residue(L) == 5


def test_laurent_residue_window_excludes():
    L = LaurentSlice(0, [1, 2])
    with pytest.raises(WindowError):
        laurent_residue(L)


def test_laurent_residue_linear():
    rng = random.Random(11)
    for _ in range(10):
        c1 = [Fraction(rng.randrange(-5, 6)) for _ in range(4)]
        c2 = [Fraction(rng.randrange(-5, 6)) for _ in range(4)]
        A = LaurentSlice(-2, c1)
        B = LaurentSlice(-2, c2)
        S = LaurentSlice(-2, [x + y for x, y in zip(c1, c2)])
        assert laurent_residue(S) == laurent_residue(A) + laurent_residue(B)


def test_laurent_mul_basic():
    A = LaurentSlice(-1, [1, 0, 1])   # z^-1 + z
    B = LaurentSlice(-1, [-1, 0, 1])  # -z^-1 + z
    P = laurent_mul(A, B, keep=(-2, 2))
    assert [P.get(p) for p in range(-2, 3)] == [-1, 0, 0, 0, 1]


def test_laurent_slice_product_and_determinant():
    # LaurentSlice * LaurentSlice is the full-support laurent_mul, which lets
    # schur.det_series expand determinants of Laurent windows
    from extsource.schur import det_series
    A = LaurentSlice(-1, [1, 2])
    B = LaurentSlice(0, [3, 0, 1])
    C = LaurentSlice(-2, [1, 0, 5])
    D = LaurentSlice(0, [2])
    prod = A * B
    assert (prod.lo, prod.coeffs) == (-1, laurent_mul(A, B).coeffs)
    det = det_series([[A, B], [C, D]])
    want = laurent_mul(A, D) - laurent_mul(B, C)
    assert (det.lo, det.hi) == (want.lo, want.hi)
    assert det.coeffs == want.coeffs


def test_laurent_mul_identity():
    A = LaurentSlice(-2, [3, 1, 4, 1])
    delta = LaurentSlice(0, [1])
    P = laurent_mul(A, delta)
    assert P.lo == A.lo and P.coeffs == A.coeffs


def test_laurent_mul_insufficient_window():
    A = LaurentSlice(0, [1, 1])
    B = LaurentSlice(0, [1, 1])
    with pytest.raises(WindowError):
        laurent_mul(A, B, keep=(0, 3))


def test_laurent_mul_series_coefficients():
    cap = 3
    x = t(1, cap)
    A = LaurentSlice(-1, [x, TruncatedSeries.one(cap)])
    B = LaurentSlice(0, [TruncatedSeries.one(cap), x * 2])
    P = laurent_mul(A, B)
    assert P.get(-1) == x
    assert P.get(0) == TruncatedSeries.one(cap) + x * x * 2
    assert P.get(1) == x * 2


# -- the graded kernel against the per-pair reference ------------------------

def random_multiblock(rng, cap, nblocks, max_terms=8):
    """A random series built through the validating constructor: arbitrary
    exponent tuples in every block, some above the cap (dropped), some with
    trailing zeros (stripped), some repeated (summed)."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
                     for _ in range(nblocks))
        terms[mono] = terms.get(mono, 0) + Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return TruncatedSeries(cap, terms, nblocks)


def assert_kernel_invariants(f):
    for mono, c in f.terms.items():
        assert isinstance(c, (int, Fraction)) and c != 0
        assert len(mono) == f.nblocks
        assert all(not b or b[-1] != 0 for b in mono), mono
        assert sum((i + 1) * e for b in mono for i, e in enumerate(b)) <= f.cap
    # the cached graded view holds exactly the terms, at their true weights
    seen = {}
    for w, items in f._grades():
        for mono, c in items:
            assert sum((i + 1) * e for b in mono for i, e in enumerate(b)) == w
            seen[mono] = c
    assert seen == f.terms
    assert [w for w, _ in f._grades()] == sorted({w for w, _ in f._grades()})


def test_kernel_matches_reference_randomized():
    rng = random.Random(2024)
    for trial in range(150):
        nblocks = rng.randrange(1, 4)
        f = random_multiblock(rng, rng.randrange(0, 7), nblocks)
        g = random_multiblock(rng, rng.randrange(0, 7), nblocks)
        if trial % 3 == 0:
            g = g + f * Fraction(rng.randrange(-2, 3))  # shared monomials
        cases = [
            (f * g, reference_mul(f, g)),
            (g * f, reference_mul(g, f)),
            (f + g, reference_add(f, g)),
            (f - g, reference_add(f, g, -1)),
            ((f * g) * f, reference_mul(reference_mul(f, g), f)),
        ]
        for got, want in cases:
            assert got.terms == want.terms
            assert got.cap == want.cap and got.nblocks == want.nblocks
            assert_kernel_invariants(got)


def test_kernel_cancellation_to_zero():
    rng = random.Random(99)
    for _ in range(40):
        nblocks = rng.randrange(1, 4)
        f = random_multiblock(rng, rng.randrange(1, 7), nblocks)
        g = random_multiblock(rng, rng.randrange(1, 7), nblocks)
        for zero in (f - f, f + (-f), f * g - g * f, f * (g - g), (-f) * g + f * g):
            assert zero.is_zero() and zero.terms == {}
            assert_kernel_invariants(zero)
    # partial cancellation inside one weight bucket of a product
    cap = 4
    one = TruncatedSeries.one(cap)
    p = (one + t(1, cap)) * (one - t(1, cap))
    assert p.terms == reference_mul(one + t(1, cap), one - t(1, cap)).terms
    assert p.terms == {((),): 1, ((2,),): -1}
    assert_kernel_invariants(p)


def test_kernel_unequal_caps_truncate_to_smaller():
    big = TruncatedSeries.one(6) + t(3, 6) + t(1, 6) * t(1, 6) * t(1, 6) * t(1, 6)
    small = TruncatedSeries.one(3) + t(2, 3)
    for got in (big + small, small + big, big - small, big * small, small * big):
        assert got.cap == 3
        assert_kernel_invariants(got)
    assert (big * small).terms == reference_mul(big, small).terms
    assert (big + small).terms == reference_add(big, small).terms


def test_kernel_scalar_ops_keep_invariants():
    rng = random.Random(5)
    for _ in range(30):
        f = random_multiblock(rng, 5, rng.randrange(1, 4))
        f._grades()  # scalar ops on a series with a cached graded view
        for got, want in ((f * 3, reference_mul(f, TruncatedSeries.const(3, 5, f.nblocks))),
                          (f / 2, reference_mul(f, TruncatedSeries.const(Fraction(1, 2), 5, f.nblocks))),
                          (f * 0, TruncatedSeries.zero(5, f.nblocks)),
                          (f + 1, reference_add(f, TruncatedSeries.one(5, f.nblocks))),
                          (1 - f, reference_add(TruncatedSeries.one(5, f.nblocks), f, -1)),
                          (-f, reference_add(TruncatedSeries.zero(5, f.nblocks), f, -1))):
            assert got.terms == want.terms
            assert_kernel_invariants(got)
