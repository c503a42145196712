import math
import operator
import random
from fractions import Fraction

import pytest

from extsource.series import (
    TruncatedSeries, LaurentSlice, FieldMismatch, WindowError, laurent_mul, laurent_mul_sum,
    mul_sum, _decode, _encode,
)
from series_oracles import miwa_eval, reference_add, reference_mul


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
    # bool is an int subclass, but True is not the coefficient 1
    for make in (lambda: TruncatedSeries.const(True, 3), lambda: TruncatedSeries.one(3) * True,
                 lambda: True * f, lambda: f + False, lambda: f - True, lambda: f / True,
                 lambda: TruncatedSeries(3, {((1,),): True}),
                 lambda: mul_sum([(1, f, False)]), lambda: mul_sum([(1, True, 2)])):
        with pytest.raises(FieldMismatch):
            make()
    with pytest.raises(ValueError, match="negative exponent"):
        TruncatedSeries(3, {((1, -1),): 1})


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
    with pytest.raises(ValueError, match="out of range"):
        t(1, cap, nblocks=2, block=2)


def test_substitute_point_block():
    cap = 3
    s = t(1, cap, nblocks=2, block=1)
    f = TruncatedSeries.one(cap, nblocks=2) + s * 2 + s * s * 3
    g = f.substitute_point(1, Fraction(1, 2))
    assert g.nblocks == 1
    assert g.constant_term() == 1 + 1 + Fraction(3, 4)
    with pytest.raises(ValueError, match="out of range"):
        f.substitute_point(2, 1)
    with pytest.raises(ValueError, match="not a point symbol"):
        (f + t(2, cap, nblocks=2, block=1)).substitute_point(1, 1)


def test_scale_point_block():
    # s -> v s in a point-symbol block keeps each monomial's weight; setting
    # s to one afterwards is setting it to v.  Several terms share a weight,
    # so every bucket holds more than one monomial
    cap, nb = 5, 3
    x, s, y = (t(1, cap, nblocks=nb, block=b) for b in range(nb))
    x2 = t(2, cap, nblocks=nb, block=0)
    f = x * s * Fraction(2, 3) + x2 * s ** 2 + s ** 3 - 7 + x * y + s * y ** 2 + x2
    v = Fraction(-3, 2)
    g = f.scale_point(1, v)
    assert g == (x * s * (v * Fraction(2, 3)) + x2 * s ** 2 * v ** 2 + s ** 3 * v ** 3 - 7
                 + x * y + s * y ** 2 * v + x2)
    assert [w for w, _ in g._graded] == [w for w, _ in f._graded]
    x_, y_ = (t(1, cap, nblocks=2, block=b) for b in range(2))
    x2_ = t(2, cap, nblocks=2, block=0)
    want = x_ * (v * Fraction(2, 3)) + x2_ * v ** 2 + v ** 3 - 7 + x_ * y_ + y_ ** 2 * v + x2_
    assert g.substitute_point(1, 1) == f.substitute_point(1, v) == want
    assert f.scale_point(1, 1) == f
    assert f.scale_point(1, 0) == x * y + x2 - 7
    with pytest.raises(ValueError, match="out of range"):
        f.scale_point(3, 1)
    with pytest.raises(ValueError, match="not a point symbol"):
        (f + t(2, cap, nblocks=nb, block=1)).scale_point(1, 2)


def test_flip_signs():
    cap = 4
    f = t(1, cap) + t(2, cap) * t(1, cap) + 5
    g = f.flip_signs()
    assert g == -t(1, cap) + t(2, cap) * t(1, cap) + 5


def test_laurent_mul_basic():
    A = LaurentSlice(-1, [1, 0, 1])   # z^-1 + z
    B = LaurentSlice(-1, [-1, 0, 1])  # -z^-1 + z
    P = laurent_mul(A, B, keep=(-2, 2))
    assert [P.get(p) for p in range(-2, 3)] == [-1, 0, 0, 0, 1]


def test_laurent_slice_product_and_determinant():
    # laurent_mul_sum of one pair is the full-support laurent_mul, which lets
    # schur.det_series expand determinants of Laurent windows
    from extsource.schur import det_series
    A = LaurentSlice(-1, [1, 2])
    B = LaurentSlice(0, [3, 0, 1])
    C = LaurentSlice(-2, [1, 0, 5])
    D = LaurentSlice(0, [2])
    prod = laurent_mul_sum([(1, A, B)])
    assert (prod.lo, prod.coeffs) == (-1, laurent_mul(A, B).coeffs)
    det = det_series([[A, B], [C, D]])
    want = laurent_mul_sum([(1, A, D), (-1, B, C)])
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


def _weight(mono):
    return sum((i + 1) * e for b in mono for i, e in enumerate(b))


def assert_kernel_invariants(f):
    for mono, c in f.terms.items():
        assert isinstance(c, (int, Fraction)) and c != 0
        assert len(mono) == f.nblocks
        assert all(not b or b[-1] != 0 for b in mono), mono
        assert _weight(mono) <= f.cap
    # the stored form: int numerators over one positive denominator that
    # shares no factor with all of them, bucketed by the true weight of each
    # packed monomial, buckets nonempty and in increasing weight
    assert isinstance(f._den, int) and f._den > 0
    seen = {}
    for w, nums in f._graded:
        assert nums
        for packed, c in nums.items():
            assert isinstance(c, int) and c != 0
            mono = _decode(packed, f.cap, f.nblocks)
            assert _weight(mono) == w
            assert _encode(mono, f.cap) == (w, packed)
            seen[mono] = Fraction(c, f._den)
    assert seen == f.terms
    assert math.gcd(f._den, *(c for _, nums in f._graded for c in nums.values())) == 1
    weights = [w for w, _ in f._graded]
    assert weights == sorted(set(weights))


def test_kernel_matches_reference_randomized():
    rng = random.Random(2024)
    for trial in range(150):
        nblocks, cap = rng.randrange(1, 4), rng.randrange(0, 7)
        f, g = (random_multiblock(rng, cap, nblocks) for _ in range(2))
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
        nblocks, cap = rng.randrange(1, 4), rng.randrange(1, 7)
        f, g = (random_multiblock(rng, cap, nblocks) for _ in range(2))
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


def test_kernel_unequal_caps_are_rejected():
    # a computation fixes one cap, so series of two caps never meet: every
    # ring operation across caps is rejected
    big = TruncatedSeries.one(6) + t(3, 6) + t(1, 6) * t(1, 6) * t(1, 6) * t(1, 6)
    small = TruncatedSeries.one(3) + t(2, 3)
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((big, small), (small, big)):
            with pytest.raises(ValueError, match="cap mismatch"):
                op(x, y)


def test_kernel_scalar_ops_keep_invariants():
    rng = random.Random(5)
    for _ in range(30):
        f = random_multiblock(rng, 5, rng.randrange(1, 4))
        f.terms  # scalar ops on a series whose terms are already decoded
        for got, want in ((f * 3, reference_mul(f, TruncatedSeries.const(3, 5, f.nblocks))),
                          (f / 2, reference_mul(f, TruncatedSeries.const(Fraction(1, 2), 5, f.nblocks))),
                          (f * 0, TruncatedSeries.zero(5, f.nblocks)),
                          (f + 1, reference_add(f, TruncatedSeries.one(5, f.nblocks))),
                          (1 - f, reference_add(TruncatedSeries.one(5, f.nblocks), f, -1)),
                          (-f, reference_add(TruncatedSeries.zero(5, f.nblocks), f, -1))):
            assert got.terms == want.terms
            assert_kernel_invariants(got)


# -- packing edges: full slots, many blocks, unequal caps, integer results ----

def power_mono(j, e, block=0, nblocks=1):
    """The monomial t_j^e of one block."""
    return tuple(((0,) * (j - 1) + (e,)) if b == block else () for b in range(nblocks))


@pytest.mark.parametrize("cap", range(1, 13))
def test_kernel_full_slots_do_not_carry(cap):
    # t_j^(cap // j) is the largest exponent the slot of t_j holds; a product
    # that reaches it must not spill into t_{j+1} or into the next block
    nblocks = 2
    for j in range(1, cap + 1):
        top = cap // j
        for e in range(top + 1):
            f = TruncatedSeries(cap, {power_mono(j, e, 0, nblocks): 1,
                                      power_mono(j, e, 1, nblocks): Fraction(1, 3)}, nblocks)
            g = TruncatedSeries(cap, {power_mono(j, top - e, 0, nblocks): 2,
                                      power_mono(j, top - e, 1, nblocks): -1}, nblocks)
            got = f * g
            assert got.terms == reference_mul(f, g).terms
            if 0 < e < top:  # otherwise the constant terms of the blocks merge
                assert got.coeff(power_mono(j, top, 0, nblocks)) == 2
                assert got.coeff(power_mono(j, top, 1, nblocks)) == Fraction(-1, 3)
            assert_kernel_invariants(got)


def test_kernel_t1_powers_at_slot_boundaries():
    # at cap 7 the slot of t_1 is three bits and t_1^7 fills it; at cap 8 it
    # takes a fourth bit for t_1^8
    for cap in (7, 8, 12):
        x = t(1, cap)
        for n in (7, 8, cap):
            if n > cap:
                continue
            for k in range(n + 1):
                assert (x ** k * x ** (n - k)).terms == {((n,),): 1}
        binom = (TruncatedSeries.one(cap) + x) ** cap
        want = TruncatedSeries.one(cap)
        for _ in range(cap):
            want = reference_mul(want, TruncatedSeries.one(cap) + x)
        assert binom.terms == want.terms
        assert binom.coeff(((cap // 2,),)) == math.comb(cap, cap // 2)
        assert_kernel_invariants(binom)
        # t_1^cap next to the slot of t_2 and the next block
        y = t(2, cap, nblocks=2, block=0)
        z = t(1, cap, nblocks=2, block=1)
        u = t(1, cap, nblocks=2, block=0)
        assert (u ** cap).coeff(((cap,), ())) == 1
        assert (u ** (cap - 2) * y).terms == {((cap - 2, 1), ()): 1}
        assert (u ** (cap - 1) * z).terms == {((cap - 1,), (1,)): 1}
        assert (u ** cap * z).is_zero() and (u ** cap * y).is_zero()


def random_edge_series(rng, cap, nblocks, max_terms=6):
    """Random series of one- or two-factor monomials whose exponents sit at
    or near the top of their slots; some monomials exceed the cap (dropped)."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = [[0] * cap for _ in range(nblocks)]
        for _ in range(rng.randrange(1, 3)):
            b, j = rng.randrange(nblocks), rng.randrange(1, cap + 1)
            top = cap // j
            mono[b][j - 1] += rng.choice([top, max(top - 1, 0), rng.randrange(top + 1)])
        mono = tuple(tuple(block) for block in mono)
        c = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3, 4, 6]))
        terms[mono] = terms.get(mono, 0) + c
    return TruncatedSeries(cap, terms, nblocks)


def test_kernel_matches_reference_at_packing_edges():
    # caps up to 12 and up to five blocks (the block-per-shift fay-det oracle uses five)
    rng = random.Random(77)
    for _ in range(120):
        nblocks, cap = rng.randrange(1, 6), rng.randrange(1, 13)
        f, g, h = (random_edge_series(rng, cap, nblocks) for _ in range(3))
        cases = [
            (f * g, reference_mul(f, g)),
            (g * f, reference_mul(g, f)),
            (f + g, reference_add(f, g)),
            (f - g, reference_add(f, g, -1)),
            (f * g * h, reference_mul(reference_mul(f, g), h)),
        ]
        for got, want in cases:
            assert got.terms == want.terms
            assert got.cap == want.cap and got.nblocks == want.nblocks
            assert_kernel_invariants(got)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_kernel_denominators_cancel_to_integers():
    cap = 6
    x, y = t(1, cap), t(2, cap)
    cases = [
        # scalar scaling clears the denominator
        (TruncatedSeries(cap, {((1,),): Fraction(1, 2), ((0, 1),): Fraction(3, 2)}) * 2,
         x + y * 3),
        # a sum whose fractional parts cancel
        (x * Fraction(1, 3) + x * Fraction(2, 3), x),
        (x / 6 + y / 4 - x / 6 + y * Fraction(3, 4), y),
        # (x/2 + 1/2)(2x - 2) = x^2 - 1
        ((x / 2 + Fraction(1, 2)) * (x * 2 - 2), x * x - 1),
        # truncation drops the only fractional term: t_1^5 t_2 weighs 7
        (TruncatedSeries(cap, {((),): 1, ((5,),): Fraction(1, 2)}) * y, y),
    ]
    for got, want in cases:
        assert got == want
        assert got._den == 1
        assert all(type(c) is int for c in got.terms.values())
        assert_kernel_invariants(got)
    # a partial cancellation keeps the smallest common denominator
    q = (x / 6 + Fraction(1, 4)) * 3
    assert q._den == 4 and q.terms == {((),): Fraction(3, 4), ((1,),): Fraction(1, 2)}
    assert_kernel_invariants(q)


def test_kernel_associative_with_fraction_coefficients():
    rng = random.Random(31)
    for _ in range(40):
        nblocks = rng.randrange(1, 5)
        cap = rng.randrange(4, 13)
        f, g, h = (random_multiblock(rng, cap, nblocks) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert ((f * g) * h).terms == reference_mul(f, reference_mul(g, h)).terms


# -- the fused multiply-accumulate against the left fold ----------------------

def random_factor(rng, cap, nblocks):
    """A series at the cap or an int, Fraction or zero scalar."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randrange(-5, 6)
    if kind == 1:
        return Fraction(rng.randrange(-7, 8), rng.choice([1, 2, 3, 6, 9]))
    if kind == 2:
        return 0
    return random_edge_series(rng, cap, nblocks, max_terms=4)


def left_fold(terms, mul, add):
    out = 0
    for s, x, y in terms:
        out = add(out, mul(mul(s, x), y))
    return out


def on_series(series_op, scalar_op):
    """series_op on two operands of which one is a series, the other
    lifted to a constant series; scalar_op on two scalars."""
    def apply(x, y):
        like = next((v for v in (x, y) if isinstance(v, TruncatedSeries)), None)
        if like is None:
            return scalar_op(x, y)
        return series_op(*(v if isinstance(v, TruncatedSeries)
                           else TruncatedSeries.const(v, like.cap, like.nblocks) for v in (x, y)))
    return apply


@pytest.mark.parametrize("cap", range(1, 13))
def test_mul_sum_matches_left_fold(cap):
    rng = random.Random(1000 + cap)
    for trial in range(12):
        nblocks = rng.randrange(1, 6)
        terms = []
        for _ in range(rng.randrange(1, 7)):
            s = rng.choice([1, -1])
            x = random_edge_series(rng, cap, nblocks, max_terms=5)
            y = random_factor(rng, cap, nblocks)
            terms.append((s, x, y) if rng.random() < 0.5 else (s, y, x))
            if rng.random() < 0.3:
                # a partner whose scalar completes the last one to an integer
                # or cancels the term outright, so denominators cancel
                if isinstance(y, TruncatedSeries):
                    terms.append((-s, x, y))
                else:
                    terms.append((s, x, math.ceil(y) - y + rng.randrange(-1, 2)))
        got = mul_sum(terms)
        assert got == left_fold(terms, operator.mul, operator.add)
        want = left_fold(terms, on_series(reference_mul, operator.mul),
                         on_series(reference_add, operator.add))
        assert got.terms == want.terms
        assert got.cap == want.cap and got.nblocks == want.nblocks
        assert_kernel_invariants(got)


def test_mul_sum_scalars_and_cancellation():
    cap = 4
    x, y = t(1, cap, nblocks=2), t(1, cap, nblocks=2, block=1)
    # scalar-only terms give the exact scalar sum, and no terms give 0
    assert mul_sum([]) == 0
    assert mul_sum([(1, 2, 3), (-1, Fraction(1, 2), 4)]) == 4
    got = mul_sum([(1, x, Fraction(1, 3)), (1, Fraction(2, 3), x), (-1, 1, 1)])
    assert got == x - 1 and got._den == 1
    # a complete cancellation keeps the cap and the block count
    zero = mul_sum([(1, x, y), (-1, y, x)])
    assert zero.is_zero() and (zero.cap, zero.nblocks) == (cap, 2)
    assert_kernel_invariants(zero)
    with pytest.raises(ValueError, match="block count"):
        mul_sum([(1, x, t(1, cap))])
    with pytest.raises(ValueError, match="cap mismatch"):
        mul_sum([(1, x, y), (-1, y, x * TruncatedSeries.one(2, 2))])
