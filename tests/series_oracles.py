"""Reference implementations that only the tests use.

The product and sum here are the original per-pair kernel of
`TruncatedSeries`: they weigh every monomial pair from scratch and build
their result through the validating public constructor.  The graded kernel
in `extsource.series` must agree with them structurally.  The remaining
helpers are independent routes to quantities the package computes another
way; among them the tau series as the Jacobi-Trudi sum over partitions that
`extsource.dkp` contracts into one moment determinant, the series at
t + [1/z] as that determinant of Laurent entries, which `extsource.dkp`
row-reduces to one expansion per power, the ladder rung through the full
vertex action and its residue pairing, and the shift identities with one
symbol block per shift, where `extsource.dkp` scales one shared symbol.
"""

import functools
import math
from fractions import Fraction

from extsource.dkp import _moment_det, _nu_coeff, _zhat_down_shifted_slice
from extsource.schur import det_series, elementary_schur, h_series
from extsource.series import (
    TruncatedSeries, LaurentSlice, WindowError, _exact, laurent_mul, laurent_mul_sum, mul_sum)
from schur_oracles import _det_numeric, partitions_iter


def _weight(mono):
    return sum((i + 1) * e for block in mono for i, e in enumerate(block))


def _mono_mul(m1, m2):
    out = []
    for b1, b2 in zip(m1, m2):
        n = max(len(b1), len(b2))
        b1 = b1 + (0,) * (n - len(b1))
        b2 = b2 + (0,) * (n - len(b2))
        out.append(tuple(x + y for x, y in zip(b1, b2)))
    return tuple(out)


def reference_mul(f, g):
    """Product truncated at the shared cap, pair by pair."""
    assert (f.nblocks, f.cap) == (g.nblocks, g.cap)
    cap = f.cap
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            if _weight(m1) + _weight(m2) > cap:
                continue
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(cap, out, f.nblocks)


def reference_add(f, g, sign=1):
    """f + sign * g at the shared cap."""
    assert (f.nblocks, f.cap) == (g.nblocks, g.cap)
    out = dict(f.terms)
    for m, c in g.terms.items():
        out[m] = out.get(m, 0) + sign * c
    return TruncatedSeries(f.cap, out, f.nblocks)


def partition_count_dp(max_len, max_weight):
    """Count of partitions with <= max_len parts per weight, by the standard
    bounded-parts dynamic program (independent of partitions_iter)."""
    # c[k][w] = number of partitions of w into at most k parts
    c = [[0] * (max_weight + 1) for _ in range(max_len + 1)]
    for k in range(max_len + 1):
        c[k][0] = 1
    for k in range(1, max_len + 1):
        for w in range(1, max_weight + 1):
            c[k][w] = c[k - 1][w] + (c[k][w - k] if w >= k else 0)
    return c[max_len]


def h_shift_down(j, cap, nblocks=1, block=0):
    """h_j(t - [z^-1]) as the window h_j(t) - z^-1 h_{j-1}(t)."""
    if j > cap:
        raise ValueError(f"h_{j} needs cap >= {j}")
    return LaurentSlice(-1, [-elementary_schur(j - 1, cap, nblocks, block),
                             elementary_schur(j, cap, nblocks, block)])


def h_shift_up(j, c, cap, nblocks=1, block=0):
    """h_j(t + [c]) = sum_{i=0..j} h_{j-i}(t) c^i for a scalar shift c."""
    if j > cap:
        raise ValueError(f"h_{j} needs cap >= {j}")
    if j < 0:
        return TruncatedSeries.zero(cap, nblocks)
    out = TruncatedSeries.zero(cap, nblocks)
    ci = 1
    for i in range(j + 1):
        out = out + elementary_schur(j - i, cap, nblocks, block) * ci
        ci = ci * c
    return out


def miwa_eval(f, points, block=0):
    """Substitute t_j = sum_i sign_i * c_i^j / j in one block and sum.

    points is a list of (c, sign) with exact rational c and sign = +1 or -1.
    All other blocks must be absent from f's monomials.
    """
    tj = {}

    def tval(j):
        if j not in tj:
            acc = Fraction(0)
            for c, sign in points:
                acc += Fraction(sign) * Fraction(_exact(c)) ** j / j
            tj[j] = acc
        return tj[j]

    total = Fraction(0)
    for mono, coef in f.terms.items():
        val = coef
        for b, exps in enumerate(mono):
            if b != block and exps:
                raise ValueError("miwa_eval: series involves another block")
        for i, e in enumerate(mono[block]):
            if e:
                val = val * tval(i + 1) ** e
        total += val
    return total


def zhat_at_blocks(cfg, d, nblocks, shift_blocks=()):
    """Z_d(t + [s_1] + ... + [s_k]) with the s_i weight-one symbols of their
    own blocks, as the moment determinant over h_at_shifts entries."""
    cap = cfg.cap
    return _moment_det(cfg, d, cap, functools.cache(
        lambda a: h_at_shifts(a, cap, nblocks, 0, shift_blocks)))


def fay_three_term(cfg, d, a, b, first_cfg=None):
    """The three-term shift identity written out product by product:

        a Z_d(t+[a]) Z_{d-1}(t+[b]) - b Z_d(t+[b]) Z_{d-1}(t+[a])
          - (a-b) Z_d(t+[a]+[b]) Z_{d-1}(t)

    with a, b as weight-one symbols of blocks 1 and 2, substituted at the
    end.  first_cfg, if given, replaces cfg in Z_d(t+[a]) only.
    """
    first_cfg = first_cfg or cfg
    nb = 3  # t, a, b
    sa = TruncatedSeries.variable(1, cfg.cap, block=1, nblocks=nb)
    sb = TruncatedSeries.variable(1, cfg.cap, block=2, nblocks=nb)
    Fa = zhat_at_blocks(first_cfg, d, nb, (1,))
    Fb = zhat_at_blocks(cfg, d, nb, (2,))
    Fab = zhat_at_blocks(cfg, d, nb, (1, 2))
    Ga = zhat_at_blocks(cfg, d - 1, nb, (1,))
    Gb = zhat_at_blocks(cfg, d - 1, nb, (2,))
    G0 = zhat_at_blocks(cfg, d - 1, nb)
    res = sa * Fa * Gb - sb * Fb * Ga - (sa - sb) * Fab * G0
    return res.substitute_point(2, Fraction(b)).substitute_point(1, Fraction(a))


def fay_det_by_blocks(cfg, d, m, a, corrupt_lead=None):
    """dkp.fay_det_residual with one symbol block s_k per shift:

        det[s_k^{m-j} Z_{d+1-j}(t+[s_k])]
          - Delta_m(s) Z_d(t+[s_1]+...+[s_m]) prod_{j=2..m} Z_{d+1-j}(t)

    over m + 1 blocks, each s_k set to a_k at the end.  corrupt_lead =
    (index, value) changes one moment in the fully shifted factor only.
    """
    cap, nb = cfg.cap, m + 1
    syms = [TruncatedSeries.variable(1, cap, block=k + 1, nblocks=nb) for k in range(m)]
    rows = [[zhat_at_blocks(cfg, d + 1 - j, nb, (k + 1,)) * syms[k] ** (m - j)
             for k in range(m)] for j in range(1, m + 1)]
    delta = TruncatedSeries.one(cap, nb)
    for j in range(m):
        for k in range(j + 1, m):
            delta = delta * (syms[j] - syms[k])
    cfg_lead = cfg if corrupt_lead is None else cfg.with_moment(*corrupt_lead)
    rhs = delta * zhat_at_blocks(cfg_lead, d, nb, tuple(range(1, m + 1)))
    for j in range(2, m + 1):
        rhs = rhs * zhat_at_blocks(cfg, d + 1 - j, nb)
    res = det_series(rows) - rhs
    for k in range(m - 1, -1, -1):
        res = res.substitute_point(k + 1, Fraction(a[k]))
    return res


def partition_coeff(cfg, kappa, d):
    """c_kappa = det[M_{kappa_p + d - p + q - 1}] / prod_p (kappa_p + d - p)!
    by exact Fraction elimination."""
    M = [[cfg.moment(kappa.part(p) + d - p + q - 1) for q in range(1, d + 1)]
         for p in range(1, d + 1)]
    denom = math.prod(math.factorial(kappa.part(p) + d - p) for p in range(1, d + 1))
    return Fraction(_det_numeric(M)) / denom


def partition_sum(cfg, d, max_weight, entry, total, lo=None):
    """total + sum_kappa c_kappa det[entry(kappa_p - p + q)] over the
    partitions of length <= d and weight <= max_weight, each Laurent term
    cut to its powers >= lo when lo is given.  The determinant is taken at
    size max(l(kappa), 1), so the empty partition gives entry(0) = h_0."""
    entry = functools.cache(entry)
    fused = laurent_mul_sum if isinstance(total, LaurentSlice) else mul_sum
    for kappa in partitions_iter(d, max_weight):
        c = partition_coeff(cfg, kappa, d)
        if c == 0:
            continue
        n = max(kappa.length, 1)
        term = fused([(1, det_series([[entry(kappa.part(p) - p + q) for q in range(1, n + 1)]
                                      for p in range(1, n + 1)]), c)])
        if lo is not None and term.lo < lo:
            term = LaurentSlice(lo, term.coeffs[lo - term.lo:])
        total = fused([(1, total, 1), (1, term, 1)])
    return total


def h_at_shifts(a, cap, nblocks, tblock, shifts):
    """h_a(t + [c_1 s_1] + ... + [c_k s_k]) = sum over i_0 + ... + i_k = a
    of h_{i_0}(t) (c_1 s_1)^{i_1} ... (c_k s_k)^{i_k}, the s_i weight-one
    symbols of their blocks.  A shift is a block, for c = 1, or a pair
    (block, c); two shifts may share one block."""
    H = [h_series(b, cap, nblocks, tblock) for b in range(a + 1)]
    for shift in shifts:
        block, c = shift if isinstance(shift, tuple) else (shift, 1)
        s = TruncatedSeries.variable(1, cap, block=block, nblocks=nblocks) * c
        H = [sum((H[b - i] * s ** i for i in range(b + 1)),
                 TruncatedSeries.zero(cap, nblocks)) for b in range(a + 1)]
    return H[a] if a >= 0 else TruncatedSeries.zero(cap, nblocks)


def zhat_by_partitions(cfg, d, nblocks=1, tblock=0, shifts=()):
    """The tau series at the h_at_shifts times as a partition sum;
    zhat_series(cfg, d, nblocks, (c_1, .., c_k)) is shifts ((1, c_1), ..,
    (1, c_k)) here."""
    cap = cfg.cap
    return partition_sum(cfg, d, cap,
                         lambda a: h_at_shifts(a, cap, nblocks, tblock, shifts),
                         TruncatedSeries.zero(cap, nblocks))


def down_slice_by_partitions(cfg, d, nblocks=1, tblock=0):
    """The series at t - [1/z] over powers -d..0 as a partition sum; each row
    sheds at most one unit of weight, so weights up to cap + d enter."""
    cap = cfg.cap
    zero = TruncatedSeries.zero(cap, nblocks)
    return partition_sum(
        cfg, d, cap + d,
        lambda a: LaurentSlice(-1, [-h_series(a - 1, cap, nblocks, tblock),
                                    h_series(a, cap, nblocks, tblock)]),
        LaurentSlice(-d, [zero] * (d + 1)), lo=-d)


def up_slice_by_partitions(cfg, d, min_power, nblocks=1, tblock=0):
    """The series at t + [1/z] over powers min_power..0 as a partition sum."""
    cap = cfg.cap
    zero = TruncatedSeries.zero(cap, nblocks)

    def entry(a):
        if a < 0:
            return LaurentSlice(0, [zero])
        return LaurentSlice(-a, [h_series(a - i, cap, nblocks, tblock)
                                 for i in range(a, -1, -1)])
    return partition_sum(cfg, d, cap - min_power, entry, LaurentSlice(0, [zero]),
                         lo=min_power)


def up_slice_by_laurent_det(cfg, d, min_power, nblocks=1, tblock=0):
    """The series at t + [1/z] over powers min_power..0 as the moment
    determinant of the Laurent entries h_a(t + [1/z]) = sum_i h_{a-i} z^{-i},
    every product cut at min_power; entries up to index cap + |min_power|
    contribute there."""
    cap = cfg.cap
    return _moment_det(
        cfg, d, cap - min_power,
        lambda a: LaurentSlice(-a, [h_series(a - i, cap, nblocks, tblock)
                                    for i in range(a, -1, -1)]),  # powers -a..0
        lo=min_power)


def vertex_apply(cfg, d):
    """X(t, z) applied to the degree-d series, as a Laurent window.

    The result is exp(sum t_k z^k) times the down-shifted series; its full
    support at the cap is [-d, cap] (the shift contributes at most one
    inverse power per Jacobi-Trudi row, the prefactor at most weight-many
    positive powers).
    """
    cap = cfg.cap
    shifted = _zhat_down_shifted_slice(cfg, d, 1, 0)
    pre = LaurentSlice(0, [elementary_schur(k, cap) for k in range(cap + 1)])
    return laurent_mul(pre, shifted)


def nu_pair(cfg, d, X):
    """Formal residue of X against the index-d measure: the z^-1 coefficient
    of X(z) nu_d(z), summed exactly.  X must carry all powers >= -d."""
    if X.lo > -d:
        raise WindowError(f"window [{X.lo}, {X.hi}] misses powers down to {-d}")
    terms = [(1, X.get(p), c) for p in X.powers() if (c := _nu_coeff(cfg, d, -1 - p))]
    return mul_sum(terms) if terms else TruncatedSeries.zero(cfg.cap)
