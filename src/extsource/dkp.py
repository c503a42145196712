"""Exact construction of the tau vector of partition-function series and the
machine checks of its identities: the vertex-operator ladder, the bilinear
residue identity, the three-term shift identity and its determinant
generalization.

The degree-d series is the moment determinant
det[sum_l h_{l-d+i}(t) M_{l+j-1} / l!]_{i,j=1..d} (Adler & van Moerbeke,
Comm. Math. Phys. 203, 1999): by Cauchy-Binet, the d x d determinant of one
moment-matrix product instead of a sum over partitions.  Shifting the times
changes only the entries h_a, so the series at t + [v u] and t - [1/z] come
from that determinant (_moment_det), each passing its own shifted entry.
At t + [1/z] row i becomes sum_k z^{-k} R_{i-k}, R_r the unshifted row of
offset r; subtracting z^{-1} times row i - 1 from row i leaves R_i for
every i >= 1, so each power of z is one expansion along the first row
against cofactors computed once (_zhat_up_shifted_slice).  The three-term shift identity
is the m = 2 case of the determinant generalization.

Everything here is exact rational arithmetic.  A shift [v] enters as
[v u], u a weight-one symbol of its own block, so every computation is
homogeneous in the joint grading; u is set to one only at the very end.
Without that, truncation at a finite weight would contaminate low-order
coefficients and the residuals would not vanish identically.  The m shifts
of the determinant identity share the one symbol: s_k = a_k u keeps
weights, so truncating commutes with it.
"""

import copy
import functools
import math
from fractions import Fraction

from .series import TruncatedSeries, LaurentSlice, laurent_mul, laurent_mul_sum, mul_sum
from .schur import elementary_schur, h_series, det_series, maximal_minors


class TauConfig:
    """Exact-moment weight, truncation cap and ladder depth; every
    d-dependent normalisation constant is one."""

    def __init__(self, weight, cap, dmax):
        if cap < 1 or dmax < 1:
            raise ValueError("cap and dmax must be >= 1")
        if not weight.exact_moments:
            raise ValueError(f"{weight.kind} weight has no exact moments")
        self.weight = weight
        self.cap = cap
        self.dmax = dmax
        self._coeffs = {}  # _coeff memo, (d, top) -> table
        self._override = None  # (j, value) of one replaced moment
        self._moments = [Fraction(weight.moment_exact(j)) for j in range(2 * dmax + cap + 3)]

    def moment(self, j):
        if self._override is not None and j == self._override[0]:
            return self._override[1]
        # the shift expansions reach indices beyond the seeded range (the
        # inverse powers shed weight), so the table grows on demand
        while j >= len(self._moments):
            self._moments.append(Fraction(self.weight.moment_exact(len(self._moments))))
        return self._moments[j]

    def with_moment(self, j, value):
        """Copy with moment j replaced (checker sensitivity tests); every
        other moment follows the clean weight."""
        out = copy.copy(self)
        out._coeffs = {}
        out._override = (j, Fraction(value))
        return out


def _coeff(cfg, d, top):
    """The exact table M_{l+j} / l! for l = 0..top (rows), j = 0..d-1
    (columns), memoised on cfg (a with_moment copy starts with an empty
    memo)."""
    key = (d, top)
    table = cfg._coeffs.get(key)
    if table is None:
        table = cfg._coeffs[key] = [
            [cfg.moment(l + j) / math.factorial(l) for j in range(d)]
            for l in range(top + 1)]
    return table


# the tau series a run has built: zhat_series and the down-shifted windows
# of _zhat_down_shifted_slice, keyed by every input they read.  The weight,
# cap and moment override stand for the moments, so a with_moment copy never
# reads a clean series.  The bound only keeps a long-lived process from
# growing the memo without limit.
_SERIES = {}
_SERIES_MAX = 256


def _memoised(build):
    """build(cfg, *args), built once per (weight, cap, override, args).
    Callers share the returned series and windows, which are immutable."""
    @functools.wraps(build)
    def memo(cfg, *args):
        key = (build.__name__, cfg.weight, cfg.cap, cfg._override, *args)
        out = _SERIES.get(key)
        if out is None:
            if len(_SERIES) >= _SERIES_MAX:
                _SERIES.clear()
            out = _SERIES[key] = build(cfg, *args)
        return out
    return memo


@functools.lru_cache(maxsize=1024)
def _h_shifted_entry(a, cap, nblocks, shift):
    """h_a(t + [v_1 u] + ... + [v_k u]) for the values v_i of the tuple
    shift, t the times of block 0 and u the weight-one symbol of block 1.

    The sum is h_a(t + sum [v_i u]) = sum_i h_{a-i}(t) h_i(v) u^i, with
    h_i(v) the complete homogeneous polynomial of the values; u^i is zero
    past the cap.  Memoised: callers share the returned series, which is
    immutable."""
    if a < 0:
        return TruncatedSeries.zero(cap, nblocks)
    if not shift:
        return elementary_schur(a, cap, nblocks)
    # h_i(v_1..v_k) from h_i(v_1..v_{k-1}): h_i <- h_i + v_k h_{i-1}
    hv = [Fraction(1)] + [Fraction(0)] * a
    for v in shift:
        for i in range(1, a + 1):
            hv[i] += v * hv[i - 1]
    return mul_sum(
        [(1, elementary_schur(a - i, cap, nblocks),
          TruncatedSeries(cap, {((), (i,)) + ((),) * (nblocks - 2): hv[i]}, nblocks))
         for i in range(min(a, cap) + 1)])


def _moment_row(table, entries, d, r, fused=mul_sum):
    """Row r of the moment matrix: sum_l entries[l - d + 1 + r] M_{l+j} / l!
    for j = 0..d-1, with entries[a] = h_a at the caller's times and table a
    _coeff table reaching l = len(entries) + d - 2 - r.  fused is mul_sum,
    or laurent_mul_sum for Laurent entries.  Zero coefficients are dropped,
    except at a = 0, whose entry fixes a column's cap and window when every
    coefficient vanishes."""
    rows = table[d - 1 - r:]  # entries[a] meets l = a + d - 1 - r
    return [fused([(1, e, rows[a][j]) for a, e in enumerate(entries) if rows[a][j] or not a])
            for j in range(d)]


def _moment_det(cfg, d, max_weight, entry, lo=None):
    """det[sum_l entry(l - d + i) M_{l+j-1} / l!]_{i,j=1..d}.

    By Cauchy-Binet this is sum_kappa c_kappa det[entry(kappa_p - p + q)]
    over the partitions of length <= d, where c_kappa = det[M_{l_p+q-1} /
    l_p!] with l_p = kappa_p + d - p, and entry(a) is h_a at the shifted
    times (shifting t changes only the Jacobi-Trudi entries; h_a = 0 for
    a < 0).  Entries of index above max_weight vanish at the cap and are
    dropped, and d = 0 gives entry(0) = h_0 = 1.  With lo, each Laurent
    entry and product keeps only its powers >= lo, which is exact because no
    entry carries a positive power.
    """
    entries = [entry(a) for a in range(max_weight + 1 if d else 1)]
    if lo is not None:
        entries = [e if e.lo >= lo else LaurentSlice(lo, e.coeffs[lo - e.lo:])
                   for e in entries]
    if d == 0:
        return entries[0]
    table = _coeff(cfg, d, max_weight + d - 1)
    fused = mul_sum if lo is None else laurent_mul_sum
    return det_series((_moment_row(table, entries, d, i, fused) for i in range(d)), lo)


def zhat_series(cfg, d, nblocks=1, shift=()):
    """The degree-d series of the tau vector, truncated at the cap.

    With shift values v_1..v_k, returns the series at
    t + [v_1 u] + ... + [v_k u], where t are the times of block 0 and u is
    the weight-one symbol of block 1 (nblocks >= 2).  Built once per run.
    """
    if d < 0 or d > cfg.dmax:
        raise ValueError(f"d must be within 0..{cfg.dmax}")
    return _zhat_series(cfg, d, nblocks, tuple(Fraction(v) for v in shift))


@_memoised
def _zhat_series(cfg, d, nblocks, shift):
    cap = cfg.cap
    return _moment_det(cfg, d, cap, lambda a: _h_shifted_entry(a, cap, nblocks, shift))


@_memoised
def _zhat_down_shifted_slice(cfg, d, nblocks, tblock):
    """Series at t - [z^{-1}] as a Laurent window over powers -d..0.

    Each Jacobi-Trudi entry turns into h_a - z^{-1} h_{a-1}, and the d x d
    determinant reaches down to z^{-d}: the window tau_ladder_step pairs.  The
    z^{-1} term sheds one unit of weight, so entries up to index cap + 1
    contribute below the cap.  Built once per run.
    """
    cap = cfg.cap
    return _moment_det(
        cfg, d, cap + 1,
        lambda a: LaurentSlice(-1, [-h_series(a - 1, cap, nblocks, tblock),
                                    h_series(a, cap, nblocks, tblock)]),
        lo=-d)


def _zhat_up_shifted_slice(cfg, d, min_power, nblocks=1, tblock=0):
    """Series at t + [z^{-1}] over the powers min_power..0 (power 0 alone
    at d = 0).

    Entries become sum_k h_{a-k} z^{-k}, so row i of the moment matrix is
    sum_k z^{-k} R_{i-k}, with R_r the unshifted row of offset r
    (_moment_row over h_0..h_cap).  Row i minus z^{-1} times row i - 1 is
    R_i, for every i >= 1, and these unimodular row operations leave the
    determinant unchanged: the coefficient of z^{-k} is
    det[R_{-k}; R_1; ..; R_{d-1}] = sum_j (-1)^j R_{-k}[j] C_j, with C_j
    the maximal minors of rows 1..d-1, computed once.  The window is
    unbounded below (every extra inverse power sheds one unit of weight),
    so only powers >= min_power are materialized; R_{-k} reads moments
    up to M_{cap+2d-2+k}.
    """
    if min_power > 0:
        raise ValueError("min_power must be <= 0")
    cap = cfg.cap
    h = [h_series(a, cap, nblocks, tblock) for a in range(cap + 1)]
    if d == 0:
        return LaurentSlice(0, h[:1])
    table = _coeff(cfg, d, cap + d - 1 - min_power)
    minors = maximal_minors((_moment_row(table, h, d, r) for r in range(1, d)), d)
    cofactors = [(-1 if j % 2 else 1, minors[tuple(c for c in range(d) if c != j)])
                 for j in range(d)]
    return LaurentSlice(min_power, [
        mul_sum([(s, x, c) for x, (s, c) in zip(_moment_row(table, h, d, -k), cofactors)])
        for k in range(-min_power, -1, -1)])


def _nu_coeff(cfg, d, k):
    """Coefficient at z-power k of the pairing measure at ladder index
    d >= 0: (-1)^d M_{j+d} / j! with j = d - 1 - k, so powers above d - 1
    vanish."""
    j = d - 1 - k
    if j < 0:
        return Fraction(0)
    sign = -1 if d % 2 else 1
    return sign * cfg.moment(j + d) / math.factorial(j)


def tau_ladder_step(cfg, d):
    """One rung: the formal residue, the z^-1 coefficient, of the vertex
    action X(t, z) Z_d(t) = e^{sum t_k z^k} Z_d(t - [1/z]) against the
    index-d measure nu_d(z).

    The prefactor is sum_i h_i z^i, so power q of the down-shifted series
    pairs with sum_i nu_d(-1 - q - i) h_i: d + 1 series products over the
    powers -d..0, with no Laurent product formed.
    """
    cap = cfg.cap
    shifted = _zhat_down_shifted_slice(cfg, d, 1, 0)
    h = [elementary_schur(i, cap) for i in range(cap + 1)]
    return mul_sum([(1, shifted.get(q), mul_sum([(1, hi, c) for i, hi in enumerate(h)
                                                  if (c := _nu_coeff(cfg, d, -1 - q - i))]))
                    for q in shifted.powers()])


@functools.lru_cache(maxsize=16)
def _hirota_prefactor(cap):
    """e^{sum (ttilde_j - t_j) z^j} = sum_k z^k sum_i h_i(ttilde) h_{k-i}(-t)
    over the powers 0..cap, block 0 = t and block 1 = ttilde; shared by
    every pair of one cap."""
    return LaurentSlice(0, [
        mul_sum([(1, elementary_schur(i, cap, 2, 1),
                  elementary_schur(k - i, cap, 2, 0).flip_signs()) for i in range(k + 1)])
        for k in range(cap + 1)])


def hirota_residual(cfg, d1, d2, corrupt_first=None):
    """Violations of the bilinear residue identity for the pair (d1, d2).

    Expands Z_{d1}(ttilde - [1/z]) Z_{d2+1}(t + [1/z])
    e^{sum (ttilde_j - t_j) z^j} z^{d1-d2-1}, both time blocks jointly
    truncated at the cap, and extracts the z^-1 coefficient.  Returns the
    list of nonzero monomials (expected empty).

    corrupt_first = (index, value) replaces one moment in the first factor
    only; a consistent replacement in every factor would produce another
    valid tau vector and leave the identity intact, so checker sensitivity
    must corrupt one side.
    """
    if not (d1 > d2 >= 0):
        raise ValueError("need d1 > d2 >= 0")
    if max(d1, d2 + 1) > cfg.dmax:
        raise ValueError("dmax exceeded")
    cap = cfg.cap
    cfg1 = cfg if corrupt_first is None else cfg.with_moment(*corrupt_first)
    # z^{d1-d2-1} shifts the residue to the coefficient at power d2 - d1;
    # with the prefactor contributing powers 0..cap and the first factor
    # powers -d1..0, the second factor is needed down to d2 - d1 - cap
    target = d2 - d1
    # block 0 = t, block 1 = ttilde
    A = _zhat_down_shifted_slice(cfg1, d1, 2, 1)
    B = _zhat_up_shifted_slice(cfg, d2 + 1, target - cap, nblocks=2, tblock=0)
    C = _hirota_prefactor(cap)
    AB = laurent_mul(A, B, keep=(max(A.lo + B.lo, target - cap), min(A.hi + B.hi, target)))
    res = laurent_mul(AB, C, keep=(target, target)).get(target)
    return sorted(res.terms.items())


def fay_residual(cfg, d, a, b, corrupt_first=None):
    """Residual series of the three-term shift identity at degree d:

        a Z_d(t+[a]) Z_{d-1}(t+[b]) - b Z_d(t+[b]) Z_{d-1}(t+[a])
          - (a-b) Z_d(t+[a]+[b]) Z_{d-1}(t)

    which is fay_det_residual at m = 2; corrupt_first perturbs one moment in
    the fully shifted factor Z_d(t+[a]+[b]) only.
    """
    return fay_det_residual(cfg, d, 2, [a, b], corrupt_lead=corrupt_first)


def fay_det_residual(cfg, d, m, a, corrupt_lead=None):
    """Residual of the determinant generalization, denominators cleared:

        det[a_k^{m-j} Z_{d+1-j}(t+[a_k])]
          - Delta_m(a) Z_d(t+[a_1]+...+[a_m]) prod_{j=2..m} Z_{d+1-j}(t)

    with Delta_m(a) = prod_{j<k} (a_j - a_k), for d >= max(1, m - 1)
    (Z_0 = 1); m = 2 is the three-term identity of fay_residual.  Exact over
    rationals: each shift [a_k] enters as [a_k u] with one weight-one symbol
    u, which is set to one afterwards, so the residual vanishes at every
    truncation order.

    corrupt_lead = (index, value) perturbs one moment in the fully shifted
    factor only, for checker sensitivity.
    """
    if not (m >= 1 and d >= max(1, m - 1)):
        raise ValueError("need m >= 1 and d >= max(1, m - 1)")
    a = [Fraction(x) for x in a]
    if len(a) != m:
        raise ValueError("need m shift values")
    if len(set(a)) != m:
        raise ValueError("shift values must be distinct")
    u = TruncatedSeries.variable(1, cfg.cap, block=1, nblocks=2)
    # entry (j, k) is (a_k u)^{m-j} Z_{d+1-j}(t + [a_k u]): row j's
    # u^{m-j} Z_{d+1-j}(t + [u]) with u -> a_k u
    rows = []
    for j in range(1, m + 1):
        z = zhat_series(cfg, d + 1 - j, 2, (1,)) * u ** (m - j)
        rows.append([z.scale_point(1, x) for x in a])
    # Delta_m(a_1 u, .., a_m u) = Delta_m(a) u^{m(m-1)/2}
    delta = math.prod(a[j] - a[k] for j in range(m) for k in range(j + 1, m))
    cfg_lead = cfg if corrupt_lead is None else cfg.with_moment(*corrupt_lead)
    rhs = zhat_series(cfg_lead, d, 2, a) * u ** (m * (m - 1) // 2)
    for j in range(2, m + 1):
        rhs = rhs * zhat_series(cfg, d + 1 - j, 2)
    return mul_sum([(1, det_series(rows), 1), (-1, rhs, delta)]).substitute_point(1, 1)
