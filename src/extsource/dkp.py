"""Exact construction of the tau vector of partition-function series and the
machine checks of its identities: the vertex-operator ladder, the bilinear
residue identity, the three-term shift identity and its determinant
generalization.

Everything here is exact rational arithmetic.  Shift parameters enter as
weight-one symbol blocks so that every computation is homogeneous in the
joint grading; numeric shift values are substituted only at the very end.
Without that, truncation at a finite weight would contaminate low-order
coefficients and the residuals would not vanish identically.
"""

import functools
import math
from fractions import Fraction

from .series import TruncatedSeries, LaurentSlice, WindowError, laurent_mul
from .schur import (
    partitions_iter, elementary_schur, h_series, det_series, _det_numeric,
)


class TauConfig:
    """Exact-moment weight, truncation cap, ladder depth, and the constant
    convention (all d-dependent constants are one unless overridden)."""

    def __init__(self, weight, cap, dmax, chat_ratio=None, moments=None,
                 _extendable=None):
        if cap < 1 or dmax < 1:
            raise ValueError("cap and dmax must be >= 1")
        if moments is None and not weight.exact_moments:
            raise ValueError(f"{weight.kind} weight has no exact moments; "
                             "pass an explicit rational moment list")
        self.weight = weight
        self.cap = cap
        self.dmax = dmax
        self.chat_ratio = chat_ratio  # d -> Chat_d / Chat_{d+1}
        self._coeffs = {}  # _coeff memo, (kappa parts, d) -> value
        jmax = 2 * dmax + cap + 2
        if moments is None:
            self._moments = [Fraction(weight.moment_exact(j)) for j in range(jmax + 1)]
            self._extendable = True
        else:
            self._moments = [Fraction(m) for m in moments]
            if len(self._moments) < jmax + 1:
                raise ValueError(f"need moments up to index {jmax}")
            self._extendable = bool(_extendable) and weight.exact_moments

    def moment(self, j):
        # the shift expansions reach indices beyond the seeded range (the
        # inverse powers shed weight), so the table grows on demand
        while j >= len(self._moments):
            if not self._extendable:
                raise ValueError(f"moment index {j} beyond the supplied list")
            self._moments.append(Fraction(self.weight.moment_exact(len(self._moments))))
        return self._moments[j]

    def ratio(self, d):
        if self.chat_ratio is None:
            return Fraction(1)
        return Fraction(self.chat_ratio(d))

    def with_moment(self, j, value):
        """Copy with one moment replaced (checker sensitivity tests); indices
        beyond the copy keep following the clean weight."""
        self.moment(j)
        moms = list(self._moments)
        moms[j] = Fraction(value)
        return TauConfig(self.weight, self.cap, self.dmax, self.chat_ratio,
                         moments=moms, _extendable=self._extendable)


def _coeff(cfg, kappa, d):
    """det[M_{kappa_p + d - p + q - 1}] / prod_q (kappa_q + d - q)!  (exact),
    memoised on cfg (a with_moment copy starts with an empty memo)."""
    key = (kappa.parts, d)
    if key in cfg._coeffs:
        return cfg._coeffs[key]
    M = [[cfg.moment(kappa.part(p) + d - p + q - 1) for q in range(1, d + 1)]
         for p in range(1, d + 1)]
    det = _det_numeric(M)
    denom = 1
    for q in range(1, d + 1):
        denom *= math.factorial(kappa.part(q) + d - q)
    out = cfg._coeffs[key] = Fraction(det, denom)
    return out


@functools.lru_cache(maxsize=1024)
def _h_shifted_entry(a, cap, nblocks, tblock, shift_blocks):
    """h_a(t + [s_1] + ... + [s_k]) with the s_i as weight-one symbols.

    shift_blocks is a tuple.  Memoised: callers share the returned series,
    which is immutable."""
    if a < 0:
        return TruncatedSeries.zero(cap, nblocks)
    if not shift_blocks:
        return elementary_schur(a, cap, nblocks, tblock)
    first, rest = shift_blocks[0], shift_blocks[1:]
    out = TruncatedSeries.zero(cap, nblocks)
    s = TruncatedSeries.variable(1, cap, block=first, nblocks=nblocks)
    spow = TruncatedSeries.one(cap, nblocks)
    for i in range(a + 1):
        out = out + _h_shifted_entry(a - i, cap, nblocks, tblock, rest) * spow
        if i < a:
            spow = spow * s
            if spow.is_zero():
                break
    return out


def zhat_series(cfg, d, nblocks=1, tblock=0, shift_blocks=()):
    """The degree-d series of the tau vector, truncated at the cap.

    With shift blocks, returns the series at t + [s_1] + ... + [s_k] where
    the s_i are weight-one symbol variables of the given blocks.
    """
    if d < 0 or d > cfg.dmax:
        raise ValueError(f"d must be within 0..{cfg.dmax}")
    cap = cfg.cap
    if d == 0:
        return TruncatedSeries.one(cap, nblocks)
    out = TruncatedSeries.zero(cap, nblocks)
    for kappa in partitions_iter(d, cap):
        c = _coeff(cfg, kappa, d)
        if c == 0:
            continue
        ell = kappa.length
        if ell == 0:
            skappa = TruncatedSeries.one(cap, nblocks)
        else:
            rows = [[_h_shifted_entry(kappa.part(p) - p + q, cap, nblocks,
                                      tblock, tuple(shift_blocks))
                     for q in range(1, ell + 1)] for p in range(1, ell + 1)]
            skappa = det_series(rows)
        out = out + skappa * c
    return out


def _zhat_down_shifted_slice(cfg, d, nblocks=1, tblock=0):
    """Series at t - [z^{-1}] as a Laurent window over powers -d..0.

    Each Jacobi-Trudi row turns into h_a - z^{-1} h_{a-1}; expanding over the
    subset of rows taking the shifted term gives the power -|subset|.  A
    shifted row sheds one unit of weight, so partitions up to weight
    cap + d still contribute below the cap.
    """
    cap = cfg.cap
    zero = TruncatedSeries.zero(cap, nblocks)
    acc = [zero for _ in range(d + 1)]  # index i <-> power -d + i
    if d == 0:
        return LaurentSlice(0, [TruncatedSeries.one(cap, nblocks)])
    for kappa in partitions_iter(d, cap + d):
        c = _coeff(cfg, kappa, d)
        if c == 0:
            continue
        ell = kappa.length
        if ell == 0:
            acc[d] = acc[d] + TruncatedSeries.one(cap, nblocks) * c
            continue
        for mask in range(1 << ell):
            bits = bin(mask).count("1")
            if kappa.weight - bits > cap:
                continue
            rows = []
            for p in range(1, ell + 1):
                drop = (mask >> (p - 1)) & 1
                rows.append([h_series(kappa.part(p) - p + q - drop,
                                      cap, nblocks, tblock)
                             for q in range(1, ell + 1)])
            det = det_series(rows)
            sign = -1 if bits % 2 else 1
            acc[d - bits] = acc[d - bits] + det * (c * sign)
    return LaurentSlice(-d, acc)


def _zhat_up_shifted_slice(cfg, d, min_power, nblocks=1, tblock=0):
    """Series at t + [z^{-1}]: rows become sum_i h_{a-i} z^{-i}.

    The window is unbounded below (every extra inverse power sheds one unit
    of weight), so only powers >= min_power are materialized; partitions up
    to weight cap + |min_power| contribute there.
    """
    cap = cfg.cap
    if min_power > 0:
        raise ValueError("min_power must be <= 0")
    if d == 0:
        return LaurentSlice(0, [TruncatedSeries.one(cap, nblocks)])
    total = None
    for kappa in partitions_iter(d, cap - min_power):
        c = _coeff(cfg, kappa, d)
        if c == 0:
            continue
        ell = kappa.length
        if ell == 0:
            term = LaurentSlice(0, [TruncatedSeries.one(cap, nblocks) * c])
        else:
            rows = []
            for p in range(1, ell + 1):
                row = []
                for q in range(1, ell + 1):
                    a = kappa.part(p) - p + q
                    if a < 0:
                        row.append(LaurentSlice(0, [TruncatedSeries.zero(cap, nblocks)]))
                    else:
                        coeffs = [h_series(a - i, cap, nblocks, tblock)
                                  for i in range(a, -1, -1)]  # powers -a..0
                        row.append(LaurentSlice(-a, coeffs))
                rows.append(row)
            term = det_series(rows).scaled(c)
        if term.lo < min_power:
            term = LaurentSlice(min_power, term.coeffs[min_power - term.lo:])
        total = term if total is None else total + term
    return total


class NuMeasure:
    """Coefficient data of the pairing measure at ladder index d.

    The coefficient at z-power k is (-1)^d (Chat_d/Chat_{d+1}) M_{j+d} / j!
    with j = d - 1 - k, so powers above d - 1 vanish; negative indices mirror
    to nu_{-d-1}.
    """

    def __init__(self, cfg, d):
        self.cfg = cfg
        self.d = d if d >= 0 else -d - 1

    def coeff(self, k):
        d = self.d
        j = d - 1 - k
        if j < 0:
            return Fraction(0)
        sign = -1 if d % 2 else 1
        return sign * self.cfg.ratio(d) * self.cfg.moment(j + d) / math.factorial(j)

    def window(self, lo, hi):
        return LaurentSlice(lo, [self.coeff(k) for k in range(lo, hi + 1)])


def vertex_apply(cfg, d, zwindow=None):
    """X(t, z) applied to the degree-d series, as a Laurent window.

    The result is exp(sum t_k z^k) times the down-shifted series; its full
    support at the cap is [-d, cap] (the shift contributes at most one
    inverse power per Jacobi-Trudi row, the prefactor at most weight-many
    positive powers).
    """
    cap = cfg.cap
    shifted = _zhat_down_shifted_slice(cfg, d)
    pre = LaurentSlice(0, [elementary_schur(k, cap) for k in range(cap + 1)])
    X = laurent_mul(pre, shifted)  # full support [-d, cap]
    if zwindow is None:
        return X
    lo, hi = zwindow
    if lo > -d or hi < cap:
        # a narrower window would silently lose pairing terms downstream
        raise WindowError(f"zwindow {zwindow} does not cover the support [{-d}, {cap}]")
    zero = TruncatedSeries.zero(cap)
    coeffs = ([zero] * (-d - lo)) + list(X.coeffs) + ([zero] * (hi - cap))
    return LaurentSlice(lo, coeffs)


def nu_pair(cfg, d, X):
    """Formal residue of X against the index-d measure: the z^-1 coefficient
    of X(z) nu_d(z), summed exactly.  X must carry all powers >= -d."""
    if X.lo > -d:
        raise WindowError(f"window [{X.lo}, {X.hi}] misses powers down to {-d}")
    nu = NuMeasure(cfg, d)
    out = None
    for p in X.powers():
        c = nu.coeff(-1 - p)
        if c == 0:
            continue
        term = X.get(p) * c
        out = term if out is None else out + term
    if out is None:
        out = TruncatedSeries.zero(cfg.cap)
    return out


def tau_ladder_step(cfg, d):
    """One rung: pair the vertex action on degree d with the measure."""
    return nu_pair(cfg, d, vertex_apply(cfg, d))


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
    A = _zhat_down_shifted_slice(cfg1, d1, nblocks=2, tblock=1)
    B = _zhat_up_shifted_slice(cfg, d2 + 1, target - cap, nblocks=2, tblock=0)
    pre = []
    for k in range(cap + 1):
        acc = TruncatedSeries.zero(cap, 2)
        for i in range(k + 1):
            hi_tilde = elementary_schur(i, cap, 2, 1)
            hj_neg = elementary_schur(k - i, cap, 2, 0).flip_signs()
            acc = acc + hi_tilde * hj_neg
        pre.append(acc)
    C = LaurentSlice(0, pre)
    AB = laurent_mul(A, B, keep=(max(A.lo + B.lo, target - cap), min(A.hi + B.hi, target)))
    res = laurent_mul(AB, C, keep=(target, target)).get(target)
    return sorted(res.terms.items())


def fay_residual(cfg, d, a, b, corrupt_first=None):
    """Residual series of the three-term shift identity at degree d:

        a Z_d(t+[a]) Z_{d-1}(t+[b]) - b Z_d(t+[b]) Z_{d-1}(t+[a])
          - (a-b) Z_d(t+[a]+[b]) Z_{d-1}(t)

    computed with a, b as graded symbols and evaluated at the given rationals
    afterwards.  Identically zero at every truncation order.

    corrupt_first = (index, value) perturbs one moment in the first product
    term only (a consistent perturbation everywhere would leave the identity
    intact).
    """
    if not (1 <= d <= cfg.dmax):
        raise ValueError("need 1 <= d <= dmax")
    cap = cfg.cap
    cfg1 = cfg if corrupt_first is None else cfg.with_moment(*corrupt_first)
    nb = 3  # t, a, b
    sa = TruncatedSeries.variable(1, cap, block=1, nblocks=nb)
    sb = TruncatedSeries.variable(1, cap, block=2, nblocks=nb)
    Fa = zhat_series(cfg1, d, nb, 0, (1,))
    Fb = zhat_series(cfg, d, nb, 0, (2,))
    Fab = zhat_series(cfg, d, nb, 0, (1, 2))
    Ga = zhat_series(cfg, d - 1, nb, 0, (1,))
    Gb = zhat_series(cfg, d - 1, nb, 0, (2,))
    G0 = zhat_series(cfg, d - 1, nb)
    res = sa * Fa * Gb - sb * Fb * Ga - (sa - sb) * Fab * G0
    return res.substitute_point(2, Fraction(b)).substitute_point(1, Fraction(a))


def fay_det_residual(cfg, d, m, a, corrupt_lead=None):
    """Residual of the determinant generalization, denominators cleared:

        det[a_k^{m-j} Z_{d+1-j}(t+[a_k])]
          - Delta_m(a) Z_d(t+[a_1]+...+[a_m]) prod_{j=2..m} Z_{d+1-j}(t)

    with Delta_m(a) = prod_{j<k} (a_j - a_k); reduces to fay_residual at
    m = 2.  Exact over rationals; shift values enter as graded symbols.

    corrupt_lead = (index, value) perturbs one moment in the fully shifted
    factor only, for checker sensitivity.
    """
    if not (d >= m >= 1):
        raise ValueError("need d >= m >= 1")
    a = [Fraction(x) for x in a]
    if len(a) != m:
        raise ValueError("need m shift values")
    if len(set(a)) != m:
        raise ValueError("shift values must be distinct")
    cap = cfg.cap
    nb = m + 1
    syms = [TruncatedSeries.variable(1, cap, block=k + 1, nblocks=nb) for k in range(m)]
    rows = []
    for j in range(1, m + 1):
        row = []
        for k in range(m):
            zk = zhat_series(cfg, d + 1 - j, nb, 0, (k + 1,))
            row.append(zk * syms[k] ** (m - j))
        rows.append(row)
    det = det_series(rows)
    delta = TruncatedSeries.one(cap, nb)
    for j in range(m):
        for k in range(j + 1, m):
            delta = delta * (syms[j] - syms[k])
    cfg_lead = cfg if corrupt_lead is None else cfg.with_moment(*corrupt_lead)
    lead = zhat_series(cfg_lead, d, nb, 0, tuple(range(1, m + 1)))
    prod_plain = TruncatedSeries.one(cap, nb)
    for j in range(2, m + 1):
        prod_plain = prod_plain * zhat_series(cfg, d + 1 - j, nb)
    res = det - delta * lead * prod_plain
    for k in range(m - 1, -1, -1):
        res = res.substitute_point(k + 1, a[k])
    return res
