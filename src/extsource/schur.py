"""Partitions, elementary Schur polynomials, Schur evaluation and determinant utilities."""

import functools
import math
from fractions import Fraction

from .series import TruncatedSeries


class NearConfluent(ValueError):
    """Evaluation points too close for a stable alternant / confluent ratio."""


CONFLUENT_GAP = 1e-8


class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def length(self):
        return len(self.parts)

    @property
    def weight(self):
        return sum(self.parts)

    def part(self, p):
        """kappa_p with 1-based index, zero beyond the length."""
        return self.parts[p - 1] if 1 <= p <= len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def _parts_desc(n, max_part, max_len):
    if n == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts_desc(n - first, first, max_len - 1):
            yield (first,) + rest


def partitions_iter(max_len, max_weight):
    """All partitions with length <= max_len and weight <= max_weight.

    Deterministic order: increasing weight, then parts in descending
    lexicographic order, e.g. weight 3 gives (3), (2,1), (1,1,1).
    """
    if max_len < 0 or max_weight < 0:
        raise ValueError("bounds must be >= 0")
    for w in range(max_weight + 1):
        for parts in _parts_desc(w, w, max_len):
            yield Partition(parts)


def h_series(j, cap, nblocks=1, block=0):
    """h_j truncated at the cap; identically zero for j < 0 and for j > cap
    (the least monomial weight of h_j is j)."""
    if j < 0 or j > cap:
        return TruncatedSeries.zero(cap, nblocks)
    return elementary_schur(j, cap, nblocks, block)


# a run asks for a few dozen distinct (j, cap, nblocks, block); the bound only
# keeps a long-lived process from growing the memo without limit
@functools.lru_cache(maxsize=256)
def elementary_schur(j, cap, nblocks=1, block=0):
    """h_j(t): coefficient of w^j in exp(sum_k t_k w^k); zero for j < 0.

    Memoised: callers share the returned series, which is immutable."""
    if j > cap:
        raise ValueError(f"h_{j} needs cap >= {j}, got {cap}")
    if j < 0:
        return TruncatedSeries.zero(cap, nblocks)
    terms = {}
    for mu in _parts_desc(j, j, j):
        mult = {}
        for p in mu:
            mult[p] = mult.get(p, 0) + 1
        exps = [0] * (max(mult) if mult else 0)
        denom = 1
        for p, m in mult.items():
            exps[p - 1] = m
            denom *= math.factorial(m)
        mono = tuple(tuple(exps) if b == block else () for b in range(nblocks))
        terms[mono] = Fraction(1, denom)
    return TruncatedSeries(cap, terms, nblocks)


def det_series(rows):
    """Determinant of a small matrix by cofactor expansion along the rows,
    with each minor computed once.  The entries may be TruncatedSeries or
    LaurentSlices (whose product is the full-support laurent_mul)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    memo = {}

    def expand(row, cols):
        if len(cols) == 1:
            return rows[row][cols[0]]
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = None
        sign = 1
        for idx, c in enumerate(cols):
            term = rows[row][c] * expand(row + 1, cols[:idx] + cols[idx + 1:])
            term = term if sign > 0 else -term
            acc = term if acc is None else acc + term
            sign = -sign
        memo[key] = acc
        return acc

    return expand(0, tuple(range(n)))


def schur_series(kappa, cap, nblocks=1, block=0):
    """s_kappa(t) by the Jacobi-Trudi determinant det[h_{kappa_p - p + q}]."""
    ell = kappa.length
    if ell == 0:
        return TruncatedSeries.one(cap, nblocks)
    rows = [[elementary_schur(kappa.part(p) - p + q, cap, nblocks, block)
             for q in range(1, ell + 1)] for p in range(1, ell + 1)]
    return det_series(rows)


def complete_homogeneous(k, values):
    """h_k of a list of scalars, by adding one variable at a time."""
    if k < 0:
        return 0
    h = [1] + [0] * k
    for v in values:
        for n in range(1, k + 1):
            h[n] = h[n] + v * h[n - 1]
    return h[k]


def _det_numeric(M):
    """Determinant by Gaussian elimination; exact for Fraction entries."""
    n = len(M)
    A = [list(row) for row in M]
    exact = all(not isinstance(x, float) for row in A for x in row)
    if exact:
        A = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1) if exact else 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            return det * 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = (Fraction(1) / A[col][col]) if exact else (1.0 / A[col][col])
        for r in range(col + 1, n):
            f = A[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
    return det


def _check_distinct(values, what):
    exact = all(not isinstance(v, float) for v in values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            gap = abs(values[i] - values[j])
            if gap == 0 or (not exact and gap < CONFLUENT_GAP):
                raise NearConfluent(f"{what} too close: {values[i]} vs {values[j]}")


def schur_poly(kappa, a, method="jacobi-trudi"):
    """Numeric Schur polynomial s_kappa(a_1..a_n).

    The Jacobi-Trudi determinant is the default (no distinctness needed);
    the alternant ratio det[a_j^{kappa_q+n-q}] / det[a_j^{n-q}] is kept as a
    cross-check and raises NearConfluent at (nearly) coincident points.
    """
    a = list(a)
    n = len(a)
    if method == "jacobi-trudi":
        ell = kappa.length
        if ell == 0:
            return 1 if all(not isinstance(x, float) for x in a) else 1.0
        H = [[complete_homogeneous(kappa.part(p) - p + q, a)
              for q in range(1, ell + 1)] for p in range(1, ell + 1)]
        return _det_numeric(H)
    if method == "alternant":
        if kappa.length > n:
            return 0
        _check_distinct(a, "alternant points")
        num = _det_numeric([[a[j] ** (kappa.part(q) + n - q) for q in range(1, n + 1)]
                            for j in range(n)])
        den = _det_numeric([[a[j] ** (n - q) for q in range(1, n + 1)]
                            for j in range(n)])
        return num / den
    raise ValueError(f"unknown method {method!r}")


def hciz_expansion_residual(a, lam, D):
    """Gap between det[e^{a_j lam_k}]/(Delta(a) Delta(lam)) and its truncated
    Schur expansion over partitions of weight <= D with at most d parts.

    No a-priori truncation bound is attempted; empirically the residual
    decays like the first omitted order, roughly
    (max_j |a_j| * max_k |lam_k| * d)^(D+1) / (D+1)!, so D should be chosen
    a few steps past max|a_j lam_k| * e * d for 1e-12 accuracy.
    """
    a = [float(x) for x in a]
    lam = [float(x) for x in lam]
    d = len(a)
    if len(lam) != d:
        raise ValueError("a and lam must have equal length")
    _check_distinct(a, "source points")
    _check_distinct(lam, "spectral points")
    E = [[math.exp(aj * lk) for lk in lam] for aj in a]
    delta_a = _vandermonde(a)
    delta_l = _vandermonde(lam)
    lhs = _det_numeric(E) / (delta_a * delta_l)
    rhs = 0.0
    for kappa in partitions_iter(d, D):
        denom = 1.0
        for q in range(1, d + 1):
            denom *= math.factorial(kappa.part(q) + d - q)
        rhs += float(schur_poly(kappa, lam)) * float(schur_poly(kappa, a)) / denom
    return abs(lhs - rhs)


def _vandermonde(x):
    """prod_{j<k} (x_k - x_j)."""
    out = 1
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            out *= x[k] - x[j]
    return out


def _minor(M, drop_rows, drop_cols):
    return [[M[i][j] for j in range(len(M)) if j not in drop_cols]
            for i in range(len(M)) if i not in drop_rows]


def dodgson_residual(M):
    """|det(M) det(inner) - (det top-left * det bottom-right - corners)|.

    Identically zero over the rationals (Desnanot-Jacobi); for float input it
    measures rounding only.
    """
    n = len(M)
    if n < 3:
        raise ValueError("need size >= 3")
    full = _det_numeric(M)
    inner = _det_numeric(_minor(M, {0, n - 1}, {0, n - 1}))
    tl = _det_numeric(_minor(M, {0}, {0}))          # rows/cols 2..n
    br = _det_numeric(_minor(M, {n - 1}, {n - 1}))  # rows/cols 1..n-1
    tr = _det_numeric(_minor(M, {0}, {n - 1}))
    bl = _det_numeric(_minor(M, {n - 1}, {0}))
    return abs(full * inner - (br * tl - tr * bl))
