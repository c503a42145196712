"""Partitions, the elementary Schur polynomials h_j, and determinants of
series, Laurent windows and exact rational matrices."""

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
