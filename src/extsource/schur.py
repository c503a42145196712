"""The elementary Schur polynomials h_j, and determinants and maximal minors
of series and Laurent windows."""

import functools
import itertools

from .series import TruncatedSeries, LaurentSlice, laurent_mul_sum, mul_sum


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

    The w-derivative gives j h_j = sum_{k=1..j} k t_k h_{j-k} (Macdonald,
    Symmetric Functions, I.2), one fused sum over the memoised lower h.
    Callers share the returned series, which is immutable."""
    if j > cap:
        raise ValueError(f"h_{j} needs cap >= {j}, got {cap}")
    if j < 0:
        return TruncatedSeries.zero(cap, nblocks)
    if j == 0:
        return TruncatedSeries.one(cap, nblocks)
    return mul_sum([(k, TruncatedSeries.variable(k, cap, block, nblocks),
                     elementary_schur(j - k, cap, nblocks, block))
                    for k in range(1, j + 1)]) / j


def maximal_minors(rows, n, lo=None):
    """Every maximal minor of a k x n matrix, k <= n, keyed by its column
    tuple in increasing order ({(): 1} for k = 0), by Laplace expansion one
    row at a time: the minors on the first k + 1 rows come from those on the
    first k, so each minor is computed once, and only two levels of minors
    and one row are held at a time (rows may be a generator).  The entries
    may be TruncatedSeries or exact scalars, or LaurentSlices of them; each
    minor is one cofactor sum, fused by series.mul_sum (series.laurent_mul_sum
    power by power for LaurentSlices).  A row of other than n entries, or
    more than n rows, raises ValueError.

    With lo, every Laurent minor keeps only its powers >= lo.  When no
    entry carries a positive power, a product never raises a power, so the
    powers >= lo of every minor are exact; without the trim a minor of
    size k carries powers down to k times the entries' lowest.
    """
    rows = iter(rows)
    minors = {(): 1}
    fused = mul_sum
    for k, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"matrix row {k} has {len(row)} entries, row 0 has {n}")
        if k == n:
            raise ValueError(f"a maximal minor needs at most {n} rows, "
                             f"got {n + 1 + sum(1 for _ in rows)} rows of {n} entries")
        if k == 0:
            if isinstance(row[0], LaurentSlice):
                def fused(terms):
                    return laurent_mul_sum(terms, lo)
            minors = {(c,): x for c, x in enumerate(row)}
            continue
        # the minor on the first k + 1 rows and columns cols, expanded along
        # its last row
        minors = {cols: fused([(-1 if (k + idx) % 2 else 1, row[c],
                                minors[cols[:idx] + cols[idx + 1:]])
                               for idx, c in enumerate(cols)])
                  for cols in itertools.combinations(range(n), k + 1)}
    return minors


def det_series(rows, lo=None):
    """Determinant of a small square matrix: its one maximal minor, with
    the entries and lo of maximal_minors.  A matrix that is not square
    raises ValueError."""
    rows = iter(rows)
    first = next(rows, None)
    if not first:
        raise ValueError("empty matrix")
    n = len(first)
    minors = maximal_minors(itertools.chain([first], rows), n, lo)
    det = minors.get(tuple(range(n)))
    if det is None:
        raise ValueError(f"det_series needs a square matrix, got "
                         f"{len(next(iter(minors)))} rows of {n} entries")
    return det
