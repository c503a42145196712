"""Reference implementations that only the tests use.

The product and sum here are the original per-pair kernel of
`TruncatedSeries`: they weigh every monomial pair from scratch and build
their result through the validating public constructor.  The graded kernel
in `extsource.series` must agree with them structurally.  The remaining
helpers are independent routes to quantities the package computes another
way.
"""

from extsource.schur import elementary_schur
from extsource.series import TruncatedSeries, LaurentSlice


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
    """Product truncated at min(cap_f, cap_g), pair by pair."""
    assert f.nblocks == g.nblocks
    cap = min(f.cap, g.cap)
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            if _weight(m1) + _weight(m2) > cap:
                continue
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(cap, out, f.nblocks)


def reference_add(f, g, sign=1):
    """f + sign * g truncated at min(cap_f, cap_g)."""
    assert f.nblocks == g.nblocks
    out = dict(f.terms)
    for m, c in g.terms.items():
        out[m] = out.get(m, 0) + sign * c
    return TruncatedSeries(min(f.cap, g.cap), out, f.nblocks)


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
