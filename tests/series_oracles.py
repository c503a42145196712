"""Reference implementations that only the tests use.

The product and sum here are the original per-pair kernel of
`TruncatedSeries`: they weigh every monomial pair from scratch and build
their result through the validating public constructor.  The graded kernel
in `extsource.series` must agree with them structurally.  The remaining
helpers are independent routes to quantities the package computes another
way.
"""

from fractions import Fraction

from extsource.dkp import zhat_series
from extsource.schur import elementary_schur
from extsource.series import TruncatedSeries, LaurentSlice, _exact


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
    Fa = zhat_series(first_cfg, d, nb, 0, (1,))
    Fb = zhat_series(cfg, d, nb, 0, (2,))
    Fab = zhat_series(cfg, d, nb, 0, (1, 2))
    Ga = zhat_series(cfg, d - 1, nb, 0, (1,))
    Gb = zhat_series(cfg, d - 1, nb, 0, (2,))
    G0 = zhat_series(cfg, d - 1, nb)
    res = sa * Fa * Gb - sb * Fb * Ga - (sa - sb) * Fab * G0
    return res.substitute_point(2, Fraction(b)).substitute_point(1, Fraction(a))
