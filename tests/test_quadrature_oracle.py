"""The batched adaptive quadrature against a per-panel reference loop, and
the Gauss-Kronrod rule it measures panels with.

`reference_integrate_pieces` is the panel-at-a-time form of the engine: one
integrand call on the 41 Kronrod nodes per panel measured, whose values,
times the (2, 41) rule matrix, give the Kronrod sum and the 20-point
Gauss-Legendre sum of the values at the Gauss nodes, and the panels of one
refinement round split one after another.  The batched engine must
reproduce its values and error estimates bit for bit, with the same number
of integrand evaluations, while calling the integrand once per refinement
round.
"""

import math

import numpy as np
import pytest

from extsource.matrix_model import DividedExpRow
from extsource.weights import (
    GaussianWeight, LaguerreWeight, IntervalSet, QuadResult, QuadratureError,
    deform_weight, domain_pieces, integrate_pieces, orthonormal_basis,
    _EvalCounter, _GAUSS_ORDER, _kronrod, _leggauss, _panels_to_split, _rule_matrix,
)

NODES, KRONROD, GAUSS_W = _kronrod(_GAUSS_ORDER)
POINTS = len(NODES)  # integrand evaluations per panel measured
RULE = _rule_matrix(_GAUSS_ORDER)


def _reference_panel(f, lo, hi, mult):
    """(Kronrod sum, Gauss sum) of one panel from one call on its nodes:
    the rule matrix times its values, then half-length times multiplier."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.asarray(f(mid + half * NODES))
    if vals.ndim == 1:
        vals = vals[:, None]
    return (RULE @ vals) * (half * mult)


def _round_split(errs, bad, thresh):
    """Panels one round splits: rank by the largest err/thresh over the
    failing components (a zero threshold ranks any error first), then take
    the fewest from the top whose errors leave the rest within thresh."""
    comps = [c for c in range(len(bad)) if bad[c]]

    def ratio(e, c):
        if e[c] <= 0.0:
            return 0.0
        return e[c] / thresh[c] if thresh[c] > 0.0 else math.inf

    score = [max(ratio(e, c) for c in comps) for e in errs]
    ranked = sorted(range(len(errs)), key=lambda i: (-score[i], i))
    # rest[k]: error on ranked[k:], accumulated from the least bad panel up
    rest = [None] * len(ranked)
    acc = np.zeros(len(bad))
    for k in range(len(ranked) - 1, -1, -1):
        acc = acc + errs[ranked[k]]
        rest[k] = acc
    k = next((k for k in range(len(ranked))
              if all(rest[k][c] <= thresh[c] for c in comps)), len(ranked))
    return sorted(ranked[:k])


def _one_panel_split(errs, bad, thresh):
    """The earlier rule: the one panel with the largest failing error."""
    contrib = [float(np.max(e[bad])) for e in errs]
    return [int(np.argmax(contrib))]


def reference_integrate_pieces(f, pieces, rel_tol=1e-12, abs_tol=0.0, max_panels=4000,
                               counter=None, rounds=None, rule=_round_split):
    """Panel-at-a-time adaptive quadrature; appends the number of panels
    split in each round to `rounds` when given."""
    panels = [(lo, hi, mult) for lo, hi, mult in pieces if mult != 0.0 and hi > lo]
    if not panels:
        return QuadResult(np.zeros(1), np.zeros(1))

    def measure(lo, hi, mult):
        k, g = _reference_panel(f, lo, hi, mult)
        if counter is not None:
            counter.n += POINTS
        return k, np.abs(k - g)

    vals, errs, live = [], [], []
    for lo, hi, mult in panels:
        v, e = measure(lo, hi, mult)
        vals.append(v)
        errs.append(e)
        live.append((lo, hi, mult))

    splits = 0
    while True:
        total = np.sum(vals, axis=0)
        toterr = np.sum(errs, axis=0)
        mass = np.sum(np.abs(vals), axis=0)
        scale = np.max(np.abs(total)) if len(total) else 0.0
        thresh = np.maximum(abs_tol, np.maximum(rel_tol * np.abs(total), 1e-3 * rel_tol * scale))
        thresh = np.maximum(thresh, np.maximum(1e-3 * rel_tol * mass, 1e-15 * mass))
        bad = toterr > thresh
        if not bad.any():
            return QuadResult(total, toterr)
        chosen = rule(errs, bad, thresh)
        splits += len(chosen)
        if splits > max_panels:
            break
        if any(not live[i][0] < 0.5 * (live[i][0] + live[i][1]) < live[i][1]
               for i in chosen):
            break
        right = []
        for i in chosen:
            lo, hi, mult = live[i]
            mid = 0.5 * (lo + hi)
            live[i] = (lo, mid, mult)
            vals[i], errs[i] = measure(lo, mid, mult)
            right.append((mid, hi, mult))
        for lo, hi, mult in right:
            v, e = measure(lo, hi, mult)
            live.append((lo, hi, mult))
            vals.append(v)
            errs.append(e)
        if rounds is not None:
            rounds.append(len(chosen))
    raise QuadratureError(f"no convergence after {len(live)} panels")


# -- the Gauss-Kronrod rule -------------------------------------------------

def test_kronrod_nodes_contain_the_gauss_nodes():
    gauss_nodes = _leggauss(_GAUSS_ORDER)[0]
    assert POINTS == 2 * _GAUSS_ORDER + 1
    assert np.all(np.diff(NODES) > 0)
    assert np.all(np.abs(NODES[1::2] - gauss_nodes) <= np.spacing(np.abs(gauss_nodes)))


def test_rule_matrix_holds_the_kronrod_and_gauss_weights():
    assert RULE.shape == (2, POINTS)
    assert RULE[0].tobytes() == KRONROD.tobytes()
    assert RULE[1, 1::2].tobytes() == GAUSS_W.tobytes()
    assert not RULE[1, 0::2].any()


def test_kronrod_weights_are_positive_and_sum_to_two():
    for w in (KRONROD, GAUSS_W):
        assert np.all(w > 0)
        assert abs(math.fsum(w.tolist()) - 2.0) <= 2 * np.spacing(2.0)


def test_kronrod_rule_is_exact_to_degree_3n_plus_1():
    # K41 integrates x^p exactly for p <= 61, and its Gauss part for p <= 39,
    # up to the rounding of the weights and nodes
    for p in range(3 * _GAUSS_ORDER + 2):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(math.fsum((KRONROD * NODES ** p).tolist()) - exact) <= 8e-16, p
        if p < 2 * _GAUSS_ORDER:
            got = math.fsum((GAUSS_W * NODES[1::2] ** p).tolist())
            assert abs(got - exact) <= 8e-16, p


# QUADPACK's qk21 (Piessens et al. 1983): the nonnegative nodes of the
# 21-point Kronrod extension of the 10-point Gauss rule, descending, and
# their weights
QK21_NODES = [
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
]
QK21_WEIGHTS = [
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067625710, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
]


def test_construction_reproduces_quadpack_qk21():
    nodes, weights, _ = _kronrod(10)
    assert np.max(np.abs(nodes[::-1][:11] - QK21_NODES)) <= 1e-15
    assert np.max(np.abs(weights[::-1][:11] - QK21_WEIGHTS)) <= 1e-15


GAUSS = GaussianWeight()
LAG = LaguerreWeight()


def _gauss_1d(x):
    return np.cos(3 * x) * np.exp(GAUSS.log_density(x))


def _peaked_1d(x):
    # a narrow Lorentzian: forces many splits around x = 0.3
    return 1.0 / (1e-4 + (x - 0.3) ** 2)


def _tilted_columns(x):
    cols = np.vander(x, 6, increasing=True)
    return np.exp(0.7 * x + LAG.log_density(x))[:, None] * cols


def _entry_integrand(weight, nodes, n):
    basis = orthonormal_basis(weight.undeformed(), n)
    row = DividedExpRow(nodes)

    def fv(x):
        logw = np.asarray(weight.log_density(x), dtype=float)
        return row.values_fused(x, logw)[:, None] * basis.eval_monic(x)
    return fv


def _one_piece_per_multiplier(pieces):
    """The domain pieces with neighbours of equal multiplier merged: the
    41-point rule meets the tolerance on the finer pieces at once, so these
    make the engine find the structure by splitting."""
    out = []
    for lo, hi, mult in pieces:
        if out and out[-1][1] == lo and out[-1][2] == mult:
            out[-1] = (out[-1][0], hi, mult)
        else:
            out.append((lo, hi, mult))
    return out


DEFORMED = deform_weight(GAUSS, IntervalSet([[-1, 1]]), 1.5)
HALF_LINE = deform_weight(LAG, [[1, "inf"]], 0.5)

CASES = {
    "1d-gaussian": (_gauss_1d, _one_piece_per_multiplier(domain_pieces(GAUSS, 0.0, 4)), {}),
    "1d-peaked": (_peaked_1d, [(-1.0, 2.0, 1.0)], {"rel_tol": 1e-13}),
    "k-laguerre-tilted": (_tilted_columns, domain_pieces(LAG, 0.7, 8), {}),
    "k-deformed-entry": (_entry_integrand(DEFORMED, (0.0, 0.9, 1.4), 12),
                         _one_piece_per_multiplier(domain_pieces(DEFORMED, 1.4, 19)),
                         {"rel_tol": 1e-13}),
    # at 1e-13 every round splits one panel; at 1e-14 one round splits two
    "k-half-line-mult": (_entry_integrand(HALF_LINE, (0.0, 0.3), 12),
                         _one_piece_per_multiplier(domain_pieces(HALF_LINE, 0.3, 18)),
                         {"rel_tol": 1e-14}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_engine_matches_reference_bitwise(name):
    f, pieces, kw = CASES[name]
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    got_n, want_n = _EvalCounter(), _EvalCounter()
    rounds = []
    got = integrate_pieces(counted, pieces, counter=got_n, **kw)
    want = reference_integrate_pieces(f, pieces, counter=want_n, rounds=rounds, **kw)
    assert got.value.tobytes() == want.value.tobytes()
    assert got.error.tobytes() == want.error.tobytes()
    assert got_n.n == want_n.n
    # one call per round: the initial panels, then both halves of every
    # panel split in the round
    initial = sum(1 for lo, hi, mult in pieces if mult != 0.0 and hi > lo)
    assert calls == [POINTS * initial] + [2 * POINTS * k for k in rounds]


@pytest.mark.parametrize("name", ["1d-gaussian", "1d-peaked", "k-deformed-entry",
                                  "k-half-line-mult"])
def test_rounds_make_fewer_calls_than_one_panel_refinement(name):
    f, pieces, kw = CASES[name]
    calls, one_panel = [], []

    def counted(x):
        calls.append(x.size)
        return f(x)

    integrate_pieces(counted, pieces, **kw)
    reference_integrate_pieces(f, pieces, rounds=one_panel, rule=_one_panel_split, **kw)
    assert all(k == 1 for k in one_panel)
    assert len(calls) < 1 + len(one_panel)


def test_cases_cover_splits_and_multipliers():
    mults = {m for _, pieces, _ in CASES.values() for _, _, m in pieces}
    assert {0.5, -0.5} <= mults
    counter = _EvalCounter()
    f, pieces, kw = CASES["1d-peaked"]
    integrate_pieces(f, pieces, counter=counter, **kw)
    assert counter.n // POINTS - len(pieces) >= 2 * 5  # at least five splits
    # the cases with multipliers split too
    for name in ("k-deformed-entry", "k-half-line-mult"):
        counter = _EvalCounter()
        f, pieces, kw = CASES[name]
        integrate_pieces(f, pieces, counter=counter, **kw)
        assert counter.n // POINTS > len(pieces), name


def test_empty_pieces_make_no_call():
    def never(x):
        raise AssertionError("integrand called")
    res = integrate_pieces(never, [(0.0, 1.0, 0.0), (2.0, 2.0, 1.0)])
    assert res.value.tolist() == [0.0] and res.error.tolist() == [0.0]


def test_round_splits_fewest_worst_panels():
    # one component: the worst panel alone leaves 3 <= 3
    assert _panels_to_split(np.array([[1.0], [5.0], [2.0]]), np.array([3.0])).tolist() == [1]
    # two failing components need one panel each; the mild third stays
    errs = np.array([[4.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    assert _panels_to_split(errs, np.array([2.0, 2.0])).tolist() == [0, 1]
    # a zero threshold splits every panel with error on that component
    errs = np.array([[0.0], [1e-300], [2.0], [0.0]])
    assert _panels_to_split(errs, np.array([0.0])).tolist() == [1, 2]


def test_cap_on_splits_raises():
    # Kronrod and Gauss sums never agree: +1 and -1 alternate at the nodes
    def never(x):
        return np.where(np.arange(x.size) % 2, 1.0, -1.0)

    splits = {}
    for cap in (0, 1, 7, 50):
        counter = _EvalCounter()
        with pytest.raises(QuadratureError):
            integrate_pieces(never, [(0.0, 1.0, 1.0), (1.0, 3.0, 1.0)],
                             max_panels=cap, counter=counter)
        splits[cap] = (counter.n - 2 * POINTS) // (2 * POINTS)
        assert splits[cap] <= cap
    assert splits[50] > 7
