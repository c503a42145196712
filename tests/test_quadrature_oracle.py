"""The batched adaptive quadrature against a per-panel reference loop.

`reference_integrate_pieces` is the panel-at-a-time form of the engine: two
integrand calls (20 and 40 Gauss-Legendre points) per panel measured, and
the panels of one refinement round split one after another.  The batched
engine must reproduce its values and error estimates bit for bit, with the
same number of integrand evaluations, while calling the integrand once per
refinement round.
"""

import math

import numpy as np
import pytest

from extsource.matrix_model import DividedExpRow
from extsource.weights import (
    GaussianWeight, LaguerreWeight, IntervalSet, QuadResult, QuadratureError,
    deform_weight, domain_pieces, integrate_pieces, orthonormal_basis,
    _EvalCounter, _leggauss, _panels_to_split,
)


def _reference_panel_values(f, lo, hi, order):
    x0, w0 = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid + half * x0
    vals = np.asarray(f(x))
    if vals.ndim == 1:
        vals = vals[:, None]
    return half * (w0[:, None] * vals).sum(axis=0)


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
        c = _reference_panel_values(f, lo, hi, 20) * mult
        v = _reference_panel_values(f, lo, hi, 40) * mult
        if counter is not None:
            counter.n += 60
        return v, np.abs(v - c)

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


DEFORMED = deform_weight(GAUSS, IntervalSet([[-1, 1]]), 1.5)

CASES = {
    "1d-gaussian": (_gauss_1d, domain_pieces(GAUSS, 0.0, 4), {}),
    "1d-peaked": (_peaked_1d, [(-1.0, 2.0, 1.0)], {"rel_tol": 1e-13}),
    "k-laguerre-tilted": (_tilted_columns, domain_pieces(LAG, 0.7, 8), {}),
    "k-deformed-entry": (_entry_integrand(DEFORMED, (0.0, 0.9, 1.4), 12),
                         domain_pieces(DEFORMED, 1.4, 19), {"rel_tol": 1e-13}),
    "k-half-line-mult": (_entry_integrand(deform_weight(LAG, [[1, "inf"]], 0.5),
                                          (0.0, 0.3), 12),
                         domain_pieces(deform_weight(LAG, [[1, "inf"]], 0.5), 0.3, 18),
                         {"rel_tol": 1e-13}),
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
    assert calls == [60 * initial] + [120 * k for k in rounds]


@pytest.mark.parametrize("name", ["1d-peaked", "k-deformed-entry", "k-half-line-mult"])
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
    assert counter.n // 60 - len(pieces) >= 2 * 5  # at least five splits


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
    # coarse and fine sums never agree: +1 and -1 alternate at the nodes
    def never(x):
        return np.where(np.arange(x.size) % 2, 1.0, -1.0)

    splits = {}
    for cap in (0, 1, 7, 50):
        counter = _EvalCounter()
        with pytest.raises(QuadratureError):
            integrate_pieces(never, [(0.0, 1.0, 1.0), (1.0, 3.0, 1.0)],
                             max_panels=cap, counter=counter)
        splits[cap] = (counter.n - 2 * 60) // 120
        assert splits[cap] <= cap
    assert splits[50] > 7
