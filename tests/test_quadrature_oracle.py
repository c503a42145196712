"""The batched adaptive quadrature against a per-panel reference loop.

`reference_integrate_pieces` is the panel-at-a-time form of the engine: two
integrand calls (20 and 40 Gauss-Legendre points) per panel measured.  The
batched engine must reproduce its values and error estimates bit for bit,
with the same number of integrand evaluations, while calling the integrand
once per refinement step.
"""

import numpy as np
import pytest

from extsource.matrix_model import DividedExpRow
from extsource.weights import (
    GaussianWeight, LaguerreWeight, IntervalSet, QuadResult, QuadratureError,
    deform_weight, domain_pieces, integrate_pieces, orthonormal_basis,
    _EvalCounter, _leggauss,
)


def _reference_panel_values(f, lo, hi, order):
    x0, w0 = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid + half * x0
    vals = np.asarray(f(x))
    if vals.ndim == 1:
        vals = vals[:, None]
    return half * (w0[:, None] * vals).sum(axis=0)


def reference_integrate_pieces(f, pieces, rel_tol=1e-12, abs_tol=0.0,
                               max_panels=4000, counter=None):
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

    for _ in range(max_panels):
        total = np.sum(vals, axis=0)
        toterr = np.sum(errs, axis=0)
        mass = np.sum(np.abs(vals), axis=0)
        scale = np.max(np.abs(total)) if len(total) else 0.0
        thresh = np.maximum(abs_tol, np.maximum(rel_tol * np.abs(total), 1e-3 * rel_tol * scale))
        thresh = np.maximum(thresh, np.maximum(1e-3 * rel_tol * mass, 1e-15 * mass))
        bad = toterr > thresh
        if not bad.any():
            return QuadResult(total, toterr)
        contrib = [float(np.max(e[bad])) for e in errs]
        i = int(np.argmax(contrib))
        lo, hi, mult = live[i]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        vL, eL = measure(lo, mid, mult)
        vR, eR = measure(mid, hi, mult)
        live[i] = (lo, mid, mult)
        vals[i], errs[i] = vL, eL
        live.append((mid, hi, mult))
        vals.append(vR)
        errs.append(eR)
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
    got = integrate_pieces(counted, pieces, counter=got_n, **kw)
    want = reference_integrate_pieces(f, pieces, counter=want_n, **kw)
    assert got.value.tobytes() == want.value.tobytes()
    assert got.error.tobytes() == want.error.tobytes()
    assert got_n.n == want_n.n
    initial = sum(1 for lo, hi, mult in pieces if mult != 0.0 and hi > lo)
    splits = (got_n.n // 60 - initial) // 2
    assert got_n.n == 60 * (initial + 2 * splits)
    assert len(calls) == 1 + splits
    assert calls[0] == 60 * initial and all(c == 120 for c in calls[1:])


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
