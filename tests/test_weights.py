import math
import random
from pathlib import Path

import numpy as np
import pytest

from extsource import matrix_model, mc, weights
from extsource.harness import load_config, run
from extsource.weights import (
    IntervalSet, GaussianWeight, LaguerreWeight, ExpPolyWeight,
    deform_weight, weight_from_spec, orthonormal_basis, HankelNotPD, QuadratureError,
    integrate_pieces, domain_pieces,
)
from matrix_oracles import gamma_vector

GAUSS = GaussianWeight()
LAG = LaguerreWeight()
QUARTIC = ExpPolyWeight([0, 0, 0, 0, 0.25])  # V(x) = x^4/4
REPO = Path(__file__).resolve().parents[1]


def quad(W, f, tilt=0.0, deg=0, rel_tol=1e-13, abs_tol=0.0):
    """integral of f(x) W(x) dx through the program's quadrature: the pieces
    of domain_pieces (deformation factor included), integrate_pieces."""
    res = integrate_pieces(lambda x: f(x) * np.exp(W.log_density(x)),
                           domain_pieces(W, tilt, deg), rel_tol=rel_tol, abs_tol=abs_tol)
    return float(res.value[0])


def quad_moment(W, j):
    return quad(W, lambda x: x ** j, deg=j)


def test_interval_set_canonicalizes():
    E = IntervalSet([[2, 3], [1, 2.5], [5, "inf"]])
    assert E.intervals == ((1.0, 3.0), (5.0, math.inf))
    assert E.to_spec() == [[1.0, 3.0], [5.0, "inf"]]
    assert IntervalSet(E.to_spec()) == E


def test_interval_indicator():
    E = IntervalSet([[-1, 1]])
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert list(E.indicator(x)) == [False, True, True, True, False]
    # the scalar form agrees, on several intervals with infinite ends too
    x = np.array([-np.inf, -3.0, -2.0, 0.5, 1.0, 4.0, 5.0, np.inf, np.nan])
    for E in (E, IntervalSet([["-inf", -2], [1, 4], [5, "inf"]]), IntervalSet([])):
        assert [E.contains(float(v)) for v in x] == list(E.indicator(x))


def test_gaussian_exact_moments():
    assert [GAUSS.moment_exact(j) for j in range(5)] == [1, 0, 1, 0, 3]


def test_laguerre_exact_moments():
    assert LAG.moment_exact(3) == 6
    assert LAG.moment_exact(0) == 1


def test_deformed_full_line_kills_mass():
    W = deform_weight(GAUSS, IntervalSet([["-inf", "inf"]]), 1.0)
    assert abs(quad_moment(W, 0)) < 1e-12


def test_deform_s_zero_and_empty_E():
    W0 = deform_weight(GAUSS, IntervalSet([[0, 1]]), 0.0)
    # s = 0 keeps a DeformedWeight wrapper but integrates identically
    assert abs(quad_moment(W0, 2) - 1.0) < 1e-12
    We = deform_weight(GAUSS, IntervalSet(), 1.0)
    assert abs(quad_moment(We, 2) - 1.0) < 1e-12


def test_deformed_half_line():
    W = deform_weight(GAUSS, IntervalSet([[0, "inf"]]), 1.0)
    assert abs(quad_moment(W, 0) - 0.5) < 1e-12


def test_moment_linearity_in_s():
    rng = random.Random(2)
    E = IntervalSet([[0.5, 2.0]])
    ref = quad_moment(deform_weight(GAUSS, E, 1.0), 3)
    base = float(GAUSS.moment_exact(3))
    removed = base - ref
    for _ in range(3):
        s = rng.uniform(-1.5, 1.5)
        got = quad_moment(deform_weight(GAUSS, E, s), 3)
        assert abs(got - (base - s * removed)) < 1e-11


def test_exact_vs_quadrature_moments():
    for W in (GAUSS, LAG):
        for j in range(21):
            exact = float(W.moment_exact(j))
            # tolerance scales with the integrand mass (even-moment neighbor),
            # which is what limits float accuracy for the odd (zero) moments
            scale = max(1.0, float(W.moment_exact(j + (j % 2))))
            assert abs(quad_moment(W, j) - exact) <= 1e-9 * scale


def test_integrate_normalization_and_tilt():
    assert abs(quad(GAUSS, np.ones_like) - 1.0) < 1e-12
    # complete the square: E[e^x] = e^{1/2}
    assert abs(quad(GAUSS, np.exp, tilt=1.0) - math.exp(0.5)) < 1e-11
    half = quad(GAUSS, lambda x: (x >= 0).astype(float))
    assert abs(half - 0.5) < 1e-9


def test_integrate_rejects_impossible_tol():
    with pytest.raises(QuadratureError):
        # tilt 1 is not integrable against the Laguerre weight
        domain_pieces(LAG, tilt=1.0)


def test_weight_spec_builds_undeformed_weights():
    assert weight_from_spec({"kind": "gaussian"}) == GAUSS
    assert weight_from_spec({"kind": "laguerre"}) == LAG
    assert weight_from_spec({"kind": "exppoly", "coeffs": [0, 0, 0, 0, 0.25]}) == QUARTIC


def test_orthonormal_gaussian_low_degrees():
    B = orthonormal_basis(GAUSS, 4)
    x = np.linspace(-3.0, 3.0, 13)
    want = np.stack([np.ones_like(x), x, (x * x - 1) / math.sqrt(2),
                     (x ** 3 - 3 * x) / math.sqrt(6)], axis=1)
    assert np.max(np.abs(B.eval_all(x) - want)) < 1e-13
    assert np.allclose(B.lead, [1.0, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(6)], rtol=1e-14)


def test_orthonormal_laguerre_p1():
    B = orthonormal_basis(LAG, 3)
    # Gram-Schmidt on {1, x}: p1 = x - 1 up to sign; leading coeff positive
    x = np.linspace(0.0, 5.0, 11)
    assert np.max(np.abs(B.eval_all(x, 1)[:, 1] - (x - 1))) < 1e-12
    assert abs(B.alpha[0] - 1.0) < 1e-14 and abs(B.beta[1] - 1.0) < 1e-14


@pytest.mark.parametrize("n", [12, 16])
def test_closed_form_recurrences(n):
    # Hermite: alpha_j = 0, beta_j = j; Laguerre: alpha_j = 2j + 1, beta_j = j^2;
    # beta_0 is the mass, 1 for both
    j = np.arange(n)
    for W, alpha, beta in ((GAUSS, 0 * j, np.maximum(j, 1)),
                           (LAG, 2 * j + 1, np.maximum(j * j, 1))):
        B = orthonormal_basis(W, n)
        assert np.max(np.abs(B.alpha - alpha) / np.maximum(alpha, 1)) < 1e-14
        assert np.max(np.abs(B.beta / beta - 1)) < 1e-14


def test_orthonormal_rejects_zero_weight():
    dead = deform_weight(GAUSS, IntervalSet([["-inf", "inf"]]), 1.0)
    with pytest.raises(HankelNotPD):
        orthonormal_basis(dead, 3)


GRAM_WEIGHTS = {"gaussian": GAUSS, "laguerre": LAG, "quartic": QUARTIC, **{
    f"{base.kind}-{tag}-s{s}": deform_weight(base, IntervalSet(E), s)
    for s in (0.5, 1.0) for base in (GAUSS, LAG)
    for E, tag in (([[1, "inf"]], "right"), ([[-1, 1]], "mid"))}}


@pytest.mark.parametrize("W", list(GRAM_WEIGHTS.values()), ids=list(GRAM_WEIGHTS))
def test_gram_identity(W):
    n = 12
    B = orthonormal_basis(W, n)

    def fv(x):
        vals = B.eval_all(x)  # (npts, n)
        prods = vals[:, :, None] * vals[:, None, :]
        return prods.reshape(len(x), n * n) * np.exp(W.log_density(x))[:, None]

    pieces = domain_pieces(W, 0.0, 2 * n)
    res = integrate_pieces(fv, pieces, rel_tol=1e-13, abs_tol=1e-13)
    G = res.value.reshape(n, n)
    assert np.max(np.abs(G - np.eye(n))) < 1e-10


@pytest.mark.parametrize("base", [GAUSS, LAG], ids=["gaussian", "laguerre"])
@pytest.mark.parametrize("E", [[[1, "inf"]], [[-1, 1]]], ids=["right", "mid"])
def test_sign_changing_weight_not_pd(base, E):
    # s = 1.5 makes the weight negative on E; its moment matrix is not PD
    with pytest.raises(HankelNotPD, match="not PD"):
        orthonormal_basis(deform_weight(base, IntervalSet(E), 1.5), 12)


@pytest.mark.parametrize("W", [GAUSS, LAG, QUARTIC], ids=["gaussian", "laguerre", "quartic"])
def test_recurrence_pointwise(W):
    n = 8
    B = orthonormal_basis(W, n)
    lo = 0.0 if W is LAG else -4.0
    x = np.linspace(lo, 4.0, 41)
    vals = B.eval_all(x)
    for j in range(n - 1):
        lhs = x * vals[:, j]
        rhs = math.sqrt(B.beta[j + 1]) * vals[:, j + 1] + B.alpha[j] * vals[:, j]
        if j > 0:
            rhs = rhs + math.sqrt(B.beta[j]) * vals[:, j - 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gamma_closed_form_gaussian():
    for a in (0.3, 1.0, -0.7):
        gam = gamma_vector(GAUSS, a, 6)
        for j in range(5):
            expect = a ** j * math.exp(a * a / 2) / math.sqrt(math.factorial(j))
            assert abs(gam[j] - expect) < 1e-11 * max(1.0, abs(expect))


def test_gamma_closed_form_laguerre():
    # with positive leading coefficients, Gamma_j(a) = a^j / (1-a)^{j+1}
    for a in (0.3, 0.9, -0.5):
        gam = gamma_vector(LAG, a, 6)
        for j in range(5):
            expect = a ** j / (1 - a) ** (j + 1)
            assert abs(gam[j] - expect) < 1e-10 * max(1.0, abs(expect))


def test_gamma_at_zero_orthogonality():
    for W in (GAUSS, LAG):
        gam = gamma_vector(W, 0.0, 5)
        assert abs(gam[0] - 1.0) < 1e-12  # sqrt(M_0) = 1
        for j in range(1, 4):
            assert abs(gam[j]) < 1e-12


def test_gamma_rejects_divergent_tilt():
    with pytest.raises(QuadratureError):
        gamma_vector(LAG, 1.4, 4)


def test_engine_matches_mpmath_reference():
    # independent high-precision reference for the adaptive engine,
    # including an indicator deformation with interior endpoints
    import mpmath as mp
    W = deform_weight(LAG, IntervalSet([[1, 3]]), 0.5)
    got = quad(W, lambda x: np.exp(0.4 * x) * (x ** 3 - 2 * x), tilt=0.4, deg=3)
    with mp.workdps(30):
        f = lambda x: mp.exp(mp.mpf("0.4") * x) * (x ** 3 - 2 * x) * mp.exp(-x)
        ref = mp.quad(f, [0, 1]) + mp.mpf("0.5") * mp.quad(f, [1, 3]) \
            + mp.quad(f, [3, mp.inf])
    assert abs(got - float(ref)) < 1e-10 * abs(float(ref))


def test_engine_negative_deformation_factor():
    # s > 1 flips the sign of the weight on E; the engine is unaffected
    import mpmath as mp
    W = deform_weight(GAUSS, IntervalSet([[-1, 1]]), 1.5)
    got = quad_moment(W, 2)
    with mp.workdps(30):
        f = lambda x: x * x * mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
        ref = mp.quad(f, [-mp.inf, -1]) + mp.quad(f, [1, mp.inf]) \
            - mp.mpf("0.5") * mp.quad(f, [-1, 1])
    assert abs(got - float(ref)) < 1e-10


def test_deformed_basis_exists():
    # measure supported on [0, 1] still yields a PD Hankel matrix
    W = deform_weight(LAG, IntervalSet([[1, "inf"]]), 1.0)
    B = orthonormal_basis(W, 9)

    def fv(x):
        vals = B.eval_all(x)
        prods = vals[:, :, None] * vals[:, None, :]
        return prods.reshape(len(x), 81) * np.exp(W.log_density(x))[:, None]

    res = integrate_pieces(fv, domain_pieces(W, 0.0, 18), rel_tol=1e-13, abs_tol=1e-13)
    G = res.value.reshape(9, 9)
    assert np.max(np.abs(G - np.eye(9))) < 1e-9


def test_concurrent_basis_builds_agree():
    # a build holds no shared state: overlapping builds give the same basis
    import sys
    import threading
    W = deform_weight(GAUSS, IntervalSet([[1, "inf"]]), 0.5)
    x = np.linspace(-4.0, 4.0, 17)
    want = orthonormal_basis(W, 8).eval_all(x)
    got = []
    threads = [threading.Thread(target=lambda: got.append(orthonormal_basis(W, 8).eval_all(x)))
               for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(np.array_equal(v, want) for v in got)


def test_weight_spec_rejects_unknown_keys():
    from extsource.weights import UnknownField, weight_from_spec
    assert weight_from_spec({"kind": "exppoly", "coeffs": [0, 0, 1]}).kind == "exppoly"
    for spec, key in (({"kind": "gaussian", "sigma": 2.0}, "sigma"),
                      ({"kind": "laguerre", "coeffs": [1]}, "coeffs"),
                      ({"kind": "exppoly", "coeffs": [0, 0, 1], "scale": 2}, "scale"),
                      # a deformation is a suite's E and s, never the weight's
                      ({"kind": "laguerre", "E": [[1, "inf"]], "s": 0.5}, "E"),
                      ({"kind": "gaussian", "s": 0.5}, "s")):
        with pytest.raises(UnknownField) as exc:
            weight_from_spec(spec)
        assert exc.value.key == key


def one_point_cutoff(W, tilt, deg, side):
    """The tail cut search of domain_pieces as it was first written: one
    log_density call on a one-element array per ladder point visited."""
    lo, hi = W.support()
    if side > 0 and hi != math.inf:
        return hi
    if side < 0 and lo != -math.inf:
        return lo

    def logf(x):
        base = float(np.asarray(W.log_density(np.array([x]))).ravel()[0])
        return deg * math.log(max(abs(x), 1e-12)) + tilt * x + base

    x = side * 1.0
    best = logf(x)
    while True:
        xn = x * 2
        v = logf(xn)
        if v <= best or abs(xn) > 1e8:
            break
        x, best = xn, v
    cut = x
    while logf(cut) > best - weights.DOMAIN_DROP:
        cut *= 2
        if abs(cut) > 1e9:
            raise QuadratureError("tail cutoff search diverged (tilt too large?)")
    return cut


def _cutoff_outcome(search, *args):
    try:
        return search(*args)
    except QuadratureError as exc:
        return str(exc)


def test_ladder_cutoffs_match_one_point_search(monkeypatch, tmp_path):
    # every (weight, tilt, deg) that the quick config and the three benchmark
    # workloads ask for, from cold caches; the Monte Carlo draws do not
    # touch the quadrature, so they are stubbed out
    asked = set()
    ladder = weights._log_integrand_peak_and_cutoff

    def spy(W, tilt, deg, side):
        asked.add((W, tilt, deg, side))
        return ladder(W, tilt, deg, side)

    monkeypatch.setattr(weights, "_log_integrand_peak_and_cutoff", spy)
    monkeypatch.setattr(mc, "estimate_expectation",
                        lambda d, sources, E, s, N, seed:
                        [mc.McEstimate(0.5, 0.1, N, seed) for _ in sources])
    workloads = sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))
    assert len(workloads) == 3
    try:
        for k, config in enumerate(["quick"] + [str(p) for p in workloads]):
            matrix_model.clear_caches()
            run(load_config(config), str(tmp_path / str(k)))
    finally:
        matrix_model.clear_caches()
    assert len({(W, tilt, deg) for W, tilt, deg, _ in asked}) > 50
    for args in sorted(asked, key=repr):
        assert _cutoff_outcome(ladder, *args) == _cutoff_outcome(one_point_cutoff, *args), args
    # the divergent case raises from both searches alike
    args = (GAUSS, 1e10, 0, 1)
    assert _cutoff_outcome(ladder, *args) == _cutoff_outcome(one_point_cutoff, *args)
    # tilts large enough to move the peak, on both sides
    for W in (GAUSS, QUARTIC, deform_weight(GAUSS, [[-1, 1]], 0.5)):
        for tilt in (-60.0, 3.0, 60.0):
            for side in (-1, 1):
                assert ladder(W, tilt, 7, side) == one_point_cutoff(W, tilt, 7, side)


DEFORMATIONS = [([[1.5, "inf"]], 0.5), ([[0.5, 3]], 1.5), ([[-3, -0.5], [0.7, 1.2]], 1.0)]


@pytest.mark.parametrize("W", [GAUSS, LAG, QUARTIC], ids=lambda W: W.kind)
def test_deformations_keep_the_base_cutoffs(W):
    # the deformed weight adds E's inner endpoints as cuts and multiplies
    # the pieces inside E by 1 - s; its outer cutoffs are the base weight's
    for tilt, deg in ((0.0, 4), (0.9, 19)):
        plain = domain_pieces(W, tilt, deg)
        left, right = plain[0][0], plain[-1][1]
        assert all(mult == 1.0 for _, _, mult in plain)
        for E, s in DEFORMATIONS:
            E = IntervalSet(E)
            pieces = domain_pieces(deform_weight(W, E, s), tilt, deg)
            inner = {p for p in E.finite_endpoints() if left < p < right}
            cuts = [lo for lo, _, _ in pieces] + [pieces[-1][1]]
            assert cuts == sorted({lo for lo, _, _ in plain} | {right} | inner)
            for lo, hi, mult in pieces:
                inside = any(a <= lo and hi <= b for a, b in E.intervals)
                assert mult == (1.0 - s if inside else 1.0)
            assert any(mult != 1.0 for _, _, mult in pieces)


def test_one_fill_searches_each_cutoff_once(monkeypatch):
    asked, pieces = [], []
    search, layout = weights._log_integrand_peak_and_cutoff, weights.domain_pieces

    def counted_search(W, tilt, deg, side):
        asked.append((W.key(), tilt, deg, side))
        return search(W, tilt, deg, side)

    def counted_layout(W, tilt=0.0, deg=0):
        pieces.append(W.key())
        return layout(W, tilt, deg)

    def fill(bases, deformations):
        plan = mm.Plan()
        for W in bases:
            for E, s in deformations:
                model = mm.SourceModel(2, [(0.3, 1), (0.9, 1)], W)
                mm.plan_identity(plan, mm.ExpectationQuery(model, E, s))
        plan.fill()

    monkeypatch.setattr(weights, "_log_integrand_peak_and_cutoff", counted_search)
    monkeypatch.setattr(weights, "domain_pieces", counted_layout)
    monkeypatch.setattr(matrix_model, "domain_pieces", counted_layout)
    mm = matrix_model
    mm.clear_caches()
    try:
        fill((GAUSS, LAG, QUARTIC), DEFORMATIONS[:1])
        fill((GAUSS, LAG, QUARTIC), DEFORMATIONS[1:])
        # once per (base, tilt, deg, side) across both fills, though every
        # deformation asks
        info = search.cache_info()
        assert info.misses == info.currsize == len(set(asked))
        assert info.hits == len(asked) - len(set(asked)) > 0
        assert {key[0] for key in asked} == {GAUSS.key(), LAG.key(), QUARTIC.key()}
        assert len({W for W in pieces if W[0] == "deformed"}) == 9
        assert len(set(asked)) < len(pieces)
        # clear_caches empties the memo, so the next fill searches again
        first = set(asked)
        asked.clear()
        mm.clear_caches()
        assert search.cache_info().currsize == 0
        fill((GAUSS,), DEFORMATIONS)
        assert set(asked) == {key for key in first if key[0] == GAUSS.key()}
        assert search.cache_info().misses == len(set(asked))
    finally:
        mm.clear_caches()
    # outside a fill too, a repeated call searches nothing
    for _ in range(2):
        domain_pieces(deform_weight(GAUSS, [[-1, 1]], 0.5), 0.3, 7)
    assert search.cache_info()[:2] == (2, 2)  # (hits, misses)
