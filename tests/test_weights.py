import math
import random

import numpy as np
import pytest

from extsource.weights import (
    IntervalSet, GaussianWeight, LaguerreWeight, ExpPolyWeight,
    deform_weight, weight_from_spec, moment, MomentTable, integrate,
    orthonormal_basis, HankelNotPD, QuadratureError,
    integrate_pieces, domain_pieces,
)
from extsource.matrix_model import _gamma_vector

GAUSS = GaussianWeight()
LAG = LaguerreWeight()
QUARTIC = ExpPolyWeight([0, 0, 0, 0, 0.25])  # V(x) = x^4/4


def test_interval_set_canonicalizes():
    E = IntervalSet([[2, 3], [1, 2.5], [5, "inf"]])
    assert E.intervals == ((1.0, 3.0), (5.0, math.inf))
    assert E.to_spec() == [[1.0, 3.0], [5.0, "inf"]]
    assert IntervalSet.from_spec(E.to_spec()) == E


def test_interval_indicator():
    E = IntervalSet([[-1, 1]])
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert list(E.indicator(x)) == [False, True, True, True, False]


def test_gaussian_exact_moments():
    assert [moment(GAUSS, j) for j in range(5)] == [1, 0, 1, 0, 3]


def test_laguerre_exact_moments():
    assert moment(LAG, 3) == 6
    assert moment(LAG, 0) == 1


def test_deformed_full_line_kills_mass():
    W = deform_weight(GAUSS, IntervalSet([["-inf", "inf"]]), 1.0)
    assert abs(moment(W, 0)) < 1e-12


def test_deform_s_zero_and_empty_E():
    W0 = deform_weight(GAUSS, IntervalSet([[0, 1]]), 0.0)
    # s = 0 keeps a DeformedWeight wrapper but integrates identically
    assert abs(moment(W0, 2) - 1.0) < 1e-12
    We = deform_weight(GAUSS, IntervalSet(), 1.0)
    assert abs(moment(We, 2) - 1.0) < 1e-12


def test_deformed_half_line():
    W = deform_weight(GAUSS, IntervalSet([[0, "inf"]]), 1.0)
    assert abs(moment(W, 0) - 0.5) < 1e-12


def test_moment_linearity_in_s():
    rng = random.Random(2)
    E = IntervalSet([[0.5, 2.0]])
    ref = moment(deform_weight(GAUSS, E, 1.0), 3)
    base = float(moment(GAUSS, 3))
    removed = base - ref
    for _ in range(3):
        s = rng.uniform(-1.5, 1.5)
        got = moment(deform_weight(GAUSS, E, s), 3)
        assert abs(got - (base - s * removed)) < 1e-11


def test_exact_vs_quadrature_moments():
    for W in (GAUSS, LAG):
        for j in range(21):
            exact = float(moment(W, j))
            # tolerance scales with the integrand mass (even-moment neighbor),
            # which is what limits float accuracy for the odd (zero) moments
            scale = max(1.0, float(moment(W, j + (j % 2))))
            quad = integrate(W, lambda x, j=j: x ** j if j else np.ones_like(x),
                             tol=1e-9 * scale)
            assert abs(quad.value - exact) <= 1e-9 * scale


def test_integrate_normalization_and_tilt():
    assert abs(integrate(GAUSS, lambda x: np.ones_like(x)).value - 1.0) < 1e-12
    # complete the square: E[e^x] = e^{1/2}
    v = integrate(GAUSS, lambda x: np.exp(x)).value
    assert abs(v - math.exp(0.5)) < 1e-11
    half = integrate(GAUSS, lambda x: (x >= 0).astype(float)).value
    assert abs(half - 0.5) < 1e-9


def test_integrate_rejects_impossible_tol():
    with pytest.raises(QuadratureError):
        # tilt 1 is not integrable against the Laguerre weight
        domain_pieces(LAG, tilt=1.0)


def test_weight_spec_roundtrip():
    W = deform_weight(LAG, IntervalSet([[1, "inf"]]), 0.5)
    spec = W.to_spec()
    W2 = weight_from_spec(spec)
    assert W2 == W
    assert weight_from_spec({"kind": "gaussian"}) == GAUSS


def test_moment_table():
    T = MomentTable(GAUSS, 6)
    assert T[6] == 15
    assert T.jmax == 6


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
        gam = _gamma_vector(GAUSS, a, 6)
        for j in range(5):
            expect = a ** j * math.exp(a * a / 2) / math.sqrt(math.factorial(j))
            assert abs(gam[j] - expect) < 1e-11 * max(1.0, abs(expect))


def test_gamma_closed_form_laguerre():
    # with positive leading coefficients, Gamma_j(a) = a^j / (1-a)^{j+1}
    for a in (0.3, 0.9, -0.5):
        gam = _gamma_vector(LAG, a, 6)
        for j in range(5):
            expect = a ** j / (1 - a) ** (j + 1)
            assert abs(gam[j] - expect) < 1e-10 * max(1.0, abs(expect))


def test_gamma_at_zero_orthogonality():
    for W in (GAUSS, LAG):
        gam = _gamma_vector(W, 0.0, 5)
        assert abs(gam[0] - 1.0) < 1e-12  # sqrt(M_0) = 1
        for j in range(1, 4):
            assert abs(gam[j]) < 1e-12


def test_gamma_rejects_divergent_tilt():
    with pytest.raises(QuadratureError):
        _gamma_vector(LAG, 1.4, 4)


def test_engine_matches_mpmath_reference():
    # independent high-precision reference for the adaptive engine,
    # including an indicator deformation with interior endpoints
    import mpmath as mp
    W = deform_weight(LAG, IntervalSet([[1, 3]]), 0.5)
    got = integrate(W, lambda x: np.exp(0.4 * x) * (x ** 3 - 2 * x), tol=1e-11)
    with mp.workdps(30):
        f = lambda x: mp.exp(mp.mpf("0.4") * x) * (x ** 3 - 2 * x) * mp.exp(-x)
        ref = mp.quad(f, [0, 1]) + mp.mpf("0.5") * mp.quad(f, [1, 3]) \
            + mp.quad(f, [3, mp.inf])
    assert abs(got.value - float(ref)) < 1e-10 * abs(float(ref))


def test_engine_negative_deformation_factor():
    # s > 1 flips the sign of the weight on E; the engine is unaffected
    import mpmath as mp
    W = deform_weight(GAUSS, IntervalSet([[-1, 1]]), 1.5)
    got = integrate(W, lambda x: x * x, tol=1e-11)
    with mp.workdps(30):
        f = lambda x: x * x * mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
        ref = mp.quad(f, [-mp.inf, -1]) + mp.quad(f, [1, mp.inf]) \
            - mp.mpf("0.5") * mp.quad(f, [-1, 1])
    assert abs(got.value - float(ref)) < 1e-10


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
                      ({"kind": "exppoly", "coeffs": [0, 0, 1], "scale": 2}, "scale")):
        with pytest.raises(UnknownField) as exc:
            weight_from_spec(spec)
        assert exc.value.key == key
