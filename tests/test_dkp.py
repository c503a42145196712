import math
from fractions import Fraction

import pytest

from extsource.series import TruncatedSeries, LaurentSlice, WindowError, miwa_eval
from extsource.schur import Partition, elementary_schur, h_series, det_series, partitions_iter
from extsource.weights import GaussianWeight, LaguerreWeight, ExpPolyWeight
from extsource.dkp import (
    TauConfig, NuMeasure, zhat_series, vertex_apply, nu_pair, tau_ladder_step,
    hirota_residual, fay_residual, fay_det_residual, _coeff, _h_shifted_entry,
)

GAUSS = GaussianWeight()
LAG = LaguerreWeight()


def gauss_cfg(cap=6, dmax=4):
    return TauConfig(GAUSS, cap, dmax)


def test_tau_config_requires_exact_moments():
    with pytest.raises(ValueError):
        TauConfig(ExpPolyWeight([0, 0, 0, 0, 0.25]), 4, 2)


def test_zhat_zero_is_one():
    cfg = gauss_cfg()
    assert zhat_series(cfg, 0) == TruncatedSeries.one(cfg.cap)


def test_zhat_d1_gaussian_explicit():
    cfg = gauss_cfg(cap=4)
    # sum_j M_j h_j / j! = 1 + h_2/2 + h_4/8 for the Gaussian moments
    expect = (TruncatedSeries.one(4)
              + elementary_schur(2, 4) / 2
              + elementary_schur(4, 4) / 8)
    assert zhat_series(cfg, 1) == expect


def test_zhat_d1_laguerre_is_geometric():
    cfg = TauConfig(LAG, 5, 2)
    # M_j = j! gives sum_j h_j, the geometric-series kernel
    expect = TruncatedSeries.zero(5)
    for j in range(6):
        expect = expect + elementary_schur(j, 5)
    assert zhat_series(cfg, 1) == expect


def test_zhat_constant_terms_nonzero():
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 4, 4)
        for d in range(1, 5):
            assert zhat_series(cfg, d).constant_term() != 0


def test_zhat_truncation_stability():
    cfg_lo = gauss_cfg(cap=4)
    cfg_hi = gauss_cfg(cap=6)
    lo = zhat_series(cfg_lo, 2)
    hi = zhat_series(cfg_hi, 2)
    for mono, c in lo.terms.items():
        assert hi.terms.get(mono) == c
    for mono, c in hi.terms.items():
        if sum((i + 1) * e for i, e in enumerate(mono[0])) <= 4:
            assert lo.terms.get(mono) == c


def test_vertex_on_unity_gives_prefactor():
    cfg = gauss_cfg(cap=4)
    X = vertex_apply(cfg, 0)
    assert X.lo == 0 and X.hi == 4
    assert X.get(2) == elementary_schur(2, 4)


def test_vertex_window_bounds_and_padding():
    cfg = gauss_cfg(cap=5)
    X = vertex_apply(cfg, 2)
    assert X.lo == -2
    wide = vertex_apply(cfg, 2, zwindow=(-3, 5))
    assert wide.get(-3).is_zero()
    with pytest.raises(WindowError):
        vertex_apply(cfg, 2, zwindow=(-1, 5))


def test_vertex_miwa_two_routes():
    cfg = gauss_cfg(cap=5, dmax=3)
    d = 2
    a = Fraction(1, 3)
    z0 = Fraction(2)
    X = vertex_apply(cfg, d)
    lhs = sum(miwa_eval(X.get(p), [(a, 1)]) * z0 ** p for p in X.powers())
    # independent route: substitute z0 numerically first, then multiply;
    # a shifted row sheds weight, so partitions up to cap + d contribute
    cap = cfg.cap
    shifted = TruncatedSeries.zero(cap)
    for kappa in partitions_iter(d, cap + d):
        c = _coeff(cfg, kappa, d)
        if c == 0:
            continue
        ell = kappa.length
        if ell == 0:
            shifted = shifted + TruncatedSeries.one(cap) * c
            continue
        rows = [[h_series(kappa.part(p) - p + q, cap)
                 - h_series(kappa.part(p) - p + q - 1, cap) / z0
                 for q in range(1, ell + 1)] for p in range(1, ell + 1)]
        shifted = shifted + det_series(rows) * c
    pre = TruncatedSeries.zero(cap)
    for k in range(cap + 1):
        pre = pre + elementary_schur(k, cap) * z0 ** k
    rhs = miwa_eval(pre * shifted, [(a, 1)])
    assert lhs == rhs


def test_nu_measure_coefficients():
    cfg = gauss_cfg()
    nu = NuMeasure(cfg, 1)
    # power k carries -M_{2d-1-k}/(d-1-k)! at d=1: k=0 -> -M_1, k=-2 -> -M_3/2!
    assert nu.coeff(0) == -cfg.moment(1)
    assert nu.coeff(-2) == -cfg.moment(3) / 2
    assert nu.coeff(1) == 0  # powers above d-1 vanish
    # negative indices mirror
    assert NuMeasure(cfg, -2).coeff(-1) == NuMeasure(cfg, 1).coeff(-1)


def test_nu_pair_window_guard():
    cfg = gauss_cfg()
    X = LaurentSlice(0, [TruncatedSeries.one(cfg.cap)])
    with pytest.raises(WindowError):
        nu_pair(cfg, 1, X)


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_tau_ladder_exact(W, d):
    cfg = TauConfig(W, 6, 4)
    assert tau_ladder_step(cfg, d) == zhat_series(cfg, d + 1)


def test_tau_ladder_iterated_from_unity():
    cfg = gauss_cfg(cap=5, dmax=3)
    cur = LaurentSlice(0, [TruncatedSeries.one(cfg.cap)])  # unused seed shape
    z = TruncatedSeries.one(cfg.cap)
    for d in range(3):
        X = vertex_apply(cfg, d)
        z = nu_pair(cfg, d, X)
        assert z == zhat_series(cfg, d + 1)


@pytest.mark.parametrize("pair", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_hirota_residual_empty(pair):
    cfg = gauss_cfg(cap=4, dmax=4)
    d1, d2 = pair
    assert hirota_residual(cfg, d1, d2) == []


def test_hirota_residual_empty_laguerre():
    cfg = TauConfig(LAG, 4, 3)
    assert hirota_residual(cfg, 2, 0) == []


def test_hirota_one_sided_corruption_detected():
    cfg = gauss_cfg(cap=4, dmax=3)
    bad = hirota_residual(cfg, 1, 0, corrupt_first=(4, 4))
    assert bad != []


def test_hirota_consistent_moment_change_keeps_identity():
    # replacing a moment everywhere yields another valid sequence, so the
    # bilinear identity still holds; this is why sensitivity tests must
    # corrupt one side only
    cfg = gauss_cfg(cap=4, dmax=3).with_moment(4, 4)
    assert hirota_residual(cfg, 1, 0) == []
    assert hirota_residual(cfg, 2, 1) == []


def test_hirota_argument_guards():
    cfg = gauss_cfg()
    with pytest.raises(ValueError):
        hirota_residual(cfg, 1, 1)
    with pytest.raises(ValueError):
        hirota_residual(cfg, 9, 0)


def test_fay_residual_zero_small():
    cfg = gauss_cfg(cap=4, dmax=1)
    assert fay_residual(cfg, 1, 1, 2).is_zero()


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fay_residual_zero(W, d):
    cfg = TauConfig(W, 6, 3)
    assert fay_residual(cfg, d, Fraction(1, 2), Fraction(1, 3)).is_zero()


def test_fay_residual_equal_points_trivial():
    cfg = gauss_cfg(cap=4, dmax=2)
    assert fay_residual(cfg, 2, Fraction(1, 2), Fraction(1, 2)).is_zero()


def test_fay_det_m1_trivial():
    cfg = gauss_cfg(cap=4, dmax=2)
    assert fay_det_residual(cfg, 2, 1, [Fraction(1, 2)]).is_zero()


def test_fay_det_m2_matches_pairwise_form():
    cfg = gauss_cfg(cap=5, dmax=2)
    a, b = Fraction(1, 2), Fraction(1, 3)
    r1 = fay_det_residual(cfg, 2, 2, [a, b])
    r2 = fay_residual(cfg, 2, a, b)
    assert r1 == r2


def test_fay_det_full_depth():
    cfg = gauss_cfg(cap=5, dmax=3)
    res = fay_det_residual(cfg, 3, 3, [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert res.is_zero()


def test_fay_det_rejects_repeats():
    cfg = gauss_cfg(cap=4, dmax=2)
    with pytest.raises(ValueError):
        fay_det_residual(cfg, 2, 2, [Fraction(1, 2), Fraction(1, 2)])


def test_fay_det_sensitive_to_one_sided_change():
    # mutate the moments of the leading factor only; residual must appear
    cfg = gauss_cfg(cap=4, dmax=2)
    bad_cfg = cfg.with_moment(2, 2)
    a, b = Fraction(1, 2), Fraction(1, 3)
    from extsource.dkp import zhat_series as zs
    nb = 3
    sa = TruncatedSeries.variable(1, 4, block=1, nblocks=nb)
    sb = TruncatedSeries.variable(1, 4, block=2, nblocks=nb)
    Fa = zs(bad_cfg, 2, nb, 0, (1,))
    Fb = zs(cfg, 2, nb, 0, (2,))
    Ga = zs(cfg, 1, nb, 0, (1,))
    Gb = zs(cfg, 1, nb, 0, (2,))
    Fab = zs(cfg, 2, nb, 0, (1, 2))
    G0 = zs(cfg, 1, nb)
    res = sa * Fa * Gb - sb * Fb * Ga - (sa - sb) * Fab * G0
    res = res.substitute_point(2, b).substitute_point(1, a)
    assert not res.is_zero()


def test_mirror_evaluation():
    cfg = gauss_cfg(cap=6, dmax=2)
    z = zhat_series(cfg, 2)
    pts = [(Fraction(1, 2), 1), (Fraction(1, 5), 1)]
    neg_pts = [(c, -s) for c, s in pts]
    assert miwa_eval(z, neg_pts) == miwa_eval(z.flip_signs(), pts)


def test_zhat_evaluation_approaches_closed_form():
    # d = 1 Gaussian: the series at [a] sums to e^{a^2/2}
    cfg = TauConfig(GAUSS, 16, 1)
    a = Fraction(1, 5)
    val = miwa_eval(zhat_series(cfg, 1), [(a, 1)])
    assert abs(float(val) - math.exp(float(a) ** 2 / 2)) < 1e-12


def test_coeff_memo_is_per_config():
    # kappa = (2), d = 2 reads M_0, M_1, M_3, M_4: the value is
    # (M_3 M_1 - M_4 M_0) / (3! 0!)
    cfg = gauss_cfg(cap=4, dmax=3)
    kappa = Partition((2,))
    clean = _coeff(cfg, kappa, 2)
    assert clean == Fraction(-3, 6)
    changed = cfg.with_moment(4, 5)
    assert _coeff(changed, kappa, 2) == Fraction(-5, 6)
    assert _coeff(cfg, kappa, 2) == clean
    # a partition that does not reach M_4 keeps its value in the copy
    assert _coeff(changed, Partition(()), 2) == _coeff(cfg, Partition(()), 2)


def test_h_shifted_entry_memo_is_shared_and_intact():
    # zhat_series shares memoised entries across its determinants, so an
    # entry must still equal a fresh build after the series it fed
    cfg = gauss_cfg(cap=6, dmax=3)
    z = zhat_series(cfg, 3, 3, 0, [1, 2])
    assert z == zhat_series(cfg, 3, 3, 0, (1, 2))
    entry = _h_shifted_entry(2, 6, 3, 0, (1, 2))
    assert _h_shifted_entry(2, 6, 3, 0, (1, 2)) is entry
    assert entry == _h_shifted_entry.__wrapped__(2, 6, 3, 0, (1, 2))
