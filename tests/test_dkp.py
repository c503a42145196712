import math
from fractions import Fraction

import pytest

from extsource.series import TruncatedSeries, LaurentSlice, WindowError
from extsource.schur import elementary_schur, h_series
from extsource.weights import GaussianWeight, LaguerreWeight, ExpPolyWeight
from extsource.dkp import (
    TauConfig, _nu_coeff, zhat_series, tau_ladder_step, hirota_residual, fay_residual,
    fay_det_residual, _coeff, _h_shifted_entry, _zhat_series, _zhat_down_shifted_slice,
    _zhat_up_shifted_slice,
)
from series_oracles import (
    down_slice_by_partitions, fay_det_by_blocks, fay_three_term, h_at_shifts, miwa_eval,
    nu_pair, partition_sum, up_slice_by_laurent_det, up_slice_by_partitions, vertex_apply,
    zhat_by_partitions,
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
    # the window is [-d, cap] at every d, so nu_pair finds every power it
    # pairs; at d = 0 the z^-1 slot of the empty partition's h_0 is dropped
    cfg = gauss_cfg(cap=5)
    for d in range(4):
        X = vertex_apply(cfg, d)
        assert (X.lo, X.hi) == (-d, cfg.cap)


def test_vertex_miwa_two_routes():
    cfg = gauss_cfg(cap=5, dmax=3)
    d = 2
    a = Fraction(1, 3)
    z0 = Fraction(2)
    X = vertex_apply(cfg, d)
    lhs = sum(miwa_eval(X.get(p), [(a, 1)]) * z0 ** p for p in X.powers())
    # independent route: substitute z0 numerically first, then take the sum
    # over partitions; a shifted row sheds weight, so weights up to cap + d
    # contribute
    cap = cfg.cap
    shifted = partition_sum(
        cfg, d, cap + d, lambda a: h_series(a, cap) - h_series(a - 1, cap) / z0,
        TruncatedSeries.zero(cap))
    pre = TruncatedSeries.zero(cap)
    for k in range(cap + 1):
        pre = pre + elementary_schur(k, cap) * z0 ** k
    rhs = miwa_eval(pre * shifted, [(a, 1)])
    assert lhs == rhs


def test_nu_measure_coefficients():
    cfg = gauss_cfg()
    # power k carries -M_{2d-1-k}/(d-1-k)! at d=1: k=0 -> -M_1, k=-2 -> -M_3/2!
    assert _nu_coeff(cfg, 1, 0) == -cfg.moment(1)
    assert _nu_coeff(cfg, 1, -2) == -cfg.moment(3) / 2
    assert _nu_coeff(cfg, 1, 1) == 0  # powers above d-1 vanish


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


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
def test_ladder_rung_matches_vertex_action_oracle(W):
    # the rung pairs each power of the down-shifted series with a scalar
    # sum of h_i; the oracle forms the whole vertex action first and pairs
    # it power by power, clean and with one moment changed
    for cap in range(4, 9):
        base = TauConfig(W, cap, 4)
        for cfg in (base, base.with_moment(3, Fraction(7, 2))):
            for d in range(4):
                assert tau_ladder_step(cfg, d) == nu_pair(cfg, d, vertex_apply(cfg, d))


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
def test_up_slice_matches_laurent_determinant(W):
    # the first-row expansion against the d x d determinant of Laurent
    # entries: same window, every coefficient structurally equal, for one
    # and two time blocks and a copy with one moment changed; d = 4 only at
    # the low caps, where the oracle's Laplace expansion stays cheap
    for cap in range(4, 9):
        base = TauConfig(W, cap, 4)
        cfgs = [base] + ([base.with_moment(4, Fraction(5, 2))] if cap == 4 else [])
        for cfg in cfgs:
            for d in range(5 if cap <= 5 else 4):
                for min_power in (0, -cap, -cap - 3):
                    for nblocks, tblock in ((1, 0), (2, 0), (2, 1)):
                        got = _zhat_up_shifted_slice(cfg, d, min_power, nblocks, tblock)
                        want = up_slice_by_laurent_det(cfg, d, min_power, nblocks, tblock)
                        assert (got.lo, got.hi) == (want.lo, want.hi)
                        assert got.coeffs == want.coeffs


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


def test_fay_residual_rejects_equal_points():
    # at a = b the identity degenerates to 0 = 0; repeated points are
    # rejected, as fay_det_residual and the fay config do
    cfg = gauss_cfg(cap=4, dmax=2)
    with pytest.raises(ValueError, match="distinct"):
        fay_residual(cfg, 2, Fraction(1, 2), Fraction(1, 2))


def test_fay_det_m1_trivial():
    cfg = gauss_cfg(cap=4, dmax=2)
    assert fay_det_residual(cfg, 2, 1, [Fraction(1, 2)]).is_zero()


def test_fay_det_m2_matches_pairwise_form():
    # the 2 x 2 determinant against the three products written out; d = 1
    # is the m - 1 case, where Z_{d-1} = Z_0 = 1
    a, b = Fraction(1, 2), Fraction(1, 3)
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 5, 3)
        for d in (1, 2, 3):
            want = fay_three_term(cfg, d, a, b)
            assert want.is_zero()
            assert fay_det_residual(cfg, d, 2, [a, b]) == want


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
def test_scaled_shift_row_is_the_partition_sum(W):
    # fay_det_residual builds Z(t + [u]) once per degree and gets each
    # Z(t + [v u]) by scaling u to v u
    cfg = TauConfig(W, 5, 3)
    for d in range(4):
        z1 = zhat_series(cfg, d, 2, (1,))
        for v in (Fraction(2), Fraction(-1, 3)):
            assert z1.scale_point(1, v) == zhat_by_partitions(cfg, d, 2, 0, [(1, v)])


def test_fay_det_depth_bounds():
    cfg = gauss_cfg(cap=4, dmax=3)
    pts = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    assert fay_det_residual(cfg, 2, 3, pts).is_zero()  # d = m - 1
    with pytest.raises(ValueError):
        fay_det_residual(cfg, 1, 3, pts)
    with pytest.raises(ValueError):
        fay_det_residual(cfg, 0, 1, pts[:1])


def test_fay_det_full_depth():
    cfg = gauss_cfg(cap=5, dmax=3)
    res = fay_det_residual(cfg, 3, 3, [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert res.is_zero()


def test_fay_det_rejects_repeats():
    cfg = gauss_cfg(cap=4, dmax=2)
    with pytest.raises(ValueError):
        fay_det_residual(cfg, 2, 2, [Fraction(1, 2), Fraction(1, 2)])


def test_fay_det_sensitive_to_one_sided_change():
    # a moment changed in one factor only must leave a residual: in the
    # fully shifted factor of the determinant form, and in the first
    # product of the three-term form
    cfg = gauss_cfg(cap=4, dmax=2)
    a, b = Fraction(1, 2), Fraction(1, 3)
    assert not fay_det_residual(cfg, 2, 2, [a, b], corrupt_lead=(2, 2)).is_zero()
    assert not fay_residual(cfg, 2, a, b, corrupt_first=(2, 2)).is_zero()
    assert not fay_three_term(cfg, 2, a, b, first_cfg=cfg.with_moment(2, 2)).is_zero()


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
    # the table holds M_{l+j} / l! for l = 0..top and j = 0..d-1
    cfg = gauss_cfg(cap=4, dmax=3)
    clean = _coeff(cfg, 2, 4)
    assert clean == [[cfg.moment(l + j) / math.factorial(l) for j in range(2)]
                     for l in range(5)]
    assert clean[3][1] == 4 * clean[4][0] == Fraction(3, 6)  # M_4 / 3!, 4 M_4 / 4!
    assert _coeff(cfg, 2, 4) is clean
    changed = cfg.with_moment(4, 5)
    table = _coeff(changed, 2, 4)
    assert table is not clean
    assert table[3][1] == Fraction(5, 6) and table[4][0] == Fraction(5, 24)
    assert _coeff(cfg, 2, 4) is clean and clean[3][1] == Fraction(3, 6)
    # entries that do not read M_4 keep their values in the copy
    assert all(table[l][j] == clean[l][j]
               for l in range(5) for j in range(2) if l + j != 4)


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
@pytest.mark.parametrize("cap", [4, 5, 6])
def test_moment_determinant_matches_partition_sum(W, cap):
    # the d x d moment determinant against the Cauchy-Binet sum over
    # partitions with its own Fraction-elimination c_kappa: every builder,
    # two time blocks for the slices, and (at cap 4) a copy with one moment
    # changed
    base = TauConfig(W, cap, 4)
    cfgs = [base] + ([base.with_moment(3, Fraction(7, 2))] if cap == 4 else [])
    for cfg in cfgs:
        for d in range(5):
            assert zhat_series(cfg, d) == zhat_by_partitions(cfg, d)
            assert (zhat_series(cfg, d, 2, (1, Fraction(-1, 2)))
                    == zhat_by_partitions(cfg, d, 2, 0, [1, (1, Fraction(-1, 2))]))
            got = _zhat_down_shifted_slice(cfg, d, 2, 1)
            want = down_slice_by_partitions(cfg, d, 2, 1)
            assert (got.lo, got.hi, got.coeffs) == (want.lo, want.hi, want.coeffs)
            for min_power in (0, -4):
                got = _zhat_up_shifted_slice(cfg, d, min_power, 2, 0)
                want = up_slice_by_partitions(cfg, d, min_power, 2, 0)
                assert (got.lo, got.hi, got.coeffs) == (want.lo, want.hi, want.coeffs)


def test_h_shifted_entry_memo_is_shared_and_intact():
    # zhat_series shares memoised entries across its determinants, so an
    # entry must still equal a fresh build, and the oracle, after the series
    # it fed
    cfg = gauss_cfg(cap=6, dmax=3)
    shift = (Fraction(1), Fraction(1, 2))
    z = zhat_series(cfg, 3, 2, [1, Fraction(1, 2)])
    assert z == zhat_by_partitions(cfg, 3, 2, 0, [(1, v) for v in shift])
    entry = _h_shifted_entry(2, 6, 2, shift)
    assert _h_shifted_entry(2, 6, 2, shift) is entry
    assert entry == _h_shifted_entry.__wrapped__(2, 6, 2, shift)
    assert entry == h_at_shifts(2, 6, 2, 0, [(1, v) for v in shift])


def test_series_memo_matches_fresh_build_and_keeps_overrides_apart():
    # the memo is run-wide: a new config of the same weight and cap reads
    # the built series, which equals a fresh build; a with_moment copy keys
    # its override, so it never reads a clean series, even when its value
    # is the clean one, and a clean config never reads the copy's
    for W, cap in ((GAUSS, 5), (LAG, 4)):
        changed = TauConfig(W, cap, 3).with_moment(2, 5)
        bad = zhat_series(changed, 2, 2, (1,))
        bad_down = _zhat_down_shifted_slice(changed, 2, 1, 0)
        cfg = TauConfig(W, cap, 3)
        z = zhat_series(cfg, 2, 2, (1,))
        down = _zhat_down_shifted_slice(cfg, 2, 1, 0)
        assert z == _zhat_series.__wrapped__(cfg, 2, 2, (Fraction(1),)) != bad
        assert down.coeffs == _zhat_down_shifted_slice.__wrapped__(cfg, 2, 1, 0).coeffs
        assert down.coeffs != bad_down.coeffs
        assert zhat_series(TauConfig(W, cap, 4), 2, 2, [1]) is z
        assert _zhat_down_shifted_slice(TauConfig(W, cap, 4), 2, 1, 0) is down
        assert bad == _zhat_series.__wrapped__(changed, 2, 2, (Fraction(1),))
        same = cfg.with_moment(2, cfg.moment(2))
        assert zhat_series(same, 2, 2, (1,)) is not z
        assert zhat_series(same, 2, 2, (1,)) == z


FAY_POINTS = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]


@pytest.mark.parametrize("W", [GAUSS, LAG], ids=["gaussian", "laguerre"])
@pytest.mark.parametrize("cap", [4, 5, 6])
def test_fay_det_matches_block_oracle(W, cap):
    # one scaled symbol against one symbol block per shift, for every
    # d >= m - 1 up to 3, clean and with the lead's moment changed; the
    # substitution s_k -> a_k u keeps weights, so the two agree exactly
    cases = [(d, m) for m in (2, 3) for d in range(m - 1, 4)] + ([(3, 4)] if cap == 4 else [])
    violated = 0
    for d, m in cases:
        cfg = TauConfig(W, cap, d)
        for corrupt in (None, (2, 5), (4, Fraction(7, 2))):
            want = fay_det_by_blocks(cfg, d, m, FAY_POINTS[:m], corrupt_lead=corrupt)
            assert fay_det_residual(cfg, d, m, FAY_POINTS[:m], corrupt_lead=corrupt) == want
            assert want.is_zero() or corrupt is not None
            violated += not want.is_zero()
    # a changed moment past the cap's reach leaves no residual; most do
    assert violated > len(cases)
