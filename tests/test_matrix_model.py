import itertools
import math

import numpy as np
import pytest

from extsource.schur import NearConfluent
from extsource.weights import GaussianWeight, LaguerreWeight, IntervalSet
from extsource.matrix_model import (
    SERIES_ZONE, SourceModel, ExpectationQuery, DividedExpRow, _SERIES_CUT,
    partition_fn, rank1_partition_fn,
    expectation, normalized_expectation, rank_reduction_rhs,
    verify_main_identity, z_ratio_det_check, classify,
)
from matrix_oracles import partition_fn_raw

GAUSS = GaussianWeight()
LAG = LaguerreWeight()
HALF = IntervalSet([[0, "inf"]])
RIGHT1 = IntervalSet([[1, "inf"]])


def gauss_Z(d, sources):
    """Closed form for the Gaussian weight under the chosen normalization."""
    return math.factorial(d) * math.prod(math.exp(a * a / 2) for a in sources)


# -- divided-difference row machinery ---------------------------------------

def dd_newton_table(nodes, x):
    """Reference divided difference via the recursive Newton table
    (distinct nodes only)."""
    vals = [math.exp(v * x) for v in nodes]
    for level in range(1, len(nodes)):
        vals = [(vals[i + 1] - vals[i]) / (nodes[i + level] - nodes[i])
                for i in range(len(vals) - 1)]
    return vals[0]


def test_dd_series_matches_newton_table():
    nodes = (0.0, 0.7, 1.3, 0.2)
    row = DividedExpRow(nodes)
    for x in (-2.0, -0.3, 0.0, 1.1, 3.7):
        ref = dd_newton_table(nodes, x)
        got = row.values_fused(np.array([x]), np.zeros(1))[0]
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_dd_series_matches_closed_form():
    nodes = (0.0, 0.0, 0.0, 0.9, 0.5)
    row = DividedExpRow(nodes)
    # evaluate far beyond the series zone and just inside it; closed-form
    # and series branches must agree where both are accurate
    r = len(nodes)
    h = [1.0]
    for v in nodes:
        nh = [1.0] + [0.0] * 400
        for n in range(1, 401):
            nh[n] = (h[n] if n < len(h) else 0.0) + v * nh[n - 1]
        h = nh
    for x in (30.0, 44.0, 60.0, 95.0):
        logw = np.array([-x])  # fused Laguerre factor keeps these finite
        got = row.values_fused(np.array([x]), logw)[0]
        # independent: term-wise series with the e^{-x} factor folded in
        acc = 0.0
        log_term0 = (r - 1) * math.log(x) - x - math.lgamma(r)
        for n in range(0, 400):
            lt = log_term0 + n * math.log(x) + math.lgamma(r) - math.lgamma(n + r)
            term = h[n] * math.exp(lt)
            acc += term
            if n > 5 * x and abs(term) < 1e-18 * abs(acc):
                break
        ref = acc
        assert abs(got - ref) < 1e-10 * max(abs(ref), 1e-30)


def test_dd_repeated_nodes_match_derivative_limit():
    # double node: f[a, a](x) = x e^{a x}; triple: x^2/2 e^{a x}
    row2 = DividedExpRow((0.6, 0.6))
    row3 = DividedExpRow((0.6, 0.6, 0.6))
    for x in (-1.5, 0.4, 2.0):
        assert abs(row2.values_fused(np.array([x]), np.zeros(1))[0]
                   - x * math.exp(0.6 * x)) < 1e-12 * max(1.0, abs(x * math.exp(0.6 * x)))
        ref = 0.5 * x * x * math.exp(0.6 * x)
        assert abs(row3.values_fused(np.array([x]), np.zeros(1))[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def _full_node_prefixes():
    """Every prefix of the node chains of `full`'s identity and z-ratio
    grids: d <= 8, sources {0.3, 0.5, 0.9, 1.4}, m <= 3."""
    out = set()
    for d in range(1, 9):
        for m in range(min(d, 3) + 1):
            for tup in itertools.combinations((0.3, 0.5, 0.9, 1.4), m):
                chain = (0.0,) * (d - m) + tup
                out.update(chain[:r] for r in range(1, d + 1))
    return sorted(out)


def test_series_cut_matches_full_horner_sum():
    # values_fused sums the series only up to the cut its call's points
    # need; the full-length Horner sum over every coefficient is the oracle.
    # They agree within 4 ulp of the term bound |x|^(r-1)/(r-1)! max_k R^k/k!
    rng = np.random.default_rng(12)
    ks = np.arange(200)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(ks[1:]))])
    cut_short = 0
    prefixes = _full_node_prefixes()
    for nodes in prefixes:
        row = DividedExpRow(nodes)
        r = row.r
        for reach in (1.0, 0.5, 0.1, 0.01):  # share of the series zone a call spans
            top = reach * SERIES_ZONE / row.maxnode if row.maxnode else 10 * reach
            t = top * np.concatenate([[1.0], rng.random(40)])
            x = np.concatenate([-t, t])
            x = x[np.abs(x) * row.maxnode <= SERIES_ZONE]
            got = row.values_fused(x, np.zeros_like(x))
            acc = np.zeros_like(x)
            for c in row.series_coeffs[::-1]:
                acc = acc * x + c
            want = acc * x ** (r - 1)
            R = np.max(np.abs(x)) * row.maxnode
            peak = np.exp(np.max(ks * math.log(R) - log_fact)) if R > 0 else 1.0
            bound = np.abs(x) ** (r - 1) / math.factorial(r - 1) * peak
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * bound), (nodes, reach)
            cut_short += _SERIES_CUT[math.ceil(R)] + 1 < len(row.series_coeffs)
    # every call on a row with a nonzero node drops terms
    assert cut_short == 4 * sum(1 for nodes in prefixes if any(nodes))


# -- partition functions -----------------------------------------------------

def test_partition_d1_gaussian_closed_form():
    for a in (0.4, 1.0, -0.8):
        z = partition_fn(SourceModel(1, [(a, 1)], GAUSS))
        assert abs(z - math.exp(a * a / 2)) < 1e-11 * math.exp(a * a / 2)


def test_partition_gaussian_multi_source_closed_form():
    for d, src in [(3, [0.5, 1.0]), (5, [0.3, 0.9, 1.4]), (4, [0.7])]:
        z = partition_fn(SourceModel(d, [(a, 1) for a in src], GAUSS))
        ref = gauss_Z(d, src)
        assert abs(z - ref) < 1e-10 * ref


def test_partition_all_zero_sources_is_hankel():
    # Z_d(no sources) * prod_{p<d} p! / d! equals the Hankel moment determinant
    for W in (GAUSS, LAG):
        for d in (2, 3, 4):
            z = partition_fn(SourceModel(d, [], W))
            H = [[float(W.moment_exact(p + q)) for q in range(d)] for p in range(d)]
            hankel = np.linalg.det(np.array(H))
            norm = math.prod(math.factorial(p) for p in range(d))
            assert abs(z * norm / math.factorial(d) - hankel) < 1e-9 * abs(hankel)


def test_partition_matches_raw_form():
    # the stable divided-difference form and the literal confluent form
    # compute the same value (including sign)
    cases = [
        (3, [(0.5, 1), (1.0, 1)], GAUSS),
        (4, [(0.3, 1)], GAUSS),
        (3, [(0.4, 2)], GAUSS),           # confluent source
        (3, [(0.5, 1)], LAG),
        (4, [(0.3, 1), (0.8, 1)], LAG),
    ]
    for d, src, W in cases:
        stable = partition_fn(SourceModel(d, src, W))
        raw = partition_fn_raw(SourceModel(d, src, W))
        assert abs(stable - raw) < 2e-7 * abs(stable)


def test_partition_symmetric_in_sources():
    z1 = partition_fn(SourceModel(4, [(0.5, 1), (1.2, 1)], GAUSS))
    z2 = partition_fn(SourceModel(4, [(1.2, 1), (0.5, 1)], GAUSS))
    assert z1 == z2  # canonical ordering makes this structural


def test_expectations_symmetric_in_sources():
    qa = ExpectationQuery(SourceModel(3, [(0.5, 1), (1.2, 1)], GAUSS), RIGHT1, 1.0)
    qb = ExpectationQuery(SourceModel(3, [(1.2, 1), (0.5, 1)], GAUSS), RIGHT1, 1.0)
    assert expectation(qa) == expectation(qb)
    assert normalized_expectation(qa) == normalized_expectation(qb)


def test_dimension_cap_guard():
    with pytest.raises(ValueError, match="cap"):
        SourceModel(11, [(0.5, 1)], GAUSS)


def test_near_confluent_guard():
    with pytest.raises(NearConfluent):
        SourceModel(3, [(0.5, 1), (0.5 + 1e-10, 1)], GAUSS)


def test_confluence_continuity():
    # sources (a, a+eps) converge to the multiplicity-2 model as eps -> 0
    a = 0.6
    target = partition_fn(SourceModel(3, [(a, 2)], GAUSS))
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        z = partition_fn(SourceModel(3, [(a, 1), (a + eps, 1)], GAUSS))
        errs.append(abs(z - target) / abs(target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_rank1_closed_forms():
    # l = 1 Gaussian: Gamma_0(a) = e^{a^2/2} = Z_1(a)
    for a in (0.3, 1.1):
        assert abs(rank1_partition_fn(GAUSS, 1, a) - math.exp(a * a / 2)) < 1e-11


def test_rank1_ratio_constant_over_a():
    for W, l in [(GAUSS, 3), (GAUSS, 5), (LAG, 4)]:
        ratios = []
        for a in (0.3, 0.7, 0.95 if W is LAG else 1.1):
            z_dd = partition_fn(SourceModel(l, [(a, 1)], W))
            z_r1 = rank1_partition_fn(W, l, a)
            ratios.append(z_r1 / z_dd)
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread < 1e-8


def test_rank1_small_a_stays_finite():
    vals = [rank1_partition_fn(GAUSS, 4, a) for a in (1e-3, 2e-3)]
    for v in vals:
        assert math.isfinite(v) and v > 0
    assert abs(vals[0] / vals[1] - 1) < 1e-2


def test_expectation_trivial_cases():
    q0 = ExpectationQuery(SourceModel(2, [(0.5, 1)], GAUSS), RIGHT1, 0.0)
    assert abs(expectation(q0) - 1.0) < 1e-12
    qall = ExpectationQuery(SourceModel(2, [(0.5, 1)], GAUSS),
                            IntervalSet([["-inf", "inf"]]), 1.0)
    assert abs(expectation(qall)) < 1e-10


def test_expectation_d1_symmetric_half_line():
    q = ExpectationQuery(SourceModel(1, [], GAUSS), HALF, 1.0)
    assert abs(expectation(q) - 0.5) < 1e-10


def test_expectation_d1_affine_in_s():
    # E_1(a; E; s) = 1 - s * int_E e^{a x} W / int e^{a x} W; the tilted
    # Gaussian is N(a, 1), so the ratio is P(N(a, 1) >= 1)
    a = 0.8
    q_vals = []
    svals = (0.25, 0.5, 1.0)
    for s in svals:
        q = ExpectationQuery(SourceModel(1, [(a, 1)], GAUSS), RIGHT1, s)
        q_vals.append(expectation(q))
    tail = 0.5 * math.erfc((1 - a) / math.sqrt(2))
    for s, got in zip(svals, q_vals):
        assert abs(got - (1 - s * tail)) < 1e-10
    # collinearity of the three points
    slope1 = (q_vals[1] - q_vals[0]) / (svals[1] - svals[0])
    slope2 = (q_vals[2] - q_vals[1]) / (svals[2] - svals[1])
    assert abs(slope1 - slope2) < 1e-9


def test_normalized_expectation_trivia():
    q = ExpectationQuery(SourceModel(3, [], GAUSS), RIGHT1, 1.0)
    assert abs(normalized_expectation(q) - 1.0) < 1e-12
    qs0 = ExpectationQuery(SourceModel(3, [(0.5, 1)], GAUSS), RIGHT1, 0.0)
    assert abs(normalized_expectation(qs0) - 1.0) < 1e-12


def test_rank_reduction_m1_is_identity():
    q = ExpectationQuery(SourceModel(3, [(0.7, 1)], GAUSS), RIGHT1, 1.0)
    lhs = normalized_expectation(q)
    rhs = rank_reduction_rhs(q)
    assert abs(lhs - rhs) < 1e-10


def test_main_identity_gaussian_d3_m2():
    q = ExpectationQuery(SourceModel(3, [(0.5, 1), (1.0, 1)], GAUSS), RIGHT1, 1.0)
    rep = verify_main_identity(q)
    assert rep.rel_err < 1e-8
    assert classify(rep) == "pass"


def test_main_identity_laguerre_d4_m2():
    q = ExpectationQuery(SourceModel(4, [(0.3, 1), (0.9, 1)], LAG),
                         IntervalSet([[-1, 1]]), 0.5)
    rep = verify_main_identity(q)
    assert rep.rel_err < 1e-8


def test_main_identity_d8_m3():
    q = ExpectationQuery(SourceModel(8, [(0.3, 1), (0.5, 1), (0.9, 1)], GAUSS),
                         RIGHT1, 1.0)
    rep = verify_main_identity(q)
    assert rep.rel_err < 1e-8


def test_z_ratio_trivial_m1():
    rep = z_ratio_det_check(GAUSS, 3, [0.8])
    assert rep.rel_err < 1e-12


def test_z_ratio_gaussian_d4_m2():
    rep = z_ratio_det_check(GAUSS, 4, [0.4, 0.9])
    assert rep.rel_err < 1e-8
    # swap order: both sides are symmetric (det and Delta flip together)
    rep2 = z_ratio_det_check(GAUSS, 4, [0.9, 0.4])
    assert abs(rep.lhs - rep2.lhs) < 1e-12 * abs(rep.lhs)
    assert abs(rep.rhs - rep2.rhs) < 1e-9 * abs(rep.rhs)


def test_z_ratio_laguerre_d4_m3():
    rep = z_ratio_det_check(LAG, 4, [0.3, 0.5, 0.9])
    assert rep.rel_err < 1e-8


def test_z_ratio_exppoly_weight():
    # nothing in the pipeline is specific to the two classical weights
    from extsource.weights import ExpPolyWeight
    quartic = ExpPolyWeight([0, 0, 0, 0, 0.25])
    rep = z_ratio_det_check(quartic, 2, [0.4, 1.0])
    assert rep.rel_err < 1e-8


def test_exploratory_s_above_one():
    # determinant identities do not need a nonnegative weight; s = 1.5 works
    q = ExpectationQuery(SourceModel(3, [(0.5, 1), (1.0, 1)], GAUSS), RIGHT1, 1.5)
    rep = verify_main_identity(q)
    assert rep.rel_err < 1e-7


def test_expectation_against_mpmath_double_integral():
    # independent oracle: the two-eigenvalue measure integrated directly in
    # high precision.  With sources (a, 0) the joint density is proportional
    # to (e^{a x} - e^{a y})(x - y) W(x) W(y).  Against chi(x) chi(y) that
    # is a sum of products of one-variable factors, so each 2-D integral is
    # 2 (I[x e^{ax}] I[1] - I[e^{ax}] I[x]) with I[f] = int f W chi.
    import mpmath as mp
    a, s, c = 0.7, 1.0, 1.0  # E = [c, inf)
    q = ExpectationQuery(SourceModel(2, [(a, 1)], GAUSS), IntervalSet([[c, "inf"]]), s)
    got = expectation(q)
    with mp.workdps(25):
        am = mp.mpf(a)
        L = mp.mpf(9)

        def pair_integral(chi):
            def I(f):
                return mp.quad(lambda u: f(u) * chi(u) * mp.exp(-u * u / 2), [-L, c, L])
            i1, ix = I(lambda u: 1), I(lambda u: u)
            ie, ixe = I(lambda u: mp.exp(am * u)), I(lambda u: u * mp.exp(am * u))
            return 2 * (ixe * i1 - ie * ix)

        num = pair_integral(lambda u: 1 - s * (1 if u >= c else 0))
        den = pair_integral(lambda u: 1)
        ref = float(num / den)
    assert abs(got - ref) < 1e-9 * abs(ref)


def test_failed_basis_build_is_cached(monkeypatch):
    from extsource import matrix_model as mm
    from extsource.weights import DeformedWeight, HankelNotPD, deform_weight
    mm.clear_caches()
    builds = []
    real = mm.orthonormal_basis

    def counting(W, n, *args, **kwargs):
        builds.append(W.key())
        try:
            return real(W, n, *args, **kwargs)
        except HankelNotPD:
            builds[-1] = ("failed", W.key())
            raise

    monkeypatch.setattr(mm, "orthonormal_basis", counting)
    W = deform_weight(GAUSS, RIGHT1, 1.5)  # moment matrix not PD at n = 12
    first = mm._column_basis(W, 3)
    second = mm._column_basis(W, 3)
    assert first is second and not isinstance(first.weight, DeformedWeight)
    assert builds.count(("failed", W.key())) == 1
    assert builds.count(GAUSS.key()) == 1
    with pytest.raises(HankelNotPD, match="not PD"):
        mm._basis_for(W, 4)
    assert len(builds) == 2
    mm.clear_caches()


# -- determinant memo --------------------------------------------------------

def test_one_determinant_per_model(monkeypatch):
    from extsource import matrix_model as mm
    mm.clear_caches()
    shapes = []
    slogdet = mm._slogdet_with_cond

    def counted(A):
        shapes.append(np.shape(A))
        return slogdet(A)

    monkeypatch.setattr(mm, "_slogdet_with_cond", counted)
    sources = (0.3, 0.9, 1.4)
    q = ExpectationQuery(SourceModel(8, [(a, 1) for a in sources], GAUSS), RIGHT1, 0.5)
    report = verify_main_identity(q)
    assert report.rel_err < 1e-8
    # LHS: the 3-source model and the zero-source one at d = 8; RHS: each
    # rank-one model at d = 8, 7, 6 and the zero-source ones there; every
    # model against the deformed and the undeformed weight
    models = {(8, sources), (8, ())}
    for dim in (8, 7, 6):
        models |= {(dim, (a,)) for a in sources} | {(dim, ())}
    expected = {(w.key(), (0.0,) * (dim - len(src)) + src)
                for dim, src in models for w in (GAUSS, q.deformed_weight())}
    assert len(expected) == 26
    assert {(key[0], key[3]) for key in mm._LOGDET_CACHE} == expected
    # one determinant per model key, plus the numerator and denominator of
    # the 3 x 3 ladder
    assert len(shapes) == len(expected) + 2
    assert shapes.count((3, 3)) == 2
    # a second check finds every model determinant in the memo
    assert verify_main_identity(q).rel_err == report.rel_err
    assert len(shapes) == len(expected) + 4
    mm.clear_caches()
    assert not mm._LOGDET_CACHE
