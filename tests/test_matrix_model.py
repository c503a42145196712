import itertools
import math

import numpy as np
import pytest

from extsource.weights import GaussianWeight, LaguerreWeight, IntervalSet, NearConfluent
from extsource.matrix_model import (
    SERIES_ZONE, SourceModel, ExpectationQuery, DividedExpRow, _SERIES_CUT,
    expectation, verify_main_identity, z_ratio_det_check, classify,
)
from matrix_oracles import laguerre_z_ratio, partition_fn, partition_fn_raw, rank1_partition_fn

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


def _full_series_coeffs(nodes):
    """c_n = h_n(nodes) / (n + r - 1)! for n <= 165 - r, the full length
    DividedExpRow built before its build stopped at the largest cut."""
    r = len(nodes)
    nmax = 165 - r
    h = [1.0] + [0.0] * nmax
    for v in nodes:
        for n in range(1, nmax + 1):
            h[n] += v * h[n - 1]
    coeffs = np.zeros(nmax + 1)
    f = float(math.factorial(r - 1))
    coeffs[0] = h[0] / f
    for n in range(1, nmax + 1):
        f *= n + r - 1
        coeffs[n] = h[n] / f
    return np.trim_zeros(coeffs, "b")


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
        full = _full_series_coeffs(nodes)
        assert np.array_equal(row.series_coeffs, full[:len(row.series_coeffs)])
        r = row.r
        for reach in (1.0, 0.5, 0.1, 0.01):  # share of the series zone a call spans
            top = reach * SERIES_ZONE / row.maxnode if row.maxnode else 10 * reach
            t = top * np.concatenate([[1.0], rng.random(40)])
            x = np.concatenate([-t, t])
            x = x[np.abs(x) * row.maxnode <= SERIES_ZONE]
            got = row.values_fused(x, np.zeros_like(x))
            acc = np.zeros_like(x)
            for c in full[::-1]:
                acc = acc * x + c
            want = acc * x ** (r - 1)
            R = np.max(np.abs(x)) * row.maxnode
            peak = np.exp(np.max(ks * math.log(R) - log_fact)) if R > 0 else 1.0
            bound = np.abs(x) ** (r - 1) / math.factorial(r - 1) * peak
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * bound), (nodes, reach)
            cut_short += _SERIES_CUT[math.ceil(R)] + 1 < len(full)
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
    assert verify_main_identity(qa).lhs == verify_main_identity(qb).lhs


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
    # at s = 0 every expectation is one, on both sides of the identity
    qs0 = ExpectationQuery(SourceModel(3, [(0.5, 1)], GAUSS), RIGHT1, 0.0)
    rep = verify_main_identity(qs0)
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs - 1.0) < 1e-12


def test_rank_reduction_m1_is_identity():
    q = ExpectationQuery(SourceModel(3, [(0.7, 1)], GAUSS), RIGHT1, 1.0)
    rep = verify_main_identity(q)
    assert abs(rep.lhs - rep.rhs) < 1e-10


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


@pytest.mark.parametrize("sources", [(0.3, 0.9), (0.3, 0.9, 1.4)])
def test_identity_sides_register_disjoint_models(monkeypatch, sources):
    # the RHS reads only rank-one and zero-source models; the one thing it
    # shares with the LHS is the pair of zero-source models at d, whose
    # ratio enters both sides as the same factor
    from extsource import matrix_model as mm
    keys = {"lhs": set(), "rhs": set()}
    side = ["lhs"]
    model, ladder = mm.Plan.model, mm._ladder

    def recorded_model(plan, m, weight):
        key = model(plan, m, weight)
        keys[side[0]].add(key)
        return key

    def recorded_ladder(*args):
        side[0] = "rhs"
        return ladder(*args)

    monkeypatch.setattr(mm.Plan, "model", recorded_model)
    monkeypatch.setattr(mm, "_ladder", recorded_ladder)
    mm.clear_caches()
    d = 5
    q = ExpectationQuery(SourceModel(d, [(a, 1) for a in sources], GAUSS), RIGHT1, 0.5)
    mm.plan_identity(mm.Plan(), q)
    W, W_def = GAUSS.key(), q.deformed_weight().key()
    assert {nodes for _, nodes in keys["lhs"]} == {(0.0,) * d, q.model.nodes()}
    assert all(sum(v != 0.0 for v in nodes) <= 1 for _, nodes in keys["rhs"])
    assert keys["lhs"] & keys["rhs"] == {(W, (0.0,) * d), (W_def, (0.0,) * d)}


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


@pytest.mark.parametrize("d", [2, 4])
def test_z_ratio_laguerre_negative_sources_match_closed_form(d):
    # against x > 0 a negative node makes the Taylor terms of the row
    # functions alternate and cancel; those points take the closed form
    for m in (1, 2):
        for a in itertools.combinations([-2.0, -1.0, -0.3, 0.5], m):
            rep = z_ratio_det_check(LAG, d, list(a))
            assert abs(rep.lhs / laguerre_z_ratio(d, a) - 1) < 1e-12, a
            assert classify(rep) == "pass", a


def test_main_identity_laguerre_negative_source():
    q = ExpectationQuery(SourceModel(3, [(-1.0, 1), (0.5, 1)], LAG), RIGHT1, 0.5)
    assert classify(verify_main_identity(q)) == "pass"


def test_z_ratio_exppoly_weight():
    # nothing in the pipeline is specific to the two classical weights
    from extsource.weights import ExpPolyWeight
    quartic = ExpPolyWeight([0, 0, 0, 0, 0.25])
    rep = z_ratio_det_check(quartic, 2, [0.4, 1.0])
    assert rep.rel_err < 1e-8


def test_query_rejects_a_deformed_model_weight():
    # the query deforms the base weight by its own E and s, so it would
    # replace the model's deformation instead of adding to it
    from extsource.weights import deform_weight
    W = deform_weight(GAUSS, HALF, 0.5)
    with pytest.raises(ValueError, match="already deformed"):
        verify_main_identity(ExpectationQuery(
            SourceModel(3, [(0.5, 1), (1.1, 1)], W), RIGHT1, 1.0))
    # both sides of the z-ratio check read the one deformed weight
    assert z_ratio_det_check(W, 3, [0.5, 1.1]).rel_err < 1e-8


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


# -- determinant stacks and plans ---------------------------------------------

def slogdet_one(A):
    """One matrix at a time, as matrix_model factored each determinant
    before determinants came in stacks: the reference for the stacked
    _slogdet_with_cond."""
    B = np.array(A, dtype=float)
    shift = 0
    for _ in range(3):
        rmax = np.max(np.abs(B), axis=1)
        if np.any(rmax == 0.0):
            return 0.0, -math.inf, math.inf
        re = np.round(np.log2(rmax)).astype(int)
        B /= np.exp2(re)[:, None]
        cmax = np.max(np.abs(B), axis=0)
        if np.any(cmax == 0.0):
            return 0.0, -math.inf, math.inf
        ce = np.round(np.log2(cmax)).astype(int)
        B /= np.exp2(ce)[None, :]
        shift += int(re.sum()) + int(ce.sum())
    sign, logabs = np.linalg.slogdet(B)
    if sign == 0:
        return 0.0, -math.inf, math.inf
    inv = np.linalg.inv(B)
    cond = float(np.sum(np.abs(B) * np.abs(inv.T)))
    return float(sign), float(logabs) + shift * math.log(2), cond


def ill_scaled(rng, n):
    """A random n x n matrix whose rows and columns span ~40 orders."""
    A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-20, 20, n)[:, None]
    A *= 10.0 ** rng.uniform(-20, 20, n)[None, :]
    kind = rng.integers(6)
    if kind == 1:
        A[rng.integers(n), :] = 0.0
    elif kind == 2:
        A[:, rng.integers(n)] = 0.0
    elif kind == 3 and n > 1:  # exactly singular: a repeated row
        A[rng.integers(1, n)] = A[0]
    elif kind == 4:  # a column of entries 2^-1070 below the rest
        A[:, rng.integers(n)] *= 2.0 ** -1070
    elif kind == 5:  # entrywise scales, which every round rescales anew
        A *= 10.0 ** rng.uniform(-15, 15, (n, n))
    return A


def test_stacked_slogdet_is_bitwise_one_at_a_time():
    from extsource.matrix_model import _slogdet_with_cond
    rng = np.random.default_rng(17)
    seen = set()
    for n in range(1, 11):
        stack = np.array([ill_scaled(rng, n) for _ in range(40)])
        before = stack.copy()
        got = _slogdet_with_cond(stack)
        assert np.array_equal(stack, before)  # the caller's stack is not scaled
        want = [slogdet_one(A) for A in stack]
        alone = [_slogdet_with_cond(A[None])[0] for A in stack]
        assert got == want == alone, n
        seen |= {"dead" if t[0] == 0.0 else "live" for t in got}
    assert seen == {"dead", "live"}
    assert _slogdet_with_cond(np.zeros((0, 3, 3))) == []


def test_one_determinant_per_model(monkeypatch):
    from extsource import matrix_model as mm
    mm.clear_caches()
    stacks = []
    slogdet = mm._slogdet_with_cond

    def counted(A):
        stacks.append(np.shape(A))
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
    assert set(mm._LOGDET_CACHE) == expected
    # one matrix per model key, in one stack per size, then the numerator
    # and denominator of the 3 x 3 ladder in one stack, all in the fill
    assert sorted(stacks[:-1]) == [(8, 6, 6), (8, 7, 7), (10, 8, 8)]
    assert stacks[-1] == (2, 3, 3)
    assert sum(k for k, _, _ in stacks) == len(expected) + 2
    assert len(mm._REPORT_CACHE) == 1
    # a second check reads its stored report and factors nothing
    again = verify_main_identity(q)
    assert again == report and again is not report
    assert len(stacks) == 4
    mm.clear_caches()
    assert not mm._LOGDET_CACHE


def test_stored_reports_are_read_as_copies():
    # the report table is shared by every reader: editing a returned
    # report, a field or its diag, leaves the next read as it was
    import copy
    from extsource import matrix_model as mm
    mm.clear_caches()
    q = ExpectationQuery(SourceModel(4, [(0.5, 1), (1.1, 1)], GAUSS), RIGHT1, 1.0)
    for read in (lambda: verify_main_identity(q),
                 lambda: z_ratio_det_check(GAUSS, 4, [0.5, 1.1])):
        first = read()
        want = copy.deepcopy(first)
        first.lhs, first.rel_err = -1.0, 1.0
        first.diag["cond_sum"] = -1.0
        first.diag["extra"] = 0.0
        again = read()
        assert again == want and again.diag is not first.diag
    assert len(mm._REPORT_CACHE) == 2
    mm.clear_caches()


def test_entries_shared_per_point_set_are_bitwise_alone():
    # entries computed together share their round-0 integrand values; each
    # vector must equal the one computed with nothing else in its plan
    from extsource import matrix_model as mm
    from extsource.weights import deform_weight
    # the deformed weight and its base have different column bases; with
    # s = 0.5 and E = [1, inf) their pieces can still share every node
    prefixes = [(0.0,) * r for r in range(1, 7)] + [(0.0,) * r + (0.9,) for r in range(6)]
    entries, layouts = {}, set()
    for W in (GAUSS, deform_weight(GAUSS, RIGHT1, 0.5)):
        basis = mm._column_basis(W, 6)
        for p in prefixes:
            entries[(W.key(), basis.weight.key(), basis.n, p)] = (W, basis, p)
            pieces = mm.domain_pieces(W, max(0.0, *p), len(p) + basis.n + 4)
            layouts.add(tuple((lo, hi) for lo, hi, _ in mm.live_pieces(pieces)))
    assert len(layouts) < len(prefixes)  # some entries do share a point set
    mm.clear_caches()
    together = mm._entry_vectors(entries)
    for key, item in entries.items():
        mm.clear_caches()
        alone = mm._entry_vectors({key: item})[key]
        assert np.array_equal(alone, together[key]), key
    mm.clear_caches()


def _overlapping_plans(mm):
    """Two plans that share model keys: the identities of the sources
    (0.3, 0.9) and (0.3, 1.4) at d = 4, the second plan also with the
    z-ratio check of (0.3, 0.9)."""
    plans = [mm.Plan(), mm.Plan()]
    for plan, b in zip(plans, (0.9, 1.4)):
        model = SourceModel(4, [(0.3, 1), (b, 1)], GAUSS)
        mm.plan_identity(plan, ExpectationQuery(model, RIGHT1, 0.5))
    mm.plan_z_ratio(plans[1], GAUSS, 4, [0.3, 0.9])
    return plans


def _table_bytes(mm):
    reports = {key: (r.lhs, r.rhs, r.abs_err, r.rel_err, *r.diag.values())
               for key, r in mm._REPORT_CACHE.items()}
    tables = {"logdet": mm._LOGDET_CACHE, "entry": mm._ENTRY_CACHE, "report": reports}
    return {(name, key): np.asarray(value, dtype=float).tobytes()
            for name, table in tables.items() for key, value in table.items()}


@pytest.mark.parametrize("threaded", [False, True])
def test_overlapping_plans_fill_each_key_once(monkeypatch, threaded):
    # Plan.fill is the one writer: a key that one fill stores is not
    # factored, integrated or gathered again by another fill that registered
    # it too, whether the fills run one after the other or race in two
    # threads
    import sys
    import threading
    from extsource import matrix_model as mm
    alone = {}
    for k in range(2):
        mm.clear_caches()
        _overlapping_plans(mm)[k].fill()
        for key, value in _table_bytes(mm).items():
            assert alone.setdefault(key, value) == value, key
    matrices, computed, ratios, stacks = [], [], [], []
    slogdet, entry, ratio = mm._slogdet_with_cond, mm._entry_vector, mm._expectation

    def counted_slogdet(A):
        matrices.extend(M.tobytes() for M in np.asarray(A))
        stacks.append(np.shape(A))
        return slogdet(A)

    def counted_entry(weight, basis, prefix, *args):
        key = (weight.key(), basis.weight.key(), basis.n, prefix)
        if key not in mm._ENTRY_CACHE:
            computed.append(key)
        return entry(weight, basis, prefix, *args)

    def counted_ratio(num, den):
        ratios.append((num, den))
        return ratio(num, den)

    monkeypatch.setattr(mm, "_slogdet_with_cond", counted_slogdet)
    monkeypatch.setattr(mm, "_entry_vector", counted_entry)
    monkeypatch.setattr(mm, "_expectation", counted_ratio)
    mm.clear_caches()
    plans = _overlapping_plans(mm)  # both registered before either fills
    if threaded:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan.fill) for plan in plans]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
    else:
        for plan in plans:
            plan.fill()
    # one matrix per model, and the ladder pair of each identity report and
    # the one matrix of each z-ratio report, each factored once
    assert sorted(key[0] for key in mm._REPORT_CACHE) == ["identity", "identity", "z-ratio"]
    # (the z-ratio matrix of (0.3, 0.9) is the first identity's undeformed
    # ladder, the one matrix that two reports factor)
    assert len(matrices) == len(set(matrices)) + 1 == len(mm._LOGDET_CACHE) + 2 * 2 + 1
    # each fill factors its report matrices in one stack: the first plan's
    # ladder pair, and the second plan's pair with its z-ratio matrix
    assert sorted(shape for shape in stacks if shape[1] == 2) == [(2, 2, 2), (3, 2, 2)]
    assert len(computed) == len(set(computed)) and set(computed) == set(mm._ENTRY_CACHE)
    # each report gathered once: an identity reads E and its zero-source E,
    # then one ratio per rung of its two 2 x 2 ladders; the z-ratio check
    # reads its own ratio and one per rung of its ladder
    assert len(ratios) == 2 * (2 + 2 * 4) + (1 + 4)
    assert _table_bytes(mm) == alone
    mm.clear_caches()
