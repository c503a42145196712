"""Partition functions with external source, gap-probability expectations,
and the machine check of the rank-reduction identity.

The d-fold matrix integral collapses by Andreief reduction to a d x d
determinant of one-dimensional integrals.  Two exact reformulations keep that
determinant well conditioned in floating point:

* row functions are confluent divided differences of x -> e^{a x} over the
  node sequence (0,...,0, a_1, ..., a_m) instead of the raw functions
  {x^p} u {x^p e^{a_k x}}.  Dividing by the confluent Vandermonde of the
  sources then cancels analytically and never happens in floats;
* column functions are the monic orthonormal polynomials of the integration
  weight itself instead of raw monomials (any monic family leaves the
  determinant unchanged).
"""

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .schur import NearConfluent, CONFLUENT_GAP
from .weights import (
    DeformedWeight, IntervalSet, HankelNotPD, QuadratureError,
    deform_weight, domain_pieces, integrate_pieces, orthonormal_basis,
    _EvalCounter,
)

ENTRY_REL_TOL = 1e-13
# relative error assumed per matrix entry when a check predicts its noise
# floor; a miss within NOISE_FACTOR of that floor is inconclusive
ENTRY_REL_NOISE = 1e-12
NOISE_FACTOR = 10.0
SERIES_ZONE = 40.0  # |x| * max|node| below this: series evaluation
_MIN_BASIS = 12
# beyond this dimension double precision cannot reach the 1e-8 identity
# tolerance; raise it explicitly to explore anyway
MAX_DIMENSION = 10

_LOCK = threading.Lock()
_BASIS_CACHE = {}
_ENTRY_CACHE = {}
_GAMMA_CACHE = {}
_LOGDET_CACHE = {}
EVALS = _EvalCounter()


def clear_caches():
    with _LOCK:
        _BASIS_CACHE.clear()
        _ENTRY_CACHE.clear()
        _GAMMA_CACHE.clear()
        _LOGDET_CACHE.clear()


def _compute_once(cache, key, compute):
    """cache[key], computed by the first caller while later callers wait.

    A HankelNotPD is cached as its message and raised afresh on every hit;
    any other error leaves the key uncached for the next caller.
    """
    with _LOCK:
        slot = cache.get(key)
        owner = slot is None
        if owner:
            slot = cache[key] = Future()
    if owner:
        try:
            slot.set_result(compute())
        except HankelNotPD as exc:
            slot.set_result(str(exc))
        except BaseException as exc:
            with _LOCK:
                del cache[key]
            slot.set_exception(exc)
            raise
    value = slot.result()
    if isinstance(value, str):
        raise HankelNotPD(value)
    return value


# ---------------------------------------------------------------------------
# domain types


class SourceModel:
    """Dimension d, distinct nonzero source eigenvalues with multiplicities
    (remaining eigenvalues zero), and a weight."""

    __slots__ = ("d", "sources", "weight")

    def __init__(self, d, sources, weight):
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > MAX_DIMENSION:
            raise ValueError(f"d={d} beyond the supported cap {MAX_DIMENSION} "
                             "(raise matrix_model.MAX_DIMENSION to override)")
        norm = []
        for item in sources:
            if isinstance(item, tuple):
                a, mult = item
            else:
                a, mult = item, 1
            a = float(a)
            mult = int(mult)
            if a == 0.0:
                raise ValueError("source values must be nonzero (zeros are implicit padding)")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            norm.append((a, mult))
        norm.sort()
        vals = [a for a, _ in norm]
        for i in range(len(vals) - 1):
            if abs(vals[i + 1] - vals[i]) < CONFLUENT_GAP:
                raise NearConfluent(
                    f"sources {vals[i]} and {vals[i+1]} closer than {CONFLUENT_GAP}; "
                    "merge them into one source with higher multiplicity")
        if sum(m for _, m in norm) > d:
            raise ValueError("total source multiplicity exceeds d")
        self.d = d
        self.sources = tuple(norm)
        self.weight = weight

    @property
    def rank(self):
        return sum(m for _, m in self.sources)

    def nodes(self):
        """Canonical node sequence: zeros first, then sources ascending."""
        out = [0.0] * (self.d - self.rank)
        for a, m in self.sources:
            out.extend([a] * m)
        return tuple(out)

    def __repr__(self):
        return f"SourceModel(d={self.d}, sources={self.sources}, weight={self.weight.key()})"


class ExpectationQuery:
    """Inputs of the expectation of prod_j (1 - s chi_E(lambda_j))."""

    __slots__ = ("model", "E", "s")

    def __init__(self, model, E, s):
        self.model = model
        self.E = E if isinstance(E, IntervalSet) else IntervalSet(E)
        self.s = float(s)

    def deformed_weight(self):
        return deform_weight(self.model.weight, self.E, self.s)


@dataclass
class IdentityReport:
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    diag: dict = field(default_factory=dict)


def _make_report(lhs, rhs, sources, cond_sum):
    """Report with the diagnostics of both identity checks: the smallest
    source gap, the summed conditioning and the noise floor it predicts."""
    gaps = [abs(x - y) for i, x in enumerate(sources) for y in sources[:i]]
    diag = {
        "min_source_gap": min(gaps, default=math.inf),
        "cond_sum": cond_sum,
        "noise_est": cond_sum * ENTRY_REL_NOISE,
    }
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(lhs, rhs, abs_err, rel_err, diag)


def classify(report, rel_tol=1e-8):
    """pass / inconclusive / fail.

    A miss that is within NOISE_FACTOR of the conditioning-predicted error
    floor is inconclusive, not a mathematical failure.
    """
    if report.rel_err < rel_tol:
        return "pass"
    noise = report.diag.get("noise_est", 0.0)
    if report.rel_err <= NOISE_FACTOR * noise:
        return "inconclusive"
    return "fail"


# ---------------------------------------------------------------------------
# divided-difference row functions


def _h_complete(nodes, N):
    """h_0..h_N of the node multiset (complete homogeneous sums)."""
    h = np.zeros(N + 1)
    h[0] = 1.0
    for v in nodes:
        if v == 0.0:
            continue
        for n in range(1, N + 1):
            h[n] += v * h[n - 1]
    return h


def _closed_groups(nodes):
    """Partial-fraction data of the divided difference of e^{x . } over the
    node multiset: list of (b, poly) with psi(x) = sum_b e^{b x} poly_b(x)."""
    groups = {}
    for b in nodes:
        groups[b] = groups.get(b, 0) + 1
    out = []
    for b, mu in groups.items():
        # Taylor coefficients of prod_{c != b} (x - c)^{-mu_c} around x = b
        taylor = np.zeros(mu)
        taylor[0] = 1.0
        for c, nu in groups.items():
            if c == b:
                continue
            base = b - c
            fac = np.zeros(mu)
            for k in range(mu):
                fac[k] = math.comb(nu + k - 1, k) * (-1.0) ** k / base ** (nu + k)
            conv = np.zeros(mu)
            for i in range(mu):
                if taylor[i] == 0.0:
                    continue
                top = mu - i
                conv[i:] += taylor[i] * fac[:top]
            taylor = conv
        poly = np.zeros(mu)
        for i in range(mu):
            poly[i] = taylor[mu - 1 - i] / math.factorial(i)
        out.append((b, poly))
    return out


def _series_cuts(top):
    """cut[c] for c = 0..top: the first n past the peak of c^n / n! at which
    it is below 2^-60 of that peak.  Built in Python floats at import, so
    a run with no float suite pages in no numpy routine for it."""
    cuts = [1]  # c = 0: only the n = 0 term is nonzero
    for c in range(1, top + 1):
        log_c = math.log(c)
        # the peak is at n = c - 1 and n = c
        floor = c * log_c - math.lgamma(c + 1) - 60 * math.log(2)
        n = c
        while n * log_c - math.lgamma(n + 1) >= floor:
            n += 1
        cuts.append(n)
    return cuts


# Horner start of the series zone, indexed by ceil(max|x| * max|node|)
_SERIES_CUT = _series_cuts(math.ceil(SERIES_ZONE))


class DividedExpRow:
    """Confluent divided difference of x -> e^{a x} over a node prefix,
    evaluated fused with a log-density so exponentials never overflow.

    In the series zone, term n of psi(x) = x^{r-1} sum_n c_n x^n is at most
    |x|^{r-1} / (r-1)! * R^n / n! with R = |x| max|node|, so each call sums
    only the terms up to the first one past the peak of R^n / n! that is
    below 2^-60 of it, R taken over the call's points.
    """

    __slots__ = ("nodes", "r", "maxnode", "series_coeffs", "groups")

    def __init__(self, nodes):
        self.nodes = tuple(float(v) for v in nodes)
        if not self.nodes:
            raise ValueError("empty node prefix")
        self.r = len(self.nodes)
        self.maxnode = max(abs(v) for v in self.nodes)
        nmax = max(0, 165 - self.r)
        h = _h_complete(self.nodes, nmax)
        coeffs = np.zeros(nmax + 1)
        f = float(math.factorial(self.r - 1))
        coeffs[0] = h[0] / f
        for n in range(1, nmax + 1):
            f *= n + self.r - 1
            coeffs[n] = h[n] / f
        self.series_coeffs = np.trim_zeros(coeffs, "b")
        if self.series_coeffs.size == 0:
            self.series_coeffs = np.zeros(1)
        self.groups = _closed_groups(self.nodes) if self.maxnode > 0 else None

    def values_fused(self, x, logw):
        """psi(x) * e^{logw(x)} for an array x."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        zone = np.ones(x.shape, dtype=bool) if self.maxnode == 0.0 else \
            (np.abs(x) * self.maxnode <= SERIES_ZONE)
        if zone.any():
            xs = x[zone]
            cut = _SERIES_CUT[math.ceil(np.max(np.abs(xs)) * self.maxnode)]
            acc = np.zeros_like(xs)
            for c in self.series_coeffs[cut::-1]:
                acc = acc * xs + c
            out[zone] = acc * xs ** (self.r - 1) * np.exp(logw[zone])
        far = ~zone
        if far.any():
            xf = x[far]
            acc = np.zeros_like(xf)
            for b, poly in self.groups:
                pv = np.zeros_like(xf)
                for c in poly[::-1]:
                    pv = pv * xf + c
                acc = acc + pv * np.exp(b * xf + logw[far])
            out[far] = acc
        return out


# ---------------------------------------------------------------------------
# matrix assembly


def _basis_for(weight, min_n):
    """Cached basis of size max(min_n, _MIN_BASIS)."""
    n = max(min_n, _MIN_BASIS)
    return _compute_once(_BASIS_CACHE, (weight.key(), n), lambda: orthonormal_basis(weight, n))


def _column_basis(weight, d):
    """Monic column family adapted to the integration weight; falls back to
    the undeformed base family when the deformed moment matrix is not PD
    (possible for s > 1)."""
    try:
        return _basis_for(weight, d + 1)
    except HankelNotPD:
        if isinstance(weight, DeformedWeight):
            return _basis_for(weight.undeformed(), d + 1)
        raise


def _entry_vector(weight, basis, prefix):
    """Integrals of psi_prefix(x) * monic_q(x) against the weight, q < basis.n."""
    def compute():
        row = DividedExpRow(prefix)
        tilt = max([0.0] + [v for v in prefix])
        deg = len(prefix) + basis.n + 4

        def fv(x):
            logw = np.asarray(weight.log_density(x), dtype=float)
            base_vals = row.values_fused(x, logw)
            monic = basis.eval_monic(x)
            return base_vals[:, None] * monic

        pieces = domain_pieces(weight, tilt, deg)
        res = integrate_pieces(fv, pieces, rel_tol=ENTRY_REL_TOL, counter=EVALS)
        return np.asarray(res.value)

    key = (weight.key(), basis.weight.key(), basis.n, prefix)
    return _compute_once(_ENTRY_CACHE, key, compute)


def _slogdet_with_cond(A):
    """(sign, log|det|, cond) with power-of-two row/column equilibration.

    Entry magnitudes can span tens of orders (high moments against slowly
    decaying weights); plain LU then loses digits to backward error at the
    global scale.  Scaling by exact powers of two keeps the factorization
    error commensurate with per-entry relative error.  cond is the
    first-order sensitivity of log det to relative entry perturbations.
    """
    B = np.array(A, dtype=float)
    n = B.shape[0]
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


def _partition_logdet(model, weight):
    """(sign, log|Z|, diag) for the partition function of `model` computed
    against `weight` (the model's own weight or its deformation); the
    convention fixes every d-dependent constant to one and includes d!.

    The determinant is computed once per model: the key holds the weight,
    the column basis and the whole node sequence, so no two models share it.
    """
    d = model.d
    basis = _column_basis(weight, d)
    nodes = model.nodes()

    def compute():
        A = np.empty((d, d))
        for r in range(1, d + 1):
            A[r - 1, :] = _entry_vector(weight, basis, nodes[:r])[:d]
        return _slogdet_with_cond(A)

    key = (weight.key(), basis.weight.key(), basis.n, nodes)
    sign, logabs, cond = _compute_once(_LOGDET_CACHE, key, compute)
    diag = {"cond": cond, "logdet": logabs}
    return sign, logabs + math.log(math.factorial(d)), diag


def partition_fn(model):
    """Z_d for the model's weight, up to d-dependent constants (set to one).

    Every consumer identity is a ratio in which those constants cancel.
    """
    sign, logz, _ = _partition_logdet(model, model.weight)
    return sign * math.exp(logz)


def _gamma_vector(weight, a, n):
    """Gamma_j(a), j < n, from the orthonormal basis of the undeformed weight."""
    base = weight.undeformed()
    a = float(a)

    def compute():
        B = _basis_for(base, n)
        if a >= base.max_tilt():
            raise QuadratureError(f"tilt {a} diverges against {base.kind} weight")

        def fv(x):
            return B.eval_all(x, n - 1) * np.exp(a * x + np.asarray(base.log_density(x)))[:, None]

        res = integrate_pieces(fv, domain_pieces(base, a, n + 2),
                               rel_tol=ENTRY_REL_TOL, counter=EVALS)
        return np.asarray(res.value)

    return _compute_once(_GAMMA_CACHE, (base.key(), a, n), compute)


def rank1_partition_fn(weight, l, a):
    """Z_l for a single source a via the orthonormal-polynomial route:
    l! a^{-(l-1)} Gamma_{l-1}(a).  Agrees with partition_fn up to an
    a-independent factor (different normalization of the last column)."""
    if a == 0:
        raise ValueError("a must be nonzero")
    g = _gamma_vector(weight, a, l)[l - 1]
    return math.factorial(l) * float(a) ** (-(l - 1)) * g


# ---------------------------------------------------------------------------
# expectations and the identity checks


def _expectation_with_diag(q):
    model = q.model
    wdef = q.deformed_weight()
    s_num, log_num, diag_n = _partition_logdet(model, wdef)
    s_den, log_den, diag_d = _partition_logdet(model, model.weight)
    if s_den == 0.0:
        raise ZeroDivisionError("original partition function vanished")
    val = s_num * s_den * math.exp(log_num - log_den)
    return val, {"cond_num": diag_n["cond"], "cond_den": diag_d["cond"]}


def expectation(q):
    """E_d(a_1..a_m; E; s): deformed partition function over the original."""
    return _expectation_with_diag(q)[0]


def _normalized_expectation_with_diag(q):
    val, diag = _expectation_with_diag(q)
    zero_q = ExpectationQuery(SourceModel(q.model.d, [], q.model.weight), q.E, q.s)
    ref, diag0 = _expectation_with_diag(zero_q)
    if ref == 0.0:
        raise ZeroDivisionError("zero-source expectation vanished (e.g. s=1, E=R)")
    out = val / ref
    cond = diag["cond_num"] + diag["cond_den"] + diag0["cond_num"] + diag0["cond_den"]
    return out, {"cond_sum": cond}


def normalized_expectation(q):
    """Ebar: expectation divided by the all-zero-source expectation."""
    return _normalized_expectation_with_diag(q)[0]


def _check_simple_sources(model, op):
    if any(m != 1 for _, m in model.sources):
        raise ValueError(f"{op} requires multiplicity-one sources")
    if model.rank < 1:
        raise ValueError(f"{op} requires at least one nonzero source")


def _rank_reduction_rhs_with_diag(q):
    model = q.model
    _check_simple_sources(model, "rank_reduction_rhs")
    d = model.d
    a = [v for v, _ in model.sources]
    m = len(a)
    num = np.empty((m, m))
    den = np.empty((m, m))
    cond_sum = 0.0
    for k, ak in enumerate(a):
        gam = _gamma_vector(model.weight, ak, d)
        for j in range(1, m + 1):
            g = gam[d - j]
            sub = ExpectationQuery(
                SourceModel(d - j + 1, [(ak, 1)], model.weight), q.E, q.s)
            eb, diag = _normalized_expectation_with_diag(sub)
            cond_sum += diag["cond_sum"]
            num[j - 1, k] = g * eb
            den[j - 1, k] = g
    sd, logd, cond_d = _slogdet_with_cond(den)
    if sd == 0.0:
        raise ZeroDivisionError("Gamma determinant vanished")
    sn, logn, cond_n = _slogdet_with_cond(num)
    val = sn * sd * math.exp(logn - logd) if sn != 0.0 else 0.0
    return val, {"cond_sum": cond_sum + cond_d + cond_n}


def rank_reduction_rhs(q):
    """det[Gamma_{d-j}(a_k) Ebar_{d-j+1}(a_k)] / det[Gamma_{d-j}(a_k)],
    with every Ebar a rank-one normalized expectation at dimension d-j+1."""
    return _rank_reduction_rhs_with_diag(q)[0]


def verify_main_identity(q):
    """Both sides of the rank-reduction identity through disjoint pipelines:
    the m-source Andreief determinant versus the rank-one ladder."""
    model = q.model
    _check_simple_sources(model, "verify_main_identity")
    lhs, dl = _normalized_expectation_with_diag(q)
    rhs, dr = _rank_reduction_rhs_with_diag(q)
    return _make_report(lhs, rhs, [v for v, _ in model.sources],
                        dl["cond_sum"] + dr["cond_sum"])


def z_ratio_det_check(weight, d, a):
    """Z_d(a_1..a_m)/Z_d against det[a_k^{m-j} Z_{d+1-j}(a_k)/Z_{d+1-j}]
    divided by Delta_m(a) = prod_{j<k} (a_j - a_k)."""
    a = [float(v) for v in a]
    m = len(a)
    if m > d:
        raise ValueError("need m <= d")
    base = SourceModel(d, [], weight)

    def zratio(dim, val):
        num = SourceModel(dim, [(val, 1)], weight)
        sn, ln_, dn = _partition_logdet(num, weight)
        sdn, ld, dd = _partition_logdet(SourceModel(dim, [], weight), weight)
        return sn * sdn * math.exp(ln_ - ld), dn["cond"] + dd["cond"]

    model = SourceModel(d, [(v, 1) for v in a], weight)
    sl, ll, diag_l = _partition_logdet(model, weight)
    sb, lb, diag_b = _partition_logdet(base, weight)
    lhs = sl * sb * math.exp(ll - lb)
    cond = diag_l["cond"] + diag_b["cond"]
    M = np.empty((m, m))
    for k in range(m):
        for j in range(1, m + 1):
            zr, c = zratio(d + 1 - j, a[k])
            cond += c
            M[j - 1, k] = a[k] ** (m - j) * zr
    delta = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            delta *= a[i] - a[j]
    sM, logM, cond_M = _slogdet_with_cond(M)
    rhs = (sM * math.exp(logM) if sM != 0.0 else 0.0) / delta
    return _make_report(lhs, rhs, a, cond + cond_M)
