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

Both identity checks set an m-source ratio against rank-one ladders
M[j, k] = a_k^{m-j} Z_{d+1-j}(a_k) / Z_{d+1-j}, j, k = 1..m (_ladder): the
z-ratio check against det M / Delta(a), the rank-reduction identity against
det M(deformed weight) / det M(base weight).

Every check runs in two phases through a Plan: it first registers the keys
it will read (model determinants and the report of an identity or z-ratio
check), then reads them from run-wide tables.  Between the phases Plan.fill
computes the keys the tables lack for every check in the plan together:
entry quadratures that start on the same nodes share their integrand work
there (_entry_vectors), the model matrices are factored in one stack per
size (_slogdet_with_cond), and so, once those are in, are the m x m
matrices of every report.  A library call is a plan of one; the harness
fills one plan per suite and weight, and each record then reads its stored
report.  Sharing never mixes the two sides of an identity: each entry
vector and each determinant is bitwise what it is when computed alone.

Plan.fill is the one writer of the run-wide tables.  It holds the module
lock _FILL for its whole run, so each key is computed once, by one fill,
and a stored value is final; readers only read (_read), after their own
plan is filled.
"""

import math
import threading
from dataclasses import dataclass, field, replace

from .weights import (
    CONFLUENT_GAP, EVALS, DeformedWeight, IntervalSet, HankelNotPD, NearConfluent,
    QuadratureError, _log_integrand_peak_and_cutoff, deform_weight, domain_pieces,
    integrate_pieces, live_pieces, orthonormal_basis, panel_nodes,
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

# held by Plan.fill for its whole run: the one writer of the tables below
_FILL = threading.Lock()
# run-wide tables of a value or the _Failed its computation met; the first
# three are memos of _compute_once, the last two are written by Plan.fill
_BASIS_CACHE = {}
_ROW_CACHE = {}
_ENTRY_CACHE = {}
_LOGDET_CACHE = {}
_REPORT_CACHE = {}
# the errors a computation can meet on valid input, stored under its key
_STORED = (QuadratureError, ValueError, ArithmeticError)


def clear_caches():
    with _FILL:
        for table in (_BASIS_CACHE, _ROW_CACHE, _ENTRY_CACHE, _LOGDET_CACHE, _REPORT_CACHE):
            table.clear()
        _log_integrand_peak_and_cutoff.cache_clear()


class _Failed:
    """The type and arguments of a stored error.  Every reader raises a
    fresh exception, so no traceback, nor the arrays its frames hold,
    outlives the computation, and no two threads raise one object."""

    __slots__ = ("kind", "args")

    def __init__(self, exc):
        self.kind, self.args = type(exc), exc.args


def _read(table, key):
    """table[key], raising the error stored there instead of a value."""
    value = table[key]
    if isinstance(value, _Failed):
        raise value.kind(*value.args)
    return value


def _stored(compute, *args):
    """compute(*args), or the _Failed of an error of _STORED it raises."""
    try:
        return compute(*args)
    except _STORED as exc:
        return _Failed(exc)


def _compute_once(cache, key, compute):
    """cache[key], computed and stored on first use.  An error of _STORED
    is stored under the key and raised to every caller; any other leaves
    the key unset.  Callers hold _FILL, or run alone."""
    if key not in cache:
        cache[key] = _stored(compute)
    return _read(cache, key)


# ---------------------------------------------------------------------------
# domain types


class SourceModel:
    """Dimension d, distinct nonzero source eigenvalues as (value,
    multiplicity) pairs (remaining eigenvalues zero), and a weight."""

    __slots__ = ("d", "sources", "weight")

    def __init__(self, d, sources, weight):
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > MAX_DIMENSION:
            raise ValueError(f"d={d} beyond the supported cap {MAX_DIMENSION} "
                             "(raise matrix_model.MAX_DIMENSION to override)")
        norm = []
        for a, mult in sources:
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
    """Inputs of the expectation of prod_j (1 - s chi_E(lambda_j)).

    The model's weight must be undeformed: the query deforms it by its own
    E and s, and the identity's rank-one ladders read both weights.
    """

    __slots__ = ("model", "E", "s")

    def __init__(self, model, E, s):
        if isinstance(model.weight, DeformedWeight):
            raise ValueError("the model's weight is already deformed; pass the base "
                             "weight and put E and s in the query")
        self.model = model
        self.E = E if isinstance(E, IntervalSet) else IntervalSet(E)
        self.s = float(s)

    def deformed_weight(self):
        return deform_weight(self.model.weight, self.E, self.s)


@dataclass
class IdentityReport:
    """Both sides of a check, and the errors every report computes from them."""

    lhs: float
    rhs: float
    diag: dict = field(default_factory=dict)
    abs_err: float = field(init=False)
    rel_err: float = field(init=False)

    def __post_init__(self):
        self.abs_err = abs(self.lhs - self.rhs)
        self.rel_err = self.abs_err / max(abs(self.lhs), abs(self.rhs), 1e-300)


def _make_report(lhs, rhs, sources, cond_sum):
    """Report with the diagnostics of both identity checks: the smallest
    source gap, the summed conditioning and the noise floor it predicts."""
    gaps = [abs(x - y) for i, x in enumerate(sources) for y in sources[:i]]
    diag = {
        "min_source_gap": min(gaps, default=math.inf),
        "cond_sum": cond_sum,
        "noise_est": cond_sum * ENTRY_REL_NOISE,
    }
    return IdentityReport(lhs, rhs, diag)


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
    import numpy as np
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
    import numpy as np
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
    below 2^-60 of it, R taken over the call's points.  Where x > 0 meets a
    negative node with x * node < -4, the series alternates and cancels, so
    those points take the closed form.
    """

    __slots__ = ("nodes", "r", "maxnode", "series_coeffs", "groups")

    def __init__(self, nodes):
        import numpy as np
        self.nodes = tuple(float(v) for v in nodes)
        if not self.nodes:
            raise ValueError("empty node prefix")
        self.r = len(self.nodes)
        self.maxnode = max(abs(v) for v in self.nodes)
        nmax = _SERIES_CUT[-1]  # the most terms values_fused ever sums
        h = _h_complete(self.nodes, nmax)
        coeffs = np.zeros(nmax + 1)
        f = float(math.factorial(self.r - 1))
        coeffs[0] = h[0] / f
        for n in range(1, nmax + 1):
            f *= n + self.r - 1
            coeffs[n] = h[n] / f
        # coeffs[0] = 1 / (r - 1)! is never zero, so the trim leaves it
        self.series_coeffs = np.trim_zeros(coeffs, "b")
        self.groups = _closed_groups(self.nodes) if self.maxnode > 0 else None

    def values_fused(self, x, logw):
        """psi(x) * e^{logw(x)} for an array x."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        zone = np.ones(x.shape, dtype=bool) if self.maxnode == 0.0 else \
            (np.abs(x) * self.maxnode <= SERIES_ZONE) & ~((x > 0) & (x * min(self.nodes) < -4))
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
# plans: the tables a group of checks reads, filled as stacks


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


def _row(prefix):
    """The one DividedExpRow of a node prefix."""
    return _compute_once(_ROW_CACHE, prefix, lambda: DividedExpRow(prefix))


class _PointSet:
    """The round-0 nodes of one layout of live pieces, and what every entry
    quadrature starting there shares: the log-density, the row values of
    each prefix and the monic values of each basis, each computed once, on
    first use."""

    __slots__ = ("weight", "live", "x", "logw", "rows", "monic")

    def __init__(self, weight, live):
        self.weight, self.live = weight, live
        self.x = self.logw = None
        self.rows, self.monic = {}, {}

    def values(self, row, basis):
        import numpy as np
        if self.x is None:
            self.x = panel_nodes(self.live)
            self.logw = np.asarray(self.weight.log_density(self.x), dtype=float)
        vals = self.rows.get(row.nodes)
        if vals is None:
            vals = self.rows[row.nodes] = row.values_fused(self.x, self.logw)
        monic = self.monic.get(basis)
        if monic is None:
            monic = self.monic[basis] = basis.eval_monic(self.x)
        return vals[:, None] * monic


def _entry_vector(weight, basis, prefix, pieces, points):
    """Integrals of psi_prefix(x) * monic_q(x) against the weight over
    pieces, q < basis.n; the round-0 integrand values come from points."""
    import numpy as np

    def compute():
        row = _row(prefix)
        first = [points]

        def fv(x):
            if first:  # integrate_pieces calls f first on the round-0 nodes
                return first.pop().values(row, basis)
            logw = np.asarray(weight.log_density(x), dtype=float)
            return row.values_fused(x, logw)[:, None] * basis.eval_monic(x)

        res = integrate_pieces(fv, pieces, rel_tol=ENTRY_REL_TOL, counter=EVALS)
        return np.asarray(res.value)

    key = (weight.key(), basis.weight.key(), basis.n, prefix)
    return _compute_once(_ENTRY_CACHE, key, compute)


def _entry_vectors(entries):
    """{entry key: vector, or the _Failed that stopped it} for entries
    {key: (weight, basis, prefix)}.  Entries whose round-0 quadrature
    nodes coincide are computed together, sharing one _PointSet, which is
    dropped before the next layout."""
    out, layouts = {}, {}
    for key, (weight, basis, prefix) in entries.items():
        pieces = live = None
        if key not in _ENTRY_CACHE:
            tilt = max([0.0] + [v for v in prefix])
            pieces = _stored(domain_pieces, weight, tilt, len(prefix) + basis.n + 4)
            if isinstance(pieces, _Failed):
                out[key] = pieces
                continue
            live = tuple((lo, hi) for lo, hi, _ in live_pieces(pieces))
        layouts.setdefault((weight.undeformed().key(), live), []).append(
            (key, weight, basis, prefix, pieces))
    for (_, live), members in layouts.items():
        points = _PointSet(members[0][1], live)
        for key, weight, basis, prefix, pieces in members:
            out[key] = _stored(_entry_vector, weight, basis, prefix, pieces, points)
    return out


def _slogdet_with_cond(A):
    """[(sign, log|det|, cond)] for each matrix of a (k, n, n) stack, with
    power-of-two row/column equilibration.

    Entry magnitudes can span tens of orders (high moments against slowly
    decaying weights); plain LU then loses digits to backward error at the
    global scale.  Scaling by exact powers of two keeps the factorization
    error commensurate with per-entry relative error.  cond is the
    first-order sensitivity of log det to relative entry perturbations.
    Every matrix gets the same three rounds of row then column scaling; a
    matrix with a zero row or column, or a zero pivot, is (0, -inf, inf).
    One slogdet and one inv cover the stack, and each matrix's triple is
    bitwise what a stack of one gives.
    """
    import numpy as np
    B = np.array(A, dtype=float)
    shift = np.zeros(len(B), dtype=int)
    dead = np.zeros(len(B), dtype=bool)
    for _ in range(3):
        for axis in (2, 1):  # row maxima, then column maxima
            peak = np.abs(B).max(axis=axis)
            zero = peak == 0.0
            dead |= zero.any(axis=1)
            peak[zero] = 1.0
            e = np.round(np.log2(peak)).astype(int)
            B /= np.exp2(e)[:, :, None] if axis == 2 else np.exp2(e)[:, None, :]
            shift += e.sum(axis=1)
    sign, logabs = np.linalg.slogdet(B)
    ok = ~dead & (sign != 0)
    cond = np.full(len(B), math.inf)
    if ok.any():
        L = B[ok]
        prod = np.abs(L) * np.abs(np.swapaxes(np.linalg.inv(L), 1, 2))
        cond[ok] = prod.reshape(len(L), -1).sum(axis=1)
    return [(float(sg), float(la) + int(sh) * math.log(2), float(c)) if good
            else (0.0, -math.inf, math.inf)
            for sg, la, sh, c, good in zip(sign, logabs, shift, cond, ok)]


def _factored(mats):
    """_slogdet_with_cond of each square matrix of mats, in order, from one
    stack per size."""
    import numpy as np
    dets = {}
    for n in dict.fromkeys(map(len, mats)):
        dets[n] = iter(_slogdet_with_cond(np.array([A for A in mats if len(A) == n])))
    return [next(dets[len(A)]) for A in mats]


class Plan:
    """The tables a group of checks reads, filled in two phases.

    First each check registers what it will read: model determinants
    (weight, node sequence) and its report.  Then fill() computes what the
    run-wide tables lack: the entry vectors per point set (_entry_vectors),
    every missing model matrix factored in one stack per size, and then the
    reports, whose m x m matrices are again one stack per size.  An error
    is stored under the key whose computation met it and raised to whoever
    reads that key; a key's value never depends on what else is in the
    plan.
    """

    def __init__(self):
        self.models = {}  # (weight key, nodes) -> weight
        self.reports = {}  # report key -> gather(): (its matrices, finish(their dets))

    def model(self, model, weight):
        """Register Z of the model against weight; returns its table key."""
        key = (weight.key(), model.nodes())
        self.models[key] = weight
        return key

    def expectation(self, q):
        """Register the numerator and denominator keys of E(q)."""
        return self.model(q.model, q.deformed_weight()), self.model(q.model, q.model.weight)

    def fill(self):
        """Compute and store, under _FILL, every registered key that its
        table lacks; a key that is there, from any fill, is not recomputed."""
        import numpy as np
        with _FILL:
            rows, entries = {}, {}
            for key, weight in self.models.items():
                if key in _LOGDET_CACHE:
                    continue
                nodes = key[1]
                basis = _stored(_column_basis, weight, len(nodes))
                if isinstance(basis, _Failed):
                    _LOGDET_CACHE[key] = basis
                    continue
                rows[key] = [(weight.key(), basis.weight.key(), basis.n, nodes[:r])
                             for r in range(1, len(nodes) + 1)]
                for ekey in rows[key]:
                    entries[ekey] = (weight, basis, ekey[3])
            vectors = _entry_vectors(entries)
            built = []
            for key, ekeys in rows.items():
                d = len(ekeys)
                A = np.empty((d, d))
                for r, ekey in enumerate(ekeys):
                    vec = vectors[ekey]
                    if isinstance(vec, _Failed):
                        _LOGDET_CACHE[key] = vec
                        break
                    A[r, :] = vec[:d]
                else:
                    built.append((key, A))
            for (key, A), (sign, logabs, cond) in zip(built, _factored([A for _, A in built])):
                _LOGDET_CACHE[key] = (sign, logabs + math.log(math.factorial(len(A))), cond)
            pending = [(key, _stored(gather)) for key, gather in self.reports.items()
                       if key not in _REPORT_CACHE]
            dets = iter(_factored([A for _, got in pending if not isinstance(got, _Failed)
                                   for A in got[0]]))
            for key, got in pending:
                if not isinstance(got, _Failed):
                    mats, finish = got
                    got = _stored(finish, [next(dets) for _ in mats])
                _REPORT_CACHE[key] = got


def prepare(register, arglist):
    """Fill, as one plan, the tables that register(plan, *args) names for
    every args of arglist, so that each check run afterwards only reads.
    A check whose inputs are rejected while registering adds nothing: its
    own run raises the same error."""
    plan = Plan()
    for args in arglist:
        try:
            register(plan, *args)
        except ValueError:
            pass
    plan.fill()


def _filled(register):
    """A plan of one: register(plan)'s result, once the plan is filled."""
    plan = Plan()
    out = register(plan)
    plan.fill()
    return out


# ---------------------------------------------------------------------------
# expectations and the identity checks


def _expectation(num, den):
    """(Z_num / Z_den, cond_num, cond_den) from two model keys."""
    s_num, log_num, c_num = _read(_LOGDET_CACHE, num)
    s_den, log_den, c_den = _read(_LOGDET_CACHE, den)
    if s_den == 0.0:
        raise ZeroDivisionError("original partition function vanished")
    return s_num * s_den * math.exp(log_num - log_den), c_num, c_den


def expectation(q):
    """E_d(a_1..a_m; E; s): deformed partition function over the original."""
    return _expectation(*_filled(lambda plan: plan.expectation(q)))[0]


def _ladder(plan, weight, d, a):
    """Register the rank-one ladder of sources a at dimension d against
    weight, M[j, k] = a_k^{m-j} Z_{d+1-j}(a_k) / Z_{d+1-j}, j, k = 1..m;
    returns read(cond): M, and cond plus each rung's conditioning in turn."""
    import numpy as np
    m = len(a)
    rungs = [[(plan.model(SourceModel(d + 1 - j, [(ak, 1)], weight), weight),
               plan.model(SourceModel(d + 1 - j, [], weight), weight))
              for j in range(1, m + 1)] for ak in a]

    def read(cond):
        M = np.empty((m, m))
        for k in range(m):
            for j in range(1, m + 1):
                ratio, c_num, c_den = _expectation(*rungs[k][j - 1])
                cond += c_num + c_den
                M[j - 1, k] = a[k] ** (m - j) * ratio
        return M, cond
    return read


def plan_identity(plan, q):
    """Register the report of the rank-reduction identity of q, the
    normalized expectation E(q) / E(q with no sources) against
    det M(W_def) / det M(W), the rank-one ladders of the deformed and the
    base weight; returns its key."""
    model = q.model
    if any(m != 1 for _, m in model.sources):
        raise ValueError("verify_main_identity requires multiplicity-one sources")
    if model.rank < 1:
        raise ValueError("verify_main_identity requires at least one nonzero source")
    d, W = model.d, model.weight
    key = ("identity", W.key(), q.E.intervals, q.s, model.nodes())
    if key in _REPORT_CACHE or key in plan.reports:
        return key
    a = [v for v, _ in model.sources]
    num = plan.expectation(q)
    den = plan.expectation(ExpectationQuery(SourceModel(d, [], W), q.E, q.s))
    ladders = [_ladder(plan, w, d, a) for w in (q.deformed_weight(), W)]

    def gather():
        val, c_num, c_den = _expectation(*num)
        ref, c_num0, c_den0 = _expectation(*den)
        if ref == 0.0:
            raise ZeroDivisionError("zero-source expectation vanished (e.g. s=1, E=R)")
        (M_def, cond_def), (M, cond) = [read(0.0) for read in ladders]

        def finish(dets):
            (sn, logn, cond_n), (sd, logd, cond_d) = dets
            if sd == 0.0:
                raise ZeroDivisionError("rank-one ladder determinant vanished")
            rhs = sn * sd * math.exp(logn - logd) if sn != 0.0 else 0.0
            return _make_report(val / ref, rhs, a, c_num + c_den + c_num0 + c_den0
                                + (cond_def + cond + cond_n + cond_d))
        return [M_def, M], finish
    plan.reports[key] = gather
    return key


def verify_main_identity(q):
    """Both sides of the rank-reduction identity through disjoint pipelines:
    the m-source Andreief determinant versus the rank-one ladders."""
    rep = _read(_REPORT_CACHE, _filled(lambda plan: plan_identity(plan, q)))
    return replace(rep, diag=dict(rep.diag))  # a copy: editing it leaves the table


def plan_z_ratio(plan, weight, d, a):
    """Register the report of the z-ratio check of sources a at dimension d;
    returns its key."""
    a = [float(v) for v in a]
    m = len(a)
    if m > d:
        raise ValueError("need m <= d")
    base = SourceModel(d, [], weight)
    model = SourceModel(d, [(v, 1) for v in a], weight)
    key = ("z-ratio", weight.key(), d, tuple(a))
    if key in _REPORT_CACHE or key in plan.reports:
        return key
    lhs = plan.model(model, weight), plan.model(base, weight)
    ladder = _ladder(plan, weight, d, a)
    delta = math.prod((a[i] - a[j] for i in range(m) for j in range(i + 1, m)), start=1.0)

    def gather():
        val, cond_l, cond_b = _expectation(*lhs)
        M, cond = ladder(cond_l + cond_b)

        def finish(dets):
            ((sM, logM, cond_M),) = dets
            rhs = (sM * math.exp(logM) if sM != 0.0 else 0.0) / delta
            return _make_report(val, rhs, a, cond + cond_M)
        return [M], finish
    plan.reports[key] = gather
    return key


def z_ratio_det_check(weight, d, a):
    """Z_d(a_1..a_m)/Z_d against det[a_k^{m-j} Z_{d+1-j}(a_k)/Z_{d+1-j}]
    divided by Delta_m(a) = prod_{j<k} (a_j - a_k)."""
    rep = _read(_REPORT_CACHE, _filled(lambda plan: plan_z_ratio(plan, weight, d, a)))
    return replace(rep, diag=dict(rep.diag))
