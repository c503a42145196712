"""Weight functions, exact moments, adaptive quadrature and orthonormal
polynomials.

Supported weights: normalized Gaussian e^{-x^2/2}/sqrt(2 pi) on R, Laguerre
e^{-x} on [0, inf), exp-polynomial e^{-V(x)} with even positive-leading V,
and indicator deformations W(x) (1 - s chi_E(x)) of any of these.  The
Gaussian and Laguerre weights also give their moments as exact rationals.

Quadrature is adaptive Gauss-Kronrod (integrate_pieces) over the pieces
that domain_pieces returns.  Each infinite end of the domain is cut, by
doubling outward, where the log integrand deg*log|x| + tilt*x + log W(x) has
fallen 140 nats below its peak; no tail bound is computed, and the panel
error alone decides convergence.  The cutoffs read only the undeformed
weight, so one memoised search serves all its deformations.  Panels
never straddle a deformation endpoint, so the integrand is analytic on every
panel.  A panel's value is the 41-point Kronrod extension of the 20-point
Gauss-Legendre rule, and its error the difference of the two, which share
the 20 Gauss values; one (2, 41) matrix product gives both sums.  The
integrand is called once per refinement round: the 41 nodes of all initial
panels go in one call, and each later round splits the fewest worst panels
that leave the remaining error within tolerance and measures all their
halves in one call.

Orthonormal polynomials come from a discretized Stieltjes procedure on the
same domain pieces, in double precision with exactly rounded sums; no
moment matrix is formed.

numpy is imported inside the functions that use it, here and in
matrix_model and mc, so it loads on the first float job and a run of exact
suites alone never loads it.
"""

import functools
import math
import threading
from fractions import Fraction
from typing import NamedTuple


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance."""


class HankelNotPD(ValueError):
    """Moment matrix is not positive definite (degenerate weight)."""


class NearConfluent(ValueError):
    """Evaluation points too close for a stable alternant / confluent ratio."""


CONFLUENT_GAP = 1e-8


INF = float("inf")


def _as_float(x):
    if x in ("inf", "+inf"):
        return INF
    if x == "-inf":
        return -INF
    return float(x)


class IntervalSet:
    """Ordered disjoint closed intervals with +-inf endpoints allowed."""

    __slots__ = ("intervals",)

    def __init__(self, pairs=()):
        ivs = []
        for lo, hi in pairs:
            lo, hi = _as_float(lo), _as_float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"interval [{lo}, {hi}] has a NaN endpoint")
            if hi < lo:
                raise ValueError(f"interval [{lo}, {hi}] is empty")
            ivs.append((lo, hi))
        ivs.sort()
        merged = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.intervals = tuple(merged)

    @property
    def empty(self):
        return not self.intervals

    def indicator(self, x):
        import numpy as np
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (x >= lo) & (x <= hi)
        return out

    def contains(self, x):
        """Whether the float x lies in the set; indicator for one scalar."""
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def finite_endpoints(self):
        pts = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                pts.append(lo)
            if math.isfinite(hi):
                pts.append(hi)
        return pts

    def to_spec(self):
        def enc(v):
            if v == INF:
                return "inf"
            if v == -INF:
                return "-inf"
            return v
        return [[enc(lo), enc(hi)] for lo, hi in self.intervals]

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalSet({list(self.intervals)})"


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Base class; concrete weights implement the density and decay data."""

    kind = "abstract"
    exact_moments = False

    def support(self):
        raise NotImplementedError

    def log_density(self, x):
        """Log of the undeformed density, vectorized."""
        raise NotImplementedError

    def max_tilt(self):
        """Supremum of a such that integral of e^{ax} W(x) dx converges."""
        raise NotImplementedError

    def undeformed(self):
        return self

    @property
    def deform_set(self):
        return IntervalSet()

    @property
    def deform_s(self):
        return 0.0

    def key(self):
        return (self.kind,)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<Weight {self.key()}>"

    def moment_exact(self, j):
        raise ValueError(f"{self.kind} weight has no exact moments")


class GaussianWeight(Weight):
    """e^{-x^2/2} / sqrt(2 pi) on the whole line; M_{2k} = (2k-1)!!."""

    kind = "gaussian"
    exact_moments = True

    def support(self):
        return (-INF, INF)

    def log_density(self, x):
        return -0.5 * x * x - 0.5 * math.log(2 * math.pi)

    def max_tilt(self):
        return INF

    def moment_exact(self, j):
        if j % 2:
            return Fraction(0)
        out = 1
        for k in range(1, j, 2):
            out *= k
        return Fraction(out)


class LaguerreWeight(Weight):
    """e^{-x} on [0, inf); M_j = j!."""

    kind = "laguerre"
    exact_moments = True

    def support(self):
        return (0.0, INF)

    def log_density(self, x):
        return -x

    def max_tilt(self):
        return 1.0

    def moment_exact(self, j):
        return Fraction(math.factorial(j))


class ExpPolyWeight(Weight):
    """e^{-V(x)} with polynomial V of even degree and positive leading term."""

    kind = "exppoly"
    exact_moments = False

    def __init__(self, coeffs):
        """coeffs: ascending coefficients of V, so V(x) = sum c_k x^k."""
        coeffs = tuple(float(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        deg = len(coeffs) - 1
        if deg < 2 or deg % 2 or coeffs[-1] <= 0:
            raise ValueError("V must have even degree >= 2 with positive leading term")
        self.coeffs = coeffs

    def support(self):
        return (-INF, INF)

    def log_density(self, x):
        import numpy as np
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return -acc

    def max_tilt(self):
        return INF

    def key(self):
        return (self.kind, self.coeffs)


class DeformedWeight(Weight):
    """base(x) * (1 - s chi_E(x))."""

    kind = "deformed"
    exact_moments = False

    def __init__(self, base, E, s):
        if isinstance(base, DeformedWeight):
            raise ValueError("nested deformations are not supported")
        self.base = base
        self.E = E if isinstance(E, IntervalSet) else IntervalSet(E)
        self.s = float(s)

    def support(self):
        return self.base.support()

    def log_density(self, x):
        return self.base.log_density(x)

    def max_tilt(self):
        return self.base.max_tilt()

    def undeformed(self):
        return self.base

    @property
    def deform_set(self):
        return self.E

    @property
    def deform_s(self):
        return self.s

    def key(self):
        return ("deformed", self.base.key(), self.E.intervals, self.s)


class UnknownField(ValueError):
    """A weight spec holds a key the builder does not read; .key names it."""

    def __init__(self, key, known):
        super().__init__(f"unknown field (expected one of {known})")
        self.key = key


def weight_from_spec(spec):
    """Build an undeformed weight from {kind} or, for kind exppoly,
    {kind, coeffs}.  Any other key is rejected: a deformation belongs to
    the suite (its E and s), not to the weight."""
    kind = spec.get("kind")
    known = ["kind"] + (["coeffs"] if kind == "exppoly" else [])
    for key in spec:
        if key not in known:
            raise UnknownField(key, known)
    if kind == "gaussian":
        return GaussianWeight()
    if kind == "laguerre":
        return LaguerreWeight()
    if kind == "exppoly":
        return ExpPolyWeight(spec["coeffs"])
    raise ValueError(f"unknown weight kind {kind!r}")


def deform_weight(W, E, s):
    """W(x) (1 - s chi_E(x)); s = 0 or empty E integrates identically to W."""
    E = E if isinstance(E, IntervalSet) else IntervalSet(E)
    return DeformedWeight(W.undeformed(), E, s)


# ---------------------------------------------------------------------------
# adaptive quadrature


class QuadResult(NamedTuple):
    value: float
    error: float


@functools.cache
def _leggauss(n):
    import numpy as np
    return np.polynomial.legendre.leggauss(n)


def _jacobi_kronrod(n):
    """Recurrence coefficients a_0..a_2n, b_0..b_2n of the Jacobi-Kronrod
    matrix that extends the n-point Gauss-Legendre rule (Laurie 1997, Math.
    Comp. 66, 1133).  The first floor(3n/2) + 1 of them are the monic
    Legendre ones, a_k = 0, b_0 = 2 and b_k = k^2 / (4k^2 - 1); the rest
    follow from the mixed moments s, t of the algorithm, indexed from -1 as
    s[k + 1].
    """
    import numpy as np
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    i = np.arange(1.0, -(-3 * n // 2) + 1)  # 1..ceil(3n/2)
    b[0], b[1:len(i) + 1] = 2.0, i * i / (4.0 * i * i - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@functools.cache
def _kronrod(n):
    """(nodes, weights, gauss_weights) of the (2n+1)-point Gauss-Kronrod
    rule on [-1, 1], nodes ascending.  The n Gauss-Legendre nodes are the
    odd-indexed ones, and gauss_weights are their Gauss-Legendre weights.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix J, polished by
    one Newton step on det(x - J); the weights are the Christoffel numbers
    1 / sum_k q_k(x)^2 of the orthonormal polynomials of J (Golub-Welsch),
    summed over k < 2n + 1 for the Kronrod rule and k < n for the Gauss one.
    They are more accurate than squared eigenvector components, and than
    numpy's leggauss weights.  Nodes and weights are then made exactly
    symmetric.
    """
    import numpy as np
    a, b = _jacobi_kronrod(n)
    root = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root[1:], 1) + np.diag(root[1:], -1))
    # det(x - J) is the monic p_{2n+1}: p_{k+1} = (x - a_k) p_k - b_k p_{k-1}
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    for ak, bk in zip(a, b):
        p_prev, p, dp_prev, dp = (p, (x - ak) * p - bk * p_prev,
                                  dp, p + (x - ak) * dp - bk * dp_prev)
    x = x - p / dp
    # orthonormal q_{k+1} = ((x - a_k) q_k - sqrt(b_k) q_{k-1}) / sqrt(b_{k+1})
    q = [np.zeros_like(x), np.full_like(x, 1.0 / root[0])]
    for k in range(2 * n):
        q.append(((x - a[k]) * q[-1] - root[k] * q[-2]) / root[k + 1])
    squares = np.array(q[1:]) ** 2
    w = 1.0 / squares.sum(axis=0)
    # q_0..q_{n-1} are the Legendre ones, so the same sum over them at
    # the Gauss nodes gives the Gauss weights
    wg = 1.0 / squares[:n, 1::2].sum(axis=0)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2, (wg + wg[::-1]) / 2


@functools.cache
def _rule_matrix(n):
    """The (2, 2n+1) matrix whose product with a panel's values on the
    Kronrod nodes gives its Kronrod sum (row 0) and its Gauss sum (row 1:
    the Gauss weights at the odd-indexed nodes, zero elsewhere)."""
    import numpy as np
    _, kronrod, gauss = _kronrod(n)
    rule = np.zeros((2, 2 * n + 1))
    rule[0], rule[1, 1::2] = kronrod, gauss
    return rule


class _EvalCounter:
    """Running count of integrand evaluations, safe to share across threads."""

    __slots__ = ("n", "_lock")

    def __init__(self):
        self.n = 0
        self._lock = threading.Lock()

    def add(self, k):
        with self._lock:
            self.n += k


# integrand evaluations of every quadrature of the float suites in this process
EVALS = _EvalCounter()


_GAUSS_ORDER = 20  # Gauss-Legendre order of the pair; the Kronrod rule has 41 points


def live_pieces(pieces):
    """The pieces a quadrature measures: nonzero multiplier, positive length."""
    return [(lo, hi, mult) for lo, hi, mult in pieces if mult != 0.0 and hi > lo]


def panel_nodes(panels):
    """The Kronrod nodes of every panel (lo, hi, ...), panel by panel: the
    points of one integrand call of integrate_pieces."""
    import numpy as np
    lo, hi = (np.array(col, dtype=float)[:, None] for col in list(zip(*panels))[:2])
    return _nodes_on(lo, hi)


def _nodes_on(lo, hi):
    """panel_nodes of the panels [lo, hi], given as column arrays."""
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * _kronrod(_GAUSS_ORDER)[0]).ravel()


def _panels_to_split(errs, thresh):
    """Indices, in ascending order, of the fewest panels to split.

    errs holds one row per panel and one column per failing component.
    Panels rank by their largest errs / thresh; the chosen ones are the
    shortest prefix of that ranking whose removal leaves every column's
    remaining error within thresh.  A zero threshold makes every panel with
    error on that column rank first, so all of them split.
    """
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(errs > 0.0, errs / thresh, 0.0)
    order = np.argsort(-ratio.max(axis=1), kind="stable")
    # rest[k]: error left on the panels ranked k and below, summed from the
    # least bad upward
    rest = np.cumsum(errs[order[::-1]], axis=0)[::-1]
    fits = np.all(rest <= thresh, axis=1)
    k = int(np.argmax(fits)) if fits.any() else len(order)
    return np.sort(order[:k])


def integrate_pieces(f, pieces, rel_tol=1e-12, abs_tol=0.0, max_panels=4000, counter=None):
    """Adaptive Gauss-Kronrod over explicit pieces.

    f maps an x array to values of shape (npts,) or (npts, k); each piece is
    (lo, hi, mult) with a constant multiplier (deformation factor).  The
    result carries one value and error estimate per component.  Convergence:
    per-component error below max(abs_tol, rel_tol * |I_comp|, small fraction
    of the largest component).

    Each panel is measured on the 41 nodes of the Gauss-Kronrod extension of
    the 20-point Gauss-Legendre rule by one product with the (2, 41) rule
    matrix (_rule_matrix, built once per process), scaled by the panel's
    half-length times its multiplier: row 0 gives the 41-point Kronrod sum,
    its value, and row 1 the 20-point Gauss sum of the values at the Gauss
    nodes, and the error is |K41 - G20|.  The product has the same shape on every panel, so a
    panel's value does not depend on which others are measured with it.
    f is called once per refinement round: first on
    panel_nodes(live_pieces(pieces)), then once on the nodes of both halves
    of every panel split in the round.  A round splits the fewest panels,
    ranked by their largest error-to-threshold ratio over the failing
    components, whose errors leave the rest within every failing threshold
    (_panels_to_split).
    max_panels caps the total number of splits.
    """
    import numpy as np
    live = live_pieces(pieces)
    if not live:
        return QuadResult(np.zeros(1), np.zeros(1))

    rule = _rule_matrix(_GAUSS_ORDER)
    npts = rule.shape[1]

    def measure(panels):
        """Kronrod values and |Kronrod - Gauss| errors, one row per panel,
        from a single call of f on the Kronrod nodes of every panel."""
        lo, hi, mult = (np.array(col, dtype=float)[:, None] for col in zip(*panels))
        vals = np.asarray(f(_nodes_on(lo, hi)))
        if counter is not None:
            counter.add(npts * len(panels))
        sums = (rule @ vals.reshape(len(panels), npts, -1)) * (0.5 * (hi - lo) * mult)[:, None]
        k41 = sums[:, 0]
        if not np.isfinite(k41).all():
            raise QuadratureError("non-finite integrand value on a panel")
        return k41, np.abs(k41 - sums[:, 1])

    vals, errs = measure(live)  # one row per live panel
    splits = 0
    while True:
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        mass = np.abs(vals).sum(axis=0)  # L1 of panel sums: rounding floor
        scale = np.max(np.abs(total)) if len(total) else 0.0
        thresh = np.maximum(abs_tol, np.maximum(rel_tol * np.abs(total), 1e-3 * rel_tol * scale))
        thresh = np.maximum(thresh, np.maximum(1e-3 * rel_tol * mass, 1e-15 * mass))
        bad = toterr > thresh
        if not bad.any():
            return QuadResult(total, toterr)
        chosen = _panels_to_split(errs[:, bad], thresh[bad])
        splits += len(chosen)
        mids = [0.5 * (live[i][0] + live[i][1]) for i in chosen]
        if splits > max_panels or not all(
                live[i][0] < mid < live[i][1] for i, mid in zip(chosen, mids)):
            break  # over the cap, or a panel cannot split further in float
        lefts = [(live[i][0], mid, live[i][2]) for i, mid in zip(chosen, mids)]
        rights = [(mid, live[i][1], live[i][2]) for i, mid in zip(chosen, mids)]
        v2, e2 = measure(lefts + rights)
        n = len(chosen)
        for i, left in zip(chosen, lefts):
            live[i] = left
        live.extend(rights)
        vals[chosen], errs[chosen] = v2[:n], e2[:n]
        vals, errs = np.vstack([vals, v2[n:]]), np.vstack([errs, e2[n:]])
    raise QuadratureError(
        f"no convergence after {len(live)} panels; err={np.max(errs.sum(axis=0)):.3e}")


DOMAIN_DROP = 140.0  # nats below the peak where the domain is cut off


# the search reads the log integrand only at +-2^k, and gives up before 2^30
_LADDER = [2.0 ** k for k in range(31)]
_LOG_LADDER = [math.log(r) for r in _LADDER]


# one search per (undeformed weight, tilt, deg, side) until matrix_model.clear_caches;
# a run asks a few hundred keys, and the bound only caps a long-lived process
@functools.lru_cache(maxsize=1024)
def _log_integrand_peak_and_cutoff(W, tilt, deg, side):
    """Largest |x| worth integrating on one side (side = +1 right, -1 left).

    Finds the peak of deg*log|x| + tilt*x + log W(x) along the side, then
    doubles outward until the log integrand has fallen DOMAIN_DROP nats below
    the peak.  log W is evaluated on the whole ladder x = side * 2^k in one
    call; the other two terms are added per point in Python floats.
    """
    import numpy as np
    lo, hi = W.support()
    if side > 0 and hi != INF:
        return hi
    if side < 0 and lo != -INF:
        return lo
    xs = [side * r for r in _LADDER]
    # a steep potential may overflow at ladder points beyond the cut, which
    # the search never reads
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.asarray(W.log_density(np.array(xs)), dtype=float).tolist()
    logf = [deg * lr + tilt * x + b for lr, x, b in zip(_LOG_LADDER, xs, base)]

    k = 0
    best = logf[0]
    # crude peak search by doubling
    while True:
        v = logf[k + 1]
        if v <= best or _LADDER[k + 1] > 1e8:
            break
        k, best = k + 1, v
    while logf[k] > best - DOMAIN_DROP:
        k += 1
        if _LADDER[k] > 1e9:
            raise QuadratureError("tail cutoff search diverged (tilt too large?)")
    return xs[k]


def domain_pieces(W, tilt=0.0, deg=0):
    """Integration pieces (lo, hi, mult) for the possibly deformed weight,
    for integrands up to |x|^deg e^{tilt x} W(x).

    The two cutoffs read only the undeformed weight, the tilt and deg, so
    every deformation of one base weight shares them: each is searched once
    per process (_log_integrand_peak_and_cutoff is memoised); the
    deformation adds its finite endpoints as cuts and sets each piece's
    multiplier, 1 - s inside E and 1 outside.
    """
    if tilt >= W.max_tilt():
        raise QuadratureError(
            f"tilt {tilt} not integrable against {W.undeformed().kind} weight")
    base = W.undeformed()
    left = _log_integrand_peak_and_cutoff(base, tilt, deg, -1)
    right = _log_integrand_peak_and_cutoff(base, tilt, deg, +1)
    if right <= left:
        right = left + 1.0
    cuts = {left, right}
    s = W.deform_s
    for p in W.deform_set.finite_endpoints():
        if left < p < right:
            cuts.add(p)
    # geometric refinement of wide domains so adaptivity starts sensibly:
    # cuts at +-1, +-2, +-4, ... inside (left, right)
    scale = 1.0
    while scale < right:
        if scale > left:
            cuts.add(scale)
        scale *= 2
    scale = 1.0
    while -scale > left:
        if -scale < right:
            cuts.add(-scale)
        scale *= 2
    pts = sorted(cuts)
    pieces = []
    E = W.deform_set
    for a, b in zip(pts[:-1], pts[1:]):
        midpt = 0.5 * (a + b)
        mult = 1.0 - s if (s != 0.0 and E.contains(midpt)) else 1.0
        pieces.append((a, b, mult))
    return pieces


# ---------------------------------------------------------------------------
# orthonormal polynomials


class OrthoBasis:
    """Orthonormal polynomials p_0..p_{n-1} for W(x) dx, held as their
    three-term recurrence x p_j = sqrt(b_{j+1}) p_{j+1} + a_j p_j
    + sqrt(b_j) p_{j-1}.  b_0 is the mass of W, so p_0 = 1/sqrt(b_0), and the
    leading coefficients lead_j = 1/sqrt(b_0 b_1 ... b_j) are positive.
    """

    __slots__ = ("weight", "n", "alpha", "beta", "lead")

    def __init__(self, weight, n, alpha, beta):
        import numpy as np
        self.weight = weight
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self.lead = 1.0 / np.sqrt(np.cumprod(beta))

    def eval_all(self, x, m=None):
        """Values of p_0..p_m at x, shape (npts, m+1)."""
        import numpy as np
        if m is None:
            m = self.n - 1
        if m >= self.n:
            raise ValueError("degree beyond basis size")
        x = np.asarray(x, dtype=float)
        root = np.sqrt(self.beta)
        out = np.empty(x.shape + (m + 1,))
        out[..., 0] = self.lead[0]
        prev = np.zeros(x.shape)
        for j in range(m):
            out[..., j + 1] = ((x - self.alpha[j]) * out[..., j] - root[j] * prev) / root[j + 1]
            prev = out[..., j]
        return out

    def eval_monic(self, x, m=None):
        """Values of the monic family p_j / lead_j."""
        vals = self.eval_all(x, m)
        return vals / self.lead[: vals.shape[-1]]


_STIELTJES_ORDER = 80  # Gauss-Legendre points per domain piece


def _fsum(v):
    """Exactly rounded sum of an array; nan if it is not finite."""
    try:
        return math.fsum(v.tolist())
    except (OverflowError, ValueError):  # inf - inf, or an overflowing sum
        return math.nan


def orthonormal_basis(W, n):
    """First n orthonormal polynomials of W by the discretized Stieltjes
    procedure (Gautschi 2004, sec. 2.2).

    W is replaced by an 80-point Gauss-Legendre rule on every piece of its
    integration domain.  The monic recurrence pi_{j+1} = (x - a_j) pi_j
    - b_j pi_{j-1} runs on those nodes, with a_j and b_j taken from inner
    products summed exactly rounded (math.fsum), so the basis does not depend
    on summation order.  ||pi_j||^2 is the ratio of consecutive leading minors
    of the moment matrix, so a norm that is not positive and finite raises
    HankelNotPD: the weight is degenerate (e.g. fully removed) or changes sign.
    """
    import numpy as np
    if n < 1:
        raise ValueError("need n >= 1")
    live = live_pieces(domain_pieces(W, 0.0, 2 * n))
    if not live:
        raise HankelNotPD(f"moment matrix of {W.key()} not PD: the weight vanishes")
    x0, w0 = _leggauss(_STIELTJES_ORDER)
    lo, hi, mult = (np.array(col, dtype=float)[:, None] for col in zip(*live))
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi) + half * x0).ravel()
    w = (half * w0 * mult).ravel() * np.exp(W.log_density(x))
    # fsum is exact in any order, but far faster on terms of falling size
    order = np.argsort(-np.abs(w), kind="stable")
    x, w = x[order], w[order]
    alpha, beta = np.zeros(n), np.zeros(n)
    prev, cur, prev_norm = np.zeros_like(x), np.ones_like(x), 1.0
    for j in range(n):
        wp = w * cur * cur
        norm, first = _fsum(wp), _fsum(wp * x)
        if not (norm > 0.0 and math.isfinite(norm) and math.isfinite(first)):
            raise HankelNotPD(f"moment matrix of {W.key()} not PD: "
                              f"monic degree-{j} norm^2 is {norm:.3e}")
        alpha[j] = first / norm
        beta[j] = norm / prev_norm
        prev, cur, prev_norm = cur, (x - alpha[j]) * cur - beta[j] * prev, norm
    return OrthoBasis(W, n, alpha, beta)
