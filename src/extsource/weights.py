"""Weight functions, moments, adaptive quadrature and orthonormal polynomials.

Supported weights: normalized Gaussian e^{-x^2/2}/sqrt(2 pi) on R, Laguerre
e^{-x} on [0, inf), exp-polynomial e^{-V(x)} with even positive-leading V,
and indicator deformations W(x) (1 - s chi_E(x)) of any of these.

Quadrature is adaptive Gauss-Legendre on a truncated domain.  The truncation
point comes from a per-kind tail bound (Mills ratio for the Gaussian, a
geometric Gamma-tail bound for Laguerre-type decay, a leading-term bound for
exp-polynomial weights); the tolerance budget is split between tail and panel
error.  Panels never straddle a deformation endpoint, so the integrand is
analytic on every panel.  The integrand is called once per refinement step:
the 20- and 40-point nodes of all initial panels go in one call, and each
split measures both halves in one call.

Orthonormal polynomials come from a discretized Stieltjes procedure on the
same domain pieces, in double precision with exactly rounded sums; no
moment matrix is formed.
"""

import math
import threading
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance."""


class HankelNotPD(ValueError):
    """Moment matrix is not positive definite (degenerate weight)."""


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
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (x >= lo) & (x <= hi)
        return out

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

    @classmethod
    def from_spec(cls, pairs):
        return cls(pairs)

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

    def to_spec(self):
        return {"kind": self.kind}

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
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return -acc

    def max_tilt(self):
        return INF

    def key(self):
        return (self.kind, self.coeffs)

    def to_spec(self):
        return {"kind": self.kind, "coeffs": list(self.coeffs)}


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

    def to_spec(self):
        spec = dict(self.base.to_spec())
        spec["E"] = self.E.to_spec()
        spec["s"] = self.s
        return spec


class UnknownField(ValueError):
    """A weight spec holds a key the builder does not read; .key names it."""

    def __init__(self, key, known):
        super().__init__(f"unknown field (expected one of {known})")
        self.key = key


def weight_from_spec(spec):
    """Build a weight from {kind, parameters, E, s} (E/s optional); the only
    parameter is `coeffs`, for kind exppoly.  Any other key is rejected."""
    kind = spec.get("kind")
    known = ["kind", "E", "s"] + (["coeffs"] if kind == "exppoly" else [])
    for key in spec:
        if key not in known:
            raise UnknownField(key, known)
    if kind == "gaussian":
        base = GaussianWeight()
    elif kind == "laguerre":
        base = LaguerreWeight()
    elif kind == "exppoly":
        base = ExpPolyWeight(spec["coeffs"])
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    E = spec.get("E")
    s = spec.get("s", 0.0)
    if E is not None and s != 0.0:
        return DeformedWeight(base, IntervalSet.from_spec(E), s)
    return base


def deform_weight(W, E, s):
    """W(x) (1 - s chi_E(x)); s = 0 or empty E integrates identically to W."""
    E = E if isinstance(E, IntervalSet) else IntervalSet(E)
    return DeformedWeight(W.undeformed(), E, s)


# ---------------------------------------------------------------------------
# adaptive quadrature


class QuadResult(NamedTuple):
    value: float
    error: float


_GL_CACHE = {}


def _leggauss(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


class _EvalCounter:
    """Running count of integrand evaluations, safe to share across threads."""

    __slots__ = ("n", "_lock")

    def __init__(self):
        self.n = 0
        self._lock = threading.Lock()

    def add(self, k):
        with self._lock:
            self.n += k


_COARSE, _FINE = 20, 40  # Gauss-Legendre orders; their difference is the error


def integrate_pieces(f, pieces, rel_tol=1e-12, abs_tol=0.0, max_panels=4000, counter=None):
    """Adaptive Gauss-Legendre over explicit pieces.

    f maps an x array to values of shape (npts,) or (npts, k); each piece is
    (lo, hi, mult) with a constant multiplier (deformation factor).  The
    result carries one value and error estimate per component.  Convergence:
    per-component error below max(abs_tol, rel_tol * |I_comp|, small fraction
    of the largest component).

    f is called once per refinement step: once on the coarse and fine nodes
    of every initial piece, then once per split on the nodes of both halves.
    """
    live = [(lo, hi, mult) for lo, hi, mult in pieces if mult != 0.0 and hi > lo]
    if not live:
        return QuadResult(np.zeros(1), np.zeros(1))

    rules = [_leggauss(_COARSE), _leggauss(_FINE)]

    def measure(panels):
        """Fine values and |fine - coarse| errors, one row per panel, from a
        single call of f on the coarse then the fine nodes of every panel."""
        lo, hi, mult = (np.array(col, dtype=float)[:, None] for col in zip(*panels))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = np.concatenate([(mid + half * x0).ravel() for x0, _ in rules])
        vals = np.asarray(f(x))
        if vals.ndim == 1:
            vals = vals[:, None]
        if counter is not None:
            counter.add((_COARSE + _FINE) * len(panels))
        split = len(panels) * _COARSE
        coarse, fine = [
            half * (w0[:, None] * part.reshape(len(panels), len(w0), -1)).sum(axis=1) * mult
            for (_, w0), part in zip(rules, (vals[:split], vals[split:]))]
        return fine, np.abs(fine - coarse)

    vals, errs = measure(live)  # one row per live panel

    for _ in range(max_panels):
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        mass = np.abs(vals).sum(axis=0)  # L1 of panel sums: rounding floor
        scale = np.max(np.abs(total)) if len(total) else 0.0
        thresh = np.maximum(abs_tol, np.maximum(rel_tol * np.abs(total), 1e-3 * rel_tol * scale))
        thresh = np.maximum(thresh, np.maximum(1e-3 * rel_tol * mass, 1e-15 * mass))
        bad = toterr > thresh
        if not bad.any():
            return QuadResult(total, toterr)
        # split the panel contributing most to the failing components
        i = int(np.argmax(errs[:, bad].max(axis=1)))
        lo, hi, mult = live[i]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # cannot split further in float
        halves = [(lo, mid, mult), (mid, hi, mult)]
        v2, e2 = measure(halves)
        live[i] = halves[0]
        live.append(halves[1])
        vals[i], errs[i] = v2[0], e2[0]
        vals, errs = np.vstack([vals, v2[1:]]), np.vstack([errs, e2[1:]])
    raise QuadratureError(
        f"no convergence after {len(live)} panels; err={np.max(errs.sum(axis=0)):.3e}")


def _log_integrand_peak_and_cutoff(W, tilt, deg, side, drop=140.0):
    """Largest |x| worth integrating on one side (side = +1 right, -1 left).

    Finds the peak of deg*log|x| + tilt*x + log W(x) along the side, then
    doubles outward until the log integrand has fallen `drop` nats below the
    peak.  Used to seed the domain; the explicit tail bound is checked after
    integration.
    """
    lo, hi = W.support()
    if side > 0 and hi != INF:
        return hi
    if side < 0 and lo != -INF:
        return lo

    def logf(x):
        ax = abs(x)
        base = float(np.asarray(W.log_density(np.array([x]))).ravel()[0])
        return deg * math.log(max(ax, 1e-12)) + tilt * x + base

    x = side * 1.0
    best = logf(x)
    # crude peak search by doubling
    while True:
        xn = x * 2
        v = logf(xn)
        if v <= best or abs(xn) > 1e8:
            break
        x, best = xn, v
    cut = x
    while logf(cut) > best - drop:
        cut *= 2
        if abs(cut) > 1e9:
            raise QuadratureError("tail cutoff search diverged (tilt too large?)")
    return cut


def _tail_bound(W, tilt, deg, X, side):
    """First-order bound on the discarded tail beyond X (one side).

    The bound is integrand(X) / |d/dx log integrand(X)|, valid when the log
    integrand is concave-decreasing past X; for the Gaussian this is the
    Mills-ratio bound, for Laguerre-type decay the geometric Gamma-tail
    bound, for exp-polynomial weights the leading-term bound.
    """
    lo, hi = W.support()
    if (side > 0 and X >= hi) or (side < 0 and X <= lo):
        return 0.0
    h = abs(X) * 1e-6 + 1e-9
    def logf(x):
        base = float(np.asarray(W.log_density(np.array([x]))).ravel()[0])
        return deg * math.log(max(abs(x), 1e-12)) + tilt * x + base
    g = (logf(X + side * h) - logf(X)) / (side * h)  # d(logf)/dx at X
    rate = -side * g  # decay rate in the outward direction
    if rate <= 0:
        return INF
    return math.exp(logf(X)) / rate


def domain_pieces(W, tilt=0.0, deg=0, drop=140.0):
    """Integration pieces (lo, hi, mult) for the possibly deformed weight."""
    if tilt >= W.max_tilt():
        raise QuadratureError(
            f"tilt {tilt} not integrable against {W.undeformed().kind} weight")
    left = _log_integrand_peak_and_cutoff(W, tilt, deg, -1, drop)
    right = _log_integrand_peak_and_cutoff(W, tilt, deg, +1, drop)
    if right <= left:
        right = left + 1.0
    cuts = {left, right}
    s = W.deform_s
    for p in W.deform_set.finite_endpoints():
        if left < p < right:
            cuts.add(p)
    # geometric refinement of wide domains so adaptivity starts sensibly
    for anchor in (0.0,):
        scale = 1.0
        while anchor + scale < right:
            if anchor + scale > left:
                cuts.add(anchor + scale)
            scale *= 2
        scale = 1.0
        while anchor - scale > left:
            if anchor - scale < right:
                cuts.add(anchor - scale)
            scale *= 2
    pts = sorted(cuts)
    pieces = []
    E = W.deform_set
    for a, b in zip(pts[:-1], pts[1:]):
        midpt = 0.5 * (a + b)
        mult = 1.0 - s if (s != 0.0 and bool(E.indicator(midpt))) else 1.0
        pieces.append((a, b, mult))
    return pieces


def integrate(W, f, tol=1e-12):
    """integral of f(x) W(x) dx with the deformation factor of W applied.

    f must be vectorized (accept an ndarray) and be dominated by W's decay.
    Returns QuadResult(value, error); error combines the panel estimate and
    the tail bound.  Raises QuadratureError when the tolerance is
    unreachable.
    """
    deg_hint = 32

    def fv(x):
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            vals = np.broadcast_to(vals, x.shape).copy()
        return vals * np.exp(W.log_density(x))

    pieces = domain_pieces(W, 0.0, deg_hint)
    res = integrate_pieces(fv, pieces, rel_tol=1e-13, abs_tol=0.5 * tol)
    left, right = pieces[0][0], pieces[-1][1]
    tail = _tail_bound(W, 0.0, deg_hint, right, +1) + _tail_bound(W, 0.0, deg_hint, left, -1)
    value = float(res.value[0])
    err = float(res.error[0]) + tail
    if err > max(tol, 1e-13 * abs(value)):
        raise QuadratureError(f"requested tol {tol}, achieved {err:.3e}")
    return QuadResult(value, err)


# ---------------------------------------------------------------------------
# moments


def moment(W, j, tol=1e-12):
    """j-th moment of W; exact Fraction for Gaussian/Laguerre, float otherwise."""
    if j < 0:
        raise ValueError("moment index must be >= 0")
    if W.exact_moments:
        return W.moment_exact(j)
    if isinstance(W, DeformedWeight) and W.base.exact_moments:
        base = float(W.base.moment_exact(j))
        corr = 0.0
        for lo0, hi0 in W.E.intervals:
            slo, shi = W.base.support()
            lo, hi = max(lo0, slo), min(hi0, shi)
            if hi <= lo:
                continue
            fv = lambda x: x ** j * np.exp(W.base.log_density(x))
            if not math.isfinite(hi):
                hi = _log_integrand_peak_and_cutoff(W.base, 0.0, j, +1)
            if not math.isfinite(lo):
                lo = _log_integrand_peak_and_cutoff(W.base, 0.0, j, -1)
            res = integrate_pieces(fv, [(lo, hi, 1.0)], rel_tol=1e-13, abs_tol=0.1 * tol)
            corr += float(res.value[0])
        return base - W.s * corr
    res = integrate(W, lambda x: x ** j if j else np.ones_like(x), tol)
    return res.value


class MomentTable:
    """Moments M_0..M_jmax of one weight."""

    __slots__ = ("weight", "values")

    def __init__(self, weight, jmax, tol=1e-12):
        self.weight = weight
        self.values = [moment(weight, j, tol) for j in range(jmax + 1)]

    @property
    def jmax(self):
        return len(self.values) - 1

    def __getitem__(self, j):
        return self.values[j]


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
        self.weight = weight
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self.lead = 1.0 / np.sqrt(np.cumprod(beta))

    def eval_all(self, x, m=None):
        """Values of p_0..p_m at x, shape (npts, m+1)."""
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
    if n < 1:
        raise ValueError("need n >= 1")
    live = [p for p in domain_pieces(W, 0.0, 2 * n) if p[2] != 0.0 and p[1] > p[0]]
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
