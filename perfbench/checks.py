"""Output checks computed apart from the program.

Nothing here compares against a stored copy of earlier output: grid sizes are
expanded from the workload config, reference values come from closed forms
(math.erfc and elementary antiderivatives), and exact series coefficients are
expanded from the weights' moments.  Each check returns a list of problems;
an empty list means the outputs are correct.
"""

import math
from fractions import Fraction

CLOSED_FORM_REL_TOL = 1e-10   # today the closed forms agree within 6e-14
STDERR_REL_TOL = 1e-9


def expected_records(cfg):
    """Number of records `extsource run` must write for this config."""
    total = 0
    for name, body in cfg["suites"].items():
        nw = len(body["weights"])
        if name in ("identity", "z-ratio", "mc"):
            tuples = sum(math.comb(len(body["sources"]), m)
                         for d in body["d"] for m in body["m"] if m <= d)
            if name == "identity":
                tuples *= len(body["intervals"]) * (len(body["s"]) + len(body.get("exploratory_s", [])))
            elif name == "mc":
                tuples *= len(body["intervals"]) * len(body["s"])
            total += nw * tuples
        elif name == "vertex-ladder":
            total += nw * (body["max_d"] + 1)
        elif name == "hirota":
            # pairs d1 > d2 >= 0 with d1 <= max_d, plus one sensitivity record
            total += nw * (body["max_d"] * (body["max_d"] + 1) // 2 + 1)
        elif name == "fay":
            total += nw * len(body["d"])
        elif name == "fay-det":
            total += nw * sum(1 for d in body["d"] for m in body["m"] if m <= d)
        else:
            raise ValueError(f"no grid rule for suite {name!r}")
    return total


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _intervals(spec):
    return [(float(lo), float(hi)) for lo, hi in spec]


# ---------------------------------------------------------------------------
# one-dimensional integrals of x^c e^{b x} W(x) over [lo, hi], c <= 2


def _phi(y):
    return 0.0 if math.isinf(y) else math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)


def _gauss_piece(b, c, lo, hi):
    """Normalized Gaussian e^{-x^2/2}/sqrt(2 pi): complete the square,
    y = x - b, and integrate (y + b)^c against the standard normal."""
    l, u = lo - b, hi - b
    j0 = 0.5 * (math.erfc(l / math.sqrt(2)) - math.erfc(u / math.sqrt(2)))
    j1 = _phi(l) - _phi(u)
    lphi = 0.0 if math.isinf(l) else l * _phi(l)
    uphi = 0.0 if math.isinf(u) else u * _phi(u)
    j2 = j0 + lphi - uphi
    inner = (j0, j1 + b * j0, j2 + 2 * b * j1 + b * b * j0)[c]
    return math.exp(0.5 * b * b) * inner


def _laguerre_piece(b, c, lo, hi):
    """e^{-x} on [0, inf): antiderivative of x^c e^{-lam x}, lam = 1 - b."""
    lo, hi = max(lo, 0.0), max(hi, 0.0)
    if hi <= lo:
        return 0.0
    lam = 1.0 - b

    def anti(x):
        if math.isinf(x):
            return 0.0
        poly = sum(math.factorial(c) // math.factorial(k) * x ** k / lam ** (c - k + 1)
                   for k in range(c + 1))
        return -math.exp(-lam * x) * poly
    return anti(hi) - anti(lo)


_PIECE = {"gaussian": _gauss_piece, "laguerre": _laguerre_piece}


def _deformed_integral(kind, b, c, E, s):
    piece = _PIECE[kind]
    full = piece(b, c, -math.inf, math.inf)
    return full - s * sum(piece(b, c, lo, hi) for lo, hi in E)


def andreief_d2(kind, sources, E, s):
    """E_2(sources; E; s) = Z_def / Z for dimension 2, from the 2 x 2 Andreief
    determinant det[int f_r(x) x^c W(x) dx] with row functions {1, x} (no
    source), {1, e^{a x}} (one source) or {e^{a1 x}, e^{a2 x}} (two).  Row
    scalings are weight independent and cancel in the ratio."""
    if not sources:
        rows = [(0.0, 0), (0.0, 1)]   # (b, p): row function x^p e^{b x}
    elif len(sources) == 1:
        rows = [(0.0, 0), (sources[0], 0)]
    else:
        rows = [(a, 0) for a in sources]

    def det(E_, s_):
        e = [[_deformed_integral(kind, b, p + c, E_, s_) for c in (0, 1)] for b, p in rows]
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]
    return det(E, s) / det([], 0.0)


def normalized_andreief_d2(kind, sources, E, s):
    return andreief_d2(kind, sources, E, s) / andreief_d2(kind, [], E, s)


# ---------------------------------------------------------------------------
# per-workload checks on the parsed records


def check_float_sweep(records):
    problems = []
    for r in records:
        rid = r["id"]
        infeasible = r["weight"] == "laguerre" and max(r["sources"]) >= 1.0
        if infeasible != (r["status"] == "skipped"):
            problems.append(f"{rid}: status {r['status']}, but the source tilt "
                            f"{'is' if infeasible else 'is not'} beyond the weight's bound")
        if r["status"] == "skipped":
            continue
        if not r.get("exploratory") and r["status"] != "pass":
            problems.append(f"{rid}: non-exploratory record has status {r['status']}")
        noise = r["diag"]["noise_est"]
        if not r["rel_err"] <= noise:
            problems.append(f"{rid}: rel_err {r['rel_err']:.3e} above the claimed "
                            f"noise floor {noise:.3e}")
        if r["suite"] == "z-ratio":
            a = r["sources"]
            if r["weight"] == "gaussian":
                want = math.exp(sum(x * x for x in a) / 2)
            else:
                want = math.prod((1 - x) ** -r["d"] for x in a)
            for side in ("lhs", "rhs"):
                if _rel(r[side], want) > CLOSED_FORM_REL_TOL:
                    problems.append(f"{rid}: {side} {r[side]!r} vs closed form {want!r}")
        elif r["d"] == 2:
            want = normalized_andreief_d2(r["weight"], r["sources"], _intervals(r["E"]), r["s"])
            if _rel(r["lhs"], want) > CLOSED_FORM_REL_TOL:
                problems.append(f"{rid}: lhs {r['lhs']!r} vs 2x2 Andreief {want!r}")
    return problems


def check_mc(records):
    problems = []
    for r in records:
        rid = r["id"]
        z = r["z"]
        if not (isinstance(z, float) and z <= r["zmax"]):
            problems.append(f"{rid}: z {z} above zmax {r['zmax']}")
        p, n = r["mc_mean"], r["n"]
        if r["s"] == 1.0:
            if abs(p * n - round(p * n)) > 1e-6 * n:
                problems.append(f"{rid}: mc_mean {p!r} is not a count over n={n}")
            want = math.sqrt(p * (1 - p) / (n - 1))
            if _rel(r["mc_stderr"], want) > STDERR_REL_TOL:
                problems.append(f"{rid}: mc_stderr {r['mc_stderr']!r} vs "
                                f"sqrt(p(1-p)/(n-1)) = {want!r}")
        if r["d"] == 2:
            want = andreief_d2(r["weight"], r["sources"], _intervals(r["E"]), r["s"])
            if _rel(r["quad"], want) > CLOSED_FORM_REL_TOL:
                problems.append(f"{rid}: quad {r['quad']!r} vs 2x2 Andreief {want!r}")
    return problems


def check_exact_series(records):
    problems = []
    for r in records:
        rid = r["id"]
        if r["suite"] == "hirota-sensitivity":
            if r["status"] != "pass" or not r["violations"]:
                problems.append(f"{rid}: corrupted moment went undetected")
        elif r["violations"] or r["violating_monomials"] or r["status"] != "pass":
            problems.append(f"{rid}: {r['violations']} violating monomials")
    return problems


def exact_moment(kind, k):
    if kind == "laguerre":
        return Fraction(math.factorial(k))
    return Fraction(0) if k % 2 else Fraction(math.prod(range(1, k, 2)))


def _exponent_vectors(k):
    """Exponent tuples (e_1, ..., e_J), trailing zeros stripped, with
    sum j e_j = k."""
    def parts(rest, largest):
        if rest == 0:
            yield []
            return
        for p in range(min(rest, largest), 0, -1):
            for tail in parts(rest - p, p):
                yield [p] + tail
    for mu in parts(k, k):
        exps = [0] * (max(mu) if mu else 0)
        for p in mu:
            exps[p - 1] += 1
        yield tuple(exps)


def zhat1_reference(kind, cap):
    """sum_k M_k h_k(t) / k! up to weight cap: the coefficient of
    prod t_j^{e_j} is M_k / (k! prod e_j!) with k = sum j e_j."""
    terms = {}
    for k in range(cap + 1):
        mk = exact_moment(kind, k)
        if mk == 0:
            continue
        for exps in _exponent_vectors(k):
            denom = math.factorial(k) * math.prod(math.factorial(e) for e in exps)
            terms[(exps,)] = mk / denom
    return terms


def check_zhat1(weights_by_kind, cap):
    """Compare the program's degree-one series with the reference."""
    from extsource.dkp import TauConfig, zhat_series
    problems = []
    for kind, weight in weights_by_kind.items():
        got = zhat_series(TauConfig(weight, cap, 1), 1).terms
        want = zhat1_reference(kind, cap)
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:3]
            problems.append(f"zhat_series({kind}, cap {cap}, d=1) differs from "
                            f"sum M_k h_k/k!, e.g. {diff}")
    return problems
