"""Partition-function oracles that only the tests use.

partition_fn reads Z_d from the program's own model-determinant table; the
program itself reads Z_d only inside its ratios.
partition_fn_raw is the literal Andreief form.  It integrates raw confluent
rows {x^i} u {x^p e^{a_k x}} against monomial columns and divides by the
confluent Vandermonde.  That is much worse conditioned than partition_fn,
but shares neither its divided-difference rows nor its orthonormal columns,
so it cross-checks them at small d.  gamma_vector holds the coefficients
Gamma_j(a) of e^{a x} in the orthonormal basis, and rank1_partition_fn is
the rank-one orthonormal-polynomial route through them.
laguerre_z_ratio is the closed form of a Laguerre ratio Z_d(a)/Z_d.
"""

import math

import numpy as np

from extsource import matrix_model as mm
from extsource.matrix_model import ENTRY_REL_TOL, _basis_for
from extsource.weights import QuadratureError, domain_pieces, integrate_pieces


def partition_fn(model):
    """Z_d for the model's weight, up to d-dependent constants (set to one).

    The convention fixes every d-dependent constant to one and includes d!;
    every consumer identity is a ratio in which those constants cancel.
    """
    key = mm._filled(lambda plan: plan.model(model, model.weight))
    sign, logz, _ = mm._read(mm._LOGDET_CACHE, key)
    return sign * math.exp(logz)


def partition_fn_raw(model):
    """Z_d of the model in the convention of partition_fn (d! included)."""
    d = model.d
    weight = model.weight
    mu0 = d - model.rank
    rows = []
    for i in range(mu0):
        rows.append((0.0, i))
    for a, m in model.sources:
        for p in range(m):
            rows.append((a, p))
    A = np.empty((d, d))
    for ridx, (a, p) in enumerate(rows):
        def fv(x, a=a, p=p):
            logw = np.asarray(weight.log_density(x), dtype=float)
            base = x ** p * np.exp(a * x + logw)
            cols = np.vander(x, d, increasing=True)
            return base[:, None] * cols
        pieces = domain_pieces(weight, max(a, 0.0), d + p + 2)
        res = integrate_pieces(fv, pieces, rel_tol=ENTRY_REL_TOL)
        A[ridx, :] = res.value
    det = np.linalg.det(A)
    cv = 1.0
    for i in range(mu0):
        cv *= math.factorial(i)
    groups = [(0.0, mu0)] if mu0 else []
    groups += [(a, m) for a, m in model.sources]
    for a, m in model.sources:
        for p in range(m):
            cv *= math.factorial(p)
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            bi, mi = groups[i]
            bj, mj = groups[j]
            cv *= (bj - bi) ** (mi * mj)
    return math.factorial(d) * det / cv


def gamma_vector(weight, a, n):
    """Gamma_j(a) = integral p_j(x) e^{a x} W(x) dx, j < n, with p_j the
    orthonormal polynomials of the undeformed weight W."""
    a = float(a)
    B = _basis_for(weight, n)
    if a >= weight.max_tilt():
        raise QuadratureError(f"tilt {a} diverges against {weight.kind} weight")

    def fv(x):
        return B.eval_all(x, n - 1) * np.exp(a * x + np.asarray(weight.log_density(x)))[:, None]

    res = integrate_pieces(fv, domain_pieces(weight, a, n + 2), rel_tol=ENTRY_REL_TOL)
    return np.asarray(res.value)


def rank1_partition_fn(weight, l, a):
    """Z_l for a single source a via the orthonormal-polynomial route:
    l! a^{-(l-1)} Gamma_{l-1}(a).  Agrees with partition_fn up to an
    a-independent factor (different normalization of the last column)."""
    if a == 0:
        raise ValueError("a must be nonzero")
    g = gamma_vector(weight, a, l)[l - 1]
    return math.factorial(l) * float(a) ** (-(l - 1)) * g


def laguerre_z_ratio(d, sources):
    """Z_d(a_1..a_m)/Z_d on the Laguerre weight e^{-x}, sources below 1: the
    source integral over positive matrices is det(1 - A)^{-d}, so the ratio
    is prod_k (1 - a_k)^{-d}."""
    return math.prod((1.0 - a) ** -d for a in sources)
