"""Monte Carlo oracle for the gap-probability expectations.

For the Gaussian weight the source tilt is exactly a matrix shift: the
density is proportional to e^{-Tr(M-A)^2/2}, so sampling is A plus a
Hermitian matrix with standard normal diagonal and complex off-diagonal
entries of variance one half per real part.  Only the Gaussian weight is
supported; any other weight would need an MCMC sampler whose own convergence
would have to be validated, defeating the point of an oracle.

The estimator only needs how many eigenvalues of each draw lie in E, so it
counts them instead of computing them.  By Sylvester's law of inertia the
number of eigenvalues of M below c is the number of negative pivots of the
LDL^H factorisation of M - cI (Parlett, The Symmetric Eigenvalue Problem,
1998, section 3.3).  The factorisation is a loop over the dimension,
vectorised over the draws of a batch and over the finite endpoints of E, in
real arithmetic on the real and imaginary parts of the lower triangle.  A
draw with a zero or non-finite pivot is recounted from its eigenvalues.

Streams use the counter-based Philox generator with jumped substreams per
batch, so estimates are bit-reproducible for a given seed.

One call estimates a group of source tuples that share (d, E, s, N, seed).
The source matrix only shifts the diagonal, so every tuple of the group is
evaluated on the same draws of H, each batch drawn once and dropped before
the next (common random numbers; Asmussen & Glynn, Stochastic Simulation,
2007, ch. V).  Each estimate is bitwise the one a group of its tuple alone
gives, but the estimates of one group are correlated: their z values are
not independent.
"""

import math
from typing import NamedTuple

from .weights import GaussianWeight, IntervalSet
from .matrix_model import Plan, SourceModel, ExpectationQuery, expectation

BATCH = 20000


class McEstimate(NamedTuple):
    mean: float
    stderr: float
    n: int
    seed: int


class CrossCheck(NamedTuple):
    mc: McEstimate
    quad: float
    z: float


def _rng_for_batch(seed, batch_index):
    import numpy as np
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _hermitian_draws(rng, n, d):
    """Real and imaginary parts of H for n draws, each of shape (d, d, n).

    H = (X + X^T)/2 + i (Y - Y^T)/2 from two standard normal (n, d, d)
    arrays, drawn in that order; the layout puts the n draws of one entry in
    a contiguous row.
    """
    import numpy as np
    X = rng.standard_normal((n, d, d)).transpose(1, 2, 0)
    Y = rng.standard_normal((n, d, d)).transpose(1, 2, 0)
    real = np.empty((d, d, n))
    imag = np.empty((d, d, n))
    np.add(X, X.transpose(1, 0, 2), out=real)
    np.subtract(Y, Y.transpose(1, 0, 2), out=imag)
    real /= 2
    imag /= 2
    return real, imag


def _count_below(real, imag, A, cuts):
    """Eigenvalues of A + H below each cut, per draw, by the inertia of LDL^H.

    real, imag: (d, d, n) parts of the draws of H, of which only the lower
    triangle is read; A: the d diagonal entries of the source; cuts: C
    floats.  The diagonal is formed as (h + a) - c.
    Returns (below, bad): below is (C, n) int, and bad is an (n,) mask of
    draws with a zero or non-finite pivot at some cut, whose count is not
    to be trusted.
    """
    import numpy as np
    d, _, n = real.shape
    C = len(cuts)
    R = np.repeat(real[:, :, None, :], C, axis=2)
    I = np.repeat(imag[:, :, None, :], C, axis=2)
    diag = np.arange(d), np.arange(d)
    R[diag] += A[:, None, None]
    R[diag] -= np.asarray(cuts, dtype=float)[:, None]
    below = np.zeros((C, n), dtype=np.intp)
    bad = np.zeros((C, n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            p = R[k, k]
            below += p < 0
            bad |= ~np.isfinite(p) | (p == 0)
            if k == d - 1:
                break
            # Schur complement: M_ij -= M_ik conj(M_jk) / p for i >= j > k
            a, b = R[k + 1:, k], I[k + 1:, k]
            ap, bp = a / p, b / p
            for j in range(k + 1, d):
                r = j - k - 1
                R[j:, j] -= a[r:] * ap[r] + b[r:] * bp[r]
                I[j:, j] -= b[r:] * ap[r] - a[r:] * bp[r]
    return below, bad.any(axis=0)


def _inside_counts(real, imag, A, E):
    """Number of eigenvalues of A + H in the closed interval set E, per draw."""
    import numpy as np
    d, _, n = real.shape
    cuts = sorted(set(E.finite_endpoints()))
    below, bad = _count_below(real, imag, A, cuts)
    col = dict(zip(cuts, below))
    inside = np.zeros(n, dtype=np.intp)
    for lo, hi in E.intervals:
        # an eigenvalue on a cut gives a zero pivot, so < and <= agree
        inside += col[hi] if math.isfinite(hi) else d
        if math.isfinite(lo):
            inside -= col[lo]
    if bad.any():
        R = real[:, :, bad]
        R[np.arange(d), np.arange(d)] += A[:, None]
        H = (R + 1j * imag[:, :, bad]).transpose(2, 0, 1)
        inside[bad] = E.indicator(np.linalg.eigvalsh(H)).sum(axis=1)
    return inside


def _batch_values(d, As, E, s, seed, idx, take):
    """prod_j (1 - s chi_E(lambda_j)) for each of the take draws of batch idx.

    Yields one array per source diagonal in As, all from one draw of H,
    which is dropped once the generator is exhausted.
    """
    import numpy as np
    # the value of a draw with k eigenvalues in E, multiplied up factor by
    # factor as prod(1 - s chi) does, so the two agree bit for bit
    table = np.ones(d + 1)
    for k in range(1, d + 1):
        table[k] = table[k - 1] * (1.0 - s)
    real, imag = _hermitian_draws(_rng_for_batch(seed, idx), take, d)
    for A in As:
        yield table[_inside_counts(real, imag, A, E)]


def _source_diagonal(d, a):
    import numpy as np
    a = [float(v) for v in a]
    if len(a) > d:
        raise ValueError("more sources than dimensions")
    return np.array(a + [0.0] * (d - len(a)), dtype=float)


def estimate_expectation(d, sources, E, s, N, seed):
    """Sample means of prod_j (1 - s chi_E(lambda_j)) over N spiked draws.

    sources lists source tuples; returns one McEstimate per tuple, all from
    the same N draws of H.
    """
    if N < 1000:
        raise ValueError("need N >= 1000")
    E = E if isinstance(E, IntervalSet) else IntervalSet(E)
    As = [_source_diagonal(d, a) for a in sources]
    sums = [[] for _ in As]
    squares = [[] for _ in As]
    for idx, start in enumerate(range(0, N, BATCH)):
        values = _batch_values(d, As, E, s, seed, idx, min(BATCH, N - start))
        for k, v in enumerate(values):
            sums[k].append(float(v.sum()))
            squares[k].append(float((v * v).sum()))
    out = []
    for s1, s2 in zip(map(math.fsum, sums), map(math.fsum, squares)):
        mean = s1 / N
        var = max(0.0, (s2 - N * mean * mean) / (N - 1))
        out.append(McEstimate(mean, math.sqrt(var / N), N, seed))
    return out


def cross_check(d, sources, E, s, N, seed, quads=None):
    """|mc - quadrature| in units of the Monte Carlo standard error, one
    CrossCheck per source tuple of sources.

    quads may supply one value per tuple to compare against a precomputed
    (or deliberately corrupted) value; by default each is the
    determinant-pipeline expectation.
    """
    ests = estimate_expectation(d, sources, E, s, N, seed)
    if quads is None:
        queries = [ExpectationQuery(SourceModel(d, [(v, 1) for v in a], GaussianWeight()), E, s)
                   for a in sources]
        plan = Plan()  # the tuples' models, factored together
        for q in queries:
            plan.expectation(q)
        plan.fill()
        quads = [expectation(q) for q in queries]
    out = []
    for est, quad in zip(ests, quads, strict=True):
        diff = abs(est.mean - quad)
        if est.stderr == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / est.stderr
        out.append(CrossCheck(est, float(quad), z))
    return out
