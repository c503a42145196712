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
vectorised over the draws of a batch, in real arithmetic on the real and
imaginary parts of the lower triangle of H, one contiguous array per
entry.  A draw with a zero or non-finite pivot is recounted from its
eigenvalues.

The pivots run from the source-free end: a source of m nonzero entries
touches only the leading m diagonal entries, so the trailing d - m pivots
and the m x m Schur complement S_m they leave do not depend on it.  By
Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968) the inertia
of M is that of its trailing block plus that of S_m, so each batch is swept
once per cut for the whole group; when the sweep reaches size m, every
source of extent m adds itself to the diagonal of S_m and factors that
block alone.  The inertia does not depend on the pivot order, so neither
do the integer counts, nor any estimate built from them.

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
    """H for n draws, as its lower triangle: one contiguous (n,) array per
    entry.

    H = (X + X^T)/2 + i (Y - Y^T)/2 from two standard normal (n, d, d)
    arrays, drawn in that order (the diagonal of Y is unused).  Returns
    (re, im) with re[i][j] = Re H_ij for j <= i and im[i][j] = Im H_ij for
    j < i.
    """
    X = rng.standard_normal((n, d, d))
    re = [[X[:, i, j] + X[:, j, i] for j in range(i + 1)] for i in range(d)]
    del X
    Y = rng.standard_normal((n, d, d))
    im = [[Y[:, i, j] - Y[:, j, i] for j in range(i)] for i in range(d)]
    for row in re + im:
        for t in row:
            t /= 2
    return re, im


def _dense(draws, A, mask):
    """A + H for the masked draws as an (k, d, d) complex array, assembled
    with the arithmetic of the eigvalsh oracle, so bit for bit its matrix."""
    import numpy as np
    re, im = draws
    d = len(re)
    k = int(np.count_nonzero(mask))
    real = np.empty((k, d, d))
    imag = np.zeros((k, d, d))
    for i in range(d):
        for j in range(i + 1):
            real[:, i, j] = real[:, j, i] = re[i][j][mask]
            if j < i:
                imag[:, i, j] = im[i][j][mask]
                imag[:, j, i] = -imag[:, i, j]
    H = real + 1j * imag
    H += np.diag(A)[None, :, :]
    return H


def _pivot(R, I, k, p, neg, bad):
    """Count the pivot p of index k into neg and bad, then replace the
    leading k x k block of (R, I) by its Schur complement.

    R[i][j] (j <= i) and I[i][j] (j < i) are the real and imaginary parts of
    the lower triangle; entries are replaced, never written into, so a
    caller's arrays stay intact.
    """
    import numpy as np
    neg += p < 0
    bad |= ~np.isfinite(p)
    bad |= p == 0
    a, b = R[k], I[k]
    # M_ij -= conj(M_ki) M_kj / p for j <= i < k
    for j in range(k):
        ap, bp = a[j] / p, b[j] / p
        for i in range(j, k):
            t = a[i] * ap
            t += b[i] * bp
            R[i][j] = np.subtract(R[i][j], t, out=t)
            if i > j:
                t = a[i] * bp
                t -= b[i] * ap
                I[i][j] = np.subtract(I[i][j], t, out=t)


def _extent(A):
    """Number of leading diagonal entries up to the last nonzero source."""
    m = len(A)
    while m and A[m - 1] == 0:
        m -= 1
    return m


def _count_below(draws, As, cuts):
    """Eigenvalues of A + H below each cut, per draw, by the inertia of LDL^H,
    for every source diagonal A in As.

    draws: the (re, im) lower triangle of H from _hermitian_draws; As: the
    d diagonal entries of each source; cuts: C floats.  Pivots run from
    index d - 1 down to 0.  Entries past a source's extent m are source
    free, so the trailing d - m pivots and the leading m x m Schur
    complement they leave are shared by every source of extent m; each
    source then adds its entries to that block's diagonal and factors it.
    A source-carrying diagonal entry is formed as (h + a) - c.
    Returns one (below, bad) per A: below is (C, n) int, and bad is an (n,)
    mask of draws with a zero or non-finite pivot at some cut, shared or
    the source's own, whose count is not to be trusted.
    """
    import numpy as np
    re, im = draws
    d, n = len(re), len(re[0][0])
    ext = [_extent(A) for A in As]
    count = np.min_scalar_type(d)  # counts range over 0..d
    out = [(np.empty((len(cuts), n), dtype=count), np.zeros(n, dtype=bool)) for _ in As]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col, c in enumerate(cuts):
            R, I = [list(row) for row in re], [list(row) for row in im]
            neg, bad = np.zeros(n, dtype=count), np.zeros(n, dtype=bool)
            for m in range(d, min(ext, default=d) - 1, -1):
                if m < d:
                    _pivot(R, I, m, R[m][m] - c, neg, bad)
                # R, I now hold the Schur complement S_m of the trailing pivots
                for A, e, (below, any_bad) in zip(As, ext, out):
                    if e != m:
                        continue
                    Rt, It = [list(row) for row in R[:m]], [list(row) for row in I[:m]]
                    neg_t, bad_t = neg.copy(), bad.copy()
                    for k in range(m - 1, -1, -1):
                        _pivot(Rt, It, k, (Rt[k][k] + A[k]) - c, neg_t, bad_t)
                    below[col] = neg_t
                    any_bad |= bad_t
    return out


def _inside_counts(draws, As, E):
    """Number of eigenvalues of A + H in the closed interval set E, per draw,
    for each source diagonal A in As in turn."""
    import numpy as np
    d, n = len(draws[0]), len(draws[0][0][0])
    cuts = sorted(set(E.finite_endpoints()))
    for A, (below, bad) in zip(As, _count_below(draws, As, cuts)):
        col = dict(zip(cuts, below))
        # an unsigned count may wrap between the terms, never in the total
        inside = np.zeros(n, dtype=below.dtype)
        for lo, hi in E.intervals:
            # an eigenvalue on a cut gives a zero pivot, so < and <= agree
            inside += col[hi] if math.isfinite(hi) else d
            if math.isfinite(lo):
                inside -= col[lo]
        if bad.any():
            inside[bad] = E.indicator(np.linalg.eigvalsh(_dense(draws, A, bad))).sum(axis=1)
        yield inside


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
    draws = _hermitian_draws(_rng_for_batch(seed, idx), take, d)
    for inside in _inside_counts(draws, As, E):
        yield table[inside]


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
