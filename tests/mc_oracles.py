"""Reference Monte Carlo sampler that computes every eigenvalue.

`extsource.mc` counts the eigenvalues of each draw in E by the inertia of an
LDL^H factorisation.  This module keeps the direct route it replaced: the
same Philox draws assembled into complex Hermitian matrices, batched
`numpy.linalg.eigvalsh` on A + H for every source tuple, and
prod_j (1 - s chi_E(lambda_j)) per draw.  The tests require the two to agree
bit for bit.
"""

import math

import numpy as np

from extsource.mc import BATCH, McEstimate, _rng_for_batch
from extsource.weights import IntervalSet


def hermitian_batch(rng, n, d):
    X = rng.standard_normal((n, d, d))
    Y = rng.standard_normal((n, d, d))
    Xt = np.swapaxes(X, 1, 2)
    Yt = np.swapaxes(Y, 1, 2)
    return (X + Xt) / 2 + 1j * (Y - Yt) / 2


def sample_spiked_eigenvalues(d, a, seed):
    """Eigenvalues of A + H for one draw; a lists the nonzero eigenvalues of
    A (padded with zeros to dimension d)."""
    a = list(a)
    if len(a) > d:
        raise ValueError("more sources than dimensions")
    rng = _rng_for_batch(seed, 0)
    H = hermitian_batch(rng, 1, d)[0]
    A = np.diag(np.array(a + [0.0] * (d - len(a)), dtype=float))
    return np.linalg.eigvalsh(A + H)


def batch_values(d, A, E, s, seed, idx, take):
    """prod_j (1 - s chi_E(lambda_j)) for each draw of batch idx; A holds the
    d diagonal entries of the source matrix."""
    H = hermitian_batch(_rng_for_batch(seed, idx), take, d)
    H += np.diag(A)[None, :, :]
    lam = np.linalg.eigvalsh(H)
    return np.prod(1.0 - s * E.indicator(lam), axis=1)


def reference_estimates(d, group, E, s, N, seed):
    """The eigvalsh estimator for every source tuple of group, batch by batch
    as extsource.mc schedules it: each batch of H is drawn once, and the
    eigenvalues of A + H are computed for every tuple's A."""
    E = E if isinstance(E, IntervalSet) else IntervalSet(E)
    diags = [np.diag(np.array([float(v) for v in a] + [0.0] * (d - len(a)), dtype=float))
             for a in group]
    parts = [[] for _ in group]
    for idx, start in enumerate(range(0, N, BATCH)):
        H = hermitian_batch(_rng_for_batch(seed, idx), min(BATCH, N - start), d)
        for A, part in zip(diags, parts):
            lam = np.linalg.eigvalsh(H + A[None, :, :])
            v = np.prod(1.0 - s * E.indicator(lam), axis=1)
            part.append((float(v.sum()), float((v * v).sum())))
    out = []
    for part in parts:
        s1 = math.fsum(p[0] for p in part)
        s2 = math.fsum(p[1] for p in part)
        mean = s1 / N
        var = max(0.0, (s2 - N * mean * mean) / (N - 1))
        out.append(McEstimate(mean, math.sqrt(var / N), N, seed))
    return out
