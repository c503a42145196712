"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The grids and tolerances here are the contract; nothing is
calibrated at runtime.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from extsource.series import miwa_eval
from extsource.schur import partitions_iter, schur_poly, dodgson_residual
from extsource.weights import (
    GaussianWeight, LaguerreWeight, ExpPolyWeight, IntervalSet,
    orthonormal_basis, domain_pieces, integrate_pieces,
)
from extsource.matrix_model import (
    SourceModel, ExpectationQuery, verify_main_identity, z_ratio_det_check,
    partition_fn, classify, clear_caches,
)
from extsource.dkp import (
    TauConfig, zhat_series, tau_ladder_step, hirota_residual,
    fay_residual, fay_det_residual,
)
from extsource.mc import cross_check
from extsource.harness import load_config, run

GAUSS = GaussianWeight()
LAG = LaguerreWeight()
QUARTIC = ExpPolyWeight([0, 0, 0, 0, 0.25])

SOURCES = [0.3, 0.5, 0.9, 1.4]
INTERVALS = [IntervalSet([[1, "inf"]]), IntervalSet([[-1, 1]])]
SVALS = [0.5, 1.0]
SEED = 20260809


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _grid(weight):
    """(d, tuple) pairs of the identity grid feasible for the weight; source
    values at or above the integrability bound of the weight are excluded
    (the tilted measure does not exist there)."""
    pool = [a for a in SOURCES if a < weight.max_tilt()]
    for d in range(2, 9):
        for m in (1, 2, 3):
            if m > d:
                continue
            for tup in itertools.combinations(pool, m):
                yield d, tup


def test_criterion_1_main_identity():
    t0 = time.monotonic()
    statuses = []
    worst = 0.0
    for W in (GAUSS, LAG):
        for E in INTERVALS:
            for s in SVALS:
                for d, tup in _grid(W):
                    q = ExpectationQuery(
                        SourceModel(d, [(a, 1) for a in tup], W), E, s)
                    rep = verify_main_identity(q)
                    st = classify(rep, rel_tol=1e-8)
                    statuses.append(st)
                    if st != "inconclusive":
                        worst = max(worst, rep.rel_err)
    elapsed = time.monotonic() - t0
    nfail = statuses.count("fail")
    frac_inc = statuses.count("inconclusive") / len(statuses)
    ok = nfail == 0 and worst < 1e-8 and frac_inc <= 0.05 and elapsed < 300
    _report(1, "rank-reduction identity sweep", ok,
            f"{len(statuses)} records, worst rel_err {worst:.2e}, "
            f"{100 * frac_inc:.1f}% inconclusive, {elapsed:.0f}s")


def test_criterion_2_z_ratio_identity():
    t0 = time.monotonic()
    worst = 0.0
    n = 0
    for W in (GAUSS, LAG):
        for d, tup in _grid(W):
            rep = z_ratio_det_check(W, d, list(tup))
            worst = max(worst, rep.rel_err)
            n += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8
    _report(2, "partition-ratio determinant identity sweep", ok,
            f"{n} records, worst rel_err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_3_ladder_exactness():
    t0 = time.monotonic()
    ok = True
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 6, 4)
        for d in range(4):
            if tau_ladder_step(cfg, d) != zhat_series(cfg, d + 1):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    _report(3, "vertex-ladder exact coefficientwise equality (cap 6, d 0..3)",
            ok, f"{elapsed:.0f}s")


def test_criterion_4_bilinear_identity_and_sensitivity():
    ok = True
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 4, 4)
        for d1 in range(1, 4):
            for d2 in range(d1):
                if hirota_residual(cfg, d1, d2) != []:
                    ok = False
    # sensitivity: perturbing the fourth moment on one side must be caught
    cfg = TauConfig(GAUSS, 4, 4)
    detected = hirota_residual(cfg, 1, 0,
                               corrupt_first=(4, cfg.moment(4) + 1)) != []
    ok = ok and detected
    _report(4, "bilinear residue identity empty + mutation detected", ok)


def test_criterion_5_shift_identities():
    a, b, c = Fraction(1), Fraction(1, 2), Fraction(1, 3)
    ok = True
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 5, 3)
        for d in (1, 2, 3):
            if not fay_residual(cfg, d, b, c).is_zero():
                ok = False
            for m in (1, 2, 3):
                if m > d:
                    continue
                if not fay_det_residual(cfg, d, m, [a, b, c][:m]).is_zero():
                    ok = False
    _report(5, "three-term shift identity and determinant form exact (cap 5)", ok)


def test_criterion_6_monte_carlo():
    t0 = time.monotonic()
    zworst = 0.0
    n = 0
    for d in (2, 3, 4):
        for m in (1, 2, 3):
            if m > d:
                continue
            for tup in itertools.combinations(SOURCES, m):
                chk = cross_check(d, list(tup), INTERVALS[0], 1.0, 100000, SEED)
                zworst = max(zworst, chk.z)
                n += 1
    elapsed = time.monotonic() - t0
    ok = zworst <= 3.0 and elapsed < 120
    _report(6, "Monte Carlo cross-check of gap expectations", ok,
            f"{n} records, worst |z| {zworst:.2f}, {elapsed:.0f}s")


def test_criterion_7_structural():
    ok = True
    rng = random.Random(404)
    # Jacobi-Trudi vs alternant, exact rational points
    for _ in range(4):
        nvars = rng.randrange(2, 5)
        pts = []
        while len(pts) < nvars:
            x = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            if x not in pts:
                pts.append(x)
        for kappa in partitions_iter(nvars, 6):
            if schur_poly(kappa, pts) != schur_poly(kappa, pts, method="alternant"):
                ok = False
    # determinant-minor identity, exact, sizes 3..6
    for size in (3, 4, 5, 6):
        M = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
              for _ in range(size)] for _ in range(size)]
        if dodgson_residual(M) != 0:
            ok = False
    # orthonormality to 1e-10 for n = 12 on all three weight families
    for W in (GAUSS, LAG, QUARTIC):
        n = 12
        B = orthonormal_basis(W, n)

        def fv(x):
            vals = B.eval_all(x)
            prods = vals[:, :, None] * vals[:, None, :]
            return prods.reshape(len(x), n * n) * np.exp(W.log_density(x))[:, None]

        res = integrate_pieces(fv, domain_pieces(W, 0.0, 2 * n),
                               rel_tol=1e-13, abs_tol=1e-13)
        G = res.value.reshape(n, n)
        if np.max(np.abs(G - np.eye(n))) >= 1e-10:
            ok = False
    # series evaluation at source points is proportional to the partition
    # function, with one constant across source tuples
    for W in (GAUSS, LAG):
        cfg = TauConfig(W, 16, 2)
        z2 = zhat_series(cfg, 2)
        ratios = []
        for _ in range(3):
            a = [Fraction(rng.randrange(2, 9), 40), Fraction(rng.randrange(11, 19), 80)]
            val = float(miwa_eval(z2, [(a[0], 1), (a[1], 1)]))
            zq = partition_fn(SourceModel(2, [(float(a[0]), 1), (float(a[1]), 1)], W))
            ratios.append(val / zq)
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        if spread >= 1e-8:
            ok = False
    _report(7, "structural suites (Schur routes, minors, Gram, series vs "
               "partition function)", ok)


def test_criterion_8_reproducibility(tmp_path):
    # a cold run on one worker against a warm run on four: the caches and
    # the thread schedule must not reach the records
    clear_caches()
    code1, _ = run(load_config("full"), tmp_path / "r1", workers=1)
    code2, _ = run(load_config("full"), tmp_path / "r2", workers=4)
    b1 = (tmp_path / "r1" / "results.ndjson").read_bytes()
    b2 = (tmp_path / "r2" / "results.ndjson").read_bytes()
    ok = b1 == b2 and code1 == 0 and code2 == 0
    _report(8, "byte-identical machine-readable results, cold at 1 worker "
               "and warm at 4", ok, f"{len(b1)} bytes, exit codes {code1}/{code2}")
