"""Configuration ingestion, suite orchestration and report emission.

A run executes the selected verification suites over declarative grids and
writes three files: results.ndjson (one JSON record per check, byte-stable
for a fixed config and seed), results.csv (flat export of the same records)
and summary.txt (human-readable counts plus wall time; timing never enters
the machine-readable files, which must be reproducible byte for byte).

Exit code contract: 0 all checks passed, 1 any failed or errored
(inconclusive and infeasible-skipped records do not affect it), 2 bad
configuration.
"""

import csv
import difflib
import io
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from importlib import resources
from pathlib import Path

import yaml

from . import matrix_model as mm
from . import mc as mc_mod
from .dkp import (
    TauConfig, zhat_series, tau_ladder_step, hirota_residual, fay_residual,
    fay_det_residual,
)
from .weights import IntervalSet, weight_from_spec, QuadratureError
from .schur import NearConfluent


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


SUITES = {
    "identity": "rank-reduction identity for normalized gap expectations",
    "z-ratio": "determinant reduction of multi-source partition-function ratios",
    "fay": "three-term shift identity of the series ladder (exact)",
    "fay-det": "determinant generalization of the shift identity (exact)",
    "hirota": "bilinear residue identity across ladder indices (exact)",
    "vertex-ladder": "vertex pairing maps each series to the next (exact)",
    "mc": "Monte Carlo spiked-ensemble cross-check of the expectations",
}

MUTATE_MOMENT = 4  # moment corrupted by the bilinear/ladder sensitivity checks
# the shift-identity residual gains one weight unit from the leading symbol,
# so a corruption must sit low enough to survive truncation at small caps
FAY_MUTATE_MOMENT = 2


def _field(cfg, path, default=None, required=False, kind=None):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"missing required field {path!r}")
            return default
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(f"field {path!r} must be {kind.__name__}, got {type(cur).__name__}")
    return cur


def _num_list(val, path, allow_zero=True):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path} must be a nonempty list")
    out = []
    for i, v in enumerate(val):
        if not isinstance(v, (int, float)):
            raise ConfigError(f"{path}[{i}] must be a number")
        if not allow_zero and float(v) == 0.0:
            raise ConfigError(f"{path}[{i}] must be nonzero")
        out.append(float(v))
    return out


def _fraction(v, path):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{path} is not a rational number: {v!r}") from None


def _intervals(body, path):
    raw = body.get("intervals", [])
    try:
        return [IntervalSet.from_spec(e) for e in raw]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.intervals: {exc}") from None


class RunConfig:
    """Validated run description."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        schema = _field(raw, "schema", required=True)
        if schema != 1:
            raise ConfigError(f"unsupported schema {schema!r} (expected 1)")
        self.seed = _field(raw, "seed", default=0, kind=int)
        self.workers = _field(raw, "workers", default=1, kind=int)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.out_dir = _field(raw, "out_dir", default=None)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string path")
        self.weights = {}
        wspecs = _field(raw, "weights", required=True, kind=dict)
        for name, spec in wspecs.items():
            try:
                self.weights[name] = weight_from_spec(spec)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"weights.{name}: {exc}") from None
        suites = _field(raw, "suites", required=True, kind=dict)
        self.suites = {}
        for name, body in suites.items():
            if name not in SUITES:
                raise ConfigError(
                    f"suites.{name}: unknown suite (choose from {sorted(SUITES)})")
            self.suites[name] = self._validate_suite(name, body or {})

    def _weight_names(self, body, path, exact_needed=False):
        names = body.get("weights")
        if not isinstance(names, list) or not names:
            raise ConfigError(f"{path}.weights must be a nonempty list")
        for n in names:
            if n not in self.weights:
                raise ConfigError(f"{path}.weights: unknown weight {n!r}")
            if exact_needed and not self.weights[n].exact_moments:
                raise ConfigError(
                    f"{path}.weights: {n!r} has no exact moments; "
                    "this suite is exact-rational only")
        return list(names)

    def _validate_suite(self, name, body):
        p = f"suites.{name}"
        out = {}
        if name in ("identity", "z-ratio", "mc"):
            out["d"] = [int(v) for v in body.get("d", [])]
            if not out["d"] or any(v < 1 for v in out["d"]):
                raise ConfigError(f"{p}.d must list dimensions >= 1")
            out["m"] = [int(v) for v in body.get("m", [])]
            if not out["m"] or any(v < 1 for v in out["m"]):
                raise ConfigError(f"{p}.m must list ranks >= 1")
            out["sources"] = _num_list(body.get("sources"), f"{p}.sources", allow_zero=False)
            if len(set(out["sources"])) != len(out["sources"]):
                raise ConfigError(f"{p}.sources must be distinct")
        if name == "identity":
            out["weights"] = self._weight_names(body, p)
            out["intervals"] = _intervals(body, p)
            if not out["intervals"]:
                raise ConfigError(f"{p}.intervals must be a nonempty list")
            out["s"] = _num_list(body.get("s"), f"{p}.s")
            out["exploratory_s"] = _num_list(body.get("exploratory_s", [0.0]), f"{p}.exploratory_s") \
                if body.get("exploratory_s") else []
            out["rel_tol"] = float(body.get("rel_tol", 1e-8))
        elif name == "z-ratio":
            out["weights"] = self._weight_names(body, p)
            out["rel_tol"] = float(body.get("rel_tol", 1e-8))
        elif name == "mc":
            for n in self._weight_names(body, p):
                if self.weights[n].kind != "gaussian":
                    raise ConfigError(f"{p}.weights: the sampler is exact only "
                                      f"for the gaussian weight, got {n!r}")
            out["weights"] = body["weights"]
            out["intervals"] = _intervals(body, p)
            if not out["intervals"]:
                raise ConfigError(f"{p}.intervals must be a nonempty list")
            out["s"] = _num_list(body.get("s"), f"{p}.s")
            out["n"] = int(body.get("n", 100000))
            if out["n"] < 1000:
                raise ConfigError(f"{p}.n must be >= 1000")
            out["zmax"] = float(body.get("zmax", 3.0))
        elif name in ("fay", "fay-det", "hirota", "vertex-ladder"):
            out["weights"] = self._weight_names(body, p, exact_needed=True)
            out["cap"] = int(body.get("cap", 4))
            if out["cap"] < 1:
                raise ConfigError(f"{p}.cap must be >= 1")
            if name == "fay":
                out["d"] = [int(v) for v in body.get("d", [1])]
                if any(v < 1 for v in out["d"]):
                    raise ConfigError(f"{p}.d must list degrees >= 1")
                pts = body.get("points")
                if not isinstance(pts, list) or len(pts) != 2:
                    raise ConfigError(f"{p}.points must be two rationals")
                out["points"] = [_fraction(v, f"{p}.points") for v in pts]
                if out["points"][0] == out["points"][1]:
                    raise ConfigError(f"{p}.points must be distinct")
            elif name == "fay-det":
                out["d"] = [int(v) for v in body.get("d", [2])]
                out["m"] = [int(v) for v in body.get("m", [2])]
                if any(v < 1 for v in out["d"] + out["m"]):
                    raise ConfigError(f"{p}: d and m entries must be >= 1")
                pts = body.get("points", [])
                out["points"] = [_fraction(v, f"{p}.points") for v in pts]
                if len(set(out["points"])) != len(out["points"]):
                    raise ConfigError(f"{p}.points must be distinct")
                if len(out["points"]) < max(out["m"]):
                    raise ConfigError(f"{p}.points must cover the largest m")
            elif name == "hirota":
                out["max_d"] = int(body.get("max_d", 3))
                if out["max_d"] < 1:
                    raise ConfigError(f"{p}.max_d must be >= 1")
            else:  # vertex-ladder
                out["max_d"] = int(body.get("max_d", 3))
                if out["max_d"] < 0:
                    raise ConfigError(f"{p}.max_d must be >= 0")
        return out


def load_config(spec):
    """Load a config from a path or a bundled name ('quick', 'full')."""
    path = Path(spec)
    if not path.exists():
        try:
            text = (resources.files("extsource") / "configs" / f"{spec}.yaml").read_text()
        except (FileNotFoundError, TypeError):
            raise ConfigError(f"config {spec!r}: no such file or bundled name") from None
    else:
        text = path.read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# job construction


def _source_tuples(sources, m):
    return list(itertools.combinations(sources, m))


def build_jobs(cfg, mutate=False):
    """Deterministically ordered list of (record_skeleton, thunk)."""
    jobs = []

    def add(suite, params, thunk):
        rec = {"suite": suite, **params}
        jobs.append((rec, thunk))

    for name in sorted(cfg.suites):
        body = cfg.suites[name]
        if name == "identity":
            for wname in body["weights"]:
                W = cfg.weights[wname]
                svals = [(s, False) for s in body["s"]]
                svals += [(s, True) for s in body["exploratory_s"]]
                for E in body["intervals"]:
                    for s, exploratory in svals:
                        for d in body["d"]:
                            for m in body["m"]:
                                if m > d:
                                    continue
                                for tup in _source_tuples(body["sources"], m):
                                    add("identity",
                                        {"weight": wname, "E": E.to_spec(), "s": s,
                                         "d": d, "m": m, "sources": list(tup),
                                         "tol": body["rel_tol"],
                                         "exploratory": exploratory},
                                        _identity_thunk(W, E, s, d, tup,
                                                        body["rel_tol"], mutate))
        elif name == "z-ratio":
            for wname in body["weights"]:
                W = cfg.weights[wname]
                for d in body["d"]:
                    for m in body["m"]:
                        if m > d:
                            continue
                        for tup in _source_tuples(body["sources"], m):
                            add("z-ratio",
                                {"weight": wname, "d": d, "m": m,
                                 "sources": list(tup), "tol": body["rel_tol"]},
                                _zratio_thunk(W, d, tup, body["rel_tol"], mutate))
        elif name == "vertex-ladder":
            for wname in body["weights"]:
                W = cfg.weights[wname]
                cap = body["cap"]
                for d in range(body["max_d"] + 1):
                    add("vertex-ladder",
                        {"weight": wname, "d": d, "cap": cap},
                        _ladder_thunk(W, d, cap, body["max_d"] + 1, mutate))
        elif name == "hirota":
            for wname in body["weights"]:
                W = cfg.weights[wname]
                cap = body["cap"]
                for d1 in range(1, body["max_d"] + 1):
                    for d2 in range(d1):
                        add("hirota",
                            {"weight": wname, "d1": d1, "d2": d2, "cap": cap},
                            _hirota_thunk(W, d1, d2, cap, body["max_d"] + 1, mutate))
                add("hirota-sensitivity",
                    {"weight": wname, "d1": 1, "d2": 0, "cap": cap,
                     "corrupt_moment": MUTATE_MOMENT},
                    _hirota_sensitivity_thunk(W, cap, body["max_d"] + 1))
        elif name == "fay":
            a, b = None, None
            for wname in body["weights"]:
                W = cfg.weights[wname]
                a, b = body["points"]
                for d in body["d"]:
                    add("fay",
                        {"weight": wname, "d": d, "cap": body["cap"],
                         "points": [str(a), str(b)]},
                        _fay_thunk(W, d, a, b, body["cap"], max(body["d"]), mutate))
        elif name == "fay-det":
            for wname in body["weights"]:
                W = cfg.weights[wname]
                for d in body["d"]:
                    for m in body["m"]:
                        if m > d:
                            continue
                        pts = body["points"][:m]
                        add("fay-det",
                            {"weight": wname, "d": d, "m": m, "cap": body["cap"],
                             "points": [str(x) for x in pts]},
                            _fay_det_thunk(W, d, m, pts, body["cap"],
                                           max(body["d"]), mutate))
        elif name == "mc":
            for wname in body["weights"]:
                for E in body["intervals"]:
                    for s in body["s"]:
                        for d in body["d"]:
                            for m in body["m"]:
                                if m > d:
                                    continue
                                for tup in _source_tuples(body["sources"], m):
                                    add("mc",
                                        {"weight": wname, "E": E.to_spec(), "s": s,
                                         "d": d, "m": m, "sources": list(tup),
                                         "n": body["n"], "zmax": body["zmax"]},
                                        _mc_thunk(d, tup, E, s, body["n"],
                                                  cfg.seed, body["zmax"], mutate))
    seq = {}
    for rec, _ in jobs:
        i = seq.get(rec["suite"], 0)
        rec["id"] = f"{rec['suite']}-{i:04d}"
        seq[rec["suite"]] = i + 1
    return jobs


# thunks return dict fragments merged into the record


def _feasible(W, sources):
    bad = [a for a in sources if a >= W.max_tilt()]
    if bad:
        return (f"source {bad[0]} is not integrable against the "
                f"{W.undeformed().kind} weight (tilt bound {W.max_tilt()})")
    return None


def _identity_thunk(W, E, s, d, sources, tol, mutate):
    def thunk():
        reason = _feasible(W, sources)
        if reason:
            return {"status": "skipped", "reason": reason}
        q = mm.ExpectationQuery(
            mm.SourceModel(d, [(a, 1) for a in sources], W), E, s)
        rep = mm.verify_main_identity(q)
        if mutate:
            rep = mm.IdentityReport(rep.lhs * (1 + 1e-4), rep.rhs,
                                    abs(rep.lhs * (1 + 1e-4) - rep.rhs),
                                    abs(rep.lhs * (1 + 1e-4) - rep.rhs)
                                    / max(abs(rep.lhs), abs(rep.rhs), 1e-300),
                                    rep.diag)
        return _report_fields(rep, tol)
    return thunk


def _zratio_thunk(W, d, sources, tol, mutate):
    def thunk():
        reason = _feasible(W, sources)
        if reason:
            return {"status": "skipped", "reason": reason}
        rep = mm.z_ratio_det_check(W, d, list(sources))
        if mutate:
            rep = mm.IdentityReport(rep.lhs * (1 + 1e-4), rep.rhs,
                                    abs(rep.lhs * (1 + 1e-4) - rep.rhs),
                                    abs(rep.lhs * (1 + 1e-4) - rep.rhs)
                                    / max(abs(rep.lhs), abs(rep.rhs), 1e-300),
                                    rep.diag)
        return _report_fields(rep, tol)
    return thunk


def _report_fields(rep, tol):
    status = mm.classify(rep, rel_tol=tol)
    return {
        "status": status,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "abs_err": rep.abs_err,
        "rel_err": rep.rel_err,
        "diag": {k: (v if math.isfinite(v) else str(v)) for k, v in rep.diag.items()},
    }


def _ladder_thunk(W, d, cap, dmax, mutate):
    def thunk():
        cfg = TauConfig(W, cap, max(dmax, d + 1))
        rung_cfg = cfg.with_moment(MUTATE_MOMENT, cfg.moment(MUTATE_MOMENT) + 1) \
            if mutate else cfg
        got = tau_ladder_step(rung_cfg, d)
        want = zhat_series(cfg, d + 1)
        diff = got - want
        return _residual_fields(diff.terms)
    return thunk


def _hirota_thunk(W, d1, d2, cap, dmax, mutate):
    def thunk():
        cfg = TauConfig(W, cap, max(dmax, d1, d2 + 1))
        corrupt = (MUTATE_MOMENT, cfg.moment(MUTATE_MOMENT) + 1) if mutate else None
        bad = hirota_residual(cfg, d1, d2, corrupt_first=corrupt)
        return _residual_fields(dict(bad))
    return thunk


def _hirota_sensitivity_thunk(W, cap, dmax):
    # the checker must detect a one-sided corruption; pass = violations found
    def thunk():
        cfg = TauConfig(W, cap, dmax)
        bad = hirota_residual(cfg, 1, 0,
                              corrupt_first=(MUTATE_MOMENT,
                                             cfg.moment(MUTATE_MOMENT) + 1))
        fields = _residual_fields(dict(bad))
        fields["status"] = "pass" if bad else "fail"
        if not bad:
            fields["reason"] = "corrupted moment produced no violations"
        return fields
    return thunk


def _fay_thunk(W, d, a, b, cap, dmax, mutate):
    def thunk():
        cfg = TauConfig(W, cap, max(dmax, d))
        corrupt = (FAY_MUTATE_MOMENT, cfg.moment(FAY_MUTATE_MOMENT) + 1) if mutate else None
        res = fay_residual(cfg, d, a, b, corrupt_first=corrupt)
        return _residual_fields(res.terms)
    return thunk


def _fay_det_thunk(W, d, m, pts, cap, dmax, mutate):
    def thunk():
        cfg = TauConfig(W, cap, max(dmax, d))
        corrupt = (FAY_MUTATE_MOMENT, cfg.moment(FAY_MUTATE_MOMENT) + 1) if mutate else None
        res = fay_det_residual(cfg, d, m, pts, corrupt_lead=corrupt)
        return _residual_fields(res.terms)
    return thunk


def _residual_fields(terms):
    viol = {str(k): str(v) for k, v in sorted(terms.items())}
    return {
        "status": "pass" if not viol else "fail",
        "violations": len(viol),
        "violating_monomials": viol,
    }


def _mc_thunk(d, sources, E, s, n, seed, zmax, mutate):
    # the records already run on cfg.workers threads; a batch pool per record
    # would nest pools, and the Philox substreams make the estimate the same
    # however the batches are scheduled
    def thunk():
        chk = mc_mod.cross_check(d, list(sources), E, s, n, seed, workers=1)
        if mutate:
            corrupted = chk.quad * 1.05
            z = abs(chk.mc.mean - corrupted) / chk.mc.stderr \
                if chk.mc.stderr else math.inf
            chk = mc_mod.CrossCheck(chk.mc, corrupted, z)
        status = "pass" if chk.z <= zmax else "fail"
        return {
            "status": status,
            "mc_mean": chk.mc.mean,
            "mc_stderr": chk.mc.stderr,
            "quad": chk.quad,
            "z": chk.z if math.isfinite(chk.z) else str(chk.z),
        }
    return thunk


# ---------------------------------------------------------------------------
# execution and reports


def run(cfg, out_dir, workers=None, seed=None, mutate=False):
    """Execute the configured suites; returns (exit_code, summary_text)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is not None:
        cfg.seed = seed
    if workers is not None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        cfg.workers = workers
    start = time.monotonic()
    evals0 = mm.EVALS.n
    jobs = build_jobs(cfg, mutate=mutate)

    def execute(job):
        rec, thunk = job
        rec = dict(rec)
        try:
            rec.update(thunk())
        except (QuadratureError, NearConfluent, ValueError,
                ZeroDivisionError, ArithmeticError) as exc:
            rec["status"] = "error"
            rec["reason"] = f"{type(exc).__name__}: {exc}"
        return rec

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
            records = list(ex.map(execute, jobs))
    else:
        records = [execute(j) for j in jobs]

    records = [{"seed": cfg.seed, **r} for r in records]
    _write_ndjson(out / "results.ndjson", records)
    _write_csv(out / "results.csv", records)
    elapsed = time.monotonic() - start
    summary = _summarize(records, elapsed, mm.EVALS.n - evals0, mutate)
    (out / "summary.txt").write_text(summary)
    counted = [r for r in records if not r.get("exploratory")]
    nfail = sum(1 for r in counted if r["status"] in ("fail", "error"))
    return (1 if nfail else 0), summary


def _canonical(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_canonical(rec) + "\n")


CSV_COLUMNS = ["id", "suite", "status", "weight", "d", "m", "d1", "d2", "cap",
               "sources", "E", "s", "points", "n", "lhs", "rhs", "abs_err",
               "rel_err", "tol", "violations", "mc_mean", "mc_stderr", "quad",
               "z", "zmax", "exploratory", "reason"]


def _write_csv(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                v = rec.get(col, "")
                if isinstance(v, (list, dict)):
                    v = json.dumps(v)
                row.append(v)
            w.writerow(row)


def _summarize(records, elapsed, evals, mutate):
    by_suite = {}
    for rec in records:
        by_suite.setdefault(rec["suite"], []).append(rec)
    lines = []
    lines.append("suite              pass  fail  incon  skip  error  total   worst_rel_err")
    lines.append("-" * 78)
    for suite in sorted(by_suite):
        recs = by_suite[suite]
        counts = {k: sum(1 for r in recs if r["status"] == k)
                  for k in ("pass", "fail", "inconclusive", "skipped", "error")}
        worst = max((r.get("rel_err", 0.0) for r in recs
                     if isinstance(r.get("rel_err"), float)), default=0.0)
        lines.append(f"{suite:<18} {counts['pass']:>5} {counts['fail']:>5} "
                     f"{counts['inconclusive']:>6} {counts['skipped']:>5} "
                     f"{counts['error']:>6} {len(recs):>6}   {worst:.3e}")
    lines.append("-" * 78)
    total = len(records)
    nfail = sum(1 for r in records if r["status"] in ("fail", "error")
                and not r.get("exploratory"))
    lines.append(f"total records: {total}; failing (non-exploratory): {nfail}")
    if mutate:
        lines.append("MUTATION RUN: one-sided corruptions injected; failures expected")
    lines.append(f"wall time: {elapsed:.1f} s; integrand evaluations: {evals}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# explain


_EXPLAIN = {
    "identity": (
        "Rank-reduction identity: the normalized expectation of\n"
        "prod_j (1 - s chi_E(lambda_j)) under the d-dimensional source model\n"
        "equals det[G_{d-j}(a_k) Ebar_{d-j+1}(a_k)] / det[G_{d-j}(a_k)],\n"
        "j,k = 1..m, where G_q(a) integrates the q-th orthonormal polynomial\n"
        "against e^{a x} W(x) dx and every Ebar on the right is a rank-one\n"
        "normalized expectation at the reduced dimension."),
    "z-ratio": (
        "Determinant reduction of partition-function ratios:\n"
        "Z_d(a_1..a_m)/Z_d = det[a_k^{m-j} Z_{d+1-j}(a_k)/Z_{d+1-j}] /\n"
        "prod_{j<k}(a_j - a_k), valid for any weight."),
    "fay": (
        "Three-term shift identity:\n"
        "a Z_d(t+[a]) Z_{d-1}(t+[b]) - b Z_d(t+[b]) Z_{d-1}(t+[a])\n"
        "= (a-b) Z_d(t+[a]+[b]) Z_{d-1}(t), exact per monomial at every\n"
        "truncation weight."),
    "fay-det": (
        "Determinant generalization of the shift identity (denominators\n"
        "cleared): det[a_k^{m-j} Z_{d+1-j}(t+[a_k])] =\n"
        "Delta_m(a) Z_d(t+[a_1]+..+[a_m]) prod_{j=2..m} Z_{d+1-j}(t)."),
    "hirota": (
        "Bilinear residue identity: the z^-1 coefficient of\n"
        "Z_{d1}(t~ - [1/z]) Z_{d2+1}(t + [1/z]) e^{sum (t~_j - t_j) z^j}\n"
        "z^{d1-d2-1} vanishes identically for d1 > d2 >= 0."),
    "hirota-sensitivity": (
        "Checker self-test: corrupting one moment on one side of the\n"
        "bilinear identity must produce violations (a consistent change\n"
        "everywhere would just give another valid sequence)."),
    "vertex-ladder": (
        "Vertex pairing: integrating X(t,z) Z_d(t) against the index-d\n"
        "measure (formal z^-1 coefficient) reproduces Z_{d+1}(t) with exact\n"
        "rational coefficients."),
    "mc": (
        "Monte Carlo cross-check: the sampled mean of\n"
        "prod_j (1 - s chi_E(lambda_j)) over spiked Gaussian draws must sit\n"
        "within zmax standard errors of the determinant-pipeline value."),
}


def explain(results_path, check_id):
    """Human-readable account of one recorded check."""
    path = Path(results_path)
    if not path.exists():
        raise ConfigError(f"results file {results_path!r} not found")
    records = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                records[rec["id"]] = rec
    if check_id not in records:
        near = difflib.get_close_matches(check_id, records.keys(), n=3)
        hint = f"; nearest: {', '.join(near)}" if near else ""
        raise KeyError(f"unknown check id {check_id!r}{hint}")
    rec = records[check_id]
    buf = io.StringIO()
    buf.write(f"check {rec['id']} [{rec['status']}]\n\n")
    buf.write(_EXPLAIN.get(rec["suite"], "(no description)") + "\n\n")
    skip = {"id", "suite", "status", "diag", "violating_monomials"}
    buf.write("inputs and outcomes:\n")
    for k in sorted(rec):
        if k in skip:
            continue
        buf.write(f"  {k} = {rec[k]}\n")
    if rec.get("diag"):
        buf.write("conditioning diagnostics:\n")
        for k, v in sorted(rec["diag"].items()):
            buf.write(f"  {k} = {v}\n")
    if rec.get("violating_monomials"):
        buf.write("violating monomials (exponent tuples -> coefficient):\n")
        for k, v in rec["violating_monomials"].items():
            buf.write(f"  {k} -> {v}\n")
    return buf.getvalue()


def list_suites():
    return dict(SUITES)
