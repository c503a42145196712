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
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

import yaml

from . import matrix_model as mm
from . import mc as mc_mod
from .dkp import (
    TauConfig, zhat_series, tau_ladder_step, hirota_residual, fay_residual,
    fay_det_residual,
)
from .weights import IntervalSet, UnknownField, weight_from_spec, QuadratureError
from .schur import NearConfluent


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


MUTATE_MOMENT = 4  # moment corrupted by the bilinear/ladder sensitivity checks
# the shift-identity residual gains one weight unit from the leading symbol,
# so a corruption must sit low enough to survive truncation at small caps
FAY_MUTATE_MOMENT = 2


# ---------------------------------------------------------------------------
# typed field parsers: parse(value, path) returns the value the suites use or
# raises a ConfigError that names the field path

_REQUIRED = object()
# PyYAML (YAML 1.1) reads an exponent without a decimal point, or without a
# sign, as a string: 1e-9 and 1.0e9 are strings, 1.0e-9 is a float
_EXPONENT_TEXT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _get(body, key, parse, default=_REQUIRED, prefix=""):
    if key not in body:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {prefix}{key}")
        return default
    return parse(body[key], prefix + key)


def _typed(kind, what):
    def parse(v, path):
        if not isinstance(v, kind):
            raise ConfigError(f"{path} must be {what}, got {v!r}")
        return v
    return parse


def _integer(lo=None):
    def parse(v, path):
        if type(v) is not int:  # bool is an int subclass
            raise ConfigError(f"{path} must be an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{path} must be >= {lo}, got {v}")
        return v
    return parse


def _number(v, path):
    if isinstance(v, str) and _EXPONENT_TEXT.fullmatch(v):
        raise ConfigError(f"{path}: YAML reads {v} as a string; write it with a "
                          "decimal point and a signed exponent, e.g. 1.0e-9")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path} must be a finite number, got {v!r}")
    return float(v)


def _positive(v, path):
    x = _number(v, path)
    if x <= 0:
        raise ConfigError(f"{path} must be > 0, got {v!r}")
    return x


def _nonzero(v, path):
    x = _number(v, path)
    if x == 0:
        raise ConfigError(f"{path} must be nonzero")
    return x


def _built(build, *errors):
    def parse(v, path):
        try:
            return build(v)
        except UnknownField as exc:
            raise ConfigError(f"{path}.{exc.key}: {exc}") from None
        except errors as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parse


def _nonempty_list(item, distinct=False):
    def parse(v, path):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path} must be a nonempty list")
        out = [item(x, f"{path}[{i}]") for i, x in enumerate(v)]
        if distinct and len(set(out)) != len(out):
            raise ConfigError(f"{path} entries must be distinct")
        return out
    return parse


@dataclass(frozen=True)
class Suite:
    """Everything the harness knows about one suite.

    `fields` maps each body key besides `weights` to (parse, default or
    _REQUIRED).  `jobs(cfg, body, W, mutate)` yields (params, thunk) per record
    of one weight in a fixed order; params may set `suite` to another record
    suite, explained by `more_explain`.  `weight_issue(W)` and `check(body)`
    return what makes a weight or a whole body unusable, or None.
    """

    summary: str
    explain: str
    fields: dict
    jobs: Callable
    weight_issue: Callable = None
    check: Callable = None
    more_explain: dict = field(default_factory=dict)


TOP_LEVEL_FIELDS = ["schema", "seed", "workers", "out_dir", "weights", "suites"]


class RunConfig:
    """Validated run description."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        for key in raw:
            if key not in TOP_LEVEL_FIELDS:
                raise ConfigError(f"{key}: unknown field (expected one of {TOP_LEVEL_FIELDS})")
        schema = _get(raw, "schema", _integer())
        if schema != 1:
            raise ConfigError(f"unsupported schema {schema!r} (expected 1)")
        self.seed = _get(raw, "seed", _integer(), 0)
        self.workers = _get(raw, "workers", _integer(1), 1)
        self.out_dir = _get(raw, "out_dir", _typed(str, "a string path"), None)
        mapping = _typed(dict, "a mapping")
        weight = _built(weight_from_spec, KeyError, ValueError)
        self.weights = {name: weight(mapping(spec, f"weights.{name}"), f"weights.{name}")
                        for name, spec in _get(raw, "weights", mapping).items()}
        self.suites = {}
        for name, body in _get(raw, "suites", mapping).items():
            if name not in SUITES:
                raise ConfigError(
                    f"suites.{name}: unknown suite (choose from {sorted(SUITES)})")
            self.suites[name] = self._validate_suite(name, mapping(body, f"suites.{name}"))

    def _validate_suite(self, name, body):
        suite = SUITES[name]
        p = f"suites.{name}."
        known = ["weights", *suite.fields]
        for key in body:
            if key not in known:
                raise ConfigError(f"{p}{key}: unknown field (expected one of {known})")
        out = {"weights": _get(body, "weights",
                               _nonempty_list(_typed(str, "a weight name")), prefix=p)}
        for i, n in enumerate(out["weights"]):
            if n not in self.weights:
                raise ConfigError(f"{p}weights[{i}]: unknown weight {n!r}")
            issue = suite.weight_issue and suite.weight_issue(self.weights[n])
            if issue:
                raise ConfigError(f"{p}weights[{i}]: {n!r} {issue}")
        for key, (parse, default) in suite.fields.items():
            out[key] = _get(body, key, parse, default, prefix=p)
        problem = suite.check and suite.check(out)
        if problem:
            raise ConfigError(p + problem)
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


def build_jobs(cfg, mutate=False):
    """Deterministically ordered list of (record_skeleton, thunk)."""
    jobs = []
    seq = {}
    for name in sorted(cfg.suites):
        body = cfg.suites[name]
        for wname in body["weights"]:
            for params, thunk in SUITES[name].jobs(cfg, body, cfg.weights[wname], mutate):
                rec = {"suite": name, "weight": wname, **params}
                i = seq.get(rec["suite"], 0)
                seq[rec["suite"]] = i + 1
                rec["id"] = f"{rec['suite']}-{i:04d}"
                jobs.append((rec, thunk))
    return jobs


def _rank_grid(body):
    """(d, m, sources) for every m <= d and every m-subset of the sources."""
    for d in body["d"]:
        for m in body["m"]:
            if m <= d:
                for tup in itertools.combinations(body["sources"], m):
                    yield d, m, tup


def _identity_jobs(cfg, body, W, mutate):
    tol = body["rel_tol"]
    svals = [(s, False) for s in body["s"]] + [(s, True) for s in body["exploratory_s"]]
    for E in body["intervals"]:
        for s, exploratory in svals:
            for d, m, tup in _rank_grid(body):
                yield ({"E": E.to_spec(), "s": s, "d": d, "m": m, "sources": list(tup),
                        "tol": tol, "exploratory": exploratory},
                       _float_thunk(W, tup, tol, mutate, _identity_report, W, E, s, d, tup))


def _zratio_jobs(cfg, body, W, mutate):
    tol = body["rel_tol"]
    for d, m, tup in _rank_grid(body):
        yield ({"d": d, "m": m, "sources": list(tup), "tol": tol},
               _float_thunk(W, tup, tol, mutate, mm.z_ratio_det_check, W, d, list(tup)))


def _ladder_jobs(cfg, body, W, mutate):
    cap, dmax = body["cap"], body["max_d"] + 1
    for d in range(dmax):
        yield ({"d": d, "cap": cap},
               _exact_thunk(W, cap, dmax, MUTATE_MOMENT, mutate, _ladder_residual, d))


def _hirota_jobs(cfg, body, W, mutate):
    cap, dmax = body["cap"], body["max_d"] + 1
    for d1 in range(1, dmax):
        for d2 in range(d1):
            yield ({"d1": d1, "d2": d2, "cap": cap},
                   _exact_thunk(W, cap, dmax, MUTATE_MOMENT, mutate, _hirota_residual, d1, d2))
    yield ({"suite": "hirota-sensitivity", "d1": 1, "d2": 0, "cap": cap,
            "corrupt_moment": MUTATE_MOMENT},
           _sensitivity_thunk(W, cap, dmax))


def _fay_jobs(cfg, body, W, mutate):
    cap, dmax = body["cap"], max(body["d"])
    a, b = body["points"]
    for d in body["d"]:
        yield ({"d": d, "cap": cap, "points": [str(a), str(b)]},
               _exact_thunk(W, cap, dmax, FAY_MUTATE_MOMENT, mutate, _fay_residual, d, a, b))


def _fay_det_jobs(cfg, body, W, mutate):
    cap, dmax = body["cap"], max(body["d"])
    for d in body["d"]:
        for m in body["m"]:
            if m <= d:
                pts = body["points"][:m]
                yield ({"d": d, "m": m, "cap": cap, "points": [str(x) for x in pts]},
                       _exact_thunk(W, cap, dmax, FAY_MUTATE_MOMENT, mutate,
                                    _fay_det_residual, d, m, pts))


def _mc_jobs(cfg, body, W, mutate):
    n, zmax = body["n"], body["zmax"]
    for E in body["intervals"]:
        for s in body["s"]:
            for d, m, tup in _rank_grid(body):
                yield ({"E": E.to_spec(), "s": s, "d": d, "m": m, "sources": list(tup),
                        "n": n, "zmax": zmax},
                       _mc_thunk(d, tup, E, s, n, cfg.seed, zmax, mutate))


# thunks return dict fragments merged into the record


def _float_thunk(W, sources, tol, mutate, report, *args):
    """Skip infeasible sources, else judge report(*args) at relative tol."""
    def thunk():
        bad = [a for a in sources if a >= W.max_tilt()]
        if bad:
            return {"status": "skipped",
                    "reason": f"source {bad[0]} is not integrable against the "
                              f"{W.undeformed().kind} weight (tilt bound {W.max_tilt()})"}
        rep = report(*args)
        if mutate:
            lhs = rep.lhs * (1 + 1e-4)
            abs_err = abs(lhs - rep.rhs)
            rep = mm.IdentityReport(lhs, rep.rhs, abs_err,
                                    abs_err / max(abs(rep.lhs), abs(rep.rhs), 1e-300),
                                    rep.diag)
        return {
            "status": mm.classify(rep, rel_tol=tol),
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "abs_err": rep.abs_err,
            "rel_err": rep.rel_err,
            "diag": {k: (v if math.isfinite(v) else str(v)) for k, v in rep.diag.items()},
        }
    return thunk


def _identity_report(W, E, s, d, sources):
    return mm.verify_main_identity(
        mm.ExpectationQuery(mm.SourceModel(d, [(a, 1) for a in sources], W), E, s))


def _exact_thunk(W, cap, dmax, moment, mutate, residual, *args):
    """Record the violations residual(cfg, corrupt, *args) returns; under
    mutate, `corrupt` raises one moment by one on one side of the identity."""
    def thunk():
        cfg = TauConfig(W, cap, dmax)
        corrupt = (moment, cfg.moment(moment) + 1) if mutate else None
        terms = residual(cfg, corrupt, *args)
        viol = {str(k): str(v) for k, v in sorted(terms.items())}
        return {
            "status": "pass" if not viol else "fail",
            "violations": len(viol),
            "violating_monomials": viol,
        }
    return thunk


def _ladder_residual(cfg, corrupt, d):
    rung_cfg = cfg if corrupt is None else cfg.with_moment(*corrupt)
    return (tau_ladder_step(rung_cfg, d) - zhat_series(cfg, d + 1)).terms


def _hirota_residual(cfg, corrupt, d1, d2):
    return dict(hirota_residual(cfg, d1, d2, corrupt_first=corrupt))


def _fay_residual(cfg, corrupt, d, a, b):
    return fay_residual(cfg, d, a, b, corrupt_first=corrupt).terms


def _fay_det_residual(cfg, corrupt, d, m, pts):
    return fay_det_residual(cfg, d, m, pts, corrupt_lead=corrupt).terms


def _sensitivity_thunk(W, cap, dmax):
    # the checker must detect a one-sided corruption; pass = violations found
    corrupted = _exact_thunk(W, cap, dmax, MUTATE_MOMENT, True, _hirota_residual, 1, 0)

    def thunk():
        fields = corrupted()
        if fields["violations"]:
            fields["status"] = "pass"
        else:
            fields.update(status="fail", reason="corrupted moment produced no violations")
        return fields
    return thunk


def _mc_thunk(d, sources, E, s, n, seed, zmax, mutate):
    # records run on cfg.workers threads; the sampler itself starts none
    def thunk():
        chk = mc_mod.cross_check(d, list(sources), E, s, n, seed)
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
# the suite table: a new suite is one entry here


def _needs_exact_moments(W):
    return None if W.exact_moments else "has no exact moments; this suite is exact-rational only"


_COUNTS = _nonempty_list(_integer(1))
_INTERVALS = _nonempty_list(_built(IntervalSet.from_spec, ValueError, TypeError))
_RATIONALS = _nonempty_list(_built(lambda v: Fraction(str(v)), ValueError, ZeroDivisionError),
                            distinct=True)
_RANK_FIELDS = {"d": (_COUNTS, _REQUIRED), "m": (_COUNTS, _REQUIRED),
                "sources": (_nonempty_list(_nonzero, distinct=True), _REQUIRED)}
_GAP_FIELDS = {**_RANK_FIELDS, "intervals": (_INTERVALS, _REQUIRED),
               "s": (_nonempty_list(_number), _REQUIRED)}
_CAP = (_integer(1), 4)

SUITES = {
    "identity": Suite(
        summary="rank-reduction identity for normalized gap expectations",
        explain=(
            "Rank-reduction identity: the normalized expectation of\n"
            "prod_j (1 - s chi_E(lambda_j)) under the d-dimensional source model\n"
            "equals det[G_{d-j}(a_k) Ebar_{d-j+1}(a_k)] / det[G_{d-j}(a_k)],\n"
            "j,k = 1..m, where G_q(a) integrates the q-th orthonormal polynomial\n"
            "against e^{a x} W(x) dx and every Ebar on the right is a rank-one\n"
            "normalized expectation at the reduced dimension."),
        fields={**_GAP_FIELDS, "exploratory_s": (_nonempty_list(_number), []),
                "rel_tol": (_positive, 1e-8)},
        jobs=_identity_jobs),
    "z-ratio": Suite(
        summary="determinant reduction of multi-source partition-function ratios",
        explain=(
            "Determinant reduction of partition-function ratios:\n"
            "Z_d(a_1..a_m)/Z_d = det[a_k^{m-j} Z_{d+1-j}(a_k)/Z_{d+1-j}] /\n"
            "prod_{j<k}(a_j - a_k), valid for any weight."),
        fields={**_RANK_FIELDS, "rel_tol": (_positive, 1e-8)},
        jobs=_zratio_jobs),
    "fay": Suite(
        summary="three-term shift identity of the series ladder (exact)",
        explain=(
            "Three-term shift identity:\n"
            "a Z_d(t+[a]) Z_{d-1}(t+[b]) - b Z_d(t+[b]) Z_{d-1}(t+[a])\n"
            "= (a-b) Z_d(t+[a]+[b]) Z_{d-1}(t), exact per monomial at every\n"
            "truncation weight."),
        fields={"cap": _CAP, "d": (_COUNTS, [1]), "points": (_RATIONALS, _REQUIRED)},
        jobs=_fay_jobs, weight_issue=_needs_exact_moments,
        check=lambda body: None if len(body["points"]) == 2 else "points must be two rationals"),
    "fay-det": Suite(
        summary="determinant generalization of the shift identity (exact)",
        explain=(
            "Determinant generalization of the shift identity (denominators\n"
            "cleared): det[a_k^{m-j} Z_{d+1-j}(t+[a_k])] =\n"
            "Delta_m(a) Z_d(t+[a_1]+..+[a_m]) prod_{j=2..m} Z_{d+1-j}(t)."),
        fields={"cap": _CAP, "d": (_COUNTS, [2]), "m": (_COUNTS, [2]),
                "points": (_RATIONALS, _REQUIRED)},
        jobs=_fay_det_jobs, weight_issue=_needs_exact_moments,
        check=lambda body: None if len(body["points"]) >= max(body["m"]) else
        f"points must cover the largest m ({max(body['m'])})"),
    "hirota": Suite(
        summary="bilinear residue identity across ladder indices (exact)",
        explain=(
            "Bilinear residue identity: the z^-1 coefficient of\n"
            "Z_{d1}(t~ - [1/z]) Z_{d2+1}(t + [1/z]) e^{sum (t~_j - t_j) z^j}\n"
            "z^{d1-d2-1} vanishes identically for d1 > d2 >= 0."),
        fields={"cap": _CAP, "max_d": (_integer(1), 3)},
        jobs=_hirota_jobs, weight_issue=_needs_exact_moments,
        more_explain={"hirota-sensitivity": (
            "Checker self-test: corrupting one moment on one side of the\n"
            "bilinear identity must produce violations (a consistent change\n"
            "everywhere would just give another valid sequence).")}),
    "vertex-ladder": Suite(
        summary="vertex pairing maps each series to the next (exact)",
        explain=(
            "Vertex pairing: integrating X(t,z) Z_d(t) against the index-d\n"
            "measure (formal z^-1 coefficient) reproduces Z_{d+1}(t) with exact\n"
            "rational coefficients."),
        fields={"cap": _CAP, "max_d": (_integer(0), 3)},
        jobs=_ladder_jobs, weight_issue=_needs_exact_moments),
    "mc": Suite(
        summary="Monte Carlo spiked-ensemble cross-check of the expectations",
        explain=(
            "Monte Carlo cross-check: the sampled mean of\n"
            "prod_j (1 - s chi_E(lambda_j)) over spiked Gaussian draws must sit\n"
            "within zmax standard errors of the determinant-pipeline value."),
        fields={**_GAP_FIELDS, "n": (_integer(1000), 100000), "zmax": (_positive, 3.0)},
        jobs=_mc_jobs, weight_issue=lambda W: None if W.kind == "gaussian" else
        "is not gaussian; the sampler is exact only for the gaussian weight"),
}


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
    buf.write(_explain_text(rec["suite"]) + "\n\n")
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


def _explain_text(suite):
    for name, entry in SUITES.items():
        text = entry.explain if name == suite else entry.more_explain.get(suite)
        if text:
            return text
    return "(no description)"


def list_suites():
    return {name: entry.summary for name, entry in SUITES.items()}
