"""Benchmark of cold `extsource run` invocations.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each measured run starts a fresh interpreter (perfbench/launch.py) that runs
`extsource run --workers 1` on the workload's config, so every cache starts
cold, as it does for a user.  Runs repeat until the next one would end after
--seconds; medians are reported.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 traced and untraced runs alternate and the
per-layer metrics come from the traced ones.  The outputs are then checked
against computations made apart from the program (checks.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEFAULT_SEED = 20260809
WORKLOADS = ("float-sweep", "exact-series", "mc-sampler")
RUN_TIMEOUT_S = 170
SETUP_PROBES = 6
# one thread everywhere: BLAS pools off, and `--workers 1` in launch.py
ENV_OVERRIDES = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ, **ENV_OVERRIDES)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_run(index, mode, config, seed, deadline):
    """Start one fresh process in `mode` (run, trace or setup); returns its
    report (see launch.py)."""
    out = RUNS / f"run{index}"
    report = RUNS / f"run{index}.json"
    cmd = [sys.executable, str(HERE / "launch.py"), mode, str(report), str(config),
           str(out), str(seed)]
    t0 = time.monotonic_ns()
    cmd += [str(t0), str(RUNS / f"run{index}.spans.tsv")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = (time.monotonic_ns() - t0) / 1e9
    if not report.exists():
        raise RuntimeError(f"run {index} wrote no report (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    rep = json.loads(report.read_text())
    rep.update(traced=mode == "trace", elapsed_s=elapsed, out=out, stderr=proc.stderr,
               returncode=proc.returncode)
    return rep


def measure(config, seed, seconds, trace, deadline):
    """SETUP_PROBES set-up-only processes, then cold runs until the next would
    end after `seconds`; with trace, untraced and traced runs alternate and
    at least one of each is made.  Returns (probes, runs)."""
    start = time.monotonic()
    probes = [cold_run(i, "setup", config, seed, deadline) for i in range(SETUP_PROBES)]
    runs = []
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(cold_run(SETUP_PROBES + len(runs), "trace" if traced else "run",
                             config, seed, deadline))
        if trace and len(runs) < 2:
            continue
        nxt = trace and len(runs) % 2 == 1
        same = [r["elapsed_s"] for r in runs if r["traced"] == nxt]
        if time.monotonic() - start + max(same) > seconds:
            return probes, runs


def end_to_end(probes, runs):
    return {
        "wall_s": (statistics.median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (statistics.median([r["setup_s"] for r in probes + runs]), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in runs]), "MB"),
    }


def layer_metrics(rep):
    """Per-layer metrics of one traced run."""
    spans, counts = rep["spans"], rep["counts"]

    def calls(*names):
        return sum(spans.get(n, (0, 0, 0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def total_s(name):
        return spans.get(name, (0, 0, 0))[2] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(prefix):
        return sum(v[1] for n, v in spans.items() if n.startswith(prefix + ".")) / 1e9

    builds = calls("weights.orthonormal_basis")
    entries = calls("matrix_model.entry_vector")
    fused_points = counts.get("values_fused_points", 0)
    m = {
        "weights.basis_builds": (builds, "count"),
        "weights.basis_s": (self_s("weights.orthonormal_basis"), "s"),
        "weights.basis_useful_ratio": (ratio(rep["basis_keys"], builds), "ratio"),
        "weights.basis_eval_s": (self_s("weights.basis_eval"), "s"),
        "weights.quad_calls": (calls("weights.integrate_pieces"), "count"),
        "weights.quad_s": (self_s("weights.integrate_pieces"), "s"),
        "weights.integrand_points": (counts.get("integrand_points", 0), "count"),
        "weights.domain_s": (self_s("weights.domain_pieces"), "s"),
        "matrix_model.entry_calls": (entries, "count"),
        "matrix_model.entry_computed": (counts.get("entry_computed", 0), "count"),
        "matrix_model.entry_reuse_ratio":
            (ratio(entries - counts.get("entry_computed", 0), entries), "ratio"),
        "matrix_model.entry_s": (self_s("matrix_model.entry_vector"), "s"),
        "matrix_model.values_fused_calls": (calls("matrix_model.values_fused"), "count"),
        "matrix_model.values_fused_s": (self_s("matrix_model.values_fused"), "s"),
        "matrix_model.values_fused_ns_per_point":
            (ratio(self_s("matrix_model.values_fused") * 1e9, fused_points), "ns"),
        "matrix_model.slogdet_calls": (calls("matrix_model.slogdet"), "count"),
        "matrix_model.slogdet_s": (self_s("matrix_model.slogdet"), "s"),
        "matrix_model.identity_check_s": (self_s("matrix_model.identity_check"), "s"),
        "matrix_model.zratio_check_s": (self_s("matrix_model.zratio_check"), "s"),
        "matrix_model.expectation_s": (self_s("matrix_model.expectation"), "s"),
        "series.mul_calls": (calls("series.mul"), "count"),
        "series.mul_s": (self_s("series.mul"), "s"),
        "series.mul_term_pairs": (counts.get("mul_term_pairs", 0), "count"),
        "series.laurent_mul_s": (self_s("series.laurent_mul"), "s"),
        "schur.det_series_s": (self_s("schur.det_series"), "s"),
        "schur.elementary_schur_calls": (calls("schur.elementary_schur"), "count"),
        "schur.elementary_schur_s": (self_s("schur.elementary_schur"), "s"),
        "dkp.zhat_series_calls": (calls("dkp.zhat_series"), "count"),
        "dkp.zhat_series_s": (self_s("dkp.zhat_series"), "s"),
        "dkp.coeff_calls": (calls("dkp.coeff"), "count"),
        "dkp.coeff_s": (self_s("dkp.coeff"), "s"),
        "dkp.ladder_s": (self_s("dkp.ladder"), "s"),
        "dkp.hirota_s": (self_s("dkp.hirota"), "s"),
        "dkp.fay_s": (self_s("dkp.fay"), "s"),
        "mc.cross_check_s": (self_s("mc.cross_check"), "s"),
        "mc.sampler_s": (self_s("mc.sampler"), "s"),
        "mc.eigvalsh_s": (self_s("mc.eigvalsh"), "s"),
        "mc.draws_per_s": (ratio(counts.get("draws", 0), total_s("mc.sampler")), "1/s"),
        "harness.startup_s": (self_s("harness.startup"), "s"),
        "harness.job_s": (self_s("harness.job"), "s"),
        "harness.write_s": (self_s("harness.write"), "s"),
    }
    for layer in ("weights", "matrix_model", "series", "schur", "dkp", "mc", "harness"):
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    covered = sum(v[1] for v in spans.values()) / 1e9
    m["trace.span_share"] = (covered / rep["wall_s"], "ratio")
    m["trace.spans"] = (sum(v[0] for v in spans.values()), "count")
    return m


def per_layer(runs):
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    each = [layer_metrics(r) for r in traced]
    m = {k: (statistics.median([e[k][0] for e in each]), unit) for k, (_, unit) in each[0].items()}
    m["harness.cpu_s"] = (statistics.median([r["cpu_s"] for r in plain]), "s")
    m["trace.wall_s"] = (statistics.median([r["wall_s"] for r in traced]), "s")
    # each traced run against the untraced run just before it, so that a
    # slow drift of the machine's speed cancels
    m["trace.overhead_s"] = (statistics.median(
        [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)]), "s")
    return m


def check_runs(workload, cfg, probes, runs):
    """All checks; returns (problems, records of the first run)."""
    problems = []
    for i, r in enumerate(probes + runs):
        if r["exit_code"] != 0 or r["returncode"] != 0 or r["setup_s"] is None:
            problems.append(f"process {i}: exit code {r['exit_code']}/{r['returncode']}\n"
                            f"{r['stderr'][-2000:]}")
    if not all((r["out"] / "results.ndjson").is_file() for r in runs):
        return problems + ["results.ndjson not written"], []
    digests = {hashlib.sha256((r["out"] / "results.ndjson").read_bytes()).hexdigest()
               for r in runs}
    if len(digests) != 1:
        problems.append(f"results.ndjson differs between runs ({len(digests)} versions)")
    for name in ("results.csv", "summary.txt"):
        if not (runs[0]["out"] / name).is_file():
            problems.append(f"{name} not written")
    text = (runs[0]["out"] / "results.ndjson").read_text()
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    want = checks.expected_records(cfg)
    if len(records) != want:
        problems.append(f"{len(records)} records, grid has {want}")
    if workload == "float-sweep":
        problems += checks.check_float_sweep(records)
    elif workload == "mc-sampler":
        problems += checks.check_mc(records)
    else:
        problems += checks.check_exact_series(records)
        sys.path.insert(0, str(SRC))
        from extsource.weights import weight_from_spec
        weights = {spec["kind"]: weight_from_spec(spec) for spec in cfg["weights"].values()}
        cap = max(body["cap"] for body in cfg["suites"].values())
        problems += checks.check_zhat1(weights, cap)
    return problems, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (SRC / "extsource" / "__init__.py").is_file():
        log(f"no extsource sources under {SRC}")
        return 2
    config = HERE / "workloads" / f"{args.workload}.yaml"
    cfg = yaml.safe_load(config.read_text())

    shutil.rmtree(RUNS, ignore_errors=True)
    RUNS.mkdir()
    # compile the sources and page in the libraries before any timed run
    subprocess.run([sys.executable, "-c", "import extsource.cli"], cwd=ROOT,
                   env=child_env(), check=True)

    probes, runs = measure(config, args.seed, args.seconds, bool(args.trace), deadline)
    problems, records = check_runs(args.workload, cfg, probes, runs)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    failed = sum(1 for r in records if r["status"] in ("fail", "error")
                 and not r.get("exploratory")) * len(runs)
    if problems:
        metrics = {}
    elif args.trace:
        metrics = per_layer(runs)
    else:
        metrics = end_to_end(probes, runs)
    log(f"{args.workload}: {len(runs)} cold runs, "
        + ", ".join(f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in runs))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, len(records) * len(runs)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
