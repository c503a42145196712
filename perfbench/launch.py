"""One cold `extsource run` in a fresh process, optionally traced.

run.py starts this script once per measured run:

    python3 perfbench/launch.py MODE REPORT CONFIG OUT_DIR SEED T0_NS [SPANS]

T0_NS is the parent's `time.monotonic_ns()` taken just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so the times in
REPORT count from process start.  REPORT receives one JSON object: the exit
code of `extsource run`, when the job list was built and when the three
output files were written, peak RSS and CPU time.

MODE is `run`, `trace` or `setup`.  With `trace`, the public entry points of
every module are wrapped from outside (no file of the program is edited),
one span is kept in memory per call, and at the end the spans are written
to SPANS and their per-name counts and self times are added to REPORT.
With `setup`, the process stops as soon as the job list is built.
"""

import functools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """Spans (name, parent, request id, start, end) kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = Counter()
        self.basis_keys = set()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.request, clock(), 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
        return traced

    def add_span(self, name, start, end):
        self.spans.append([name, -1, None, start, end])

    def summary(self):
        """{name: [calls, self_ns, total_ns]}; self time is the span's
        duration minus the durations of its direct child spans (one thread,
        so children never overlap)."""
        covered = [0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start - covered[i]
            agg[2] += end - start
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\trequest\tstart_ns\tend_ns\n")
            for i, (name, parent, req, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{req or ''}\t{start}\t{end}\n")


def install(tracer):
    """Wrap each layer's entry points at the names their callers look up."""
    import numpy as np
    from extsource import cli, dkp, harness, matrix_model as mm, mc, schur, series, weights

    t = tracer

    def patch(name, owners, attr, wrapper_factory=None):
        orig = getattr(owners[0], attr)
        traced = t.wrap(name, orig)
        wrapped = wrapper_factory(orig, traced) if wrapper_factory else traced
        for owner in owners:
            setattr(owner, attr, wrapped)

    # harness: config, job list, one span per record (request id = record
    # id), result files
    patch("harness.load_config", [cli], "load_config")
    patch("harness.run", [cli], "run")

    def jobs_factory(orig, traced):
        def build_jobs(*args, **kwargs):
            jobs = traced(*args, **kwargs)
            return [(rec, _job(rec, thunk)) for rec, thunk in jobs]
        return build_jobs

    def _job(rec, thunk):
        traced = t.wrap("harness.job", thunk)

        def run_job():
            t.request = rec["id"]
            try:
                return traced()
            finally:
                t.request = None
        return run_job

    patch("harness.build_jobs", [harness], "build_jobs", jobs_factory)
    for attr in ("_write_ndjson", "_write_csv", "_summarize"):
        patch("harness.write", [harness], attr)

    # weights: basis construction and quadrature
    def basis_factory(orig, traced):
        def orthonormal_basis(W, n, *args, **kwargs):
            basis = traced(W, n, *args, **kwargs)
            t.basis_keys.add((repr(W.key()), n))
            return basis
        return orthonormal_basis

    patch("weights.orthonormal_basis", [weights, mm], "orthonormal_basis", basis_factory)

    def quad_factory(orig, traced):
        def integrate_pieces(f, *args, **kwargs):
            def counted(x):
                t.counts["integrand_points"] += x.size
                return f(x)
            return traced(counted, *args, **kwargs)
        return integrate_pieces

    patch("weights.integrate_pieces", [weights, mm], "integrate_pieces", quad_factory)
    patch("weights.domain_pieces", [weights, mm], "domain_pieces")
    patch("weights.basis_eval", [weights.OrthoBasis], "eval_all")

    # matrix_model: entry vectors, fused row values, determinants, checks
    def entry_factory(orig, traced):
        def entry_vector(*args, **kwargs):
            before = len(mm._ENTRY_CACHE)
            vec = traced(*args, **kwargs)
            t.counts["entry_computed"] += len(mm._ENTRY_CACHE) > before
            return vec
        return entry_vector

    patch("matrix_model.entry_vector", [mm], "_entry_vector", entry_factory)

    def fused_factory(orig, traced):
        def values_fused(row, x, logw):
            t.counts["values_fused_points"] += np.size(x)
            return traced(row, x, logw)
        return values_fused

    patch("matrix_model.values_fused", [mm.DividedExpRow], "values_fused", fused_factory)
    patch("matrix_model.slogdet", [mm], "_slogdet_with_cond")
    patch("matrix_model.identity_check", [mm], "verify_main_identity")
    patch("matrix_model.zratio_check", [mm], "z_ratio_det_check")
    patch("matrix_model.expectation", [mm, mc], "expectation")

    # series: products of two series (scalar scaling is not a product)
    TS = series.TruncatedSeries

    def mul_factory(orig, traced):
        def mul(a, b):
            if not isinstance(b, TS):
                return orig(a, b)
            t.counts["mul_term_pairs"] += len(a.terms) * len(b.terms)
            return traced(a, b)
        return mul

    patch("series.mul", [TS], "__mul__", mul_factory)
    TS.__rmul__ = TS.__mul__
    patch("series.laurent_mul", [series, dkp], "laurent_mul")

    # schur and dkp
    patch("schur.det_series", [schur, dkp], "det_series")
    patch("schur.elementary_schur", [schur, dkp], "elementary_schur")
    patch("dkp.coeff", [dkp], "_coeff")
    patch("dkp.zhat_series", [dkp, harness], "zhat_series")
    patch("dkp.ladder", [dkp, harness], "tau_ladder_step")
    patch("dkp.hirota", [dkp, harness], "hirota_residual")
    patch("dkp.fay", [dkp, harness], "fay_residual")
    patch("dkp.fay", [dkp, harness], "fay_det_residual")

    # mc: the sampler and its batched eigensolver
    def sampler_factory(orig, traced):
        def estimate_expectation(d, a, E, s, N, *args, **kwargs):
            t.counts["draws"] += N
            return traced(d, a, E, s, N, *args, **kwargs)
        return estimate_expectation

    # numpy's own Gauss-Legendre nodes call eigvalsh too; only the sampler's
    # calls are spans of this layer
    def eigvalsh_factory(orig, traced):
        def eigvalsh(*args, **kwargs):
            inside = t.stack and t.spans[t.stack[-1]][0] == "mc.sampler"
            return (traced if inside else orig)(*args, **kwargs)
        return eigvalsh

    patch("mc.cross_check", [mc], "cross_check")
    patch("mc.sampler", [mc], "estimate_expectation", sampler_factory)
    patch("mc.eigvalsh", [np.linalg], "eigvalsh", eigvalsh_factory)


class SetupDone(Exception):
    """Raised out of build_jobs in `setup` mode."""


def main(argv):
    mode, report_path, config, out_dir, seed, t0_ns = argv[:6]
    t0_ns = int(t0_ns)
    import extsource
    if not Path(extsource.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"extsource imported from {extsource.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    from extsource import cli, harness

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install(tracer)
    marks = {}
    build_jobs = harness.build_jobs

    def timed_build_jobs(*args, **kwargs):
        jobs = build_jobs(*args, **kwargs)
        marks["jobs_ns"] = time.monotonic_ns()
        if mode == "setup":
            raise SetupDone
        return jobs

    harness.build_jobs = timed_build_jobs
    if tracer:
        tracer.add_span("harness.startup", t0_ns, time.monotonic_ns())
    try:
        code = cli.main(["run", "--config", config, "--out-dir", out_dir,
                         "--workers", "1", "--seed", seed])
    except SetupDone:
        code = 0
    done_ns = time.monotonic_ns()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "exit_code": code,
        "setup_s": (marks["jobs_ns"] - t0_ns) / 1e9 if "jobs_ns" in marks else None,
        "wall_s": (done_ns - t0_ns) / 1e9,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer:
        report["spans"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        report["basis_keys"] = len(tracer.basis_keys)
        tracer.write(argv[6])
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
