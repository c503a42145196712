import copy
import json
from pathlib import Path

import pytest
import yaml

from extsource.harness import (
    ConfigError, RunConfig, load_config, build_jobs, run, explain, list_suites,
    SUITES,
)
from extsource.cli import main


MINI = """
schema: 1
seed: 7
workers: 1
weights:
  gaussian: {kind: gaussian}
  laguerre: {kind: laguerre}
suites:
  identity:
    weights: [gaussian, laguerre]
    d: [2]
    m: [1]
    sources: [0.5, 1.4]
    intervals:
      - [[1, inf]]
    s: [1.0]
    rel_tol: 1.0e-8
  vertex-ladder:
    weights: [gaussian]
    cap: 4
    max_d: 1
"""


def mini_cfg():
    return RunConfig(yaml.safe_load(MINI))


REPO = Path(__file__).resolve().parents[1]


def test_bundled_configs_load():
    for name in ("quick", "full"):
        cfg = load_config(name)
        assert cfg.seed > 0 and cfg.suites
    workloads = sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))
    assert len(workloads) == 3
    for path in workloads:
        assert load_config(str(path)).suites
    readme = (REPO / "README.md").read_text().split("### Config format", 1)[1]
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert set(RunConfig(yaml.safe_load(example)).suites) == set(SUITES)


def test_unknown_bundled_name():
    with pytest.raises(ConfigError):
        load_config("nonexistent-config")


def test_directory_does_not_shadow_bundled_config(tmp_path, monkeypatch):
    # an earlier `--out-dir quick` leaves a folder named like the bundled config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quick").mkdir()
    assert main(["run", "--config", "quick", "--out-dir", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "results.ndjson").read_text().splitlines()) == 29


def test_directory_config_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs-dir").mkdir()
    assert main(["run", "--config", "configs-dir", "--out-dir", str(tmp_path / "o")]) == 2
    assert "configs-dir" in capsys.readouterr().err


@pytest.mark.parametrize("relative", [False, True])
def test_path_next_to_yaml_does_not_load_it(tmp_path, monkeypatch, capsys, relative):
    # /dir/foo is a directory beside /dir/foo.yaml: only bare names are
    # looked up as bundled configs, so neither path may load foo.yaml
    (tmp_path / "foo").mkdir()
    (tmp_path / "foo.yaml").write_text((REPO / "src/extsource/configs/quick.yaml").read_text())
    spec = str(tmp_path / "foo")
    if relative:
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        spec = "../foo"
    with pytest.raises(ConfigError):
        load_config(spec)
    assert main(["run", "--config", spec, "--out-dir", str(tmp_path / "o")]) == 2
    assert spec in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"schema: 1 # \xe9\n")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_readme_library_sketch_runs():
    # the sketch is the library API the README promises; it must keep running
    readme = (REPO / "README.md").read_text().split("## Library sketch", 1)[1]
    sketch = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(sketch, "README.md:Library sketch", "exec"), scope)
    assert scope["report"].rel_err < 1e-8
    # and it is the whole package surface: every other name is imported
    # from its own module, so the top level cannot grow back silently
    import ast
    import types
    import extsource
    imported = {alias.name for node in ast.walk(ast.parse(sketch))
                if isinstance(node, ast.ImportFrom) and node.module == "extsource"
                for alias in node.names}
    public = {name for name, value in vars(extsource).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported


TRACED_SPANS = {
    "harness.startup", "harness.load_config", "harness.run", "harness.build_jobs",
    "harness.job", "harness.write",
    "weights.orthonormal_basis", "weights.basis_eval", "weights.domain_pieces",
    "weights.integrate_pieces",
    "matrix_model.entry_vector", "matrix_model.values_fused", "matrix_model.slogdet",
    "matrix_model.identity_check", "matrix_model.zratio_check",
    "matrix_model.expectation",
    "series.mul", "series.laurent_mul", "schur.det_series", "schur.elementary_schur",
    "dkp.coeff", "dkp.zhat_series", "dkp.ladder", "dkp.hirota", "dkp.fay",
    "mc.cross_check", "mc.sampler",
}


def test_benchmark_trace_hooks_find_their_targets(tmp_path):
    # perfbench/launch.py wraps program functions by name from outside src/;
    # a renamed or deleted target breaks `perfbench/run.py --trace 1`
    import os
    import subprocess
    import sys
    import time
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    report, spans = tmp_path / "report.json", tmp_path / "spans.tsv"
    cmd = [sys.executable, str(REPO / "perfbench" / "launch.py"), "trace", str(report),
           "quick", str(tmp_path / "out"), "20260809", str(time.monotonic_ns()), str(spans)]
    out = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    rep = json.loads(report.read_text())
    assert rep["exit_code"] == 0
    assert len(TRACED_SPANS) == 27 and TRACED_SPANS <= set(rep["spans"])
    # the wrapped integrand sees every point the run counts, the ones whose
    # values a point set shares included, and tracing changes no record
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert f"integrand evaluations: {rep['counts']['integrand_points']}\n" in summary
    assert 0 < rep["counts"]["entry_computed"] <= rep["spans"]["matrix_model.entry_vector"][0]
    run(load_config("quick"), tmp_path / "plain")
    for name in ("results.ndjson", "results.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_schema_required():
    with pytest.raises(ConfigError, match="schema"):
        RunConfig({"weights": {}, "suites": {}})


def test_unknown_suite_rejected():
    raw = yaml.safe_load(MINI)
    raw["suites"]["bogus"] = {}
    with pytest.raises(ConfigError, match="suites.bogus"):
        RunConfig(raw)


def test_unknown_weight_rejected():
    raw = yaml.safe_load(MINI)
    raw["suites"]["identity"]["weights"] = ["nope"]
    with pytest.raises(ConfigError, match="unknown weight"):
        RunConfig(raw)


def test_zero_source_rejected():
    raw = yaml.safe_load(MINI)
    raw["suites"]["identity"]["sources"] = [0.5, 0.0]
    with pytest.raises(ConfigError, match="nonzero"):
        RunConfig(raw)


def test_exact_suite_rejects_numeric_weight():
    raw = yaml.safe_load(MINI)
    raw["weights"]["quartic"] = {"kind": "exppoly", "coeffs": [0, 0, 0, 0, 0.25]}
    raw["suites"]["vertex-ladder"]["weights"] = ["quartic"]
    with pytest.raises(ConfigError, match="exact"):
        RunConfig(raw)


def test_mc_requires_gaussian():
    raw = yaml.safe_load(MINI)
    raw["suites"]["mc"] = {
        "weights": ["laguerre"], "d": [2], "m": [1], "sources": [0.5],
        "intervals": [[[1, "inf"]]], "s": [1.0], "n": 1000,
    }
    with pytest.raises(ConfigError, match="gaussian"):
        RunConfig(raw)


def test_bad_interval_is_config_error():
    raw = yaml.safe_load(MINI)
    raw["suites"]["identity"]["intervals"] = [[[2, 1]]]  # empty interval
    with pytest.raises(ConfigError, match="intervals"):
        RunConfig(raw)


def test_out_dir_from_config(tmp_path):
    raw = yaml.safe_load(MINI)
    raw["out_dir"] = str(tmp_path / "from-config")
    cfg = RunConfig(raw)
    assert cfg.out_dir == str(tmp_path / "from-config")


@pytest.mark.parametrize("where", ["option", "config", "empty-option", "empty-env"])
def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, where):
    # an empty path, as an option or in $EXTSOURCE_OUT_DIR, would write
    # into the working directory; it is rejected as `out_dir: ""` is
    from extsource import harness
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    raw = yaml.safe_load(MINI)
    args = {"option": ["--out-dir", str(blocker)], "empty-option": ["--out-dir", ""]}
    if where == "config":
        raw["out_dir"] = str(blocker)
    if where == "empty-env":
        monkeypatch.setenv("EXTSOURCE_OUT_DIR", "")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "build_jobs", lambda *a, **k: pytest.fail("records ran"))
    assert main(["run", "--config", str(cfg), *args.get(where, [])]) == 2
    err = capsys.readouterr().err
    named = f"output directory {str(blocker)!r}"
    assert ("out_dir" if where.startswith("empty") else named) in err
    assert blocker.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "taken"]


@pytest.mark.parametrize("name", ["results.ndjson", "results.csv", "summary.txt"])
def test_output_file_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, name):
    # the files are written after every record ran; a path that cannot
    # take one is rejected before the first record
    from extsource import harness
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(MINI)
    monkeypatch.setattr(harness, "build_jobs", lambda *a, **k: pytest.fail("records ran"))
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"output file {str(out / name)!r}" in capsys.readouterr().err
    assert (out / name).is_dir() and sorted(p.name for p in out.iterdir()) == [name]


def test_mutated_records_leave_the_stored_reports(tmp_path):
    # --mutate scales the lhs of a new report; the stored one, which every
    # later read of the same check returns, keeps the clean values
    from extsource import matrix_model as mm
    raw = yaml.safe_load(MINI)
    raw["suites"] = {name: {**raw["suites"]["identity"], "weights": ["gaussian"], "d": [3],
                            "m": [2], "sources": [0.5, 1.1]}
                     for name in ("identity", "z-ratio")}
    for key in ("intervals", "s"):
        del raw["suites"]["z-ratio"][key]
    mm.clear_caches()
    assert run(RunConfig(copy.deepcopy(raw)), tmp_path / "mutated", mutate=True)[0] == 1
    stored = {key: (rep, copy.deepcopy(rep)) for key, rep in mm._REPORT_CACHE.items()}
    assert len(stored) == 2
    assert run(RunConfig(raw), tmp_path / "clean")[0] == 0
    # the clean run read the same stored reports, and no field of them moved
    assert set(mm._REPORT_CACHE) == set(stored)
    for key, (rep, before) in stored.items():
        assert mm._REPORT_CACHE[key] is rep and rep == before
    mutated, clean = ([json.loads(x) for x in (tmp_path / d / "results.ndjson").read_text().splitlines()]
                      for d in ("mutated", "clean"))
    assert len(mutated) == len(clean) == 2
    for m, c in zip(mutated, clean):
        assert (m["status"], c["status"]) == ("fail", "pass")
        assert m["lhs"] == c["lhs"] * (1 + 1e-4) and m["rhs"] == c["rhs"]
        assert m["diag"] == c["diag"]
    mm.clear_caches()


def test_job_ids_are_per_suite_and_unique():
    jobs = build_jobs(mini_cfg())
    ids = [rec["id"] for rec, _ in jobs]
    assert len(ids) == len(set(ids))
    assert "identity-0000" in ids and "vertex-ladder-0000" in ids


def test_run_writes_reports_and_skips_infeasible(tmp_path):
    code, summary = run(mini_cfg(), tmp_path)
    assert code == 0
    lines = (tmp_path / "results.ndjson").read_text().splitlines()
    recs = [json.loads(x) for x in lines]
    # laguerre at source 1.4 diverges: recorded as skipped, not failed
    skipped = [r for r in recs if r["status"] == "skipped"]
    assert len(skipped) == 1
    assert skipped[0]["weight"] == "laguerre" and skipped[0]["sources"] == [1.4]
    assert all(r["status"] in ("pass", "skipped") for r in recs)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "summary.txt").exists()


def test_run_byte_reproducible(tmp_path):
    run(mini_cfg(), tmp_path / "a")
    run(mini_cfg(), tmp_path / "b")
    assert (tmp_path / "a" / "results.ndjson").read_bytes() == \
        (tmp_path / "b" / "results.ndjson").read_bytes()
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_seed_override_changes_records(tmp_path):
    cfg = mini_cfg()
    run(cfg, tmp_path / "a", seed=1)
    rec = json.loads((tmp_path / "a" / "results.ndjson").read_text().splitlines()[0])
    assert rec["seed"] == 1


def test_mutate_run_fails(tmp_path):
    code, _ = run(mini_cfg(), tmp_path, mutate=True)
    assert code == 1
    recs = [json.loads(x) for x in
            (tmp_path / "results.ndjson").read_text().splitlines()]
    assert any(r["status"] == "fail" for r in recs)


def test_explain_known_and_unknown(tmp_path):
    run(mini_cfg(), tmp_path)
    path = tmp_path / "results.ndjson"
    text = explain(path, "identity-0000")
    assert "identity-0000" in text and "inputs" in text
    with pytest.raises(KeyError, match="nearest"):
        explain(path, "identity-9999")


def test_records_carry_rerun_inputs(tmp_path):
    run(mini_cfg(), tmp_path)
    for line in (tmp_path / "results.ndjson").read_text().splitlines():
        rec = json.loads(line)
        assert "id" in rec and "suite" in rec and "seed" in rec
        if rec["suite"] == "identity":
            assert {"weight", "d", "m", "sources", "E", "s", "tol"} <= rec.keys()


def test_cold_runs_count_same_evaluations(tmp_path):
    # each cache key is computed once per cold run, so two cold runs count
    # the same integrand evaluations
    from extsource import matrix_model as mm
    counts = []
    for i in range(2):
        mm.clear_caches()
        before = mm.EVALS.n
        run(load_config("quick"), tmp_path / str(i))
        counts.append(mm.EVALS.n - before)
    assert counts[0] > 0 and counts[1] == counts[0]


def test_an_escaped_error_propagates_out_of_run(tmp_path, monkeypatch):
    import extsource.harness as harness

    def fault(cfg, corrupt, d):  # a fault of the program, not an error a record stores
        raise TypeError(f"fault at d = {d}")

    monkeypatch.setattr(harness, "_ladder_residual", fault)
    with pytest.raises(TypeError, match="fault at d = 0"):
        run(mini_cfg(), tmp_path)


PREFIX_FAILURE = """
schema: 1
weights:
  gaussian: {kind: gaussian}
suites:
  identity:
    weights: [gaussian]
    d: [3]
    m: [1, 2]
    sources: [0.3, 0.9]
    intervals:
      - [[1, inf]]
    s: [0.5]
  z-ratio:
    weights: [gaussian]
    d: [3]
    m: [1, 2]
    sources: [0.3, 0.9]
"""


def test_failed_prefix_errors_only_its_records(tmp_path, monkeypatch):
    # the entry quadrature of the node prefix (0, 0.3) fails; it belongs to
    # the models (0, 0.3, 0.9) and (0, 0.3), so only the two-source records
    # read it, and every other record of the plan is as in a clean run
    from extsource import matrix_model as mm
    from extsource.weights import QuadratureError
    cfg = RunConfig(yaml.safe_load(PREFIX_FAILURE))
    mm.clear_caches()
    run(cfg, tmp_path / "clean")
    real = mm.DividedExpRow.values_fused

    def failing(row, x, logw):
        if row.nodes == (0.0, 0.3):
            raise QuadratureError("injected failure")
        return real(row, x, logw)

    monkeypatch.setattr(mm.DividedExpRow, "values_fused", failing)
    mm.clear_caches()
    code, _ = run(cfg, tmp_path / "failed")
    mm.clear_caches()
    assert code == 1
    clean, failed = ([json.loads(x) for x in (tmp_path / d / "results.ndjson").read_text().splitlines()]
                     for d in ("clean", "failed"))
    assert len(clean) == len(failed) == 6
    for c, f in zip(clean, failed):
        if c["m"] == 2:
            assert f["status"] == "error" and f["reason"] == "QuadratureError: injected failure"
        else:
            assert c["status"] == "pass" and f == c


OVERFLOW = """
schema: 1
weights:
  gaussian: {kind: gaussian}
suites:
  identity:
    weights: [gaussian]
    d: [2, 3]
    m: [1, 2]
    sources: [30.0, 40.0]
    intervals:
      - [[1, inf]]
    s: [0.5]
  z-ratio:
    weights: [gaussian]
    d: [2, 3]
    m: [1, 2]
    sources: [30.0, 40.0]
"""


def test_non_finite_integrand_errors_only_its_records(tmp_path):
    # at a = 40 the entry integrands overflow to inf; the records
    # that read them are errors, and the run still writes every file
    import warnings
    cfg = RunConfig(yaml.safe_load(OVERFLOW))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, _ = run(cfg, tmp_path)
    assert code == 1
    records = [json.loads(x) for x in (tmp_path / "results.ndjson").read_text().splitlines()]
    assert len(records) == 12 and (tmp_path / "results.csv").exists()
    for rec in records:
        if 40.0 in rec["sources"]:
            assert rec["status"] == "error", rec["id"]
            assert rec["reason"].startswith("QuadratureError: non-finite"), rec["id"]
        else:
            assert rec["status"] == "pass", rec["id"]


def cold_run(cwd, args, *modules):
    """`extsource run ARGS` in a fresh interpreter that imports nothing
    else first; returns the exit code and, for each named module, whether
    the run imported it."""
    import os
    import subprocess
    import sys
    import extsource
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(extsource.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    script = ("import json, sys\n"
              "from extsource.cli import main\n"
              f"code = main({['run', *args]!r})\n"
              f"print(json.dumps([code] + [m in sys.modules for m in {list(modules)!r}]))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    code, *imported = json.loads(out.stdout.splitlines()[-1])
    return code, imported


def test_run_does_not_import_mpmath(tmp_path):
    assert cold_run(tmp_path, ["--config", "quick", "--out-dir", str(tmp_path)],
                    "mpmath") == (0, [False])


def test_exact_only_run_does_not_import_numpy(tmp_path):
    raw = yaml.safe_load((REPO / "src" / "extsource" / "configs" / "quick.yaml").read_text())
    raw["suites"] = {k: v for k, v in raw["suites"].items()
                     if k in ("vertex-ladder", "hirota", "fay", "fay-det")}
    assert len(raw["suites"]) == 4
    config = tmp_path / "exact.yaml"
    config.write_text(yaml.safe_dump(raw))
    # nor dataclasses, which only the float suites' reports use
    assert cold_run(tmp_path, ["--config", str(config), "--out-dir", str(tmp_path / "out")],
                    "numpy", "extsource.matrix_model", "extsource.mc",
                    "dataclasses") == (0, [False] * 4)


def test_float_only_run_does_not_import_the_exact_modules(tmp_path):
    raw = yaml.safe_load((REPO / "src" / "extsource" / "configs" / "quick.yaml").read_text())
    raw["suites"] = {k: v for k, v in raw["suites"].items() if k in ("identity", "z-ratio", "mc")}
    assert len(raw["suites"]) == 3
    config = tmp_path / "float.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert cold_run(tmp_path, ["--config", str(config), "--out-dir", str(tmp_path / "out")],
                    "extsource.dkp", "extsource.schur", "extsource.series",
                    "extsource.mc") == (0, [False, False, False, True])


def test_mc_suite_starts_no_thread(tmp_path, monkeypatch):
    import threading
    started = []
    real_start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    raw = yaml.safe_load(MINI)
    raw["suites"] = {"mc": {"weights": ["gaussian"], "d": [2], "m": [1, 2],
                            "sources": [0.5, 1.1], "intervals": [[[1, "inf"]]],
                            "s": [1.0], "n": 2000, "zmax": 6.0}}
    code, _ = run(RunConfig(raw), tmp_path)
    assert code == 0
    assert started == []


MC_GROUPS = yaml.safe_load("""
schema: 1
seed: 7
workers: 1
weights:
  gaussian: {kind: gaussian}
suites:
  mc: {weights: [gaussian], d: [2, 3], m: [1, 2], sources: [0.5, 1.1],
       intervals: [[[1, inf]]], s: [0.5, 1.0], n: 2000, zmax: 6.0}
""")


def _count_sampler_calls(monkeypatch):
    from extsource import mc
    calls = []
    sampler = mc.estimate_expectation

    def spy(d, sources, E, s, N, seed):
        calls.append((d, len(sources), s))
        return sampler(d, sources, E, s, N, seed)

    monkeypatch.setattr(mc, "estimate_expectation", spy)
    return calls


def test_mc_records_of_a_group_share_one_sampler_call(tmp_path, monkeypatch):
    calls = _count_sampler_calls(monkeypatch)
    code, _ = run(RunConfig(copy.deepcopy(MC_GROUPS)), tmp_path)
    assert code == 0
    # (E, s, d) groups: two s values times two d, of 3 records each
    assert sorted(calls) == [(d, 3, s) for d in (2, 3) for s in (0.5, 1.0)]
    calls.clear()
    run(load_config(str(REPO / "perfbench" / "workloads" / "mc-sampler.yaml")),
        tmp_path / "mc-sampler")
    assert calls == [(2, 6, 1.0), (4, 7, 1.0)]


def test_a_failed_group_call_is_left_to_the_next_record(tmp_path, monkeypatch):
    # the group's result is cached only once computed, so the error of the
    # first record's call is that record's alone
    from extsource import mc
    calls = []
    real = mc.cross_check

    def flaky(*args):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return real(*args)

    monkeypatch.setattr(mc, "cross_check", flaky)
    raw = copy.deepcopy(MC_GROUPS)
    raw["suites"]["mc"].update(d=[2], s=[1.0])
    run(RunConfig(raw), tmp_path)
    recs = [json.loads(x) for x in (tmp_path / "results.ndjson").read_text().splitlines()]
    assert len(calls) == 2
    assert [r["status"] for r in recs] == ["error", "pass", "pass"]


def test_list_suites_complete():
    assert list_suites() == {name: suite.summary for name, suite in SUITES.items()}


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 2\nweights: {}\nsuites: {}\n")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["list-suites"]) == 0
    assert main(["explain", "xx", "--results", str(tmp_path / "missing.ndjson")]) == 2


def test_workers_flag_accepts_only_1(tmp_path, capsys):
    # records run on the calling thread; the flag stays for command lines
    # that spell out 1
    assert main(["run", "--out-dir", str(tmp_path / "one"), "--workers", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out-dir", str(tmp_path / "four"), "--workers", "4"])
    assert exc.value.code == 2 and "--workers" in capsys.readouterr().err
    assert not (tmp_path / "four").exists()


GOOD_RECORD = '{"id": "z-ratio-0000", "suite": "z-ratio", "status": "pass"}\n'

# (the bytes of a results file, the line the error must name); a directory
# in place of the file is the case with no line
BAD_RESULTS = [
    pytest.param(b"\xff\xfe{}\n", "line 1", id="not-utf8"),
    pytest.param((GOOD_RECORD + '{"id": "z-ratio-0001",\n').encode(), "line 2",
                 id="malformed-json"),
    pytest.param((GOOD_RECORD + '{"id": "z-ratio-0001", "suite": "z-ratio"}\n').encode(),
                 "line 2", id="no-status"),
    pytest.param((GOOD_RECORD + "[1, 2]\n").encode(), "line 2", id="not-a-record"),
    pytest.param((GOOD_RECORD[:-2] + ', "diag": [1]}\n').encode(), "line 1: diag",
                 id="diag-not-an-object"),
    pytest.param((GOOD_RECORD + GOOD_RECORD.replace("0000", "0001")[:-2]
                  + ', "violating_monomials": "x"}\n').encode(),
                 "line 2: violating_monomials", id="monomials-not-an-object"),
    pytest.param(None, "cannot be read", id="directory"),
]


@pytest.mark.parametrize("content,where", BAD_RESULTS)
def test_explain_bad_results_file_exits_2_naming_it(tmp_path, capsys, content, where):
    path = tmp_path / "results.ndjson"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["explain", "z-ratio-0000", "--results", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and where in err


@pytest.mark.parametrize("where", ["option", "env"])
def test_explain_empty_results_path_exits_2_saying_so(tmp_path, capsys, monkeypatch, where):
    # an empty path would read a file the user did not name
    # (./extsource-results/results.ndjson or ./results.ndjson); it is
    # rejected as `run` rejects an empty output directory
    for d in (tmp_path, tmp_path / "extsource-results"):
        d.mkdir(exist_ok=True)
        (d / "results.ndjson").write_text(GOOD_RECORD)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXTSOURCE_OUT_DIR", raising=False)
    if where == "env":
        monkeypatch.setenv("EXTSOURCE_OUT_DIR", "")
    args = ["--results", ""] if where == "option" else []
    assert main(["explain", "z-ratio-0000", *args]) == 2
    err = capsys.readouterr().err
    assert "empty" in err and ("--results" if where == "option" else "$EXTSOURCE_OUT_DIR") in err
    assert "results.ndjson" not in err


# every suite on a grid small enough that a case wrongly accepted still
# finishes in seconds
VALID = yaml.safe_load("""
schema: 1
seed: 7
weights:
  gaussian: {kind: gaussian}
suites:
  identity: {weights: [gaussian], d: [2], m: [1], sources: [0.5],
             intervals: [[[1, inf]]], s: [1.0]}
  z-ratio: {weights: [gaussian], d: [2], m: [1], sources: [0.5]}
  fay: {weights: [gaussian], cap: 3, d: [1], points: ["1/2", "1/3"]}
  fay-det: {weights: [gaussian], cap: 2, d: [2], m: [2], points: ["1/2", "1/3"]}
  hirota: {weights: [gaussian], cap: 3, max_d: 1}
  vertex-ladder: {weights: [gaussian], cap: 4, max_d: 1}
  mc: {weights: [gaussian], d: [2], m: [1], sources: [0.5],
       intervals: [[[1, inf]]], s: [1.0], n: 1000, zmax: 6.0}
""")


def test_valid_base_config_loads():
    assert set(RunConfig(copy.deepcopy(VALID)).suites) == set(SUITES)


# (the mapping that gets the field: a suite name, "weights.<name>" for a
# weight spec, or None for the top level; field; the bad value as YAML text;
# the field path the error must name)
BAD_FIELDS = [
    ("z-ratio", "d", '["x"]', "suites.z-ratio.d[0]"),
    ("z-ratio", "d", "[2.7]", "suites.z-ratio.d[0]"),
    ("identity", "d", "[true]", "suites.identity.d[0]"),
    # above matrix_model.MAX_DIMENSION (10) no record could run
    ("identity", "d", "[2, 11]", "suites.identity.d[1]"),
    ("z-ratio", "d", "[11]", "suites.z-ratio.d[0]"),
    ("mc", "d", "[2, 11]", "suites.mc.d[1]"),
    ("identity", "s", "[true]", "suites.identity.s[0]"),
    ("identity", "rel_tol", "abc", "suites.identity.rel_tol"),
    ("identity", "rel_tol", "1e-9", "suites.identity.rel_tol"),
    ("identity", "rel_tol", "-1", "suites.identity.rel_tol"),
    ("identity", "rel_tol", "0", "suites.identity.rel_tol"),
    ("z-ratio", "rel_tol", "-1.0e-8", "suites.z-ratio.rel_tol"),
    ("z-ratio", "rel_tol", ".nan", "suites.z-ratio.rel_tol"),
    ("fay", "cap", "abc", "suites.fay.cap"),
    ("mc", "zmax", "abc", "suites.mc.zmax"),
    ("mc", "zmax", "0", "suites.mc.zmax"),
    ("mc", "zmax", ".inf", "suites.mc.zmax"),
    ("mc", "n", "1.5e3", "suites.mc.n"),
    ("hirota", "max_d", "2.5", "suites.hirota.max_d"),
    (None, "workers", "true", "workers"),
    # records run in order on the calling thread; only the default 1 loads
    (None, "workers", "2", "workers"),
    # a config that checks nothing, or checks one weight twice under two ids
    (None, "suites", "{}", "suites"),
    ("identity", "weights", "[gaussian, gaussian]", "suites.identity.weights"),
    ("identity", "rel_tl", "1.0e-12", "suites.identity.rel_tl"),
    ("vertex-ladder", "maxd", "2", "suites.vertex-ladder.maxd"),
    ("fay-det", "m", "[]", "suites.fay-det.m"),
    # m = 1 compares one series with itself, so it cannot fail
    ("fay-det", "m", "[1]", "suites.fay-det.m[0]"),
    ("fay", "d", "[]", "suites.fay.d"),
    ("identity", "s", "[]", "suites.identity.s"),
    ("mc", "sources", "[]", "suites.mc.sources"),
    ("z-ratio", "weights", "[]", "suites.z-ratio.weights"),
    ("fay", "points", '["1/2", "1/3", "1/5"]', "suites.fay.points"),
    ("fay-det", "m", "[3]", "suites.fay-det.points"),
    (None, "seeed", "3", "seeed"),
    # the mc sampler keys Philox with the seed: [0, 2**128) only
    (None, "seed", "-1", "seed"),
    (None, "seed", str(2**128), "seed"),
    ("identity", "intervals", "[[[.nan, 1]]]", "suites.identity.intervals[0]"),
    ("mc", "intervals", "[[[1, 2], [3, .nan]]]", "suites.mc.intervals[0]"),
    (None, "out-dir", '"x"', "out-dir"),
    (None, "out_dir", '""', "out_dir"),
    ("weights.gaussian", "sigma", "2.0", "weights.gaussian.sigma"),
    ("weights.gaussian", "coeffs", "[0, 0, 1]", "weights.gaussian.coeffs"),
    ("weights.gaussian", "e", "[[1, 2]]", "weights.gaussian.e"),
    # a deformation set on the weight would reach one side of the identity
    # only; E and s belong to the identity and mc suites
    ("weights.gaussian", "E", "[[0, inf]]", "weights.gaussian.E: unknown field"),
    ("weights.gaussian", "s", "0.5", "weights.gaussian.s: unknown field"),
]


def _mapping(raw, where):
    if where is None:
        return raw
    if where.startswith("weights."):
        return raw["weights"][where.split(".", 1)[1]]
    return raw["suites"][where]


@pytest.mark.parametrize("suite,field,text,path", BAD_FIELDS)
def test_malformed_field_exits_2_naming_its_path(tmp_path, capsys, suite, field, text, path):
    raw = copy.deepcopy(VALID)
    _mapping(raw, suite)[field] = yaml.safe_load(text)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert not (tmp_path / "out").exists()


Z_RATIO_ONLY = """schema: 1
seed: 7
weights:
  gaussian: {kind: gaussian}
suites:
  z-ratio: {weights: [gaussian], d: [2], m: [1], sources: [0.5]}
"""

# (a config that repeats one mapping key, the path the error must name);
# a plain YAML load keeps the later value and runs
DUPLICATE_KEYS = [
    (Z_RATIO_ONLY + "seed: 8\n", "seed"),
    (Z_RATIO_ONLY + "  z-ratio: {weights: [gaussian], d: [3], m: [2], sources: [0.5, 0.9]}\n",
     "suites.z-ratio"),
    (Z_RATIO_ONLY.replace("{kind: gaussian}", "{kind: gaussian, kind: laguerre}"),
     "weights.gaussian.kind"),
]


@pytest.mark.parametrize("text,path", DUPLICATE_KEYS)
def test_duplicate_key_exits_2_naming_its_path(tmp_path, capsys, text, path):
    cfg = tmp_path / "dup.yaml"
    cfg.write_text(Z_RATIO_ONLY)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{path}: duplicate key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_loader_reads_what_safe_load_reads(tmp_path, capsys):
    from extsource.harness import _parse_yaml
    texts = [(REPO / "src/extsource/configs" / f"{name}.yaml").read_text()
             for name in ("quick", "full")]
    texts += [p.read_text() for p in sorted((REPO / "perfbench" / "workloads").glob("*.yaml"))]
    assert len(texts) == 5
    for text in texts + ["", "base: &b {k: 1, j: 2}\nm: {<<: *b, k: 3}\n"]:
        assert _parse_yaml(text) == yaml.safe_load(text)
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("schema: 1\nsuites: {z-ratio: [1, 2}\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config parse error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_override_out_of_range_exits_2(tmp_path, capsys, seed):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(yaml.safe_dump({**VALID, "suites": {"mc": VALID["suites"]["mc"]}}))
    assert main(["run", "--config", str(cfg), "--seed", seed,
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "seed must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", str(cfg), "--seed", str(2**128 - 1),
                 "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("suite,fields", [
    ("identity", {"d": [3], "m": [3], "sources": [0.5, 1.1]}),
    ("fay-det", {"d": [1], "m": [3], "points": ["1", "1/2", "1/3"]}),
])
def test_empty_grid_exits_2_naming_its_suite(tmp_path, capsys, suite, fields):
    # every m above d (fay-det: above d + 1) or above the number of sources:
    # no record to check
    raw = copy.deepcopy(VALID)
    raw["suites"][suite].update(fields)
    cfg = tmp_path / "empty.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"suites.{suite}: the grid is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite,fields,lowest", [
    ("vertex-ladder", {}, 4),
    ("hirota", {}, 3),
    ("fay", {}, 3),
    ("fay-det", {"d": [1, 3], "m": [2, 3], "points": ["1", "1/2", "1/3"]}, 3),
])
def test_cap_below_the_mutation_reach_exits_2(tmp_path, capsys, suite, fields, lowest):
    # below the lowest cap the corrupted moment reaches no residual of some
    # record, which then cannot fail; at it, every mutated record fails
    body = {**VALID["suites"][suite], **fields, "cap": lowest - 1}
    cfg = tmp_path / "cap.yaml"
    cfg.write_text(yaml.safe_dump({**VALID, "suites": {suite: body}}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "low")]) == 2
    assert f"suites.{suite}.cap must be >= {lowest} for this grid" in capsys.readouterr().err
    assert not (tmp_path / "low").exists()
    raw = {**VALID, "suites": {suite: {**body, "cap": lowest}}}
    assert run(RunConfig(copy.deepcopy(raw)), tmp_path / "clean")[0] == 0
    assert run(RunConfig(raw), tmp_path / "mutated", mutate=True)[0] == 1
    for line in (tmp_path / "mutated" / "results.ndjson").read_text().splitlines():
        r = json.loads(line)
        assert r["status"] == ("pass" if r["suite"] == "hirota-sensitivity" else "fail"), r["id"]


def test_exponent_without_point_gets_spelling_hint(tmp_path, capsys):
    # YAML 1.1 reads 1e-9 as a string; it used to be float()ed silently
    raw = copy.deepcopy(VALID)
    raw["suites"]["z-ratio"]["rel_tol"] = "1e-9"
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert yaml.safe_load(cfg.read_text())["suites"]["z-ratio"]["rel_tol"] == "1e-9"
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "1.0e-9" in capsys.readouterr().err


@pytest.fixture(scope="module")
def quick_mutated(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick-mutate")
    code, _ = run(load_config("quick"), out, mutate=True)
    path = out / "results.ndjson"
    return code, path, [json.loads(x) for x in path.read_text().splitlines()]


def test_every_mutation_hook_fails_its_check(quick_mutated):
    code, _, recs = quick_mutated
    assert code == 1
    assert {r["suite"] for r in recs} == set(SUITES) | {"hirota-sensitivity"}
    for r in recs:
        if r["status"] != "skipped":
            # the self-test corrupts a moment in every run: it passes when
            # the checker reports the corruption
            want = "pass" if r["suite"] == "hirota-sensitivity" else "fail"
            assert r["status"] == want, r["id"]


def test_mutated_float_errors_are_those_of_their_own_sides(quick_mutated):
    # --mutate scales a float record's lhs; its errors are recomputed from
    # the scaled lhs and the rhs, by the one formula of a clean report
    _, _, recs = quick_mutated
    floats = [r for r in recs if r["suite"] in ("identity", "z-ratio") and "lhs" in r]
    assert len(floats) >= 10
    for r in floats:
        abs_err = abs(r["lhs"] - r["rhs"])
        assert r["abs_err"] == abs_err, r["id"]
        assert r["rel_err"] == abs_err / max(abs(r["lhs"]), abs(r["rhs"]), 1e-300), r["id"]


def test_explain_describes_every_record_suite(quick_mutated):
    _, path, recs = quick_mutated
    first = {}
    for r in recs:
        first.setdefault(r["suite"], r["id"])
    descriptions = {suite: explain(path, check_id).split("\n\n")[1]
                    for suite, check_id in first.items()}
    assert "(no description)" not in descriptions.values()
    assert len(set(descriptions.values())) == len(descriptions) == len(SUITES) + 1

