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
    cap: 3
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


def test_threaded_run_keeps_mpmath_precision_and_bytes(tmp_path):
    import mpmath
    from extsource import matrix_model as mm
    mm.clear_caches()
    run(load_config("quick"), tmp_path / "w1", workers=1)
    mm.clear_caches()  # the threaded run builds its bases concurrently
    run(load_config("quick"), tmp_path / "w2", workers=2)
    assert mpmath.mp.dps == 15
    assert (tmp_path / "w1" / "results.ndjson").read_bytes() == \
        (tmp_path / "w2" / "results.ndjson").read_bytes()


def test_threaded_run_counts_same_evaluations(tmp_path):
    # each cache key is computed once, by one thread, so the integrand
    # evaluation count does not depend on the worker count
    from extsource import matrix_model as mm
    counts = []
    for i, workers in enumerate((1, 2, 2)):
        mm.clear_caches()
        before = mm.EVALS.n
        run(load_config("quick"), tmp_path / str(i), workers=workers)
        counts.append(mm.EVALS.n - before)
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_run_does_not_import_mpmath(tmp_path):
    import os
    import subprocess
    import sys
    import extsource
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(extsource.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    script = ("import sys\n"
              "from extsource.cli import main\n"
              f"code = main(['run', '--config', 'quick', '--out-dir', {str(tmp_path)!r}])\n"
              "print(code, 'mpmath' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["0", "False"]


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
    code, _ = run(RunConfig(raw), tmp_path, workers=1)
    assert code == 0
    assert started == []


def test_list_suites_complete():
    assert list_suites() == {name: suite.summary for name, suite in SUITES.items()}


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 2\nweights: {}\nsuites: {}\n")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["list-suites"]) == 0
    assert main(["explain", "xx", "--results", str(tmp_path / "missing.ndjson")]) == 2


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
  fay: {weights: [gaussian], cap: 2, d: [1], points: ["1/2", "1/3"]}
  fay-det: {weights: [gaussian], cap: 2, d: [2], m: [2], points: ["1/2", "1/3"]}
  hirota: {weights: [gaussian], cap: 2, max_d: 1}
  vertex-ladder: {weights: [gaussian], cap: 2, max_d: 1}
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
    ("identity", "rel_tl", "1.0e-12", "suites.identity.rel_tl"),
    ("vertex-ladder", "maxd", "2", "suites.vertex-ladder.maxd"),
    ("fay-det", "m", "[]", "suites.fay-det.m"),
    ("fay", "d", "[]", "suites.fay.d"),
    ("identity", "s", "[]", "suites.identity.s"),
    ("mc", "sources", "[]", "suites.mc.sources"),
    ("z-ratio", "weights", "[]", "suites.z-ratio.weights"),
    ("fay", "points", '["1/2", "1/3", "1/5"]', "suites.fay.points"),
    ("fay-det", "m", "[3]", "suites.fay-det.points"),
    (None, "seeed", "3", "seeed"),
    (None, "out-dir", '"x"', "out-dir"),
    ("weights.gaussian", "sigma", "2.0", "weights.gaussian.sigma"),
    ("weights.gaussian", "coeffs", "[0, 0, 1]", "weights.gaussian.coeffs"),
    ("weights.gaussian", "e", "[[1, 2]]", "weights.gaussian.e"),
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


def test_explain_describes_every_record_suite(quick_mutated):
    _, path, recs = quick_mutated
    first = {}
    for r in recs:
        first.setdefault(r["suite"], r["id"])
    descriptions = {suite: explain(path, check_id).split("\n\n")[1]
                    for suite, check_id in first.items()}
    assert "(no description)" not in descriptions.values()
    assert len(set(descriptions.values())) == len(descriptions) == len(SUITES) + 1

