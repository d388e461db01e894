"""The A/B writer of tools/bench_ab.py on canned run.py output: every
end-to-end metric BENCHMARK.json names is summarised for each workload,
with medians, quartiles and pair wins; and --out must name a new file.
No benchmark process runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_stdout(workload, metrics, outputs):
    """run.py's output: a progress line, then the details and result lines."""
    details = {"workload": workload, "seed": 7, "iterations": 3, "steps": 180,
               "speed_probe": {"runs": 12, "median_s": 0.007}, "environment": {"nproc": 2},
               "outputs": outputs, "failures": [], "problems": [],
               "setup_samples_s": [0.5, 0.6, 0.55]}
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()}}
    return "\n".join(["warming up", json.dumps(details), json.dumps(result)]) + "\n"


def canned_runs(bench_ab, workload, parent, change, outputs=None):
    """Three pairs; metric i of pair j reads parent[j] + i, change[j] + i."""
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        for side, base in (("parent", a), ("change", b)):
            stdout = canned_stdout(workload, {n: base + i for i, n in enumerate(names)},
                                   outputs or {"x": 1})
            runs.append(bench_ab.run_record(pair, side, side == "parent", stdout))
    return runs


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_end_to_end_metric_is_summarised(bench_ab, workload):
    runs = canned_runs(bench_ab, workload, [3.0, 3.0, 3.0], [2.0, 3.0, 4.0])
    case = bench_ab.summarise_case(workload, 7, {"parent": [], "change": []}, runs, BENCHMARK)
    assert case["workload"] == workload and case["all_correct"] and case["outputs_identical"]
    assert [r["metrics"] for r in case["runs"]] == [r["metrics"] for r in runs]
    assert set(case["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for i, spec in enumerate(BENCHMARK["end_to_end"]):
        m = case["metrics"][spec["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (spec["unit"], spec["better"],
                                                        spec["bound"])
        assert m["parent"] == {"n": 3, "median": 3.0 + i, "q1": 3.0 + i, "q3": 3.0 + i,
                               "iqr": 0.0}
        assert m["change"] == {"n": 3, "median": 3.0 + i, "q1": 2.5 + i, "q3": 3.5 + i,
                               "iqr": 1.0}
        # Lower is better: pair 0 is the change's, pair 2 the parent's.
        assert (m["change_wins"], m["parent_wins"], m["ties"]) == (1, 1, 1)
        assert m["within_bound"] and not m["gain_beyond_parent_iqr"]


def test_a_gain_and_a_regression(bench_ab):
    runs = canned_runs(bench_ab, "track", [10.0, 10.5, 11.0], [8.0, 8.0, 13.0],
                       outputs={"x": 2})
    runs[-1]["outputs_sha256"] = "other"
    case = bench_ab.summarise_case("track", 3, {}, runs, BENCHMARK)
    assert not case["outputs_identical"]
    m = case["metrics"]["setup_s"]                 # metric 0: the values themselves
    assert (m["change_wins"], m["parent_wins"]) == (2, 1)
    assert m["gain_beyond_parent_iqr"] and m["within_bound"]
    assert m["change_rel"] == pytest.approx(-2.5 / 10.5)
    worse = canned_runs(bench_ab, "plan", [10.0, 10.0], [14.0, 14.0])
    m = bench_ab.summarise_case("plan", 7, {}, worse, BENCHMARK)["metrics"]["setup_s"]
    assert m["parent_wins"] == 2 and not m["within_bound"]


def test_too_few_lines_rejected(bench_ab):
    with pytest.raises(ValueError, match="fewer than two"):
        bench_ab.parse_run('{"correct": true}\n')


@pytest.mark.parametrize("out", [[], ["--out", "BENCH_1.json"]], ids=["no-out", "existing-out"])
def test_out_must_name_a_new_file(bench_ab, out, monkeypatch):
    # Without --out, or with a committed record as --out, the tool stops at
    # its argument checks: no git call and no benchmark run.
    def no_run(*args, **kwargs):
        raise AssertionError(f"subprocess.run called with {args}")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench_ab.subprocess, "run", no_run)
    with pytest.raises(SystemExit):
        bench_ab.main(["--parent", ".", *out])
