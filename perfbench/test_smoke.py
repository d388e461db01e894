"""Smoke tests of the benchmark at reduced size (10-knot plan, 2x2 grids,
2-knot MPC horizon, 2-run robustness batch).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def run_smoke(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return details, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    details, result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, details["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(details["environment"]) >= {"nproc", "cpu", "python", "numpy", "scipy"}


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracing.PER_LAYER


def test_repeat_is_bit_identical():
    proc = run("--workload", "stability", "--seed", "2", "--seconds", "1",
               "--smoke", "--repeat")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["bit_identical"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    tr = tracing.Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tr.wrap(inner, "inner")
    traced_outer = tr.wrap(lambda: traced_inner() + traced_inner(), "outer")
    tr.enabled = True
    traced_outer()
    tot = tr.totals()
    calls, incl, own = tot["outer"]
    assert calls == 1 and tot["inner"][0] == 2
    assert own == pytest.approx(incl - tot["inner"][1], abs=1e-12)
    assert tot["inner"][1] == pytest.approx(tot["inner"][2], abs=1e-12)
