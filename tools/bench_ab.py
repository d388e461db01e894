"""A/B runs of the benchmark: a parent checkout against a change.

    python3 tools/bench_ab.py --parent PATH [--change PATH] \\
        [--case WORKLOAD:SEED ...] [--pairs 10] [--seconds 20] --out BENCH_n.json

PATH is the root of a checkout, for example a ``git worktree`` of the
parent commit; --change defaults to the checkout this script sits in.  For
each case (default: plan, track and stability at seed 7) the script runs
each checkout's own, unchanged ``perfbench/run.py`` in alternating pairs,
the parent first in even pairs and the change first in odd ones, and
rewrites --out after every pair.  --out must name a file that does not
exist yet, so a run never replaces an earlier record.  The file holds
both commits, the command lines, every run's metrics and, for each
end-to-end metric BENCHMARK.json names, each side's median and quartiles,
the wins of each side over the pairs, and whether the change's median is
within the metric's bound.  A win is a pair whose change run reads
better than its parent run; equal readings are ties and count for
neither.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_command(workload: str, seed: int, seconds: float) -> list:
    """The run.py command line, relative to the checkout's root."""
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]


def parse_run(stdout: str) -> tuple[dict, dict]:
    """run.py's run details and result: the last two JSON lines it prints."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("run.py printed fewer than two JSON lines")
    return lines[-2], lines[-1]


def checkout_info(path: Path) -> dict:
    """The commit a checkout is at, and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], check=True, text=True,
                              stdout=subprocess.PIPE).stdout.strip()
    return {"path": str(path), "commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_record(pair: int, side: str, first: bool, stdout: str) -> dict:
    """One run as the file keeps it: the metrics and correctness of
    run.py's result, and from its details the step counts, the speed probe,
    any failure or problem, and a digest of the deterministic outputs."""
    details, result = parse_run(stdout)
    outputs = json.dumps(details.get("outputs"), sort_keys=True).encode()
    return {"pair": pair, "side": side, "first": first,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "iterations": details.get("iterations"), "steps": details.get("steps"),
            "speed_probe": details.get("speed_probe"),
            "failures": details.get("failures", []), "problems": details.get("problems", []),
            "setup_samples_s": details.get("setup_samples_s"),
            "environment": details.get("environment"),
            "outputs_sha256": hashlib.sha256(outputs).hexdigest()}


def spread(values: list) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarise_metric(runs: list, spec: dict) -> dict:
    """One end-to-end metric over a case's runs, compared pair by pair."""
    name, lower = spec["name"], spec["better"] == "lower"
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
               for p in pairs)
    ties = sum(p["change"] == p["parent"] for p in pairs)
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
           "pairs": len(pairs), "change_wins": wins, "parent_wins": len(pairs) - wins - ties,
           "ties": ties}
    for side in SIDES:
        out[side] = spread([p[side] for p in pairs])
    if pairs:
        parent, change = out["parent"]["median"], out["change"]["median"]
        gain = (parent - change) if lower else (change - parent)
        out["change_rel"] = (change - parent) / parent if parent else None
        out["gain_beyond_parent_iqr"] = gain > out["parent"]["iqr"]
        out["within_bound"] = -gain <= spec["bound"] * abs(parent)
    return out


def summarise_case(workload: str, seed: int, commands: dict, runs: list,
                   benchmark: dict) -> dict:
    """A case's record: its commands, runs and per-metric comparison."""
    digests = {run["outputs_sha256"] for run in runs}
    return {"workload": workload, "seed": seed, "commands": commands, "runs": runs,
            "all_correct": all(run["correct"] for run in runs),
            "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                       for side in SIDES},
            "outputs_identical": len(digests) <= 1,
            "metrics": {spec["name"]: summarise_metric(runs, spec)
                        for spec in benchmark["end_to_end"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B runs of perfbench/run.py")
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the change's checkout (default: this one)")
    parser.add_argument("--case", action="append", metavar="WORKLOAD:SEED",
                        help="a workload and seed to run (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, type=Path,
                        help="the record to write; must not exist yet")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"--out {args.out} exists; name a new file")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cases = []
    for case in args.case or ["plan:7", "track:7", "stability:7"]:
        workload, _, seed = case.partition(":")
        if workload not in ("plan", "track", "stability") or not seed.isdigit():
            parser.error(f"--case takes WORKLOAD:SEED, got {case!r}")
        cases.append((workload, int(seed)))

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"tool": "tools/bench_ab.py", "pairs": args.pairs, "seconds": args.seconds,
              "protocol": "alternating pairs, parent first in even pairs",
              **{side: checkout_info(path) for side, path in checkouts.items()},
              "cases": []}
    for workload, seed in cases:
        cmd = run_command(workload, seed, args.seconds)
        commands = {side: {"cwd": str(path), "argv": cmd} for side, path in checkouts.items()}
        runs = []
        record["cases"].append(None)
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for i, side in enumerate(order):
                proc = subprocess.run(cmd, cwd=checkouts[side], stdout=subprocess.PIPE,
                                      text=True, check=True)
                runs.append(run_record(pair, side, i == 0, proc.stdout))
                print(f"{workload}:{seed} pair {pair} {side}: "
                      f"{json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
            record["cases"][-1] = summarise_case(workload, seed, commands, runs, benchmark)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
