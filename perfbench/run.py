"""Benchmark launcher for wallhopper.

    python3 perfbench/run.py --workload {plan,track,stability} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in one fresh,
single-threaded process (BLAS and OpenMP pinned to one thread here, before
numpy is imported) against the sources under src/.  The last line of
standard output is the result object; the line before it holds the run
details.  With --trace 0 the set-up time is the median over three
processes: two that only set up, then the measured one.

--repeat runs the workload twice and requires bit-identical outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, extra=()):
    """Run workload.py once; returns its parsed JSON lines."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []) + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"run.py: workload process exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def measure(args):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(args, ["--setup-only"])[-1]["setup_s"])
    details, result = run_child(args)[-2:]
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        details["setup_samples_s"] = setups
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="wallhopper benchmark")
    parser.add_argument("--workload", required=True, choices=("plan", "track", "stability"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--repeat", action="store_true",
                        help="run twice and compare the deterministic outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wallhopper" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no wallhopper sources under {ROOT / 'src'}")

    if args.repeat:
        runs = [run_child(args)[-2]["outputs"] for _ in range(2)]
        same = json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "bit_identical": same, "outputs": runs}))
        return 0 if same else 1
    details, result = measure(args)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
