"""The benchmark's own test: counts and quality repeat exactly.

    python3 perfbench/check_repeat.py [--seed 1] [--workload NAME ...]

Runs each workload twice at one seed (one pass each) and fails unless
both runs pass every correctness gate and report identical exact
counts, computed work and quality metrics (train loss, link MRR,
triple accuracy). Timings are expected to differ and are not compared.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

QUALITY = ("train_loss", "link_mrr", "triple_acc")


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    report_line, result_line = proc.stdout.strip().split("\n")[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    return {
        "correct": result["correct"] and result["failed"] == 0,
        "counts": report["counts"],
        "computed": report["computed"],
        "quality": {q: result["metrics"][q]["value"] for q in QUALITY},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    problems = []
    for workload in args.workload or sorted(WORKLOADS):
        first, second = run_once(workload, args.seed), run_once(workload, args.seed)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: a correctness gate failed")
        for key in ("counts", "computed", "quality"):
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} differ: {first[key]} vs {second[key]}")
        print(f"{workload}: quality {first['quality']}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    print("FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
