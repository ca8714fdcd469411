"""kglm pipeline benchmark.

    python3 perfbench/run.py --workload pipeline-mid --seed 1 --seconds 30 --trace 0

Run from the root of a kglm checkout. The workload's graph and split
files are generated from ``--seed``; each pass of the six CLI stages
runs in a fresh child interpreter (single process, ``--threads 1``,
BLAS threads capped at min(2, nproc)). Passes repeat while the next one
is predicted to finish within ``--seconds``, and every metric is the
median over the passes. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` also runs traced passes and prints the per-layer metrics.
The last line of standard output is the JSON result; the line before it
is a report with sample counts, quartiles, exact counts, computed work
and the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import environment  # noqa: E402

os.environ.update(environment.thread_env())  # before numpy loads BLAS

import kg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def make_inputs(workload, seed, data_dir):
    spec = WORKLOADS[workload]
    rows = kg.clustered(**spec["graph"], seed=seed)
    train, valid, test = kg.split(rows, spec["held_out"], seed)
    kg.write_splits(data_dir, train, valid, test)


def run_child(job, work, tag, deadline):
    """Run child.py on ``job``; returns its result dict."""
    job_path = os.path.join(work, f"{tag}.job.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    log_path = os.path.join(work, f"{tag}.log")
    env = dict(os.environ)
    env.update(environment.thread_env())
    job = dict(job, spawn_t=time.monotonic())
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=work,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{tag}: child exceeded the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-3000:]
        raise RuntimeError(f"{tag}: child exited with {rc}\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(passes, setups):
    """Metric name -> (per-pass values, unit)."""
    def ratio(num, phase):
        return [p["counts"][num] / sum(p["phase_s"][phase]) for p in passes]

    return {
        "setup_s": (setups, "s"),
        "wall_s": ([p["wall_s"] for p in passes], "s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "MB"),
        "train_tokens_per_s": (ratio("train_tokens", "train.train_bilm"), "tokens/s"),
        "walk_steps_per_s": (ratio("walk_steps", "walker.generate_corpus"), "steps/s"),
        # the export stage makes the first of the three aggregate_static calls
        "export_positions_per_s": (
            [p["counts"]["export_positions"] / (p["phase_s"]["extract.aggregate_static"][0] + sum(p["phase_s"]["extract.export_embeddings"]))
             for p in passes],
            "positions/s",
        ),
        "scorer_triples_per_s": (ratio("scorer_triples", "scoring.train_scorer"), "triples/s"),
        "link_queries_per_s": (ratio("link_queries", "ranking.link_prediction_eval"), "queries/s"),
        "train_loss": ([p["quality"]["train_loss"] for p in passes], "nats"),
        "link_mrr": ([p["quality"]["link_mrr"] for p in passes], "ratio"),
        "triple_acc": ([p["quality"]["triple_acc"] for p in passes], "ratio"),
    }


def per_layer(traced, untraced):
    """Metric name -> (per-pass values, unit) from traced passes."""
    names = traced[0]["per_layer"].keys()
    out = {}
    for name in names:
        unit = "count" if name.endswith("_calls") else "s"
        out[name] = ([p["per_layer"][name] for p in traced], unit)
    out["trace.overhead_s"] = (
        [t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)], "s")
    out["walker.corpus_bytes"] = ([p["counts"]["corpus_bytes"] for p in traced], "bytes")
    out["model.checkpoint_bytes"] = ([p["counts"]["checkpoint_bytes"] for p in traced], "bytes")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kglm", "cli.py")):
        print(f"run.py: no kglm sources under {src}; run from the root of a kglm checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    hard_deadline = start + CHILD_TIMEOUT_S
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        data = os.path.join(work, "data")
        make_inputs(args.workload, args.seed, data)
        base = {"workload": args.workload, "seed": args.seed, "src": src, "data": data,
                "setup_only": False, "trace": False}

        def one_pass(i, trace):
            out = os.path.join(work, f"out{i}{'t' if trace else ''}")
            os.makedirs(out)
            res = run_child(dict(base, out=out, trace=trace), work, f"pass{i}{'t' if trace else ''}", hard_deadline)
            shutil.rmtree(out)
            if "stage_failed" in res:
                raise RuntimeError(f"pass {i}: stage {res['stage_failed']} failed: {res['messages']}")
            if res["failed"]:
                print(f"pass {i}: {res['failed']} failed checks: {res['messages']}", file=sys.stderr)
            return res

        measure_start = time.monotonic()
        passes, traced = [], []
        while True:
            t0 = time.monotonic()
            passes.append(one_pass(len(passes), False))
            if args.trace:
                traced.append(one_pass(len(traced), True))
            # start another pass only if it should end within half a pass
            # of the budget, so run length stays near --seconds
            took = time.monotonic() - t0
            if time.monotonic() + took / 2 >= measure_start + args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(dict(base, setup_only=True), work, f"setup{len(setups)}", hard_deadline)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    all_passes = passes + traced
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    metrics = per_layer(traced, passes) if args.trace else end_to_end(passes, setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "metrics": {},
        "counts": passes[0]["counts"],
        "loss": passes[0]["loss"],
        "computed": passes[0]["computed"],
        "stage_s": {k: statistics.median(p["stage_s"][k] for p in passes) for k in passes[0]["stage_s"]},
        "environment": environment.describe(),
    }
    result = {}
    for name, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "max": max(values), "n": len(values),
                                   "unit": unit, "values": values}
        result[name] = {"value": med, "unit": unit}
    if args.trace:
        report["adam_steps"] = traced[0]["adam_steps"]
        report["end_to_end"] = {n: statistics.median(v) for n, (v, _) in end_to_end(passes, setups).items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
