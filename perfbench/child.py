"""One measured pass of a workload, in a fresh interpreter.

Started by run.py with the path of a JSON job file. Reports set-up time
(from the parent's spawn to kglm being imported), runs the six CLI
stages in-process through ``kglm.cli.main``, runs the correctness gates
on the artifacts, and writes one JSON result file. Timing covers only
the stages; gates and the benchmark's own corpus bookkeeping between
stages are outside it.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import gates as g
from tracer import PHASES, TARGETS, Tracer, per_layer_metrics
from workloads import STAGES, WORKLOADS, flag_value


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import kglm.cli

    setup_s = time.monotonic() - job["spawn_t"]
    result = {"setup_s": setup_s}
    if job["setup_only"]:
        return result

    # Every pass times the phases, one span per call, so that
    # untraced passes can report the throughput of phases that have no
    # CLI stage of their own; a traced pass wraps every target.
    tracer = Tracer()
    tracer.install(TARGETS if job["trace"] else PHASES)
    # the rank oracle re-scores with the scorer the eval-link stage used
    captured = {}
    evaluate = kglm.cli.link_prediction_eval

    def capture_scorer(scorer, *args, **kwargs):
        captured["scorer"] = scorer
        return evaluate(scorer, *args, **kwargs)

    kglm.cli.link_prediction_eval = capture_scorer

    spec = WORKLOADS[job["workload"]]
    data, out = job["data"], job["out"]
    flags = [
        "--train", os.path.join(data, "train.tsv"),
        "--valid", os.path.join(data, "valid.tsv"),
        "--test", os.path.join(data, "test.tsv"),
        "--out", out, "--seed", str(job["seed"]), "--threads", "1",
    ] + spec["flags"]
    corpus = os.path.join(out, "corpus.txt")
    walk_corpus = os.path.join(out, "walk_corpus.txt")
    gates = g.Gates()
    stage_s = {}
    train_lines = None
    for stage in STAGES:
        if stage == "train" and spec["train_batches"]:
            shutil.copyfile(corpus, walk_corpus)
            keep = spec["train_batches"] * int(flag_value(spec["flags"], "--batch"))
            with open(walk_corpus, encoding="utf-8") as fh:
                lines = fh.readlines()
            pick = np.random.default_rng([job["seed"], 7]).choice(len(lines), size=min(keep, len(lines)), replace=False)
            train_lines = [lines[i] for i in sorted(pick.tolist())]
            with open(corpus, "w", encoding="utf-8") as fh:
                fh.writelines(train_lines)
        if stage == "export" and spec["restore_corpus"]:
            shutil.copyfile(walk_corpus, corpus)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = kglm.cli.main([stage] + flags)
        stage_s[stage] = time.perf_counter() - t0
        gates.check(rc == 0, f"stage {stage} exited with {rc}")
        if rc != 0:
            result.update(stage_failed=stage, messages=gates.messages)
            return result
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["stage_s"] = stage_s
    result["wall_s"] = sum(stage_s.values())
    result["phase_s"] = {name: tracer.durations(name) for _, _, name in PHASES}
    if job["trace"]:
        result["per_layer"] = per_layer_metrics(tracer)
        result["adam_steps"] = tracer.summary()[2]["optim.adam_step"]

    # Correctness gates and exact counts, outside the timed stages.
    walk_length = int(flag_value(spec["flags"], "--walk-length", 21))
    walked = walk_corpus if spec["train_batches"] else corpus
    counts = g.check_corpus(gates, walked, os.path.join(data, "train.tsv"), walk_length)
    with open(corpus, encoding="utf-8") as fh:
        exported = [line.split() for line in fh]
    trained = exported if train_lines is None else [line.split() for line in train_lines]
    epochs = int(flag_value(spec["flags"], "--epochs"))
    batch = int(flag_value(spec["flags"], "--batch"))
    usable = [len(t) // 2 + 1 for t in trained if len(t) >= 3]
    counts["train_chains"] = len(usable)
    counts["train_tokens"] = sum(usable) * epochs
    counts["train_events"] = 2 * sum(n - 1 for n in usable) * epochs
    counts["lm_optimizer_steps"] = -(-len(usable) // batch) * epochs
    counts["export_positions"] = sum(len(t) // 2 + 1 for t in exported)
    counts["corpus_bytes"] = os.path.getsize(walked)
    counts["checkpoint_bytes"] = os.path.getsize(os.path.join(out, "model.ckpt"))

    (train, valid, test), n_ent, n_rel = g.split_ids(data, out)
    losses, uniform_loss = g.check_loss_trace(
        gates, os.path.join(out, "loss_trace.tsv"), epochs, n_ent, n_rel)
    proj = int(flag_value(spec["flags"], "--proj"))
    dim = int(flag_value(spec["flags"], "--entity-dim")) + int(flag_value(spec["flags"], "--relation-dim")) + 2 * proj
    g.check_vec(gates, os.path.join(out, "embeddings.entities.vec"), n_ent, dim)
    g.check_vec(gates, os.path.join(out, "embeddings.relations.vec"), n_rel, dim)
    heads, tails = g.known_answers(train, valid, test)
    ranks = g.read_ranks(gates, os.path.join(out, "link_ranks.tsv"), len(test))
    g.check_link_sample(
        gates, captured["scorer"], ranks, test, heads, tails, np.random.default_rng([job["seed"], 11]), n_sample=20,
    )
    scorer_epochs = int(flag_value(spec["flags"], "--scorer-epochs"))
    counts["link_queries"] = 2 * len(test)
    counts["mean_filter_size"] = g.mean_filter_size(test, heads, tails)
    counts["scorer_triples"] = len(train) * scorer_epochs * len(result["phase_s"]["scoring.train_scorer"])

    result["quality"] = {
        "train_loss": losses[-1],
        "link_mrr": g.check_link_mrr(gates, ranks, os.path.join(out, "link_metrics.tsv")),
        "triple_acc": g.check_accuracies(gates, os.path.join(out, "triple_classification.tsv")),
    }
    result["loss"] = {"trace": losses, "uniform": uniform_loss}
    result["counts"] = counts
    result["computed"] = computed_work(spec["flags"], usable, n_ent, n_rel, batch, epochs)
    result.update(attempted=gates.attempted, failed=gates.failed, messages=gates.messages)
    return result


def computed_work(flags, usable, n_ent, n_rel, batch, epochs):
    """Work implied by the shapes of the training stage, every epoch over
    the train corpus, counting a padded batch at its longest chain.
    Forward plus backward is taken as three times the forward GEMM flops."""
    layers = int(flag_value(flags, "--layers"))
    hidden = int(flag_value(flags, "--hidden"))
    proj = int(flag_value(flags, "--proj"))
    d_in = int(flag_value(flags, "--entity-dim")) + int(flag_value(flags, "--relation-dim"))
    head_flop = lstm_flop = 0.0
    max_rows = 0
    for start in range(0, len(usable), batch):
        b = min(batch, len(usable) - start)
        T = max(usable[start : start + batch])
        rows = (T - 1) * b  # predicted positions per direction
        max_rows = max(max_rows, rows)
        head_flop += 3 * 2 * 2 * rows * proj * (n_ent + n_rel)
        per_step = 0
        for i in range(layers):
            fan_in = d_in if i == 0 else proj
            per_step += 2 * b * (fan_in * 4 * hidden + proj * 4 * hidden + hidden * proj)
        lstm_flop += 3 * 2 * T * per_step
    return {
        "head_gflop": head_flop * epochs / 1e9,
        "lstm_gemm_gflop": lstm_flop * epochs / 1e9,
        "head_matrix_mb": max_rows * n_ent * 4 / 2**20,
    }


if __name__ == "__main__":
    res = main(sys.argv[1])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(res, fh)
