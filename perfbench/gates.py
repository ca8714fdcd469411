"""Correctness gates and exact counts, computed from the split files and
the artifacts in the run's ``--out`` directory with the benchmark's own
code. Every individual check is one attempted operation; a check that
does not hold is one failed operation.
"""

import math
import os
from collections import defaultdict

import numpy as np

# Every workload trains its LM far enough that the last epoch's loss ends
# below this share of a uniform predictor's (about 0.8 on train-wide-vocab
# and graph-hubs, 0.65 on pipeline-mid).
MAX_LOSS_SHARE = 0.9


class Gates:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def read_triples(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def read_vocab(path):
    """``<id><TAB><surface>`` lines written by the ingest stage."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t", 1)[1] for line in fh if line.strip()]


def check_corpus(gates, corpus_path, train_path, walk_length):
    """Every step is a train edge or its inverse; every chain has full
    length unless it ends at an entity with no out-edge."""
    forward = set()
    out_degree = defaultdict(int)
    for h, r, t in read_triples(train_path):
        forward.add((h, r, t))
        out_degree[h] += 1
        out_degree[t] += 1
    counts = {"chains": 0, "walk_steps": 0, "dead_ends": 0, "positions": 0}
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            ents, rels = toks[0::2], toks[1::2]
            counts["chains"] += 1
            counts["walk_steps"] += len(rels)
            counts["positions"] += len(ents)
            for a, r, b in zip(ents, rels, ents[1:]):
                if r.endswith("^-1"):
                    ok = (b, r[:-3], a) in forward
                else:
                    ok = (a, r, b) in forward
                gates.check(ok, f"corpus step {a} {r} {b} is not a train edge or its inverse")
            full = len(toks) == walk_length
            counts["dead_ends"] += not full
            gates.check(full or out_degree[ents[-1]] == 0, f"chain of {len(toks)} tokens ends at {ents[-1]}, which has out-edges")
    return counts


def check_loss_trace(gates, path, epochs, n_ent, n_rel):
    """One finite loss per epoch, and the last one at most
    MAX_LOSS_SHARE of ln|E| + ln|R|: the cross-entropy of a uniform
    predictor, which is about where an untrained LM starts and where one
    whose updates do nothing stays."""
    with open(path, encoding="utf-8") as fh:
        losses = [float(line.split("\t")[1]) for line in fh if line.strip()]
    gates.check(len(losses) == epochs, f"loss trace has {len(losses)} epochs, expected {epochs}")
    for v in losses:
        gates.check(math.isfinite(v), f"non-finite loss {v}")
    uniform = math.log(n_ent) + math.log(n_rel)
    if losses:
        gates.check(losses[-1] <= MAX_LOSS_SHARE * uniform,
                    f"final loss {losses[-1]} is above {MAX_LOSS_SHARE} x {uniform:.4f} (uniform predictor): the LM did not learn")
    return losses, uniform


def check_vec(gates, path, count, dim):
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        gates.check(head == [str(count), str(dim)], f"{path}: header {head}, expected {count} {dim}")
        rows = 0
        finite = True
        for line in fh:
            parts = line.split(" ")
            rows += 1
            vals = np.array(parts[1:], dtype=np.float64)
            finite &= len(vals) == dim and bool(np.isfinite(vals).all())
    gates.check(rows == count, f"{path}: {rows} rows, expected {count}")
    gates.check(finite, f"{path}: a row has the wrong width or a non-finite value")


def split_ids(data_dir, out_dir):
    """Train/valid/test as id arrays under the ingest stage's vocabulary."""
    ent = {s: i for i, s in enumerate(read_vocab(os.path.join(out_dir, "entities.tsv")))}
    rel = {s: i for i, s in enumerate(read_vocab(os.path.join(out_dir, "relations.tsv")))}
    out = []
    for name in ("train", "valid", "test"):
        rows = read_triples(os.path.join(data_dir, f"{name}.tsv"))
        out.append(np.array([(ent[h], rel[r], ent[t]) for h, r, t in rows], dtype=np.int64).reshape(-1, 3))
    return out, len(ent), len(rel)


def known_answers(*splits):
    heads, tails = defaultdict(set), defaultdict(set)
    for rows in splits:
        for h, r, t in rows.tolist():
            heads[(r, t)].add(h)
            tails[(h, r)].add(t)
    return heads, tails


def mean_filter_size(test, heads, tails):
    """Mean count of other known answers filtered out per link query."""
    sizes = [len(heads[(r, t)]) - 1 for h, r, t in test.tolist()]
    sizes += [len(tails[(h, r)]) - 1 for h, r, t in test.tolist()]
    return float(np.mean(sizes))


def oracle_rank(kind, ent, rel, triple, side, heads, tails):
    """Brute-force pessimistic filtered rank, returned as the interval of
    ranks that any last-bit difference in the scores could give."""
    h, r, t = triple
    if side == "head":
        true_id, fixed = h, heads[(r, t)]
        a, b, c = ent, rel[r], ent[t]
    else:
        true_id, fixed = t, tails[(h, r)]
        a, b, c = ent[h], rel[r], ent
    if kind == "translational":
        scores = -np.sqrt(((a + b - c) ** 2).sum(axis=1))
    else:
        scores = (a * b * c).sum(axis=1)
    keep = np.ones(len(ent), dtype=bool)
    keep[list(fixed)] = False
    others = scores[keep]
    s = scores[true_id]
    tol = 1e-9 * max(1.0, abs(s))
    return 1 + int((others > s + tol).sum()), 1 + int((others >= s - tol).sum())


def read_ranks(gates, path, n_test):
    """(h, r, t, head_rank, tail_rank) rows of the program's rank file."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [tuple(int(v) for v in line.split("\t")) for line in fh if line.strip()]
    gates.check(len(rows) == n_test, f"{path}: {len(rows)} rows for {n_test} test triples")
    return rows


def check_link_sample(gates, scorer, reported, test, heads, tails, rng, n_sample):
    """Re-rank a seeded sample of test triples and compare with the
    program's per-triple ranks."""
    pick = rng.choice(len(test), size=min(n_sample, len(test)), replace=False)
    ent = np.asarray(scorer.ent, dtype=np.float64)
    rel = np.asarray(scorer.rel, dtype=np.float64)
    for i in sorted(pick.tolist()):
        triple = tuple(test[i].tolist())
        h, r, t, head_rank, tail_rank = reported[i]
        gates.check((h, r, t) == triple, f"rank row {i} is {(h, r, t)}, test triple is {triple}")
        for side, got in (("head", head_rank), ("tail", tail_rank)):
            lo, hi = oracle_rank(scorer.kind, ent, rel, triple, side, heads, tails)
            gates.check(lo <= got <= hi, f"{side} rank of {triple}: program {got}, oracle [{lo}, {hi}]")


def check_link_mrr(gates, reported, metrics_path):
    """Recompute the filtered MRR of each side from every rank row and
    compare with the program's report, which prints six decimals.
    Returns the recomputed average of head and tail MRR."""
    ranks = np.array([row[3:] for row in reported], dtype=np.float64).reshape(-1, 2)
    head, tail = (1.0 / ranks).mean(axis=0)
    mine = {"head": head, "tail": tail, "avg": (head + tail) / 2.0}
    theirs = {}
    with open(metrics_path, encoding="utf-8") as fh:
        for line in fh:
            metric, side, value = line.rstrip("\n").split("\t")
            if metric == "mrr":
                theirs[side] = float(value)
    for side, value in mine.items():
        got = theirs.get(side)
        gates.check(got is not None and abs(got - value) <= 1e-6,
                    f"{metrics_path}: mrr {side} is {got}, the rank rows give {value:.6f}")
    return mine["avg"]


def check_accuracies(gates, path):
    """Every accuracy in [0, 1]; returns the test accuracy."""
    test_acc = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            _, subset, value = line.rstrip("\n").split("\t")
            v = float(value)
            gates.check(0.0 <= v <= 1.0, f"accuracy {subset} = {v} outside [0, 1]")
            if subset == "test":
                test_acc = v
    gates.check(test_acc is not None, f"{path}: no test accuracy")
    return test_acc
