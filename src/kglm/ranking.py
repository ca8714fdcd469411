"""Filtered link-prediction ranking and metric reports.

Candidates for a query are all entities minus every other known-true
answer for the same key (the target itself always stays in). Ties rank
the true entity worst among equals, and a NaN score never ranks the true
entity higher, so reported metrics are lower bounds; a constant or
broken scorer cannot look good.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .files import atomic_open


def filtered_rank(scorer, triple, side, filter_index, n_entities):
    """Pessimistic filtered rank of the true entity on one side."""
    h, r, t = (int(v) for v in triple)
    if side == "head":
        scores = scorer.score_all_heads(r, t)
        true_id = h
        known = filter_index.heads.get((r, t), set())
    elif side == "tail":
        scores = scorer.score_all_tails(h, r)
        true_id = t
        known = filter_index.tails.get((h, r), set())
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    keep = np.ones(n_entities, dtype=bool)
    if known:
        keep[list(known)] = False
    keep[true_id] = False  # compared against the other candidates only
    # every candidate not strictly below the true score ranks ahead of it:
    # ties, and NaN on either side (a NaN true score gets the worst rank)
    return int(1 + np.count_nonzero(~(scores[keep] < scores[true_id])))


@dataclass
class RankingResult:
    """Per-triple filtered ranks for both sub-tasks."""

    head_ranks: np.ndarray
    tail_ranks: np.ndarray
    hits_k: int = 10

    def _metrics(self, ranks):
        ranks = np.asarray(ranks, dtype=np.float64)
        return {
            "mrr": float((1.0 / ranks).mean()),
            "mr": float(ranks.mean()),
            f"hits@{self.hits_k}": float((ranks <= self.hits_k).mean()),
        }

    def metrics(self, side):
        if side == "head":
            return self._metrics(self.head_ranks)
        if side == "tail":
            return self._metrics(self.tail_ranks)
        if side == "avg":
            h = self._metrics(self.head_ranks)
            t = self._metrics(self.tail_ranks)
            return {k: (h[k] + t[k]) / 2.0 for k in h}
        raise ValueError(f"unknown side {side!r}")

    def report_rows(self):
        rows = []
        for metric in ("mrr", "mr", f"hits@{self.hits_k}"):
            for side in ("head", "tail", "avg"):
                rows.append((metric, side, self.metrics(side)[metric]))
        return rows


def link_prediction_eval(scorer, test_triples, filter_index, n_entities):
    """Rank every test triple on both sides."""
    test_triples = np.asarray(test_triples, dtype=np.int64)
    if len(test_triples) == 0:
        raise ValueError("empty test split")
    head_ranks = np.empty(len(test_triples), dtype=np.int64)
    tail_ranks = np.empty(len(test_triples), dtype=np.int64)
    for i, triple in enumerate(test_triples):
        head_ranks[i] = filtered_rank(scorer, triple, "head", filter_index, n_entities)
        tail_ranks[i] = filtered_rank(scorer, triple, "tail", filter_index, n_entities)
    return RankingResult(head_ranks=head_ranks, tail_ranks=tail_ranks)


def write_metrics_report(result, path):
    """Machine-readable report: one ``metric<TAB>subtask<TAB>value``
    line per entry."""
    with atomic_open(path) as fh:
        for metric, side, value in result.report_rows():
            fh.write(f"{metric}\t{side}\t{value:.6f}\n")


def format_metrics_table(result):
    lines = [f"{'metric':<10}{'head':>12}{'tail':>12}{'avg':>12}"]
    for metric in ("mrr", "mr", f"hits@{result.hits_k}"):
        vals = [result.metrics(s)[metric] for s in ("head", "tail", "avg")]
        lines.append(f"{metric:<10}" + "".join(f"{v:>12.4f}" for v in vals))
    return "\n".join(lines)


def write_ranks(result, test_triples, path):
    """Per-triple rank dump: head, relation, tail ids plus both ranks."""
    with atomic_open(path) as fh:
        fh.write("head\trelation\ttail\thead_rank\ttail_rank\n")
        for (h, r, t), hr, tr in zip(np.asarray(test_triples), result.head_ranks, result.tail_ranks):
            fh.write(f"{h}\t{r}\t{t}\t{hr}\t{tr}\n")


def rank_breakdown_by_category(test_triples, tail_ranks, relation_names, separator="/"):
    """Mean tail rank per first relation-path component (relations
    without the separator form their own category). Sorted by mean rank
    then name."""
    groups = defaultdict(list)
    for (h, r, t), rank in zip(np.asarray(test_triples), tail_ranks):
        name = relation_names[int(r)]
        parts = [c for c in name.split(separator) if c]
        category = parts[0] if separator in name and parts else name
        groups[category].append(int(rank))
    rows = [(cat, float(np.mean(rs)), len(rs)) for cat, rs in groups.items()]
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def write_breakdown(rows, path):
    with atomic_open(path) as fh:
        fh.write("category\tmean_tail_rank\tcount\n")
        for cat, mean, count in rows:
            fh.write(f"{cat}\t{mean:.6f}\t{count}\n")
