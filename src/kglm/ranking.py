"""Filtered link-prediction ranking and metric reports.

Candidates for a query are all entities minus every other known-true
answer for the same key (the target itself always stays in). Ties rank
the true entity worst among equals, and a NaN score never ranks the true
entity higher, so reported metrics are lower bounds; a constant or
broken scorer cannot look good.

:func:`link_prediction_eval` scores the test queries in blocks, one
GEMM against every entity per block (the 1-N scoring of ConvE, Dettmers
et al. 2018); :func:`filtered_rank` ranks one query at a time and is the
reference the blocked ranks are tested against.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import workers
from .files import atomic_open
from .graph import check_ids

# score cells per block, split between the two workers' halves: float64
# score blocks of about 8 MB
BLOCK_CELLS = 2**20
# the k of the reported hits@k
HITS_K = 10
# relation names are paths such as /people/person/nationality
CATEGORY_SEPARATOR = "/"


def filtered_rank(scorer, triple, side, filter_index):
    """Pessimistic filtered rank of the true entity on one side."""
    h, r, t = (int(v) for v in triple)
    if side == "head":
        scores = scorer.score_all_heads(r, t)
        true_id = h
        known = filter_index.heads(r, t)
    elif side == "tail":
        scores = scorer.score_all_tails(h, r)
        true_id = t
        known = filter_index.tails(h, r)
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    keep = np.ones(filter_index.n_entities, dtype=bool)
    keep[known] = False
    keep[true_id] = False  # compared against the other candidates only
    # every candidate not strictly below the true score ranks ahead of it:
    # ties, and NaN on either side (a NaN true score gets the worst rank)
    return int(1 + np.count_nonzero(~(scores[keep] < scores[true_id])))


@dataclass
class RankingResult:
    """Per-triple filtered ranks for both sub-tasks."""

    head_ranks: np.ndarray
    tail_ranks: np.ndarray

    def _metrics(self, ranks):
        ranks = np.asarray(ranks, dtype=np.float64)
        return {
            "mrr": float((1.0 / ranks).mean()),
            "mr": float(ranks.mean()),
            f"hits@{HITS_K}": float((ranks <= HITS_K).mean()),
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
        for metric in ("mrr", "mr", f"hits@{HITS_K}"):
            for side in ("head", "tail", "avg"):
                rows.append((metric, side, self.metrics(side)[metric]))
        return rows


def _block_scores(scorer, block, side, ent_sq):
    """(len(block), |E|) scores of every entity as the ``side`` answer of
    each query row; ``ent_sq`` holds the squared entity norms."""
    ent = scorer.ent
    e_r = scorer.rel[block[:, 1]]
    if scorer.kind == "bilinear":
        query = ent[block[:, 0]] * e_r if side == "tail" else e_r * ent[block[:, 2]]
        return query @ ent.T
    # -||a - e|| for every entity e, through ||a||^2 - 2 a.e + ||e||^2
    a = ent[block[:, 0]] + e_r if side == "tail" else ent[block[:, 2]] - e_r
    scores = a @ ent.T
    scores *= -2.0
    scores += np.einsum("qd,qd->q", a, a)[:, None]
    scores += ent_sq
    # rounding can push a zero distance below 0; np.maximum keeps NaN
    np.maximum(scores, 0.0, out=scores)
    np.sqrt(scores, out=scores)
    return np.negative(scores, out=scores)


def _block_ranks(scorer, block, side, filter_index, ent_sq):
    """Pessimistic filtered ranks of the true ``side`` entity of each
    query row, by the rule of :func:`filtered_rank`."""
    rows = np.arange(len(block))
    true_ids = block[:, 0] if side == "head" else block[:, 2]
    scores = _block_scores(scorer, block, side, ent_sq)
    ahead = ~(scores < scores[rows, true_ids][:, None])
    ahead[filter_index.known_answers(side, block)] = False
    ahead[rows, true_ids] = False
    return 1 + np.count_nonzero(ahead, axis=1)


def link_prediction_eval(scorer, test_triples, filter_index):
    """Rank every test triple on both sides, in blocks of queries, each
    block's two halves on the two workers. A query's rank depends on its
    own row alone, so the halves give the ranks one block would."""
    test_triples = np.asarray(test_triples, dtype=np.int64)
    if len(test_triples) == 0:
        raise ValueError("empty test split")
    n_ent, n_rel = filter_index.n_entities, filter_index.n_relations
    if scorer.ent.shape[0] != n_ent:
        raise ValueError(f"scorer has {scorer.ent.shape[0]} entity rows, the filter index {n_ent} entities")
    if scorer.rel.shape[0] != n_rel:
        raise ValueError(f"scorer has {scorer.rel.shape[0]} relation rows, the filter index {n_rel} relations")
    check_ids(test_triples, n_ent, n_rel, "test triple")
    ent_sq = np.einsum("ed,ed->e", scorer.ent, scorer.ent) if scorer.kind == "translational" else None
    ranks = {side: np.empty(len(test_triples), dtype=np.int64) for side in ("head", "tail")}

    def rank_rows(rows):
        for side, out in ranks.items():
            out[rows] = _block_ranks(scorer, test_triples[rows], side, filter_index, ent_sq)

    step = max(1, BLOCK_CELLS // n_ent)
    for start in range(0, len(test_triples), step):
        workers.split_rows(rank_rows, start, min(start + step, len(test_triples)))
    return RankingResult(head_ranks=ranks["head"], tail_ranks=ranks["tail"])


def write_metrics_report(result, path):
    """Machine-readable report: one ``metric<TAB>subtask<TAB>value``
    line per entry."""
    with atomic_open(path) as fh:
        for metric, side, value in result.report_rows():
            fh.write(f"{metric}\t{side}\t{value:.6f}\n")


def format_metrics_table(result):
    lines = [f"{'metric':<10}{'head':>12}{'tail':>12}{'avg':>12}"]
    for metric in ("mrr", "mr", f"hits@{HITS_K}"):
        vals = [result.metrics(s)[metric] for s in ("head", "tail", "avg")]
        lines.append(f"{metric:<10}" + "".join(f"{v:>12.4f}" for v in vals))
    return "\n".join(lines)


def write_ranks(result, test_triples, path):
    """Per-triple rank dump: head, relation, tail ids plus both ranks."""
    with atomic_open(path) as fh:
        fh.write("head\trelation\ttail\thead_rank\ttail_rank\n")
        for (h, r, t), hr, tr in zip(np.asarray(test_triples), result.head_ranks, result.tail_ranks):
            fh.write(f"{h}\t{r}\t{t}\t{hr}\t{tr}\n")


def rank_breakdown_by_category(test_triples, tail_ranks, relation_names):
    """Mean tail rank per first relation-path component (relations
    without the separator form their own category). Sorted by mean rank
    then name."""
    groups = defaultdict(list)
    for (h, r, t), rank in zip(np.asarray(test_triples), tail_ranks):
        name = relation_names[int(r)]
        parts = [c for c in name.split(CATEGORY_SEPARATOR) if c]
        category = parts[0] if CATEGORY_SEPARATOR in name and parts else name
        groups[category].append(int(rank))
    rows = [(cat, float(np.mean(rs)), len(rs)) for cat, rs in groups.items()]
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def write_breakdown(rows, path):
    with atomic_open(path) as fh:
        fh.write("category\tmean_tail_rank\tcount\n")
        for cat, mean, count in rows:
            fh.write(f"{cat}\t{mean:.6f}\t{count}\n")
