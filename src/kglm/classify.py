"""Triple classification with per-relation score thresholds.

Thresholds are chosen on validation pairs to maximize accuracy under
the rule "positive iff score >= threshold"; test triples of relations
unseen in validation fall back to a global threshold. Negatives are
supplied or generated by seeded corruption, one per positive.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .files import atomic_open
from .scoring import sample_negatives

logger = logging.getLogger(__name__)


def best_threshold(pos_scores, neg_scores):
    """(threshold, accuracy) maximizing accuracy of "score >= thr";
    ties resolve to the smallest threshold."""
    pos = np.sort(np.asarray(pos_scores, dtype=np.float64))
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    allv = np.concatenate([pos, neg])
    if allv.size == 0:
        raise ValueError("best_threshold needs at least one positive or negative score")
    candidates = np.unique(allv)
    candidates = np.append(candidates, candidates[-1] + 1.0)  # all-negative option
    n = len(allv)
    pos_right = len(pos) - np.searchsorted(pos, candidates, side="left")
    neg_right = np.searchsorted(neg, candidates, side="left")
    acc = (pos_right + neg_right) / n
    k = int(np.argmax(acc))
    return float(candidates[k]), float(acc[k])


@dataclass
class ClassificationResult:
    valid_accuracy: float
    test_accuracy: float
    per_relation_test: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    global_threshold: float = 0.0
    fallback_relations: list = field(default_factory=list)


def triple_classification_eval(
    scorer,
    valid_pos,
    test_pos,
    valid_neg=None,
    test_neg=None,
    known=None,
    seed=seeds.DEFAULT_SEED,
):
    """Fit per-relation thresholds on validation, classify test.

    Negatives may be passed explicitly; otherwise they are generated by
    corrupting one side per positive with a seeded stream, avoiding the
    triples of the filter index ``known``.
    """
    valid_pos = np.asarray(valid_pos, dtype=np.int64)
    test_pos = np.asarray(test_pos, dtype=np.int64)
    if known is None and (valid_neg is None or test_neg is None):
        raise ValueError("known (the filter index) is needed to generate negatives; pass it or pass both negative sets")
    if valid_neg is None:
        rng = seeds.derived_rng(seed, seeds.CLASSIFY_NEGATIVES, 0)
        valid_neg = sample_negatives(valid_pos, known, rng)
    if test_neg is None:
        rng = seeds.derived_rng(seed, seeds.CLASSIFY_NEGATIVES, 1)
        test_neg = sample_negatives(test_pos, known, rng)
    valid_neg = np.asarray(valid_neg, dtype=np.int64)
    test_neg = np.asarray(test_neg, dtype=np.int64)

    vp_scores = scorer.score_batch(valid_pos)
    vn_scores = scorer.score_batch(valid_neg)
    global_thr, _ = best_threshold(vp_scores, vn_scores)

    # a relation with validation rows on one side only keeps the global threshold
    thresholds = {}
    for r in np.intersect1d(valid_pos[:, 1], valid_neg[:, 1]).tolist():
        thresholds[r] = best_threshold(vp_scores[valid_pos[:, 1] == r], vn_scores[valid_neg[:, 1] == r])[0]

    def _classify(pos, neg, pos_scores, neg_scores, fallback_log):
        rels, row_rel = np.unique(np.concatenate([pos[:, 1], neg[:, 1]]), return_inverse=True)
        rels = rels.tolist()
        fallback_log.update(r for r in rels if r not in thresholds)
        thr = np.array([thresholds.get(r, global_thr) for r in rels])[row_rel]
        scores = np.concatenate([pos_scores, neg_scores])
        positive = np.arange(len(scores)) < len(pos)
        # a NaN score is wrong on either side
        ok = np.where(positive, scores >= thr, scores < thr)
        per_rel = np.bincount(row_rel, weights=ok) / np.bincount(row_rel)
        return np.count_nonzero(ok) / len(ok), dict(zip(rels, per_rel.tolist()))

    fallback = set()
    valid_acc, _ = _classify(valid_pos, valid_neg, vp_scores, vn_scores, fallback)
    tp_scores = scorer.score_batch(test_pos)
    tn_scores = scorer.score_batch(test_neg)
    test_acc, per_rel = _classify(test_pos, test_neg, tp_scores, tn_scores, fallback)
    if fallback:
        logger.warning(
            "%d relations had no two-sided validation data; used the global threshold", len(fallback)
        )
    return ClassificationResult(
        valid_accuracy=float(valid_acc),
        test_accuracy=float(test_acc),
        per_relation_test=per_rel,
        thresholds=thresholds,
        global_threshold=global_thr,
        fallback_relations=sorted(fallback),
    )


def write_classification_report(result, path):
    with atomic_open(path) as fh:
        fh.write(f"accuracy\tvalid\t{result.valid_accuracy:.6f}\n")
        fh.write(f"accuracy\ttest\t{result.test_accuracy:.6f}\n")
        for r in sorted(result.per_relation_test):
            fh.write(f"accuracy\trelation:{r}\t{result.per_relation_test[r]:.6f}\n")
