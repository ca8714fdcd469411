import numpy as np
import pytest

from kglm.classify import ClassificationResult, best_threshold, triple_classification_eval
from kglm.graph import build_filter_index


class FixedScorer:
    """Scores from an explicit table; whatever classification needs."""

    def __init__(self, table, default=0.0):
        self.table = table
        self.default = default

    def score(self, h, r, t):
        return self.table.get((h, r, t), self.default)

    def score_batch(self, triples):
        return np.array([self.score(h, r, t) for h, r, t in np.asarray(triples).tolist()], dtype=np.float64)


def brute_force_best_accuracy(pos, neg):
    """Independent threshold search: try every observed score plus one
    above the max as threshold for "positive iff score >= thr"."""
    cands = sorted(set(pos) | set(neg))
    cands.append(max(cands) + 1.0)
    best = 0.0
    for thr in cands:
        acc = (sum(s >= thr for s in pos) + sum(s < thr for s in neg)) / (len(pos) + len(neg))
        best = max(best, acc)
    return best


class TestBestThreshold:
    def test_separable(self):
        thr, acc = best_threshold([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert acc == 1.0
        assert 0.0 < thr <= 1.0

    def test_identical_scores(self):
        thr, acc = best_threshold([0.5, 0.5], [0.5, 0.5])
        assert acc == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            best_threshold([], [])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pos = list(rng.normal(size=12))
            neg = list(rng.normal(loc=-0.5, size=12))
            _, acc = best_threshold(pos, neg)
            assert acc == pytest.approx(brute_force_best_accuracy(pos, neg))


class TestTripleClassification:
    def _triples(self, rels, start=0):
        out = []
        for i, r in enumerate(rels):
            out.append((start + 2 * i, r, start + 2 * i + 1))
        return np.array(out, dtype=np.int64)

    def test_separable_scores_reach_perfect_accuracy(self):
        valid_pos = self._triples([0, 0, 1, 1])
        valid_neg = self._triples([0, 0, 1, 1], start=100)
        test_pos = self._triples([0, 1], start=50)
        test_neg = self._triples([0, 1], start=150)
        table = {}
        for t in map(tuple, valid_pos):
            table[t] = 1.0
        for t in map(tuple, test_pos):
            table[t] = 1.0
        scorer = FixedScorer(table, default=0.0)  # negatives all score 0
        res = triple_classification_eval(scorer, valid_pos, test_pos, valid_neg=valid_neg, test_neg=test_neg)
        assert res.valid_accuracy == 1.0
        assert res.test_accuracy == 1.0

    def test_constant_scores_are_chance(self):
        valid_pos = self._triples([0, 0])
        valid_neg = self._triples([0, 0], start=40)
        scorer = FixedScorer({}, default=0.7)
        res = triple_classification_eval(scorer, valid_pos, valid_pos, valid_neg=valid_neg, test_neg=valid_neg)
        assert res.valid_accuracy == 0.5
        assert res.test_accuracy == 0.5

    def test_overlapping_scores_equal_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        rels = [0] * 10 + [1] * 8 + [2] * 12
        pos = self._triples(rels)
        neg = self._triples(rels, start=500)
        table = {}
        for t in map(tuple, pos):
            table[t] = float(rng.normal(loc=0.4))
        for t in map(tuple, neg):
            table[t] = float(rng.normal(loc=-0.4))
        scorer = FixedScorer(table)
        # valid == test: the chosen thresholds must reproduce the
        # per-relation brute-force optimum exactly
        res = triple_classification_eval(scorer, pos, pos, valid_neg=neg, test_neg=neg)
        expected = 0.0
        for r in set(rels):
            p = [table[tuple(t)] for t in pos if t[1] == r]
            n = [table[tuple(t)] for t in neg if t[1] == r]
            expected += brute_force_best_accuracy(p, n) * (len(p) + len(n))
        expected /= 2 * len(pos)
        assert res.test_accuracy == pytest.approx(expected)

    def test_unseen_relation_falls_back_to_global(self, caplog):
        valid_pos = self._triples([0, 0, 0])
        valid_neg = self._triples([0, 0, 0], start=60)
        test_pos = self._triples([5], start=30)
        test_neg = self._triples([5], start=90)
        table = {tuple(t): 1.0 for t in valid_pos}
        table.update({tuple(t): 1.0 for t in test_pos})
        scorer = FixedScorer(table, default=0.0)
        with caplog.at_level("WARNING"):
            res = triple_classification_eval(
                scorer, valid_pos, test_pos, valid_neg=valid_neg, test_neg=test_neg
            )
        assert 5 in res.fallback_relations
        assert res.test_accuracy == 1.0
        assert any("global threshold" in rec.message for rec in caplog.records)

    def test_generated_negatives_are_seeded(self):
        rng_triples = self._triples([0, 1, 0, 1])
        known = build_filter_index(40, 2, rng_triples)
        scorer = FixedScorer({}, default=0.0)
        r1 = triple_classification_eval(scorer, rng_triples, rng_triples, known=known, seed=9)
        r2 = triple_classification_eval(scorer, rng_triples, rng_triples, known=known, seed=9)
        assert r1.valid_accuracy == r2.valid_accuracy
        assert r1.thresholds == r2.thresholds

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)

        def triples(n):
            return np.column_stack([rng.integers(50, size=n), rng.integers(6, size=n), rng.integers(50, size=n)])

        # relation 5 shows up only in test; a few test scores are NaN
        valid_pos, valid_neg = triples(30), triples(int(rng.integers(1, 30)))
        valid_pos[:, 1] %= 5
        valid_neg[:, 1] %= 5
        test_pos, test_neg = triples(25), triples(20)
        scores = {}
        for rows, loc in ((valid_pos, 0.5), (valid_neg, -0.5), (test_pos, 0.5), (test_neg, -0.5)):
            for row in map(tuple, rows.tolist()):
                scores.setdefault(row, float(rng.normal(loc)))
        for row in map(tuple, np.vstack([test_pos[:2], test_neg[:2]]).tolist()):
            scores[row] = float("nan")
        scorer = FixedScorer(scores)
        res = triple_classification_eval(scorer, valid_pos, test_pos, valid_neg=valid_neg, test_neg=test_neg)
        ref = loop_reference(scorer, valid_pos, test_pos, valid_neg, test_neg)
        assert res == ref


def loop_reference(scorer, valid_pos, test_pos, valid_neg, test_neg):
    """Thresholds fitted and rows classified one relation and one row at
    a time."""

    def score(rows):
        return [scorer.score(h, r, t) for h, r, t in rows.tolist()]

    vp, vn = score(valid_pos), score(valid_neg)
    global_thr, _ = best_threshold(vp, vn)
    thresholds = {}
    for r in sorted(set(valid_pos[:, 1].tolist()) & set(valid_neg[:, 1].tolist())):
        thresholds[r] = best_threshold(
            [s for s, rr in zip(vp, valid_pos[:, 1]) if rr == r], [s for s, rr in zip(vn, valid_neg[:, 1]) if rr == r]
        )[0]
    fallback = set()

    def classify(pos, neg):
        stats = {}
        for rows, positive in ((pos, True), (neg, False)):
            for (h, r, t), s in zip(rows.tolist(), score(rows)):
                if r not in thresholds:
                    fallback.add(r)
                thr = thresholds.get(r, global_thr)
                stat = stats.setdefault(r, [0, 0])
                stat[0] += (s >= thr) if positive else (s < thr)
                stat[1] += 1
        correct = sum(c for c, _ in stats.values())
        return correct / (len(pos) + len(neg)), {r: c / m for r, (c, m) in stats.items()}

    valid_acc, _ = classify(valid_pos, valid_neg)
    test_acc, per_rel = classify(test_pos, test_neg)
    return ClassificationResult(
        valid_accuracy=valid_acc,
        test_accuracy=test_acc,
        per_relation_test=per_rel,
        thresholds=thresholds,
        global_threshold=global_thr,
        fallback_relations=sorted(fallback),
    )
