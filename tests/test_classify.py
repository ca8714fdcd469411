import numpy as np
import pytest

from kglm.classify import best_threshold, triple_classification_eval


class FixedScorer:
    """Scores from an explicit table; whatever classification needs."""

    def __init__(self, table, default=0.0):
        self.table = table
        self.default = default

    def score(self, h, r, t):
        return self.table.get((h, r, t), self.default)


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
        known = {tuple(map(int, t)) for t in rng_triples}
        scorer = FixedScorer({}, default=0.0)
        r1 = triple_classification_eval(
            scorer, rng_triples, rng_triples, known=known, n_entities=40, seed=9
        )
        r2 = triple_classification_eval(
            scorer, rng_triples, rng_triples, known=known, n_entities=40, seed=9
        )
        assert r1.valid_accuracy == r2.valid_accuracy
        assert r1.thresholds == r2.thresholds
