import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglm import seeds
from kglm.extract import aggregate_static
from kglm.graph import build_filter_index, build_graph
from kglm.model import ModelConfig, init_params
from kglm.ranking import (
    RankingResult,
    filtered_rank,
    link_prediction_eval,
    rank_breakdown_by_category,
)
from kglm.scoring import (
    Scorer,
    ScorerTrainConfig,
    init_scorer_from_table,
    init_scorer_random,
    sample_negatives,
    train_scorer,
)

from conftest import random_graph


def rank_oracle(scorer, triple, side, fidx, n_entities):
    """Full-sort oracle: score every filtered candidate one by one,
    order by descending score with the target last among equals."""
    h, r, t = (int(v) for v in triple)
    if side == "head":
        known = fidx.heads.get((r, t), set())
        target = h
        cands = [e for e in range(n_entities) if e == target or e not in known]
        scored = [(scorer.score(e, r, t), e) for e in cands]
    else:
        known = fidx.tails.get((h, r), set())
        target = t
        cands = [e for e in range(n_entities) if e == target or e not in known]
        scored = [(scorer.score(h, r, e), e) for e in cands]
    scored.sort(key=lambda se: (-se[0], se[1] == target))
    return 1 + [e for _, e in scored].index(target)


class TestScoreTriple:
    def test_translational_exact_translation_is_max(self):
        ent = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rel = np.array([[0.0, 1.0]])
        s = Scorer(kind="translational", ent=ent, rel=rel)
        assert s.score(0, 0, 2) == 0.0  # v_h + v_r == v_t
        assert s.score(1, 0, 2) < 0.0

    def test_bilinear_all_ones(self):
        ones = np.ones((2, 3))
        s = Scorer(kind="bilinear", ent=ones, rel=ones.copy())
        assert s.score(0, 0, 1) == 3.0

    def test_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(0)
        ent = rng.normal(size=(5, 4))
        rel = rng.normal(size=(3, 4))
        tr = Scorer(kind="translational", ent=ent, rel=rel)
        bi = Scorer(kind="bilinear", ent=ent, rel=rel)
        for h, r, t in [(0, 0, 1), (2, 1, 4), (3, 2, 0)]:
            v = ent[h] + rel[r] - ent[t]
            assert tr.score(h, r, t) == pytest.approx(-np.sqrt((v * v).sum()), abs=1e-12)
            assert bi.score(h, r, t) == pytest.approx(
                sum(ent[h][d] * rel[r][d] * ent[t][d] for d in range(4)), abs=1e-12
            )

    def test_unknown_ids_rejected(self):
        s = Scorer(kind="bilinear", ent=np.ones((2, 2)), rel=np.ones((1, 2)))
        with pytest.raises(ValueError):
            s.score(5, 0, 0)
        with pytest.raises(ValueError):
            s.score(0, 3, 0)

    def test_batched_scores_agree_with_scalar(self):
        rng = np.random.default_rng(1)
        for kind in ("translational", "bilinear"):
            s = Scorer(kind=kind, ent=rng.normal(size=(6, 3)), rel=rng.normal(size=(2, 3)))
            heads = s.score_all_heads(1, 4)
            tails = s.score_all_tails(2, 0)
            for e in range(6):
                assert heads[e] == pytest.approx(s.score(e, 1, 4), abs=1e-12)
                assert tails[e] == pytest.approx(s.score(2, 0, e), abs=1e-12)


class TestFilteredRank:
    def _setup(self, seed=0, n_entities=20):
        g = build_graph(random_graph(seed, n_entities=n_entities, n_triples=60))
        fidx = build_filter_index(g.triples)
        rng = np.random.default_rng(seed)
        scorer = Scorer(
            kind="bilinear",
            ent=rng.normal(size=(g.n_entities, 6)),
            rel=rng.normal(size=(g.n_relations, 6)),
        )
        return g, fidx, scorer

    def test_best_score_is_rank_one(self):
        g, fidx, scorer = self._setup()
        h, r, t = (int(v) for v in g.triples[0])
        scorer.ent[h] = 100.0  # dominate every other head score
        scorer.rel[r] = np.abs(scorer.rel[r]) + 1.0
        scorer.ent[t] = np.abs(scorer.ent[t]) + 1.0
        scorer.ent[h] = 100.0 * scorer.rel[r] * scorer.ent[t]
        assert filtered_rank(scorer, (h, r, t), "head", fidx, g.n_entities) == 1

    def test_all_ties_rank_is_candidate_count(self):
        g, fidx, _ = self._setup()
        scorer = Scorer(
            kind="bilinear",
            ent=np.zeros((g.n_entities, 3)),
            rel=np.zeros((g.n_relations, 3)),
        )
        h, r, t = (int(v) for v in g.triples[0])
        known = fidx.heads[(r, t)]
        n_cands = g.n_entities - len(known) + 1
        assert filtered_rank(scorer, (h, r, t), "head", fidx, g.n_entities) == n_cands

    def test_nan_scores_never_improve_the_rank(self):
        g, fidx, scorer = self._setup()
        h, r, t = (int(v) for v in g.triples[0])
        n_cands = g.n_entities - len(fidx.heads[(r, t)]) + 1

        class FixedHeads:
            def __init__(self, scores):
                self.scores = scores

            def score_all_heads(self, r, t):
                return self.scores

        def rank(scores):
            return filtered_rank(FixedHeads(scores), (h, r, t), "head", fidx, g.n_entities)

        # an all-NaN scorer, or a NaN true score alone: the true entity ranks last
        assert rank(np.full(g.n_entities, np.nan)) == n_cands
        scores = scorer.score_all_heads(r, t)
        assert rank(np.where(np.arange(g.n_entities) == h, np.nan, scores)) == n_cands
        # a NaN candidate counts as ranked ahead, whether it scored below or above
        base = rank(scores)
        candidates = [e for e in range(g.n_entities) if e != h and e not in fidx.heads[(r, t)]]
        below = [e for e in candidates if scores[e] < scores[h]]
        above = [e for e in candidates if scores[e] >= scores[h]]
        assert below and above, "the seeded scorer should rank candidates on both sides"
        for e, expected in ((below[0], base + 1), (above[0], base)):
            moved = scores.copy()
            moved[e] = np.nan
            assert rank(moved) == expected

    def test_matches_full_sort_oracle(self):
        for seed in range(3):
            g, fidx, scorer = self._setup(seed=seed, n_entities=30)
            for triple in g.triples[:25]:
                for side in ("head", "tail"):
                    got = filtered_rank(scorer, triple, side, fidx, g.n_entities)
                    want = rank_oracle(scorer, triple, side, fidx, g.n_entities)
                    assert got == want


class TestRankingMetrics:
    def test_formula_example(self):
        res = RankingResult(head_ranks=np.array([1, 2, 4]), tail_ranks=np.array([1, 2, 4]))
        m = res.metrics("head")
        assert m["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert m["mr"] == pytest.approx(7 / 3)
        assert m["hits@10"] == 1.0

    def test_rank_11_misses_hits10(self):
        res = RankingResult(head_ranks=np.array([11]), tail_ranks=np.array([11]))
        assert res.metrics("avg")["hits@10"] == 0.0

    def test_empty_test_split_rejected(self):
        s = Scorer(kind="bilinear", ent=np.ones((2, 2)), rel=np.ones((1, 2)))
        from kglm.graph import FilterIndex

        with pytest.raises(ValueError, match="empty"):
            link_prediction_eval(s, np.empty((0, 3), dtype=np.int64), FilterIndex(), 2)

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=60),
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_algebra(self, head, tail):
        res = RankingResult(head_ranks=np.array(head), tail_ranks=np.array(tail))
        for side, ranks in (("head", head), ("tail", tail)):
            m = res.metrics(side)
            assert m["mrr"] == pytest.approx(np.mean([1.0 / r for r in ranks]))
            assert m["mr"] == pytest.approx(np.mean(ranks))
            assert m["hits@10"] == pytest.approx(sum(r <= 10 for r in ranks) / len(ranks))
        avg = res.metrics("avg")
        for k in avg:
            assert avg[k] == pytest.approx((res.metrics("head")[k] + res.metrics("tail")[k]) / 2)

    @given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_invariance(self, a, b):
        g = build_graph(random_graph(2, n_entities=15, n_triples=40))
        fidx = build_filter_index(g.triples)
        rng = np.random.default_rng(2)
        base = Scorer(
            kind="bilinear",
            ent=rng.normal(size=(g.n_entities, 4)),
            rel=rng.normal(size=(g.n_relations, 4)),
        )

        class Affine:
            def score_all_heads(self, r, t):
                return a * base.score_all_heads(r, t) + b

            def score_all_tails(self, h, r):
                return a * base.score_all_tails(h, r) + b

        for triple in g.triples[:10]:
            for side in ("head", "tail"):
                assert filtered_rank(base, triple, side, fidx, g.n_entities) == filtered_rank(
                    Affine(), triple, side, fidx, g.n_entities
                )


class TestBreakdown:
    def test_grouping_example(self):
        triples = np.array([[0, 0, 1], [0, 0, 2], [0, 1, 1]])
        ranks = np.array([1, 3, 2])
        rows = rank_breakdown_by_category(triples, ranks, ["/a/x", "/b/y"])
        assert rows == [("a", 2.0, 2), ("b", 2.0, 1)]

    def test_single_category_equals_global_mr(self):
        triples = np.array([[0, 0, 1], [1, 0, 2], [2, 0, 0]])
        ranks = np.array([4, 6, 11])
        rows = rank_breakdown_by_category(triples, ranks, ["/same/x"])
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(np.mean(ranks))

    def test_no_separator_is_own_category(self):
        triples = np.array([[0, 0, 1], [0, 1, 1]])
        rows = rank_breakdown_by_category(triples, np.array([2, 8]), ["plain", "/deep/x"])
        assert ("plain", 2.0, 1) in rows

    def test_matches_manual_group_by(self):
        rng = np.random.default_rng(4)
        names = [f"/{cat}/{i}" for i, cat in enumerate(rng.choice(["people", "film", "loc"], size=9))]
        triples = np.column_stack(
            [rng.integers(5, size=40), rng.integers(9, size=40), rng.integers(5, size=40)]
        )
        ranks = rng.integers(1, 50, size=40)
        rows = dict((c, m) for c, m, _ in rank_breakdown_by_category(triples, ranks, names))
        manual = {}
        for (h, r, t), rank in zip(triples, ranks):
            cat = names[r].split("/")[1]
            manual.setdefault(cat, []).append(rank)
        for cat, rs in manual.items():
            assert rows[cat] == pytest.approx(np.mean(rs))


class TestScorerTraining:
    def _toy(self, seed=0):
        g = build_graph(random_graph(seed, n_entities=25, n_triples=80))
        fidx = build_filter_index(g.triples)
        return g, fidx

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError, match="margin"):
            ScorerTrainConfig(margin=0.0)

    def test_negatives_must_be_positive(self):
        with pytest.raises(ValueError, match="negatives"):
            ScorerTrainConfig(negatives=0)

    def test_multiple_negatives_per_positive(self):
        g, fidx = self._toy(seed=7)
        known = fidx.known_triples()
        rng = seeds.derived_rng(4, seeds.SCORER_INIT, 0)
        s = init_scorer_random("bilinear", 8, g.n_entities, g.n_relations, rng)
        _, trace = train_scorer(s, g.triples, known, ScorerTrainConfig(epochs=4, negatives=3, seed=4))
        assert len(trace) == 4 and np.isfinite(trace).all()

    def test_zero_epochs_keeps_init(self):
        g, fidx = self._toy()
        rng = seeds.derived_rng(0, seeds.SCORER_INIT, 0)
        s = init_scorer_random("bilinear", 8, g.n_entities, g.n_relations, rng)
        ent0, rel0 = s.ent.copy(), s.rel.copy()
        train_scorer(s, g.triples, fidx.known_triples(), ScorerTrainConfig(epochs=0, seed=0))
        np.testing.assert_array_equal(s.ent, ent0)
        np.testing.assert_array_equal(s.rel, rel0)

    def test_same_seed_same_result(self):
        g, fidx = self._toy()
        known = fidx.known_triples()
        outs = []
        for _ in range(2):
            rng = seeds.derived_rng(1, seeds.SCORER_INIT, 0)
            s = init_scorer_random("translational", 8, g.n_entities, g.n_relations, rng)
            train_scorer(s, g.triples, known, ScorerTrainConfig(epochs=3, seed=1))
            outs.append((s.ent.copy(), s.rel.copy()))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_training_reduces_loss(self):
        g, fidx = self._toy(seed=5)
        known = fidx.known_triples()
        rng = seeds.derived_rng(2, seeds.SCORER_INIT, 0)
        s = init_scorer_random("bilinear", 16, g.n_entities, g.n_relations, rng)
        _, trace = train_scorer(s, g.triples, known, ScorerTrainConfig(epochs=60, lr=0.02, seed=2))
        assert trace[-1] < 0.5 * trace[0]

    def test_negative_sampling_rejects_known(self):
        g, fidx = self._toy()
        known = fidx.known_triples()
        rng = np.random.default_rng(0)
        negs = sample_negatives(g.triples, g.n_entities, known, rng)
        for i, neg in enumerate(negs):
            assert tuple(int(v) for v in neg) not in known
            pos = g.triples[i]
            # exactly one side corrupted, relation untouched
            assert neg[1] == pos[1]
            assert (neg[0] == pos[0]) != (neg[2] == pos[2]) or neg[0] != pos[0] or neg[2] != pos[2]


class TestInitModes:
    def _table(self):
        config = ModelConfig(
            num_layers=2, hidden_units=6, proj_dim=4, entity_dim=5, relation_dim=3,
            dropout=0.0, batch_size=4, precision="f64", seed=0,
        )
        params = init_params(config, 10, 5)
        from kglm.walker import Chain

        chains = [
            Chain(entities=np.array([0, 1, 2]), relations=np.array([0, 1])),
            Chain(entities=np.array([3, 4]), relations=np.array([2])),
        ]
        return config, params, chains

    def test_init_isolation(self):
        """With epochs=0 the two init modes differ only in the tables."""
        config, params, chains = self._table()
        table = aggregate_static(chains, params, config)
        rng1 = seeds.derived_rng(3, seeds.SCORER_INIT, 0)
        rng2 = seeds.derived_rng(3, seeds.SCORER_INIT, 0)
        a = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear", None, rng1)
        b = init_scorer_random("bilinear", table.dim, 10, 5, rng2)
        assert a.kind == b.kind
        assert a.dim == b.dim
        assert not np.array_equal(a.ent, b.ent)

    def test_table_init_deterministic_and_centered(self):
        config, params, chains = self._table()
        table = aggregate_static(chains, params, config)
        s1 = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear")
        s2 = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear")
        np.testing.assert_array_equal(s1.ent, s2.ent)
        np.testing.assert_allclose(s1.ent.mean(axis=0), 0.0, atol=1e-12)
        raw = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear", standardize=False)
        np.testing.assert_array_equal(raw.ent, table.entity_vecs)

    def test_projection_to_smaller_dim(self):
        config, params, chains = self._table()
        table = aggregate_static(chains, params, config)
        rng = np.random.default_rng(0)
        s = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear", dim=6, rng=rng)
        assert s.ent.shape == (10, 6)

