import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglm import ranking, seeds
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
    SCORER_KINDS,
    Scorer,
    ScorerTrainConfig,
    init_scorer_from_table,
    init_scorer_random,
    load_scorer,
    sample_negatives,
    save_scorer,
    train_scorer,
)

from conftest import random_graph, walk_corpus


def rank_oracle(scorer, triple, side, known_triples, n_entities):
    """Full-sort oracle: score every filtered candidate one by one,
    order by descending score with the target last among equals. The
    known answers come from a naive scan of ``known_triples``."""
    h, r, t = (int(v) for v in triple)
    rows = np.asarray(known_triples).tolist()
    if side == "head":
        known = {hh for hh, rr, tt in rows if rr == r and tt == t}
        target = h
        cands = [e for e in range(n_entities) if e == target or e not in known]
        scored = [(scorer.score(e, r, t), e) for e in cands]
    else:
        known = {tt for hh, rr, tt in rows if hh == h and rr == r}
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

    def test_score_batch_agrees_with_scalar_and_checks_ids(self):
        rng = np.random.default_rng(2)
        rows = np.column_stack([rng.integers(6, size=20), rng.integers(2, size=20), rng.integers(6, size=20)])
        for kind in SCORER_KINDS:
            s = Scorer(kind=kind, ent=rng.normal(size=(6, 3)), rel=rng.normal(size=(2, 3)))
            got = s.score_batch(rows)
            for i, (h, r, t) in enumerate(rows.tolist()):
                assert got[i] == pytest.approx(s.score(h, r, t), rel=1e-12, abs=1e-12)
            for bad in ((-1, 0, 0), (0, 0, 6), (0, 2, 0)):
                with pytest.raises(ValueError, match="outside"):
                    s.score_batch(np.vstack([rows, bad]))

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
        fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
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
        assert filtered_rank(scorer, (h, r, t), "head", fidx) == 1

    def test_all_ties_rank_is_candidate_count(self):
        g, fidx, _ = self._setup()
        scorer = Scorer(
            kind="bilinear",
            ent=np.zeros((g.n_entities, 3)),
            rel=np.zeros((g.n_relations, 3)),
        )
        h, r, t = (int(v) for v in g.triples[0])
        n_cands = g.n_entities - len(fidx.heads(r, t)) + 1
        assert filtered_rank(scorer, (h, r, t), "head", fidx) == n_cands

    def test_nan_scores_never_improve_the_rank(self):
        g, fidx, scorer = self._setup()
        h, r, t = (int(v) for v in g.triples[0])
        n_cands = g.n_entities - len(fidx.heads(r, t)) + 1

        class FixedHeads:
            def __init__(self, scores):
                self.scores = scores

            def score_all_heads(self, r, t):
                return self.scores

        def rank(scores):
            return filtered_rank(FixedHeads(scores), (h, r, t), "head", fidx)

        # an all-NaN scorer, or a NaN true score alone: the true entity ranks last
        assert rank(np.full(g.n_entities, np.nan)) == n_cands
        scores = scorer.score_all_heads(r, t)
        assert rank(np.where(np.arange(g.n_entities) == h, np.nan, scores)) == n_cands
        # a NaN candidate counts as ranked ahead, whether it scored below or above
        base = rank(scores)
        candidates = [e for e in range(g.n_entities) if e != h and e not in fidx.heads(r, t)]
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
                    got = filtered_rank(scorer, triple, side, fidx)
                    want = rank_oracle(scorer, triple, side, g.triples, g.n_entities)
                    assert got == want


class TestBlockRanks:
    """``link_prediction_eval``'s blocked ranks against the per-query
    ``filtered_rank``."""

    def _data(self, seed):
        # a dense graph: most queries have other known answers, drawn
        # from all three splits
        g = build_graph(random_graph(seed, n_entities=14, n_relations=3, n_triples=110))
        rows = np.random.default_rng(seed).permutation(g.triples)
        train, valid, test = rows[:60], rows[60:85], rows[85:]
        return g, test, build_filter_index(g.n_entities, g.n_relations, train, valid, test)

    def _scorers(self, g, test, seed):
        rng = np.random.default_rng(seed)
        n_ent, n_rel = g.n_entities, g.n_relations
        for kind in SCORER_KINDS:
            yield Scorer(kind, rng.normal(size=(n_ent, 5)), rng.normal(size=(n_rel, 5)))
            yield Scorer(kind, np.zeros((n_ent, 5)), np.zeros((n_rel, 5)))  # every score ties
            # NaN rows at a true head, a true tail and one more entity
            ent = rng.normal(size=(n_ent, 5))
            ent[[test[0, 0], test[1, 2], int(rng.integers(n_ent))]] = np.nan
            yield Scorer(kind, ent, rng.normal(size=(n_rel, 5)))
        # small integer tables give exact distance ties
        yield Scorer(
            "translational",
            rng.integers(-2, 3, size=(n_ent, 3)).astype(np.float64),
            rng.integers(-2, 3, size=(n_rel, 3)).astype(np.float64),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("block", [1, 4, 7, 1000])
    def test_block_ranks_match_filtered_rank(self, monkeypatch, seed, block):
        g, test, fidx = self._data(seed)
        # `block` queries per block: several blocks, the last one ragged
        monkeypatch.setattr(ranking, "BLOCK_CELLS", block * g.n_entities)
        for scorer in self._scorers(g, test, seed):
            res = link_prediction_eval(scorer, test, fidx)
            for side, got in (("head", res.head_ranks), ("tail", res.tail_ranks)):
                want = [filtered_rank(scorer, triple, side, fidx) for triple in test]
                assert got.tolist() == want, (scorer.kind, side)

    def test_scorer_of_another_entity_count_rejected(self):
        s = Scorer(kind="bilinear", ent=np.ones((3, 2)), rel=np.ones((1, 2)))
        with pytest.raises(ValueError, match="3 entity rows.*4 entities"):
            link_prediction_eval(s, [[0, 0, 1]], build_filter_index(4, 1))

    def test_scorer_of_another_relation_count_rejected(self):
        # relation 2 is in the index's range but has no scorer row, which
        # once failed as a bare IndexError
        s = Scorer(kind="bilinear", ent=np.ones((4, 2)), rel=np.ones((2, 2)))
        with pytest.raises(ValueError, match="2 relation rows.*3 relations"):
            link_prediction_eval(s, [[0, 2, 1]], build_filter_index(4, 3))

    @pytest.mark.parametrize("row", [(-1, 0, 1), (0, 0, -1), (0, -1, 1), (4, 0, 1), (0, 0, 4), (0, 1, 1)])
    def test_out_of_range_ids_rejected(self, row):
        s = Scorer(kind="translational", ent=np.ones((4, 2)), rel=np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"test triple .* is outside 4 entities x 1 relations"):
            link_prediction_eval(s, [(0, 0, 1), row], build_filter_index(4, 1))


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
        with pytest.raises(ValueError, match="empty"):
            link_prediction_eval(s, np.empty((0, 3), dtype=np.int64), build_filter_index(2, 1))

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
        fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
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
                assert filtered_rank(base, triple, side, fidx) == filtered_rank(Affine(), triple, side, fidx)


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
        fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
        return g, fidx

    @pytest.mark.parametrize("lr", [0.0, -0.01, float("inf"), float("nan")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number > 0"):
            ScorerTrainConfig(lr=lr)

    def test_zero_epochs_keeps_init(self):
        g, fidx = self._toy()
        rng = seeds.derived_rng(0, seeds.SCORER_INIT, 0)
        s = init_scorer_random("bilinear", 8, g.n_entities, g.n_relations, rng)
        ent0, rel0 = s.ent.copy(), s.rel.copy()
        train_scorer(s, g.triples, fidx, ScorerTrainConfig(epochs=0, seed=0))
        np.testing.assert_array_equal(s.ent, ent0)
        np.testing.assert_array_equal(s.rel, rel0)

    def test_same_seed_same_result(self):
        g, fidx = self._toy()
        outs = []
        for _ in range(2):
            rng = seeds.derived_rng(1, seeds.SCORER_INIT, 0)
            s = init_scorer_random("translational", 8, g.n_entities, g.n_relations, rng)
            train_scorer(s, g.triples, fidx, ScorerTrainConfig(epochs=3, seed=1))
            outs.append((s.ent.copy(), s.rel.copy()))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_training_reduces_loss(self):
        g, fidx = self._toy(seed=5)
        rng = seeds.derived_rng(2, seeds.SCORER_INIT, 0)
        s = init_scorer_random("bilinear", 16, g.n_entities, g.n_relations, rng)
        _, trace = train_scorer(s, g.triples, fidx, ScorerTrainConfig(epochs=60, lr=0.02, seed=2))
        assert trace[-1] < 0.5 * trace[0]

    def test_negative_sampling_rejects_known(self):
        for seed in range(5):
            g, fidx = self._toy(seed=seed)
            pos = np.repeat(g.triples, 4, axis=0)
            negs = sample_negatives(pos, fidx, np.random.default_rng(seed))
            rows = {tuple(int(v) for v in row) for row in g.triples}
            assert not any(tuple(int(v) for v in neg) in rows for neg in negs)
            # exactly one side corrupted, relation untouched
            np.testing.assert_array_equal(negs[:, 1], pos[:, 1])
            assert np.all((negs[:, 0] != pos[:, 0]).astype(int) + (negs[:, 2] != pos[:, 2]) == 1)

    def test_negative_sampling_is_seeded(self):
        g, fidx = self._toy(seed=3)
        a = sample_negatives(g.triples, fidx, np.random.default_rng(11))
        b = sample_negatives(g.triples, fidx, np.random.default_rng(11))
        c = sample_negatives(g.triples, fidx, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_sampling_fails_when_every_corruption_is_known(self):
        # every (h, r, t) over two entities and one relation is known
        full = np.array([(h, 0, t) for h in range(2) for t in range(2)], dtype=np.int64)
        fidx = build_filter_index(2, 1, full)
        with pytest.raises(RuntimeError, match=r"could not corrupt triple \(0,0,0\)"):
            sample_negatives(full, fidx, np.random.default_rng(0))


class TestInitModes:
    def _table(self):
        config = ModelConfig(
            num_layers=2, hidden_units=6, proj_dim=4, entity_dim=5, relation_dim=3,
            dropout=0.0, batch_size=4, precision="f64", seed=0,
        )
        params = init_params(config, 10, 5)
        chains = walk_corpus([([0, 1, 2], [0, 1]), ([3, 4], [2])], params.n_relations - 1)
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

    def test_projection_to_smaller_dim(self):
        config, params, chains = self._table()
        table = aggregate_static(chains, params, config)
        rng = np.random.default_rng(0)
        s = init_scorer_from_table(table.entity_vecs, table.relation_vecs, "bilinear", dim=6, rng=rng)
        assert s.ent.shape == (10, 6)



class TestScorerFile:
    def _saved(self, tmp_path, kind="translational"):
        rng = np.random.default_rng(3)
        scorer = Scorer(kind=kind, ent=rng.normal(size=(7, 4)), rel=rng.normal(size=(5, 4)))
        path = tmp_path / "scorer.ckpt"
        save_scorer(str(path), scorer, {"seed": 3, "lr": 0.01})
        return scorer, path

    @pytest.mark.parametrize("kind", SCORER_KINDS)
    def test_round_trip_is_bit_exact(self, tmp_path, kind):
        scorer, path = self._saved(tmp_path, kind)
        loaded, key = load_scorer(str(path))
        assert key == {"seed": 3, "lr": 0.01} and loaded.kind == kind
        assert loaded.ent.tobytes() == scorer.ent.tobytes() and loaded.rel.tobytes() == scorer.rel.tobytes()
        again = tmp_path / "again.ckpt"
        save_scorer(str(again), loaded, key)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda t: t.replace('"name": "rel"', '"name": "rels"'), "the arrays are", id="name"),
            pytest.param(lambda t: t.replace('"dtype": "<f8"', '"dtype": "<i8"', 1), "the arrays are", id="dtype"),
            pytest.param(lambda t: t.replace('"kind": "translational"', '"kind": "TransE"'), "kind", id="kind"),
            pytest.param(lambda t: t.replace('"key": {', '"key": [{', 1).replace("}, \"kind", "}], \"kind"), "key",
                         id="key"),
        ],
    )
    def test_malformed_header_names_the_file(self, tmp_path, edit, message):
        _, path = self._saved(tmp_path)
        magic, n, rest = path.read_bytes().split(b"\n", 2)
        text = edit(rest[: int(n)].decode("utf-8"))
        assert text != rest[: int(n)].decode("utf-8")
        blob = text.encode("utf-8")
        path.write_bytes(magic + b"\n" + str(len(blob)).encode("ascii") + b"\n" + blob + rest[int(n) :])
        with pytest.raises(ValueError, match=rf"scorer\.ckpt: .*{message}"):
            load_scorer(str(path))
