import numpy as np
import pytest

from kglm import seeds
from kglm.graph import build_graph
from kglm.walker import (
    Chain,
    WalkConfig,
    generate_corpus,
    next_step_distribution,
    read_corpus,
    sample_walk,
    transition_weight,
    write_corpus,
)

from conftest import random_graph, step


def analytic_oracle(graph, prev, cur, p, q):
    """Test-local enumeration of the second-order rule: weight each edge
    by the graph distance of its endpoint from prev, then normalize."""
    rels, nbrs = graph.out_edges(cur)
    prev_nbrs = set(int(x) for x in graph.neighbors_sorted(prev)) if prev is not None else set()
    w = []
    for x in nbrs:
        x = int(x)
        if prev is None:
            w.append(1.0)
        elif x == prev:
            w.append(1.0 / p)
        elif x in prev_nbrs:
            w.append(1.0)
        else:
            w.append(1.0 / q)
    w = np.array(w)
    return rels, nbrs, w / w.sum()


class TestWalkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"q": -1.0},
            {"walk_length": 4},
            {"walk_length": 1},
            {"walks_per_node": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WalkConfig(**kwargs)

    def test_steps(self):
        assert WalkConfig(walk_length=21).n_steps == 10


class TestTransitionWeight:
    def test_p_q_one_is_uniform(self, ring_graph):
        g = ring_graph
        b, c = g.entities.id_of("b"), g.entities.id_of("c")
        for x in g.out_edges(c)[1]:
            assert transition_weight(b, c, int(x), g, 1.0, 1.0) == 1.0

    def test_return_and_distance_two(self, ring_graph):
        g = ring_graph
        a, b, c, d = (g.entities.id_of(x) for x in "abcd")
        assert transition_weight(b, c, b, g, 2.0, 1.0) == 0.5
        assert transition_weight(b, c, d, g, 1.0, 0.5) == 2.0
        assert transition_weight(b, c, a, g, 2.0, 0.5) == 1.0  # a adjacent to b

    def test_non_neighbor_rejected(self, ring_graph):
        g = ring_graph
        b, e = g.entities.id_of("b"), g.entities.id_of("e")
        with pytest.raises(ValueError, match="not a neighbor"):
            transition_weight(0, b, e, g, 1.0, 1.0)


class TestNextStepDistribution:
    def test_path_graph_hand_normalized(self, path_graph):
        # neighbors of b: a (return, 1/p = 0.25) and c (distance 2, 1/q = 4)
        g = path_graph
        a, b, c = (g.entities.id_of(x) for x in "abc")
        dist = next_step_distribution(a, b, g, 4.0, 0.25)
        probs = {int(n): float(pr) for n, pr in zip(dist.nbrs, dist.probs)}
        assert probs[a] == pytest.approx(0.25 / 4.25, abs=1e-12)
        assert probs[c] == pytest.approx(4.0 / 4.25, abs=1e-12)

    def test_single_edge(self):
        g = build_graph([("a", "r", "b")], add_inverses=False)
        dist = next_step_distribution(None, 0, g, 1.0, 1.0)
        assert len(dist.probs) == 1 and dist.probs[0] == 1.0

    def test_parallel_edges_uniform(self):
        g = build_graph([("a", "r1", "b"), ("b", "r2", "c"), ("b", "r3", "c")])
        a, b = g.entities.id_of("a"), g.entities.id_of("b")
        dist = next_step_distribution(a, b, g, 1.0, 1.0)
        assert len(dist.probs) == 3
        np.testing.assert_allclose(dist.probs, 1.0 / 3.0)

    def test_matches_enumeration_oracle(self, ring_graph):
        g = ring_graph
        for prev_s, cur_s in [("b", "c"), ("a", "b"), ("c", "d")]:
            prev, cur = g.entities.id_of(prev_s), g.entities.id_of(cur_s)
            dist = next_step_distribution(prev, cur, g, 2.0, 0.5)
            _, _, expected = analytic_oracle(g, prev, cur, 2.0, 0.5)
            np.testing.assert_allclose(dist.probs, expected, atol=1e-12)
            assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_degenerates_to_first_order_exactly(self, ring_graph):
        g = ring_graph
        b, c = g.entities.id_of("b"), g.entities.id_of("c")
        second = next_step_distribution(b, c, g, 1.0, 1.0).probs
        first = np.full(g.out_degree(c), 1.0) / g.out_degree(c)
        assert np.array_equal(second, first)

    def test_dead_end_empty(self):
        g = build_graph([("a", "r", "b")], add_inverses=False)
        dist = next_step_distribution(None, g.entities.id_of("b"), g, 1.0, 1.0)
        assert len(dist.probs) == 0

    def test_normalization_on_random_graphs(self):
        for seed in range(6):
            g = build_graph(random_graph(seed))
            rng = np.random.default_rng(seed)
            for _ in range(20):
                cur = int(rng.integers(g.n_entities))
                if g.out_degree(cur) == 0:
                    continue
                prev = int(g.out_edges(cur)[1][0])
                dist = next_step_distribution(prev, cur, g, 1.3, 0.8)
                assert abs(dist.probs.sum() - 1.0) < 1e-9


class TestSampleWalk:
    def test_isolated_start(self):
        g = build_graph([("a", "r", "b")], add_inverses=False)
        rng = np.random.default_rng(0)
        chain = sample_walk(g.entities.id_of("b"), g, WalkConfig(walk_length=5), rng)
        assert chain.n_tokens == 1 and chain.dead_end

    def test_full_length_gives_11_entities(self, ring_graph):
        rng = np.random.default_rng(0)
        chain = sample_walk(0, ring_graph, WalkConfig(walk_length=21), rng)
        assert len(chain.entities) == 11
        assert len(chain.relations) == 10
        assert not chain.dead_end

    def test_same_seed_same_chain(self, ring_graph):
        cfg = WalkConfig(walk_length=9, seed=3)
        c1 = sample_walk(0, ring_graph, cfg, seeds.derived_rng(3, seeds.WALKS, 0, 0))
        c2 = sample_walk(0, ring_graph, cfg, seeds.derived_rng(3, seeds.WALKS, 0, 0))
        assert np.array_equal(c1.entities, c2.entities)
        assert np.array_equal(c1.relations, c2.relations)

    def test_truncates_at_dead_end(self):
        g = build_graph([("a", "r", "b"), ("b", "r", "c")], add_inverses=False)
        rng = np.random.default_rng(0)
        chain = sample_walk(0, g, WalkConfig(walk_length=21), rng)
        assert chain.dead_end and chain.n_tokens == 5  # a r b r c

    def test_chain_validity_on_random_graphs(self):
        for seed in range(10):
            g = build_graph(random_graph(seed))
            cfg = WalkConfig(p=1.7, q=0.6, walks_per_node=2, walk_length=11, seed=seed)
            for chain in generate_corpus(g, cfg):
                for i in range(len(chain.relations)):
                    e, r, nxt = chain.entities[i], chain.relations[i], chain.entities[i + 1]
                    rels, nbrs = g.out_edges(int(e))
                    assert any(rr == r and nn == nxt for rr, nn in zip(rels, nbrs))


class TestCorpus:
    def test_chain_count(self, ring_graph):
        cfg = WalkConfig(walks_per_node=4, walk_length=5, seed=1)
        chains = generate_corpus(ring_graph, cfg)
        assert len(chains) == 4 * ring_graph.n_entities

    def test_line_format(self, tmp_path, path_graph):
        g = path_graph
        chain = Chain(
            entities=np.array([g.entities.id_of("a"), g.entities.id_of("b")]),
            relations=np.array([g.relations.id_of("r1")]),
        )
        path = tmp_path / "c.txt"
        write_corpus([chain], g, str(path))
        assert path.read_text(encoding="utf-8") == "a r1 b\n"

    def test_round_trip(self, tmp_path, ring_graph):
        cfg = WalkConfig(walks_per_node=2, walk_length=7, seed=9)
        chains = generate_corpus(ring_graph, cfg, out_path=str(tmp_path / "c.txt"))
        loaded = read_corpus(str(tmp_path / "c.txt"), ring_graph)
        assert len(loaded) == len(chains)
        for a, b in zip(chains, loaded):
            assert np.array_equal(a.entities, b.entities)
            assert np.array_equal(a.relations, b.relations)

    def test_bit_identical_across_runs_and_threads(self, tmp_path, ring_graph):
        cfg = WalkConfig(walks_per_node=6, walk_length=9, seed=11)
        p1, p2, p3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        generate_corpus(ring_graph, cfg, out_path=str(p1), threads=1)
        generate_corpus(ring_graph, cfg, out_path=str(p2), threads=1)
        generate_corpus(ring_graph, cfg, out_path=str(p3), threads=4)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_whitespace_token_rejected(self, tmp_path):
        g = build_graph([("a b", "r", "c")])
        chain = Chain(entities=np.array([0]), relations=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="whitespace"):
            write_corpus([chain], g, str(tmp_path / "c.txt"))

    def test_empirical_frequency_path_graph(self, path_graph):
        # hand-normalized {a: 0.25/4.25, c: 4/4.25}, checked empirically
        g = path_graph
        a, b = g.entities.id_of("a"), g.entities.id_of("b")
        rng = np.random.default_rng(123)
        n = 200_000
        hits = {}
        for _ in range(n):
            _, nbr = step(g, a, b, 4.0, 0.25, rng.random())
            hits[nbr] = hits.get(nbr, 0) + 1
        assert hits[a] / n == pytest.approx(0.25 / 4.25, abs=5e-3)
        assert hits[g.entities.id_of("c")] / n == pytest.approx(4.0 / 4.25, abs=5e-3)
