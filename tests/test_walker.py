import numpy as np
import pytest

from kglm import kernels, seeds
from kglm.cli import main as cli_main
from kglm.graph import build_graph
from kglm.walker import (
    WalkConfig,
    generate_corpus,
    next_step_distribution,
    read_corpus,
    transition_weight,
    write_corpus,
)

from conftest import random_graph, step, walk_corpus


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


def assert_same_corpus(a, b):
    for name in ("ents", "rels", "lengths"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64
        np.testing.assert_array_equal(x, y, err_msg=name)


def hub_graph(seed, add_inverses):
    """A random graph with parallel edges, self-loops, two held-out-only
    isolated entities and one hub of over 200 out-edges; without
    inverses most entities are dead ends."""
    rng = np.random.default_rng(seed)
    n = 40
    hub = rng.choice(6 * n, size=210, replace=False)
    triples = {("e0", f"r{k % 6}", f"e{k // 6}") for k in hub}
    while len(triples) < 210 + 120:
        h, r, t = rng.integers(n), rng.integers(6), rng.integers(n)
        triples.add((f"e{h}", f"r{r}", f"e{t}"))
    return build_graph(sorted(triples), add_inverses=add_inverses, extra_entities=["iso0", "iso1"])


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

    @pytest.mark.parametrize(
        "name, value",
        [("p", float("inf")), ("q", float("inf")), ("q", 1e-320), ("p", 1e-320), ("p", 1 / 32), ("q", 32.0)],
    )
    def test_non_finite_bias_rejected(self, name, value):
        # 1/1e-320 overflows to inf, so that bias gives infinite weights;
        # beyond [1/16, 16] the rejection sampler's proposals per step grow
        with pytest.raises(ValueError, match=rf"^{name} "):
            WalkConfig(**{name: value})

    def test_non_finite_bias_fails_the_walk_stage(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr\tb\n", encoding="utf-8")
        assert cli_main(["walk", "--train", str(train), "--out", str(tmp_path / "out"), "--p", "inf"]) == 1
        assert "p must be" in capsys.readouterr().err

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
        corpus = generate_corpus(g, WalkConfig(walks_per_node=1, walk_length=5))
        walk = corpus[g.entities.id_of("b")]
        assert walk.lengths.tolist() == [1]
        assert walk.ents[0, 0] == g.entities.id_of("b") and walk.rels[0, 0] == g.eos_id

    def test_full_length_gives_11_entities(self, ring_graph):
        corpus = generate_corpus(ring_graph, WalkConfig(walks_per_node=2, walk_length=21))
        assert corpus.ents.shape == corpus.rels.shape == (2 * ring_graph.n_entities, 11)
        assert np.all(corpus.lengths == 11)
        # 10 walked relations, then the end of sequence
        assert np.all(corpus.rels[:, :10] < ring_graph.eos_id) and np.all(corpus.rels[:, 10] == ring_graph.eos_id)

    def test_truncates_at_dead_end(self):
        g = build_graph([("a", "r", "b"), ("b", "r", "c")], add_inverses=False)
        walk = generate_corpus(g, WalkConfig(walks_per_node=1, walk_length=21))[0]
        a, b, c = (g.entities.id_of(s) for s in "abc")
        r = g.relations.id_of("r")
        assert walk.lengths.tolist() == [3]
        assert walk.ents.tolist() == [[a, b, c]] and walk.rels.tolist() == [[r, r, g.eos_id]]

    def test_chain_validity_on_random_graphs(self):
        for seed in range(10):
            g = build_graph(random_graph(seed))
            cfg = WalkConfig(p=1.7, q=0.6, walks_per_node=2, walk_length=11, seed=seed)
            corpus = generate_corpus(g, cfg)
            for ents, walk_rels, n in zip(corpus.ents, corpus.rels, corpus.lengths):
                assert walk_rels[n - 1] == g.eos_id
                for i in range(n - 1):
                    e, r, nxt = ents[i], walk_rels[i], ents[i + 1]
                    rels, nbrs = g.out_edges(int(e))
                    assert any(rr == r and nn == nxt for rr, nn in zip(rels, nbrs))

    @pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (0.25, 4.0), (1.7, 0.6)])
    def test_walk_steps_match_distribution(self, p, q):
        n = 40_000
        covered = set()
        for seed in range(4):
            g = hub_graph(seed, add_inverses=seed % 2 == 0)
            rng = np.random.default_rng(seed)
            starts = np.repeat(np.arange(g.n_entities), 3)
            ents, rels, steps = kernels.walk_steps(
                g.adj_off, g.adj_rel, g.adj_nbr, g.nbr_off, g.nbr_sorted, starts, 8, rng, 1.0 / p, 1.0 / q
            )
            assert ents[:, 0].tolist() == starts.tolist()
            for i, k in enumerate(steps.tolist()):
                assert (ents[i, k + 1 :] == -1).all() and (rels[i, k:] == -1).all()
                if k < 8:
                    assert g.out_degree(ents[i, k]) == 0
                for e, r, nxt in zip(ents[i, :k], rels[i, :k], ents[i, 1 : k + 1]):
                    out_rels, out_nbrs = g.out_edges(int(e))
                    assert ((out_rels == r) & (out_nbrs == nxt)).any()
            assert steps.min() == 0 and steps.max() == 8

            # n steps per (prev, cur) pair at and next to the hub: each
            # weight class within |z| < 4.5 of its probability, and the
            # edge counts within a chi-square bound
            hub = g.entities.id_of("e0")
            out = [int(x) for x in g.out_edges(hub)[1] if x != hub and g.out_degree(int(x))]
            near = max(out, key=lambda x: len(np.intersect1d(g.neighbors_sorted(x), g.neighbors_sorted(hub))))
            pairs = [(None, hub), (near, hub), (hub, hub), (hub, near)]
            prev = np.repeat([-1 if x is None else x for x, _ in pairs], n)
            cur = np.repeat([c for _, c in pairs], n)
            keys = kernels.neighbor_keys(g.nbr_off, g.nbr_sorted)
            edge = kernels.step_choice(g.adj_off, g.adj_nbr, keys, prev, cur, rng, 1.0 / p, 1.0 / q)
            for j, (x, c) in enumerate(pairs):
                deg = g.out_degree(c)
                counts = np.bincount(edge[j * n : (j + 1) * n] - g.adj_off[c], minlength=deg)
                assert len(counts) == deg
                probs = next_step_distribution(x, c, g, p, q).probs
                nbrs = g.out_edges(c)[1]
                if x is None:
                    cls = np.full(deg, "first")
                else:
                    cls = np.where(nbrs == x, "back", np.where(np.isin(nbrs, g.neighbors_sorted(x)), "near", "far"))
                for name in set(cls.tolist()):
                    pr = probs[cls == name].sum()
                    if pr < 1.0:
                        z = (counts[cls == name].sum() / n - pr) / np.sqrt(pr * (1.0 - pr) / n)
                        assert abs(z) < 4.5, (seed, x, c, name, z)
                chi2 = ((counts - n * probs) ** 2 / (n * probs)).sum()
                assert chi2 < deg - 1 + 6.0 * np.sqrt(2.0 * (deg - 1)), (seed, x, c, chi2)
                covered |= set(cls.tolist())
                covered |= {"hub"} if deg >= 210 else set()
                covered |= {"self-loop"} if (nbrs == c).any() else set()
                covered |= {"parallel"} if len(np.unique(nbrs)) < deg else set()
        assert covered == {"first", "back", "near", "far", "hub", "self-loop", "parallel"}

    def test_acceptance_is_a_strict_comparison(self, ring_graph):
        # uniforms on the grid k/16: a weight ratio that is a multiple of
        # 1/16 is accepted with exactly that probability only under `<`
        class GridUniforms:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def integers(self, high, size):
                return self.rng.integers(high, size=size)

            def random(self, size):
                return self.rng.integers(16, size=size) / 16.0

        g = ring_graph
        b, c = g.entities.id_of("b"), g.entities.id_of("c")
        n = 200_000
        _, nbrs = step(g, b, c, 2.0, 0.5, n, GridUniforms(5))
        dist = next_step_distribution(b, c, g, 2.0, 0.5)
        for nbr, pr in zip(dist.nbrs, dist.probs):
            assert np.count_nonzero(nbrs == nbr) / n == pytest.approx(pr, abs=5e-3)

    def test_corpus_is_one_stream(self, ring_graph):
        # the corpus is walk_steps over the canonical starts from the one
        # stream derived_rng(seed, WALKS)
        cfg = WalkConfig(p=0.5, q=2.0, walks_per_node=3, walk_length=9, seed=3)
        g = ring_graph
        starts = np.repeat(np.arange(g.n_entities), 3)
        rng = seeds.derived_rng(3, seeds.WALKS)
        ents, rels, steps = kernels.walk_steps(
            g.adj_off, g.adj_rel, g.adj_nbr, g.nbr_off, g.nbr_sorted, starts, 4, rng, 2.0, 0.5
        )
        corpus = generate_corpus(g, cfg)
        # the ring has no dead end: every walk takes all 4 steps
        assert steps.tolist() == [4] * len(starts) and corpus.lengths.tolist() == [5] * len(starts)
        assert corpus.ents.tolist() == ents.tolist()
        assert corpus.rels[:, :4].tolist() == rels.tolist() and np.all(corpus.rels[:, 4] == g.eos_id)


class TestCorpus:
    def test_chain_count(self, ring_graph):
        cfg = WalkConfig(walks_per_node=4, walk_length=5, seed=1)
        corpus = generate_corpus(ring_graph, cfg)
        assert len(corpus) == 4 * ring_graph.n_entities

    def test_line_format(self, tmp_path, path_graph):
        g = path_graph
        walk = walk_corpus([([g.entities.id_of("a"), g.entities.id_of("b")], [g.relations.id_of("r1")])], g.eos_id)
        path = tmp_path / "c.txt"
        write_corpus(walk, g, str(path))
        assert path.read_text(encoding="utf-8") == "a r1 b\n"

    def test_round_trip(self, tmp_path, ring_graph):
        cfg = WalkConfig(walks_per_node=2, walk_length=7, seed=9)
        corpus = generate_corpus(ring_graph, cfg, out_path=str(tmp_path / "c.txt"))
        assert_same_corpus(read_corpus(str(tmp_path / "c.txt"), ring_graph), corpus)

    def test_round_trip_ragged(self, tmp_path):
        # dead ends and isolated starts leave walks of every length
        g = hub_graph(1, add_inverses=False)
        corpus = generate_corpus(g, WalkConfig(walks_per_node=2, walk_length=9, seed=4))
        assert set(corpus.lengths.tolist()) >= {1, 2, 5}
        write_corpus(corpus, g, str(tmp_path / "c.txt"))
        assert_same_corpus(read_corpus(str(tmp_path / "c.txt"), g), corpus)

    def test_int_slice_and_id_rows_agree(self, ring_graph):
        corpus = generate_corpus(ring_graph, WalkConfig(walks_per_node=3, walk_length=7, seed=2))
        by_int, by_slice, by_ids = corpus[4], corpus[4:5], corpus[np.array([4])]
        for picked in (by_int, by_slice, by_ids):
            assert len(picked) == 1
            assert_same_corpus(picked, by_slice)
        assert_same_corpus(corpus[2:9:3], corpus[np.array([2, 5, 8])])
        assert_same_corpus(corpus[-1], corpus[np.array([len(corpus) - 1])])
        assert by_int.ents.tolist() == [corpus.ents[4].tolist()]

    def test_bit_identical_across_runs(self, tmp_path, ring_graph):
        cfg = WalkConfig(walks_per_node=6, walk_length=9, seed=11)
        p1, p2 = (tmp_path / n for n in ("a.txt", "b.txt"))
        generate_corpus(ring_graph, cfg, out_path=str(p1))
        generate_corpus(ring_graph, cfg, out_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_whitespace_token_rejected(self, tmp_path):
        # the corpus separates tokens with spaces, so no graph holds one
        for triple in (("a b", "r", "c"), ("a", "r\tx", "c"), ("a", "r", "c\n")):
            with pytest.raises(ValueError, match="whitespace"):
                build_graph([triple])
        with pytest.raises(ValueError, match="surface '' is empty"):
            build_graph([("a", "r", "c")], extra_entities=[""])

    def test_eos_inside_chain_rejected(self, tmp_path):
        # the end-of-sequence relation only ever closes a chain
        g = build_graph([("a", "r", "b"), ("b", "r", "c")])
        path = tmp_path / "c.txt"
        path.write_text("a r b\na <eos> b r c\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.txt:2: '<eos>' inside a chain"):
            read_corpus(str(path), g)

    def test_undecodable_byte_names_path_and_line(self, tmp_path):
        g = build_graph([("a", "r", "b"), ("b", "r", "c")])
        path = tmp_path / "c.txt"
        path.write_bytes(b"a r b\nb r c\nb r \xff\n")
        with pytest.raises(ValueError, match=r"c\.txt:3: not UTF-8 text \(byte 0xff\)"):
            read_corpus(str(path), g)

    def test_empirical_frequency_path_graph(self, path_graph):
        # hand-normalized {a: 0.25/4.25, c: 4/4.25}, checked empirically
        g = path_graph
        a, b = g.entities.id_of("a"), g.entities.id_of("b")
        n = 200_000
        _, nbrs = step(g, a, b, 4.0, 0.25, n, np.random.default_rng(123))
        assert np.count_nonzero(nbrs == a) / n == pytest.approx(0.25 / 4.25, abs=5e-3)
        assert np.count_nonzero(nbrs == g.entities.id_of("c")) / n == pytest.approx(4.0 / 4.25, abs=5e-3)

    def test_walk_stats_count_chain_lengths(self, tmp_path):
        # train a -> b, b -> c; c -> d is only in test, so d has no edges
        # and its chains end at once
        paths = []
        for name, text in (("train", "a\tr\tb\nb\tr\tc\n"), ("valid", "a\tr\tc\n"), ("test", "c\tr\td\n")):
            paths += [f"--{name}", str(tmp_path / f"{name}.tsv")]
            (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["walk", *paths, "--out", str(out), "--walks-per-node", "2", "--walk-length", "7"]) == 0
        lines = (out / "walk_stats.tsv").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "chains\t8",
            "walk_steps\t18",
            "dead_end_chains\t2",
            "chains_of_0_steps\t2",
            "chains_of_1_steps\t0",
            "chains_of_2_steps\t0",
            "chains_of_3_steps\t6",
        ]
        lengths = [len(line.split()) for line in (out / "corpus.txt").read_text(encoding="utf-8").splitlines()]
        assert sorted(lengths) == [1, 1] + [7] * 6
