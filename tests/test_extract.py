from types import SimpleNamespace

import numpy as np
import pytest

from kglm.bilm import LayerStates, bilm_states, pack_batch, tokenize_chain
from kglm.extract import (
    aggregate_layered,
    aggregate_static,
    combine,
    contextual_reps,
    export_embeddings,
    import_embeddings,
    load_embeddings,
)
from kglm.model import ModelConfig, init_params
from kglm.walker import Chain


def make_model(n_ent=8, n_rel=5, layers=2, precision="f64", seed=3):
    config = ModelConfig(
        num_layers=layers,
        hidden_units=6,
        proj_dim=4,
        entity_dim=5,
        relation_dim=3,
        dropout=0.0,
        batch_size=4,
        precision=precision,
        seed=seed,
    )
    return config, init_params(config, n_ent, n_rel)


def chain(ents, rels):
    return Chain(entities=np.array(ents, dtype=np.int64), relations=np.array(rels, dtype=np.int64))


class TestContextualReps:
    def test_2l_plus_1_representations(self):
        config, params = make_model(layers=4)
        states = contextual_reps(chain([0, 1, 2], [0, 1]), params, config)
        # per position: x, then 4 forward and 4 backward layer states
        assert states.x.shape == (3, 5 + 3)
        assert states.fwd.shape == states.bwd.shape == (4, 3, 4)

    def test_deterministic(self):
        config, params = make_model()
        c = chain([0, 1, 2], [0, 1])
        s1 = contextual_reps(c, params, config)
        s2 = contextual_reps(c, params, config)
        assert np.array_equal(s1.fwd, s2.fwd)
        assert np.array_equal(s1.bwd, s2.bwd)

    def test_context_dependence(self):
        config, params = make_model()
        # entity 1 at the same position in two different contexts
        s1 = contextual_reps(chain([0, 1, 2], [0, 1]), params, config)
        s2 = contextual_reps(chain([3, 1, 4], [2, 3]), params, config)
        d = np.linalg.norm(s1.layer_concat()[:, 1] - s2.layer_concat()[:, 1])
        assert d > 0.0

    def test_unknown_token_rejected(self):
        config, params = make_model(n_ent=4, n_rel=3)
        with pytest.raises(ValueError, match="entity"):
            contextual_reps(chain([0, 99], [0]), params, config)
        with pytest.raises(ValueError, match="relation"):
            contextual_reps(chain([0, 1], [42]), params, config)


class TestCombine:
    def test_selector_lambda(self):
        config, params = make_model()
        states = contextual_reps(chain([0, 1, 2], [0, 1]), params, config)
        out = combine(states, [1.0, 0.0])
        expected = np.concatenate([states.x, states.layer_concat()[0]], axis=1)
        np.testing.assert_array_equal(out, expected)

    def test_zero_lambda(self):
        config, params = make_model()
        states = contextual_reps(chain([0, 1], [0]), params, config)
        out = combine(states, [0.0, 0.0])
        np.testing.assert_array_equal(out[:, : states.x.shape[1]], states.x)
        assert np.all(out[:, states.x.shape[1] :] == 0.0)

    def test_uniform_lambda_equals_mean(self):
        config, params = make_model(layers=3)
        states = contextual_reps(chain([0, 1, 2, 3], [0, 1, 2]), params, config)
        out = combine(states, np.full(3, 1.0 / 3.0))
        mean = states.layer_concat().mean(axis=0)  # independent mean
        np.testing.assert_allclose(out[:, states.x.shape[1] :], mean, atol=1e-12)

    def test_dimension_law(self):
        config, params = make_model()
        states = contextual_reps(chain([0, 1], [0]), params, config)
        out = combine(states, [0.3, 0.7])
        assert out.shape[1] == (config.entity_dim + config.relation_dim) + 2 * config.proj_dim

    def test_linearity_in_lambda(self):
        config, params = make_model()
        states = contextual_reps(chain([0, 1, 2], [0, 1]), params, config)
        rng = np.random.default_rng(0)
        for _ in range(5):
            l1, l2 = rng.normal(size=2 * 2).reshape(2, 2)
            a, b = rng.normal(size=2)
            lhs = combine(states, a * l1 + b * l2)
            rhs = a * combine(states, l1) + b * combine(states, l2)
            D = states.x.shape[1]
            np.testing.assert_allclose(lhs[:, D:], rhs[:, D:], atol=1e-9)
            np.testing.assert_array_equal(lhs[:, :D], combine(states, l1)[:, :D])

    def test_length_mismatch(self):
        config, params = make_model()
        states = contextual_reps(chain([0, 1], [0]), params, config)
        with pytest.raises(ValueError, match="per layer"):
            combine(states, [1.0, 2.0, 3.0])


class TestAggregate:
    def test_single_occurrence_equals_contextual_vector(self):
        config, params = make_model()
        chains = [chain([0, 1, 2], [0, 1])]
        table = aggregate_static(chains, params, config)
        states = contextual_reps(chains[0], params, config)
        vecs = combine(states, np.full(2, 0.5))
        np.testing.assert_allclose(table.entity_vecs[1], vecs[1], atol=1e-12)
        assert table.entity_counts[1] == 1

    def test_absent_entity_fallback(self):
        config, params = make_model(n_ent=8)
        table = aggregate_static([chain([0, 1], [0])], params, config)
        d_e = config.entity_dim
        v = table.entity_vecs[7]
        np.testing.assert_allclose(v[:d_e], params.ent_emb[7], atol=1e-12)
        assert np.all(v[d_e:] == 0.0)
        assert table.entity_counts[7] == 0

    def test_matches_hand_rolled_accumulation(self):
        config, params = make_model(n_ent=6, n_rel=4)
        # the 1-token chain has no prediction event but is still pooled
        chains = [chain([0, 1, 2], [0, 1]), chain([2, 3], [2]), chain([5], []), chain([1, 4, 0], [1, 0])]
        table = aggregate_static(chains, params, config)

        # oracle: accumulate combined vectors per item one position at a time
        dim = table.dim
        sums_e = np.zeros((6, dim))
        counts_e = np.zeros(6)
        sums_r = np.zeros((4, dim))
        counts_r = np.zeros(4)
        eos = 3
        for c in chains:
            states = contextual_reps(c, params, config)
            vecs = combine(states, np.full(2, 0.5))
            rels = list(c.relations) + [eos]
            for t, (e, r) in enumerate(zip(c.entities, rels)):
                sums_e[e] += vecs[t]
                counts_e[e] += 1
                sums_r[r] += vecs[t]
                counts_r[r] += 1
        assert counts_e[5] == 1 and table.entity_counts[5] == 1
        for e in range(6):
            if counts_e[e]:
                np.testing.assert_allclose(table.entity_vecs[e], sums_e[e] / counts_e[e], atol=1e-10)
        for r in range(4):
            if counts_r[r]:
                np.testing.assert_allclose(table.relation_vecs[r], sums_r[r] / counts_r[r], atol=1e-10)

    def test_chunk_scatter_equals_per_sequence_loop(self, monkeypatch):
        # reference: one np.add.at per sequence of that sequence's
        # combined vectors over the same batched states; the chunk
        # scatter visits positions sequence-major, so every float sum must
        # come out identical (f64 states, so the order of the additions
        # shows in the last bits)
        config, params = make_model(n_ent=6, n_rel=4)
        rng = np.random.default_rng(0)
        chains = [chain(rng.integers(6, size=n), rng.integers(3, size=n - 1)) for n in (3, 1, 5, 2, 4, 3, 5)]
        monkeypatch.setattr("kglm.extract.CHUNK_SIZE", 3)
        ent_sums, ent_counts, rel_sums, rel_counts = aggregate_layered(chains, params, config)
        sums = {"ent": [np.zeros_like(ent_sums), np.zeros(6, np.int64)],
                "rel": [np.zeros_like(rel_sums), np.zeros(4, np.int64)]}
        for start in range(0, len(chains), 3):
            batch = pack_batch([tokenize_chain(c, 3) for c in chains[start : start + 3]], dtype=config.dtype)
            states, _ = bilm_states(batch, params, config)
            for b, n in enumerate(batch.lengths):
                seq = states.per_sequence(b)
                seq = LayerStates(*(a.astype(np.float64) for a in (seq.x, seq.fwd, seq.bwd)))
                vecs = combine(seq, np.full(2, 0.5))
                for key, ids in (("ent", batch.ents[:n, b]), ("rel", batch.rels[:n, b])):
                    np.add.at(sums[key][0], ids, vecs)
                    np.add.at(sums[key][1], ids, 1)
        np.testing.assert_array_equal(ent_sums, sums["ent"][0])
        np.testing.assert_array_equal(ent_counts, sums["ent"][1])
        np.testing.assert_array_equal(rel_sums, sums["rel"][0])
        np.testing.assert_array_equal(rel_counts, sums["rel"][1])


class TestExport:
    def test_header_and_counts(self, tmp_path):
        config, params = make_model(n_ent=2, n_rel=3)
        table = aggregate_static([chain([0, 1], [0])], params, config)
        ents = ["alpha", "beta"]
        rels = ["r0", "r1", "<eos>"]
        ent_path, rel_path = export_embeddings(table, ents, rels, str(tmp_path / "emb"))
        lines = open(ent_path, encoding="utf-8").read().splitlines()
        assert lines[0] == f"2 {table.dim}"
        assert len(lines) == 3
        assert lines[1].split(" ")[0] == "alpha"

    def test_round_trip_within_1e6(self, tmp_path):
        config, params = make_model(n_ent=5, n_rel=4)
        table = aggregate_static([chain([0, 1, 2], [0, 1])], params, config)
        ents = [f"e{i}" for i in range(5)]
        rels = [f"r{i}" for i in range(4)]
        ent_path, rel_path = export_embeddings(table, ents, rels, str(tmp_path / "emb"))
        names, vecs = load_embeddings(ent_path)
        assert names == ents
        assert vecs.shape[0] == 5  # exported entity count equals |E|
        np.testing.assert_allclose(vecs, table.entity_vecs, atol=1e-6)
        names_r, vecs_r = load_embeddings(rel_path)
        np.testing.assert_allclose(vecs_r, table.relation_vecs, atol=1e-6)
        ent, rel = import_embeddings(str(tmp_path / "emb"), ents, rels)
        np.testing.assert_array_equal(ent, vecs)
        np.testing.assert_array_equal(rel, vecs_r)
        with pytest.raises(ValueError, match=r"emb\.relations\.vec:5: the surfaces are not the dataset vocabulary"):
            import_embeddings(str(tmp_path / "emb"), ents, rels[:3])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vec_text_is_each_value_formatted_9g(self, tmp_path, dtype):
        # one format string per row writes what per-value ".9g" would
        special = [0.0, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 1.0]
        wide = 10.0 ** np.random.default_rng(17).uniform(-8, 8, size=(6, 8))
        wide[::2] *= -1
        with np.errstate(over="ignore"):  # 1e300 is inf in float32
            ent = np.vstack([special, wide]).astype(dtype)
        rel = ent[::-1].copy()
        table = SimpleNamespace(entity_vecs=ent, relation_vecs=rel)
        ents, rels = [f"e{i}" for i in range(len(ent))], [f"r{i}" for i in range(len(rel))]
        paths = export_embeddings(table, ents, rels, str(tmp_path / "emb"))
        for path, names, vecs in zip(paths, (ents, rels), (ent, rel)):
            expected = f"{len(names)} {vecs.shape[1]}\n" + "".join(
                name + " " + " ".join(format(v, ".9g") for v in row) + "\n" for name, row in zip(names, vecs)
            )
            with open(path, "rb") as fh:
                assert fh.read() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("3 2\na 1 2\nb 3 4\n", 4, "file ends after 2 of 3 rows"),
            ("2 2\na 1 2\nb 3\n", 3, "expected a surface and 2 numbers"),
            ("2 2\na 1 2\nb 3 x\n", 3, "expected a surface and 2 numbers"),
            ("1 2\na 1 2\nb 3 4\n", 3, "a line after the 1 rows"),
            ("2 x\na 1 2\nb 3 4\n", 1, "header is not"),
            ("-1 2\n", 1, "header is not"),
            ("2 2 2\na 1 2\nb 3 4\n", 1, "header is not"),
            ("", 1, "header is not"),
        ],
        ids=["truncated", "short-row", "bad-number", "trailing-row", "header-word", "header-negative",
             "header-three-ints", "empty"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, line, message):
        path = tmp_path / "emb.entities.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"emb\.entities\.vec:{line}: {message}"):
            load_embeddings(str(path))
