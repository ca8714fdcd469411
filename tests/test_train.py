from dataclasses import replace

import numpy as np
import pytest

from kglm.bilm import pack_batch
from kglm.datasets import make_clustered_kg
from kglm.graph import build_graph
from kglm.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from kglm.train import train_bilm
from kglm.walker import WalkConfig, generate_corpus

from conftest import walk_corpus


def small_corpus(seed=0, n_entities=50, n_relations=5, n_triples=260, walks=10, length=9):
    triples = make_clustered_kg(
        n_entities=n_entities, n_relations=n_relations, n_triples=n_triples, n_clusters=5, seed=seed
    )
    graph = build_graph(triples)
    chains = generate_corpus(graph, WalkConfig(walks_per_node=walks, walk_length=length, seed=seed))
    return graph, chains


def small_config(epochs, seed=1):
    return ModelConfig(
        num_layers=2,
        hidden_units=32,
        proj_dim=16,
        entity_dim=16,
        relation_dim=16,
        batch_size=128,
        learning_rate=2e-2,
        epochs=epochs,
        seed=seed,
        precision="f32",
    )


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        graph, chains = small_corpus()
        config = small_config(epochs=0)
        params, trace = train_bilm(chains, graph, config)
        assert trace == []
        fresh = init_params(config, graph.n_entities, graph.n_relations)
        for name, arr in params.flat().items():
            np.testing.assert_array_equal(arr, fresh.flat()[name])

    def test_same_seed_bit_identical_traces(self):
        graph, chains = small_corpus()
        config = small_config(epochs=2)
        _, t1 = train_bilm(chains, graph, config)
        _, t2 = train_bilm(chains, graph, config)
        assert t1 == t2

    def test_loss_decreases_on_toy_corpus(self):
        # 50 entities / 5 relations / 500 chains; regression values from
        # this exact seeded run
        graph, chains = small_corpus(n_entities=50, n_relations=5, walks=10, length=9)
        assert len(chains) == 500
        config = small_config(epochs=20)
        _, epochs = train_bilm(chains, graph, config)
        trace = [epoch.loss for epoch in epochs]
        assert trace[-1] < 0.6 * trace[0]
        ma = np.convolve(trace, np.ones(5) / 5.0, mode="valid")
        assert np.all(np.diff(ma) <= 0)

    def test_untrainable_corpus_rejected(self):
        graph, _ = small_corpus()
        lonely = walk_corpus([([0], [])], graph.eos_id)
        with pytest.raises(ValueError, match="no trainable chains"):
            train_bilm(lonely, graph, small_config(epochs=1))

    def test_single_entity_chain_untrainable(self):
        # one token has no prediction target; pack_batch still pads it,
        # because export pools such chains, so train_bilm must skip it
        walk = walk_corpus([([4], [])], eos=2)
        assert walk.lengths.tolist() == [1] and walk.rels[0, 0] == 2
        batch = pack_batch(walk)
        assert batch.mask.sum(axis=0).tolist() == [1] and batch.mask[1:].sum() == 0

    def test_short_chains_skipped_with_count(self, caplog):
        graph, chains = small_corpus()
        # 40 walks, then one of a single token
        mixed = chains[:41]
        mixed.ents[40], mixed.rels[40], mixed.lengths[40] = 0, 0, 1
        mixed.rels[40, 0] = graph.eos_id
        with caplog.at_level("WARNING"):
            train_bilm(mixed, graph, small_config(epochs=1))
        assert any("skipped 1" in rec.message for rec in caplog.records)

    def test_non_finite_loss_fails_naming_epoch_and_batch(self):
        # the first step of a huge learning rate overflows the second
        # batch's logits; the loss check must fire before backward runs
        graph, chains = small_corpus()
        config = replace(small_config(epochs=1), batch_size=64, learning_rate=1e38)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite training loss .* epoch 1, batch 2 of 4"):
            train_bilm(chains[:200], graph, config)

    def test_checkpoint_written(self, tmp_path):
        graph, chains = small_corpus()
        path = tmp_path / "model.ckpt"
        train_bilm(chains[:60], graph, small_config(epochs=1), checkpoint_path=str(path))
        assert path.exists() and path.stat().st_size > 0

    def test_mid_training_checkpoint_holds_that_epochs_params(self, tmp_path, monkeypatch):
        graph, chains = small_corpus()
        saved = []

        def save_and_read_back(path, *args):
            save_checkpoint(path, *args)
            saved.append(load_checkpoint(path)[0].flat())

        monkeypatch.setattr("kglm.train.save_checkpoint", save_and_read_back)
        path = str(tmp_path / "model.ckpt")
        train_bilm(chains[:60], graph, small_config(epochs=2), checkpoint_path=path, checkpoint_interval=1)
        assert len(saved) == 3  # after epochs 1 and 2, then the final save
        # the header records the configured epochs, so compare the arrays
        one_epoch, _ = train_bilm(chains[:60], graph, small_config(epochs=1))
        for name, arr in one_epoch.flat().items():
            np.testing.assert_array_equal(saved[0][name], arr)
        assert not np.array_equal(saved[0]["ent_emb"], saved[2]["ent_emb"])
