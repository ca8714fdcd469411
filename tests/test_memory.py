"""Memory regression guards. ``tracemalloc`` sees numpy's array
allocations, so the traced peak of a call bounds what it holds at once,
apart from what existed before the call."""

import tracemalloc

import numpy as np

from kglm import bilm, extract
from kglm.bilm import pack_batch
from kglm.datasets import make_clustered_kg
from kglm.graph import build_graph
from kglm.model import ModelConfig, init_params
from kglm.train import train_bilm
from kglm.walker import WalkConfig, generate_corpus

from conftest import pair_corpus, walk_corpus


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_pooling_holds_no_backward_arrays():
    # a wide cell under narrow outputs: one layer's (T, B, 4H) gate
    # activations outweigh everything the pooling itself needs
    config = ModelConfig(num_layers=2, hidden_units=512, proj_dim=8, entity_dim=8, relation_dim=8,
                         dropout=0.0, batch_size=64, precision="f32", seed=0)
    n_ent, n_rel = 40, 6
    params = init_params(config, n_ent, n_rel)
    rng = np.random.default_rng(0)
    T, B = 11, 64
    chains = walk_corpus([(rng.integers(n_ent, size=T), rng.integers(n_rel - 1, size=T - 1)) for _ in range(B)],
                         n_rel - 1)
    assert B <= extract.CHUNK_SIZE  # one chunk
    activation_bytes = T * B * 4 * config.hidden_units * np.dtype(config.dtype).itemsize
    assert traced_peak(extract.aggregate_layered, chains, params, config) < activation_bytes


def test_softmax_heads_hold_one_block(monkeypatch):
    # 2000 rows x 2000 entities: 63 blocks of 32 rows
    monkeypatch.setattr(bilm, "HEAD_BLOCK_CELLS", 2**16)
    config = ModelConfig(num_layers=1, hidden_units=8, proj_dim=4, entity_dim=4, relation_dim=4,
                         dropout=0.0, batch_size=250, precision="f32", seed=0)
    n_ent, n_rel = 2000, 6
    params = init_params(config, n_ent, n_rel)
    rng = np.random.default_rng(1)
    T, B = 9, 250
    batch = pack_batch(pair_corpus([(rng.integers(n_ent, size=T), rng.integers(n_rel, size=T)) for _ in range(B)]),
                       dtype=np.float32)
    top = rng.standard_normal((T, B, config.proj_dim)).astype(np.float32)
    head_grads = {name: np.zeros_like(a) for name, a in params.flat().items() if name.startswith("sm_")}
    n_events = int(2 * batch.mask[1:].sum())
    block_bytes = bilm.HEAD_BLOCK_CELLS * np.dtype(np.float32).itemsize
    peak = traced_peak(bilm._direction_heads, top, batch, params, False, n_events, head_grads)
    assert peak < 4 * block_bytes


def test_training_holds_one_batch_of_caches():
    # a wide cell, so a batch's BPTT caches outweigh the parameters and
    # the optimizer state: four batches must peak like one, not like the
    # two a batch's forward pass would hold beside the last one's caches
    graph = build_graph(make_clustered_kg(n_entities=40, n_relations=4, n_triples=200, n_clusters=4, seed=0))
    chains = generate_corpus(graph, WalkConfig(walks_per_node=4, walk_length=9, seed=0))
    config = ModelConfig(num_layers=2, hidden_units=256, proj_dim=8, entity_dim=8, relation_dim=8,
                         batch_size=32, epochs=1, precision="f32", seed=0)
    one = traced_peak(train_bilm, chains[:32], graph, config)
    four = traced_peak(train_bilm, chains[:128], graph, config)
    assert four < 1.25 * one


def test_export_converts_one_row_at_a_time(tmp_path):
    # Python floats take about 4x the bytes of the float64 values they
    # hold, so converting the whole table at once peaks above its size
    rng = np.random.default_rng(2)
    table = extract.StaticEmbeddingTable(
        entity_vecs=rng.standard_normal((3000, 64)),
        relation_vecs=rng.standard_normal((20, 64)),
        entity_counts=np.ones(3000, dtype=np.int64),
        relation_counts=np.ones(20, dtype=np.int64),
    )
    names = [f"e{i}" for i in range(3000)], [f"r{i}" for i in range(20)]
    peak = traced_peak(extract.export_embeddings, table, *names, str(tmp_path / "emb"))
    assert peak < table.entity_vecs.nbytes
