"""Shared fixtures: small handcrafted graphs and the desk-scale toy
pipeline (clustered KG -> walks -> trained model) reused by the
training-dependent tests and the acceptance suite."""

import argparse
import time

import numpy as np
import pytest

from kglm import kernels
from kglm.config import ConfigError, add_flags, merge
from kglm.datasets import make_clustered_kg, split_triples
from kglm.extract import aggregate_static
from kglm.graph import build_filter_index, build_graph
from kglm.model import ModelConfig
from kglm.train import train_bilm
from kglm.walker import Corpus, WalkConfig, generate_corpus


@pytest.fixture
def path_graph():
    """a - b - c (as directed edges plus synthesized inverses)."""
    return build_graph([("a", "r1", "b"), ("b", "r2", "c")])


@pytest.fixture
def ring_graph():
    """Five-node cycle with a chord; from (prev=b, cur=c) the neighbors
    b, a, d sit at distances 0, 1, 2 from b, covering all three weight
    branches."""
    triples = [
        ("a", "r1", "b"),
        ("b", "r2", "c"),
        ("c", "r3", "d"),
        ("d", "r4", "e"),
        ("e", "r5", "a"),
        ("a", "r6", "c"),
    ]
    return build_graph(triples)


def random_graph(seed, n_entities=30, n_relations=5, n_triples=90):
    """Arbitrary random KG (no planted structure) as surface triples."""
    rng = np.random.default_rng(seed)
    seen = set()
    triples = []
    while len(triples) < n_triples:
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        if h == t or (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((f"e{h}", f"r{r}", f"e{t}"))
    return triples


def parse_config(config_path, flag_list):
    """Build a RunConfig from an optional config file plus a flag list
    (flags win), as ``kglm.cli.main`` does."""
    parser = argparse.ArgumentParser(prog="kglm", add_help=False)
    add_flags(parser)
    ns, extra = parser.parse_known_args(flag_list)
    if extra:
        raise ConfigError(f"unknown flags: {' '.join(extra)}")
    if config_path is not None:
        ns.config = config_path
    return merge(ns)


def step(graph, prev, cur, p, q, n, rng):
    """``n`` second-order steps from ``cur`` (``prev=None``: no history),
    all through one call of ``kernels.step_choice``, the kernel
    ``walk_steps`` runs, drawing from ``rng``. Returns the (relation ids,
    neighbor ids) arrays of the chosen edges."""
    keys = kernels.neighbor_keys(graph.nbr_off, graph.nbr_sorted)
    prev = np.full(n, -1 if prev is None else prev, dtype=np.int64)
    cur = np.full(n, cur, dtype=np.int64)
    edge = kernels.step_choice(graph.adj_off, graph.adj_nbr, keys, prev, cur, rng, 1.0 / p, 1.0 / q)
    return graph.adj_rel[edge], graph.adj_nbr[edge]


def pair_corpus(pairs):
    """The :class:`Corpus` of token rows given as (entity ids, relation
    ids) pairs of equal length, padded by hand."""
    lengths = np.array([len(e) for e, _ in pairs], dtype=np.int64)
    ents = np.zeros((len(pairs), lengths.max(initial=0)), dtype=np.int64)
    rels = np.zeros_like(ents)
    for i, (e, r) in enumerate(pairs):
        assert len(e) == len(r)
        ents[i, : len(e)] = e
        rels[i, : len(r)] = r
    return Corpus(ents, rels, lengths)


def walk_corpus(walks, eos):
    """The :class:`Corpus` of walks given as (k entity ids, k - 1 relation
    ids) pairs: the last entity of each pairs with ``eos``."""
    return pair_corpus([(e, [*r, eos]) for e, r in walks])


def to_ids(graph, surface_triples):
    return np.array(
        [
            (graph.entities.id_of(h), graph.relations.id_of(r), graph.entities.id_of(t))
            for h, r, t in surface_triples
        ],
        dtype=np.int64,
    ).reshape(-1, 3)


@pytest.fixture(scope="session")
def toy():
    """Toy KG (~100 entities, 20 relations, ~1000 triples), its walk
    corpus (20 chains per node, length 21), and a model trained for 20
    epochs. Built once per session; timings kept for the acceptance
    budget checks."""
    t0 = time.monotonic()
    triples = make_clustered_kg(n_entities=100, n_relations=20, n_triples=1000, seed=3)
    train, valid, test = split_triples(triples, seed=3)
    graph = build_graph(train)
    train_ids = graph.triples
    valid_ids = to_ids(graph, valid)
    test_ids = to_ids(graph, test)
    fidx = build_filter_index(graph.n_entities, graph.n_relations, train_ids, valid_ids, test_ids)

    corpus = generate_corpus(graph, WalkConfig(walks_per_node=20, walk_length=21, seed=5))
    corpus_elapsed = time.monotonic() - t0

    config = ModelConfig(
        num_layers=2,
        hidden_units=64,
        proj_dim=32,
        entity_dim=32,
        relation_dim=32,
        batch_size=256,
        epochs=20,
        learning_rate=2e-2,
        seed=5,
        precision="f32",
    )
    t1 = time.monotonic()
    params, trace = train_bilm(corpus, graph, config)
    train_elapsed = time.monotonic() - t1
    table = aggregate_static(corpus, params, config)
    return {
        "graph": graph,
        "train": train_ids,
        "valid": valid_ids,
        "test": test_ids,
        "filter_index": fidx,
        "corpus": corpus,
        "config": config,
        "params": params,
        "trace": [epoch.loss for epoch in trace],
        "table": table,
        "corpus_elapsed": corpus_elapsed,
        "train_elapsed": train_elapsed,
    }
