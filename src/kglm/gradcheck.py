"""Finite-difference verification of the analytic gradients.

Runs a small f64 model on random sequences and compares the analytic
gradient of the mean loss against central differences for sampled
coordinates of every parameter block. The forward pass is re-seeded
identically on every evaluation so dropout masks are fixed and the loss
is a deterministic function of the parameters.
"""

import numpy as np

from .bilm import bilm_backward, bilm_forward, pack_batch
from .model import ModelConfig, init_params
from .walker import Corpus

# central-difference step
STEP = 1e-5
N_ENTITIES = 20
N_RELATIONS = 6


def _random_batch(rng, n_entities, n_relations, n_seqs=6, max_len=7):
    corpus = Corpus(*np.zeros((2, n_seqs, max_len), dtype=np.int64), lengths=np.zeros(n_seqs, dtype=np.int64))
    for i in range(n_seqs):
        n = corpus.lengths[i] = rng.integers(2, max_len + 1)
        corpus.ents[i, :n] = rng.integers(n_entities, size=n)
        corpus.rels[i, :n] = rng.integers(n_relations, size=n)
    return pack_batch(corpus, dtype=np.float64)


def run_gradcheck(seed=7, n_coords=120):
    """Returns (max relative error, per-block max dict)."""
    config = ModelConfig(
        num_layers=2,
        hidden_units=8,
        proj_dim=4,
        entity_dim=5,
        relation_dim=3,
        dropout=0.1,
        batch_size=8,
        precision="f64",
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    params = init_params(config, N_ENTITIES, N_RELATIONS, rng=rng)
    batch = _random_batch(rng, N_ENTITIES, N_RELATIONS)

    def loss_fn():
        # fixed dropout stream: the loss is deterministic in the params
        drop_rng = np.random.default_rng(seed + 1)
        return bilm_forward(batch, params, config, rng=drop_rng)

    result = loss_fn()
    grads = bilm_backward(result, params)

    blocks = params.flat()
    per_coord = max(1, int(np.ceil(n_coords / len(blocks))))
    coord_rng = np.random.default_rng(seed + 2)
    worst = 0.0
    per_block = {}
    for name, arr in blocks.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        idx = coord_rng.choice(flat.size, size=min(per_coord, flat.size), replace=False)
        block_worst = 0.0
        for k in idx:
            orig = flat[k]
            flat[k] = orig + STEP
            up = loss_fn().loss
            flat[k] = orig - STEP
            down = loss_fn().loss
            flat[k] = orig
            fd = (up - down) / (2.0 * STEP)
            rel = abs(gflat[k] - fd) / max(abs(gflat[k]), abs(fd), 1e-6)
            block_worst = max(block_worst, rel)
        per_block[name] = block_worst
        worst = max(worst, block_worst)
    return worst, per_block
