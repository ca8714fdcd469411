"""Turning the trained model into usable embeddings.

Per-occurrence contextual states are combined as [x_t, sum_i lam_i *
h_{t,i}] (the pair embedding concatenated with a layer-weighted sum of
bidirectional states, ELMo's mix), then mean-pooled per entity and per
relation into a static table exportable in word2vec text format. The
exported table uses the uniform weights lam_i = 1/L. A position's
vector is attributed to both members of its pair token. Items never
observed in the corpus fall back to their context-independent embedding
in its slot and zeros elsewhere.
"""

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .bilm import bilm_states, pack_batch, tokenize_chain
from .files import atomic_open


def contextual_reps(chain, params, config):
    """Per-position representations of one chain: the pair embedding
    plus every layer's forward and backward state (2L+1 vectors per
    position)."""
    if np.any(chain.entities >= params.n_entities) or np.any(chain.entities < 0):
        raise ValueError("chain contains an entity outside the model vocabulary")
    if len(chain.relations) and (
        np.any(chain.relations >= params.n_relations) or np.any(chain.relations < 0)
    ):
        raise ValueError("chain contains a relation outside the model vocabulary")
    batch = pack_batch([tokenize_chain(chain, params.n_relations - 1)], dtype=config.dtype)
    states, _ = bilm_states(batch, params, config)
    return states.per_sequence(0)


def combine(layer_states, lam):
    """Concatenate x_t with the lam-weighted sum of per-layer
    bidirectional states. Output dim is
    (entity_dim + relation_dim) + 2 * proj_dim."""
    lam = np.asarray(lam, dtype=layer_states.x.dtype)
    if lam.shape != (layer_states.n_layers,):
        raise ValueError(f"lambda must have one weight per layer ({layer_states.n_layers})")
    ctx = np.tensordot(lam, layer_states.layer_concat(), axes=(0, 0))
    return np.concatenate([layer_states.x, ctx], axis=1)


@dataclass
class LayeredStaticTable:
    """Mean x-part and per-layer mean contextual states for every
    vocabulary item. Layer blocks of never-observed items are zero and
    their x block is the item's own embedding (zeros in the other
    slot)."""

    ent_x: np.ndarray  # (|E|, D)
    ent_layers: np.ndarray  # (|E|, L, 2P)
    ent_counts: np.ndarray
    rel_x: np.ndarray
    rel_layers: np.ndarray
    rel_counts: np.ndarray


@dataclass
class StaticEmbeddingTable:
    """One fixed vector per entity and relation plus occurrence counts."""

    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    entity_counts: np.ndarray
    relation_counts: np.ndarray

    @property
    def dim(self):
        return self.entity_vecs.shape[1]


# chains per batch through the direction stacks
CHUNK_SIZE = 256


def aggregate_layered(chains, params, config):
    """Mean-pool contextual states over every corpus occurrence,
    separately per layer, attributed to both the entity and the
    relation of each pair token."""
    if not chains:
        raise ValueError("cannot aggregate over an empty corpus")
    nE, nR = params.n_entities, params.n_relations
    D = params.ent_emb.shape[1] + params.rel_emb.shape[1]
    L = len(params.fwd)
    P2 = 2 * params.fwd[0].Wp.shape[1]
    eos = nR - 1

    ent_x = np.zeros((nE, D))
    ent_layers = np.zeros((nE, L, P2))
    ent_counts = np.zeros(nE, dtype=np.int64)
    rel_x = np.zeros((nR, D))
    rel_layers = np.zeros((nR, L, P2))
    rel_counts = np.zeros(nR, dtype=np.int64)

    tokenized = [tokenize_chain(c, eos) for c in chains]
    for start in range(0, len(tokenized), CHUNK_SIZE):
        batch = pack_batch(tokenized[start : start + CHUNK_SIZE], dtype=config.dtype)
        states, _ = bilm_states(batch, params, config)
        # Real positions in sequence-major order, so every item's sums
        # accumulate in the same order as one scatter per sequence would.
        real = batch.mask.T.astype(bool)  # (B, T)
        e_ids = batch.ents.T[real]
        r_ids = batch.rels.T[real]
        xv = states.x.transpose(1, 0, 2)[real].astype(np.float64)  # (N, D)
        h = np.concatenate([states.fwd, states.bwd], axis=3)  # (L, T, B, 2P)
        hv = h.transpose(2, 1, 0, 3)[real].astype(np.float64)  # (N, L, 2P)
        np.add.at(ent_x, e_ids, xv)
        np.add.at(ent_layers, e_ids, hv)
        np.add.at(ent_counts, e_ids, 1)
        np.add.at(rel_x, r_ids, xv)
        np.add.at(rel_layers, r_ids, hv)
        np.add.at(rel_counts, r_ids, 1)

    d_e = params.ent_emb.shape[1]
    ent_div = np.maximum(ent_counts, 1)[:, None]
    rel_div = np.maximum(rel_counts, 1)[:, None]
    ent_x /= ent_div
    rel_x /= rel_div
    ent_layers /= ent_div[:, :, None]
    rel_layers /= rel_div[:, :, None]
    # fallback: unobserved items keep their own embedding, zero context
    for e in np.flatnonzero(ent_counts == 0):
        ent_x[e, :d_e] = params.ent_emb[e]
    for r in np.flatnonzero(rel_counts == 0):
        rel_x[r, d_e:] = params.rel_emb[r]
    return LayeredStaticTable(
        ent_x=ent_x,
        ent_layers=ent_layers,
        ent_counts=ent_counts,
        rel_x=rel_x,
        rel_layers=rel_layers,
        rel_counts=rel_counts,
    )


def aggregate_static(chains, params, config):
    """Static per-item table: the pooled pair embedding concatenated with
    the uniform mean of the pooled per-layer states."""
    layered = aggregate_layered(chains, params, config)
    L = layered.ent_layers.shape[1]
    uniform = np.full(L, 1.0 / L)
    return StaticEmbeddingTable(
        entity_vecs=np.concatenate([layered.ent_x, np.tensordot(layered.ent_layers, uniform, axes=(1, 0))], axis=1),
        relation_vecs=np.concatenate([layered.rel_x, np.tensordot(layered.rel_layers, uniform, axes=(1, 0))], axis=1),
        entity_counts=layered.ent_counts,
        relation_counts=layered.rel_counts,
    )


def _write_vec(path, names, vecs):
    with atomic_open(path) as fh:
        fh.write(f"{len(names)} {vecs.shape[1]}\n")
        fmt = " ".join(["%.9g"] * vecs.shape[1])
        for name, row in zip(names, vecs.tolist()):
            fh.write(name + " " + fmt % tuple(row) + "\n")


def vec_paths(base_path):
    """The entity and relation ``.vec`` paths under ``base_path``."""
    return f"{base_path}.entities.vec", f"{base_path}.relations.vec"


def export_embeddings(table, entity_names, relation_names, base_path):
    """Write word2vec-style text files ``<base>.entities.vec`` and
    ``<base>.relations.vec`` (header '<count> <dim>', then one line per
    token), each atomically. Returns the two paths."""
    ent_path, rel_path = vec_paths(base_path)
    _write_vec(ent_path, entity_names, table.entity_vecs)
    _write_vec(rel_path, relation_names, table.relation_vecs)
    return ent_path, rel_path


def import_embeddings(base_path, entity_names, relation_names):
    """Inverse of :func:`export_embeddings`: the entity and relation
    matrices read from ``<base>.{entities,relations}.vec``. Raises
    ValueError naming the file unless it lists exactly the given
    surfaces, in the given order, and both files have one width."""
    mats = []
    for path, expected in zip(vec_paths(base_path), (entity_names, relation_names)):
        names, vecs = load_embeddings(path)
        if names != list(expected):
            i = next(i for i, (a, b) in enumerate(zip_longest(names, expected)) if a != b)
            raise ValueError(
                f"{path}:{i + 2}: the surfaces are not the dataset vocabulary in order "
                f"({len(names)} rows for {len(expected)} surfaces); rerun the export stage"
            )
        mats.append(vecs)
    ent, rel = mats
    if ent.shape[1] != rel.shape[1]:
        raise ValueError(f"{base_path}: entity width {ent.shape[1]} != relation width {rel.shape[1]}")
    return ent, rel


def load_embeddings(path):
    """Read a .vec file back into (names, float64 matrix). Raises
    ValueError naming the path and line unless the header is two
    non-negative ints ``count dim`` followed by exactly ``count`` rows
    of a surface plus ``dim`` values."""
    with open(path, encoding="utf-8") as fh:
        try:
            count, dim = (int(v) for v in fh.readline().split())
        except ValueError:
            count = dim = -1
        if count < 0 or dim < 0:
            raise ValueError(f"{path}:1: header is not '<count> <dim>' (two non-negative ints)")
        names, rows = [], []
        for lineno in range(2, count + 2):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}:{lineno}: file ends after {lineno - 2} of {count} rows")
            name, *values = line.removesuffix("\n").split(" ")
            try:
                row = [float(v) for v in values]
            except ValueError:
                row = None
            if not name or row is None or len(row) != dim:
                raise ValueError(f"{path}:{lineno}: expected a surface and {dim} numbers")
            names.append(name)
            rows.append(row)
        if fh.readline():
            raise ValueError(f"{path}:{count + 2}: a line after the {count} rows the header lists")
    return names, np.array(rows, dtype=np.float64).reshape(count, dim)
