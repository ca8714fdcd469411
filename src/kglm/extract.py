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

from .bilm import LayerStates, bilm_states, pack_batch
from .files import atomic_open, open_text


def contextual_reps(walk, params, config):
    """Per-position representations of a one-walk corpus such as
    ``corpus[i]``: the pair embedding plus every layer's forward and
    backward state (2L+1 vectors per position)."""
    if len(walk) != 1:
        raise ValueError(f"expected a one-walk corpus, got {len(walk)} walks")
    for ids, n, what in ((walk.ents, params.n_entities, "an entity"), (walk.rels, params.n_relations, "a relation")):
        if np.any(ids >= n) or np.any(ids < 0):
            raise ValueError(f"walk contains {what} outside the model vocabulary")
    # one walk packs with no padding: the batch's only column is all of it
    states, _ = bilm_states(pack_batch(walk, dtype=config.dtype), params, config)
    return LayerStates(x=states.x[:, 0], fwd=states.fwd[:, :, 0], bwd=states.bwd[:, :, 0])


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
class StaticEmbeddingTable:
    """One fixed vector per entity and relation plus occurrence counts."""

    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    entity_counts: np.ndarray
    relation_counts: np.ndarray

    @property
    def dim(self):
        return self.entity_vecs.shape[1]


# walks per batch through the direction stacks
CHUNK_SIZE = 256


def aggregate_layered(corpus, params, config):
    """Sum the combined vector of every corpus occurrence, attributed to
    both the entity and the relation of its pair token. Returns
    ``(ent_sums, ent_counts, rel_sums, rel_counts)``: float64 sums of
    :func:`combine` with uniform layer weights, (|E|, D+2P) and
    (|R|, D+2P), and occurrence counts.

    The name is older than the combined sums (the pooling once kept one
    table per layer). It stays because ``perfbench/tracer.py`` wraps it
    and reports its self time as the pooling cost of export."""
    if not len(corpus):
        raise ValueError("cannot aggregate over an empty corpus")
    nE, nR = params.n_entities, params.n_relations
    L = len(params.fwd)
    uniform = np.full(L, 1.0 / L)
    dim = params.ent_emb.shape[1] + params.rel_emb.shape[1] + 2 * params.fwd[0].Wp.shape[1]
    ent_sums, rel_sums = np.zeros((nE, dim)), np.zeros((nR, dim))
    ent_counts, rel_counts = np.zeros(nE, dtype=np.int64), np.zeros(nR, dtype=np.int64)

    for start in range(0, len(corpus), CHUNK_SIZE):
        batch = pack_batch(corpus[start : start + CHUNK_SIZE], dtype=config.dtype)
        states, _ = bilm_states(batch, params, config)
        # Real positions in sequence-major order, so every item's sums
        # accumulate in the same order as one scatter per sequence would.
        real = batch.mask.T.astype(bool)  # (B, T)
        occurrences = LayerStates(
            x=states.x.transpose(1, 0, 2)[real].astype(np.float64),  # (N, D)
            fwd=states.fwd.transpose(0, 2, 1, 3)[:, real].astype(np.float64),  # (L, N, P)
            bwd=states.bwd.transpose(0, 2, 1, 3)[:, real].astype(np.float64),
        )
        vecs = combine(occurrences, uniform)
        e_ids, r_ids = batch.ents.T[real], batch.rels.T[real]
        np.add.at(ent_sums, e_ids, vecs)
        np.add.at(rel_sums, r_ids, vecs)
        ent_counts += np.bincount(e_ids, minlength=nE)
        rel_counts += np.bincount(r_ids, minlength=nR)
    return ent_sums, ent_counts, rel_sums, rel_counts


def aggregate_static(corpus, params, config):
    """Static per-item table: the mean over every occurrence of the
    combined vector [x_t, uniform mean of the L layer states]. Items
    never seen in the corpus get their own embedding in its slot of x
    and zeros elsewhere."""
    ent_sums, ent_counts, rel_sums, rel_counts = aggregate_layered(corpus, params, config)
    ent = ent_sums / np.maximum(ent_counts, 1)[:, None]
    rel = rel_sums / np.maximum(rel_counts, 1)[:, None]
    d_e = params.ent_emb.shape[1]
    d_x = d_e + params.rel_emb.shape[1]
    ent[ent_counts == 0, :d_e] = params.ent_emb[ent_counts == 0]
    rel[rel_counts == 0, d_e:d_x] = params.rel_emb[rel_counts == 0]
    return StaticEmbeddingTable(
        entity_vecs=ent, relation_vecs=rel, entity_counts=ent_counts, relation_counts=rel_counts
    )


def _write_vec(path, names, vecs):
    with atomic_open(path) as fh:
        fh.write(f"{len(names)} {vecs.shape[1]}\n")
        fmt = " ".join(["%.9g"] * vecs.shape[1])
        # one row's Python floats at a time, not the whole table's
        for name, row in zip(names, vecs):
            fh.write(name + " " + fmt % tuple(row.tolist()) + "\n")


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
    mats, paths = [], vec_paths(base_path)
    for path, expected in zip(paths, (entity_names, relation_names)):
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
        raise ValueError(f"{paths[1]}: relation width {rel.shape[1]} != entity width {ent.shape[1]} of {paths[0]}")
    return ent, rel


def load_embeddings(path):
    """Read a .vec file back into (names, float64 matrix). Raises
    ValueError naming the path and line unless the header is two
    non-negative ints ``count dim`` followed by exactly ``count`` rows
    of a surface plus ``dim`` values, all of it UTF-8."""
    with open_text(path) as fh:
        header = fh.readline().split()
        try:
            count, dim = (int(v) for v in header)
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
