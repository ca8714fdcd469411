"""Second-order biased random walks over the graph and corpus assembly.

A walk alternates entities and relations, ``e1 r1 e2 ... ek``, and is
biased by a return parameter p and an in-out parameter q: stepping back
to the previous node weighs 1/p, stepping to one of its neighbors 1,
and stepping further away 1/q. All walks are sampled together by
:func:`kglm.kernels.walk_steps` from the one stream
``derived_rng(seed, WALKS)``, so the corpus depends on the seed, the
graph and the walk settings.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels, seeds
from .files import atomic_open, open_text
from .graph import EOS_SURFACE

logger = logging.getLogger(__name__)

# p and q lie in [1/MAX_BIAS, MAX_BIAS], so the largest step weight is at
# most MAX_BIAS**2 times the smallest: the rejection sampler's bound on
# the expected proposals per step.
MAX_BIAS = 16.0


@dataclass
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 20
    walk_length: int = 21
    seed: int = seeds.DEFAULT_SEED

    def __post_init__(self):
        for name in ("p", "q"):
            value = getattr(self, name)
            if not 1.0 / MAX_BIAS <= value <= MAX_BIAS:
                raise ValueError(f"{name} must be in [1/{MAX_BIAS:g}, {MAX_BIAS:g}], got {value!r}")
        if self.walk_length < 3 or self.walk_length % 2 == 0:
            raise ValueError("walk_length must be odd and >= 3")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")

    @property
    def n_steps(self):
        return (self.walk_length - 1) // 2


@dataclass
class Corpus:
    """Walks as (entity, relation) pair tokens, one walk per row of the
    (n, T) int64 arrays ``ents`` and ``rels``. Row i's first
    ``lengths[i]`` columns are its tokens: each entity pairs with the
    relation the walk takes next, and the last entity with the graph's
    end-of-sequence relation. The rest of the row is 0."""

    ents: np.ndarray
    rels: np.ndarray
    lengths: np.ndarray

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, rows):
        """The walks of ``rows``: an int (a one-walk corpus), a slice, or
        an array of row ids or a boolean row mask."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return Corpus(self.ents[rows], self.rels[rows], self.lengths[rows])


def _corpus(ents, rels, steps, eos_id):
    """The corpus of walks whose step counts are ``steps`` (n,) and whose
    entity and relation ids, walk after walk, are ``ents`` and ``rels``."""
    lengths = steps + 1
    cols = np.arange(int(lengths.max(initial=0)))
    real = cols < lengths[:, None]
    tok_ents = np.zeros(real.shape, dtype=np.int64)
    tok_ents[real] = ents
    tok_rels = np.where(real, eos_id, 0)
    tok_rels[cols < steps[:, None]] = rels
    return Corpus(tok_ents, tok_rels, lengths)


def transition_weight(prev_entity, cur_entity, next_entity, graph, p, q):
    """Unnormalized second-order weight for stepping cur -> next given
    the walk came from prev. ``prev_entity=None`` (no history yet)
    weighs every neighbor 1."""
    if not graph.has_neighbor(cur_entity, next_entity):
        raise ValueError(f"{next_entity} is not a neighbor of {cur_entity}")
    if prev_entity is None:
        return 1.0
    if next_entity == prev_entity:
        return 1.0 / p
    if graph.has_neighbor(prev_entity, next_entity):
        return 1.0
    return 1.0 / q


class StepDistribution(NamedTuple):
    rels: np.ndarray
    nbrs: np.ndarray
    probs: np.ndarray


def next_step_distribution(prev_entity, cur_entity, graph, p, q):
    """Normalized next-step probabilities over the (relation, neighbor)
    edges out of ``cur_entity``. Parallel edges each carry their
    neighbor's full weight and are normalized jointly. Returns empty
    arrays for a dead end."""
    rels, nbrs = graph.out_edges(cur_entity)
    if len(nbrs) == 0:
        return StepDistribution(rels, nbrs, np.empty(0, dtype=np.float64))
    w = np.array(
        [transition_weight(prev_entity, cur_entity, int(x), graph, p, q) for x in nbrs],
        dtype=np.float64,
    )
    return StepDistribution(rels, nbrs, w / w.sum())


def generate_corpus(graph, config, out_path=None):
    """Generate walks_per_node walks per entity as a :class:`Corpus` in
    canonical (entity id, walk index) order, optionally writing it to
    ``out_path`` (see :func:`write_corpus`). The first step of a walk is
    uniform over its start's out-edges, later steps follow the
    second-order rule, and a dead end truncates the walk (a start with
    no out-edges yields a one-token walk)."""
    n_steps = config.n_steps
    starts = np.repeat(np.arange(graph.n_entities, dtype=np.int64), config.walks_per_node)
    ents, rels, steps = kernels.walk_steps(
        graph.adj_off,
        graph.adj_rel,
        graph.adj_nbr,
        graph.nbr_off,
        graph.nbr_sorted,
        starts,
        n_steps,
        seeds.derived_rng(config.seed, seeds.WALKS),
        1.0 / config.p,
        1.0 / config.q,
    )
    corpus = _corpus(ents[ents >= 0], rels[rels >= 0], steps, graph.eos_id)
    truncated = int(np.count_nonzero(steps < n_steps))
    if truncated:
        logger.warning("%d of %d chains hit a dead end and were truncated", truncated, len(corpus))
    if out_path is not None:
        write_corpus(corpus, graph, out_path)
    return corpus


def write_corpus(corpus, graph, path):
    """Write one walk per line, ``e1 r1 e2 ... ek`` as surfaces separated
    by single spaces, atomically."""
    ent_names, rel_names = graph.entities.items, graph.relations.items
    with atomic_open(path) as fh:
        for ents, rels, n in zip(corpus.ents.tolist(), corpus.rels.tolist(), corpus.lengths.tolist()):
            steps = (f"{ent_names[e]} {rel_names[r]} " for e, r in zip(ents[: n - 1], rels))
            fh.write("".join(steps) + ent_names[ents[n - 1]] + "\n")


def read_corpus(path, graph):
    """Parse a corpus file back into a :class:`Corpus`. Raises ValueError
    naming ``path`` and the line for an even token count, a surface
    outside the graph's vocabulary, an end-of-sequence relation inside a
    walk, or bytes that are not UTF-8."""
    ents, rels, steps = [], [], []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            toks = line.split(" ")
            if len(toks) % 2 == 0:
                raise ValueError(f"{path}:{lineno}: even token count, not a chain")
            try:
                ents.extend(graph.entities.id_of(t) for t in toks[0::2])
                walk_rels = [graph.relations.id_of(t) for t in toks[1::2]]
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if graph.eos_id in walk_rels:
                raise ValueError(f"{path}:{lineno}: {EOS_SURFACE!r} inside a chain")
            rels.extend(walk_rels)
            steps.append(len(walk_rels))
    return _corpus(np.array(ents, dtype=np.int64), np.array(rels, dtype=np.int64),
                   np.array(steps, dtype=np.int64), graph.eos_id)
