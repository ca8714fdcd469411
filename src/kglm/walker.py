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
class Chain:
    """One walk: entity ids and the relation ids between them."""

    entities: np.ndarray
    relations: np.ndarray

    def __post_init__(self):
        if len(self.entities) != len(self.relations) + 1:
            raise ValueError("chain must alternate entities and relations")

    def surfaces(self, graph):
        out = []
        for i, e in enumerate(self.entities):
            out.append(graph.entities.items[e])
            if i < len(self.relations):
                out.append(graph.relations.items[self.relations[i]])
        return out


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
    """Generate walks_per_node chains per entity in canonical
    (entity id, walk index) order, optionally writing them to
    ``out_path`` (one chain per line, space-separated surfaces). The
    first step of a walk is uniform over its start's out-edges, later
    steps follow the second-order rule, and a dead end truncates the
    chain (a start with no out-edges yields a single-entity chain)."""
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
    chains = [
        Chain(entities=ents[i, : k + 1].copy(), relations=rels[i, :k].copy())
        for i, k in enumerate(steps.tolist())
    ]
    truncated = int(np.count_nonzero(steps < n_steps))
    if truncated:
        logger.warning("%d of %d chains hit a dead end and were truncated", truncated, len(chains))
    if out_path is not None:
        write_corpus(chains, graph, out_path)
    return chains


def _check_surfaces(graph):
    for voc in (graph.entities, graph.relations):
        for s in voc.items:
            if " " in s or "\t" in s or "\n" in s:
                raise ValueError(f"token {s!r} contains whitespace; cannot serialize")


def write_corpus(chains, graph, path):
    """Write one chain per line, atomically."""
    _check_surfaces(graph)
    with atomic_open(path) as fh:
        for chain in chains:
            fh.write(" ".join(chain.surfaces(graph)))
            fh.write("\n")


def read_corpus(path, graph):
    """Parse a corpus file back into :class:`Chain` objects. Raises
    ValueError naming ``path`` and the line for an even token count, a
    surface outside the graph's vocabulary, an end-of-sequence relation
    inside a chain, or bytes that are not UTF-8."""
    chains = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            toks = line.split(" ")
            if len(toks) % 2 == 0:
                raise ValueError(f"{path}:{lineno}: even token count, not a chain")
            try:
                ents = np.array([graph.entities.id_of(t) for t in toks[0::2]], dtype=np.int64)
                rels = np.array([graph.relations.id_of(t) for t in toks[1::2]], dtype=np.int64)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if np.any(rels == graph.eos_id):
                raise ValueError(f"{path}:{lineno}: {EOS_SURFACE!r} inside a chain")
            chains.append(Chain(entities=ents, relations=rels))
    return chains
