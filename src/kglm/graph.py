"""Knowledge graph loading, vocabularies, adjacency, and the index of
known-true triples that filtered ranking and negative sampling read.

Triples live in UTF-8 TSV files (``head<TAB>relation<TAB>tail``). Entity
and relation ids are dense integers assigned in first-appearance order,
so a given input always produces the same vocabulary. Inverse relations
are synthesized (``r`` gains ``r^-1``) so walks can traverse edges
against their direction; an end-of-sequence sentinel relation is
appended last to the relation vocabulary and never appears in a triple.
"""

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

EOS_SURFACE = "<eos>"
INVERSE_SUFFIX = "^-1"


class TripleParseError(ValueError):
    """A triple file line that is not head<TAB>relation<TAB>tail."""


class Vocab:
    """Ordered string-to-dense-id mapping."""

    def __init__(self, items=()):
        self.items = list(items)
        self.index = {s: i for i, s in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise ValueError("duplicate surface in vocabulary")

    def add(self, surface):
        i = self.index.get(surface)
        if i is None:
            i = len(self.items)
            self.items.append(surface)
            self.index[surface] = i
        return i

    def id_of(self, surface):
        try:
            return self.index[surface]
        except KeyError:
            raise KeyError(f"unknown token: {surface!r}") from None

    def __contains__(self, surface):
        return surface in self.index

    def __len__(self):
        return len(self.items)


def load_triples(path):
    """Read a TSV triple file, returning (head, relation, tail) surface
    tuples in file order. Empty lines are skipped; any other line with a
    field count != 3 raises :class:`TripleParseError` with its line
    number. An empty file (no triples) is an error.
    """
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.removesuffix("\n").removesuffix("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            triples.append((parts[0], parts[1], parts[2]))
    if not triples:
        raise TripleParseError(f"{path}: no triples found")
    return triples


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable indexed view of a triple set.

    ``triples`` holds the deduplicated input triples as id rows (n, 3).
    Adjacency is CSR over outgoing edges and, when inverses are enabled,
    contains one ``(t, r^-1, h)`` edge right after each stored
    ``(h, r, t)``. ``nbr_off``/``nbr_sorted`` index the sorted unique
    out-neighbors per entity, used for the second-order distance test
    during walks.
    """

    entities: Vocab
    relations: Vocab
    n_base_relations: int
    triples: np.ndarray
    adj_off: np.ndarray
    adj_rel: np.ndarray
    adj_nbr: np.ndarray
    nbr_off: np.ndarray
    nbr_sorted: np.ndarray

    @property
    def n_entities(self):
        return len(self.entities)

    @property
    def n_relations(self):
        return len(self.relations)

    @property
    def eos_id(self):
        return len(self.relations) - 1

    def out_edges(self, entity_id):
        """(relation ids, neighbor ids) of the outgoing edges."""
        lo, hi = self.adj_off[entity_id], self.adj_off[entity_id + 1]
        return self.adj_rel[lo:hi], self.adj_nbr[lo:hi]

    def out_degree(self, entity_id):
        return int(self.adj_off[entity_id + 1] - self.adj_off[entity_id])

    def neighbors_sorted(self, entity_id):
        lo, hi = self.nbr_off[entity_id], self.nbr_off[entity_id + 1]
        return self.nbr_sorted[lo:hi]

    def has_neighbor(self, entity_id, other_id):
        nbrs = self.neighbors_sorted(entity_id)
        k = np.searchsorted(nbrs, other_id)
        return k < len(nbrs) and nbrs[k] == other_id


def _to_ids(surface_triples, entities, relations):
    return np.array(
        [(entities.id_of(h), relations.id_of(r), entities.id_of(t)) for h, r, t in surface_triples],
        dtype=np.int64,
    ).reshape(-1, 3)


def _offsets(rows, n):
    """CSR offsets (n + 1,) of the rows whose ids ``rows`` lists, in [0, n)."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=off[1:])
    return off


def build_graph(triples, add_inverses=True, extra_entities=()):
    """Index surface triples into a :class:`KnowledgeGraph`.

    Ids follow first appearance (head before tail within a triple);
    ``extra_entities`` not already seen get the next ids, in order, and
    no edges. Inverse relation ids are base id + number of base
    relations; the EOS sentinel takes the final relation id. Duplicate
    triples are dropped with a logged count.
    """
    if not triples:
        raise ValueError("cannot build a graph from an empty triple list")
    unique = list(dict.fromkeys(triples))
    if len(unique) < len(triples):
        logger.warning("dropped %d duplicate triples", len(triples) - len(unique))

    entities = Vocab()
    relations = Vocab()
    for h, r, t in unique:
        if r == EOS_SURFACE:
            raise ValueError(f"relation surface {EOS_SURFACE!r} is reserved")
        entities.add(h)
        relations.add(r)
        entities.add(t)
    for e in extra_entities:
        entities.add(e)
    n_base = len(relations)
    if add_inverses:
        for r in list(relations.items[:n_base]):
            inv = r + INVERSE_SUFFIX
            if inv in relations:
                raise ValueError(f"relation surface {inv!r} collides with a synthesized inverse")
            relations.add(inv)
    relations.add(EOS_SURFACE)

    ids = _to_ids(unique, entities, relations)
    n_ent = len(entities)
    h, r, t = ids.T
    if add_inverses:
        # edge 2i is triple i, edge 2i + 1 its inverse
        src = np.column_stack([h, t]).ravel()
        rel = np.column_stack([r, r + n_base]).ravel()
        nbr = np.column_stack([t, h]).ravel()
    else:
        src, rel, nbr = h, r, t
    # a stable sort keeps each entity's edges in input order
    order = np.argsort(src, kind="stable")
    keys = np.unique(src * n_ent + nbr)

    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        n_base_relations=n_base,
        triples=ids,
        adj_off=_offsets(src, n_ent),
        adj_rel=rel[order],
        adj_nbr=nbr[order],
        nbr_off=_offsets(keys // n_ent, n_ent),
        nbr_sorted=keys % n_ent,
    )


@dataclass(frozen=True)
class FilterIndex:
    """The known-true triples of every split, as two sorted, unique int64
    key arrays over ``E`` entities and ``R`` relations.

    ``hrt`` holds ``(h*R + r)*E + t``, so the tails of an ``(h, r)`` query
    are one contiguous run of keys; ``rth`` holds ``(r*E + t)*E + h`` for
    the heads of an ``(r, t)`` query. Both key ranges end below ``E*R*E``,
    which :func:`build_filter_index` checks against the int64 range.
    """

    n_entities: int
    n_relations: int
    hrt: np.ndarray
    rth: np.ndarray

    def _run(self, keys, prefix):
        base = prefix * self.n_entities
        lo, hi = keys.searchsorted(base), keys.searchsorted(base + self.n_entities)
        return keys[lo:hi] - base

    def heads(self, r, t):
        """Sorted ids h with (h, r, t) known."""
        return self._run(self.rth, r * self.n_entities + t)

    def tails(self, h, r):
        """Sorted ids t with (h, r, t) known."""
        return self._run(self.hrt, h * self.n_relations + r)

    def _keys(self, triples):
        h, r, t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
        return (h * self.n_relations + r) * self.n_entities + t

    def contains(self, triples):
        """Boolean mask over the (n, 3) id rows: which are known."""
        return np.isin(self._keys(triples), self.hrt)


def build_filter_index(n_entities, n_relations, *splits):
    """Index the triples of any number of (n, 3) id splits."""
    if n_entities * n_relations * n_entities > np.iinfo(np.int64).max:
        raise ValueError(f"{n_entities} entities x {n_relations} relations overflow the int64 triple keys")
    rows = [np.asarray(s, dtype=np.int64).reshape(-1, 3) for s in splits]
    h, r, t = np.concatenate([np.empty((0, 3), dtype=np.int64), *rows]).T
    return FilterIndex(
        n_entities=n_entities,
        n_relations=n_relations,
        hrt=np.unique((h * n_relations + r) * n_entities + t),
        rth=np.unique((r * n_entities + t) * n_entities + h),
    )


@dataclass
class DatasetSplit:
    """Train/valid/test id triples plus the shared filter index."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    filter_index: FilterIndex

    def __post_init__(self):
        names = ("train", "valid", "test")
        arrays = (self.train, self.valid, self.test)
        keys = [self.filter_index._keys(a) for a in arrays]
        for i in (1, 2):
            shared = np.flatnonzero(np.isin(keys[i], np.concatenate(keys[:i])))
            if shared.size:
                key = keys[i][shared[0]]
                owner = next(n for n, k in zip(names, keys) if key in k)
                row = tuple(np.asarray(arrays[i])[shared[0]].tolist())
                raise ValueError(f"split {names[i]} overlaps split {owner}: both hold the id triple {row}")


def load_dataset(train_path, valid_path=None, test_path=None, add_inverses=True):
    """Load split files into a graph plus :class:`DatasetSplit`.

    The vocabulary covers every split so evaluation triples always have
    ids, but the graph's stored triples and adjacency come from the
    train split alone: walks and scorer training must not see held-out
    edges. Entities first seen in valid or test are isolated.
    """
    train = load_triples(train_path)
    valid = load_triples(valid_path) if valid_path else []
    test = load_triples(test_path) if test_path else []

    held_out = valid + test
    graph = build_graph(
        train, add_inverses=add_inverses, extra_entities=[e for h, _, t in held_out for e in (h, t)]
    )
    for name, rows in (("valid", valid), ("test", test)):
        for _, r, _ in rows:
            # an inverse or <eos> id is in the vocabulary but never a fact
            if graph.relations.index.get(r, graph.n_base_relations) >= graph.n_base_relations:
                raise ValueError(
                    f"relation {r!r} of the {name} split is synthesized or appears only outside the train split"
                )

    train_ids = graph.triples
    valid_ids = _to_ids(valid, graph.entities, graph.relations)
    test_ids = _to_ids(test, graph.entities, graph.relations)
    fidx = build_filter_index(graph.n_entities, graph.n_relations, train_ids, valid_ids, test_ids)
    split = DatasetSplit(train=train_ids, valid=valid_ids, test=test_ids, filter_index=fidx)
    return graph, split
