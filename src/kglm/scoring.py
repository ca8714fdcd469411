"""Triple scorers and their training.

Two scorer forms: translational (score is the negated L2 distance of
head + relation - tail) and bilinear (trilinear dot product). Higher
score always means more plausible. Tables start random or from the
static contextual-embedding table and are the trainable parameters.
Training protocol is identical across initializations: one uniform
corruption per positive, ranking loss with margin ``MARGIN`` for the
translational form, logistic loss for the bilinear form, Adam updates.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .files import read_arrays, write_arrays
from .graph import check_ids
from .optim import Adam

logger = logging.getLogger(__name__)

SCORER_KINDS = ("translational", "bilinear")

# positives per Adam step, each paired with one corruption
BATCH_SIZE = 512
# the translational form's ranking margin, TransE's
MARGIN = 1.0
# corruption rounds before a row counts as uncorruptible
MAX_NEGATIVE_ROUNDS = 1000

SCORER_MAGIC = "kglm-scorer 1"


@dataclass
class Scorer:
    kind: str
    ent: np.ndarray  # (|E|, d) float64
    rel: np.ndarray  # (|R|, d)

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}")

    @property
    def dim(self):
        return self.ent.shape[1]

    @property
    def n_entities(self):
        return self.ent.shape[0]

    @property
    def n_relations(self):
        return self.rel.shape[0]

    def _check(self, h, r, t):
        if not (0 <= h < self.n_entities and 0 <= t < self.n_entities):
            raise ValueError(f"unknown entity id in ({h}, {r}, {t})")
        if not 0 <= r < self.n_relations:
            raise ValueError(f"unknown relation id {r}")

    def score(self, h, r, t):
        self._check(h, r, t)
        if self.kind == "translational":
            return -float(np.linalg.norm(self.ent[h] + self.rel[r] - self.ent[t]))
        return float(np.dot(self.ent[h] * self.rel[r], self.ent[t]))

    def score_batch(self, triples):
        """Scores of the (n, 3) id rows, one batched pass."""
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        check_ids(triples, self.n_entities, self.n_relations, "triple")
        return _score_batch(self, triples)[0]

    def score_all_heads(self, r, t):
        """Scores of (e, r, t) for every entity e."""
        if self.kind == "translational":
            return -np.linalg.norm(self.ent + self.rel[r] - self.ent[t], axis=1)
        return self.ent @ (self.rel[r] * self.ent[t])

    def score_all_tails(self, h, r):
        """Scores of (h, r, e) for every entity e."""
        if self.kind == "translational":
            return -np.linalg.norm(self.ent[h] + self.rel[r] - self.ent, axis=1)
        return self.ent @ (self.ent[h] * self.rel[r])

    def block_scores(self, block, side):
        """(len(block), |E|) scores of every entity as the ``side`` answer
        (head or tail) of each (n, 3) id row of ``block``, in one GEMM: the
        rows' :meth:`score_all_heads` or :meth:`score_all_tails` up to rounding."""
        ent = self.ent
        e_r = self.rel[block[:, 1]]
        if self.kind == "bilinear":
            query = ent[block[:, 0]] * e_r if side == "tail" else e_r * ent[block[:, 2]]
            return query @ ent.T
        # -||a - e|| for every entity e, through ||a||^2 - 2 a.e + ||e||^2
        a = ent[block[:, 0]] + e_r if side == "tail" else ent[block[:, 2]] - e_r
        scores = a @ ent.T
        scores *= -2.0
        scores += np.einsum("qd,qd->q", a, a)[:, None]
        scores += np.einsum("ed,ed->e", ent, ent)
        # rounding can push a zero distance below 0; np.maximum keeps NaN
        np.maximum(scores, 0.0, out=scores)
        np.sqrt(scores, out=scores)
        return np.negative(scores, out=scores)


def save_scorer(path, scorer, key):
    """Write the scorer's float64 tables atomically, under a header that
    holds its kind and ``key`` (a JSON object naming what the tables were
    trained from). The bytes are the tables' own, so a loaded scorer is
    bit-identical to the saved one."""
    write_arrays(path, SCORER_MAGIC, {"kind": scorer.kind, "key": key}, {"ent": scorer.ent, "rel": scorer.rel})


def load_scorer(path):
    """Read a :func:`save_scorer` file back; returns (scorer, key).
    Raises ValueError naming ``path`` if the file is malformed or its
    arrays are not two float64 tables of one width."""
    header, arrays = read_arrays(path, SCORER_MAGIC, ("kind", "key"))
    ent, rel = arrays.get("ent"), arrays.get("rel")
    if list(arrays) != ["ent", "rel"] or ent.dtype != np.float64 or rel.dtype != np.float64 or not (
        ent.ndim == rel.ndim == 2 and ent.shape[1] == rel.shape[1]
    ):
        shapes = ", ".join(f"{name!r} {a.dtype.name} {a.shape}" for name, a in arrays.items())
        raise ValueError(f"{path}: the arrays are {shapes or 'none'}, not float64 'ent' and 'rel' tables of one width")
    if header["kind"] not in SCORER_KINDS or not isinstance(header["key"], dict):
        raise ValueError(f"{path}: the header's kind must be one of {SCORER_KINDS} and its key an object")
    return Scorer(kind=header["kind"], ent=ent, rel=rel), header["key"]


def init_scorer_random(kind, dim, n_entities, n_relations, rng):
    """Uniform +-6/sqrt(d) tables, the usual translational-model init."""
    s = 6.0 / np.sqrt(dim)
    return Scorer(
        kind=kind,
        ent=rng.uniform(-s, s, size=(n_entities, dim)),
        rel=rng.uniform(-s, s, size=(n_relations, dim)),
    )


def _target_std(dim):
    # per-entry std of the uniform(+-6/sqrt(d)) random init
    return 2.0 * np.sqrt(3.0) / np.sqrt(dim)


def _standardize(vecs, dim):
    """Center columns and rescale globally so entries match the random
    init's spread; raw mean-pooled states carry a large common component
    and sit far outside the scale either scorer form trains well at."""
    c = vecs - vecs.mean(axis=0)
    std = c.std()
    if std == 0.0:
        return c
    return c * (_target_std(dim) / std)


def init_scorer_from_table(entity_vecs, relation_vecs, kind, dim=None, rng=None):
    """Materialize scorer tables from the entity and relation matrices
    of a static embedding table: an optional random projection when dims
    differ, then a standardizing affine map."""
    ent = np.asarray(entity_vecs, dtype=np.float64)
    rel = np.asarray(relation_vecs, dtype=np.float64)
    width = ent.shape[1]
    dim = dim or width
    if dim != width and rng is None:
        raise ValueError("projection to a different dim needs an rng")
    if dim != width:
        W = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, dim))
        ent = ent @ W
        rel = rel @ W
    return Scorer(kind=kind, ent=_standardize(ent, dim), rel=_standardize(rel, dim))


@dataclass
class ScorerTrainConfig:
    epochs: int = 100
    lr: float = 0.01
    seed: int = seeds.DEFAULT_SEED

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError("lr must be a finite number > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def sample_negatives(triples, known, rng):
    """One corruption per positive: replace head or tail (probability
    0.5 each) with a uniform entity, rejecting known-true triples.

    Every round corrupts all pending rows at once: it draws one side coin
    per row, then one replacement entity per row, and the rows whose
    candidate ``known`` (a :class:`~kglm.graph.FilterIndex`) contains
    stay pending for the next round.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    negs = triples.copy()
    pending = np.arange(len(triples))
    for _ in range(MAX_NEGATIVE_ROUNDS):
        side = np.where(rng.random(len(pending)) < 0.5, 0, 2)
        cand = triples[pending]
        cand[np.arange(len(pending)), side] = rng.integers(known.n_entities, size=len(pending))
        negs[pending] = cand
        pending = pending[known.contains(cand)]
        if not pending.size:
            return negs
    h, r, t = triples[pending[0]].tolist()
    raise RuntimeError(f"could not corrupt triple ({h},{r},{t}); graph too dense")


def _score_batch(scorer, triples):
    e_h = scorer.ent[triples[:, 0]]
    e_r = scorer.rel[triples[:, 1]]
    e_t = scorer.ent[triples[:, 2]]
    if scorer.kind == "translational":
        v = e_h + e_r - e_t
        norm = np.linalg.norm(v, axis=1)
        return -norm, (v, norm)
    return np.einsum("nd,nd,nd->n", e_h, e_r, e_t), (e_h, e_r, e_t)


def _score_grads(scorer, triples, ds, aux, d_ent, d_rel):
    """Scatter d(loss)/d(score) into embedding-table gradients."""
    if scorer.kind == "translational":
        v, norm = aux
        safe = np.where(norm > 0, norm, 1.0)
        dv = ds[:, None] * (-v / safe[:, None])
        np.add.at(d_ent, triples[:, 0], dv)
        np.add.at(d_rel, triples[:, 1], dv)
        np.add.at(d_ent, triples[:, 2], -dv)
    else:
        e_h, e_r, e_t = aux
        dsc = ds[:, None]
        np.add.at(d_ent, triples[:, 0], dsc * e_r * e_t)
        np.add.at(d_rel, triples[:, 1], dsc * e_h * e_t)
        np.add.at(d_ent, triples[:, 2], dsc * e_h * e_r)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train_scorer(scorer, train_triples, known, cfg):
    """Train in place against negatives that avoid every triple of the
    filter index ``known``; returns (scorer, per-epoch mean loss trace)."""
    train_triples = np.asarray(train_triples, dtype=np.int64)
    n = len(train_triples)
    opt = Adam({"ent": scorer.ent, "rel": scorer.rel}, lr=cfg.lr)

    trace = []
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng = seeds.derived_rng(cfg.seed, seeds.SCORER_INIT, epoch)
        neg_rng = seeds.derived_rng(cfg.seed, seeds.NEGATIVES, epoch)
        shuffled = train_triples[shuffle_rng.permutation(n)]
        negatives = sample_negatives(shuffled, known, neg_rng)
        total = 0.0
        for start in range(0, n, BATCH_SIZE):
            pos = shuffled[start : start + BATCH_SIZE]
            neg = negatives[start : start + BATCH_SIZE]
            s_pos, aux_pos = _score_batch(scorer, pos)
            s_neg, aux_neg = _score_batch(scorer, neg)
            m = len(pos)
            if scorer.kind == "translational":
                viol = MARGIN - s_pos + s_neg
                active = viol > 0
                total += float(np.where(active, viol, 0.0).sum())
                ds_pos = -active.astype(np.float64) / m
                ds_neg = active.astype(np.float64) / m
            else:
                total += float(np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum())
                ds_pos = -_sigmoid(-s_pos) / m
                ds_neg = _sigmoid(s_neg) / m

            d_ent = np.zeros_like(scorer.ent)
            d_rel = np.zeros_like(scorer.rel)
            _score_grads(scorer, pos, ds_pos, aux_pos, d_ent, d_rel)
            _score_grads(scorer, neg, ds_neg, aux_neg, d_ent, d_rel)

            opt.step({"ent": d_ent, "rel": d_rel})
        trace.append(total / n)
        logger.debug("scorer epoch %d loss %.6f", epoch, trace[-1])
    return scorer, trace

