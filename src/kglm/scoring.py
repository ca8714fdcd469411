"""Triple scorers and their training.

Two scorer forms: translational (score is the negated L2 distance of
head + relation - tail) and bilinear (trilinear dot product). Higher
score always means more plausible. Tables start random or from the
static contextual-embedding table and are the trainable parameters.
Training protocol is identical across initializations: uniform
corruption negatives, margin ranking loss for the translational form,
logistic loss for the bilinear form, Adam updates.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import seeds
from .optim import Adam

logger = logging.getLogger(__name__)

SCORER_KINDS = ("translational", "bilinear")


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

    def _check(self, h, r, t):
        if not (0 <= h < self.ent.shape[0] and 0 <= t < self.ent.shape[0]):
            raise ValueError(f"unknown entity id in ({h}, {r}, {t})")
        if not 0 <= r < self.rel.shape[0]:
            raise ValueError(f"unknown relation id {r}")

    def score(self, h, r, t):
        self._check(h, r, t)
        if self.kind == "translational":
            return -float(np.linalg.norm(self.ent[h] + self.rel[r] - self.ent[t]))
        return float(np.dot(self.ent[h] * self.rel[r], self.ent[t]))

    def score_all_heads(self, r, t):
        """Scores of (e, r, t) for every entity e."""
        if self.kind == "translational":
            return -np.linalg.norm(self.ent + self.rel[r] - self.ent[t], axis=1)
        return self.ent @ (self.rel[r] * self.ent[t])

    def score_all_tails(self, h, r):
        if self.kind == "translational":
            return -np.linalg.norm(self.ent[h] + self.rel[r] - self.ent, axis=1)
        return self.ent @ (self.ent[h] * self.rel[r])


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


def init_scorer_from_table(entity_vecs, relation_vecs, kind, dim=None, rng=None, standardize=True):
    """Materialize scorer tables from the entity and relation matrices
    of a static embedding table: an optional random projection when dims
    differ, then a standardizing affine map (disable with
    ``standardize=False`` to get the raw vectors)."""
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
    if standardize:
        ent = _standardize(ent, dim)
        rel = _standardize(rel, dim)
    return Scorer(kind=kind, ent=ent, rel=rel)


@dataclass
class ScorerTrainConfig:
    epochs: int = 100
    lr: float = 0.01
    margin: float = 1.0
    negatives: int = 1
    batch_size: int = 512
    seed: int = seeds.DEFAULT_SEED

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


def sample_negatives(triples, known, rng, max_rounds=1000):
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
    for _ in range(max_rounds):
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
        order = shuffle_rng.permutation(n)
        # each positive is paired with `negatives` corruptions per epoch
        pos_rep = np.repeat(train_triples[order], cfg.negatives, axis=0)
        negatives = sample_negatives(pos_rep, known, neg_rng)
        total = 0.0
        bs = cfg.batch_size * cfg.negatives
        for start in range(0, len(pos_rep), bs):
            pos = pos_rep[start : start + bs]
            neg = negatives[start : start + bs]
            s_pos, aux_pos = _score_batch(scorer, pos)
            s_neg, aux_neg = _score_batch(scorer, neg)
            m = len(pos)
            if scorer.kind == "translational":
                viol = cfg.margin - s_pos + s_neg
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
        trace.append(total / len(pos_rep))
        logger.debug("scorer epoch %d loss %.6f", epoch, trace[-1])
    return scorer, trace

