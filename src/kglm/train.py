"""Training loop for the bidirectional language model."""

import logging
from typing import NamedTuple

import numpy as np

from . import seeds
from .bilm import bilm_backward, bilm_forward, pack_batch
from .model import init_params, save_checkpoint
from .optim import Adam

logger = logging.getLogger(__name__)


class EpochLoss(NamedTuple):
    """One epoch's mean loss per prediction event, over both directions
    and per direction, each weighted by the batches' event counts."""

    loss: float
    loss_fwd: float
    loss_bwd: float


def train_bilm(corpus, graph, config, checkpoint_path=None, checkpoint_interval=0):
    """Train on a walk :class:`kglm.walker.Corpus`; returns (params,
    trace), with one :class:`EpochLoss` per epoch in the trace.

    Walks are reshuffled every epoch from a seeded stream and batched;
    walks shorter than two tokens are skipped with a logged count.
    With epochs=0 the freshly initialized parameters come back with an
    empty trace.
    """
    usable = corpus[corpus.lengths >= 2]
    skipped = len(corpus) - len(usable)
    if skipped:
        logger.warning("skipped %d untrainable chains (fewer than 2 tokens)", skipped)
    if not len(usable):
        raise ValueError("corpus has no trainable chains")

    params = init_params(config, graph.n_entities, graph.n_relations)

    def _save(path):
        save_checkpoint(path, params, config, graph.entities.items, graph.relations.items)

    trace = []
    opt = Adam(params.flat(), lr=config.learning_rate)
    n = len(usable)
    bs = config.batch_size
    n_batches = -(-n // bs)
    for epoch in range(1, config.epochs + 1):
        order = seeds.derived_rng(config.seed, seeds.SHUFFLE, epoch).permutation(n)
        total = total_fwd = total_bwd = 0.0
        events = 0
        for bi, start in enumerate(range(0, n, bs)):
            idx = order[start : start + bs]
            batch = pack_batch(usable[idx], dtype=config.dtype)
            rng = seeds.derived_rng(config.seed, seeds.DROPOUT, epoch, bi)
            result = bilm_forward(batch, params, config, rng=rng)
            if not np.isfinite(result.loss):
                raise RuntimeError(
                    f"non-finite training loss {result.loss} at epoch {epoch}, batch {bi + 1} of {n_batches}; "
                    "training diverged (try a lower learning rate)"
                )
            grads = bilm_backward(result, params)
            opt.step(grads)
            total += result.loss * result.n_events
            total_fwd += result.loss_fwd * result.n_events
            total_bwd += result.loss_bwd * result.n_events
            events += result.n_events
            del result, grads  # the next batch's forward pass must not hold these caches too
        trace.append(EpochLoss(total / events, total_fwd / events, total_bwd / events))
        logger.info("epoch %d/%d  loss %.6f", epoch, config.epochs, trace[-1].loss)
        if checkpoint_path and checkpoint_interval and epoch % checkpoint_interval == 0:
            _save(checkpoint_path)
    if checkpoint_path:
        _save(checkpoint_path)
    return params, trace
