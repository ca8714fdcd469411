"""Bidirectional LSTM language model over (entity, relation) pair tokens.

A walk of k entities is k pair tokens; the last entity pairs with the
end-of-sequence relation. The forward stack predicts the next pair
from the prefix, the backward stack the previous pair from the suffix,
and both share the embedding tables and the factorized softmax heads
(independent entity and relation distributions per position). The loss
is the mean negative log likelihood per predicted position across both
directions. The forward pass takes the heads' gradients where it makes
their probabilities, one block of rows at a time, so no matrix larger
than ``HEAD_BLOCK_CELLS`` logits outlives its block, and backward runs
only the LSTM stacks and the embedding scatter. The two directions'
stacks, forward and backward, and the two row halves of each head block
run on the two workers of :mod:`kglm.workers`.
"""

from dataclasses import dataclass

import numpy as np

from . import workers
from .lstm import CLIP, lstm_layer_backward, lstm_layer_forward


@dataclass
class Batch:
    ents: np.ndarray  # (T, B) int64, padded with 0
    rels: np.ndarray
    mask: np.ndarray  # (T, B) float 0/1: column b's sum is walk b's length


def pack_batch(corpus, dtype=np.float32):
    """The time-major :class:`Batch` of a :class:`kglm.walker.Corpus`,
    cut to its longest walk: the one padding path of training and
    extraction. Walks of any length are kept; a 1-token walk yields no
    prediction event."""
    T = int(corpus.lengths.max())
    return Batch(
        ents=np.ascontiguousarray(corpus.ents[:, :T].T),
        rels=np.ascontiguousarray(corpus.rels[:, :T].T),
        mask=(np.arange(T)[:, None] < corpus.lengths).astype(dtype),
    )


@dataclass
class LayerStates:
    """The 2L+1 vectors of each position: the pair embedding plus each
    layer's forward and backward states. The position axes, (T,) for
    one walk or (T, B) for a batch, lead each array after the layer
    axis."""

    x: np.ndarray  # (T, ..., D)
    fwd: np.ndarray  # (L, T, ..., P)
    bwd: np.ndarray  # (L, T, ..., P)

    @property
    def n_layers(self):
        return self.fwd.shape[0]

    def layer_concat(self):
        """(L, T, ..., 2P): per-layer bidirectional states."""
        return np.concatenate([self.fwd, self.bwd], axis=-1)


@dataclass
class ForwardResult:
    loss: float
    loss_fwd: float
    loss_bwd: float
    n_events: int
    states: LayerStates
    cache: dict


def log_softmax(logits):
    """Row-wise log-softmax; the reference :func:`softmax_nll` is
    tested against."""
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_nll(logits, targets):
    """Row-wise softmax and the negative log likelihood of one target
    per row, computed in place: ``logits`` (M, V) is overwritten with
    the probabilities, which come back as ``probs``.

    ``nll[m] = log(sum(exp(z[m]))) - z[m, targets[m]]`` with ``z`` the
    max-shifted logits, the float formula of ``-log_softmax[m, target]``.
    One exp pass and no (M, V) temporaries: at KG-sized vocabularies the
    heads dominate training and each such matrix is tens of MiB.
    """
    rows = np.arange(logits.shape[0])
    logits -= logits.max(axis=1, keepdims=True)
    z_target = logits[rows, targets]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    return probs, np.log(total[:, 0]) - z_target


def _head(S, W, b, targets):
    """One softmax head: the bias goes into the GEMM output in place."""
    logits = S @ W
    logits += b
    return softmax_nll(logits, targets)


def _dropout_masks(rng, dropout, layers, shape, dtype):
    """One direction's inverted-dropout masks, one per layer: a (T, B, Din)
    mask, or None for the first layer, whose input is the embedding, and
    for every layer at dropout 0."""
    if not dropout:
        return [None] * len(layers)
    keep = 1.0 - dropout
    return [None] + [(rng.random(shape + (layer.Wx.shape[0],)) < keep).astype(dtype) / keep for layer in layers[1:]]


def _direction_forward(x, mask, layers, reverse, train, drop_masks):
    """Run one direction's stack, with ``drop_masks`` (one per layer,
    None for no dropout) on the layers' inputs; returns its per-layer
    outputs and, with ``train``, the caches, dropout masks and residual
    sums backward needs (None without ``train``, which keeps no per-step
    arrays)."""
    inp = x
    caches, res_pre, outs = [], [], []
    for i, (layer, dm) in enumerate(zip(layers, drop_masks)):
        if dm is not None:
            inp = inp * dm
        out, cache = lstm_layer_forward(inp, mask, layer, reverse=reverse, keep_cache=train)
        caches.append(cache)
        s = None
        if i > 0:  # the residual connection, clipped like the projections
            s = out + inp
            out = np.clip(s, -CLIP, CLIP)
        res_pre.append(s if train else None)
        outs.append(out)
        inp = out
    if not train:
        return outs, None
    return outs, {"caches": caches, "drop_masks": drop_masks, "res_pre": res_pre}


# Entity-head logits (rows x |E|) per block of ``_direction_heads``: 16 MiB
# of float32, split between the two workers' row halves, so one block's
# cells are in flight at a time. Below it a direction's heads take one
# block.
HEAD_BLOCK_CELLS = 2**22

_HEAD_GRADS = ("sm_ent_W", "sm_ent_b", "sm_rel_W", "sm_rel_b")


def _direction_heads(top, batch, params, reverse, n_events, head_grads):
    """Both softmax heads of one direction, forward and backward in one
    call: the NLL sum over the direction's events, and ``dtop`` (T, B, P),
    the gradient of the mean loss at its top states. The head blocks'
    gradients are added into ``head_grads``. Event t of the forward
    direction predicts token t+1; the backward direction predicts token
    t-1.

    The M = (T-1)·B rows run in blocks of ``HEAD_BLOCK_CELLS // |E|``
    rows (at least one), and each block's rows in two halves, one per
    worker (:func:`kglm.workers.split_rows`). A half makes its logits,
    probabilities and logit gradient for both heads, its partial head
    gradients and its rows of ``dtop``, then drops them, so at most one
    block's (rows, |E|) and (rows, |R|) matrices are alive. Each block
    sums its two halves' partial gradients, then adds the sum into
    ``head_grads``: one order, whichever worker finishes first. The
    per-row NLLs are gathered and reduced once, so the loss
    does not depend on the block size; the head gradients' sums over rows
    do, in their float rounding."""
    T, B, P = top.shape
    src, tgt = (slice(1, None), slice(None, -1)) if reverse else (slice(None, -1), slice(1, None))
    ev = batch.mask[1:].reshape(-1)
    S = top[src].reshape(-1, P)
    te = batch.ents[tgt].reshape(-1)
    tr = batch.rels[tgt].reshape(-1)
    dtop = np.zeros_like(top)
    dS = dtop[src].reshape(-1, P)  # a view: the halves write dtop's rows

    def half(blk):
        probs_e, nll_e = _head(S[blk], params.sm_ent_W, params.sm_ent_b, te[blk])
        probs_r, nll_r = _head(S[blk], params.sm_rel_W, params.sm_rel_b, tr[blk])
        # Each row's logit gradient is (probs - onehot) * ev / n_events. The
        # probabilities become (probs - onehot) in place, and the row weights
        # go on the (rows, P) side of each product, never over (rows, |V|).
        rows = np.arange(len(probs_e))
        weight = (ev[blk] / n_events).astype(probs_e.dtype)
        dlog_e = probs_e
        dlog_e[rows, te[blk]] -= 1.0
        dlog_r = probs_r
        dlog_r[rows, tr[blk]] -= 1.0
        Sw = S[blk] * weight[:, None]
        grads = (Sw.T @ dlog_e, weight @ dlog_e, Sw.T @ dlog_r, weight @ dlog_r)

        np.matmul(dlog_e, params.sm_ent_W.T, out=dS[blk])
        dS[blk] += dlog_r @ params.sm_rel_W.T
        dS[blk] *= weight[:, None]
        return nll_e, nll_r, grads

    step = max(1, HEAD_BLOCK_CELLS // params.sm_ent_W.shape[1])
    nll_e, nll_r = [], []
    for r0 in range(0, len(S), step):
        first, second = workers.split_rows(half, r0, min(r0 + step, len(S)))
        nll_e += [first[0], second[0]]
        nll_r += [first[1], second[1]]
        for name, g1, g2 in zip(_HEAD_GRADS, first[2], second[2]):
            g1 += g2
            head_grads[name] += g1
        del first, second  # the partial gradients do not outlive their block
    total = float(((np.concatenate(nll_e) + np.concatenate(nll_r)) * ev).sum())
    return total, dtop


def bilm_states(batch, params, config, train=False, rng=None):
    """Gather the pair embeddings and run both direction stacks; no
    softmax heads. Returns (states, caches). With ``train`` dropout is
    drawn from ``rng`` and ``caches`` holds what :func:`bilm_backward`
    needs from the stacks: each layer's per-step BPTT arrays (see
    :func:`~kglm.lstm.lstm_layer_forward`), dropout masks and residual
    sums. Without it no dropout is applied, ``caches`` is None, and only
    the embeddings and every layer's outputs are kept.

    The two directions run on the two workers. Their dropout masks are
    drawn before either starts, the forward direction's first, so the
    stream does not depend on which worker gets ahead."""
    x = np.concatenate(
        [params.ent_emb[batch.ents], params.rel_emb[batch.rels]], axis=2
    )
    dropout = config.dropout if train else 0.0
    drop_f = _dropout_masks(rng, dropout, params.fwd, batch.ents.shape, x.dtype)
    drop_b = _dropout_masks(rng, dropout, params.bwd, batch.ents.shape, x.dtype)
    (outs_f, cache_f), (outs_b, cache_b) = workers.run_pair(
        lambda: _direction_forward(x, batch.mask, params.fwd, False, train, drop_f),
        lambda: _direction_forward(x, batch.mask, params.bwd, True, train, drop_b),
    )
    states = LayerStates(x=x, fwd=np.stack(outs_f), bwd=np.stack(outs_b))
    return states, ({"fwd": cache_f, "bwd": cache_b} if train else None)


def bilm_forward(batch, params, config, rng=None):
    """Full training forward pass, with dropout drawn from ``rng``. The
    softmax heads' gradients are taken here, where their probabilities
    are made; the returned cache holds them and each direction's
    gradient at its top states, for :func:`bilm_backward`."""
    if config.dropout > 0.0 and rng is None:
        raise ValueError("a forward pass with dropout needs an rng")
    n_dir = float(batch.mask[1:].sum())
    if not n_dir:
        raise ValueError("the batch has no walk of two or more tokens, so nothing to predict")
    states, stack_caches = bilm_states(batch, params, config, train=True, rng=rng)

    n_events = int(2 * n_dir)
    head_grads = {name: np.zeros_like(arr) for name, arr in params.flat().items() if name.startswith("sm_")}
    sum_f, dtop_f = _direction_heads(states.fwd[-1], batch, params, False, n_events, head_grads)
    sum_b, dtop_b = _direction_heads(states.bwd[-1], batch, params, True, n_events, head_grads)
    loss = (sum_f + sum_b) / n_events
    return ForwardResult(
        loss=loss,
        loss_fwd=sum_f / n_dir,
        loss_bwd=sum_b / n_dir,
        n_events=n_events,
        states=states,
        cache={
            "batch": batch,
            **stack_caches,
            "dtop": {"fwd": dtop_f, "bwd": dtop_b},
            "head_grads": head_grads,
        },
    )


def _direction_backward(tag, dtop, dir_cache, layers, grads):
    dcur = dtop
    for i in range(len(layers) - 1, -1, -1):
        s = dir_cache["res_pre"][i]
        if s is not None:  # through the residual clip, to the layer and its input alike
            dcur = dcur * ((s > -CLIP) & (s < CLIP))
        dinp, lgrads = lstm_layer_backward(dcur, dir_cache["caches"][i], layers[i])
        for k, v in lgrads.items():
            grads[f"{tag}{i}.{k}"] += v
        if s is not None:
            dinp = dinp + dcur
        dm = dir_cache["drop_masks"][i]
        if dm is not None:
            dinp = dinp * dm
        dcur = dinp
    return dcur


def bilm_backward(result, params):
    """Gradients of the mean loss for every parameter block, from the
    forward result's cache, which it leaves unchanged. The two
    directions' BPTT runs on the two workers, each writing only its own
    stack's gradient blocks."""
    cache = result.cache
    batch = cache["batch"]
    grads = {name: np.zeros_like(arr) for name, arr in params.flat().items()}
    grads.update({name: g.copy() for name, g in cache["head_grads"].items()})
    dx_f, dx_b = workers.run_pair(
        lambda: _direction_backward("fwd", cache["dtop"]["fwd"], cache["fwd"], params.fwd, grads),
        lambda: _direction_backward("bwd", cache["dtop"]["bwd"], cache["bwd"], params.bwd, grads),
    )
    dx = dx_f + dx_b
    dx *= batch.mask[:, :, None]
    d_e = params.ent_emb.shape[1]
    np.add.at(grads["ent_emb"], batch.ents, dx[:, :, :d_e])
    np.add.at(grads["rel_emb"], batch.rels, dx[:, :, d_e:])
    return grads
