"""Hot numeric kernels: the second-order walk sampler and the LSTM gate
math, in numpy.

The walk sampler is a per-walk loop over CSR adjacency, the hot path of
corpus generation; each step vectorises over the current node's
out-edges. The gate math is the non-BLAS part of an LSTM step and the
only cell math the LSTM layers use. Matrix products stay in numpy/BLAS.
"""

import numpy as np

__all__ = [
    "walk_steps",
    "step_choice",
    "lstm_gates_forward",
    "lstm_gates_backward",
]


# ---------------------------------------------------------------------------
# Walk sampling.
#
# Edge weights follow the second-order rule: 1/p for returning to the
# previous node, 1 for neighbors of the previous node, 1/q otherwise.
# Selection draws one uniform per step and picks the first edge whose
# cumulative weight exceeds u * total.
# ---------------------------------------------------------------------------


def step_choice(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, u):
    """Pick an edge index in [0, hi-lo) for the step out of the node whose
    adjacency slice is [lo, hi)."""
    nbrs = adj_nbr[lo:hi]
    n = hi - lo
    if prev < 0:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.full(n, inv_q, dtype=np.float64)
        plo = nbr_off[prev]
        phi = nbr_off[prev + 1]
        prev_nbrs = nbr_sorted[plo:phi]
        if phi > plo:
            pos = np.searchsorted(prev_nbrs, nbrs)
            pos_c = np.minimum(pos, phi - plo - 1)
            w[prev_nbrs[pos_c] == nbrs] = 1.0
        w[nbrs == prev] = inv_p
    cum = np.cumsum(w)
    k = int(np.searchsorted(cum, u * cum[-1], side="right"))
    if k >= n:
        k = n - 1
    return k


def walk_steps(adj_off, adj_rel, adj_nbr, nbr_off, nbr_sorted, start, n_steps, inv_p, inv_q, uniforms):
    """Walk up to ``n_steps`` from ``start``, one uniform per step.
    Returns (entities, relations, k): the first k+1 entities and k
    relations are the walk, which stops early at a dead end."""
    ents = np.empty(n_steps + 1, dtype=np.int64)
    rels = np.empty(n_steps, dtype=np.int64)
    ents[0] = start
    prev = -1
    cur = int(start)
    k = 0
    for s in range(n_steps):
        lo = adj_off[cur]
        hi = adj_off[cur + 1]
        if hi == lo:
            break
        idx = step_choice(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, uniforms[s])
        rels[k] = adj_rel[lo + idx]
        ents[k + 1] = adj_nbr[lo + idx]
        k += 1
        prev = cur
        cur = int(ents[k])
    return ents, rels, k


def lstm_gates_forward(a, c_prev):
    """Activate preactivations ``a`` (B, 4H) in gate order [i|f|g|o] and
    advance the cell state. Returns (act, c, tanh_c, hc)."""
    h = c_prev.shape[1]
    act = np.empty_like(a)
    act[:, : 2 * h] = 1.0 / (1.0 + np.exp(-a[:, : 2 * h]))
    act[:, 2 * h : 3 * h] = np.tanh(a[:, 2 * h : 3 * h])
    act[:, 3 * h :] = 1.0 / (1.0 + np.exp(-a[:, 3 * h :]))
    c = act[:, h : 2 * h] * c_prev + act[:, :h] * act[:, 2 * h : 3 * h]
    tanh_c = np.tanh(c)
    hc = act[:, 3 * h :] * tanh_c
    return act, c, tanh_c, hc


def lstm_gates_backward(dhc, dc_in, act, c_prev, tanh_c):
    """Elementwise backward of the gate math. Returns (da, dc_prev)."""
    h = c_prev.shape[1]
    i = act[:, :h]
    f = act[:, h : 2 * h]
    g = act[:, 2 * h : 3 * h]
    o = act[:, 3 * h :]
    dc = dc_in + dhc * o * (1.0 - tanh_c * tanh_c)
    da = np.empty_like(act)
    da[:, :h] = dc * g * i * (1.0 - i)
    da[:, h : 2 * h] = dc * c_prev * f * (1.0 - f)
    da[:, 2 * h : 3 * h] = dc * i * (1.0 - g * g)
    da[:, 3 * h :] = dhc * tanh_c * o * (1.0 - o)
    dc_prev = dc * f
    return da, dc_prev
