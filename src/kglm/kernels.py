"""Hot numeric kernels: the second-order walk sampler and the LSTM gate
math, in numpy.

The walk sampler advances every walk of a corpus in lockstep: step s of
all walks is one set of array operations over the CSR adjacency, and a
walk that reaches a dead end drops out. The gate math is the non-BLAS
part of an LSTM step and the only cell math the LSTM layers use. Matrix
products stay in numpy/BLAS.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "WalkIndex",
    "walk_index",
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
# cumulative weight exceeds u * total, the last edge if none does.
#
# Only the exception edges (weight 1/p or 1) are materialised. The
# cumulative weight of edges 0..j is c_q(j)/q + c_1(j) + c_p(j)/p with
# integer counts per weight class, so the pick is a bisection over j.
# With dyadic 1/p and 1/q every partial sum is exact, and the pick
# equals the one a sequential cumulative sum over the edge weights makes.
# ---------------------------------------------------------------------------


class WalkIndex(NamedTuple):
    """The CSR arrays a step reads, plus the edges grouped by key
    ``src * N + nbr``: ``nbr_keys`` holds each key once, in ascending
    order, and the edges with key ``nbr_keys[i]`` are
    ``edge_order[run_first[i] : run_first[i] + run_len[i]]``, in CSR
    order."""

    adj_off: np.ndarray
    adj_nbr: np.ndarray
    nbr_off: np.ndarray
    nbr_sorted: np.ndarray
    nbr_keys: np.ndarray
    run_first: np.ndarray
    run_len: np.ndarray
    edge_order: np.ndarray


def walk_index(adj_off, adj_nbr, nbr_off, nbr_sorted):
    """Group the CSR edges by their (src, nbr) key; see :class:`WalkIndex`."""
    n = len(adj_off) - 1
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj_off)) * n + adj_nbr
    order = np.argsort(keys, kind="stable")
    nbr_keys, run_first, run_len = np.unique(keys[order], return_index=True, return_counts=True)
    return WalkIndex(adj_off, adj_nbr, nbr_off, nbr_sorted, nbr_keys, run_first, run_len, order)


def _ranges(counts):
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _find(index, keys):
    """(position in ``nbr_keys``, found) of each key."""
    i = np.minimum(np.searchsorted(index.nbr_keys, keys), len(index.nbr_keys) - 1)
    return i, index.nbr_keys[i] == keys


def _exceptions(index, prev, cur, lo, deg):
    """(row, edge position, is-return) of every out-edge of ``cur`` that
    does not weigh 1/q: edges back to ``prev`` and edges to a neighbor of
    ``prev``. Each row is looked up from its smaller side."""
    n = len(index.adj_off) - 1
    pdeg = index.nbr_off[prev + 1] - index.nbr_off[prev]
    fwd = np.flatnonzero(deg <= pdeg)
    rev = np.flatnonzero(deg > pdeg)

    # forward: test each edge of cur for membership in N(prev)
    rows_f = np.repeat(fwd, deg[fwd])
    pos_f = _ranges(deg[fwd])
    nbr = index.adj_nbr[lo[rows_f] + pos_f]
    back = nbr == prev[rows_f]
    keep = back | _find(index, prev[rows_f] * n + nbr)[1]

    # reverse: look up the edges cur -> x for each x in N(prev), and cur -> prev
    rows_x = np.repeat(rev, pdeg[rev])
    x = index.nbr_sorted[index.nbr_off[prev[rows_x]] + _ranges(pdeg[rev])]
    other = x != prev[rows_x]
    q_rows = np.concatenate([rows_x[other], rev])
    q_back = np.concatenate([np.zeros(np.count_nonzero(other), dtype=bool), np.ones(len(rev), dtype=bool)])
    run, found = _find(index, cur[q_rows] * n + np.concatenate([x[other], prev[rev]]))
    count = np.where(found, index.run_len[run], 0)
    rows_r = np.repeat(q_rows, count)
    edges = index.edge_order[np.repeat(index.run_first[run], count) + _ranges(count)]

    rows = np.concatenate([rows_f[keep], rows_r])
    pos = np.concatenate([pos_f[keep], edges - lo[rows_r]])
    is_back = np.concatenate([back[keep], np.repeat(q_back, count)])
    return rows, pos, is_back


def _biased_choice(index, prev, cur, lo, deg, u, inv_p, inv_q):
    """Edge position in [0, deg) of one second-order step per row."""
    rows, pos, is_back = _exceptions(index, prev, cur, lo, deg)
    # one sorted array of exception keys (row * span + pos) * 2 + is-return
    span = int(deg.max())
    exc = np.sort((rows * span + pos) * 2 + is_back)
    n_back = np.concatenate([[0], np.cumsum(exc & 1)])
    row_key = np.arange(len(cur), dtype=np.int64) * span
    base = np.searchsorted(exc, row_key * 2)

    def weight(j):
        """Cumulative weight of edges 0..j of each row."""
        end = np.searchsorted(exc, (row_key + j) * 2 + 1, side="right")
        c_exc = end - base
        c_p = n_back[end] - n_back[base]
        return (j + 1 - c_exc) * inv_q + (c_exc - c_p) + c_p * inv_p

    threshold = u * weight(deg - 1)
    left = np.zeros(len(cur), dtype=np.int64)
    right = deg - 1
    for _ in range(int(right.max()).bit_length()):
        mid = (left + right) >> 1
        above = weight(mid) > threshold
        right = np.where(above, mid, right)
        left = np.where(above, left, np.minimum(mid + 1, right))
    return left


def step_choice(index, prev, cur, u, inv_p, inv_q):
    """Advance walks by one step. ``prev``, ``cur`` and ``u`` are (W,)
    arrays: the previous node (-1 before the first step), the current
    node, which must have out-edges, and one uniform in [0, 1) per walk.
    Returns the chosen CSR edge index per walk. A first step is uniform
    over the out-edges, edge min(floor(u * deg), deg - 1)."""
    lo = index.adj_off[cur]
    deg = index.adj_off[cur + 1] - lo
    k = np.minimum(np.floor(u * deg).astype(np.int64), deg - 1)
    later = np.flatnonzero(prev >= 0)
    if len(later):
        k[later] = _biased_choice(index, prev[later], cur[later], lo[later], deg[later], u[later], inv_p, inv_q)
    return lo + k


def walk_steps(adj_off, adj_rel, adj_nbr, nbr_off, nbr_sorted, starts, uniforms, inv_p, inv_q):
    """Walk from each of ``starts`` (W,), taking step s of walk i with
    ``uniforms[i, s]`` (W, S). Returns (ents (W, S + 1), rels (W, S),
    steps (W,)): row i's first steps[i] + 1 entities and steps[i]
    relations are its walk, which stops early at a dead end; the rest
    of the row is -1."""
    index = walk_index(adj_off, adj_nbr, nbr_off, nbr_sorted)
    n_walks, n_steps = uniforms.shape
    ents = np.full((n_walks, n_steps + 1), -1, dtype=np.int64)
    rels = np.full((n_walks, n_steps), -1, dtype=np.int64)
    steps = np.zeros(n_walks, dtype=np.int64)
    ents[:, 0] = starts
    active = np.arange(n_walks)
    prev = np.full(n_walks, -1, dtype=np.int64)
    for s in range(n_steps):
        cur = ents[active, s]
        alive = adj_off[cur + 1] > adj_off[cur]
        active, prev, cur = active[alive], prev[alive], cur[alive]
        if not len(active):
            break
        edge = step_choice(index, prev, cur, uniforms[active, s], inv_p, inv_q)
        rels[active, s] = adj_rel[edge]
        ents[active, s + 1] = adj_nbr[edge]
        steps[active] += 1
        prev = cur
    return ents, rels, steps


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
