"""Hot numeric kernels: the second-order walk sampler and the LSTM gate
math, in numpy.

The walk sampler advances every walk of a corpus in lockstep: step s of
all walks is a few rounds of rejection sampling over the CSR adjacency,
drawn from one generator, and a walk that reaches a dead end drops out.
The gate math is the non-BLAS part of an LSTM step and the only cell
math the LSTM layers use. Matrix products stay in numpy/BLAS.
"""

import numpy as np

__all__ = [
    "neighbor_keys",
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
# A step is rejection-sampled (KnightKing, Yang et al., SOSP 2019): it
# proposes a uniform out-edge and accepts it with probability
# weight / max(1/p, 1, 1/q), redrawing until one is accepted.
# ---------------------------------------------------------------------------


# Once fewer walks than this are pending, a round proposes several edges
# per walk (about this many in all) and each walk takes its first
# accepted one, so a step with a low acceptance rate ends in a few rounds.
PROPOSALS_PER_ROUND = 16384


def neighbor_keys(nbr_off, nbr_sorted):
    """The sorted keys ``src * N + nbr`` of the neighbor sets that
    ``nbr_off``/``nbr_sorted`` hold, for membership tests."""
    n = len(nbr_off) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(nbr_off)) * n + nbr_sorted


def step_choice(adj_off, adj_nbr, nbr_keys, prev, cur, rng, inv_p, inv_q):
    """Advance walks by one step. ``prev`` and ``cur`` are (W,) arrays:
    the previous node (-1 before the first step) and the current node,
    which must have out-edges; ``nbr_keys`` comes from
    :func:`neighbor_keys`. Returns the chosen CSR edge index per walk,
    drawn from ``rng``. A first step is uniform over the out-edges."""
    n = len(adj_off) - 1
    top = max(inv_p, 1.0, inv_q)
    lo = adj_off[cur]
    deg = adj_off[cur + 1] - lo
    edge = np.empty(len(cur), dtype=np.int64)
    pending = np.arange(len(cur))
    while len(pending):
        k = max(1, PROPOSALS_PER_ROUND // len(pending))
        e = lo[pending, None] + rng.integers(deg[pending, None], size=(len(pending), k))
        nbr, back = adj_nbr[e], prev[pending, None]
        key = back * n + nbr
        near = nbr_keys[np.minimum(np.searchsorted(nbr_keys, key), len(nbr_keys) - 1)] == key
        w = np.where(back < 0, top, np.where(nbr == back, inv_p, np.where(near, 1.0, inv_q)))
        ok = rng.random(e.shape) * top < w
        first = ok.argmax(axis=1)
        done = ok[np.arange(len(pending)), first]
        edge[pending[done]] = e[done, first[done]]
        pending = pending[~done]
    return edge


def walk_steps(adj_off, adj_rel, adj_nbr, nbr_off, nbr_sorted, starts, n_steps, rng, inv_p, inv_q):
    """Walk ``n_steps`` steps from each of ``starts`` (W,), drawing from
    ``rng``. Returns (ents (W, n_steps + 1), rels (W, n_steps), steps
    (W,)): row i's first steps[i] + 1 entities and steps[i] relations
    are its walk, which stops early at a dead end; the rest of the row
    is -1."""
    nbr_keys = neighbor_keys(nbr_off, nbr_sorted)
    n_walks = len(starts)
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
        edge = step_choice(adj_off, adj_nbr, nbr_keys, prev, cur, rng, inv_p, inv_q)
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
