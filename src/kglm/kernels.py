"""Hot numeric kernels: the second-order walk sampler and the LSTM gate
math.

The walk sampler (a scalar loop over adjacency, the hot path of corpus
generation) has a numba-jitted and a pure-numpy variant, chosen once at
import time: setting ``KGLM_DISABLE_NUMBA=1`` (or numba being
unavailable; it is the optional ``jit`` extra) selects the numpy
fallback. Both variants implement the same arithmetic and produce
bitwise-identical walks.

The gate math (the non-BLAS part of an LSTM step) has one numpy
implementation, the only cell math the LSTM layers use. Matrix products
stay in numpy/BLAS.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "walk_steps",
    "step_choice",
    "lstm_gates_forward",
    "lstm_gates_backward",
]


def _env_disabled():
    return os.environ.get("KGLM_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


# ---------------------------------------------------------------------------
# Walk sampling.
#
# Edge weights follow the second-order rule: 1/p for returning to the
# previous node, 1 for neighbors of the previous node, 1/q otherwise.
# Selection draws one uniform per step and picks the first edge whose
# cumulative weight exceeds u * total (left-to-right accumulation, so
# the jit and numpy paths see identical partial sums).
# ---------------------------------------------------------------------------


def _step_choice_py(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, u):
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


def _walk_steps_py(adj_off, adj_rel, adj_nbr, nbr_off, nbr_sorted, start, n_steps, inv_p, inv_q, uniforms):
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
        idx = _step_choice_py(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, uniforms[s])
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


NUMBA_ENABLED = False

if not _env_disabled():
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        NUMBA_ENABLED = True

        @njit(cache=True, nogil=True)
        def _contains_sorted(arr, lo, hi, x):
            while lo < hi:
                mid = (lo + hi) // 2
                v = arr[mid]
                if v == x:
                    return True
                if v < x:
                    lo = mid + 1
                else:
                    hi = mid
            return False

        @njit(cache=True, nogil=True)
        def _step_choice_jit(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, u):
            n = hi - lo
            total = 0.0
            for k in range(n):
                x = adj_nbr[lo + k]
                if prev < 0:
                    w = 1.0
                elif x == prev:
                    w = inv_p
                elif _contains_sorted(nbr_sorted, nbr_off[prev], nbr_off[prev + 1], x):
                    w = 1.0
                else:
                    w = inv_q
                total += w
            thr = u * total
            acc = 0.0
            for k in range(n):
                x = adj_nbr[lo + k]
                if prev < 0:
                    w = 1.0
                elif x == prev:
                    w = inv_p
                elif _contains_sorted(nbr_sorted, nbr_off[prev], nbr_off[prev + 1], x):
                    w = 1.0
                else:
                    w = inv_q
                acc += w
                if thr < acc:
                    return k
            return n - 1

        @njit(cache=True, nogil=True)
        def _walk_steps_jit(adj_off, adj_rel, adj_nbr, nbr_off, nbr_sorted, start, n_steps, inv_p, inv_q, uniforms):
            ents = np.empty(n_steps + 1, dtype=np.int64)
            rels = np.empty(n_steps, dtype=np.int64)
            ents[0] = start
            prev = -1
            cur = start
            k = 0
            for s in range(n_steps):
                lo = adj_off[cur]
                hi = adj_off[cur + 1]
                if hi == lo:
                    break
                idx = _step_choice_jit(adj_rel, adj_nbr, lo, hi, nbr_off, nbr_sorted, prev, inv_p, inv_q, uniforms[s])
                rels[k] = adj_rel[lo + idx]
                ents[k + 1] = adj_nbr[lo + idx]
                k += 1
                prev = cur
                cur = ents[k]
            return ents, rels, k


if NUMBA_ENABLED:
    walk_steps = _walk_steps_jit
    step_choice = _step_choice_jit
else:
    walk_steps = _walk_steps_py
    step_choice = _step_choice_py
