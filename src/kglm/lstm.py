"""Time-unrolled projected LSTM layer with manual backpropagation
through time.

Each step computes gates [i|f|g|o] from input and recurrent state,
advances the cell state, then linearly projects the hidden vector and
clips it to [-CLIP, CLIP]; the clipped projection is both the layer
output and the recurrent state. Saturated components pass zero gradient.
Padded positions (mask 0) carry state through unchanged in both passes.
A training forward keeps every step's gates and states for backward; an
inference forward keeps only the layer's outputs.
"""

import numpy as np

from . import kernels

# the projection clip half-range of the ELMo reference model
CLIP = 3.0


def lstm_layer_forward(inputs, mask, layer, reverse=False, keep_cache=True):
    """Run a layer over (T, B, Din) inputs with (T, B) mask.

    Returns (out, cache); out[t] is the carried state, so padded
    positions repeat the last real state (they are excluded from the
    loss by the same mask). With ``keep_cache`` the cache holds what
    :func:`lstm_layer_backward` reads: every step's gate activations
    (T, B, 4H), previous cell state, tanh of the cell state and gated
    hidden vector (T, B, H) each, and the unclipped projection and
    previous recurrent state (T, B, P) each. Without it the cache is
    None, and only ``out`` and one step's gates are alive at a time.
    """
    T, B, Din = inputs.shape
    if Din != layer.Wx.shape[0]:
        raise ValueError(f"input dim {Din} != weight fan-in {layer.Wx.shape[0]}")
    H = layer.Wp.shape[0]
    P = layer.Wp.shape[1]
    dt = inputs.dtype
    out = np.empty((T, B, P), dtype=dt)
    if keep_cache:
        act = np.empty((T, B, 4 * H), dtype=dt)
        cprev = np.empty((T, B, H), dtype=dt)
        tanh_c = np.empty((T, B, H), dtype=dt)
        hc = np.empty((T, B, H), dtype=dt)
        proj = np.empty((T, B, P), dtype=dt)
        hprev = np.empty((T, B, P), dtype=dt)

    h = np.zeros((B, P), dtype=dt)
    c = np.zeros((B, H), dtype=dt)
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        # the input GEMM one step at a time: the same per-step products a
        # (T, B, Din) @ (Din, 4H) matmul makes, without a (T, B, 4H) array
        a = inputs[t] @ layer.Wx
        a += layer.b
        a += h @ layer.Wh
        act_t, c_new, tanh_c_t, hc_t = kernels.lstm_gates_forward(a, c)
        proj_t = hc_t @ layer.Wp
        if keep_cache:
            hprev[t], cprev[t], act[t], tanh_c[t], hc[t], proj[t] = h, c, act_t, tanh_c_t, hc_t, proj_t
        h_new = np.clip(proj_t, -CLIP, CLIP)
        m = mask[t][:, None]
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        out[t] = h

    if not keep_cache:
        return out, None
    cache = {
        "inputs": inputs,
        "mask": mask,
        "act": act,
        "cprev": cprev,
        "tanh_c": tanh_c,
        "hc": hc,
        "proj": proj,
        "hprev": hprev,
        "reverse": reverse,
    }
    return out, cache


def lstm_layer_backward(dout, cache, layer):
    """BPTT through one layer. Returns (dinputs, grads dict)."""
    inputs = cache["inputs"]
    mask = cache["mask"]
    T, B, Din = inputs.shape
    H = layer.Wp.shape[0]
    dt = inputs.dtype

    da_all = np.zeros((T, B, 4 * H), dtype=dt)
    dp_all = np.zeros_like(cache["proj"])
    dh = np.zeros((B, layer.Wp.shape[1]), dtype=dt)
    dc = np.zeros((B, H), dtype=dt)

    order = range(T - 1, -1, -1) if cache["reverse"] else range(T)
    for t in reversed(order):
        m = mask[t][:, None]
        dh_total = dh + dout[t]
        dh_new = m * dh_total
        carry_h = (1.0 - m) * dh_total
        dc_new = m * dc
        carry_c = (1.0 - m) * dc

        p = cache["proj"][t]
        dp = dh_new * ((p > -CLIP) & (p < CLIP))
        dp_all[t] = dp
        dhc = dp @ layer.Wp.T
        da, dc_prev = kernels.lstm_gates_backward(dhc, dc_new, cache["act"][t], cache["cprev"][t], cache["tanh_c"][t])
        da_all[t] = da
        dh = da @ layer.Wh.T + carry_h
        dc = dc_prev + carry_c

    flat_in = inputs.reshape(T * B, Din)
    flat_da = da_all.reshape(T * B, 4 * H)
    grads = {
        "Wx": flat_in.T @ flat_da,
        "Wh": cache["hprev"].reshape(T * B, -1).T @ flat_da,
        "b": flat_da.sum(axis=0),
        "Wp": cache["hc"].reshape(T * B, H).T @ dp_all.reshape(T * B, -1),
    }
    dinputs = (flat_da @ layer.Wx.T).reshape(T, B, Din)
    return dinputs, grads
