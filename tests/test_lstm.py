import numpy as np
import pytest

from kglm import kernels
from kglm.lstm import lstm_layer_backward, lstm_layer_forward
from kglm.model import LSTMLayerParams


def _layer(rng, din, hidden, proj, dtype=np.float64, scale=0.3):
    return LSTMLayerParams(
        Wx=(rng.normal(size=(din, 4 * hidden)) * scale).astype(dtype),
        Wh=(rng.normal(size=(proj, 4 * hidden)) * scale).astype(dtype),
        b=(rng.normal(size=4 * hidden) * scale).astype(dtype),
        Wp=(rng.normal(size=(hidden, proj)) * scale).astype(dtype),
    )


def _zero_layer(din, hidden, proj, dtype=np.float64):
    return LSTMLayerParams(
        Wx=np.zeros((din, 4 * hidden), dtype=dtype),
        Wh=np.zeros((proj, 4 * hidden), dtype=dtype),
        b=np.zeros(4 * hidden, dtype=dtype),
        Wp=np.zeros((hidden, proj), dtype=dtype),
    )


class TestCell:
    """One-step layer calls: the cell math of a single time step."""

    def test_zero_weights_zero_output(self):
        layer = _zero_layer(3, 4, 2)
        x = np.random.default_rng(0).normal(size=(1, 5, 3))
        out, cache = lstm_layer_forward(x, np.ones((1, 5)), layer)
        assert np.array_equal(out, np.zeros((1, 5, 2)))
        assert np.array_equal(cache["tanh_c"], np.zeros((1, 5, 4)))  # new cell state is 0

    def test_projection_clipped_to_range(self):
        # saturating biases force hc towards 1, huge Wp pushes the
        # projection to ~5+ before the clip
        layer = _zero_layer(2, 4, 3)
        layer.b[:] = 20.0
        layer.Wp[:] = 2.0
        out, cache = lstm_layer_forward(np.zeros((1, 1, 2)), np.ones((1, 1)), layer)
        assert cache["proj"].max() > 3.0
        assert np.all(out <= 3.0) and out.max() == 3.0

    def test_dimension_mismatch(self):
        layer = _zero_layer(3, 4, 2)
        with pytest.raises(ValueError, match="fan-in"):
            lstm_layer_forward(np.zeros((1, 2, 5)), np.ones((1, 2)), layer)

    def test_cell_gradients_match_finite_differences(self):
        # the gate math of one step, with a carried cell state and upstream
        # gradients on both the gated hidden vector and the new cell state;
        # the weights, input and recurrent state reach it only through ``a``
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 16))
        c_prev = rng.normal(size=(5, 4)) * 0.5
        R_h = rng.normal(size=(5, 4))
        R_c = rng.normal(size=(5, 4))

        def loss():
            _, c, _, hc = kernels.lstm_gates_forward(a, c_prev)
            return float((hc * R_h).sum() + (c * R_c).sum())

        act, _, tanh_c, _ = kernels.lstm_gates_forward(a, c_prev)
        da, dc_prev = kernels.lstm_gates_backward(R_h, R_c, act, c_prev, tanh_c)

        eps = 1e-5
        for name, arr, g in [("a", a, da), ("c_prev", c_prev, dc_prev)]:
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                up = loss()
                flat[k] = orig - eps
                down = loss()
                flat[k] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-6)
                assert rel < 1e-4, f"{name}[{k}]: fd={fd} analytic={gflat[k]}"


class TestLayer:
    def test_reverse_equals_flipped_forward(self):
        rng = np.random.default_rng(6)
        layer = _layer(rng, 3, 4, 2)
        x = rng.normal(size=(5, 2, 3))
        mask = np.ones((5, 2))
        fwd, _ = lstm_layer_forward(x[::-1].copy(), mask, layer, reverse=False)
        rev, _ = lstm_layer_forward(x, mask, layer, reverse=True)
        np.testing.assert_allclose(rev, fwd[::-1], atol=1e-12)

    def test_padded_positions_carry_state(self):
        rng = np.random.default_rng(7)
        layer = _layer(rng, 3, 4, 2)
        x = rng.normal(size=(6, 1, 3))
        mask = np.ones((6, 1))
        mask[4:] = 0.0
        out, _ = lstm_layer_forward(x, mask, layer)
        assert np.array_equal(out[4], out[3])
        assert np.array_equal(out[5], out[3])

    def test_layer_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        layer = _layer(rng, 3, 4, 2)
        x = rng.normal(size=(5, 3, 3))
        mask = np.ones((5, 3))
        mask[3:, 1] = 0.0  # one short sequence
        R = rng.normal(size=(5, 3, 2))

        def loss():
            out, _ = lstm_layer_forward(x, mask, layer)
            return float((out * R).sum())

        out, cache = lstm_layer_forward(x, mask, layer)
        dx, grads = lstm_layer_backward(R, cache, layer)
        eps = 1e-5
        for arr, g in [
            (layer.Wx, grads["Wx"]),
            (layer.Wh, grads["Wh"]),
            (layer.b, grads["b"]),
            (layer.Wp, grads["Wp"]),
            (x, dx),
        ]:
            flat = arr.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            idx = np.random.default_rng(9).choice(flat.size, size=min(6, flat.size), replace=False)
            for k in idx:
                orig = flat[k]
                flat[k] = orig + eps
                up = loss()
                flat[k] = orig - eps
                down = loss()
                flat[k] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-6)
                assert rel < 1e-4
