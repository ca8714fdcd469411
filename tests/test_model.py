import numpy as np
import pytest

from kglm.model import ModelConfig, init_params, load_checkpoint, save_checkpoint


class TestModelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 0},
            {"proj_dim": -1},
            {"dropout": 1.0},
            {"precision": "f16"},
            {"epochs": -1},
            # a negative learning rate once trained uphill without a word
            {"learning_rate": -0.02},
            {"learning_rate": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_dtype(self):
        assert ModelConfig(precision="f32").dtype == np.float32
        assert ModelConfig(precision="f64").dtype == np.float64


class TestInitParams:
    def test_shapes_and_forget_bias(self):
        config = ModelConfig(num_layers=3, hidden_units=8, proj_dim=4, entity_dim=5, relation_dim=3)
        params = init_params(config, 11, 7)
        assert params.ent_emb.shape == (11, 5)
        assert params.rel_emb.shape == (7, 3)
        assert params.fwd[0].Wx.shape == (8, 32)  # layer 1 consumes the pair embedding
        assert params.fwd[1].Wx.shape == (4, 32)  # deeper layers consume projections
        assert params.sm_ent_W.shape == (4, 11)
        for layer in params.fwd + params.bwd:
            np.testing.assert_array_equal(layer.b[8:16], 1.0)
            np.testing.assert_array_equal(layer.b[:8], 0.0)

    def test_seeded_init_reproducible(self):
        config = ModelConfig(num_layers=2, hidden_units=8, proj_dim=4, seed=99)
        a = init_params(config, 5, 4)
        b = init_params(config, 5, 4)
        for name, arr in a.flat().items():
            np.testing.assert_array_equal(arr, b.flat()[name])

    def test_flat_returns_views(self):
        config = ModelConfig(num_layers=1, hidden_units=4, proj_dim=2)
        params = init_params(config, 3, 3)
        params.flat()["ent_emb"][0, 0] = 42.0
        assert params.ent_emb[0, 0] == 42.0


class TestCheckpoint:
    def _roundtrip(self, tmp_path, precision):
        config = ModelConfig(
            num_layers=2, hidden_units=6, proj_dim=3, entity_dim=4, relation_dim=2, precision=precision
        )
        params = init_params(config, 5, 4)
        path = tmp_path / "m.ckpt"
        ents = [f"e{i}" for i in range(5)]
        rels = ["r0", "r1", "r0^-1", "<eos>"]
        save_checkpoint(str(path), params, config, ents, rels)
        loaded, lconfig, lents, lrels = load_checkpoint(str(path))
        assert lents == ents and lrels == rels
        assert lconfig == config
        for name, arr in params.flat().items():
            got = loaded.flat()[name]
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)
        return params, config, ents, rels, path

    def test_round_trip_bit_exact_f32(self, tmp_path):
        self._roundtrip(tmp_path, "f32")

    def test_round_trip_bit_exact_f64(self, tmp_path):
        self._roundtrip(tmp_path, "f64")

    def test_serialization_is_byte_deterministic(self, tmp_path):
        params, config, ents, rels, path = self._roundtrip(tmp_path, "f32")
        other = tmp_path / "again.ckpt"
        save_checkpoint(str(other), params, config, ents, rels)
        assert path.read_bytes() == other.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        params, _, _, _, path = self._roundtrip(tmp_path, "f32")
        n = sum(arr.nbytes for arr in params.flat().values())
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ValueError, match=rf"m\.ckpt: the header lists {n} bytes of arrays, found {n + 4}"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        params, _, _, _, path = self._roundtrip(tmp_path, "f32")
        n = sum(arr.nbytes for arr in params.flat().values())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=rf"m\.ckpt: the header lists {n} bytes of arrays, found {n - 3}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "length,edit,message",
        [
            pytest.param("twelve", lambda t: t, "the header length line is not an integer", id="length"),
            pytest.param(None, lambda t: t[:-1], "the header is not valid JSON", id="json"),
            pytest.param(
                None,
                lambda t: t.replace('"config": {', '"config": {"depth": 3, ', 1),
                "bad model config in the header.*depth",
                id="config-key",
            ),
            pytest.param(None, lambda t: t.replace('"arrays":', '"tensors":', 1), "the header has no arrays", id="arrays"),
            pytest.param(
                None,
                lambda t: t.replace('"entities": ["e0", "e1", "e2", "e3", "e4"]', '"entities": 5', 1),
                "the header's entities and relations must be lists",
                id="entities",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"num_layers": 2', '"num_layers": 3', 1),
                r"array 10 of the header is 'bwd0\.Wx' float32 \(6, 24\), but its config and vocabulary "
                r"make 'fwd2\.Wx' float32 \(3, 24\)",
                id="num-layers",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"num_layers": 2', '"num_layers": 1', 1),
                r"array 6 of the header is 'fwd1\.Wx' float32 \(3, 24\), but .* make 'bwd0\.Wx' float32 \(6, 24\)",
                id="fewer-layers",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"proj_dim": 3', '"proj_dim": 2', 1),
                r"array 3 of the header is 'fwd0\.Wh' float32 \(3, 24\), but .* make 'fwd0\.Wh' float32 \(2, 24\)",
                id="proj-dim",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"dropout"', '"clip_hi": 3.0, "clip_lo": -3.0, "dropout"', 1),
                "bad model config in the header.*clip_hi",
                id="split-clip",
            ),
            # clip and residual are constants, not ModelConfig fields: a
            # header that sets them must not load as if it did not
            pytest.param(
                None,
                lambda t: t.replace('"dropout"', '"clip": 3.0, "dropout"', 1),
                "bad model config in the header.*'clip'",
                id="retired-clip",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"dropout"', '"residual": true, "dropout"', 1),
                "bad model config in the header.*'residual'",
                id="retired-residual",
            ),
            pytest.param(
                None,
                lambda t: t.replace('"hidden_units": 6', '"hidden_units": 6.0', 1),
                "bad model config in the header.*hidden_units must be an integer",
                id="float-size",
            ),
        ],
    )
    def test_malformed_header_names_the_file(self, tmp_path, length, edit, message):
        # the JSON header is edited (its length line set to ``length``, or
        # to the edited text's length) and the arrays are left as they are
        _, _, _, _, path = self._roundtrip(tmp_path, "f32")
        magic, n, rest = path.read_bytes().split(b"\n", 2)
        text = edit(rest[: int(n)].decode("utf-8")).encode("utf-8")
        n_new = (length or str(len(text))).encode("ascii")
        path.write_bytes(magic + b"\n" + n_new + b"\n" + text + rest[int(n) :])
        with pytest.raises(ValueError, match=rf"m\.ckpt: {message}"):
            load_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(p))
        p.write_bytes(b"\x89PNG\r\n")
        with pytest.raises(ValueError, match=r"x\.ckpt: not a checkpoint file"):
            load_checkpoint(str(p))
