import numpy as np
import pytest

from kglm import bilm, gradcheck
from kglm.bilm import (
    bilm_backward,
    bilm_forward,
    bilm_states,
    log_softmax,
    pack_batch,
    softmax_nll,
)
from kglm.cli import GRADCHECK_TOLERANCE
from kglm.gradcheck import run_gradcheck
from kglm.model import ModelConfig, init_params
from kglm.walker import Corpus, WalkConfig, generate_corpus, read_corpus

from conftest import pair_corpus


def small_config(**overrides):
    base = dict(
        num_layers=2,
        hidden_units=8,
        proj_dim=4,
        entity_dim=5,
        relation_dim=3,
        dropout=0.0,
        batch_size=8,
        precision="f64",
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_batch(rng, n_ent, n_rel, n_seqs=5, max_len=6, dtype=np.float64):
    pairs = []
    for _ in range(n_seqs):
        n = int(rng.integers(2, max_len + 1))
        pairs.append((rng.integers(n_ent, size=n), rng.integers(n_rel, size=n)))
    return pack_batch(pair_corpus(pairs), dtype=dtype)


def batch_of_lengths(rng, n_ent, n_rel, lengths, dtype=np.float64):
    return pack_batch(pair_corpus([(rng.integers(n_ent, size=n), rng.integers(n_rel, size=n)) for n in lengths]),
                      dtype=dtype)


class TestTokenize:
    def test_simple_chain(self, path_graph, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("b r2 c\n", encoding="utf-8")
        corpus = read_corpus(str(path), path_graph)
        assert corpus.ents.tolist() == [[1, 2]]
        assert corpus.rels.tolist() == [[1, path_graph.eos_id]]

    def test_21_token_chain_gives_11_pairs(self, ring_graph):
        corpus = generate_corpus(ring_graph, WalkConfig(walks_per_node=1, walk_length=21))
        assert corpus.lengths.tolist() == [11] * ring_graph.n_entities
        # 10 forward prediction targets (positions 2..11)
        assert pack_batch(corpus).mask[1:].sum(axis=0).tolist() == [10] * ring_graph.n_entities


class TestPackBatch:
    def test_ragged_corpus_equals_hand_padded_batch(self):
        # walks of 3, 1 and 2 tokens; padding is 0 and the batch is cut
        # to the longest walk
        corpus = Corpus(
            ents=np.array([[4, 5, 6, 0], [7, 0, 0, 0], [8, 9, 0, 0]]),
            rels=np.array([[1, 2, 3, 0], [3, 0, 0, 0], [2, 3, 0, 0]]),
            lengths=np.array([3, 1, 2]),
        )
        batch = pack_batch(corpus, dtype=np.float64)
        np.testing.assert_array_equal(batch.ents, [[4, 7, 8], [5, 0, 9], [6, 0, 0]])
        np.testing.assert_array_equal(batch.rels, [[1, 3, 2], [2, 0, 3], [3, 0, 0]])
        np.testing.assert_array_equal(batch.mask, [[1, 1, 1], [1, 0, 1], [1, 0, 0]])
        assert batch.mask.dtype == np.float64
        assert batch.ents.flags.c_contiguous and batch.rels.flags.c_contiguous


class TestForward:
    def test_uniform_logits_loss(self):
        # zeroed softmax heads force uniform distributions:
        # per-position per-direction loss is ln|E| + ln|R|
        config = small_config()
        params = init_params(config, 3, 2)
        params.sm_ent_W[:] = 0.0
        params.sm_ent_b[:] = 0.0
        params.sm_rel_W[:] = 0.0
        params.sm_rel_b[:] = 0.0
        batch = random_batch(np.random.default_rng(0), 3, 2)
        result = bilm_forward(batch, params, config)
        expected = np.log(3.0) + np.log(2.0)
        assert result.loss == pytest.approx(expected, abs=1e-9)
        assert result.loss_fwd == pytest.approx(expected, abs=1e-9)
        assert result.loss_bwd == pytest.approx(expected, abs=1e-9)

    def test_residual_zero_layer_is_identity(self):
        config = small_config()
        params = init_params(config, 6, 4)
        for layer in (params.fwd[1], params.bwd[1]):
            layer.Wx[:] = 0.0
            layer.Wh[:] = 0.0
            layer.b[:] = 0.0
            layer.Wp[:] = 0.0
        batch = random_batch(np.random.default_rng(1), 6, 4)
        result = bilm_forward(batch, params, config)
        assert np.array_equal(result.states.fwd[1], result.states.fwd[0])
        assert np.array_equal(result.states.bwd[1], result.states.bwd[0])

    def test_states_respect_clip_range(self):
        config = small_config()
        params = init_params(config, 6, 4)
        for layers in (params.fwd, params.bwd):
            for layer in layers:
                layer.Wp *= 100.0  # push projections far past the range
        batch = random_batch(np.random.default_rng(2), 6, 4)
        result = bilm_forward(batch, params, config)
        for arr in (result.states.fwd, result.states.bwd):
            assert arr.min() >= -3.0 and arr.max() <= 3.0

    def test_softmax_normalization(self):
        logits = np.random.default_rng(3).normal(size=(40, 17)) * 8
        probs = np.exp(log_softmax(logits))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_loss_matches_log_softmax_recomputation(self):
        config = small_config(dropout=0.2)
        params = init_params(config, 9, 5)
        params.sm_ent_b[:] = np.random.default_rng(10).normal(size=9)
        batch = random_batch(np.random.default_rng(11), 9, 5, n_seqs=7)
        result = bilm_forward(batch, params, config, rng=np.random.default_rng(12))
        ev = batch.mask[1:].reshape(-1)
        sums = []
        for top, reverse in ((result.states.fwd[-1], False), (result.states.bwd[-1], True)):
            states = top[1:] if reverse else top[:-1]
            tgt = slice(None, -1) if reverse else slice(1, None)
            S = states.reshape(-1, config.proj_dim)
            rows = np.arange(len(S))
            logp_e = log_softmax(S @ params.sm_ent_W + params.sm_ent_b)
            logp_r = log_softmax(S @ params.sm_rel_W + params.sm_rel_b)
            nll = -(logp_e[rows, batch.ents[tgt].reshape(-1)] + logp_r[rows, batch.rels[tgt].reshape(-1)])
            sums.append((nll * ev).sum())
        assert result.loss == pytest.approx((sums[0] + sums[1]) / (2 * ev.sum()), rel=1e-6)
        assert result.loss_fwd == pytest.approx(sums[0] / ev.sum(), rel=1e-6)
        assert result.loss_bwd == pytest.approx(sums[1] / ev.sum(), rel=1e-6)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_inference_states_equal_training_states_without_caches(self, precision):
        # the inference forward keeps no BPTT arrays, and its states are
        # a training forward's without dropout, bit for bit, padding too
        config = small_config(precision=precision)
        params = init_params(config, 7, 4)
        batch = batch_of_lengths(np.random.default_rng(6), 7, 4, [6, 2, 5, 3], dtype=config.dtype)
        states, caches = bilm_states(batch, params, config)
        assert caches is None
        trained = bilm_forward(batch, params, config)
        assert all(c is not None for c in trained.cache["fwd"]["caches"] + trained.cache["bwd"]["caches"])
        for name in ("x", "fwd", "bwd"):
            assert np.array_equal(getattr(states, name), getattr(trained.states, name)), name

    def test_train_with_dropout_requires_rng(self):
        config = small_config(dropout=0.5)
        params = init_params(config, 4, 3)
        batch = random_batch(np.random.default_rng(5), 4, 3)
        with pytest.raises(ValueError, match="rng"):
            bilm_forward(batch, params, config)

    def test_batch_of_one_token_walks_rejected(self):
        # pack_batch keeps 1-token walks, but a batch of nothing else has
        # no prediction event and no loss to take the mean of
        config = small_config()
        params = init_params(config, 4, 3)
        batch = batch_of_lengths(np.random.default_rng(5), 4, 3, [1, 1])
        with pytest.raises(ValueError, match="no walk of two or more tokens"):
            bilm_forward(batch, params, config)


class TestSoftmaxNll:
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 2e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("scale", [1.0, 8.0, 1e3])
    def test_matches_log_softmax(self, dtype, rtol, scale):
        rng = np.random.default_rng(13)
        logits = (rng.normal(size=(40, 17)) * scale).astype(dtype)
        targets = rng.integers(17, size=40)
        logp = log_softmax(logits)
        # no overflow and no NaN at any scale; tiny probabilities may underflow to 0
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            probs, nll = softmax_nll(logits.copy(), targets)
        assert probs.dtype == dtype and nll.dtype == dtype
        assert np.all(np.isfinite(probs)) and np.all(np.isfinite(nll))
        np.testing.assert_allclose(probs, np.exp(logp), rtol=rtol, atol=rtol * 1e-3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=rtol)
        np.testing.assert_allclose(nll, -logp[np.arange(40), targets], rtol=rtol, atol=rtol)

    def test_writes_probabilities_in_place(self):
        logits = np.random.default_rng(14).normal(size=(6, 5))
        probs, _ = softmax_nll(logits, np.zeros(6, dtype=np.int64))
        assert probs is logits


class TestHeadBlocks:
    @staticmethod
    def heads(monkeypatch, cells, top, batch, params, reverse):
        monkeypatch.setattr(bilm, "HEAD_BLOCK_CELLS", cells)
        grads = {name: np.zeros_like(a) for name, a in params.flat().items() if name.startswith("sm_")}
        n_events = int(2 * batch.mask[1:].sum())
        total, dtop = bilm._direction_heads(top, batch, params, reverse, n_events, grads)
        return total, dtop, grads

    @pytest.mark.parametrize("reverse", [False, True])
    def test_blocks_match_one_block(self, monkeypatch, reverse):
        # M = 5 rows per step x 5 steps = 25 rows in blocks of 4: seven
        # blocks, the last of one row. A cap between whole rows of |E|
        # cells rounds down to whole rows.
        n_ent, rows = 13, 4
        config = small_config()
        params = init_params(config, n_ent, 4)
        batch = batch_of_lengths(np.random.default_rng(21), n_ent, 4, [6, 3, 5, 2, 6])
        states, _ = bilm_states(batch, params, config)
        top = states.bwd[-1] if reverse else states.fwd[-1]
        M = (top.shape[0] - 1) * top.shape[1]
        assert M % rows and -(-M // rows) >= 3
        one = self.heads(monkeypatch, M * n_ent, top, batch, params, reverse)
        blocked = self.heads(monkeypatch, rows * n_ent + n_ent - 1, top, batch, params, reverse)
        assert blocked[0] == one[0]
        np.testing.assert_allclose(blocked[1], one[1], rtol=1e-6)
        for name in one[2]:
            np.testing.assert_allclose(blocked[2][name], one[2][name], rtol=1e-6, err_msg=name)


class TestSharing:
    def test_embedding_perturbation_moves_both_directions(self):
        config = small_config()
        params = init_params(config, 5, 4)
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 5, 4)
        base = bilm_forward(batch, params, config)
        eid = int(batch.ents[0, 0])
        params.ent_emb[eid, 0] += 0.25
        moved = bilm_forward(batch, params, config)
        assert moved.loss_fwd != base.loss_fwd
        assert moved.loss_bwd != base.loss_bwd

    def test_softmax_head_shared_across_directions(self):
        config = small_config()
        params = init_params(config, 5, 4)
        batch = random_batch(np.random.default_rng(7), 5, 4)
        base = bilm_forward(batch, params, config)
        params.sm_ent_b[0] += 1.0
        moved = bilm_forward(batch, params, config)
        assert moved.loss_fwd != base.loss_fwd
        assert moved.loss_bwd != base.loss_bwd

    def test_shared_blocks_accumulate_from_both_directions(self):
        config = small_config()
        params = init_params(config, 5, 4)
        batch = random_batch(np.random.default_rng(8), 5, 4)
        result = bilm_forward(batch, params, config)
        grads = bilm_backward(result, params)
        # embeddings of used tokens must receive gradient
        used = np.unique(batch.ents[batch.mask > 0])
        assert np.abs(grads["ent_emb"][used]).sum() > 0
        assert np.abs(grads["sm_ent_W"]).sum() > 0


class TestGradients:
    def test_saturated_projection_blocks_gradient(self):
        config = small_config(num_layers=1)
        params = init_params(config, 4, 3)
        layer = params.fwd[0]
        layer.b[:] = 20.0  # saturate gates; cell and hc strictly positive
        layer.Wp[:] = np.abs(layer.Wp) * 1000.0 + 1.0  # projection far beyond the clip
        batch = random_batch(np.random.default_rng(9), 4, 3)
        result = bilm_forward(batch, params, config)
        grads = bilm_backward(result, params)
        assert np.array_equal(grads["fwd0.Wp"], np.zeros_like(layer.Wp))
        assert np.array_equal(grads["fwd0.Wx"], np.zeros_like(layer.Wx))
        assert np.array_equal(grads["fwd0.Wh"], np.zeros_like(layer.Wh))
        assert np.array_equal(grads["fwd0.b"], np.zeros_like(layer.b))

    def test_full_model_finite_differences(self):
        worst, per_block = run_gradcheck(seed=11, n_coords=44)
        assert worst < GRADCHECK_TOLERANCE, per_block

    def test_full_model_finite_differences_in_head_blocks(self, monkeypatch):
        # 3 rows per block, so each direction's heads take several blocks
        monkeypatch.setattr(bilm, "HEAD_BLOCK_CELLS", 3 * gradcheck.N_ENTITIES)
        worst, per_block = run_gradcheck(seed=11, n_coords=44)
        assert worst < GRADCHECK_TOLERANCE, per_block

    def test_second_backward_on_one_forward_is_identical(self):
        # backward reads the forward cache and leaves it unchanged
        config = small_config()
        params = init_params(config, 5, 4)
        batch = random_batch(np.random.default_rng(15), 5, 4)
        result = bilm_forward(batch, params, config)
        first = bilm_backward(result, params)
        second = bilm_backward(result, params)
        assert first.keys() == second.keys() == params.flat().keys()
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_cache_holds_no_vocabulary_sized_rows(self):
        # 13 entities: no other dimension of this model or batch is 13, so
        # an axis of that size can only be a vocabulary axis. The only
        # arrays with one are the entity head's gradients, shaped like the
        # head itself; no (M, |E|) probability matrix is kept for backward.
        n_ent = 13
        config = small_config()
        params = init_params(config, n_ent, 4)
        batch = random_batch(np.random.default_rng(16), n_ent, 4)
        result = bilm_forward(batch, params, config)

        def arrays(node, path):
            if isinstance(node, np.ndarray):
                yield path, node
            elif isinstance(node, dict):
                for k, v in node.items():
                    yield from arrays(v, f"{path}.{k}")
            elif isinstance(node, (list, tuple)):
                for i, v in enumerate(node):
                    yield from arrays(v, f"{path}[{i}]")
            elif hasattr(node, "__dataclass_fields__"):
                for k in node.__dataclass_fields__:
                    yield from arrays(getattr(node, k), f"{path}.{k}")

        found = list(arrays(result.cache, "cache"))
        assert len(found) > 20
        with_vocab_axis = {path: a.shape for path, a in found if n_ent in a.shape}
        assert with_vocab_axis == {
            "cache.head_grads.sm_ent_W": params.sm_ent_W.shape,
            "cache.head_grads.sm_ent_b": params.sm_ent_b.shape,
        }
