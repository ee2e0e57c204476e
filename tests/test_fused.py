"""The fused sublayer ops against the elementary-op oracle in helpers.py.

Every comparison is exact (np.array_equal): the fused ops promise the same
bits as the chains they replace, not merely close values, both in float32
(the model's dtype) and in float64 (the model widened by `helpers.float64`).
"""

import numpy as np
import pytest

import helpers as H
from helpers import VOCAB
from styleswap import autograd as ag
from styleswap import model as mdl
from styleswap import training

SIZES = {
    "default": {},
    "small": dict(d_model=32, n_heads=2, d_ffn=48, n_enc_layers=1, n_dec_layers=1,
                  adapter_bottleneck=4),
}


class TestTrainingStep:
    @pytest.mark.parametrize("sizes", sorted(SIZES))
    @pytest.mark.parametrize("selector", ["adapter", *mdl.SELECTORS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_logits_and_every_gradient_bit_identical(self, seed, selector, sizes):
        narrow, batch = H.styled_model(seed, SIZES[sizes]), H.random_batch(seed)
        for model in (narrow, H.float64(narrow)):
            fused = H.train_step(model, selector, batch, mdl.encode_batch,
                                 mdl.decode_logits_batch)
            oracle = H.train_step(model, selector, batch, H.composed_encode_batch,
                                  H.composed_decode_logits_batch)
            assert fused[0].dtype == model.params["emb.tok"].data.dtype
            assert np.array_equal(fused[0], oracle[0])
            assert np.array_equal(fused[1], oracle[1])
            assert sorted(fused[2]) == sorted(oracle[2])
            for name, grad in fused[2].items():
                assert grad is not None, name
                assert np.array_equal(grad, oracle[2][name]), name
            assert fused[3] == oracle[3] == []

    def test_fused_step_records_one_node_per_sublayer(self):
        model, batch = H.styled_model(0, {}), H.random_batch(0)
        training.set_trainable(model, mdl.param_group(model, "enc+catt+dec"))
        src, dec_in, _ = batch
        mask = mdl.pad_attention_mask(src, VOCAB.pad)
        before = next(ag._ids)
        mdl.decode_logits_batch(model, mdl.encode_batch(model, src, mask), mask, dec_in)
        # embeddings 2, encoder 8 per layer, decoder 15 per layer, head 1
        assert next(ag._ids) - before - 1 == 2 + 8 * 2 + 15 * 2 + 1


class TestCachedDecoding:
    @pytest.mark.parametrize("sizes", sorted(SIZES))
    def test_cached_logits_bit_identical(self, sizes):
        narrow = H.styled_model(3, SIZES[sizes])
        for model in (narrow, H.float64(narrow)):
            self.assert_cached_logits_bit_identical(model)

    @staticmethod
    def assert_cached_logits_bit_identical(model):
        src, _, _ = H.random_batch(3, bsz=3)
        mask = mdl.pad_attention_mask(src, VOCAB.pad)
        prefix = np.random.default_rng(3).integers(4, len(VOCAB), size=(3, 5))
        prefix[:, 0] = VOCAB.bos
        with ag.no_grad():
            enc = mdl.encode_batch(model, src, mask)
            assert np.array_equal(enc.data, H.composed_encode_batch(model, src, mask).data)
            fused, oracle = mdl.DecodeCache.build(model, enc), H.composed_cache(model, enc)
            rows = np.array([2, 0, 0])  # reorder and duplicate, as a beam does
            for step in range(4):
                if step == 2:
                    fused, oracle = fused.select(rows), oracle.select(rows)
                    mask = mask[rows]
                    enc = ag.Tensor(enc.data[rows])
                # the first step feeds two positions on top of an empty cache
                feed = prefix[:, :2] if step == 0 else prefix[:, step + 1:step + 2]
                a = mdl.decode_logits_batch(model, enc, mask, feed, cache=fused)
                b = H.composed_decode_logits_batch(model, enc, mask, feed, cache=oracle)
                assert a.data.dtype == model.params["emb.tok"].data.dtype
                assert np.array_equal(a.data, b.data), step


def _residual_graph(x, sub, gain, bias, make_residual):
    """Backward through the residual op where x has another consumer, created
    before the residual op and after sub. backward() reaches it between the
    residual node and sub and adds into x's gradient buffer, so a buffer that
    x and sub shared would carry that gradient into sub's."""
    w = ag.Tensor(np.linspace(-1.0, 1.0, x.shape[-1]))
    side = ag.mul(x, w)
    out = make_residual(x, sub, gain, bias)
    mix = ag.Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))
    loss = ag.add(ag.tsum(ag.mul(out, mix)), ag.tsum(ag.mul(side, side)))
    ag.backward(loss)


def _fused_residual(x, sub, gain, bias):
    return ag.residual_layer_norm(x, sub, gain, bias, 1e-5)


def _composed_residual(x, sub, gain, bias):
    return ag.layer_norm(ag.add(x, sub), gain, bias, 1e-5)


class TestResidualGradients:
    def _leaves(self, same: bool):
        rng = np.random.default_rng(7)
        sub = ag.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        x = sub if same else ag.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        gain = ag.Tensor(rng.uniform(0.5, 1.5, size=8), requires_grad=True)
        bias = ag.Tensor(rng.normal(size=8), requires_grad=True)
        return x, sub, gain, bias

    @pytest.mark.parametrize("same", [False, True], ids=["distinct", "x-is-sub"])
    def test_matches_add_then_layer_norm(self, same):
        grads = []
        for make in (_fused_residual, _composed_residual):
            leaves = self._leaves(same)
            _residual_graph(*leaves, make)
            grads.append([t.grad for t in leaves])
        for fused, oracle in zip(*grads):
            assert np.array_equal(fused, oracle)
