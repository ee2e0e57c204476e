"""float32, the dtype the model trains and decodes in.

The guards fail on any float64 stray in a training step or a cached decode
step. The differential tests compare the float32 model with its float64
widening (`helpers.float64`: the same float32-rounded parameters): logits,
loss and every trainable gradient agree within REL_TOL of each tensor's
largest magnitude, and beam search picks the same tokens.
"""

import numpy as np
import pytest

import helpers as H
from helpers import VOCAB
from styleswap import autograd as ag
from styleswap import data as sd
from styleswap import decoding as dec
from styleswap import model as mdl
from styleswap import training

REL_TOL = 1e-5  # float32 round-off through the default model reaches about 1.7e-6


def _graph(loss: ag.Tensor) -> list[ag.Tensor]:
    """Every tensor the loss was computed from, down to leaves and frozen results."""
    seen: dict[int, ag.Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


class TestFloat32Guards:
    @pytest.mark.parametrize("selector", ["adapter", "enc"])
    def test_training_step_stays_float32(self, selector):
        model = H.styled_model(0, {})
        live = training.set_trainable(model, mdl.param_group(model, selector))
        opt = training.AdamW(live, training.Hyper())
        loss = training.batch_loss(model, VOCAB, *H.random_batch(0))
        ag.backward(loss)
        opt.step()
        nodes = _graph(loss)
        assert len(nodes) > len(live)
        assert [t._op for t in nodes if t.data.dtype != np.float32] == []
        assert [n for n, t in live if t.grad.dtype != np.float32 or t.data.dtype != np.float32] == []
        assert [n for n, moments in opt.moments.items()
                if any(m.dtype != np.float32 for m in moments)] == []

    def test_cached_decode_step_stays_float32(self):
        model = H.styled_model(0, {})
        src = np.asarray([[VOCAB.keywords[0], VOCAB.fillers[2], VOCAB.keywords[7]]])
        with ag.no_grad():
            enc = mdl.encode_batch(model, src, None)
            cache = mdl.DecodeCache.build(model, enc)
            for fed in ([[VOCAB.bos]], [[VOCAB.keywords[1]]]):
                logits = mdl.decode_logits_batch(model, enc, None, np.asarray(fed), cache=cache)
                assert logits.data.dtype == np.float32
        arrays = [a for pair in cache.cross + cache.past for a in pair]
        assert [a.dtype for a in arrays if a.dtype != np.float32] == []
        step = dec.model_step_fn(model, list(src[0]), VOCAB)
        assert step([[VOCAB.bos], [VOCAB.bos]], [0, 0]).dtype == np.float32


class TestFloat32AgainstFloat64:
    @pytest.mark.parametrize("selector", ["adapter", "enc", "enc+catt+dec"])
    def test_logits_loss_and_gradients_within_tolerance(self, selector):
        narrow, batch = H.styled_model(0, {}), H.random_batch(0)
        got = H.train_step(narrow, selector, batch, mdl.encode_batch, mdl.decode_logits_batch)
        want = H.train_step(H.float64(narrow), selector, batch, mdl.encode_batch,
                            mdl.decode_logits_batch)
        assert sorted(got[2]) == sorted(want[2])
        pairs = [("logits", got[0], want[0]), ("loss", got[1], want[1])]
        pairs += [(name, got[2][name], grad) for name, grad in want[2].items()]
        for name, a, b in pairs:
            assert a.dtype == np.float32 and b.dtype == np.float64, name
            assert np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b)), name

    def test_beam_search_picks_the_same_tokens(self):
        narrow = H.styled_model(5, {})
        wide = H.float64(narrow)
        cfg = dec.DecodeConfig()
        for pair in sd.gen_task_pairs(VOCAB, 31, 40, "headline"):
            a = dec.beam_search(narrow, narrow.adapters, pair.x, cfg, VOCAB)
            b = dec.beam_search(wide, wide.adapters, pair.x, cfg, VOCAB)
            assert a.tokens == b.tokens, pair.x
            assert abs(a.score - b.score) <= REL_TOL * abs(b.score), pair.x
