"""Finite-difference audit of the hand-written backwards, each case below 1e-4:
every fused op against each input, and a decoder-step loss against whole tensors.

Both sides of `test_fused` share the layer-norm and softmax helpers, so this
is their only check against central differences, the layer-norm gain and bias
gradients among them. The instances are drawn once, from one seed, and never
redrawn: `grad_check` can fail a correct gradient that is tiny.
"""

import itertools

import numpy as np
import pytest

from helpers import VOCAB, float64
from styleswap import autograd as ag
from styleswap import model as mdl
from styleswap.data import child_seed

BOUND = 1e-4
# How many inputs each fused op differentiates; the audit checks each of them.
INPUTS = {"project_heads": 3, "attention": 3, "merge_heads": 3, "ffn": 5,
          "residual_ln": 4, "adapter": 5, "scaled_embed": 1, "tied_logits": 2}
# One whole tensor of each adapter kind and of each base group (enc, dec-self,
# dec-catt, dec-other); enc.0.self.wq is a matmul weight.
STEP_TENSORS = ("adapter.0.ln_g", "adapter.1.ln_b", "adapter.0.w_down",
                "adapter.1.w_up", "enc.0.self.wq", "dec.1.ln1.g",
                "dec.0.catt.bv", "dec.1.ffn.b1")
STEP = 1e-5  # ag.grad_check's default central-difference step
MAX_DRAWS = 100


def fused_ops(rng: np.random.Generator) -> dict:
    """Each fused op: (op, its inputs, a random weighting of its output)."""
    bsz, length, h, heads, f, b, v = 2, 3, 4, 2, 5, 3, 6

    def t(*shape, low=-1.0, high=1.0):
        return ag.Tensor(rng.uniform(low, high, size=shape))

    x, sub, heads_in = t(bsz, length, h), t(bsz, length, h), t(bsz, heads, length, h // heads)
    causal = mdl.causal_attention_mask(length)
    ids, positions = rng.integers(0, v, size=(bsz, length)), t(length, h).data
    ops = {
        "project_heads": (lambda *a: ag.project_heads(*a, heads), [x, t(h, h), t(h)]),
        "attention": (lambda *a: ag.attention(*a, causal),
                      [heads_in, t(bsz, heads, length, h // heads),
                       t(bsz, heads, length, h // heads)]),
        "merge_heads": (ag.merge_heads, [heads_in, t(h, h), t(h)]),
        "ffn": (ag.ffn, [x, t(h, f), t(f), t(f, h), t(h)]),
        "residual_ln": (lambda *a: ag.residual_layer_norm(*a, 1e-5),
                        [x, sub, t(h, low=0.5, high=1.5), t(h)]),
        "adapter": (lambda *a: ag.adapter(*a, 1e-5),
                    [x, t(h, low=0.5, high=1.5), t(h), t(h, b), t(b, h)]),
        "scaled_embed": (lambda w: ag.scaled_embedding(w, ids, h ** 0.5, positions), [t(v, h)]),
        "tied_logits": (ag.tied_logits, [x, t(v, h)]),
    }
    return {name: (op, args, t(*op(*args).shape)) for name, (op, args) in ops.items()}


def fused_error(ops: dict, name: str, i: int) -> float:
    op, args, mix = ops[name]
    loss = lambda probe: ag.tsum(ag.mul(op(*args[:i], probe, *args[i + 1:]), mix))
    return ag.grad_check(loss, args[i])


def step_instance(rng: np.random.Generator):
    """A tiny model, widened to float64 for central differences, with s1 adapters
    of non-zero up-projection, and one batch."""
    cfg = mdl.ModelConfig(vocab_size=len(VOCAB), d_model=8, n_heads=2, d_ffn=12,
                          n_enc_layers=1, n_dec_layers=2, adapter_bottleneck=2,
                          max_len=8, seed=int(rng.integers(0, 2**31)))
    adapters = mdl.fresh_adapters(cfg, "s1", seed=int(rng.integers(0, 2**31)))
    model = float64(mdl.build_model(cfg), adapters)
    for layer in model.adapters.layers:
        layer["w_up"].data[:] = rng.normal(0, 0.3, size=layer["w_up"].shape)
    for _, t in model.named_parameters():
        t.requires_grad = False
    src = rng.integers(4, len(VOCAB), size=(2, 5))
    dec_in = rng.integers(4, len(VOCAB), size=(2, 4))
    dec_tgt = rng.integers(4, len(VOCAB), size=(2, 4))
    return model, src, dec_in, dec_tgt


def probed_loss(instance, name: str):
    """(loss of the instance as a function of tensor `name`, that tensor's value)."""
    model, src, dec_in, dec_tgt = instance
    if name.startswith("adapter."):
        _, i, key = name.split(".")
        slots = model.adapters.layers[int(i)]
    else:
        slots, key = model.params, name
    original = slots[key]

    def loss(probe: ag.Tensor) -> ag.Tensor:
        slots[key] = probe
        try:
            enc = mdl.encode_batch(model, src, None)
            logits = mdl.decode_logits_batch(model, enc, None, dec_in)
            return ag.cross_entropy(ag.reshape(logits, (dec_tgt.size, logits.shape[-1])),
                                    dec_tgt.ravel(), ignore_id=-1)
        finally:
            slots[key] = original

    return loss, original


def step_error(instance, name: str) -> float:
    loss, original = probed_loss(instance, name)
    return ag.grad_check(loss, original, STEP)


def relu_inputs(loss: ag.Tensor, ln_eps: float) -> list[np.ndarray]:
    """The relu inputs of the `ffn` and `adapter` nodes on loss's tape, in creation
    order: a superset of the relus whose inputs a tensor that requires grad can move.
    `ln_eps` is the adapters' layer-norm epsilon."""
    pres = []
    for node in reversed(ag._tape(loss)):
        if node._op == "ffn" and node._parents:
            x, w1, b1 = (t.data for t in node._parents[:3])
            pres.append(x.reshape(-1, w1.shape[0]) @ w1 + b1)
        elif node._op == "adapter" and node._parents:
            z, ln_g, ln_b, w_down = (t.data for t in node._parents[:4])
            zn = ag._ln_forward(z, ln_g, ln_b, ln_eps)[0]
            pres.append(zn.reshape(-1, w_down.shape[0]) @ w_down)
    return pres


def crosses_a_kink(instance) -> bool:
    """Whether some grad_check probe flips the sign of some relu input. A central
    difference across a relu kink measures neither side's slope."""
    ln_eps = instance[0].config.ln_eps
    for name in STEP_TENSORS:
        loss, original = probed_loss(instance, name)
        probe = ag.Tensor(original.data.copy(), requires_grad=True)
        signs = [pre > 0 for pre in relu_inputs(loss(probe), ln_eps)]
        flat = probe.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            for step in (STEP, -STEP):
                flat[i] = orig + step
                moved = relu_inputs(loss(probe), ln_eps)
                flat[i] = orig
                if not all(np.array_equal(pre > 0, s) for pre, s in zip(moved, signs)):
                    return True
    return False


def kink_free(rng: np.random.Generator, *planted):
    """The first of `planted`, then of instances drawn from rng, on which no probe
    crosses a relu kink, so that the audit's outcome depends on the gradients alone."""
    draws = itertools.chain(planted, iter(lambda: step_instance(rng), None))
    for instance in itertools.islice(draws, MAX_DRAWS):
        if not crosses_a_kink(instance):
            return instance
    pytest.fail(f"no kink-free decoder-step instance in {MAX_DRAWS} draws")


@pytest.fixture(scope="module")
def audit():
    """(the fused ops, the decoder-step instance), drawn in this order from one stream."""
    rng = np.random.default_rng(child_seed(0, "gradcheck"))
    ops = fused_ops(rng)
    return ops, kink_free(rng)


def skew_gain(backward):
    """`backward` with its layer-norm gain gradient (the second to last) 0.1% too large."""
    def skewed(*args):
        *rest, ggain, gbias = backward(*args)
        return (*rest, None if ggain is None else ggain * 1.001, gbias)
    return skewed


class TestGradcheck:
    @pytest.mark.parametrize("name, i", [(name, i) for name, n in INPUTS.items()
                                         for i in range(n)])
    def test_fused_op(self, audit, name, i):
        assert fused_error(audit[0], name, i) < BOUND

    def test_every_fused_op_input_is_audited(self, audit):
        assert {name: len(args) for name, (_, args, _) in audit[0].items()} == INPUTS

    @pytest.mark.parametrize("name", STEP_TENSORS)
    def test_decoder_step(self, audit, name):
        assert step_error(audit[1], name) < BOUND

    def test_instance_with_a_planted_kink_is_redrawn(self):
        planted = step_instance(np.random.default_rng(0))
        loss, b1 = probed_loss(planted, "dec.1.ffn.b1")
        # the tape downstream of b1 holds dec.1.ffn, then adapter 1
        probe = ag.Tensor(b1.data.copy(), requires_grad=True)
        pre = relu_inputs(loss(probe), planted[0].config.ln_eps)[0]
        b1.data[0] -= pre[0, 0] - 3e-6  # a relu input within one probe step of zero
        assert crosses_a_kink(planted)
        assert ag.grad_check(loss, b1) > BOUND  # the kink alone fails a correct gradient
        drawn = kink_free(np.random.default_rng(0), planted)
        assert drawn is not planted
        assert max(step_error(drawn, name) for name in STEP_TENSORS) < BOUND

    @pytest.mark.parametrize("planted", ["residual_layer_norm", "_ln_backward"])
    def test_planted_layer_norm_gain_error_fails(self, audit, monkeypatch, planted):
        if planted == "_ln_backward":  # shared by both sides of test_fused's comparison
            monkeypatch.setattr(ag, planted, skew_gain(ag._ln_backward))
        else:
            fused = ag.residual_layer_norm

            def skewed(*args):
                out = fused(*args)
                out._bwd = out._bwd and skew_gain(out._bwd)
                return out

            monkeypatch.setattr(ag, planted, skewed)
        assert fused_error(audit[0], "residual_ln", 2) > 9e-4
        assert step_error(audit[1], "dec.1.ln1.g") > 9e-4


class TestReluInputs:
    def test_ffn_and_adapter_relu_inputs_in_creation_order(self):
        rng = np.random.default_rng(4)
        t = lambda *shape: ag.Tensor(rng.normal(size=shape))
        x, w1, b1, w2, b2 = t(2, 3, 4), t(4, 5), t(5), t(5, 4), t(4)
        g, b, w_down, w_up = t(4), t(4), t(4, 2), t(2, 4)
        w1.requires_grad = True
        y = ag.adapter(ag.ffn(x, w1, b1, w2, b2), g, b, w_down, w_up, 1e-5)
        ffn_pre, adapter_pre = relu_inputs(ag.tsum(y), 1e-5)
        np.testing.assert_array_equal(ffn_pre, x.data.reshape(6, 4) @ w1.data + b1.data)
        h = ag.ffn(x, w1, b1, w2, b2).data.reshape(6, 4)
        zn = ag.layer_norm(ag.Tensor(h), g, b, 1e-5).data
        np.testing.assert_allclose(adapter_pre, zn @ w_down.data, rtol=1e-12, atol=1e-12)

    def test_only_nodes_downstream_of_a_grad_tensor(self):
        rng = np.random.default_rng(5)
        t = lambda *shape: ag.Tensor(rng.normal(size=shape))
        first, second = [[t(1, 2, 3), t(3, 4), t(4), t(4, 3), t(3)][1:] for _ in range(2)]
        second[0].requires_grad = True
        x = t(1, 2, 3)
        y = ag.ffn(ag.ffn(x, *first), *second)
        pres = relu_inputs(ag.tsum(y), 1e-5)
        assert len(pres) == 1  # the first ffn is off the tape: nothing there moves
        h = ag.ffn(x, *first).data.reshape(2, 3)
        np.testing.assert_array_equal(pres[0], h @ second[0].data + second[1].data)
