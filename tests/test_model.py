"""Model contract tests, checked against a loop-based straight-line oracle."""

import hashlib
import math

import numpy as np
import pytest

import helpers as H
from styleswap import autograd as ag
from styleswap import model as mdl


def tiny_config(**over):
    base = dict(vocab_size=11, d_model=8, n_heads=2, d_ffn=12, n_enc_layers=1,
                n_dec_layers=2, adapter_bottleneck=3, max_len=16, seed=5)
    base.update(over)
    return mdl.ModelConfig(**base)


def encode1(model, tokens):
    """Encoder states [1, L, d_model] of one sequence."""
    return mdl.encode_batch(model, np.asarray([tokens]), None)


def decode1(model, enc, prefix):
    """Logits [T, V] over one prefix, through the installed adapters."""
    return mdl.decode_logits_batch(model, enc, None, np.asarray([prefix])).data[0]


def random_adapters(config, seed=0, scale=0.3):
    """Fresh adapters with the up-projection randomized (non-identity)."""
    rng = np.random.default_rng(seed)
    adapters = mdl.fresh_adapters(config, "s1", seed=seed, mode="fresh")
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0.0, scale, size=layer["w_up"].shape)
        layer["w_down"].data[:] = rng.normal(0.0, scale, size=layer["w_down"].shape)
    return adapters


# ---------------------------------------------------------------------------
# straight-line reimplementation (loops, no batching, no tape)


def oracle_positions(max_len, h):
    table = np.zeros((max_len, h))
    for pos in range(max_len):
        for i in range(h):
            angle = pos / (10000.0 ** (2 * (i // 2) / h))
            table[pos, i] = math.sin(angle) if i % 2 == 0 else math.cos(angle)
    return table


def oracle_ln(v, g, b, eps):
    mu = sum(v) / len(v)
    var = sum((x - mu) ** 2 for x in v) / len(v)
    return g * ((v - mu) / math.sqrt(var + eps)) + b


def oracle_attention(p, name, xq, xkv, heads, causal=False):
    tq, h = xq.shape
    tk = xkv.shape[0]
    dh = h // heads
    q = xq @ p[f"{name}.wq"].data + p[f"{name}.bq"].data
    k = xkv @ p[f"{name}.wk"].data
    v = xkv @ p[f"{name}.wv"].data + p[f"{name}.bv"].data
    out = np.zeros((tq, h))
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        for i in range(tq):
            scores = []
            for j in range(tk):
                if causal and j > i:
                    scores.append(-np.inf)
                else:
                    scores.append(float(q[i, sl] @ k[j, sl]) / math.sqrt(dh))
            scores = np.asarray(scores)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            for j in range(tk):
                out[i, sl] += weights[j] * v[j, sl]
    return out @ p[f"{name}.wo"].data + p[f"{name}.bo"].data


def oracle_forward(model, adapters, src, prefix):
    cfg = model.config
    p = model.params
    pos = oracle_positions(cfg.max_len, cfg.d_model)
    emb = p["emb.tok"].data
    eps = cfg.ln_eps

    def ln(mat, name):
        return np.stack([oracle_ln(row, p[f"{name}.g"].data, p[f"{name}.b"].data, eps)
                         for row in mat])

    def ffn(mat, name):
        hidden = np.maximum(mat @ p[f"{name}.w1"].data + p[f"{name}.b1"].data, 0.0)
        return hidden @ p[f"{name}.w2"].data + p[f"{name}.b2"].data

    x = emb[src] * math.sqrt(cfg.d_model) + pos[: len(src)]
    for i in range(cfg.n_enc_layers):
        x = ln(x + oracle_attention(p, f"enc.{i}.self", x, x, cfg.n_heads), f"enc.{i}.ln1")
        x = ln(x + ffn(x, f"enc.{i}.ffn"), f"enc.{i}.ln2")

    y = emb[prefix] * math.sqrt(cfg.d_model) + pos[: len(prefix)]
    for i in range(cfg.n_dec_layers):
        y = ln(y + oracle_attention(p, f"dec.{i}.self", y, y, cfg.n_heads, causal=True),
               f"dec.{i}.ln1")
        y = ln(y + oracle_attention(p, f"dec.{i}.catt", y, x, cfg.n_heads), f"dec.{i}.ln2")
        y = ln(y + ffn(y, f"dec.{i}.ffn"), f"dec.{i}.ln3")
        la = adapters.layers[i]
        normed = np.stack([oracle_ln(row, la["ln_g"].data, la["ln_b"].data, eps) for row in y])
        y = y + np.maximum(normed @ la["w_down"].data, 0.0) @ la["w_up"].data
    return y @ emb.T


# ---------------------------------------------------------------------------


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = mdl.build_model(tiny_config())
        b = mdl.build_model(tiny_config())
        assert a.base_bytes() == b.base_bytes()
        assert a.base_id == b.base_id

    def test_parameters_are_the_float32_rounding_of_float64_draws(self):
        cfg = tiny_config()
        m = mdl.build_model(cfg)
        rng = np.random.default_rng(cfg.seed)
        for name, _, shape, init in mdl.param_layout(cfg):
            assert m.params[name].data.dtype == np.float32, name
            if not isinstance(init, str):
                want = rng.normal(0.0, init, size=shape).astype(np.float32)
                assert np.array_equal(m.params[name].data, want), name
        assert m.positions.dtype == np.float32

    def test_fresh_adapters_are_the_float32_rounding_of_float64_draws(self):
        # ones and zeros, but for one float64 normal w_down per layer, in layer order
        cfg = tiny_config()
        adapters = mdl.fresh_adapters(cfg, "s1", seed=7)
        rng = np.random.default_rng(7)
        h, b = cfg.d_model, cfg.adapter_bottleneck
        assert len(adapters.layers) == cfg.n_dec_layers
        for i, layer in enumerate(adapters.layers):
            want = {"ln_g": np.ones(h), "ln_b": np.zeros(h),
                    "w_down": rng.normal(0.0, 0.02, size=(h, b)).astype(np.float32),
                    "w_up": np.zeros((b, h))}
            assert list(layer) == list(want), i
            for key, t in layer.items():
                assert t.data.dtype == np.float32, (i, key)
                assert np.array_equal(t.data, want[key]), (i, key)

    def test_default_base_id_is_pinned(self):
        # the lineage of every existing checkpoint and adapter file: the
        # initial draws, their order and the parameter names must not move
        assert mdl.build_model(mdl.ModelConfig()).base_id == \
            "7cc5010ab75a4d36d8c7822590e3e518aad886932a2072633dbae8b11058d370"

    def test_different_seed_differs(self):
        a = mdl.build_model(tiny_config(seed=1))
        b = mdl.build_model(tiny_config(seed=2))
        assert a.base_bytes() != b.base_bytes()
        assert a.base_id != b.base_id

    def test_parameter_count_closed_form(self):
        cfg = mdl.ModelConfig(vocab_size=140, d_model=64, n_heads=4, d_ffn=128,
                              n_enc_layers=2, n_dec_layers=2)
        m = mdl.build_model(cfg)
        h, f = cfg.d_model, cfg.d_ffn
        attn = 4 * h * h + 3 * h  # no key bias
        ln = 2 * h
        ffn = h * f + f + f * h + h
        expect = (cfg.vocab_size * h
                  + cfg.n_enc_layers * (attn + 2 * ln + ffn)
                  + cfg.n_dec_layers * (2 * attn + 3 * ln + ffn))
        assert sum(t.data.size for t in m.params.values()) == expect

    def test_head_divisibility_error(self):
        with pytest.raises(mdl.ConfigError):
            tiny_config(d_model=64, n_heads=3)

    def test_adapter_slot_initially_empty(self):
        assert mdl.build_model(tiny_config()).adapters is None


class TestAdapterForward:
    def test_zero_up_projection_is_identity(self):
        cfg = tiny_config()
        adapters = mdl.fresh_adapters(cfg, "s1", seed=3)
        z = ag.Tensor(np.random.default_rng(0).normal(size=(4, cfg.d_model)))
        out = mdl.adapter_forward(z, adapters, 0, cfg.ln_eps)
        assert np.array_equal(out.data, z.data)

    def test_hand_case(self):
        adapters = mdl.AdapterSet("s1", "fresh", [{
            "ln_g": ag.Tensor([1.0, 1.0]),
            "ln_b": ag.Tensor([0.0, 0.0]),
            "w_down": ag.Tensor([[1.0], [0.0]]),
            "w_up": ag.Tensor([[2.0, 0.0]]),
        }])
        neg = mdl.adapter_forward(ag.Tensor([-1.0, 1.0]), adapters, 0, eps=1e-12)
        assert np.allclose(neg.data, [-1.0, 1.0], atol=1e-6)
        pos = mdl.adapter_forward(ag.Tensor([1.0, -1.0]), adapters, 0, eps=1e-12)
        assert np.allclose(pos.data, [3.0, -1.0], atol=1e-6)

    def test_shape_preserved(self):
        cfg = tiny_config()
        adapters = random_adapters(cfg)
        for shape in [(cfg.d_model,), (3, cfg.d_model), (2, 5, cfg.d_model)]:
            z = ag.Tensor(np.random.default_rng(1).normal(size=shape))
            assert mdl.adapter_forward(z, adapters, 1, cfg.ln_eps).shape == shape

    def test_missing_layer_error(self):
        cfg = tiny_config()
        adapters = mdl.fresh_adapters(cfg, "s1")
        with pytest.raises(mdl.AdapterError):
            mdl.adapter_forward(ag.Tensor(np.zeros(cfg.d_model)), adapters, 99, cfg.ln_eps)


class TestEncode:
    def test_l1_edge(self):
        m = mdl.build_model(tiny_config())
        out = encode1(m, [4])
        assert out.shape == (1, 1, m.config.d_model)

    def test_permutation_sensitivity(self):
        m = mdl.build_model(tiny_config())
        a = encode1(m, [1, 2, 3, 4]).data[0]
        b = encode1(m, [1, 3, 2, 4]).data[0]
        assert not np.allclose(a[1], b[1])
        assert not np.allclose(a[2], b[2])

    def test_zero_weights_reduce_to_layer_normed_embedding(self):
        cfg = tiny_config(n_enc_layers=2)
        m = mdl.build_model(cfg)
        for name, t in m.params.items():
            if ".self." in name or ".ffn." in name:
                t.data[:] = 0.0
        tokens = [3, 7, 1]
        got = encode1(m, tokens).data[0]

        pos = oracle_positions(cfg.max_len, cfg.d_model)
        x = m.params["emb.tok"].data[tokens] * math.sqrt(cfg.d_model) + pos[:3]
        for i in range(cfg.n_enc_layers):
            x = np.stack([oracle_ln(r, np.ones(cfg.d_model), np.zeros(cfg.d_model), cfg.ln_eps)
                          for r in x])
            x = np.stack([oracle_ln(r, np.ones(cfg.d_model), np.zeros(cfg.d_model), cfg.ln_eps)
                          for r in x])
        assert np.allclose(got, x, atol=1e-12)


class TestDecodeStep:
    def test_requires_adapters(self):
        m = mdl.build_model(tiny_config())
        enc = encode1(m, [1, 2])
        with pytest.raises(mdl.AdapterError):
            decode1(m, enc, [1])

    def test_causal_mask(self):
        m = mdl.build_model(tiny_config())
        mdl.swap_adapters(m, random_adapters(m.config))
        enc = encode1(m, [1, 2, 3])
        a = decode1(m, enc, [1, 2, 3, 4])
        b = decode1(m, enc, [1, 2, 9, 9])
        assert np.array_equal(a[:2], b[:2])
        assert not np.allclose(a[2:], b[2:])

    def test_identity_adapters_match_adapter_free_bitwise(self, monkeypatch):
        m = mdl.build_model(tiny_config())
        mdl.swap_adapters(m, mdl.fresh_adapters(m.config, "s0", seed=11))
        rng = np.random.default_rng(2)
        for _ in range(20):
            src = rng.integers(1, m.config.vocab_size, size=rng.integers(1, 6))
            prefix = rng.integers(1, m.config.vocab_size, size=(1, rng.integers(1, 6)))
            enc = mdl.encode_batch(m, src[None, :], None)
            with_ad = mdl.decode_logits_batch(m, enc, None, prefix)
            with monkeypatch.context() as patch:
                patch.setattr(mdl, "adapter_forward", lambda z, *_: z)
                without = mdl.decode_logits_batch(m, enc, None, prefix)
            assert np.array_equal(with_ad.data, without.data)

    def test_matches_straight_line_oracle(self):
        cfg = mdl.ModelConfig(vocab_size=5, d_model=8, n_heads=2, d_ffn=10,
                              n_enc_layers=1, n_dec_layers=2, adapter_bottleneck=2,
                              max_len=8, seed=9)
        m = mdl.build_model(cfg)
        adapters = random_adapters(cfg, seed=4)
        mdl.swap_adapters(m, adapters)
        src = [1, 3, 2]
        prefix = [4, 0]
        for model in (m, H.float64(m)):
            got = decode1(model, encode1(model, src), prefix)
            want = oracle_forward(model, model.adapters, src, prefix)
            assert got.shape == (2, 5)
            assert np.allclose(got, want, atol=1e-9)


class TestSwapAdapters:
    def test_swap_roundtrip_bit_identical(self):
        m = mdl.build_model(tiny_config())
        s0 = mdl.fresh_adapters(m.config, "s0", seed=1)
        s1 = random_adapters(m.config, seed=2)
        enc = encode1(m, [1, 2, 3])
        mdl.swap_adapters(m, s0)
        first = decode1(m, enc, [1, 2])
        mdl.swap_adapters(m, s1)
        styled = decode1(m, enc, [1, 2])
        mdl.swap_adapters(m, s0)
        again = decode1(m, enc, [1, 2])
        assert np.array_equal(first, again)
        assert not np.allclose(first, styled)

    def test_base_untouched_by_swaps(self):
        m = mdl.build_model(tiny_config())
        before = hashlib.sha256(m.base_bytes()).hexdigest()
        for seed in range(4):
            mdl.swap_adapters(m, random_adapters(m.config, seed=seed))
        assert hashlib.sha256(m.base_bytes()).hexdigest() == before

    def test_shape_mismatch_error(self):
        m = mdl.build_model(tiny_config())
        wrong = mdl.fresh_adapters(tiny_config(adapter_bottleneck=5), "s1")
        with pytest.raises(mdl.AdapterError):
            mdl.swap_adapters(m, wrong)
        too_few = mdl.fresh_adapters(tiny_config(n_dec_layers=1), "s1")
        with pytest.raises(mdl.AdapterError):
            mdl.swap_adapters(m, too_few)

    @pytest.mark.parametrize("edit", [
        lambda layer: layer.update(w_side=ag.Tensor(np.zeros(3))),
        lambda layer: layer.pop("w_up")], ids=["extra_key", "missing_key"])
    def test_layer_keys_must_be_the_layout_keys(self, edit):
        m = mdl.build_model(tiny_config())
        adapters = mdl.fresh_adapters(m.config, "s1")
        edit(adapters.layers[1])
        with pytest.raises(mdl.AdapterError, match=r"^adapter layer 1 shaped \{"):
            mdl.swap_adapters(m, adapters)
        assert m.adapters is None


class TestParamGroups:
    def test_partition_of_registry(self):
        m = mdl.build_model(tiny_config())
        full = {n for n, _ in mdl.param_group(m, "enc+catt+dec")}
        assert full == set(m.params)
        enc = {n for n, _ in mdl.param_group(m, "enc")}
        catt = {n for n, _ in mdl.param_group(m, "enc+catt")}
        assert enc < catt < full

    def test_adapter_group_disjoint(self):
        m = mdl.build_model(tiny_config())
        mdl.swap_adapters(m, mdl.fresh_adapters(m.config, "s1"))
        adapter = {n for n, _ in mdl.param_group(m, "adapter")}
        base = {n for n, _ in mdl.param_group(m, "enc+catt+dec")}
        assert adapter.isdisjoint(base)
        assert adapter == {n for n, _ in m.named_parameters()} - base

    def test_enc_group_count_matches_enumeration(self):
        cfg = tiny_config()
        m = mdl.build_model(cfg)
        h, f = cfg.d_model, cfg.d_ffn
        per_layer = (4 * h * h + 3 * h) + 2 * 2 * h + (h * f + f + f * h + h)
        expect = cfg.vocab_size * h + cfg.n_enc_layers * per_layer
        got = sum(t.data.size for _, t in mdl.param_group(m, "enc"))
        assert got == expect

    def test_unknown_selector(self):
        m = mdl.build_model(tiny_config())
        with pytest.raises(ValueError, match="selector"):
            mdl.param_group(m, "decoder-only")

    def test_adapter_group_without_adapters_errors(self):
        m = mdl.build_model(tiny_config())
        with pytest.raises(mdl.AdapterError):
            mdl.param_group(m, "adapter")
