"""Encoder-decoder transformer with swappable bottleneck adapters.

The base network is a conventional post-LN transformer: bidirectional
encoder, causal decoder with cross-attention, weight-tied output head,
fixed sinusoidal positions. One adapter (layer norm, down-projection,
relu, up-projection, residual) sits after the feed-forward block of every
decoder layer; the whole per-style set swaps in and out as a unit.

Parameters live in a flat name -> Tensor registry whose names, order,
shapes, groups and initial draws come from one table, `param_layout`;
`build_model` draws it and checkpoint loads fill it from arrays. One
adapter layer has a table of its own, `adapter_layout`, which
`fresh_adapters` draws and adapter swaps and loads check; one draw rule
serves both tables. Every base parameter belongs to exactly one group
(enc, dec-self, dec-catt, dec-other), which is what the training stages
use to express freeze policies. The token embedding joins the enc group:
this model trains from scratch, so the task stage must be able to move the
(tied) output head.

Parameters are float32, the precision checkpoints store, and every op
computes in its inputs' dtype, so training and decoding run in float32.
`build_model` draws float64 normals and keeps their float32 rounding, which
is exactly what a checkpoint round trip of the float64 draws gives. The
positions take the parameters' dtype, and the additive masks are float32,
whose 0 and -1e9 are exact in float32: neither widens a float32 sum, and a
model built from float64 arrays computes the same float64 bits it would
with float64 masks.

Every sublayer is one fused autograd op (see `autograd`): head projection,
attention, head merge, feed-forward, residual plus layer norm, adapter,
embedding and tied output head. The forward helpers below create them in a
fixed order, which fixes the order in which gradients accumulate into the
tensors that several ops read: the token embedding, the encoder states and
each layer input. Changing that order changes gradients in their last bits;
tests/helpers.py holds the same forward built from elementary ops, which the
fused one must match bit for bit.

Training and decoding share one decoder function, `decode_logits_batch`.
Given a `DecodeCache`, it runs incrementally (Shazeer 2019,
arXiv:1911.02150): it embeds only the new positions, which start where the
cached self-attention keys and values end, appends each layer's new keys
and values to them, and reads cross-attention keys and values projected
once per source. `select` gathers cache rows, so a beam can reorder or
duplicate its hypotheses between steps. The cache holds plain arrays off
the autograd tape, so it is refused while gradients are recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

MASK_NEG = -1e9


class ConfigError(ValueError):
    """Invalid model configuration."""


class AdapterError(RuntimeError):
    """Adapter set absent or incompatible."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 134
    d_model: int = 64
    n_heads: int = 4
    d_ffn: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    adapter_bottleneck: int = 16
    max_len: int = 64
    seed: int = 0
    ln_eps: float = 1e-5

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_heads, self.d_ffn,
               self.n_enc_layers, self.n_dec_layers, self.max_len) < 1:
            raise ConfigError(f"all dimensions must be positive: {self}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.d_model % 2:
            raise ConfigError(f"d_model must be even (positions pair sin and cos), "
                              f"got {self.d_model}")
        if self.adapter_bottleneck < 1:
            raise ConfigError(f"adapter_bottleneck must be >= 1, got {self.adapter_bottleneck}")


@dataclass
class AdapterSet:
    """Per-style adapter parameters for all decoder layers."""

    style_id: str
    mode: str  # "inverse-para" | "denoise" | "fresh"
    layers: list[dict[str, Tensor]]

    def named(self):
        for i, layer in enumerate(self.layers):
            for key, t in layer.items():
                yield f"adapter.{i}.{key}", t


def adapter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float | str]]:
    """One decoder layer's adapter in draw order: (key, shape, init), init as in `param_layout`."""
    h, b = config.d_model, config.adapter_bottleneck
    return [("ln_g", (h,), "ones"), ("ln_b", (h,), "zeros"),
            ("w_down", (h, b), 0.02), ("w_up", (b, h), "zeros")]


def _draw(rng: np.random.Generator, shape: tuple[int, ...], init: float | str) -> np.ndarray:
    """One float32 parameter: zeros, ones, or the float32 rounding of float64 normals."""
    if init == "zeros":
        return np.zeros(shape, dtype=np.float32)
    if init == "ones":
        return np.ones(shape, dtype=np.float32)
    return rng.normal(0.0, init, size=shape).astype(np.float32)


def fresh_adapters(config: ModelConfig, style_id: str, seed: int = 0,
                   mode: str = "fresh") -> AdapterSet:
    """Identity-at-init adapters, drawn layer by layer from one stream in `adapter_layout` order."""
    rng = np.random.default_rng(seed)
    layout = adapter_layout(config)
    layers = [{key: Tensor(_draw(rng, shape, init)) for key, shape, init in layout}
              for _ in range(config.n_dec_layers)]
    return AdapterSet(style_id=style_id, mode=mode, layers=layers)


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None].astype(np.float64)
    dim = np.arange(d_model // 2)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * dim / d_model)
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


class Model:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor],
                 groups: dict[str, str], base_id: str):
        self.config = config
        self.params = params
        self.groups = groups
        self.base_id = base_id
        self.adapters: AdapterSet | None = None
        self.positions = sinusoidal_positions(config.max_len, config.d_model).astype(
            params["emb.tok"].data.dtype)

    def named_parameters(self):
        yield from self.params.items()
        if self.adapters is not None:
            yield from self.adapters.named()

    def base_bytes(self) -> bytes:
        """The base parameters' bytes in name order, for freeze checks."""
        return b"".join(self.params[n].data.tobytes() for n in sorted(self.params))


def lineage_fingerprint(config: ModelConfig, params: dict[str, Tensor]) -> str:
    """Identity of a freshly built base: config plus initial weights.

    Computed over the float32 storage form so it survives checkpoint
    round-trips, and preserved verbatim through training so that adapters
    pretrained on a base remain loadable onto its fine-tuned descendants.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(asdict(config), sort_keys=True).encode())
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(params[name].data.astype("<f4").tobytes())
    return digest.hexdigest()


def param_layout(config: ModelConfig) -> list[tuple[str, str, tuple[int, ...], float | str]]:
    """Every base parameter in registry order: (name, group, shape, init).

    init is "zeros", "ones" or the standard deviation of a zero-mean normal
    draw; `build_model` draws the normals from one stream in this order.
    """
    h, f, v = config.d_model, config.d_ffn, config.vocab_size
    layout = []

    def attn_block(prefix: str, group: str):
        std = (2.0 / (h + h)) ** 0.5
        layout.extend((f"{prefix}.{w}", group, (h, h), std) for w in ("wq", "wk", "wv", "wo"))
        # no key bias: softmax scores are invariant to it (zero gradient)
        layout.extend((f"{prefix}.{b}", group, (h,), "zeros") for b in ("bq", "bv", "bo"))

    def ffn_block(prefix: str, group: str):
        layout.extend([(f"{prefix}.w1", group, (h, f), (2.0 / (h + f)) ** 0.5),
                       (f"{prefix}.b1", group, (f,), "zeros"),
                       (f"{prefix}.w2", group, (f, h), (2.0 / (f + h)) ** 0.5),
                       (f"{prefix}.b2", group, (h,), "zeros")])

    def ln_block(prefix: str, group: str):
        layout.extend([(f"{prefix}.g", group, (h,), "ones"), (f"{prefix}.b", group, (h,), "zeros")])

    layout.append(("emb.tok", "enc", (v, h), h ** -0.5))
    for i in range(config.n_enc_layers):
        attn_block(f"enc.{i}.self", "enc")
        ln_block(f"enc.{i}.ln1", "enc")
        ffn_block(f"enc.{i}.ffn", "enc")
        ln_block(f"enc.{i}.ln2", "enc")
    for i in range(config.n_dec_layers):
        attn_block(f"dec.{i}.self", "dec-self")
        ln_block(f"dec.{i}.ln1", "dec-self")
        attn_block(f"dec.{i}.catt", "dec-catt")
        ln_block(f"dec.{i}.ln2", "dec-catt")
        ffn_block(f"dec.{i}.ffn", "dec-other")
        ln_block(f"dec.{i}.ln3", "dec-other")
    return layout


def model_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray], base_id: str) -> Model:
    """A model whose parameters are `arrays` (taken, not copied), in layout order.

    `arrays` must hold exactly the layout's names at the layout's shapes.
    """
    layout = param_layout(config)
    params = {name: Tensor(arrays[name], requires_grad=True) for name, *_ in layout}
    return Model(config, params, {name: group for name, group, *_ in layout}, base_id)


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize the float32 base network from config.seed.

    The normals are drawn in float64 and rounded to float32.
    """
    rng = np.random.default_rng(config.seed)
    arrays = {name: _draw(rng, shape, init) for name, _, shape, init in param_layout(config)}
    model = model_from_arrays(config, arrays, "")
    model.base_id = lineage_fingerprint(config, model.params)
    return model


# ---------------------------------------------------------------------------
# forward pieces


def _heads(model: Model, name: str, x: Tensor, which: str) -> Tensor:
    """Project x [B, L, h] with `name`'s q, k or v weights into heads [B, heads, L, dh]."""
    p = model.params
    bias = None if which == "k" else p[f"{name}.b{which}"]
    return ag.project_heads(x, p[f"{name}.w{which}"], bias, model.config.n_heads)


def _attend(model: Model, name: str, q: Tensor, k: Tensor, v: Tensor,
            mask: np.ndarray | None) -> Tensor:
    """Scaled dot-product attention of projected heads, merged and output-projected."""
    p = model.params
    return ag.merge_heads(ag.attention(q, k, v, mask), p[f"{name}.wo"], p[f"{name}.bo"])


def _attention(model: Model, name: str, x_q: Tensor, x_kv: Tensor,
               mask: np.ndarray | None) -> Tensor:
    return _attend(model, name, _heads(model, name, x_q, "q"), _heads(model, name, x_kv, "k"),
                   _heads(model, name, x_kv, "v"), mask)


def _ffn(model: Model, name: str, x: Tensor) -> Tensor:
    p = model.params
    return ag.ffn(x, p[f"{name}.w1"], p[f"{name}.b1"], p[f"{name}.w2"], p[f"{name}.b2"])


def _residual_ln(model: Model, name: str, x: Tensor, sub: Tensor) -> Tensor:
    p = model.params
    return ag.residual_layer_norm(x, sub, p[f"{name}.g"], p[f"{name}.b"], model.config.ln_eps)


def _embed(model: Model, tokens: np.ndarray, start: int = 0) -> Tensor:
    """Scaled token embeddings plus the positions start, start + 1, ..."""
    end = start + tokens.shape[1]
    if end > model.config.max_len:
        raise ValueError(f"sequence reaches position {end}, beyond model "
                         f"max_len={model.config.max_len}")
    return ag.scaled_embedding(model.params["emb.tok"], tokens, model.config.d_model ** 0.5,
                               model.positions[start:end])


def pad_attention_mask(tokens: np.ndarray, pad_id: int) -> np.ndarray:
    """Additive mask hiding PAD key positions, shaped for broadcast over heads."""
    bsz, length = tokens.shape
    mask = np.where(tokens == pad_id, MASK_NEG, 0.0).astype(np.float32)
    return mask.reshape(bsz, 1, 1, length)


def causal_attention_mask(length: int, past: int = 0) -> np.ndarray:
    """Additive mask letting each of `length` new positions see the `past` cached
    positions, itself and the new positions before it."""
    mask = np.triu(np.full((length, past + length), MASK_NEG, dtype=np.float32), k=past + 1)
    return mask.reshape(1, 1, length, past + length)


def adapter_forward(z: Tensor, adapters: AdapterSet, layer: int, eps: float) -> Tensor:
    """Bottleneck adapter: up(relu(down(LN(z)))) + z."""
    if adapters is None or layer >= len(adapters.layers):
        raise AdapterError(f"no adapter available for decoder layer {layer}")
    pa = adapters.layers[layer]
    return ag.adapter(z, pa["ln_g"], pa["ln_b"], pa["w_down"], pa["w_up"], eps)


def encode_batch(model: Model, tokens: np.ndarray, src_mask: np.ndarray | None) -> Tensor:
    x = _embed(model, tokens)
    for i in range(model.config.n_enc_layers):
        a = _attention(model, f"enc.{i}.self", x, x, src_mask)
        x = _residual_ln(model, f"enc.{i}.ln1", x, a)
        f = _ffn(model, f"enc.{i}.ffn", x)
        x = _residual_ln(model, f"enc.{i}.ln2", x, f)
    return x


@dataclass
class DecodeCache:
    """Keys and values of every decoder layer for incremental decoding (inference only).

    Row r of every array belongs to prefix row r of the next
    `decode_logits_batch` call. `cross[i]` is decoder layer i's
    cross-attention (K, V) of the encoder states; `past[i]` is its
    self-attention (K, V) of the positions decoded so far, as many as its
    len axis holds. All are [rows, heads, len, dh] arrays.
    """

    cross: list[tuple[np.ndarray, np.ndarray]]
    past: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def build(cls, model: Model, enc_states: Tensor) -> DecodeCache:
        """An empty cache for the rows of `enc_states`, with their cross-attention K/V."""
        names = [f"dec.{i}.catt" for i in range(model.config.n_dec_layers)]
        cross = [(_heads(model, n, enc_states, "k").data, _heads(model, n, enc_states, "v").data)
                 for n in names]
        empty = np.zeros(cross[0][0].shape[:2] + (0,) + cross[0][0].shape[3:],
                         dtype=cross[0][0].dtype)
        return cls(cross, [(empty, empty)] * len(names))

    def select(self, rows: np.ndarray) -> DecodeCache:
        """A cache whose row j is row `rows[j]` of this one; rows may repeat or reorder."""
        return DecodeCache([(k[rows], v[rows]) for k, v in self.cross],
                           [(k[rows], v[rows]) for k, v in self.past])


def decode_logits_batch(model: Model, enc_states: Tensor, src_mask: np.ndarray | None,
                        prefix: np.ndarray, cache: DecodeCache | None = None) -> Tensor:
    """Next-token logits at every prefix position, shape [B, T, V].

    Without a cache, `prefix` is the whole decoder input and positions start
    at 0. With one, `prefix` holds only the positions after the cached ones;
    every layer appends their keys and values to the cache, and
    cross-attention reads the cache's encoder K/V instead of projecting
    `enc_states` again. The cache holds raw arrays off the tape, so it is
    refused while gradients are recorded.
    """
    if model.adapters is None:
        raise AdapterError("decoder requires an installed AdapterSet (style-less runs use s0)")
    if cache is not None and ag.grad_enabled():
        raise RuntimeError("decode cache is inference-only; call under autograd.no_grad()")
    t = prefix.shape[1]
    past = 0 if cache is None else cache.past[0][0].shape[2]
    y = _embed(model, prefix, past)
    causal = causal_attention_mask(t, past)
    for i in range(model.config.n_dec_layers):
        name = f"dec.{i}.self"
        q, k, v = (_heads(model, name, y, which) for which in "qkv")
        if cache is not None:
            k = Tensor(np.concatenate((cache.past[i][0], k.data), axis=2))
            v = Tensor(np.concatenate((cache.past[i][1], v.data), axis=2))
            cache.past[i] = (k.data, v.data)
        y = _residual_ln(model, f"dec.{i}.ln1", y, _attend(model, name, q, k, v, causal))
        name = f"dec.{i}.catt"
        if cache is None:
            c = _attention(model, name, y, enc_states, src_mask)
        else:
            k, v = cache.cross[i]
            c = _attend(model, name, _heads(model, name, y, "q"), Tensor(k), Tensor(v), src_mask)
        y = _residual_ln(model, f"dec.{i}.ln2", y, c)
        f = _ffn(model, f"dec.{i}.ffn", y)
        y = _residual_ln(model, f"dec.{i}.ln3", y, f)
        y = adapter_forward(y, model.adapters, i, model.config.ln_eps)
    return ag.tied_logits(y, model.params["emb.tok"])


def swap_adapters(model: Model, adapters: AdapterSet) -> Model:
    """Install a style's adapters; the base registry is untouched."""
    cfg = model.config
    if len(adapters.layers) != cfg.n_dec_layers:
        raise AdapterError(
            f"adapter set has {len(adapters.layers)} layers, model has {cfg.n_dec_layers}"
        )
    want = {key: shape for key, shape, _ in adapter_layout(cfg)}
    for i, layer in enumerate(adapters.layers):
        shapes = {key: t.shape for key, t in layer.items()}
        if shapes != want:
            raise AdapterError(f"adapter layer {i} shaped {shapes}, expected {want}")
    model.adapters = adapters
    return model


# Stage-2 trainable selectors and the base groups each one trains.
SELECTORS = {
    "enc": ("enc",),
    "enc+catt": ("enc", "dec-catt"),
    "enc+catt+dec": ("enc", "dec-catt", "dec-self", "dec-other"),
}


def param_group(model: Model, selector: str) -> list[tuple[str, Tensor]]:
    """Named tensors of one trainable-parameter group."""
    if selector == "adapter":
        if model.adapters is None:
            raise AdapterError("no adapter set installed")
        return list(model.adapters.named())
    if selector not in SELECTORS:
        raise ValueError(f"unknown parameter selector: {selector!r}")
    wanted = SELECTORS[selector]
    return [(n, t) for n, t in model.params.items() if model.groups[n] in wanted]
