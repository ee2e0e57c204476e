"""Encoder-decoder transformer with swappable bottleneck adapters.

The base network is a conventional post-LN transformer: bidirectional
encoder, causal decoder with cross-attention, weight-tied output head,
fixed sinusoidal positions. One adapter (layer norm, down-projection,
relu, up-projection, residual) sits after the feed-forward block of every
decoder layer; the whole per-style set swaps in and out as a unit.

Parameters live in a flat name -> Tensor registry. Every base parameter
belongs to exactly one group (enc, dec-self, dec-catt, dec-other), which
is what the training stages use to express freeze policies. The token
embedding joins the enc group: this model trains from scratch, so the
task stage must be able to move the (tied) output head.
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
        if self.adapter_bottleneck < 1:
            raise ConfigError(f"adapter_bottleneck must be >= 1, got {self.adapter_bottleneck}")


ADAPTER_KEYS = ("ln_g", "ln_b", "w_down", "w_up")


@dataclass
class AdapterSet:
    """Per-style adapter parameters for all decoder layers."""

    style_id: str
    mode: str  # "inverse-para" | "denoise" | "fresh"
    layers: list[dict[str, Tensor]]

    def named(self):
        for i, layer in enumerate(self.layers):
            for key in ADAPTER_KEYS:
                yield f"adapter.{i}.{key}", layer[key]


def fresh_adapters(config: ModelConfig, style_id: str, seed: int = 0,
                   mode: str = "fresh") -> AdapterSet:
    """Identity-at-init adapters: small random down-projection, zero up-projection."""
    rng = np.random.default_rng(seed)
    h, b = config.d_model, config.adapter_bottleneck
    layers = []
    for _ in range(config.n_dec_layers):
        layers.append({
            "ln_g": Tensor(np.ones(h)),
            "ln_b": Tensor(np.zeros(h)),
            "w_down": Tensor(rng.normal(0.0, 0.02, size=(h, b))),
            "w_up": Tensor(np.zeros((b, h))),
        })
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
        self.positions = sinusoidal_positions(config.max_len, config.d_model)

    def named_parameters(self):
        yield from self.params.items()
        if self.adapters is not None:
            yield from self.adapters.named()

    def base_bytes(self) -> bytes:
        """Canonical float64 bytes of the base parameters, for freeze checks."""
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


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize the base network from config.seed."""
    rng = np.random.default_rng(config.seed)
    h, f, v = config.d_model, config.d_ffn, config.vocab_size
    params: dict[str, Tensor] = {}
    groups: dict[str, str] = {}

    def param(name: str, group: str, shape: tuple[int, ...], std: float | None):
        if std is None:
            data = np.zeros(shape)
        elif std == 0.0:
            data = np.ones(shape)
        else:
            data = rng.normal(0.0, std, size=shape)
        params[name] = Tensor(data, requires_grad=True)
        groups[name] = group

    def attn_block(prefix: str, group: str):
        std = (2.0 / (h + h)) ** 0.5
        for w in ("wq", "wk", "wv", "wo"):
            param(f"{prefix}.{w}", group, (h, h), std)
        # no key bias: softmax scores are invariant to it (zero gradient)
        for b in ("bq", "bv", "bo"):
            param(f"{prefix}.{b}", group, (h,), None)

    def ffn_block(prefix: str, group: str):
        param(f"{prefix}.w1", group, (h, f), (2.0 / (h + f)) ** 0.5)
        param(f"{prefix}.b1", group, (f,), None)
        param(f"{prefix}.w2", group, (f, h), (2.0 / (f + h)) ** 0.5)
        param(f"{prefix}.b2", group, (h,), None)

    def ln_block(prefix: str, group: str):
        param(f"{prefix}.g", group, (h,), 0.0)
        param(f"{prefix}.b", group, (h,), None)

    param("emb.tok", "enc", (v, h), h ** -0.5)
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

    return Model(config, params, groups, lineage_fingerprint(config, params))


# ---------------------------------------------------------------------------
# forward pieces


def _linear(x2d: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ag.add(ag.matmul(x2d, w), b)


def _attention(model: Model, name: str, x_q: Tensor, x_kv: Tensor,
               mask: np.ndarray | None) -> Tensor:
    p = model.params
    heads = model.config.n_heads
    bsz, t, h = x_q.shape
    s = x_kv.shape[1]
    dh = h // heads

    def proj(x, which, length):
        flat = ag.reshape(x, (bsz * length, h))
        if which == "k":
            y = ag.matmul(flat, p[f"{name}.wk"])
        else:
            y = _linear(flat, p[f"{name}.w{which}"], p[f"{name}.b{which}"])
        return ag.transpose(ag.reshape(y, (bsz, length, heads, dh)), (0, 2, 1, 3))

    q = proj(x_q, "q", t)
    k = proj(x_kv, "k", s)
    v = proj(x_kv, "v", s)
    scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), Tensor(dh ** -0.5))
    if mask is not None:
        scores = ag.add(scores, Tensor(mask))
    ctx = ag.matmul(ag.softmax(scores, axis=-1), v)
    merged = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (bsz * t, h))
    out = _linear(merged, p[f"{name}.wo"], p[f"{name}.bo"])
    return ag.reshape(out, (bsz, t, h))


def _ffn(model: Model, name: str, x: Tensor) -> Tensor:
    p = model.params
    bsz, t, h = x.shape
    y = _linear(ag.reshape(x, (bsz * t, h)), p[f"{name}.w1"], p[f"{name}.b1"])
    y = _linear(ag.relu(y), p[f"{name}.w2"], p[f"{name}.b2"])
    return ag.reshape(y, (bsz, t, h))


def _residual_ln(model: Model, name: str, x: Tensor, sub: Tensor) -> Tensor:
    p = model.params
    return ag.layer_norm(ag.add(x, sub), p[f"{name}.g"], p[f"{name}.b"],
                         model.config.ln_eps)


def _embed(model: Model, tokens: np.ndarray) -> Tensor:
    t = tokens.shape[1]
    scaled = ag.mul(ag.embedding(model.params["emb.tok"], tokens),
                    Tensor(model.config.d_model ** 0.5))
    return ag.add(scaled, Tensor(model.positions[:t]))


def pad_attention_mask(tokens: np.ndarray, pad_id: int) -> np.ndarray:
    """Additive mask hiding PAD key positions, shaped for broadcast over heads."""
    bsz, length = tokens.shape
    mask = np.where(tokens == pad_id, MASK_NEG, 0.0)
    return mask.reshape(bsz, 1, 1, length)


def causal_attention_mask(length: int) -> np.ndarray:
    mask = np.triu(np.full((length, length), MASK_NEG), k=1)
    return mask.reshape(1, 1, length, length)


def adapter_forward(z: Tensor, adapters: AdapterSet, layer: int, eps: float) -> Tensor:
    """Bottleneck adapter: up(relu(down(LN(z)))) + z."""
    if adapters is None or layer >= len(adapters.layers):
        raise AdapterError(f"no adapter available for decoder layer {layer}")
    pa = adapters.layers[layer]
    h = pa["w_down"].shape[0]
    flat_shape = (-1, h) if len(z.shape) > 1 else (1, h)
    zn = ag.layer_norm(z, pa["ln_g"], pa["ln_b"], eps)
    inner = ag.relu(ag.matmul(ag.reshape(zn, flat_shape), pa["w_down"]))
    up = ag.reshape(ag.matmul(inner, pa["w_up"]), z.shape)
    return ag.add(up, z)


def encode_batch(model: Model, tokens: np.ndarray, src_mask: np.ndarray | None) -> Tensor:
    x = _embed(model, tokens)
    for i in range(model.config.n_enc_layers):
        a = _attention(model, f"enc.{i}.self", x, x, src_mask)
        x = _residual_ln(model, f"enc.{i}.ln1", x, a)
        f = _ffn(model, f"enc.{i}.ffn", x)
        x = _residual_ln(model, f"enc.{i}.ln2", x, f)
    return x


def decode_logits_batch(model: Model, enc_states: Tensor, src_mask: np.ndarray | None,
                        prefix: np.ndarray, use_adapters: bool = True) -> Tensor:
    """Next-token logits at every prefix position, shape [B, T, V]."""
    if use_adapters and model.adapters is None:
        raise AdapterError("decoder requires an installed AdapterSet (style-less runs use s0)")
    bsz, t = prefix.shape
    y = _embed(model, prefix)
    causal = causal_attention_mask(t)
    for i in range(model.config.n_dec_layers):
        a = _attention(model, f"dec.{i}.self", y, y, causal)
        y = _residual_ln(model, f"dec.{i}.ln1", y, a)
        c = _attention(model, f"dec.{i}.catt", y, enc_states, src_mask)
        y = _residual_ln(model, f"dec.{i}.ln2", y, c)
        f = _ffn(model, f"dec.{i}.ffn", y)
        y = _residual_ln(model, f"dec.{i}.ln3", y, f)
        if use_adapters:
            y = adapter_forward(y, model.adapters, i, model.config.ln_eps)
    h, v = model.config.d_model, model.config.vocab_size
    flat = ag.reshape(y, (bsz * t, h))
    logits = ag.matmul(flat, ag.transpose(model.params["emb.tok"], (1, 0)))
    return ag.reshape(logits, (bsz, t, v))


def swap_adapters(model: Model, adapters: AdapterSet) -> Model:
    """Install a style's adapters; the base registry is untouched."""
    cfg = model.config
    if len(adapters.layers) != cfg.n_dec_layers:
        raise AdapterError(
            f"adapter set has {len(adapters.layers)} layers, model has {cfg.n_dec_layers}"
        )
    h, b = cfg.d_model, cfg.adapter_bottleneck
    want = {"ln_g": (h,), "ln_b": (h,), "w_down": (h, b), "w_up": (b, h)}
    for name, t in adapters.named():
        kind = name.rsplit(".", 1)[1]
        if t.shape != want[kind]:
            raise AdapterError(f"{name} shaped {t.shape}, expected {want[kind]}")
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
