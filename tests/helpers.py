"""Shared oracles: random score tables, exhaustive search, greedy search as
the beam-size-1 reference, the uncached decoder that the incremental one
must match, the elementary-op forward that the fused autograd ops must
match bit for bit, and the per-token-`choice` corpus generators whose random
stream and output the fast ones must reproduce exactly. Also `float64`, the
widened copy of a float32 model that the exact comparisons run on, a
model, batch and training step to compare two computations of,
`usable_cpus`, which sets how many CPUs the worker pools see, and `reseal`,
which edits an artifact file and writes it back under a valid checksum."""

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from styleswap import autograd as ag
from styleswap import decoding as dec
from styleswap import model as mdl
from styleswap import training
from styleswap.data import Vocab

BOS, EOS = 0, 1
VOCAB = Vocab()


def usable_cpus(monkeypatch, n: int) -> None:
    """Let this process run on `n` CPUs; a pool worker still counts as one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def reseal(path: Path, edit) -> None:
    """Let `edit(parts)` change an artifact file's parts, then write them back
    with a valid checksum.

    `parts` holds the 8-byte "prefix" (magic and version), the parsed
    "header" and the "records" bytes after it; setting "header_len" writes
    that header length in place of the true one. With no change the file
    is rewritten byte for byte.
    """
    body = Path(path).read_bytes()[:-32]
    (n,) = struct.unpack_from("<I", body, 8)
    parts = {"prefix": bytearray(body[:8]), "header": json.loads(body[12 : 12 + n]),
             "records": bytearray(body[12 + n :])}
    edit(parts)
    header = json.dumps(parts["header"], sort_keys=True, separators=(",", ":")).encode()
    body = (bytes(parts["prefix"]) + struct.pack("<I", parts.get("header_len", len(header)))
            + header + bytes(parts["records"]))
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def _prefix_seed(seed: int, prefix: tuple[int, ...]) -> int:
    digest = hashlib.blake2s(f"{seed}:{prefix}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def table_step_fn(seed: int, vocab_size: int):
    """Deterministic random log-prob table keyed by prefix; BOS is banned."""

    def step(prefixes, parents):
        rows = []
        for prefix in prefixes:
            rng = np.random.default_rng(_prefix_seed(seed, tuple(prefix)))
            logits = rng.normal(size=vocab_size) * 2.0
            logits[BOS] = -np.inf
            shifted = logits - logits[1:].max()
            row = shifted - np.log(np.exp(shifted[1:]).sum())
            rows.append(row)
        return np.asarray(rows)

    return step


def exhaustive_best(step_fn, max_len: int, vocab_size: int):
    """Enumerate every decodable sequence and rank exactly like the decoder.

    The walk is depth-first, so `step_fn` must ignore its parent rows."""
    pool = []

    def walk(tokens, score):
        if len(tokens) == max_len:
            pool.append((tuple(tokens), score, len(tokens)))
            return
        row = step_fn([[BOS, *tokens]], [0])[0]
        for tok in range(vocab_size):
            if not np.isfinite(row[tok]):
                continue
            if tok == EOS:
                pool.append((tuple(tokens), score + row[tok], len(tokens) + 1))
            else:
                walk(tokens + [tok], score + row[tok])

    walk([], 0.0)
    best = min(pool, key=lambda e: (-e[1], len(e[0]), e[0]))
    return list(best[0]), best[1]


def float64(model, adapters=None):
    """A float64 copy of `model` with float64 copies of `adapters` (default: the
    installed set) installed: the same float32-rounded values, computed in
    float64, for the tests that compare two computations at 1e-9 or closer."""
    wide = mdl.model_from_arrays(model.config, {n: t.data.astype(np.float64)
                                                for n, t in model.params.items()}, model.base_id)
    adapters = adapters or model.adapters
    if adapters is not None:
        layers = [{k: ag.Tensor(t.data.astype(np.float64)) for k, t in layer.items()}
                  for layer in adapters.layers]
        mdl.swap_adapters(wide, mdl.AdapterSet(adapters.style_id, adapters.mode, layers))
    return wide


def full_prefix_step_fn(model, src, vocab):
    """Reference scorer: re-runs the decoder over every whole prefix, no cache."""
    with ag.no_grad():
        enc = mdl.encode_batch(model, np.asarray([src], dtype=np.int64), None)

    def step(prefixes, parents):
        tiled = ag.Tensor(np.repeat(enc.data, len(prefixes), axis=0))
        with ag.no_grad():
            logits = mdl.decode_logits_batch(model, tiled, None,
                                             np.asarray(prefixes, dtype=np.int64))
        logp = dec.log_softmax_rows(logits.data[:, -1, :])
        logp[:, vocab.pad] = -np.inf
        logp[:, vocab.bos] = -np.inf
        return logp

    return step


def greedy_core(step_fn, bos, eos, max_len):
    """Reference for beam size 1: the argmax token at every step, raw score.

    Each call scores one prefix, which extends row 0 of the call before."""
    prefix = [bos]
    tokens = []
    score = 0.0
    for _ in range(max_len):
        row = step_fn([prefix], [0])[0]
        tok = int(np.argmax(row))  # first maximum = lowest token id on ties
        score += float(row[tok])
        if tok == eos:
            break
        tokens.append(tok)
        prefix.append(tok)
    return tokens, score


def list_beam_core(step_fn, bos, eos, max_len, beam_size, alpha):
    """Reference beam search: sorts every (score, tokens) candidate, never stops early."""
    active = [((), 0.0)]
    parents = [0]
    pool = []  # tokens, score, steps scored
    for _ in range(max_len):
        logp = step_fn([[bos, *toks] for toks, _ in active], parents)
        candidates = []
        for row_id, ((toks, score), row) in enumerate(zip(active, logp)):
            for v in np.flatnonzero(np.isfinite(row)):
                v = int(v)
                candidates.append((score + float(row[v]), toks + (v,), row_id))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        active, parents = [], []
        for score, seq, row_id in candidates[:beam_size]:
            if seq[-1] == eos:
                pool.append((seq[:-1], score, len(seq)))
            else:
                active.append((seq, score))
                parents.append(row_id)
        if not active:
            break
    pool.extend((toks, score, len(toks)) for toks, score in active)

    def ranking(entry):
        toks, score, steps = entry
        norm = score / (max(steps, 1) ** alpha) if alpha > 0 else score
        return (-norm, len(toks), toks)

    toks, score, steps = min(pool, key=ranking)
    final = score / (max(steps, 1) ** alpha) if alpha > 0 else score
    return list(toks), final


# ---------------------------------------------------------------------------
# A model, a batch and a training step for comparing two computations of it.


def styled_model(seed: int, sizes: dict) -> mdl.Model:
    """A model whose adapters, gains and biases all move the output."""
    cfg = mdl.ModelConfig(vocab_size=len(VOCAB), seed=seed, **sizes)
    model = mdl.build_model(cfg)
    rng = np.random.default_rng(seed)
    adapters = mdl.fresh_adapters(cfg, "s1", seed=seed + 1)
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0.0, 0.3, size=layer["w_up"].shape)
        layer["ln_g"].data[:] = rng.uniform(0.5, 1.5, size=layer["ln_g"].shape)
        layer["ln_b"].data[:] = rng.normal(0.0, 0.1, size=layer["ln_b"].shape)
    for t in model.params.values():
        if t.data.ndim == 1:
            t.data += rng.normal(0.0, 0.1, size=t.shape)
    return mdl.swap_adapters(model, adapters)


def random_batch(seed: int, bsz: int = 6):
    rng = np.random.default_rng(seed + 100)
    pairs = [(list(rng.integers(4, len(VOCAB), size=rng.integers(3, 18))),
              list(rng.integers(4, len(VOCAB), size=rng.integers(2, 14))))
             for _ in range(bsz)]
    return next(training.make_batches(pairs, VOCAB, bsz, None))


def train_step(model, selector, batch, encode, decode):
    """Logits, loss and the trainable set's gradients of one training step."""
    live = training.set_trainable(model, mdl.param_group(model, selector))
    src, dec_in, dec_tgt = batch
    mask = mdl.pad_attention_mask(src, VOCAB.pad)
    logits = decode(model, encode(model, src, mask), mask, dec_in)
    bsz, t, v = logits.shape
    loss = ag.cross_entropy(ag.reshape(logits, (bsz * t, v)), dec_tgt.ravel(), VOCAB.pad)
    ag.backward(loss)
    grads = {name: t.grad for name, t in live}
    frozen = [name for name, t in model.named_parameters()
              if t.grad is not None and name not in grads]
    return logits.data, loss.data, grads, frozen


# ---------------------------------------------------------------------------
# The model's forward as chains of elementary autograd ops, one tape node per
# op: the oracle that the fused ops must match bit for bit, in logits and in
# every gradient.


def _linear(x2d, w, b):
    return ag.add(ag.matmul(x2d, w), b)


def composed_heads(model, name, x, which):
    p = model.params
    heads = model.config.n_heads
    bsz, length, h = x.shape
    flat = ag.reshape(x, (bsz * length, h))
    if which == "k":
        y = ag.matmul(flat, p[f"{name}.wk"])
    else:
        y = _linear(flat, p[f"{name}.w{which}"], p[f"{name}.b{which}"])
    return ag.transpose(ag.reshape(y, (bsz, length, heads, h // heads)), (0, 2, 1, 3))


def composed_attend(model, name, q, k, v, mask):
    p = model.params
    bsz, heads, t, dh = q.shape
    scale = ag.Tensor(np.asarray(dh ** -0.5, dtype=q.data.dtype))
    scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), scale)
    if mask is not None:
        scores = ag.add(scores, ag.Tensor(mask))
    ctx = ag.matmul(ag.softmax(scores, axis=-1), v)
    merged = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (bsz * t, heads * dh))
    out = _linear(merged, p[f"{name}.wo"], p[f"{name}.bo"])
    return ag.reshape(out, (bsz, t, heads * dh))


def composed_ffn(model, name, x):
    p = model.params
    bsz, t, h = x.shape
    y = _linear(ag.reshape(x, (bsz * t, h)), p[f"{name}.w1"], p[f"{name}.b1"])
    y = _linear(ag.relu(y), p[f"{name}.w2"], p[f"{name}.b2"])
    return ag.reshape(y, (bsz, t, h))


def composed_residual_ln(model, name, x, sub):
    p = model.params
    return ag.layer_norm(ag.add(x, sub), p[f"{name}.g"], p[f"{name}.b"],
                         model.config.ln_eps)


def composed_embed(model, tokens, start=0):
    end = start + tokens.shape[1]
    if end > model.config.max_len:
        raise ValueError(f"sequence reaches position {end}, beyond model "
                         f"max_len={model.config.max_len}")
    weight = model.params["emb.tok"]
    scale = ag.Tensor(np.asarray(model.config.d_model ** 0.5, dtype=weight.data.dtype))
    scaled = ag.mul(ag.embedding(weight, tokens), scale)
    return ag.add(scaled, ag.Tensor(model.positions[start:end]))


def composed_adapter_forward(z, adapters, layer, eps):
    if adapters is None or layer >= len(adapters.layers):
        raise mdl.AdapterError(f"no adapter available for decoder layer {layer}")
    pa = adapters.layers[layer]
    h = pa["w_down"].shape[0]
    flat_shape = (-1, h) if len(z.shape) > 1 else (1, h)
    zn = ag.layer_norm(z, pa["ln_g"], pa["ln_b"], eps)
    inner = ag.relu(ag.matmul(ag.reshape(zn, flat_shape), pa["w_down"]))
    up = ag.reshape(ag.matmul(inner, pa["w_up"]), z.shape)
    return ag.add(up, z)


def composed_logits(model, y):
    bsz, t, h = y.shape
    flat = ag.reshape(y, (bsz * t, h))
    logits = ag.matmul(flat, ag.transpose(model.params["emb.tok"], (1, 0)))
    return ag.reshape(logits, (bsz, t, model.config.vocab_size))


def composed_attention(model, name, x_q, x_kv, mask):
    return composed_attend(model, name, composed_heads(model, name, x_q, "q"),
                           composed_heads(model, name, x_kv, "k"),
                           composed_heads(model, name, x_kv, "v"), mask)


def composed_encode_batch(model, tokens, src_mask):
    x = composed_embed(model, tokens)
    for i in range(model.config.n_enc_layers):
        a = composed_attention(model, f"enc.{i}.self", x, x, src_mask)
        x = composed_residual_ln(model, f"enc.{i}.ln1", x, a)
        f = composed_ffn(model, f"enc.{i}.ffn", x)
        x = composed_residual_ln(model, f"enc.{i}.ln2", x, f)
    return x


def composed_cache(model, enc_states):
    names = [f"dec.{i}.catt" for i in range(model.config.n_dec_layers)]
    cross = [(composed_heads(model, n, enc_states, "k").data,
              composed_heads(model, n, enc_states, "v").data) for n in names]
    empty = np.zeros(cross[0][0].shape[:2] + (0,) + cross[0][0].shape[3:],
                     dtype=cross[0][0].dtype)
    return mdl.DecodeCache(cross, [(empty, empty)] * len(names))


def composed_decode_logits_batch(model, enc_states, src_mask, prefix, cache=None):
    if model.adapters is None:
        raise mdl.AdapterError("decoder requires an installed AdapterSet (style-less runs use s0)")
    if cache is not None and ag.grad_enabled():
        raise RuntimeError("decode cache is inference-only; call under autograd.no_grad()")
    t = prefix.shape[1]
    past = 0 if cache is None else cache.past[0][0].shape[2]
    y = composed_embed(model, prefix, past)
    causal = mdl.causal_attention_mask(t, past)
    for i in range(model.config.n_dec_layers):
        name = f"dec.{i}.self"
        q, k, v = (composed_heads(model, name, y, which) for which in "qkv")
        if cache is not None:
            k = ag.Tensor(np.concatenate((cache.past[i][0], k.data), axis=2))
            v = ag.Tensor(np.concatenate((cache.past[i][1], v.data), axis=2))
            cache.past[i] = (k.data, v.data)
        y = composed_residual_ln(model, f"dec.{i}.ln1", y,
                                 composed_attend(model, name, q, k, v, causal))
        name = f"dec.{i}.catt"
        if cache is None:
            c = composed_attention(model, name, y, enc_states, src_mask)
        else:
            k, v = cache.cross[i]
            c = composed_attend(model, name, composed_heads(model, name, y, "q"),
                                ag.Tensor(k), ag.Tensor(v), src_mask)
        y = composed_residual_ln(model, f"dec.{i}.ln2", y, c)
        f = composed_ffn(model, f"dec.{i}.ffn", y)
        y = composed_residual_ln(model, f"dec.{i}.ln3", y, f)
        y = composed_adapter_forward(y, model.adapters, i, model.config.ln_eps)
    return composed_logits(model, y)


# ---------------------------------------------------------------------------
# The corpus generators' draws as `Generator.choice` calls, one per token: the
# oracle that `data`'s generators must match in output and in the random
# stream they leave behind. Swap them into `data` with `ORACLE_GENERATORS`.


def choice_interleave(vocab, rng, n_k, n_f):
    keywords = rng.choice(len(vocab.keywords), size=n_k, replace=False)
    fillers = rng.choice(len(vocab.fillers), size=n_f, replace=True)
    total = n_k + n_f
    slots = np.zeros(total, dtype=bool)
    slots[rng.choice(total, size=n_k, replace=False)] = True
    out, ki, fi = [], 0, 0
    for is_keyword in slots:
        if is_keyword:
            out.append(vocab.keywords[keywords[ki]])
            ki += 1
        else:
            out.append(vocab.fillers[fillers[fi]])
            fi += 1
    return out


def choice_stylize(vocab, plain, style_id, rng):
    if any(vocab.marker_style(t) for t in plain):
        raise ValueError("stylize: input already contains marker tokens")
    pick = lambda: int(rng.choice(vocab.markers[style_id]))
    if style_id == "s1":
        return [pick()] + list(plain) + [pick(), pick()]
    if style_id == "s2":
        out = []
        for count, tok in enumerate(plain, start=1):
            out.append(tok)
            if count % 2 == 0:
                out.append(pick())
        return out
    if style_id == "s3":
        out = list(plain)
        last_k = max((i for i, t in enumerate(out) if vocab.is_keyword(t)), default=None)
        if last_k is not None:
            out.insert(last_k + 1, out[last_k])
        return [pick()] + out + [pick()]
    raise ValueError(f"no decoration rule for style {style_id!r}")


def choice_noise_gn(vocab, t, mask_rate, delete_rate, rng):
    if not (0.0 <= mask_rate < 1.0 and 0.0 <= delete_rate < 1.0):
        raise ValueError("rates must be in [0, 1)")
    if mask_rate + delete_rate >= 1.0:
        raise ValueError("mask_rate + delete_rate must be < 1")
    out = []
    for tok in t:
        u = rng.random()
        if u < mask_rate:
            out.append(vocab.mask)
        elif u < mask_rate + delete_rate:
            continue
        else:
            out.append(tok)
    return out


def choice_strip_style_gp(vocab, t, rng):
    out = [tok for tok in t if vocab.marker_style(tok) is None]
    last_k = max((i for i, tok in enumerate(out) if vocab.is_keyword(tok)), default=None)
    if last_k is not None and last_k > 0 and out[last_k - 1] == out[last_k]:
        del out[last_k]
    out = [
        int(rng.choice(vocab.fillers)) if vocab.is_filler(tok) else tok
        for tok in out
    ]
    i = 0
    while i < len(out) - 1:
        if vocab.is_filler(out[i]) and vocab.is_filler(out[i + 1]):
            if rng.random() < 0.5:
                out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return out


ORACLE_GENERATORS = {"_interleave": choice_interleave, "stylize": choice_stylize,
                     "noise_gn": choice_noise_gn, "strip_style_gp": choice_strip_style_gp}
