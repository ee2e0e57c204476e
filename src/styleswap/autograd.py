"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

Tensors double as the tape: every op assigns its output a monotonically
increasing id, so creation order is a topological order of the graph, and
`backward(loss)` replays the reachable entries exactly once, newest first.
Ops are plain functions of tensors; grads accumulate additively and the
caller clears them between optimizer steps. Every op computes in its inputs'
dtype: the model's parameters are float32, so training and decoding run in
float32, and a float64 model (the gradient checks, the tests' exact oracles)
computes in float64. Python scalars in an op do not change its dtype.

The model runs on fused sublayer ops, each one tape node with a hand-written
backward: `project_heads`, `attention`, `merge_heads`, `ffn`,
`residual_layer_norm`, `adapter`, `scaled_embedding` and `tied_logits`. A
training forward of the default model then records 51 nodes instead of 224;
on arrays this small the bookkeeping per node cost more than the arithmetic.
The training loss adds `reshape` and `cross_entropy`.

The elementary ops (`add`, `mul`, `matmul`, `relu`, `transpose`, `tsum`,
`embedding`, `layer_norm`, `softmax`) are the reference ops: tier-1 tests
gradcheck them, and tests/helpers.py writes the model's forward in them as
the oracle that the fused path must match, in logits and bit for bit in
every gradient. Both paths share the layer-norm and softmax helpers, so the
finite-difference audit of the fused ops and of a decoder-step loss, in
tests/test_gradcheck.py, is what checks those helpers. Three rules keep the
bits identical:

- Same layouts. Each backward evaluates the chain's expressions on operands
  of the same memory layout: numpy's matmul leaves BLAS for a slower loop on
  strides BLAS cannot take, and a reduction's order can follow the layout.
- No shared gradient buffers. backward() accumulates in place into the first
  gradient a tensor receives, so a fused op never hands one array to two
  parents (see `residual_layer_norm`).
- Same creation order. Callers create the fused ops in the order the chains
  were created, so gradients reach each shared tensor (the token embedding,
  the encoder states, every layer input) in the same order and sum to the
  same bits.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

_ids = itertools.count()
_grad_enabled = True


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A float32 or float64 ndarray with optional participation in the gradient tape.

    A float32 or float64 array is kept as it is (not copied); any other
    input becomes float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "_id", "_op", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._id = next(_ids)
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _make(data, op: str, parents: tuple[Tensor, ...], bwd) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.grad = None
    out._id = next(_ids)
    out._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bwd = bwd
    else:
        out.requires_grad = False
        out._parents = ()
        out._bwd = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# Shared by the elementary ops and the fused ones. A mean is written as
# sum / h: np.mean divides the same sum by the same count, so the bits agree.


def _ln_forward(z: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm over the last axis: (output, normalized input, 1 / std)."""
    h = z.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match feature dim {h}"
        )
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    centered = z - z.sum(axis=-1, keepdims=True) / h
    var = (centered * centered).sum(axis=-1, keepdims=True) / h
    inv_std = 1.0 / np.sqrt(var + eps)
    zhat = centered * inv_std
    return gain * zhat + bias, zhat, inv_std


def _ln_backward(g, zhat, inv_std, gain: Tensor, bias: Tensor, need_z: bool):
    """Gradients (z, gain, bias) of layer norm; None where not needed."""
    h = zhat.shape[-1]
    ggain = (g * zhat).reshape(-1, h).sum(axis=0) if gain.requires_grad else None
    gbias = g.reshape(-1, h).sum(axis=0) if bias.requires_grad else None
    gz = None
    if need_z:
        gz_hat = g * gain.data
        m1 = gz_hat.sum(axis=-1, keepdims=True) / h
        m2 = (gz_hat * zhat).sum(axis=-1, keepdims=True) / h
        gz = inv_std * (gz_hat - m1 - zhat * m2)
    return gz, ggain, gbias


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_backward(out: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - dot)


# ---------------------------------------------------------------------------
# elementary ops: the reference for the fused ops below


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make(a.data + b.data, "add", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make(a.data * b.data, "mul", (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, plain 2-d or batched with identical leading dims."""
    ash, bsh = a.data.shape, b.data.shape
    if a.data.ndim < 2 or b.data.ndim < 2 or ash[-1] != bsh[-2]:
        raise DimensionError(f"matmul: incompatible shapes {ash} x {bsh}")
    if a.data.ndim != b.data.ndim or ash[:-2] != bsh[:-2]:
        raise DimensionError(f"matmul: mismatched batch dims {ash} x {bsh}")

    def bwd(g):
        ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        gb = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data, "matmul", (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        return ((g * (x.data > 0.0)) if x.requires_grad else None,)

    return _make(out_data, "relu", (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(x.data.shape) if x.requires_grad else None,)

    return _make(x.data.reshape(shape), "reshape", (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv) if x.requires_grad else None,)

    return _make(np.ascontiguousarray(x.data.transpose(axes)), "transpose", (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(g):
        return (np.full_like(x.data, g) if x.requires_grad else None,)

    return _make(np.asarray(x.data.sum()), "sum", (x,), bwd)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = weight[ids[...], :]."""
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        if not weight.requires_grad:
            return (None,)
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.ravel(), g.reshape(-1, weight.data.shape[1]))
        return (gw,)

    return _make(weight.data[ids], "embedding", (weight,), bwd)


def layer_norm(z: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    out, zhat, inv_std = _ln_forward(z.data, gain.data, bias.data, eps)

    def bwd(g):
        return _ln_backward(g, zhat, inv_std, gain, bias, z.requires_grad)

    return _make(out, "layer_norm", (z, gain, bias), bwd)


def softmax(z: Tensor, axis: int = -1) -> Tensor:
    if not -z.data.ndim <= axis < z.data.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {z.data.shape}")
    out_data = _softmax(z.data, axis)

    def bwd(g):
        return (_softmax_backward(out_data, g, axis) if z.requires_grad else None,)

    return _make(out_data, "softmax", (z,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int) -> Tensor:
    """Mean negative log-likelihood over positions whose target != ignore_id."""
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be 2-d, got {logits.data.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy: {n} logit rows vs targets {targets.shape}")
    valid = targets != ignore_id
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: empty loss (all positions ignored)")
    in_range = (targets[valid] >= 0) & (targets[valid] < v)
    if not in_range.all():
        raise ValueError("cross_entropy: target id outside [0, V)")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    safe_targets = np.where(valid, targets, 0)
    nll = -logp[np.arange(n), safe_targets]
    loss = nll[valid].mean()

    def bwd(g):
        if not logits.requires_grad:
            return (None,)
        grad = np.exp(logp)
        grad[np.arange(n), safe_targets] -= 1.0
        grad[~valid] = 0.0
        return (grad * (float(g) / n_valid),)

    return _make(np.asarray(loss), "cross_entropy", (logits,), bwd)


# ---------------------------------------------------------------------------
# fused sublayer ops: one tape node each, the same bits as the chain each
# docstring names (see the module docstring for the rules that keep them)


def project_heads(x: Tensor, w: Tensor, b: Tensor | None, n_heads: int) -> Tensor:
    """x [B, L, h] @ w (+ b), split into heads [B, n_heads, L, d / n_heads].

    Replaces reshape -> matmul -> add -> reshape -> transpose.
    """
    bsz, length, h = x.data.shape
    flat = x.data.reshape(bsz * length, h)
    y = flat @ w.data
    if b is not None:
        y = y + b.data
    d = y.shape[1]
    out = np.ascontiguousarray(y.reshape(bsz, length, n_heads, d // n_heads).transpose(0, 2, 1, 3))

    def bwd(g):
        gy = g.transpose(0, 2, 1, 3).reshape(bsz * length, d)
        gx = (gy @ w.data.swapaxes(-1, -2)).reshape(x.data.shape) if x.requires_grad else None
        gw = flat.swapaxes(-1, -2) @ gy if w.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, (gy.sum(axis=0) if b.requires_grad else None)

    return _make(out, "project_heads", (x, w) if b is None else (x, w, b), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None) -> Tensor:
    """softmax(q k^T / sqrt(dh) + mask) v over heads [B, H, len, dh]; mask is additive.

    Replaces transpose -> matmul -> mul -> add -> softmax -> matmul.
    """
    scale = q.data.shape[-1] ** -0.5
    kt = np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))
    scores = (q.data @ kt) * scale
    if mask is not None:
        scores = scores + mask
    probs = _softmax(scores)

    def bwd(g):
        gq = gk = None
        if q.requires_grad or k.requires_grad:
            gs = _softmax_backward(probs, g @ v.data.swapaxes(-1, -2)) * scale
            if q.requires_grad:
                gq = gs @ kt.swapaxes(-1, -2)
            if k.requires_grad:
                gk = (q.data.swapaxes(-1, -2) @ gs).transpose(0, 1, 3, 2)
        gv = probs.swapaxes(-1, -2) @ g if v.requires_grad else None
        return gq, gk, gv

    return _make(probs @ v.data, "attention", (q, k, v), bwd)


def merge_heads(ctx: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Heads [B, H, T, dh] merged to [B, T, H * dh], then @ w + b.

    Replaces transpose -> reshape -> matmul -> add -> reshape.
    """
    bsz, heads, t, dh = ctx.data.shape
    merged = np.ascontiguousarray(ctx.data.transpose(0, 2, 1, 3)).reshape(bsz * t, heads * dh)
    y = merged @ w.data + b.data

    def bwd(g):
        gy = g.reshape(y.shape)
        gctx = None
        if ctx.requires_grad:
            gm = gy @ w.data.swapaxes(-1, -2)
            gctx = gm.reshape(bsz, t, heads, dh).transpose(0, 2, 1, 3)
        gw = merged.swapaxes(-1, -2) @ gy if w.requires_grad else None
        gb = gy.sum(axis=0) if b.requires_grad else None
        return gctx, gw, gb

    return _make(y.reshape(bsz, t, y.shape[1]), "merge_heads", (ctx, w, b), bwd)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 over the last axis of x [B, T, h].

    Replaces reshape -> matmul -> add -> relu -> matmul -> add -> reshape.
    """
    bsz, t, h = x.data.shape
    flat = x.data.reshape(bsz * t, h)
    pre = flat @ w1.data + b1.data
    hidden = np.maximum(pre, 0.0)
    y = hidden @ w2.data + b2.data

    def bwd(g):
        gy = g.reshape(y.shape)
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gpre = (gy @ w2.data.swapaxes(-1, -2)) * (pre > 0.0)
            if x.requires_grad:
                gx = (gpre @ w1.data.swapaxes(-1, -2)).reshape(x.data.shape)
            if w1.requires_grad:
                gw1 = flat.swapaxes(-1, -2) @ gpre
            if b1.requires_grad:
                gb1 = gpre.sum(axis=0)
        gw2 = hidden.swapaxes(-1, -2) @ gy if w2.requires_grad else None
        gb2 = gy.sum(axis=0) if b2.requires_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _make(y.reshape(bsz, t, y.shape[1]), "ffn", (x, w1, b1, w2, b2), bwd)


def residual_layer_norm(x: Tensor, sub: Tensor, gain: Tensor, bias: Tensor,
                        eps: float) -> Tensor:
    """layer_norm(x + sub): a post-LN residual connection. Replaces add -> layer_norm."""
    out, zhat, inv_std = _ln_forward(x.data + sub.data, gain.data, bias.data, eps)

    def bwd(g):
        gz, ggain, gbias = _ln_backward(g, zhat, inv_std, gain, bias,
                                        x.requires_grad or sub.requires_grad)
        # one buffer per parent: backward() accumulates in place into the
        # first gradient a tensor receives, and x may be sub
        return gz, (None if gz is None else gz.copy()), ggain, gbias

    return _make(out, "residual_layer_norm", (x, sub, gain, bias), bwd)


def adapter(z: Tensor, ln_g: Tensor, ln_b: Tensor, w_down: Tensor, w_up: Tensor,
            eps: float) -> Tensor:
    """Bottleneck adapter relu(layer_norm(z) @ w_down) @ w_up + z.

    Replaces layer_norm -> reshape -> matmul -> relu -> matmul -> reshape -> add.
    """
    h = w_down.data.shape[0]
    zn, zhat, inv_std = _ln_forward(z.data, ln_g.data, ln_b.data, eps)
    flat = zn.reshape((-1, h) if z.data.ndim > 1 else (1, h))
    pre = flat @ w_down.data
    inner = np.maximum(pre, 0.0)
    up = inner @ w_up.data

    def bwd(g):
        gup = g.reshape(up.shape)
        gw_up = inner.swapaxes(-1, -2) @ gup if w_up.requires_grad else None
        need_ln = z.requires_grad or ln_g.requires_grad or ln_b.requires_grad
        gz = gln_g = gln_b = gw_down = None
        if need_ln or w_down.requires_grad:
            gpre = (gup @ w_up.data.swapaxes(-1, -2)) * (pre > 0.0)
            if w_down.requires_grad:
                gw_down = flat.swapaxes(-1, -2) @ gpre
            if need_ln:
                gzn = (gpre @ w_down.data.swapaxes(-1, -2)).reshape(z.data.shape)
                gz, gln_g, gln_b = _ln_backward(gzn, zhat, inv_std, ln_g, ln_b, z.requires_grad)
                if gz is not None:
                    gz = g + gz
        return gz, gln_g, gln_b, gw_down, gw_up

    return _make(up.reshape(z.data.shape) + z.data, "adapter", (z, ln_g, ln_b, w_down, w_up),
                 bwd)


def scaled_embedding(weight: Tensor, ids: np.ndarray, scale: float,
                     positions: np.ndarray) -> Tensor:
    """weight[ids] * scale + positions. Replaces embedding -> mul -> add."""
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.ravel(), (g * scale).reshape(-1, weight.data.shape[1]))
        return (gw,)

    return _make(weight.data[ids] * scale + positions, "scaled_embedding", (weight,), bwd)


def tied_logits(x: Tensor, weight: Tensor) -> Tensor:
    """x [B, T, h] against every row of weight [V, h]: logits [B, T, V].

    Replaces reshape -> transpose -> matmul -> reshape.
    """
    bsz, t, h = x.data.shape
    flat = x.data.reshape(bsz * t, h)
    wt = np.ascontiguousarray(weight.data.transpose(1, 0))
    y = flat @ wt

    def bwd(g):
        gy = g.reshape(y.shape)
        gx = (gy @ wt.swapaxes(-1, -2)).reshape(x.data.shape) if x.requires_grad else None
        gw = (flat.swapaxes(-1, -2) @ gy).transpose(1, 0) if weight.requires_grad else None
        return gx, gw

    return _make(y.reshape(bsz, t, y.shape[1]), "tied_logits", (x, weight), bwd)


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle


def _tape(loss: Tensor) -> list[Tensor]:
    """The recorded entries that loss depends on, newest first."""
    nodes: list[Tensor] = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    nodes.sort(key=lambda t: t._id, reverse=True)
    return nodes


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable requires_grad leaf.

    Walks the recorded entries in reverse creation order, which is a reverse
    topological order by construction, so each entry is processed once.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in _tape(loss):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._bwd is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._bwd(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flowing.get(id(parent))
            if acc is None:
                # own the buffer: numpy scalars are immutable and views of g
                # alias a buffer another edge may still accumulate into
                flowing[id(parent)] = np.array(pg) if (pg is g or pg.ndim == 0) else pg
            else:
                acc += pg


def grad_check(f: Callable[[Tensor], Tensor], w: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between backward grads of f and central differences.

    Perturbs every element of w, so keep w small. The numeric side never
    touches the tape; the analytic side is an ordinary forward + backward.
    w must be float64: in float32 a central difference at a step of 1e-5 is
    dominated by round-off.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be > 0")
    if w.data.dtype != np.float64:
        raise ValueError(f"grad_check: w must be float64, got {w.data.dtype}")
    probe = Tensor(w.data.copy(), requires_grad=True)
    loss = f(probe)
    backward(loss)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(probe).data)
            flat[i] = orig - eps
            lo = float(f(probe).data)
            flat[i] = orig
            num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
