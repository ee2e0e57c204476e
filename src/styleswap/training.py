"""AdamW plus the three-stage training pipeline with exact freeze policies.

Stage 1 trains one AdapterSet per style (and the style-less s0 set) on
(perturbed, original) sentence pairs while every base parameter is frozen.
Stage 2 fine-tunes a parameter group of the base (default: encoder plus
the tied embedding) on a task corpus with the frozen s0 adapters installed.
Stage 3 is pure inference and lives in decoding.

Freezing is enforced structurally: only the stage's trainable tensors have
requires_grad set, so frozen parameters never receive gradients and are
byte-identical afterwards. Batch order is fixed by the stage seed.

A training step holds one graph at a time. Its loss, and with it every
op's saved arrays, is dropped once the loss value is logged, and the
trainable gradients are cleared right after the optimizer step. So the
next step's forward starts with no graph and no gradient alive; what
outlives a step is the parameters and the optimizer's moment buffers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Vocab, child_seed, read_corpus
from .model import (AdapterError, Model, decode_logits_batch, encode_batch,
                    fresh_adapters, pad_attention_mask, param_group, swap_adapters)


@dataclass(frozen=True)
class Hyper:
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 5
    patience: int = 2
    seed: int = 0
    log_path: Path | None = None

    def __post_init__(self):
        for key in ("batch_size", "patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.lr > 0:  # also rejects nan
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if np.isinf(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")


# Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with bias correction and fixed betas and epsilon, at a stage's learning rate.

    There is no weight-decay term: no run decays. The class keeps the name
    AdamW, which the benchmark's optimiser trace hooks (`training.AdamW.step`).
    Moment buffers exist only for the named parameters handed in, i.e. the
    stage's trainable set.
    """

    def __init__(self, named_params, hp: Hyper):
        self.named_params = list(named_params)
        self.hp = hp
        self.step_count = 0
        self.moments = {
            name: (np.zeros_like(t.data), np.zeros_like(t.data))
            for name, t in self.named_params
        }

    def step(self) -> None:
        lr = self.hp.lr
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name, t in self.named_params:
            if t.grad is None:
                raise ValueError(f"adamw: trainable parameter {name!r} has no gradient")
            g = t.grad
            m, v = self.moments[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for _, t in self.named_params:
            t.grad = None


@dataclass
class StageResult:
    losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    epochs_run: int = 0


# ---------------------------------------------------------------------------
# batching


def _pad_block(seqs: list[list[int]], pad_id: int) -> np.ndarray:
    width = max(len(s) for s in seqs)
    block = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        block[i, : len(s)] = s
    return block


def make_batches(pairs, vocab: Vocab, batch_size: int, rng: np.random.Generator | None):
    """Yield (src, dec_in, dec_tgt) int blocks; rng=None keeps corpus order."""
    order = np.arange(len(pairs))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        src = _pad_block([x for x, _ in chunk], vocab.pad)
        dec_in = _pad_block([[vocab.bos] + y for _, y in chunk], vocab.pad)
        dec_tgt = _pad_block([y + [vocab.eos] for _, y in chunk], vocab.pad)
        yield src, dec_in, dec_tgt


def batch_loss(model: Model, vocab: Vocab, src: np.ndarray, dec_in: np.ndarray,
               dec_tgt: np.ndarray) -> Tensor:
    src_mask = pad_attention_mask(src, vocab.pad)
    enc = encode_batch(model, src, src_mask)
    logits = decode_logits_batch(model, enc, src_mask, dec_in)
    bsz, t, v = logits.shape
    return ag.cross_entropy(ag.reshape(logits, (bsz * t, v)), dec_tgt.ravel(),
                            ignore_id=vocab.pad)


def mean_loss(model: Model, vocab: Vocab, pairs, batch_size: int) -> float:
    total = count = 0.0
    with ag.no_grad():
        for src, dec_in, dec_tgt in make_batches(pairs, vocab, batch_size, rng=None):
            n = int((dec_tgt != vocab.pad).sum())
            total += batch_loss(model, vocab, src, dec_in, dec_tgt).item() * n
            count += n
    return total / count


# ---------------------------------------------------------------------------
# stage driver


def set_trainable(model: Model, trainable) -> list[tuple[str, Tensor]]:
    """Freeze everything, then mark exactly `trainable`; returns the live set."""
    trainable = list(trainable)
    for _, t in model.named_parameters():
        t.requires_grad = False
        t.grad = None
    for _, t in trainable:
        t.requires_grad = True
    return trainable


class NonFiniteLoss(RuntimeError):
    """A training step's loss is nan or infinite."""


def train_on_pairs(model: Model, vocab: Vocab, group: str, splits: "PairSplits",
                   hp: Hyper) -> StageResult:
    """Epoch loop over `param_group(model, group)` with per-epoch validation and
    patience-based early stop. A non-finite loss stops it before the update."""
    live = set_trainable(model, param_group(model, group))
    opt = AdamW(live, hp)
    rng = np.random.default_rng(child_seed(hp.seed, "batch-order"))
    result = StageResult()
    log = open(hp.log_path, "w", encoding="utf-8") if hp.log_path else None
    best_val = np.inf
    stale = 0
    step = 0
    try:
        for epoch in range(hp.epochs):
            for src, dec_in, dec_tgt in make_batches(splits.train, vocab,
                                                     hp.batch_size, rng):
                loss = batch_loss(model, vocab, src, dec_in, dec_tgt)
                if not np.isfinite(loss.data):
                    raise NonFiniteLoss(f"loss is {loss.item()} at step {step + 1} "
                                        f"(epoch {epoch + 1}) training {group!r}")
                ag.backward(loss)
                opt.step()
                opt.zero_grad()
                step += 1
                value = loss.item()
                del loss  # the step's graph: every op's saved arrays
                result.losses.append(value)
                if log:
                    log.write(json.dumps({"step": step, "loss": value,
                                          "lr": hp.lr}) + "\n")
            result.epochs_run = epoch + 1
            if splits.valid:
                val = mean_loss(model, vocab, splits.valid, hp.batch_size)
                result.val_losses.append(val)
                if log:
                    log.write(json.dumps({"step": step, "val_loss": val,
                                          "lr": hp.lr}) + "\n")
                if val < best_val - 1e-6:
                    best_val = val
                    stale = 0
                else:
                    stale += 1
                    if stale >= hp.patience:
                        break
    finally:
        if log:
            log.close()
    return result


# ---------------------------------------------------------------------------
# pair loading (corpus files -> training splits)


@dataclass
class PairSplits:
    train: list[tuple[list[int], list[int]]]
    valid: list[tuple[list[int], list[int]]]


# Adapter pretraining mode -> the tag of the perturbed-input corpus it reads:
# g_p (style-stripping paraphrase) or g_n (noise).
MODES = {"inverse-para": "para", "denoise": "noise"}


def _load_pairs(data_dir: Path, inputs: str, targets: str, vocab: Vocab,
                max_len: int) -> PairSplits:
    """The (input, target) pairs of the train and valid splits that fit max_len.

    `inputs` and `targets` name corpus files with a `{split}` field. Files
    of unequal length, or a split with no pair left, are an error naming them.
    """
    splits = []
    for split in ("train", "valid"):
        src = Path(data_dir) / inputs.format(split=split)
        tgt = Path(data_dir) / targets.format(split=split)
        xs, ys = read_corpus(src, vocab), read_corpus(tgt, vocab)
        if len(xs) != len(ys):
            raise ValueError(f"{src} has {len(xs)} lines but {tgt} has {len(ys)}")
        kept = [(x, y) for x, y in zip(xs, ys) if 0 < len(x) <= max_len and len(y) < max_len]
        if not kept:
            raise ValueError(f"{src}: no {split} pair fits max_len={max_len}")
        splits.append(kept)
    return PairSplits(*splits)


def load_style_pairs(data_dir: Path, style_id: str, mode: str, vocab: Vocab,
                     max_len: int) -> PairSplits:
    """(perturbed, original) pairs for one style; mode picks g_p or g_n inputs."""
    tag = MODES.get(mode)
    if tag is None:
        raise ValueError(f"unknown pretraining mode: {mode!r}")
    return _load_pairs(data_dir, f"style_{style_id}.{tag}.{{split}}.src",
                       f"style_{style_id}.{{split}}.txt", vocab, max_len)


def load_task_pairs(data_dir: Path, task_kind: str, vocab: Vocab,
                    max_len: int) -> PairSplits:
    """(source, target) pairs for one task."""
    return _load_pairs(data_dir, f"task_{task_kind}.{{split}}.src",
                       f"task_{task_kind}.{{split}}.tgt", vocab, max_len)


# ---------------------------------------------------------------------------
# the three stages


def train_style_adapter(model: Model, vocab: Vocab, style_id: str, mode: str,
                        splits: PairSplits, hp: Hyper):
    """Stage 1: fit a fresh AdapterSet on (g(t), t) pairs; base fully frozen."""
    adapters = fresh_adapters(model.config, style_id,
                              seed=child_seed(hp.seed, f"adapter:{style_id}"), mode=mode)
    swap_adapters(model, adapters)
    result = train_on_pairs(model, vocab, "adapter", splits, hp)
    return adapters, result


def train_task(model: Model, vocab: Vocab, adapters, splits: PairSplits,
               trainable: str, hp: Hyper) -> StageResult:
    """Stage 2: fit the selected base group with the s0 adapters frozen in."""
    if adapters is None:
        raise AdapterError("task fine-tuning requires the style-less adapters")
    swap_adapters(model, adapters)
    return train_on_pairs(model, vocab, trainable, splits, hp)
