"""Greedy and beam-search generation through the installed adapters.

Both decoders run the model in inference mode (no tape), start from BOS,
and stop at EOS or at the configured output length. PAD and BOS are never
emitted. Per-step candidate ranking and the final hypothesis pick share
one deterministic tie-break: higher score, then shorter output, then
lexicographically smaller token ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Vocab, read_corpus, write_corpus
from .model import Model, decode_logits_batch, encode_batch, swap_adapters


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 4
    max_out_len: int = 32
    length_penalty: float = 0.0  # 0 disables length normalization

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")

    @property
    def max_len(self) -> int:
        """Former name of `max_out_len`, still read by perfbench's decode trace."""
        return self.max_out_len


@dataclass
class DecodeResult:
    tokens: list[int]  # BOS/EOS stripped
    score: float  # sum of log-probs, length-normalized when penalty > 0
    style_id: str | None = None


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def model_step_fn(model: Model, src: list[int], vocab: Vocab):
    """Per-step scorer: batch of equal-length prefixes -> log-prob rows."""
    with ag.no_grad():
        enc = encode_batch(model, np.asarray([src], dtype=np.int64), None)
    tiles: dict[int, Tensor] = {}

    def step(prefixes: list[list[int]]) -> np.ndarray:
        n = len(prefixes)
        if n not in tiles:
            tiles[n] = Tensor(np.repeat(enc.data, n, axis=0))
        with ag.no_grad():
            logits = decode_logits_batch(model, tiles[n], None,
                                         np.asarray(prefixes, dtype=np.int64))
        logp = log_softmax_rows(logits.data[:, -1, :])
        logp[:, vocab.pad] = -np.inf
        logp[:, vocab.bos] = -np.inf
        return logp

    return step


# ---------------------------------------------------------------------------
# search cores (model-agnostic; tests drive them with handcrafted tables)


def greedy_core(step_fn, bos: int, eos: int, max_len: int) -> tuple[list[int], float]:
    prefix = [bos]
    tokens: list[int] = []
    score = 0.0
    for _ in range(max_len):
        row = step_fn([prefix])[0]
        tok = int(np.argmax(row))  # first maximum = lowest token id on ties
        score += float(row[tok])
        if tok == eos:
            break
        tokens.append(tok)
        prefix.append(tok)
    return tokens, score


def beam_core(step_fn, bos: int, eos: int, max_len: int, beam_size: int,
              alpha: float) -> tuple[list[int], float]:
    """Standard beam search; finished hypotheses retire into a pool."""
    active: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    pool: list[tuple[tuple[int, ...], float, int]] = []  # tokens, score, steps scored
    for _ in range(max_len):
        logp = step_fn([[bos, *toks] for toks, _ in active])
        candidates = []
        for (toks, score), row in zip(active, logp):
            for v in np.flatnonzero(np.isfinite(row)):
                v = int(v)
                candidates.append((score + float(row[v]), toks + (v,)))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        active = []
        for score, seq in candidates[:beam_size]:
            if seq[-1] == eos:
                pool.append((seq[:-1], score, len(seq)))
            else:
                active.append((seq, score))
        if not active:
            break
    pool.extend((toks, score, len(toks)) for toks, score in active)

    def ranking(entry):
        toks, score, steps = entry
        norm = score / (max(steps, 1) ** alpha) if alpha > 0 else score
        return (-norm, len(toks), toks)

    best = min(pool, key=ranking)
    toks, score, steps = best
    final = score / (max(steps, 1) ** alpha) if alpha > 0 else score
    return list(toks), final


# ---------------------------------------------------------------------------
# model-level surface


def greedy(model: Model, adapters, x: list[int], cfg: DecodeConfig,
           vocab: Vocab) -> DecodeResult:
    swap_adapters(model, adapters)
    tokens, score = greedy_core(model_step_fn(model, x, vocab), vocab.bos,
                                vocab.eos, cfg.max_out_len)
    return DecodeResult(tokens, score, adapters.style_id)


def beam_search(model: Model, adapters, x: list[int], cfg: DecodeConfig,
                vocab: Vocab) -> DecodeResult:
    swap_adapters(model, adapters)
    tokens, score = beam_core(model_step_fn(model, x, vocab), vocab.bos, vocab.eos,
                              cfg.max_out_len, cfg.beam_size, cfg.length_penalty)
    return DecodeResult(tokens, score, adapters.style_id)


def generate_batch(model: Model, adapter_file: Path, input_file: Path,
                   output_file: Path, cfg: DecodeConfig, vocab: Vocab,
                   scores_file: Path | None = None) -> list[DecodeResult]:
    """Decode every input line in order; one output line per input line."""
    from .store import load_adapter

    adapters = load_adapter(adapter_file, model)
    inputs = read_corpus(input_file, vocab)
    results = []
    for lineno, src in enumerate(inputs, start=1):
        if not src:
            raise ValueError(f"{input_file}:{lineno}: empty input sequence")
        if len(src) > model.config.max_len:
            raise ValueError(f"{input_file}:{lineno}: input longer than model max_len")
        results.append(beam_search(model, adapters, src, cfg, vocab))
    write_corpus(output_file, [r.tokens for r in results], vocab)
    if scores_file is not None:
        with open(scores_file, "w", encoding="utf-8") as fh:
            for r in results:
                fh.write(f"{r.score!r}\n")
    return results
