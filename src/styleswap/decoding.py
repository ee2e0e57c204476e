"""Beam-search generation through the installed adapters.

The decoder runs the model in inference mode (no tape), starts from BOS,
and stops at EOS or at the configured output length. PAD and BOS are never
emitted. Per-step candidate ranking and the final hypothesis pick share
one deterministic tie-break: higher score, then shorter output, then
lexicographically smaller token ids. Beam size 1 is greedy search.

Decoding is incremental. The model scorer keeps a `DecodeCache` of every
decoder layer's keys and values and finds each prefix's parent row by
looking up `prefix[:-1]` among the previous call's prefixes, so a step
feeds only the newest token. When some prefix has no parent there (the
first call, or a caller that breaks the chain), the cache restarts from
the full prefixes. The search core stays model-agnostic: it sees only
lists of prefixes and log-prob rows. It ranks each step's
candidates as a [hypotheses, vocab] array, and without length
normalization it stops as soon as no active hypothesis can beat the best
finished one. With a length penalty a longer hypothesis can still
overtake, so that early stop would not be exact and is not taken.

`generate_batch` checks every input line, then decodes the lines in
`n = min(usable CPUs, lines)` contiguous shards of near-equal size: the
calling process decodes shard 0 while forked workers (`workers`) decode the
others, and the results are joined in input order. Each sentence is one
`beam_search` call wherever it runs, so the files equal a one-CPU run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import workers
from .data import Vocab, read_corpus, write_corpus
from .model import DecodeCache, Model, decode_logits_batch, encode_batch, swap_adapters


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 4
    max_out_len: int = 32
    length_penalty: float = 0.0  # 0 disables length normalization

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_out_len < 1:
            raise ValueError(f"max_out_len must be >= 1, got {self.max_out_len}")
        if not self.length_penalty >= 0:  # also rejects nan
            raise ValueError(f"length_penalty must be >= 0, got {self.length_penalty}")

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
    """Per-step scorer: batch of equal-length prefixes -> log-prob rows.

    Incremental: each prefix whose `prefix[:-1]` was a prefix of the
    previous call continues that row's cache with its last token. If any
    prefix has no such parent, the cache restarts and every prefix is fed
    whole, through the same decoder function.
    """
    with ag.no_grad():
        enc = encode_batch(model, np.asarray([src], dtype=np.int64), None)
        source = DecodeCache.build(model, enc)
    cache: DecodeCache | None = None
    rows: dict[tuple[int, ...], int] = {}  # prefix of the previous call -> its cache row

    def step(prefixes: list[list[int]]) -> np.ndarray:
        nonlocal cache, rows
        keys = [tuple(p) for p in prefixes]
        parents = [rows.get(key[:-1]) for key in keys]
        if None in parents:
            cache = source.select(np.zeros(len(keys), dtype=np.intp))
            tokens = np.asarray(keys, dtype=np.int64)
        else:
            cache = cache.select(np.asarray(parents, dtype=np.intp))
            tokens = np.asarray([key[-1:] for key in keys], dtype=np.int64)
        rows = {key: r for r, key in enumerate(keys)}
        with ag.no_grad():
            logits = decode_logits_batch(model, enc, None, tokens, cache=cache)
        logp = log_softmax_rows(logits.data[:, -1, :])
        logp[:, vocab.pad] = -np.inf
        logp[:, vocab.bos] = -np.inf
        return logp

    return step


# ---------------------------------------------------------------------------
# search core (model-agnostic; tests drive it with handcrafted tables)


def beam_core(step_fn, bos: int, eos: int, max_len: int, beam_size: int,
              alpha: float) -> tuple[list[int], float]:
    """Standard beam search; finished hypotheses retire into a pool.

    `step_fn` rows are log-probabilities: every entry is <= 0 and -inf bans
    a token. Each step keeps the `beam_size` best finite candidates ranked
    by (-score, tokens). All active hypotheses have the same length, so the
    token order is the parent's lexicographic rank, then the new token id.
    Without length normalization (alpha <= 0) the search stops once no
    active score exceeds the best finished one. That is exact: a
    continuation only loses score and is longer than the finished
    hypothesis, so it can neither win nor tie. With alpha > 0 a longer
    hypothesis can still overtake, so every step runs.
    """
    active: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    pool: list[tuple[tuple[int, ...], float, int]] = []  # tokens, score, steps scored
    best_done = -np.inf
    for _ in range(max_len):
        logp = step_fn([[bos, *toks] for toks in active])
        flat = np.flatnonzero(np.isfinite(logp))
        cand = (scores[:, None] + logp).ravel()[flat]
        if cand.size > beam_size:
            kth = np.partition(cand, cand.size - beam_size)[cand.size - beam_size]
            keep = cand >= kth  # ties at the cut survive into the sort
            flat, cand = flat[keep], cand[keep]
        parent, tok = np.divmod(flat, logp.shape[1])
        n = len(active)
        rank = np.empty(n, dtype=np.intp)  # lexicographic rank of each active hypothesis
        rank[sorted(range(n), key=active.__getitem__)] = np.arange(n)
        kept, kept_scores = [], []
        for i in np.lexsort((tok, rank[parent], -cand))[:beam_size]:
            seq, score = active[parent[i]] + (int(tok[i]),), float(cand[i])
            if seq[-1] == eos:
                pool.append((seq[:-1], score, len(seq)))
                best_done = max(best_done, score)
            else:
                kept.append(seq)
                kept_scores.append(score)
        active, scores = kept, np.asarray(kept_scores)
        if not active or (alpha <= 0 and scores.max() <= best_done):
            break
    pool.extend((toks, float(score), len(toks)) for toks, score in zip(active, scores))

    def ranking(entry):
        toks, score, steps = entry
        norm = score / (max(steps, 1) ** alpha) if alpha > 0 else score
        return (-norm, len(toks), toks)

    toks, score, steps = min(pool, key=ranking)
    final = score / (max(steps, 1) ** alpha) if alpha > 0 else score
    return list(toks), final


# ---------------------------------------------------------------------------
# model-level surface


def beam_search(model: Model, adapters, x: list[int], cfg: DecodeConfig,
                vocab: Vocab) -> DecodeResult:
    swap_adapters(model, adapters)
    tokens, score = beam_core(model_step_fn(model, x, vocab), vocab.bos, vocab.eos,
                              cfg.max_out_len, cfg.beam_size, cfg.length_penalty)
    return DecodeResult(tokens, score, adapters.style_id)


def generate_batch(model: Model, adapter_file: Path, input_file: Path,
                   output_file: Path, cfg: DecodeConfig, vocab: Vocab,
                   scores_file: Path | None = None) -> list[DecodeResult]:
    """Decode every input line; one output line per input line, in input order.

    Every line is checked before any is decoded. On any failure no file is
    written, and no worker outlives the call.
    """
    from .store import load_adapter

    if cfg.max_out_len > model.config.max_len:
        raise ValueError(f"max_out_len={cfg.max_out_len} exceeds the model's "
                         f"max_len={model.config.max_len}")
    adapters = load_adapter(adapter_file, model)
    inputs = read_corpus(input_file, vocab)
    for lineno, src in enumerate(inputs, start=1):
        if not src:
            raise ValueError(f"{input_file}:{lineno}: empty input sequence")
        if len(src) > model.config.max_len:
            raise ValueError(f"{input_file}:{lineno}: input longer than model max_len")
    results = _decode_in_shards(model, adapters, inputs, cfg, vocab, output_file)
    write_corpus(output_file, [r.tokens for r in results], vocab)
    if scores_file is not None:
        with open(scores_file, "w", encoding="utf-8") as fh:
            for r in results:
                fh.write(f"{r.score!r}\n")
    return results


# (model, adapters, inputs, cfg, vocab, bounds) while a call decodes; forked workers inherit it
_shards = None


def _decode_shard(i: int) -> list[DecodeResult]:
    """Decode shard `i` of `_shards`: in the caller, or in a forked worker."""
    model, adapters, inputs, cfg, vocab, bounds = _shards
    return [beam_search(model, adapters, src, cfg, vocab)
            for src in inputs[bounds[i]:bounds[i + 1]]]


def _decode_in_shards(model: Model, adapters, inputs: list[list[int]], cfg: DecodeConfig,
                      vocab: Vocab, output_file: Path) -> list[DecodeResult]:
    """`beam_search` every input, shard 0 here and the others in forked workers.

    The first failing shard in shard order raises its error; a dead worker
    raises `workers.WorkerError` naming `output_file`.
    """
    global _shards
    n = max(1, min(workers._usable_cpus(), len(inputs)))
    if n > 1 and not workers._can_fork():
        n = 1
    _shards = (model, adapters, inputs, cfg, vocab, [len(inputs) * i // n for i in range(n + 1)])
    try:
        if n == 1:
            return _decode_shard(0)
        with workers._pool(n - 1, lambda: str(output_file)) as pool:
            futures = [pool.submit(_decode_shard, i) for i in range(1, n)]
            results = _decode_shard(0)
            for future in futures:
                results += future.result()
            return results
    finally:
        _shards = None
