"""Beam-search generation through the installed adapters.

The decoder runs the model in inference mode (no tape), starts from BOS,
and stops at EOS or at the configured output length. PAD and BOS are never
emitted. Per-step candidate ranking and the final hypothesis pick share
one deterministic tie-break: higher score, then shorter output, then
lexicographically smaller token ids. Beam size 1 is greedy search.

Decoding is incremental. The search core hands the scorer each step's
prefixes and their parent rows in the previous call; the model scorer
selects those rows of its `DecodeCache` of every decoder layer's keys and
values and feeds only the newest token. The search core stays
model-agnostic: it sees only prefixes, row indices and log-prob rows. It
ranks each step's candidates as a [hypotheses, vocab] array and stops as
soon as no active hypothesis can beat the best finished one, at every
length penalty (the optimal-stopping bound of Huang, Zhao & Ma 2017, "When
to Finish?").

`generate_batch` decodes an input file through one given `AdapterSet`. It
checks every input line, then decodes the lines in `n = min(usable CPUs,
lines)` contiguous shards of near-equal size: the calling process decodes
shard 0 while forked workers (`workers`) decode the others, and the results
are joined in input order. Each sentence is one `beam_search` call wherever
it runs, so the files equal a one-CPU run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import workers
from .data import Vocab, read_corpus, write_corpus
from .model import (AdapterSet, DecodeCache, Model, decode_logits_batch, encode_batch,
                    swap_adapters)


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
        if np.isinf(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty}")
        try:  # beam_core divides by steps ** length_penalty, and steps <= max_out_len
            float(self.max_out_len) ** self.length_penalty
        except OverflowError:
            raise ValueError("length_penalty must be small enough that max_out_len ** "
                             f"length_penalty is finite, got {self.length_penalty} at "
                             f"max_out_len={self.max_out_len}") from None

    @property
    def max_len(self) -> int:
        """Former name of `max_out_len`, still read by perfbench's decode trace."""
        return self.max_out_len


@dataclass
class DecodeResult:
    tokens: list[int]  # BOS/EOS stripped
    score: float  # sum of log-probs over steps**length_penalty


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def model_step_fn(model: Model, src: list[int], vocab: Vocab):
    """Per-step scorer: (equal-length prefixes, their parent rows) -> log-prob rows.

    Incremental: prefix j extends row `parents[j]` of the previous call (row
    0, the empty prefix, before the first call) by its last token.
    """
    with ag.no_grad():
        enc = encode_batch(model, np.asarray([src], dtype=np.int64), None)
        cache = DecodeCache.build(model, enc)

    def step(prefixes: list[list[int]], parents) -> np.ndarray:
        nonlocal cache
        cache = cache.select(np.asarray(parents, dtype=np.intp))
        tokens = np.asarray([p[-1:] for p in prefixes], dtype=np.int64)
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

    `step_fn(prefixes, parents)` scores the active prefixes; `parents[j]` is
    prefix j's row in the previous call, `[0]` in the first. Its rows are
    log-probabilities: every entry is <= 0 and -inf bans a token. Each step
    keeps the `beam_size` best finite candidates ranked by (-score, tokens).
    All active hypotheses have the same length, so the token order is the
    parent's lexicographic rank, then the new token id.
    A hypothesis scored over `steps` steps ranks by its norm,
    `score / steps**alpha`. The search stops once the best active score,
    normalized over all `max_len` steps, is at most the best finished norm.
    That is exact at every alpha: a continuation's score only falls and is
    <= 0, so its norm ends at most at that bound, and it loses an exact tie
    because it is longer than every finished hypothesis.
    """

    def norm(score, steps):
        return score / max(steps, 1) ** alpha

    active: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    parents = [0]  # each active hypothesis's row in the previous step_fn call
    pool: list[tuple[tuple[int, ...], float, int]] = []  # tokens, score, steps scored
    best_done = -np.inf  # best finished norm
    for _ in range(max_len):
        logp = step_fn([[bos, *toks] for toks in active], parents)
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
        kept, kept_scores, parents = [], [], []
        for i in np.lexsort((tok, rank[parent], -cand))[:beam_size]:
            seq, score = active[parent[i]] + (int(tok[i]),), float(cand[i])
            if seq[-1] == eos:
                pool.append((seq[:-1], score, len(seq)))
                best_done = max(best_done, norm(score, len(seq)))
            else:
                kept.append(seq)
                kept_scores.append(score)
                parents.append(parent[i])
        active, scores = kept, np.asarray(kept_scores)
        if not active or norm(scores.max(), max_len) <= best_done:
            break
    pool.extend((toks, float(score), len(toks)) for toks, score in zip(active, scores))
    toks, score, steps = min(pool, key=lambda e: (-norm(e[1], e[2]), len(e[0]), e[0]))
    return list(toks), norm(score, steps)


# ---------------------------------------------------------------------------
# model-level surface


def beam_search(model: Model, adapters, x: list[int], cfg: DecodeConfig,
                vocab: Vocab) -> DecodeResult:
    swap_adapters(model, adapters)
    tokens, score = beam_core(model_step_fn(model, x, vocab), vocab.bos, vocab.eos,
                              cfg.max_out_len, cfg.beam_size, cfg.length_penalty)
    return DecodeResult(tokens, score)


def generate_batch(model: Model, adapters: AdapterSet, input_file: Path,
                   output_file: Path, cfg: DecodeConfig, vocab: Vocab) -> list[DecodeResult]:
    """Decode every input line through `adapters`; one output line per input line, in order.

    Each line's score goes to the same line of `output_file` with suffix
    `.scores`; the two files must differ from each other and from
    `input_file`, and each may exist only as a regular file. Every line, the
    output directory and both output paths are checked before any line is
    decoded. On any failure no file is written, and no worker outlives the
    call. `max_out_len` is checked here too, since a checkpoint read from
    disk can carry another `max_len` than the config.
    """
    scores_file = output_file.with_suffix(".scores")
    if scores_file == output_file:
        raise ValueError(f"{output_file}: the scores would overwrite the outputs; "
                         "name the output file with another suffix than .scores")
    if input_file.resolve() in (output_file.resolve(), scores_file.resolve()):
        raise ValueError(f"{input_file}: the outputs or their scores would overwrite the inputs")
    if cfg.max_out_len > model.config.max_len:
        raise ValueError(f"max_out_len={cfg.max_out_len} exceeds the model's "
                         f"max_len={model.config.max_len}")
    inputs = read_corpus(input_file, vocab)
    for lineno, src in enumerate(inputs, start=1):
        if not src:
            raise ValueError(f"{input_file}:{lineno}: empty input sequence")
        if {vocab.pad, vocab.bos, vocab.eos} & set(src):
            raise ValueError(f"{input_file}:{lineno}: input holds <pad>, <bos> or <eos>")
        if len(src) > model.config.max_len:
            raise ValueError(f"{input_file}:{lineno}: input longer than model max_len")
    if not output_file.parent.is_dir():
        raise ValueError(f"{output_file}: directory {output_file.parent} does not exist")
    for path in (output_file, scores_file):
        if path.exists() and not path.is_file():
            raise ValueError(f"{path}: exists and is not a regular file")
    results = _decode_in_shards(model, adapters, inputs, cfg, vocab, output_file)
    write_corpus(output_file, [r.tokens for r in results], vocab)
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
