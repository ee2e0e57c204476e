"""Shared oracles for decoder tests: random score tables, exhaustive search,
and the uncached decoder that the incremental one must match."""

import hashlib

import numpy as np

from styleswap import autograd as ag
from styleswap import decoding as dec
from styleswap import model as mdl

BOS, EOS = 0, 1


def _prefix_seed(seed: int, prefix: tuple[int, ...]) -> int:
    digest = hashlib.blake2s(f"{seed}:{prefix}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def table_step_fn(seed: int, vocab_size: int):
    """Deterministic random log-prob table keyed by prefix; BOS is banned."""

    def step(prefixes):
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
    """Enumerate every decodable sequence and rank exactly like the decoder."""
    pool = []

    def walk(tokens, score):
        if len(tokens) == max_len:
            pool.append((tuple(tokens), score, len(tokens)))
            return
        row = step_fn([[BOS, *tokens]])[0]
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


def full_prefix_step_fn(model, src, vocab):
    """Reference scorer: re-runs the decoder over every whole prefix, no cache."""
    with ag.no_grad():
        enc = mdl.encode_batch(model, np.asarray([src], dtype=np.int64), None)

    def step(prefixes):
        tiled = ag.Tensor(np.repeat(enc.data, len(prefixes), axis=0))
        with ag.no_grad():
            logits = mdl.decode_logits_batch(model, tiled, None,
                                             np.asarray(prefixes, dtype=np.int64))
        logp = dec.log_softmax_rows(logits.data[:, -1, :])
        logp[:, vocab.pad] = -np.inf
        logp[:, vocab.bos] = -np.inf
        return logp

    return step


def list_beam_core(step_fn, bos, eos, max_len, beam_size, alpha):
    """Reference beam search: sorts every (score, tokens) candidate, never stops early."""
    active = [((), 0.0)]
    pool = []  # tokens, score, steps scored
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

    toks, score, steps = min(pool, key=ranking)
    final = score / (max(steps, 1) ** alpha) if alpha > 0 else score
    return list(toks), final
