"""Automatic metrics: ROUGE, bigram perplexity, style-marker rate, reports.

ROUGE is plain token-level F1 (no stemming, synthetic ids). Perplexity
comes from an add-k smoothed bigram table standing in for the fine-tuned
LM metric: PPL under a model trained on plain text, PPL-S under models
trained on each style corpus. This module owns the LM recipe (bigrams,
add-`LM_K`); callers pass only a corpus and the vocabulary. The
style-marker rate is this artifact's direct style-strength oracle: the
fraction of output lines carrying the target style's markers and nobody
else's.

A report file is its `MetricsReport` as one JSON object, keyed by the
field names; JSON writes floats via repr, so the file round-trips losslessly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import STYLES, Vocab


# ---------------------------------------------------------------------------
# ROUGE


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _f1(match: float, n_cand: float, n_ref: float) -> float:
    if n_cand == 0 and n_ref == 0:
        return 1.0
    if match == 0:
        return 0.0
    precision = match / n_cand
    recall = match / n_ref
    return 2 * precision * recall / (precision + recall)


def _lcs_len(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge(candidate: list, reference: list, variant) -> float:
    """Single-pair ROUGE F1; variant 1, 2 (n-gram) or "L" (LCS)."""
    if not reference:
        raise ValueError("rouge: empty reference")
    if variant in (1, 2):
        cand_counts = _ngrams(candidate, variant)
        ref_counts = _ngrams(reference, variant)
        match = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        return _f1(match, sum(cand_counts.values()), sum(ref_counts.values()))
    if variant == "L":
        return _f1(_lcs_len(candidate, reference), len(candidate), len(reference))
    raise ValueError(f"rouge: unknown variant {variant!r}")


def rouge_corpus(candidates, references, variant) -> float:
    """Corpus score: mean of per-pair F1."""
    if len(candidates) != len(references):
        raise ValueError("rouge_corpus: candidate/reference length mismatch")
    if not candidates:
        raise ValueError("rouge_corpus: empty input")
    return sum(rouge(c, r, variant) for c, r in zip(candidates, references)) / len(candidates)


# ---------------------------------------------------------------------------
# bigram language model

LM_K = 0.1  # the metric LMs' add-k smoothing


@dataclass
class BigramLM:
    """`logp[context, token]` over all ids; BOS is the first context, EOS the last token."""

    logp: np.ndarray
    bos: int
    eos: int


def train_ngram_lm(corpus: list[list[int]], vocab: Vocab, k: float = LM_K) -> BigramLM:
    """The add-k LM of `corpus` over V = every id but PAD and BOS: an unseen context gives 1/V.

    Counts turn into `math.log`s (`np.log` can differ in the last bit) in place, a row at
    a time: a copy of the table, or a float object per cell, would raise the peak RSS.
    """
    if not corpus:
        raise ValueError("train_ngram_lm: empty corpus")
    table = np.zeros((len(vocab), len(vocab)))
    for seq in corpus:
        np.add.at(table, ([vocab.bos, *seq], [*seq, vocab.eos]), 1)
    denominators = table.sum(axis=1, keepdims=True) + k * (len(vocab) - 2)
    table += k
    table /= denominators
    for row in table:
        row[:] = [math.log(p) for p in row.tolist()]
    return BigramLM(table, vocab.bos, vocab.eos)


def perplexity(lm: BigramLM, sequences: list[list[int]]) -> float:
    """exp of mean negative log-likelihood per scored token, summed in event order."""
    if not sequences:
        raise ValueError("perplexity: empty input")
    total = 0.0
    for seq in sequences:
        seq_total = 0.0
        for logp in lm.logp[[lm.bos, *seq], [*seq, lm.eos]].tolist():
            seq_total += logp
        total += seq_total
    return math.exp(-total / (sum(map(len, sequences)) + len(sequences)))  # EOS is scored


# ---------------------------------------------------------------------------
# style strength


def style_marker_rate(outputs: list[list[int]], style_id: str, vocab: Vocab) -> float:
    """Fraction of lines with >=1 marker of `style_id` and none of any other style."""
    if style_id not in vocab.markers:
        raise ValueError(f"unknown style: {style_id!r}")
    if not outputs:
        return 0.0
    hits = 0
    for line in outputs:
        styles_present = {vocab.marker_style(t) for t in line} - {None}
        if styles_present == {style_id}:
            hits += 1
    return hits / len(outputs)


def embedding_cosine(candidates, references, embeddings: np.ndarray) -> float:
    """BERT-proxy: mean cosine between mean-pooled token embeddings."""

    def pooled(seq):
        if not seq:
            return None
        return embeddings[np.asarray(seq)].mean(axis=0)

    scores = []
    for cand, ref in zip(candidates, references):
        a, b = pooled(cand), pooled(ref)
        if a is None or b is None:
            scores.append(0.0)
            continue
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        scores.append(float(a @ b / denom) if denom > 0 else 0.0)
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class MetricsReport:
    r1: float
    r2: float
    rl: float
    ppl: float
    ppl_s: dict[str, float] = field(default_factory=dict)
    marker: dict[str, float] = field(default_factory=dict)
    bert_proxy: float | None = None


def evaluate_run(outputs: list[list[int]], references: list[list[int]],
                 plain_lm: BigramLM, style_lms: dict[str, BigramLM], vocab: Vocab,
                 embeddings: np.ndarray | None = None) -> MetricsReport:
    if len(outputs) != len(references):
        raise ValueError(
            f"evaluate_run: {len(outputs)} outputs vs {len(references)} references")
    report = MetricsReport(
        r1=rouge_corpus(outputs, references, 1),
        r2=rouge_corpus(outputs, references, 2),
        rl=rouge_corpus(outputs, references, "L"),
        ppl=perplexity(plain_lm, outputs),
        ppl_s={s: perplexity(lm, outputs) for s, lm in sorted(style_lms.items())},
        marker={s: style_marker_rate(outputs, s, vocab) for s in STYLES},
    )
    if embeddings is not None:
        report.bert_proxy = embedding_cosine(outputs, references, embeddings)
    return report


def write_report(report: MetricsReport, path: Path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_report(path: Path) -> MetricsReport:
    """The report at `path`; ValueError naming the file unless it holds every field and no other."""
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        values = None
    if not isinstance(values, dict):
        raise ValueError(f"{path}: not a JSON object")
    odd = sorted(values.keys() ^ {f.name for f in fields(MetricsReport)})
    if odd:
        raise ValueError(f"{path}: {'unknown' if odd[0] in values else 'missing'} "
                         f"report key {odd[0]!r}")
    return MetricsReport(**values)
