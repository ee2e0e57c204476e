"""Automatic metrics: ROUGE, n-gram perplexity, style-marker rate, reports.

ROUGE is plain token-level F1 (no stemming, synthetic ids). Perplexity
comes from an add-k smoothed bigram model standing in for the fine-tuned
LM metric: PPL under a model trained on plain text, PPL-S under models
trained on each style corpus. The style-marker rate is this artifact's
direct style-strength oracle: the fraction of output lines carrying the
target style's markers and nobody else's.

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
# n-gram language model


class NgramLM:
    """Add-k smoothed n-gram model over a fixed predictable vocabulary.

    BOS pads contexts and is never predicted; EOS terminates every
    sequence and is scored. Unseen contexts give exactly 1/V per token.
    """

    def __init__(self, order: int, k: float, vocab_ids: list[int], bos: int, eos: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        if k <= 0:
            raise ValueError("smoothing constant k must be > 0")
        self.order = order
        self.k = k
        self.vocab_ids = list(vocab_ids)
        self.V = len(self.vocab_ids)
        self.bos = bos
        self.eos = eos
        self.ngram_counts: Counter = Counter()
        self.context_counts: Counter = Counter()

    def _events(self, seq: list[int]):
        padded = [self.bos] * (self.order - 1) + list(seq) + [self.eos]
        for i in range(self.order - 1, len(padded)):
            yield tuple(padded[i - self.order + 1 : i]), padded[i]

    def fit(self, corpus: list[list[int]]) -> "NgramLM":
        for seq in corpus:
            for context, tok in self._events(seq):
                self.ngram_counts[context + (tok,)] += 1
                self.context_counts[context] += 1
        return self

    def cond_prob(self, context: tuple, tok: int) -> float:
        num = self.ngram_counts[tuple(context) + (tok,)] + self.k
        den = self.context_counts[tuple(context)] + self.k * self.V
        return num / den

    def sequence_logprob(self, seq: list[int]) -> tuple[float, int]:
        """(total log prob, number of scored events); EOS counts, BOS does not."""
        total = 0.0
        events = 0
        for context, tok in self._events(seq):
            total += math.log(self.cond_prob(context, tok))
            events += 1
        return total, events


def train_ngram_lm(corpus: list[list[int]], order: int, k: float, vocab: Vocab) -> NgramLM:
    """Fit an LM whose predictable vocabulary is everything but PAD and BOS."""
    if not corpus:
        raise ValueError("train_ngram_lm: empty corpus")
    ids = [i for i in range(len(vocab)) if i not in (vocab.pad, vocab.bos)]
    return NgramLM(order, k, ids, vocab.bos, vocab.eos).fit(corpus)


def perplexity(lm: NgramLM, sequences: list[list[int]]) -> float:
    """exp of mean negative log-likelihood per scored token."""
    if not sequences:
        raise ValueError("perplexity: empty input")
    total = 0.0
    events = 0
    for seq in sequences:
        ll, n = lm.sequence_logprob(seq)
        total += ll
        events += n
    return math.exp(-total / events)


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
                 plain_lm: NgramLM, style_lms: dict[str, NgramLM], vocab: Vocab,
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
