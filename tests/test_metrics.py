"""Metric oracles: hand-computed ROUGE, closed-form perplexity, marker rates."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleswap import data as sd
from styleswap import metrics as mx

VOCAB = sd.Vocab()
A, B, C, D = VOCAB.keywords[:4]

token_lists = st.lists(st.sampled_from(VOCAB.keywords[:6]), min_size=1, max_size=8)
# LM lines: empty ones too, and ids that a corpus line rarely or never holds
lm_lines = st.lists(st.sampled_from(VOCAB.keywords[:4] + VOCAB.markers["s1"][:2]
                                    + (VOCAB.eos, VOCAB.mask)), max_size=8)


class TestRouge:
    def test_identical_is_one_for_all_variants(self):
        seq = [A, B, C]
        for variant in (1, 2, "L"):
            assert mx.rouge(seq, seq, variant) == 1.0

    def test_disjoint_is_zero(self):
        for variant in (1, 2, "L"):
            assert mx.rouge([A, B], [C, D], variant) == 0.0

    def test_hand_case(self):
        cand, ref = [A, B, C], [A, C, D]
        assert mx.rouge(cand, ref, 1) == pytest.approx(2 / 3, abs=1e-9)
        assert mx.rouge(cand, ref, 2) == 0.0
        assert mx.rouge(cand, ref, "L") == pytest.approx(2 / 3, abs=1e-9)  # LCS "a c"

    def test_empty_reference_error(self):
        with pytest.raises(ValueError, match="empty reference"):
            mx.rouge([A], [], 1)

    def test_clipping_repeated_tokens(self):
        assert mx.rouge([A, A, A], [A], 1) == pytest.approx(0.5)  # match clipped to 1

    @given(token_lists, token_lists)
    @settings(max_examples=80, deadline=None)
    def test_f1_symmetry_and_lcs_bound(self, cand, ref):
        assert mx.rouge(cand, ref, 1) == pytest.approx(mx.rouge(ref, cand, 1), abs=1e-12)
        assert mx.rouge(cand, ref, "L") <= mx.rouge(cand, ref, 1) + 1e-12

    def test_corpus_is_mean_of_pairs(self):
        cands = [[A, B], [C]]
        refs = [[A, B], [D]]
        assert mx.rouge_corpus(cands, refs, 1) == pytest.approx((1.0 + 0.0) / 2)


V = len(VOCAB) - 2  # the predictable ids: every id but PAD and BOS
PREDICTABLE = [i for i in range(len(VOCAB)) if i not in (VOCAB.pad, VOCAB.bos)]


def reference_perplexity(corpus, outputs, k):
    """Perplexity event by event from the add-k closed form, summed in order."""
    pairs, contexts = Counter(), Counter()
    for seq in corpus:
        for ctx, tok in zip([VOCAB.bos, *seq], [*seq, VOCAB.eos]):
            pairs[ctx, tok] += 1
            contexts[ctx] += 1
    total, events = 0.0, 0
    for seq in outputs:
        seq_total = 0.0
        for ctx, tok in zip([VOCAB.bos, *seq], [*seq, VOCAB.eos]):
            seq_total += math.log((pairs[ctx, tok] + k) / (contexts[ctx] + k * V))
            events += 1
        total += seq_total
    return math.exp(-total / events)


class TestNgramLM:
    """`train_ngram_lm`'s bigram table."""

    def test_single_sentence_counts(self):
        k = 0.1
        lm = mx.train_ngram_lm([[A, A, A]], VOCAB, k=k)
        assert lm.logp[A, A] == math.log((2 + k) / (3 + k * V))
        assert lm.logp[A, VOCAB.eos] == math.log((1 + k) / (3 + k * V))
        assert lm.logp[VOCAB.bos, A] == math.log((1 + k) / (1 + k * V))

    def test_default_smoothing_is_lm_k(self):
        corpus = [[A, B], [B, C, A]]
        default = mx.train_ngram_lm(corpus, VOCAB)
        assert np.array_equal(default.logp, mx.train_ngram_lm(corpus, VOCAB, k=mx.LM_K).logp)
        assert default.logp.shape == (len(VOCAB), len(VOCAB))
        assert default.logp.dtype == np.float64

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(0)
        corpus = [[int(t) for t in rng.choice(VOCAB.keywords, size=5)] for _ in range(50)]
        lm = mx.train_ngram_lm(corpus, VOCAB, k=0.1)
        contexts = [int(rng.choice(VOCAB.keywords)) for _ in range(100)] + [VOCAB.bos]
        for ctx in contexts:
            total = sum(math.exp(lm.logp[ctx, tok]) for tok in PREDICTABLE)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_gives_one_over_v(self):
        lm = mx.train_ngram_lm([[A, B]], VOCAB, k=0.1)
        for tok in (A, C, VOCAB.eos):
            assert math.exp(lm.logp[C, tok]) == pytest.approx(1 / V, rel=1e-12)

    def test_huge_k_approaches_uniform(self):
        lm = mx.train_ngram_lm([[A, B, A]], VOCAB, k=1e9)
        assert math.exp(lm.logp[A, B]) == pytest.approx(1 / V, rel=1e-6)

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="empty corpus"):
            mx.train_ngram_lm([], VOCAB)


class TestPerplexity:
    def test_uniform_lm_equals_vocab_size(self):
        uniform = np.full((len(VOCAB), len(VOCAB)), -math.log(V))
        lm = mx.BigramLM(uniform, VOCAB.bos, VOCAB.eos)
        assert mx.perplexity(lm, [[A, B, C], [D]]) == pytest.approx(V, abs=1e-9)

    def test_closed_form_single_token_corpus(self):
        k = 0.5
        lm = mx.train_ngram_lm([[A]], VOCAB, k=k)
        # two events, both with count 1 in a context seen once
        expect = (1 + k * V) / (1 + k)
        assert mx.perplexity(lm, [[A]]) == pytest.approx(expect, rel=1e-12)

    def test_training_sequence_scores_below_random(self):
        lm = mx.train_ngram_lm([[A, B, C, D]], VOCAB, k=0.1)
        on_train = mx.perplexity(lm, [[A, B, C, D]])
        on_random = mx.perplexity(lm, [[D, B, A, C]])
        assert on_train < on_random

    def test_empty_input_error(self):
        lm = mx.train_ngram_lm([[A]], VOCAB, k=0.1)
        with pytest.raises(ValueError, match="empty input"):
            mx.perplexity(lm, [])

    def test_style_lm_separates_styles_on_1k_corpora(self):
        rng = np.random.default_rng(5)
        s1 = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), "s1", rng)
              for _ in range(1000)]
        s2 = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), "s2", rng)
              for _ in range(1000)]
        lm1 = mx.train_ngram_lm(s1[:800], VOCAB)
        assert mx.perplexity(lm1, s1[800:]) < mx.perplexity(lm1, s2[800:])

    @given(st.lists(lm_lines, min_size=1, max_size=12), st.lists(lm_lines, min_size=1, max_size=12),
           st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_event_reference_exactly(self, corpus, outputs, k):
        got = mx.perplexity(mx.train_ngram_lm(corpus, VOCAB, k=k), outputs)
        assert got == reference_perplexity(corpus, outputs, k)


class TestMarkerRate:
    def test_fully_stylized_corpus(self):
        rng = np.random.default_rng(1)
        lines = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), "s1", rng)
                 for _ in range(50)]
        assert mx.style_marker_rate(lines, "s1", VOCAB) == 1.0
        assert mx.style_marker_rate(lines, "s2", VOCAB) == 0.0
        assert mx.style_marker_rate(lines, "s3", VOCAB) == 0.0

    def test_marker_free_corpus(self):
        lines = [[A, B], [C]]
        for style in sd.STYLES:
            assert mx.style_marker_rate(lines, style, VOCAB) == 0.0

    def test_mixed_corpus_is_half(self):
        rng = np.random.default_rng(2)
        styled = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), "s3", rng)
                  for _ in range(25)]
        plain = [sd._plain_sentence(VOCAB, rng) for _ in range(25)]
        assert mx.style_marker_rate(styled + plain, "s3", VOCAB) == 0.5

    def test_mixed_style_line_counts_for_nobody(self):
        line = [VOCAB.markers["s1"][0], A, VOCAB.markers["s2"][0]]
        assert mx.style_marker_rate([line], "s1", VOCAB) == 0.0
        assert mx.style_marker_rate([line], "s2", VOCAB) == 0.0

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            mx.style_marker_rate([[A]], "s9", VOCAB)


class TestEmbeddingCosine:
    # tokens 0-3 embed as (1, 0), (0, 1), (2, 2) and (3, 0)
    EMB = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 0.0]])

    def test_parallel_mean_pooled_vectors_give_one(self):
        # [0, 1] pools to (0.5, 0.5), which points where token 2 does
        assert mx.embedding_cosine([[0, 1]], [[2]], self.EMB) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vectors_give_zero(self):
        assert mx.embedding_cosine([[0, 3]], [[1]], self.EMB) == 0.0

    def test_empty_line_gives_zero(self):
        assert mx.embedding_cosine([[]], [[0]], self.EMB) == 0.0
        assert mx.embedding_cosine([[0]], [[]], self.EMB) == 0.0

    def test_result_is_the_mean_over_pairs(self):
        # cosines 1, 0, 0 (empty) and 1 / sqrt 2
        got = mx.embedding_cosine([[0, 1], [0], [], [0]], [[2], [1], [0], [2]], self.EMB)
        assert got == pytest.approx((1.0 + 0.0 + 0.0 + 2 ** -0.5) / 4, abs=1e-15)


def build_lms(rng):
    plain = [sd._plain_sentence(VOCAB, rng) for _ in range(300)]
    plain_lm = mx.train_ngram_lm(plain, VOCAB)
    style_lms = {}
    for style in sd.STYLES:
        styled = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), style, rng)
                  for _ in range(300)]
        style_lms[style] = mx.train_ngram_lm(styled, VOCAB)
    return plain_lm, style_lms


class TestEvaluateRun:
    def test_identity_outputs(self):
        rng = np.random.default_rng(3)
        plain_lm, style_lms = build_lms(rng)
        refs = [sd._plain_sentence(VOCAB, rng) for _ in range(20)]
        report = mx.evaluate_run(refs, refs, plain_lm, style_lms, VOCAB)
        assert report.r1 == report.r2 == report.rl == 1.0
        assert all(v == 0.0 for v in report.marker.values())

    def test_styleless_outputs_have_higher_ppl_s_than_stylized_references(self):
        rng = np.random.default_rng(4)
        plain_lm, style_lms = build_lms(rng)
        for style in sd.STYLES:
            stylized = [sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng), style, rng)
                        for _ in range(100)]
            plain = [sd._plain_sentence(VOCAB, rng) for _ in range(100)]
            assert (mx.perplexity(style_lms[style], plain)
                    > mx.perplexity(style_lms[style], stylized))

    def test_length_mismatch_error(self):
        rng = np.random.default_rng(5)
        plain_lm, style_lms = build_lms(rng)
        with pytest.raises(ValueError, match="outputs vs"):
            mx.evaluate_run([[A]], [[A], [B]], plain_lm, style_lms, VOCAB)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        plain_lm, style_lms = build_lms(rng)
        outs = [sd._plain_sentence(VOCAB, rng) for _ in range(30)]
        refs = [sd._plain_sentence(VOCAB, rng) for _ in range(30)]
        fwd = mx.evaluate_run(outs, refs, plain_lm, style_lms, VOCAB)
        order = rng.permutation(30)
        rev = mx.evaluate_run([outs[i] for i in order], [refs[i] for i in order],
                              plain_lm, style_lms, VOCAB)
        assert fwd.r1 == pytest.approx(rev.r1, abs=1e-12)
        assert fwd.ppl == pytest.approx(rev.ppl, abs=1e-9)
        assert fwd.marker == rev.marker

    def test_report_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        plain_lm, style_lms = build_lms(rng)
        outs = [sd._plain_sentence(VOCAB, rng) for _ in range(10)]
        refs = [sd._plain_sentence(VOCAB, rng) for _ in range(10)]
        emb = rng.normal(size=(len(VOCAB), 8))
        for embeddings in (emb, None):  # None leaves bert_proxy None
            report = mx.evaluate_run(outs, refs, plain_lm, style_lms, VOCAB, embeddings=embeddings)
            assert (report.bert_proxy is None) == (embeddings is None)
            mx.write_report(report, tmp_path / "r.json")
            back = mx.read_report(tmp_path / "r.json")
            assert back == report

    def test_report_key_names(self, tmp_path):
        report = mx.MetricsReport(r1=0.5, r2=0.25, rl=0.5, ppl=12.0,
                                  ppl_s={"s1": 3.0}, marker={"s1": 0.9})
        mx.write_report(report, tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text()) == {
            "r1": 0.5, "r2": 0.25, "rl": 0.5, "ppl": 12.0, "ppl_s": {"s1": 3.0},
            "marker": {"s1": 0.9}, "bert_proxy": None}

    GOOD = {"r1": 0.5, "r2": 0.25, "rl": 0.5, "ppl": 12.0, "ppl_s": {}, "marker": {},
            "bert_proxy": None}

    @pytest.mark.parametrize("text, problem", [
        ("r1=0.5\nr2=0.25\n", "not a JSON object"),  # the former key=value format
        ("[0.5, 0.25]", "not a JSON object"),
        (json.dumps({**GOOD, "bleu": 0.1, "zz": 0.0}), "unknown report key 'bleu'"),
        (json.dumps({k: v for k, v in GOOD.items() if k != "r1"}), "missing report key 'r1'"),
    ])
    def test_malformed_report_is_one_value_error(self, tmp_path, text, problem):
        path = tmp_path / "r.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            mx.read_report(path)
        assert str(exc.value) == f"{path}: {problem}"
