"""Corpus generator and perturbation tests."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleswap import data as sd

from helpers import ORACLE_GENERATORS

VOCAB = sd.Vocab()


def marker_count(toks):
    return sum(1 for t in toks if VOCAB.marker_style(t) is not None)


@st.composite
def plain_sentences(draw):
    n_k = draw(st.integers(1, 6))
    n_f = draw(st.integers(0, 6))
    ks = draw(st.lists(st.sampled_from(VOCAB.keywords), min_size=n_k, max_size=n_k,
                       unique=True))
    fs = draw(st.lists(st.sampled_from(VOCAB.fillers), min_size=n_f, max_size=n_f))
    toks = ks + fs
    return draw(st.permutations(toks))


class TestVocab:
    def test_counts_and_disjointness(self):
        assert len(VOCAB) == 4 + 50 + 50 + 30
        groups = [set(VOCAB.keywords), set(VOCAB.fillers)] + [
            set(ids) for ids in VOCAB.markers.values()
        ]
        union = set().union(*groups)
        assert len(union) == sum(len(g) for g in groups)
        assert {VOCAB.pad, VOCAB.bos, VOCAB.eos, VOCAB.mask}.isdisjoint(union)

    def test_roundtrip_names(self):
        ids = [VOCAB.pad, VOCAB.keywords[7], VOCAB.fillers[0], VOCAB.markers["s2"][9]]
        assert VOCAB.encode(VOCAB.decode(ids)) == ids


class TestTaskPairs:
    def test_deterministic(self):
        a = sd.gen_task_pairs(VOCAB, 42, 50, "headline")
        b = sd.gen_task_pairs(VOCAB, 42, 50, "headline")
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]

    def test_headline_target_is_keyword_subsequence(self):
        for pair in sd.gen_task_pairs(VOCAB, 3, 200, "headline"):
            assert pair.y == VOCAB.keyword_subsequence(pair.x)
            assert 3 <= len(pair.y) <= 6
            fillers = [t for t in pair.x if VOCAB.is_filler(t)]
            assert 5 <= len(fillers) <= 15

    def test_headline_keyword_histogram_spans_3_to_6(self):
        pairs = sd.gen_task_pairs(VOCAB, 11, 10_000, "headline")
        counts = sorted({len(p.y) for p in pairs})
        assert counts == [3, 4, 5, 6]

    def test_story_doubles_each_keyword(self):
        for pair in sd.gen_task_pairs(VOCAB, 5, 100, "story"):
            assert 3 <= len(pair.x) <= 6
            assert all(VOCAB.is_keyword(t) for t in pair.x)
            assert pair.y == [t for t in pair.x for _ in range(2)]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sd.gen_task_pairs(VOCAB, 0, 0, "headline")
        with pytest.raises(ValueError):
            sd.gen_task_pairs(VOCAB, 0, 1, "poetry")


class TestStylize:
    def test_s1_rule(self):
        plain = [VOCAB.keywords[1], VOCAB.fillers[3]]
        out = sd.stylize(VOCAB, plain, "s1", np.random.default_rng(0))
        assert len(out) == 5
        assert out[1:3] == plain
        assert all(t in VOCAB.markers["s1"] for t in (out[0], out[3], out[4]))

    def test_s2_rule(self):
        plain = [VOCAB.keywords[i] for i in range(5)]
        out = sd.stylize(VOCAB, plain, "s2", np.random.default_rng(0))
        assert [t for t in out if VOCAB.marker_style(t) is None] == plain
        marker_positions = [i for i, t in enumerate(out) if VOCAB.marker_style(t) == "s2"]
        assert marker_positions == [2, 5]

    def test_s3_rule(self):
        plain = [VOCAB.keywords[1], VOCAB.keywords[2]]
        out = sd.stylize(VOCAB, plain, "s3", np.random.default_rng(0))
        assert len(out) == 5
        assert VOCAB.marker_style(out[0]) == "s3" and VOCAB.marker_style(out[-1]) == "s3"
        assert out[1:4] == [plain[0], plain[1], plain[1]]

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="no decoration rule for style 's9'"):
            sd.stylize(VOCAB, [VOCAB.keywords[0]], "s9", np.random.default_rng(0))

    def test_marker_input_rejected(self):
        with pytest.raises(ValueError, match="marker"):
            sd.stylize(VOCAB, [VOCAB.markers["s1"][0]], "s1",
                       np.random.default_rng(0))

    @given(plain_sentences(), st.sampled_from(sd.STYLES), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_marker_removal_recovers_content(self, plain, style, seed):
        out = sd.stylize(VOCAB, plain, style,
                         np.random.default_rng(seed))
        content = [t for t in out if VOCAB.marker_style(t) is None]
        if style in ("s1", "s2"):
            assert content == list(plain)
        else:
            assert VOCAB.keyword_subsequence(content) != [] or not VOCAB.keyword_subsequence(plain)


class TestNoise:
    def test_zero_rates_identity(self):
        t = [VOCAB.keywords[0], VOCAB.fillers[1]]
        assert sd.noise_gn(VOCAB, t, 0.0, 0.0, np.random.default_rng(0)) == t

    def test_mask_rate_near_one(self):
        t = [VOCAB.keywords[i] for i in range(6)]
        out = sd.noise_gn(VOCAB, t, 1.0 - 1e-12, 0.0, np.random.default_rng(0))
        assert out == [VOCAB.mask] * 6

    def test_rate_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sd.noise_gn(VOCAB, [4], 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            sd.noise_gn(VOCAB, [4], 0.6, 0.5, rng)

    def test_marker_survival_monte_carlo(self):
        rng = np.random.default_rng(123)
        survived = total = 0
        for _ in range(10_000):
            plain = sd._plain_sentence(VOCAB, rng)
            styled = sd.stylize(VOCAB, plain, "s1", rng)
            noised = sd.noise_gn(VOCAB, styled, 0.15, 0.10, rng)
            total += marker_count(styled)
            survived += marker_count(noised)
        frac = survived / total
        assert abs(frac - 0.75) < 0.02
        assert frac > 0.5  # the leak that motivates inverse paraphrasing


class TestStrip:
    @given(plain_sentences(), st.sampled_from(sd.STYLES), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_output_always_marker_free_and_keywords_preserved(self, plain, style, seed):
        rng = np.random.default_rng(seed)
        styled = sd.stylize(VOCAB, plain, style, rng)
        stripped = sd.strip_style_gp(VOCAB, styled, rng)
        assert marker_count(stripped) == 0
        assert VOCAB.keyword_subsequence(stripped) == VOCAB.keyword_subsequence(plain)
        assert len(stripped) == len(plain)

    def test_detector_scores_zero_on_1k_stripped(self):
        rng = np.random.default_rng(77)
        hits = 0
        for i in range(1000):
            style = sd.STYLES[i % 3]
            styled = sd.stylize(VOCAB, sd._plain_sentence(VOCAB, rng),
                                style, rng)
            if marker_count(sd.strip_style_gp(VOCAB, styled, rng)) > 0:
                hits += 1
        assert hits == 0


class TestStyleCorpus:
    def test_para_pairs_contract(self):
        corpus = sd.build_style_corpus(VOCAB, "s2", 300, seed=5)
        for inp, tgt in zip(corpus.para_inputs, corpus.sentences):
            assert marker_count(inp) == 0
            assert marker_count(tgt) > 0

    def test_styleless_corpus_marker_free(self):
        corpus = sd.build_style_corpus(VOCAB, "s0", 300, seed=5)
        assert all(marker_count(s) == 0 for s in corpus.sentences)

    def test_noise_pairs_leak_style(self):
        corpus = sd.build_style_corpus(VOCAB, "s1", 2000, seed=9)
        total = sum(marker_count(s) for s in corpus.sentences)
        survived = sum(marker_count(s) for s in corpus.noise_inputs)
        assert abs(survived / total - 0.75) < 0.03

    def test_deterministic(self):
        a = sd.build_style_corpus(VOCAB, "s3", 50, seed=1)
        b = sd.build_style_corpus(VOCAB, "s3", 50, seed=1)
        assert a.sentences == b.sentences
        assert a.para_inputs == b.para_inputs
        assert a.noise_inputs == b.noise_inputs


class TestFiles:
    def test_split_boundaries(self):
        splits = sd.split_indices(10_000)
        assert (len(splits["train"]), len(splits["valid"]), len(splits["test"])) == (9000, 500, 500)

    def test_corpus_roundtrip(self, tmp_path):
        seqs = [[VOCAB.keywords[0], VOCAB.fillers[2]], [], [VOCAB.markers["s1"][0]]]
        path = tmp_path / "c.txt"
        sd.write_corpus(path, seqs, VOCAB)
        assert sd.read_corpus(path, VOCAB) == seqs

    def test_unknown_token_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("k00 f01\nk00 zebra\n")
        with pytest.raises(ValueError, match=r"bad.txt:2"):
            sd.read_corpus(path, VOCAB)

    def test_generate_data_dir_reruns_byte_identical(self, tmp_path):
        def digest(root):
            out = {}
            for p in sorted(Path(root).iterdir()):
                out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        m1 = sd.generate_data_dir(tmp_path / "a", seed=7, n_task=40, n_style=40)
        m2 = sd.generate_data_dir(tmp_path / "b", seed=7, n_task=40, n_style=40)
        assert digest(tmp_path / "a") == digest(tmp_path / "b")
        assert m1 == m2
        assert "task_headline.train.src" in m1["files"]
        assert m1["splits"]["style_s1"]["valid"] == [36, 38]

    def test_generate_data_dir_bytes_are_pinned(self, tmp_path):
        # Any change to the generators' draws or to the file format changes
        # every corpus; this digest was taken before the draws were batched.
        sd.generate_data_dir(tmp_path, seed=3, n_task=60, n_style=60)
        h = hashlib.sha256()
        for name, raw in file_bytes(tmp_path).items():
            h.update(name.encode() + b"\0" + raw)
        assert h.hexdigest() == "22cc18e1a8fc9940d5b138d86988ca25153db2e3fd292ae424ff2d0784418984"


def file_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


class TestMatchesChoiceOracle:
    """The generators reproduce the per-token-`choice` oracle's output and random stream."""

    @staticmethod
    def both(name, call, seed):
        """(output, generator state) of `call(generator, rng)` for data's and the oracle's."""
        results = []
        for fn in (getattr(sd, name), ORACLE_GENERATORS[name]):
            rng = np.random.default_rng(seed)
            results.append((call(fn, rng), rng.bit_generator.state))
        return results

    @given(st.integers(1, 6), st.integers(0, 15), st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_interleave(self, n_k, n_f, seed):
        fast, oracle = self.both("_interleave", lambda fn, rng: fn(VOCAB, rng, n_k, n_f), seed)
        assert fast == oracle

    @given(plain_sentences(), st.sampled_from(sd.STYLES), st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_stylize_then_strip(self, plain, style, seed):
        fast, oracle = self.both("stylize", lambda fn, rng: fn(VOCAB, plain, style, rng), seed)
        assert fast == oracle
        styled = fast[0]
        fast, oracle = self.both("strip_style_gp", lambda fn, rng: fn(VOCAB, styled, rng), seed)
        assert fast == oracle

    @given(plain_sentences(), st.floats(0.0, 0.5), st.floats(0.0, 0.45),
           st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_noise(self, t, mask_rate, delete_rate, seed):
        fast, oracle = self.both(
            "noise_gn", lambda fn, rng: fn(VOCAB, t, mask_rate, delete_rate, rng), seed)
        assert fast == oracle

    @pytest.mark.parametrize("seed,n_task,n_style,tasks", [
        (0, 20, 20, sd.TASKS),
        (7, 137, 45, ("headline",)),
        (123, 40, 300, ("story",)),
        (2**40 + 5, 400, 60, ("story", "headline")),
    ])
    def test_generate_data_dir_writes_the_oracle_bytes(self, tmp_path, monkeypatch,
                                                       seed, n_task, n_style, tasks):
        kwargs = dict(seed=seed, n_task=n_task, n_style=n_style, tasks=tasks)
        manifest = sd.generate_data_dir(tmp_path / "fast", **kwargs)
        for name, fn in ORACLE_GENERATORS.items():
            monkeypatch.setattr(sd, name, fn)
        assert sd.generate_data_dir(tmp_path / "oracle", **kwargs) == manifest
        assert file_bytes(tmp_path / "fast") == file_bytes(tmp_path / "oracle")
