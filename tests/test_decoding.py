"""Decoder tests: handcrafted tables, the exhaustive oracle, and file I/O."""

import numpy as np
import pytest

from helpers import BOS, EOS, exhaustive_best, table_step_fn
from styleswap import data as sd
from styleswap import decoding as dec
from styleswap import model as mdl
from styleswap import store


def fixed_table(rows):
    """Step function that ignores the prefix beyond its length."""

    def step(prefixes):
        out = []
        for p in prefixes:
            row = np.asarray(rows[len(p) - 1], dtype=np.float64)
            out.append(row)
        return np.asarray(out)

    return step


class TestCores:
    def test_greedy_follows_argmax_trace(self):
        # 3-token vocab (bos, eos, a): argmax path is a, a, eos
        rows = [
            [-np.inf, np.log(0.2), np.log(0.8)],
            [-np.inf, np.log(0.4), np.log(0.6)],
            [-np.inf, np.log(0.9), np.log(0.1)],
        ]
        tokens, score = dec.greedy_core(fixed_table(rows), BOS, EOS, 3)
        assert tokens == [2, 2]
        assert np.isclose(score, np.log(0.8) + np.log(0.6) + np.log(0.9))

    def test_greedy_tie_breaks_to_lowest_id(self):
        rows = [[-np.inf, np.log(0.5), np.log(0.5)]]
        tokens, _ = dec.greedy_core(fixed_table(rows), BOS, EOS, 1)
        assert tokens == []  # EOS (id 1) wins the tie against id 2

    def test_beam_matches_exhaustive_on_handcrafted_table(self):
        fn = table_step_fn(4242, 3)
        want = exhaustive_best(fn, 3, 3)
        got = dec.beam_core(fn, BOS, EOS, 3, beam_size=27, alpha=0.0)
        assert got[0] == want[0]
        assert np.isclose(got[1], want[1])

    @pytest.mark.parametrize("seed", range(40))
    def test_saturated_beam_is_exhaustive_argmax(self, seed):
        rng = np.random.default_rng(seed)
        v, t = int(rng.integers(3, 5)), int(rng.integers(2, 5))
        fn = table_step_fn(seed, v)
        want_tokens, want_score = exhaustive_best(fn, t, v)
        got_tokens, got_score = dec.beam_core(fn, BOS, EOS, t, v ** t, alpha=0.0)
        assert got_tokens == want_tokens
        assert np.isclose(got_score, want_score)

    @pytest.mark.parametrize("seed", range(30))
    def test_monotone_non_degradation(self, seed):
        # not a theorem for adversarial tables, but holds on this fixed
        # random family (verified far beyond the seeds spot-checked here)
        fn = table_step_fn(seed + 500, 4)
        prev = -np.inf
        for k in range(1, 7):
            _, score = dec.beam_core(fn, BOS, EOS, 4, k, alpha=0.0)
            assert score >= prev - 1e-12
            prev = score

    @pytest.mark.parametrize("seed", range(25))
    def test_beam1_equals_greedy(self, seed):
        fn = table_step_fn(seed + 900, 4)
        g_tokens, g_score = dec.greedy_core(fn, BOS, EOS, 5)
        b_tokens, b_score = dec.beam_core(fn, BOS, EOS, 5, 1, 0.0)
        assert g_tokens == b_tokens
        assert np.isclose(g_score, b_score)

    def test_never_continues_past_eos(self):
        fn = table_step_fn(31337, 4)
        for k in (1, 2, 8):
            tokens, _ = dec.beam_core(fn, BOS, EOS, 6, k, 0.0)
            assert EOS not in tokens and BOS not in tokens

    def test_length_penalty_prefers_longer(self):
        # raw scores tie-ish; normalization by len^alpha favors the longer one
        rows = [
            [-np.inf, np.log(0.5), np.log(0.5)],
            [-np.inf, np.log(0.9), np.log(0.1)],
        ]
        short_first = dec.beam_core(fixed_table(rows), BOS, EOS, 2, 4, alpha=0.0)
        assert short_first[0] == []
        longer = dec.beam_core(fixed_table(rows), BOS, EOS, 2, 4, alpha=1.0)
        assert longer[0] == [2]

    def test_beam_size_validation(self):
        with pytest.raises(ValueError):
            dec.DecodeConfig(beam_size=0)


@pytest.fixture(scope="module")
def tiny_setup():
    vocab = sd.Vocab()
    cfg = mdl.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, d_ffn=24,
                          n_enc_layers=1, n_dec_layers=1, adapter_bottleneck=4,
                          max_len=24, seed=2)
    model = mdl.build_model(cfg)
    adapters = mdl.fresh_adapters(cfg, "s1", seed=8)
    rng = np.random.default_rng(4)
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0, 0.4, size=layer["w_up"].shape)
    return vocab, model, adapters


class TestModelDecoding:
    def test_beam1_equals_greedy_on_model(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        x = [vocab.keywords[0], vocab.fillers[3], vocab.keywords[9]]
        g = dec.greedy(model, adapters, x, dec.DecodeConfig(max_out_len=8), vocab)
        b = dec.beam_search(model, adapters, x, dec.DecodeConfig(beam_size=1, max_out_len=8), vocab)
        assert g.tokens == b.tokens
        assert np.isclose(g.score, b.score)

    def test_deterministic_across_calls(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        x = [vocab.keywords[5], vocab.keywords[6]]
        cfg = dec.DecodeConfig(beam_size=4, max_out_len=8)
        a = dec.beam_search(model, adapters, x, cfg, vocab)
        b = dec.beam_search(model, adapters, x, cfg, vocab)
        assert a.tokens == b.tokens and a.score == b.score

    def test_result_contains_no_specials(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        res = dec.beam_search(model, adapters, [vocab.keywords[1]],
                              dec.DecodeConfig(beam_size=3, max_out_len=10), vocab)
        assert vocab.pad not in res.tokens
        assert vocab.bos not in res.tokens
        assert vocab.eos not in res.tokens
        assert res.style_id == "s1"
        assert np.isfinite(res.score)

    def test_score_is_sum_of_step_logprobs(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        x = [vocab.keywords[2], vocab.fillers[1]]
        res = dec.beam_search(model, adapters, x, dec.DecodeConfig(beam_size=4, max_out_len=8), vocab)
        step = dec.model_step_fn(model, x, vocab)
        prefix, total = [vocab.bos], 0.0
        for tok in res.tokens + [vocab.eos]:
            row = step([prefix])[0]
            total += row[tok]
            prefix.append(tok)
            if len(prefix) - 1 >= 8:
                break
        assert abs(total - res.score) < 1e-9


class TestGenerateBatch:
    def test_empty_input_gives_empty_output(self, tiny_setup, tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("")
        dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                           tmp_path / "out.txt", dec.DecodeConfig(max_out_len=6), vocab)
        assert (tmp_path / "out.txt").read_text() == ""

    def test_order_preserving_and_rerun_identical(self, tiny_setup, tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        lines = ["k00 f01 k02", "k03 k04", "k05 f00 f01 k06"]
        (tmp_path / "in.txt").write_text("\n".join(lines) + "\n")
        cfg = dec.DecodeConfig(beam_size=2, max_out_len=6)
        res1 = dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                                  tmp_path / "out1.txt", cfg, vocab,
                                  scores_file=tmp_path / "s1.txt")
        res2 = dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                                  tmp_path / "out2.txt", cfg, vocab,
                                  scores_file=tmp_path / "s2.txt")
        assert len(res1) == 3
        assert (tmp_path / "out1.txt").read_bytes() == (tmp_path / "out2.txt").read_bytes()
        assert (tmp_path / "s1.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()

    def test_overlong_input_error(self, tiny_setup, tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        too_long = " ".join(["k00"] * (model.config.max_len + 1))
        (tmp_path / "in.txt").write_text("k00 k01\n" + too_long + "\n")
        with pytest.raises(ValueError, match=r"in.txt:2: .*max_len"):
            dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                               tmp_path / "out.txt", dec.DecodeConfig(max_out_len=4), vocab)

    def test_unknown_token_error_names_line(self, tiny_setup, tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("k00\nnot-a-token\n")
        with pytest.raises(ValueError, match="in.txt:2"):
            dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                               tmp_path / "out.txt", dec.DecodeConfig(max_out_len=4), vocab)
