"""Decoder tests: handcrafted tables, the exhaustive oracle, and file I/O."""

import ctypes
import multiprocessing
import os

import numpy as np
import pytest

from helpers import (BOS, EOS, exhaustive_best, float64, full_prefix_step_fn, greedy_core,
                     list_beam_core, table_step_fn, usable_cpus)
from styleswap import autograd as ag
from styleswap import data as sd
from styleswap import decoding as dec
from styleswap import model as mdl
from styleswap import store, workers


def fixed_table(rows):
    """Step function that ignores the prefix beyond its length."""

    def step(prefixes):
        out = []
        for p in prefixes:
            row = np.asarray(rows[len(p) - 1], dtype=np.float64)
            out.append(row)
        return np.asarray(out)

    return step


def coarse_table_step_fn(seed, vocab_size):
    """Table keyed by prefix whose entries are log 1/4 or log 1/2; BOS is banned."""

    def step(prefixes):
        rows = []
        for prefix in prefixes:
            rng = np.random.default_rng([seed, *prefix])
            row = np.log(rng.choice([0.25, 0.5], size=vocab_size))
            row[BOS] = -np.inf
            rows.append(row)
        return np.asarray(rows)

    return step


class TestCores:
    def test_beam1_follows_argmax_trace(self):
        # 3-token vocab (bos, eos, a): argmax path is a, a, eos
        rows = [
            [-np.inf, np.log(0.2), np.log(0.8)],
            [-np.inf, np.log(0.4), np.log(0.6)],
            [-np.inf, np.log(0.9), np.log(0.1)],
        ]
        tokens, score = dec.beam_core(fixed_table(rows), BOS, EOS, 3, 1, 0.0)
        assert tokens == [2, 2]
        assert np.isclose(score, np.log(0.8) + np.log(0.6) + np.log(0.9))

    def test_beam1_tie_breaks_to_lowest_id(self):
        rows = [[-np.inf, np.log(0.5), np.log(0.5)]]
        tokens, _ = dec.beam_core(fixed_table(rows), BOS, EOS, 1, 1, 0.0)
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
        g_tokens, g_score = greedy_core(fn, BOS, EOS, 5)
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

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_array_core_keeps_the_list_core_tie_break(self, seed, alpha):
        # log-probs from {log 1/4, log 1/2}: equal scores across parents and
        # at the top-k cut are the common case, not the exception
        rng = np.random.default_rng(seed)
        v, t, k = int(rng.integers(3, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
        fn = coarse_table_step_fn(seed, v)
        got = dec.beam_core(fn, BOS, EOS, t, k, alpha)
        want = list_beam_core(fn, BOS, EOS, t, k, alpha)
        assert got[0] == want[0]
        assert got[1] == want[1]

    def test_tie_at_the_cut_goes_to_the_lexicographically_smaller_parent(self):
        # after step 1 the beam holds (3,) ahead of (2,) by score; at step 2
        # (3, 3) and (2, 2) tie for the last slot, and only (2, 2) can finish well
        half = np.log(0.5)
        table = {
            (): [-np.inf, -np.inf, 2 * half, half],
            (3,): [-np.inf, -np.inf, 0.0, half],
            (2,): [-np.inf, -np.inf, 0.0, -np.inf],
            (3, 2): [-np.inf, -10.0, -10.0, -10.0],
            (2, 2): [-np.inf, 0.0, -10.0, -10.0],
            (3, 3): [-np.inf, -5.0, -10.0, -10.0],
        }

        def step(prefixes):
            return np.asarray([table[tuple(p[1:])] for p in prefixes])

        for alpha in (0.0, 1.0):
            got = dec.beam_core(step, BOS, EOS, 3, 2, alpha)
            assert got == list_beam_core(step, BOS, EOS, 3, 2, alpha)
            assert got[0] == [2, 2]

    def test_early_stop_only_without_length_penalty(self):
        # EOS takes 1/2 at every step, so the first finished hypothesis beats
        # every active one; the beam never runs empty on its own
        rows = [[-np.inf, np.log(0.5), np.log(0.25), np.log(0.25)]] * 8
        calls = []

        def counting(prefixes):
            calls.append(len(prefixes))
            return fixed_table(rows)(prefixes)

        for alpha, want_calls in ((0.0, 1), (0.5, 8)):
            calls.clear()
            got = dec.beam_core(counting, BOS, EOS, 8, 2, alpha)
            assert got == list_beam_core(fixed_table(rows), BOS, EOS, 8, 2, alpha)
            assert len(calls) == want_calls

    def test_beam_size_validation(self):
        with pytest.raises(ValueError):
            dec.DecodeConfig(beam_size=0)

    @pytest.mark.parametrize("key, bad, ok", [("max_out_len", 0, 1),
                                              ("length_penalty", -0.5, 0.0),
                                              ("length_penalty", float("nan"), 1.0)])
    def test_output_length_and_penalty_validation(self, key, bad, ok):
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            dec.DecodeConfig(**{key: bad})
        assert getattr(dec.DecodeConfig(**{key: ok}), key) == ok


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
        b = dec.beam_search(model, adapters, x, dec.DecodeConfig(beam_size=1, max_out_len=8), vocab)
        g_tokens, g_score = greedy_core(dec.model_step_fn(model, x, vocab), vocab.bos,
                                        vocab.eos, 8)
        assert g_tokens == b.tokens
        assert np.isclose(g_score, b.score)

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
        model = float64(model, adapters)  # a float32 total would compare in float32
        x = [vocab.keywords[2], vocab.fillers[1]]
        res = dec.beam_search(model, model.adapters, x,
                              dec.DecodeConfig(beam_size=4, max_out_len=8), vocab)
        step = dec.model_step_fn(model, x, vocab)
        prefix, total = [vocab.bos], 0.0
        for tok in res.tokens + [vocab.eos]:
            row = step([prefix])[0]
            total += row[tok]
            prefix.append(tok)
            if len(prefix) - 1 >= 8:
                break
        assert abs(total - res.score) < 1e-9


def seeded_model(seed):
    """Default-size random model with non-zero adapters, as the decode benchmark builds it."""
    model = mdl.build_model(mdl.ModelConfig(seed=seed))
    adapters = mdl.fresh_adapters(model.config, "s1", seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0.0, 0.3, size=layer["w_up"].shape)
    return model, adapters


class TestIncrementalDecoding:
    """The cached decoder against the full-prefix oracle of tests/helpers.py, in float64."""

    def test_cached_logits_match_full_prefix_at_every_step(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        model = float64(model, adapters)
        rng = np.random.default_rng(17)
        with ag.no_grad():
            enc = mdl.encode_batch(model, np.asarray([[vocab.keywords[0], vocab.fillers[2],
                                                       vocab.keywords[7]]]), None)
            cache = mdl.DecodeCache.build(model, enc)
            prefixes = np.full((1, 1), vocab.bos)
            fed = prefixes
            # parent rows per step: widen, reorder, duplicate, shrink, widen again
            for parents in (None, [0, 0, 0], [2, 0, 1], [1, 1, 2, 0], [3, 3],
                            [1, 0, 1, 0, 1], [4, 2], [0, 1, 1, 0]):
                if parents is not None:
                    fed = rng.integers(4, len(vocab), size=(len(parents), 1))
                    prefixes = np.concatenate((prefixes[parents], fed), axis=1)
                    cache = cache.select(np.asarray(parents))
                got = mdl.decode_logits_batch(model, enc, None, fed, cache=cache)
                tiled = ag.Tensor(np.repeat(enc.data, len(prefixes), axis=0))
                want = mdl.decode_logits_batch(model, tiled, None, prefixes)
                np.testing.assert_allclose(got.data[:, -1], want.data[:, -1], rtol=0, atol=1e-10)
            # several new positions at once on top of the cached ones
            fed = rng.integers(4, len(vocab), size=(len(prefixes), 3))
            prefixes = np.concatenate((prefixes, fed), axis=1)
            got = mdl.decode_logits_batch(model, enc, None, fed, cache=cache)
            tiled = ag.Tensor(np.repeat(enc.data, len(prefixes), axis=0))
            want = mdl.decode_logits_batch(model, tiled, None, prefixes)
            np.testing.assert_allclose(got.data, want.data[:, -3:], rtol=0, atol=1e-10)
            assert cache.length == prefixes.shape[1]

    def test_scorer_falls_back_when_the_chain_breaks(self, tiny_setup, monkeypatch):
        vocab, model, adapters = tiny_setup
        model = float64(model, adapters)
        x = [vocab.keywords[3], vocab.keywords[4]]
        widths = []
        real = dec.decode_logits_batch

        def spy(*args, **kwargs):
            widths.append(args[3].shape[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(dec, "decode_logits_batch", spy)
        step, ref = dec.model_step_fn(model, x, vocab), full_prefix_step_fn(model, x, vocab)
        b, a, c, d, e = BOS, *(vocab.keywords[i] for i in (10, 11, 12, 13))
        calls = [
            [[b]],
            [[b, a], [b, c], [b, d]],
            [[b, d, e], [b, a, e], [b, d, a], [b, d, e]],  # reordered, duplicated
            [[b, d, a, c]],
            [[b, a, c, d, e]],  # parent [b, a, c, d] was never scored: full recompute
            [[b, a, c, d, e, a], [b, a, c, d, e, c]],
            [[b, e]],  # shorter than the last call: full recompute
        ]
        for prefixes in calls:
            np.testing.assert_allclose(step(prefixes), ref(prefixes), rtol=0, atol=1e-10)
        assert widths == [1, 1, 1, 1, 5, 1, 2]

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_search_matches_oracle_on_tiny_model(self, tiny_setup, alpha):
        vocab, model, adapters = tiny_setup
        model = float64(model, adapters)
        self.assert_matches_oracle(model, model.adapters, vocab, alpha, max_out_len=12, n=6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_search_matches_oracle_on_default_size_model(self, alpha):
        model = float64(*seeded_model(5))
        self.assert_matches_oracle(model, model.adapters, sd.Vocab(), alpha, max_out_len=32, n=3)

    @staticmethod
    def assert_matches_oracle(model, adapters, vocab, alpha, max_out_len, n):
        cfg = dec.DecodeConfig(beam_size=4, max_out_len=max_out_len, length_penalty=alpha)
        for pair in sd.gen_task_pairs(vocab, 29, n, "headline"):
            mdl.swap_adapters(model, adapters)
            ref = full_prefix_step_fn(model, pair.x, vocab)
            got = dec.beam_search(model, adapters, pair.x, cfg, vocab)
            want = list_beam_core(ref, vocab.bos, vocab.eos, max_out_len, 4, alpha)
            assert got.tokens == want[0]
            assert abs(got.score - want[1]) < 1e-9
            got = dec.beam_search(model, adapters, pair.x,
                                  dec.DecodeConfig(beam_size=1, max_out_len=max_out_len,
                                                   length_penalty=0.0), vocab)
            want = greedy_core(ref, vocab.bos, vocab.eos, max_out_len)
            assert got.tokens == want[0]
            assert abs(got.score - want[1]) < 1e-9

    def test_cache_is_refused_while_recording_gradients(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        mdl.swap_adapters(model, adapters)
        enc = mdl.encode_batch(model, np.asarray([[vocab.keywords[0]]]), None)
        cache = mdl.DecodeCache.build(model, enc)
        assert ag.grad_enabled()
        with pytest.raises(RuntimeError, match="inference-only"):
            mdl.decode_logits_batch(model, enc, None, np.full((1, 1), vocab.bos), cache=cache)

    def test_positions_past_max_len_are_refused(self, tiny_setup):
        vocab, model, adapters = tiny_setup
        mdl.swap_adapters(model, adapters)
        limit = model.config.max_len
        with ag.no_grad():
            enc = mdl.encode_batch(model, np.asarray([[vocab.keywords[0]]]), None)
            cache = mdl.DecodeCache.build(model, enc)
            mdl.decode_logits_batch(model, enc, None, np.full((1, limit), vocab.bos), cache=cache)
            with pytest.raises(ValueError, match=f"position {limit + 1}.*max_len={limit}"):
                mdl.decode_logits_batch(model, enc, None, np.full((1, 1), vocab.bos),
                                        cache=cache)


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

    def test_output_longer_than_model_max_len_is_refused_before_decoding(self, tiny_setup,
                                                                            tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("k00 k01\n")
        limit = model.config.max_len
        with pytest.raises(ValueError, match=f"^max_out_len={limit + 1} .*max_len={limit}$"):
            dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                               tmp_path / "out.txt", dec.DecodeConfig(max_out_len=limit + 1),
                               vocab)
        assert not (tmp_path / "out.txt").exists()
        dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                           tmp_path / "out.txt", dec.DecodeConfig(max_out_len=limit), vocab)

    def test_unknown_token_error_names_line(self, tiny_setup, tmp_path):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("k00\nnot-a-token\n")
        with pytest.raises(ValueError, match="in.txt:2"):
            dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                               tmp_path / "out.txt", dec.DecodeConfig(max_out_len=4), vocab)

    def test_every_line_is_checked_before_any_is_decoded(self, tiny_setup, tmp_path,
                                                         monkeypatch):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("k00 k01\nk02\n\n")
        decoded = []
        monkeypatch.setattr(dec, "beam_search", lambda *a: decoded.append(a))
        with pytest.raises(ValueError, match=r"in.txt:3: empty input sequence$"):
            dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                               tmp_path / "out.txt", dec.DecodeConfig(max_out_len=4), vocab)
        assert decoded == []
        assert not (tmp_path / "out.txt").exists()


def pid() -> float:
    return float(os.getpid())


def blas_threads() -> int:
    """How many threads this process's OpenBLAS runs; 0 without OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return 0


class TestShards:
    """`generate_batch` splits its input into contiguous shards, shard 0 in the caller."""

    def decode(self, tiny_setup, tmp_path, lines, monkeypatch, probe):
        vocab, model, adapters = tiny_setup
        store.save_adapter(adapters, model.base_id, tmp_path / "a.adapter")
        (tmp_path / "in.txt").write_text("".join(f"k{i:02d}\n" for i in range(lines)))
        monkeypatch.setattr(dec, "beam_search",
                            lambda model, adapters, x, cfg, vocab: dec.DecodeResult(x, probe()))
        return dec.generate_batch(model, tmp_path / "a.adapter", tmp_path / "in.txt",
                                  tmp_path / "out.txt", dec.DecodeConfig(max_out_len=4), vocab,
                                  scores_file=tmp_path / "out.scores")

    @pytest.mark.parametrize("cpus, lines, sizes", [(1, 5, [5]), (2, 5, [2, 3]),
                                                    (3, 7, [2, 2, 3]), (4, 2, [1, 1])])
    def test_contiguous_shards_join_in_input_order(self, tiny_setup, tmp_path, monkeypatch,
                                                   cpus, lines, sizes):
        usable_cpus(monkeypatch, cpus)
        bounds = set()

        def probe():
            if not workers._in_worker:
                bounds.add(tuple(dec._shards[-1]))
            return pid()

        results = self.decode(tiny_setup, tmp_path, lines, monkeypatch, probe)
        assert (tmp_path / "out.txt").read_text() == "".join(f"k{i:02d}\n" for i in range(lines))
        pids = [r.score for r in results]
        assert (tmp_path / "out.scores").read_text() == "".join(f"{p!r}\n" for p in pids)
        assert bounds == {tuple(np.cumsum([0, *sizes]))}
        # the caller decodes shard 0 and workers the others
        assert pids[:sizes[0]] == [pid()] * sizes[0] and pid() not in pids[sizes[0]:]
        assert multiprocessing.active_children() == []

    def test_shard_workers_run_blas_on_one_thread(self, tiny_setup, tmp_path, monkeypatch):
        if not blas_threads():
            pytest.skip("numpy is not linked to OpenBLAS")
        usable_cpus(monkeypatch, 3)
        results = self.decode(tiny_setup, tmp_path, 6, monkeypatch, blas_threads)
        assert [r.score for r in results[2:]] == [1.0] * 4

    def test_a_worker_counts_as_one_cpu(self, tiny_setup, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(workers, "_in_worker", True)
        monkeypatch.setattr(workers, "_pool", None)
        results = self.decode(tiny_setup, tmp_path, 4, monkeypatch, pid)
        assert {r.score for r in results} == {pid()}
