"""Per-layer metrics of a traced run, derived from spans and boundary counts.

Each metric names the wrapped functions it is computed from. When one of
them is missing at the traced commit, or its boundary hook failed, the
metric is reported absent (value 0 and listed by name) instead of failing
the run. The layers are the package modules; which end-to-end metric each
one should move, on which workload, is written down in README.md.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from spans import LAYERS, Spans, Tracer, timed, timed_iteration, timing_summary

OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "reshape", "transpose",
       "embedding", "relu", "cross_entropy")
PREFIXES = (1, 8, 16, 32)

TRAIN_LOOP = "training.train_on_pairs"
STEP = "training.AdamW.step"
DATA_WAIT = "training.make_batches"
SCORER = "decoding.scorer"
# The CLI decodes with beam search only; greedy decoding is not measured.
SENTENCE = ("decoding.beam_search",)
SEARCH = ("decoding.beam_core",)
# The benchmark opens these around each traced set-up and pass; package
# spans below them are the top-level spans.
BENCH_ROOTS = ("bench.setup", "bench.pass")


def _timing_metrics(prefix: str, needs: tuple[str, ...]):
    return [(f"{prefix}_p50", "ms", needs), (f"{prefix}_tail", "ms", needs)]


# (metric name, unit, wrapped names it is computed from), in report order.
METRICS: list[tuple[str, str, tuple[str, ...]]] = [
    ("cli.gen_data_s", "s", ("cli.cmd_gen_data",)),
    ("cli.train_adapter_s", "s", ("cli.cmd_train_adapter",)),
    ("cli.train_task_s", "s", ("cli.cmd_train_task",)),
    ("cli.generate_s", "s", ("cli.cmd_generate",)),
    ("cli.evaluate_s", "s", ("cli.cmd_evaluate",)),
    ("data.generate_data_dir_s", "s", ("data.generate_data_dir",)),
    ("data.read_corpus_calls", "count", ("data.read_corpus",)),
    ("data.read_corpus_s", "s", ("data.read_corpus",)),
    ("store.load_checkpoint_calls", "count", ("store.load_checkpoint",)),
    ("store.load_checkpoint_s", "s", ("store.load_checkpoint",)),
    ("store.load_adapter_calls", "count", ("store.load_adapter",)),
    ("store.save_s", "s", ("store.save_checkpoint", "store.save_adapter")),
    ("store.bytes_read", "B", ("store.load_checkpoint", "store.load_adapter")),
    ("store.bytes_written", "B", ("store.save_checkpoint", "store.save_adapter")),
    ("model.build_model_calls", "count", ("model.build_model",)),
    ("model.build_model_s", "s", ("model.build_model",)),
    ("model.encode_batch_calls", "count", ("model.encode_batch",)),
    ("model.encode_batch_s", "s", ("model.encode_batch",)),
    ("model.decode_logits_batch_calls", "count", ("model.decode_logits_batch",)),
    ("model.decode_logits_batch_s", "s", ("model.decode_logits_batch",)),
    ("model.decode_positions", "count", ("model.decode_logits_batch",)),
    ("model.adapter_forward_s", "s", ("model.adapter_forward",)),
    ("model.swap_adapters_calls", "count", ("model.swap_adapters",)),
    ("autograd.backward_calls", "count", ("autograd.backward",)),
    ("autograd.backward_s", "s", ("autograd.backward",)),
    ("autograd.ops_per_step", "count", (STEP, TRAIN_LOOP) + tuple(f"autograd.{op}" for op in OPS)),
    *[m for op in OPS for m in ((f"autograd.{op}_calls", "count", (f"autograd.{op}",)),
                                (f"autograd.{op}_s", "s", (f"autograd.{op}",)))],
    ("training.steps", "count", (STEP,)),
    ("training.tokens", "count", (TRAIN_LOOP, "training.batch_loss")),
    ("training.pad_share", "ratio", (TRAIN_LOOP, "training.batch_loss")),
    *_timing_metrics("training.step_ms", (TRAIN_LOOP, DATA_WAIT, STEP)),
    ("training.data_wait_s", "s", (TRAIN_LOOP, DATA_WAIT)),
    ("training.forward_s", "s", (TRAIN_LOOP, "training.batch_loss")),
    ("training.optimizer_s", "s", (STEP,)),
    ("training.validation_s", "s", ("training.mean_loss",)),
    ("training.step_coverage", "ratio",
     (TRAIN_LOOP, DATA_WAIT, STEP, "training.batch_loss", "autograd.backward")),
    ("decoding.sentences", "count", SENTENCE),
    ("decoding.scorer_calls", "count", SEARCH),
    ("decoding.steps_per_sentence", "count", SEARCH + SENTENCE),
    *_timing_metrics("decoding.sentence_ms", SENTENCE),
    ("decoding.encode_s", "s", ("decoding.model_step_fn", "model.encode_batch")),
    ("decoding.scorer_s", "s", SEARCH),
    ("decoding.beam_core_self_s", "s", SEARCH),
    *[(f"decoding.step_ms.prefix{n}", "ms", SEARCH) for n in PREFIXES],
    ("decoding.useful_position_ratio", "ratio", SEARCH + ("model.decode_logits_batch",)),
    ("decoding.useful_step_ratio", "ratio", SEARCH + SENTENCE),
    ("metrics.train_ngram_lm_calls", "count", ("metrics.train_ngram_lm",)),
    ("metrics.train_ngram_lm_s", "s", ("metrics.train_ngram_lm",)),
    ("metrics.evaluate_run_s", "s", ("metrics.evaluate_run",)),
    ("metrics.rouge_corpus_s", "s", ("metrics.rouge_corpus",)),
    *[(f"{layer}.self_s", "s", ()) for layer in LAYERS],
    ("trace.overhead_share", "ratio", ()),
    ("trace.coverage", "ratio", ()),
    ("trace.wall_s", "s", ()),
    ("trace.spans", "count", ()),
]

UNITS = {name: unit for name, unit, _ in METRICS}
REQUIRED = sorted({n for _, _, needs in METRICS for n in needs})

# Work done per pass, useful shares and trace coverage read better when
# higher; times, sizes, call counts and wasted shares read better when lower.
HIGHER = {"training.steps", "training.tokens", "training.step_coverage", "decoding.sentences",
          "decoding.useful_position_ratio", "decoding.useful_step_ratio", "trace.coverage"}


def better(name: str) -> str:
    if name in HIGHER:
        return "higher"
    return "lower"


# ---------------------------------------------------------------------------
# boundary hooks: counts taken where the work happens


def _path_size(args, kwargs, pos: int) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[pos])


def _bytes_read(tracer: Tracer, idx, args, kwargs, result):
    tracer.counters["store.bytes_read"] += _path_size(args, kwargs, 0)


def _bytes_written(pos: int):
    def hook(tracer: Tracer, idx, args, kwargs, result):
        tracer.counters["store.bytes_written"] += _path_size(args, kwargs, pos)
    return hook


def _decode_positions(tracer: Tracer, idx, args, kwargs, result):
    prefix = kwargs["prefix"] if "prefix" in kwargs else args[3]
    rows, length = prefix.shape
    tracer.counters["model.decode_positions"] += rows * length
    if tracer.parent_name(idx) == SCORER:
        tracer.counters["decoding.positions"] += rows * length
        tracer.counters["decoding.last_rows"] += rows


def _train_tokens(tracer: Tracer, idx, args, kwargs, result):
    if tracer.parent_name(idx) != TRAIN_LOOP:
        return
    vocab = kwargs.get("vocab", args[1])
    dec_tgt = kwargs["dec_tgt"] if "dec_tgt" in kwargs else args[4]
    tracer.counters["training.tokens"] += int((dec_tgt != vocab.pad).sum())
    tracer.counters["training.positions"] += int(dec_tgt.size)


def _useful_steps(tracer: Tracer, idx, args, kwargs, result):
    """Steps the best hypothesis needed: its tokens plus EOS, unless it hit max_len."""
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    tracer.counters["decoding.useful_steps"] += min(len(result.tokens) + 1, cfg.max_len)


def _prefix_sample(tracer: Tracer, idx, args, kwargs, result):
    tracer.samples[f"prefix{len(args[0][0])}"].append(1e3 * tracer.duration(idx))


def _wrap_scorer(tracer: Tracer, args, kwargs):
    """The search cores receive the model scorer as their first argument."""
    scorer = timed(tracer, SCORER, args[0], post=_prefix_sample)
    return (scorer,) + tuple(args[1:]), kwargs


SPECIAL = {
    DATA_WAIT: timed_iteration,
    "decoding.beam_core": partial(timed, pre=_wrap_scorer),
    "decoding.beam_search": partial(timed, post=_useful_steps),
    "model.decode_logits_batch": partial(timed, post=_decode_positions),
    "training.batch_loss": partial(timed, post=_train_tokens),
    "store.load_checkpoint": partial(timed, post=_bytes_read),
    "store.load_adapter": partial(timed, post=_bytes_read),
    "store.save_checkpoint": partial(timed, post=_bytes_written(1)),
    "store.save_adapter": partial(timed, post=_bytes_written(2)),
}


# ---------------------------------------------------------------------------
# derivation


def _step_samples_ms(sp: Spans) -> list[float]:
    """Training step time: from one data-wait start to the next, if a step ran between.

    The last `next()` of an epoch (the one that ends the batch stream) closes
    the epoch's final step, so validation never falls inside a step.
    """
    in_loop = np.flatnonzero(sp.child_of(TRAIN_LOOP))
    names = sp.names
    out = []
    loop = start = None
    stepped = False
    for i in in_loop:
        name = names[sp.name[i]]
        if sp.parent[i] != loop:
            loop, start, stepped = sp.parent[i], None, False
        if name == DATA_WAIT:
            if start is not None and stepped:
                out.append(1e3 * (sp.start[i] - start))
            start, stepped = sp.start[i], False
        elif name == STEP:
            stepped = True
    return out


def _timing(v: dict[str, float], prefix: str, samples_ms) -> dict[str, float]:
    """Store the median and tail as metrics; return the tail percentile and count."""
    summary = timing_summary(samples_ms)
    v[f"{prefix}_p50"], v[f"{prefix}_tail"] = summary["p50"], summary["tail"]
    return {"tail_pct": summary["tail_pct"], "n": summary["n"]}


def derive(tracer: Tracer, overhead_share: float) -> tuple[dict[str, float], list[str], dict]:
    """All per-layer metrics, the names of those reported absent, and for each
    timing its tail percentile and sample count, which describe the sample
    and so are recorded with the run rather than reported as metrics."""
    sp = tracer.freeze()
    dur = sp.duration
    self_t = sp.self_time()

    def mask(*names, where=None):
        named = sp.is_named(*names)
        return named if where is None else named & where

    def total(*names, where=None):
        return float(dur[mask(*names, where=where)].sum())

    def count(*names, where=None):
        return int(mask(*names, where=where).sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    c = tracer.counters
    v: dict[str, float] = {
        "cli.gen_data_s": total("cli.cmd_gen_data"),
        "cli.train_adapter_s": total("cli.cmd_train_adapter"),
        "cli.train_task_s": total("cli.cmd_train_task"),
        "cli.generate_s": total("cli.cmd_generate"),
        "cli.evaluate_s": total("cli.cmd_evaluate"),
        "data.generate_data_dir_s": total("data.generate_data_dir"),
        "data.read_corpus_calls": count("data.read_corpus"),
        "data.read_corpus_s": total("data.read_corpus"),
        "store.load_checkpoint_calls": count("store.load_checkpoint"),
        "store.load_checkpoint_s": total("store.load_checkpoint"),
        "store.load_adapter_calls": count("store.load_adapter"),
        "store.save_s": total("store.save_checkpoint", "store.save_adapter"),
        "store.bytes_read": c["store.bytes_read"],
        "store.bytes_written": c["store.bytes_written"],
        "model.decode_positions": c["model.decode_positions"],
        "model.adapter_forward_s": total("model.adapter_forward"),
        "model.swap_adapters_calls": count("model.swap_adapters"),
    }
    for fn in ("build_model", "encode_batch", "decode_logits_batch"):
        v[f"model.{fn}_calls"] = count(f"model.{fn}")
        v[f"model.{fn}_s"] = total(f"model.{fn}")

    v["autograd.backward_calls"] = count("autograd.backward")
    v["autograd.backward_s"] = total("autograd.backward")
    for op in OPS:
        v[f"autograd.{op}_calls"] = count(f"autograd.{op}")
        v[f"autograd.{op}_s"] = total(f"autograd.{op}")

    in_loop = sp.child_of(TRAIN_LOOP)
    training_ops = sp.under(TRAIN_LOOP) & ~sp.under("training.mean_loss")
    steps = count(STEP)
    step_ms = _step_samples_ms(sp)
    v["autograd.ops_per_step"] = ratio(
        count(*(f"autograd.{op}" for op in OPS), where=training_ops), steps)
    v["training.steps"] = steps
    v["training.tokens"] = c["training.tokens"]
    v["training.pad_share"] = ratio(c["training.positions"] - c["training.tokens"],
                                    c["training.positions"])
    sampling = {}
    sampling["training.step_ms"] = _timing(v, "training.step_ms", step_ms)
    v["training.data_wait_s"] = total(DATA_WAIT, where=in_loop)
    v["training.forward_s"] = total("training.batch_loss", where=in_loop)
    v["training.optimizer_s"] = total(STEP)
    v["training.validation_s"] = total("training.mean_loss")
    step_parts = (v["training.data_wait_s"] + v["training.forward_s"] + v["training.optimizer_s"]
                  + total("autograd.backward", where=in_loop))
    v["training.step_coverage"] = ratio(step_parts, sum(step_ms) / 1e3)

    sentences = count(*SENTENCE)
    scorer_calls = count(SCORER)
    v["decoding.sentences"] = sentences
    v["decoding.scorer_calls"] = scorer_calls
    v["decoding.steps_per_sentence"] = ratio(scorer_calls, sentences)
    sampling["decoding.sentence_ms"] = _timing(v, "decoding.sentence_ms",
                                               1e3 * dur[sp.is_named(*SENTENCE)])
    v["decoding.encode_s"] = total("model.encode_batch", where=sp.under("decoding.model_step_fn"))
    v["decoding.scorer_s"] = total(SCORER)
    v["decoding.beam_core_self_s"] = float(self_t[sp.is_named(*SEARCH)].sum())
    for n in PREFIXES:
        samples = tracer.samples.get(f"prefix{n}", [])
        v[f"decoding.step_ms.prefix{n}"] = float(np.median(samples)) if samples else 0.0
    v["decoding.useful_position_ratio"] = ratio(c["decoding.last_rows"], c["decoding.positions"])
    v["decoding.useful_step_ratio"] = ratio(c["decoding.useful_steps"], scorer_calls)

    v["metrics.train_ngram_lm_calls"] = count("metrics.train_ngram_lm")
    v["metrics.train_ngram_lm_s"] = total("metrics.train_ngram_lm")
    v["metrics.evaluate_run_s"] = total("metrics.evaluate_run")
    v["metrics.rouge_corpus_s"] = total("metrics.rouge_corpus")

    for layer in LAYERS:
        in_layer = sp.is_named(*(n for n in sp.names if n.partition(".")[0] == layer))
        v[f"{layer}.self_s"] = float(self_t[in_layer].sum())

    wall = total(*BENCH_ROOTS)
    v["trace.overhead_share"] = overhead_share
    v["trace.coverage"] = ratio(float(dur[sp.child_of(*BENCH_ROOTS)].sum()), wall)
    v["trace.wall_s"] = wall
    v["trace.spans"] = len(sp.name)

    broken = set(tracer.absent) | set(tracer.hook_errors)
    absent = [name for name, _, needs in METRICS if broken.intersection(needs)]
    for name in absent:
        v[name] = 0.0
    return {name: float(v[name]) for name, _, _ in METRICS}, absent, sampling
