"""Command-line surface for the staged style-adapter workflow.

Subcommands:

  gen-data       write the synthetic corpora + manifest into <workdir>/data
  train-adapter  stage 1 for one style (--style, --mode)
  train-task     stage 2 for one task (--task, --trainable, [--fresh-s0])
  generate       decode the task test set through a chosen adapter
  evaluate       score one generation run into a key=value report
  pipeline       end to end: data, all adapters, all tasks, generate, evaluate
  gradcheck      finite-difference audit of every op and a decoder-step loss
  ablate         pretraining-mode x trainable-group grid plus the no-s0 variant

Every command is deterministic given (--seed, config): reruns produce
byte-identical artifacts. Exit codes: 0 ok, 1 runtime failure (one-line
diagnostic on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import decoding as dec
from . import metrics as mx
from . import model as mdl
from . import store, training
from .config import RunConfig, from_items, read_config_file, save_config
from .data import STYLELESS, STYLES, Vocab, child_seed, generate_data_dir, read_corpus


MODES = ("inverse-para", "denoise")


class CliError(RuntimeError):
    pass


class Workspace:
    def __init__(self, root: Path):
        self.root = Path(root)
        self.data = self.root / "data"
        self.models = self.root / "models"
        self.adapters = self.root / "adapters"
        self.outputs = self.root / "outputs"
        self.reports = self.root / "reports"
        self.logs = self.root / "logs"

    def ensure_dirs(self):
        for d in (self.root, self.data, self.models, self.adapters,
                  self.outputs, self.reports, self.logs):
            d.mkdir(parents=True, exist_ok=True)

    def adapter_path(self, style: str, mode: str) -> Path:
        return self.adapters / f"{style}.{mode}.adapter"

    def base_init_path(self) -> Path:
        return self.models / "base_init.ckpt"

    def task_model_path(self, task: str, trainable: str, variant: str = "") -> Path:
        sel = trainable.replace("+", "_")
        suffix = f".{variant}" if variant else ""
        return self.models / f"base_{task}.{sel}{suffix}.ckpt"

    def output_path(self, task: str, style: str, variant: str = "") -> Path:
        suffix = f".{variant}" if variant else ""
        return self.outputs / f"{task}.{style}{suffix}.out"

    def report_path(self, task: str, style: str, variant: str = "") -> Path:
        suffix = f".{variant}" if variant else ""
        return self.reports / f"{task}.{style}{suffix}.report.txt"


def _require_data(ws: Workspace):
    if not (ws.data / "manifest.json").exists():
        raise CliError(f"no corpora under {ws.data}; run gen-data first")


def ensure_base(cfg: RunConfig, ws: Workspace) -> mdl.Model:
    """Build (or reload) the workdir's shared initial base model."""
    path = ws.base_init_path()
    if path.exists():
        model = store.load_checkpoint(path)
        if model.config != cfg.model_config():
            raise CliError(f"{path} was built with a different model config; "
                           "use a fresh workdir or matching flags")
        return model
    model = mdl.build_model(cfg.model_config())
    ws.ensure_dirs()
    store.save_checkpoint(model, path)
    # reload so that every consumer sees the canonical float32 storage form
    return store.load_checkpoint(path)


def base_sha(model: mdl.Model) -> str:
    return hashlib.sha256(model.base_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: RunConfig, ws: Workspace) -> int:
    ws.ensure_dirs()
    manifest = generate_data_dir(ws.data, seed=cfg.seed, n_task=cfg.n_task,
                                 n_style=cfg.n_style, mask_rate=cfg.mask_rate,
                                 delete_rate=cfg.delete_rate, tasks=cfg.tasks)
    print(f"gen-data: wrote {len(manifest['files'])} corpus files to {ws.data}")
    return 0


def cmd_train_adapter(cfg: RunConfig, ws: Workspace, style: str, mode: str) -> int:
    _require_data(ws)
    vocab = Vocab()
    model = ensure_base(cfg, ws)
    splits = training.load_style_pairs(ws.data, style, mode, vocab, cfg.model.max_len)
    label = f"step1.{style}.{mode}"
    hp = cfg.hyper(epochs=cfg.step1_epochs, seed=child_seed(cfg.seed, label),
                   log_path=ws.logs / f"{label}.jsonl")
    started = time.time()
    adapters, result = training.train_style_adapter(model, vocab, style, mode, splits, hp)
    path = ws.adapter_path(style, mode)
    store.save_adapter(adapters, model.base_id, path)
    print(f"train-adapter: style={style} mode={mode} epochs={result.epochs_run} "
          f"final_loss={np.mean(result.losses[-50:]):.4f} "
          f"({time.time() - started:.0f}s) -> {path}")
    return 0


def cmd_train_task(cfg: RunConfig, ws: Workspace, task: str, trainable: str,
                   fresh_s0: bool = False, variant: str = "",
                   s0_mode: str | None = None) -> int:
    _require_data(ws)
    vocab = Vocab()
    base = ensure_base(cfg, ws)
    model = store.clone_model(base)
    if fresh_s0:
        adapters = mdl.fresh_adapters(model.config, STYLELESS,
                                      seed=child_seed(cfg.seed, "fresh-s0"))
    else:
        adapter_file = ws.adapter_path(STYLELESS, s0_mode or cfg.mode)
        if not adapter_file.exists():
            raise CliError(f"{adapter_file} missing; run train-adapter --style s0 first")
        adapters = store.load_adapter(adapter_file, model)
    splits = training.load_task_pairs(ws.data, task, vocab, cfg.model.max_len)
    label = f"step2.{task}.{trainable}" + (f".{variant}" if variant else "")
    hp = cfg.hyper(epochs=cfg.step2_epochs, seed=child_seed(cfg.seed, label),
                   log_path=ws.logs / f"{label}.jsonl")
    started = time.time()
    result = training.train_task(model, vocab, adapters, splits, trainable, hp)
    path = ws.task_model_path(task, trainable, variant)
    store.save_checkpoint(model, path)
    print(f"train-task: task={task} trainable={trainable} epochs={result.epochs_run} "
          f"final_loss={np.mean(result.losses[-50:]):.4f} "
          f"({time.time() - started:.0f}s) -> {path}")
    return 0


def cmd_generate(cfg: RunConfig, ws: Workspace, task: str, style: str,
                 beam: int | None = None, mode: str | None = None,
                 trainable: str | None = None, variant: str = "",
                 input_file: Path | None = None, output_file: Path | None = None) -> int:
    vocab = Vocab()
    trainable = trainable or cfg.trainable
    model_path = ws.task_model_path(task, trainable, variant)
    if not model_path.exists():
        raise CliError(f"{model_path} missing; run train-task first")
    model = store.load_checkpoint(model_path)
    adapter_mode = mode or cfg.mode
    adapter_file = ws.adapter_path(style, adapter_mode)
    if not adapter_file.exists():
        raise CliError(f"{adapter_file} missing; run train-adapter first")
    src_path = Path(input_file) if input_file else ws.data / f"task_{task}.test.src"
    out_path = Path(output_file) if output_file else ws.output_path(task, style, variant)
    ws.ensure_dirs()
    decode_cfg = cfg.decode_config(beam_size=beam)
    results = dec.generate_batch(model, adapter_file, src_path, out_path, decode_cfg,
                                 vocab, scores_file=out_path.with_suffix(".scores"))
    print(f"generate: base_sha={base_sha(model)} lineage={model.base_id[:16]} "
          f"adapter={style}.{adapter_mode} beam={decode_cfg.beam_size} "
          f"inputs={len(results)} -> {out_path}")
    return 0


def _style_lms(cfg: RunConfig, ws: Workspace, vocab: Vocab) -> dict[str, mx.NgramLM]:
    lms = {}
    for style in STYLES:
        corpus = read_corpus(ws.data / f"style_{style}.train.txt", vocab)
        lms[style] = mx.train_ngram_lm(corpus, cfg.lm_order, cfg.lm_k, vocab, tag=style)
    return lms


def cmd_evaluate(cfg: RunConfig, ws: Workspace, task: str, style: str,
                 variant: str = "", outputs_file: Path | None = None,
                 trainable: str | None = None) -> int:
    _require_data(ws)
    vocab = Vocab()
    out_path = Path(outputs_file) if outputs_file else ws.output_path(task, style, variant)
    if not out_path.exists():
        raise CliError(f"{out_path} missing; run generate first")
    outputs = read_corpus(out_path, vocab)
    references = read_corpus(ws.data / f"task_{task}.test.tgt", vocab)
    if len(outputs) != len(references):
        raise CliError(f"{out_path}: {len(outputs)} outputs vs "
                       f"{len(references)} references")
    plain_lm = mx.train_ngram_lm(read_corpus(ws.data / f"task_{task}.train.tgt", vocab),
                                 cfg.lm_order, cfg.lm_k, vocab, tag="plain")
    embeddings = None
    model_path = ws.task_model_path(task, trainable or cfg.trainable, variant)
    if model_path.exists():
        embeddings = store.load_checkpoint(model_path).params["emb.tok"].data
    report = mx.evaluate_run(outputs, references, plain_lm,
                             _style_lms(cfg, ws, vocab), vocab, embeddings=embeddings)
    report_path = ws.report_path(task, style, variant)
    mx.write_report(report, report_path)
    markers = " ".join(f"marker.{s}={report.marker[s]:.3f}" for s in STYLES)
    print(f"evaluate: {task}.{style}{('.' + variant) if variant else ''} "
          f"r1={report.r1:.3f} rl={report.rl:.3f} ppl={report.ppl:.2f} {markers}")
    return 0


def cmd_pipeline(cfg: RunConfig, ws: Workspace) -> int:
    """Steps 1-3 end to end, then a MetricsReport per (task, style)."""
    started = time.time()
    ws.ensure_dirs()
    save_config(cfg, ws.root / "config.txt")
    if not (ws.data / "manifest.json").exists():
        cmd_gen_data(cfg, ws)
    for style in (STYLELESS,) + tuple(cfg.styles):
        cmd_train_adapter(cfg, ws, style, cfg.mode)
    for task in cfg.tasks:
        cmd_train_task(cfg, ws, task, cfg.trainable)
    for task in cfg.tasks:
        for style in (STYLELESS,) + tuple(cfg.styles):
            cmd_generate(cfg, ws, task, style)
            cmd_evaluate(cfg, ws, task, style)
    print(f"pipeline: done in {time.time() - started:.0f}s "
          f"({len(cfg.tasks)} tasks x {len(cfg.styles) + 1} adapter sets)")
    return 0


def cmd_ablate(cfg: RunConfig, ws: Workspace, task: str) -> int:
    """Grid of {inverse-para, denoise} x {enc, enc+catt, enc+catt+dec} + no-s0."""
    started = time.time()
    ws.ensure_dirs()
    if not (ws.data / "manifest.json").exists():
        cmd_gen_data(cfg, ws)
    for mode in MODES:
        for style in (STYLELESS,) + tuple(cfg.styles):
            if not ws.adapter_path(style, mode).exists():
                cmd_train_adapter(cfg, ws, style, mode)
    rows = []
    for mode in MODES:
        for sel in mdl.SELECTORS:
            variant = f"ablate-{mode}"
            cmd_train_task(cfg, ws, task, sel, variant=variant, s0_mode=mode)
            row = _ablate_row(cfg, ws, task, sel, mode, variant)
            rows.append((f"{mode}/{sel}", row))
    cmd_train_task(cfg, ws, task, "enc", fresh_s0=True, variant="ablate-nos0")
    rows.append(("no-s0/enc", _ablate_row(cfg, ws, task, "enc", "inverse-para",
                                          "ablate-nos0")))
    table_path = ws.reports / f"ablation_{task}.txt"
    header = f"{'cell':24s} {'r1':>6s} {'rl':>6s} " + " ".join(
        f"marker.{s:>2s}" for s in cfg.styles)
    lines = [header]
    for name, row in rows:
        markers = " ".join(f"{row.marker[s]:9.3f}" for s in cfg.styles)
        lines.append(f"{name:24s} {row.r1:6.3f} {row.rl:6.3f} {markers}")
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"ablate: {len(rows)} cells in {time.time() - started:.0f}s -> {table_path}")
    return 0


def _ablate_row(cfg: RunConfig, ws: Workspace, task: str, trainable: str,
                mode: str, variant: str) -> mx.MetricsReport:
    """One grid cell: style-less quality metrics + per-style matched marker rates."""
    vocab = Vocab()
    cmd_generate(cfg, ws, task, STYLELESS, mode="inverse-para", trainable=trainable,
                 variant=variant)
    cmd_evaluate(cfg, ws, task, STYLELESS, variant=variant, trainable=trainable)
    row = mx.read_report(ws.report_path(task, STYLELESS, variant))
    for style in cfg.styles:
        cmd_generate(cfg, ws, task, style, mode=mode, trainable=trainable,
                     variant=variant)
        outputs = read_corpus(ws.output_path(task, style, variant), vocab)
        row.marker[style] = mx.style_marker_rate(outputs, style, vocab)
    mx.write_report(row, ws.report_path(task, "grid", variant + f".{trainable.replace('+', '_')}"))
    return row


# ---------------------------------------------------------------------------
# gradcheck


def _op_level_checks(rng: np.random.Generator) -> float:
    worst = 0.0
    m, k, n = 5, 6, 7
    a = ag.Tensor(rng.uniform(-2, 2, size=(m, k)))
    b = ag.Tensor(rng.uniform(-2, 2, size=(k, n)))
    gain = ag.Tensor(rng.uniform(0.5, 1.5, size=n))
    bias = ag.Tensor(rng.uniform(-0.5, 0.5, size=n))
    targets = rng.integers(0, n, size=m)
    mix = ag.Tensor(rng.normal(size=(m, k)))
    gather_mix = ag.Tensor(rng.normal(size=(4, k)))
    ids = rng.integers(0, m, size=4)
    checks = {
        "matmul": (lambda t: ag.tsum(ag.matmul(t, b)), a),
        "layer_norm": (lambda t: ag.tsum(ag.layer_norm(ag.matmul(a, t), gain, bias, 1e-5)),
                       b),
        "relu": (lambda t: ag.tsum(ag.relu(ag.add(t, ag.Tensor(np.full((m, k), 1.5))))), a),
        "softmax": (lambda t: ag.tsum(ag.mul(ag.softmax(t, axis=-1), mix)), a),
        "cross_entropy": (lambda t: ag.cross_entropy(ag.matmul(a, t), targets,
                                                     ignore_id=-1), b),
        "embedding": (lambda t: ag.tsum(ag.mul(ag.embedding(t, ids), gather_mix)),
                      ag.Tensor(rng.uniform(-1, 1, size=(m, k)))),
    }
    for name, (f, w) in checks.items():
        err = ag.grad_check(f, ag.Tensor(w.data.copy()))
        print(f"gradcheck: op {name:14s} max_rel_err {err:.3e}")
        worst = max(worst, err)
    return worst


# One whole tensor of each adapter kind and of each base group (enc, dec-self,
# dec-catt, dec-other); enc.0.self.wq is a matmul weight.
_DECODER_STEP_TENSORS = ("adapter.0.ln_g", "adapter.1.ln_b", "adapter.0.w_down",
                         "adapter.1.w_up", "enc.0.self.wq", "dec.1.ln1.g",
                         "dec.0.catt.bv", "dec.1.ffn.b1")


def _decoder_step_check(rng: np.random.Generator) -> float:
    """grad_check of a full decoder-step loss with respect to whole parameter tensors."""
    vocab = Vocab()
    cfg = mdl.ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, d_ffn=12,
                          n_enc_layers=1, n_dec_layers=2, adapter_bottleneck=2,
                          max_len=8, seed=int(rng.integers(0, 2**31)))
    model = mdl.build_model(cfg)
    adapters = mdl.fresh_adapters(cfg, "s1", seed=int(rng.integers(0, 2**31)))
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0, 0.3, size=layer["w_up"].shape)
    mdl.swap_adapters(model, adapters)
    for _, t in model.named_parameters():
        t.requires_grad = False
    src = rng.integers(4, len(vocab), size=(2, 5))
    dec_in = rng.integers(4, len(vocab), size=(2, 4))
    dec_tgt = rng.integers(4, len(vocab), size=(2, 4))

    worst = 0.0
    for name in _DECODER_STEP_TENSORS:
        if name.startswith("adapter."):
            _, i, key = name.split(".")
            slots = adapters.layers[int(i)]
        else:
            slots, key = model.params, name
        original = slots[key]

        def loss(probe: ag.Tensor) -> ag.Tensor:
            slots[key] = probe
            enc = mdl.encode_batch(model, src, None)
            logits = mdl.decode_logits_batch(model, enc, None, dec_in)
            return ag.cross_entropy(ag.reshape(logits, (8, len(vocab))), dec_tgt.ravel(),
                                    ignore_id=-1)

        try:
            err = ag.grad_check(loss, original)
        finally:
            slots[key] = original
        print(f"gradcheck: decoder-step {name:16s} max_rel_err {err:.3e}")
        worst = max(worst, err)
    return worst


def run_gradcheck(seed: int = 0) -> float:
    rng = np.random.default_rng(child_seed(seed, "gradcheck"))
    return max(_op_level_checks(rng), _decoder_step_check(rng))


def cmd_gradcheck(cfg: RunConfig) -> int:
    started = time.time()
    worst = run_gradcheck(cfg.seed)
    ok = worst < 1e-4
    print(f"gradcheck: overall max_rel_err {worst:.3e} "
          f"({time.time() - started:.1f}s): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="styleswap",
                                     description="style-adapter seq2seq workbench")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="artifact directory (default runs/<preset>)")
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file")
    parser.add_argument("--preset", default=None, choices=["toy", "paper"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config field")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data")
    p = sub.add_parser("train-adapter")
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--mode", default="inverse-para", choices=MODES)
    p = sub.add_parser("train-task")
    p.add_argument("--task", required=True, choices=["headline", "story"])
    p.add_argument("--trainable", default="enc", choices=mdl.SELECTORS)
    p.add_argument("--fresh-s0", action="store_true",
                   help="use fresh identity adapters instead of trained s0")
    p = sub.add_parser("generate")
    p.add_argument("--task", required=True, choices=["headline", "story"])
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--mode", default=None, choices=MODES)
    p.add_argument("--trainable", default=None, choices=mdl.SELECTORS)
    p.add_argument("--input", type=Path, default=None)
    p.add_argument("--output", type=Path, default=None)
    p = sub.add_parser("evaluate")
    p.add_argument("--task", required=True, choices=["headline", "story"])
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--outputs", type=Path, default=None)
    sub.add_parser("pipeline")
    sub.add_parser("gradcheck")
    p = sub.add_parser("ablate")
    p.add_argument("--task", default="headline", choices=["headline", "story"])
    return parser


def _resolve_config(args) -> RunConfig:
    """Config file keys, then --set and --seed on top; --preset replaces any preset key."""
    items = read_config_file(args.config) if args.config is not None else {}
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        items[key] = value
    if args.seed is not None:
        items["seed"] = str(args.seed)
    return from_items(items, preset=args.preset)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        ws = Workspace(args.workdir or Path("runs") / cfg.preset)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, ws)
        if args.command == "train-adapter":
            return cmd_train_adapter(cfg, ws, args.style, args.mode)
        if args.command == "train-task":
            return cmd_train_task(cfg, ws, args.task, args.trainable,
                                  fresh_s0=args.fresh_s0)
        if args.command == "generate":
            return cmd_generate(cfg, ws, args.task, args.style, beam=args.beam,
                                mode=args.mode, trainable=args.trainable,
                                input_file=args.input, output_file=args.output)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, ws, args.task, args.style,
                                outputs_file=args.outputs)
        if args.command == "pipeline":
            return cmd_pipeline(cfg, ws)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg, ws, args.task)
        raise CliError(f"unhandled command {args.command!r}")
    except (CliError, ValueError, OSError, store.StoreError, mdl.ConfigError,
            mdl.AdapterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
