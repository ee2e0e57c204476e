"""Command-line surface for the staged style-adapter workflow.

Subcommands:

  gen-data       write the synthetic corpora + manifest into <workdir>/data
  train-adapter  stage 1 for one style (--style, --mode)
  train-task     stage 2 for one task (--task, --trainable) through s0.<mode>
  generate       decode the task test set through <style>.<mode>
  evaluate       score one generation run into a JSON report
  pipeline       end to end: data, all adapters, all tasks, generate, evaluate
  ablate         pretraining-mode x trainable-group grid plus the no-s0 cell

`python -m styleswap pipeline` runs the default experiment in one command,
in the default workdir `runs/toy`. Every command is deterministic given
(--seed, config): reruns produce byte-identical artifacts. Exit codes: 0 ok,
1 runtime failure (one-line diagnostic on stderr), 2 usage. The config is
the only source of a run's settings: `--mode`, `--trainable` and `--beam`
are shorthands for its keys `mode`, `trainable` and `beam_size`, and
override `--set`.

Each stage-1, stage-2, generate and evaluate line ends with `-> <path>`,
the file it wrote; `evaluate --outputs X` writes its report to X with
suffix `.report.json`. A `--task` outside the config's tasks is refused
before any work, and an adapter file is refused unless it holds the style
and mode it is loaded as.

A workdir and its `config.txt` are a run's only identity: `pipeline` and
`ablate` refuse a workdir whose corpora or `config.txt` were made with
other settings. So do the commands that write into a workdir: `gen-data`,
`train-adapter`, `train-task`, `generate` without `--output` and `evaluate`
without `--outputs`. A workdir that only `gen-data` made holds no
`config.txt`, and the stage commands take any settings there but the
corpora's (seed, `n_task`, `n_style`, `tasks`). The
`ablate` cell of the run's own mode and trainable group is the run itself.
Each other cell is a workdir `<workdir>/ablate/<cell>/`, named by its table
row (such as `denoise/enc+catt` or `no-s0/enc`). It reads `data/`,
`adapters/` and `models/base_init.ckpt` from the run's workdir, and writes
its own `models/`, `outputs/`, `reports/`, `logs/` and `config.txt`.

`pipeline` and `ablate` run one job plan, which trains every adapter and
model it reads, each stage under one seed label: each stage 1, stage 2 and
generate is a job in a worker process, one per usable CPU; data generation,
metric LM fits and evaluation stay in the calling process.
Artifacts and printed lines do not depend on the worker count; wall-time
figures aside, they equal a one-worker run's. Each worker runs OpenBLAS on
one thread. Memory is paid per worker: each holds its own model and training
state. The workers are forked, so both commands need a platform with `fork`
(Linux, macOS); elsewhere they exit 1 with a one-line error.

`generate` decodes its input in contiguous shards, one per usable CPU: the
calling process decodes the first shard and forked workers the others, and
the lines are joined in input order, so `.out` and `.scores` equal a one-CPU
run's. It decodes in the calling process alone inside a `pipeline` or
`ablate` worker and on a platform without `fork`. An `--output` whose
suffix is `.scores` is refused before any line is decoded, since its
scores would overwrite it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import decoding as dec
from . import metrics as mx
from . import model as mdl
from . import store, training
from .config import RunConfig, flat_items, from_items, read_config_file, save_config
from .data import (DELETE_RATE, MASK_RATE, STYLELESS, STYLES, TASKS, Vocab, child_seed,
                   generate_data_dir, read_corpus)
from .workers import WorkerError, _Job, _run_jobs


class CliError(RuntimeError):
    pass


class Workspace:
    """A run's files. An `ablate` cell's workdir shares the data, adapters and
    initial base of its run's workdir `run`."""

    def __init__(self, root: Path, run: Path | None = None):
        self.root = Path(root)
        self.run = self.root if run is None else Path(run)
        self.data = self.run / "data"
        self.adapters = self.run / "adapters"
        self.models = self.root / "models"
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
        return self.run / "models" / "base_init.ckpt"

    def task_model_path(self, task: str, trainable: str) -> Path:
        return self.models / f"base_{task}.{trainable.replace('+', '_')}.ckpt"

    def output_path(self, task: str, style: str) -> Path:
        return self.outputs / f"{task}.{style}.out"

    def report_path(self, task: str, style: str) -> Path:
        return self.reports / f"{task}.{style}.report.json"


def _differences(have: dict, want: dict, source: str, target: str = "config") -> list[str]:
    """One "key X (source) vs Y (target)" entry per key of `want` whose values differ."""
    return [f"{key} {have[key]!r} ({source}) vs {want[key]!r} ({target})"
            for key in want if have[key] != want[key]]


def _require_task(cfg: RunConfig, command: str, task: str) -> None:
    if task not in cfg.tasks:
        raise CliError(f"{command} --task {task}: not one of the config's tasks "
                       f"({','.join(cfg.tasks)})")


def _require_data(cfg: RunConfig, ws: Workspace):
    """Check that the workdir's corpora exist and were made with cfg's settings."""
    path = ws.data / "manifest.json"
    if not path.exists():
        raise CliError(f"no corpora under {ws.data}; run gen-data first")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        have = {"seed": manifest["seed"], "n_task": manifest["sizes"]["task"],
                "n_style": manifest["sizes"]["style"],
                "mask_rate": manifest["noise"]["mask_rate"],
                "delete_rate": manifest["noise"]["delete_rate"],
                "tasks": sorted(k[len("task_"):] for k in manifest["splits"]
                                if k.startswith("task_"))}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: malformed manifest ({exc!r})") from None
    want = {"seed": cfg.seed, "n_task": cfg.n_task, "n_style": cfg.n_style,
            "tasks": sorted(cfg.tasks)}
    fixed = {"mask_rate": MASK_RATE, "delete_rate": DELETE_RATE}  # no setting changes these
    differ = _differences(have, want, "data")
    rates = _differences(have, fixed, "data", "this version")
    if differ or rates:
        raise CliError(f"{path} was generated with different settings: "
                       f"{', '.join(differ + rates)}; use a fresh workdir"
                       + ("" if rates else " or matching flags"))


def check_run(cfg: RunConfig, ws: Workspace) -> None:
    """Refuse a workdir whose corpora or config.txt were made with other settings.

    Either is checked only if it exists, the corpora first.
    """
    if (ws.data / "manifest.json").exists():
        _require_data(cfg, ws)
    path = ws.root / "config.txt"
    if path.exists():
        try:
            have = flat_items(from_items(read_config_file(path)))
        except ValueError as exc:
            raise CliError(f"{path} does not parse ({exc}); use a fresh workdir") from None
        differ = _differences(have, flat_items(cfg), "workdir")
        if differ:
            raise CliError(f"{path} was written with different settings: {', '.join(differ)}; "
                           "use a fresh workdir or matching flags")


def start_run(cfg: RunConfig, ws: Workspace) -> None:
    """`check_run`, then generate corpora if there are none and record cfg."""
    check_run(cfg, ws)
    if not (ws.data / "manifest.json").exists():
        cmd_gen_data(cfg, ws)
    save_config(cfg, ws.root / "config.txt")


def load_model(cfg: RunConfig, path: Path) -> mdl.Model:
    """The checkpoint at `path`, refused unless it was built with cfg's model config."""
    model = store.load_checkpoint(path)
    differ = _differences(asdict(model.config), asdict(cfg.model_config()), "checkpoint")
    if differ:
        raise CliError(f"{path} was built with a different model config: {', '.join(differ)}; "
                       "use a fresh workdir or matching flags")
    return model


def ensure_base(cfg: RunConfig, ws: Workspace) -> mdl.Model:
    """Build (or reload) the workdir's shared initial base model.

    A built base is float32, the dtype checkpoints store, so it equals its
    reload.
    """
    path = ws.base_init_path()
    if path.exists():
        return load_model(cfg, path)
    model = mdl.build_model(cfg.model_config())
    ws.ensure_dirs()
    store.save_checkpoint(model, path)
    return model


def base_sha(model: mdl.Model) -> str:
    return hashlib.sha256(model.base_bytes()).hexdigest()[:16]


def stage_adapters(cfg: RunConfig, ws: Workspace, model: mdl.Model, style: str,
                   fresh_s0: bool = False) -> mdl.AdapterSet:
    """The AdapterSet that stage 2 and generate run `style` through on `model`.

    That is the workdir's <style>.<mode> file, except for s0 with `fresh_s0`:
    then it is the identity set that the no-s0 cell's stage 2 trains with.
    """
    if fresh_s0 and style == STYLELESS:
        return mdl.fresh_adapters(model.config, STYLELESS, seed=child_seed(cfg.seed, "fresh-s0"))
    path = ws.adapter_path(style, cfg.mode)
    if not path.exists():
        raise CliError(f"{path} missing; run train-adapter --style {style} first")
    adapters = store.load_adapter(path, model)
    if (adapters.style_id, adapters.mode) != (style, cfg.mode):
        raise CliError(f"{path} holds the {adapters.style_id}.{adapters.mode} adapter, "
                       f"not {style}.{cfg.mode}")
    return adapters


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: RunConfig, ws: Workspace) -> int:
    ws.ensure_dirs()
    manifest = generate_data_dir(ws.data, seed=cfg.seed, n_task=cfg.n_task,
                                 n_style=cfg.n_style, tasks=cfg.tasks)
    print(f"gen-data: wrote {len(manifest['files'])} corpus files to {ws.data}")
    return 0


def cmd_train_adapter(cfg: RunConfig, ws: Workspace, style: str) -> int:
    _require_data(cfg, ws)
    vocab, mode = Vocab(), cfg.mode
    splits = training.load_style_pairs(ws.data, style, mode, vocab, cfg.model.max_len)
    model = ensure_base(cfg, ws)
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


def cmd_train_task(cfg: RunConfig, ws: Workspace, task: str, fresh_s0: bool = False) -> int:
    _require_task(cfg, "train-task", task)
    _require_data(cfg, ws)
    vocab, trainable = Vocab(), cfg.trainable
    splits = training.load_task_pairs(ws.data, task, vocab, cfg.model.max_len)
    model = ensure_base(cfg, ws)
    adapters = stage_adapters(cfg, ws, model, STYLELESS, fresh_s0)
    label = f"step2.{task}.{trainable}"
    hp = cfg.hyper(epochs=cfg.step2_epochs, seed=child_seed(cfg.seed, label),
                   log_path=ws.logs / f"{label}.jsonl")
    started = time.time()
    result = training.train_task(model, vocab, adapters, splits, trainable, hp)
    path = ws.task_model_path(task, trainable)
    store.save_checkpoint(model, path)
    print(f"train-task: task={task} trainable={trainable} epochs={result.epochs_run} "
          f"final_loss={np.mean(result.losses[-50:]):.4f} "
          f"({time.time() - started:.0f}s) -> {path}")
    return 0


def cmd_generate(cfg: RunConfig, ws: Workspace, task: str, style: str, fresh_s0: bool = False,
                 input_file: Path | None = None, output_file: Path | None = None) -> int:
    _require_task(cfg, "generate", task)
    if input_file is None:
        _require_data(cfg, ws)
    vocab = Vocab()
    model_path = ws.task_model_path(task, cfg.trainable)
    if not model_path.exists():
        raise CliError(f"{model_path} missing; run train-task first")
    model = load_model(cfg, model_path)
    adapters = stage_adapters(cfg, ws, model, style, fresh_s0)
    src_path = Path(input_file) if input_file else ws.data / f"task_{task}.test.src"
    out_path = Path(output_file) if output_file else ws.output_path(task, style)
    ws.ensure_dirs()
    results = dec.generate_batch(model, adapters, src_path, out_path, cfg.decode, vocab)
    print(f"generate: base_sha={base_sha(model)} lineage={model.base_id[:16]} "
          f"adapter={adapters.style_id}.{adapters.mode} beam={cfg.decode.beam_size} "
          f"inputs={len(results)} -> {out_path}")
    return 0


MetricLMs = tuple[mx.BigramLM, dict[str, mx.BigramLM]]


def metric_lms(ws: Workspace, task: str) -> MetricLMs:
    """The LMs that evaluate scores a task with: plain (task targets) and one per style."""
    vocab = Vocab()
    plain = mx.train_ngram_lm(read_corpus(ws.data / f"task_{task}.train.tgt", vocab), vocab)
    styled = {style: mx.train_ngram_lm(read_corpus(ws.data / f"style_{style}.train.txt", vocab),
                                       vocab)
              for style in STYLES}
    return plain, styled


def task_embeddings(cfg: RunConfig, ws: Workspace, task: str) -> np.ndarray | None:
    """The task model's token embeddings, for the embedding metric; None if it is not trained."""
    path = ws.task_model_path(task, cfg.trainable)
    return load_model(cfg, path).params["emb.tok"].data if path.exists() else None


def cmd_evaluate(cfg: RunConfig, ws: Workspace, task: str, style: str,
                 outputs_file: Path | None = None, lms: MetricLMs | None = None,
                 embeddings: np.ndarray | None = None) -> int:
    """Score one output file: the workdir's, or `outputs_file` with its report beside it.

    The report of `outputs_file` X is X with suffix `.report.json`. `lms`
    are the task's `metric_lms` and `embeddings` its `task_embeddings`;
    each is made here if None.
    """
    _require_task(cfg, "evaluate", task)
    _require_data(cfg, ws)
    vocab = Vocab()
    out_path = Path(outputs_file) if outputs_file else ws.output_path(task, style)
    if not out_path.exists():
        raise CliError(f"{out_path} missing; run generate first")
    outputs = read_corpus(out_path, vocab)
    references = read_corpus(ws.data / f"task_{task}.test.tgt", vocab)
    if len(outputs) != len(references):
        raise CliError(f"{out_path}: {len(outputs)} outputs vs "
                       f"{len(references)} references")
    plain_lm, style_lms = lms or metric_lms(ws, task)
    if embeddings is None:
        embeddings = task_embeddings(cfg, ws, task)
    report = mx.evaluate_run(outputs, references, plain_lm, style_lms, vocab,
                             embeddings=embeddings)
    report_path = (out_path.with_suffix(".report.json") if outputs_file
                   else ws.report_path(task, style))
    mx.write_report(report, report_path)
    markers = " ".join(f"marker.{s}={report.marker[s]:.3f}" for s in STYLES)
    print(f"evaluate: {task}.{style} r1={report.r1:.3f} rl={report.rl:.3f} "
          f"ppl={report.ppl:.2f} {markers} -> {report_path}")
    return 0


def _run_cells(cfg: RunConfig, ws: Workspace,
               cells: list[tuple[RunConfig, Workspace, str, bool]]) -> None:
    """Run stage 1, stage 2, generate and evaluate for `cells`.

    All four adapters of each mode the cells use train in the run's workdir
    `ws`, s0 first. A cell (config, workdir, task, fresh_s0) runs the later
    stages on its own config and workdir, each style through
    `stage_adapters`. Each stage is a job keyed by the path it writes. Job
    texts print in plan order; outputs are evaluated here.
    """
    ws.ensure_dirs()
    ensure_base(cfg, ws)  # before any job, so that no two workers build it
    styles = (STYLELESS,) + STYLES
    modes = dict.fromkeys(cell_cfg.mode for cell_cfg, *_ in cells)
    jobs = [_Job(str(ws.adapter_path(style, mode)), cmd_train_adapter,
                 (replace(cfg, mode=mode), ws, style), urgent=style == STYLELESS)
            for mode in modes for style in styles]
    jobs += [_Job(str(cell_ws.task_model_path(task, cell_cfg.trainable)), cmd_train_task,
                  (cell_cfg, cell_ws, task, fresh_s0), urgent=True,
                  needs=() if fresh_s0 else (str(ws.adapter_path(STYLELESS, cell_cfg.mode)),))
             for cell_cfg, cell_ws, task, fresh_s0 in cells]
    jobs += [_Job(str(cell_ws.output_path(task, style)), cmd_generate,
                  (cell_cfg, cell_ws, task, style, fresh_s0),
                  needs=(str(cell_ws.task_model_path(task, cell_cfg.trainable)),
                         str(ws.adapter_path(style, cell_cfg.mode))))
             for cell_cfg, cell_ws, task, fresh_s0 in cells for style in styles]
    lms = {}
    with contextlib.closing(_run_jobs(jobs)) as outputs:
        for _ in range(len(modes) * len(styles) + len(cells)):
            print(next(outputs), end="")
        for cell_cfg, cell_ws, task, _ in cells:
            if task not in lms:
                lms[task] = metric_lms(ws, task)
            embeddings = task_embeddings(cell_cfg, cell_ws, task)
            for style in styles:
                print(next(outputs), end="")
                cmd_evaluate(cell_cfg, cell_ws, task, style, lms=lms[task],
                             embeddings=embeddings)


def cmd_pipeline(cfg: RunConfig, ws: Workspace) -> int:
    """Steps 1-3 end to end, then a MetricsReport per (task, style)."""
    started = time.time()
    start_run(cfg, ws)
    _run_cells(cfg, ws, [(cfg, ws, task, False) for task in cfg.tasks])
    print(f"pipeline: done in {time.time() - started:.0f}s "
          f"({len(cfg.tasks)} tasks x {len(STYLES) + 1} adapter sets)")
    return 0


def cmd_ablate(cfg: RunConfig, ws: Workspace, task: str) -> int:
    """Grid of {inverse-para, denoise} x {enc, enc+catt, enc+catt+dec} + no-s0.

    Each cell runs on the run's config with the cell's mode and trainable
    group; the cell of the config's own pair is the run itself, and each
    other cell has its own workdir. A cell decodes every style, s0 included,
    through the adapters its stage 2 trained with: its mode's, except that
    the no-s0 cell trains and decodes s0 through fresh identity adapters,
    which are never saved.
    """
    _require_task(cfg, "ablate", task)
    started = time.time()
    start_run(cfg, ws)
    styles = (STYLELESS,) + STYLES
    grid = {f"{mode}/{sel}": (mode, sel, False) for mode in training.MODES
            for sel in mdl.SELECTORS}
    grid["no-s0/enc"] = ("inverse-para", "enc", True)
    cells = {}
    for name, (mode, sel, fresh_s0) in grid.items():
        cell_cfg, cell_ws = replace(cfg, trainable=sel, mode=mode), ws
        if cell_cfg != cfg or fresh_s0:
            cell_ws = Workspace(ws.root / "ablate" / name, run=ws.root)
            cell_ws.ensure_dirs()
            save_config(cell_cfg, cell_ws.root / "config.txt")
        cells[name] = (cell_cfg, cell_ws, task, fresh_s0)
    _run_cells(cfg, ws, list(cells.values()))
    width = max(map(len, cells))
    lines = [f"{'cell':{width}s} {'r1':>6s} {'rl':>6s} "
             + " ".join(f"marker.{s:>2s}" for s in STYLES)]
    for name, (_, cell_ws, _, _) in cells.items():
        report = {s: mx.read_report(cell_ws.report_path(task, s)) for s in styles}
        lines.append(f"{name:{width}s} {report[STYLELESS].r1:6.3f} {report[STYLELESS].rl:6.3f} "
                     + " ".join(f"{report[s].marker[s]:9.3f}" for s in STYLES))
    table_path = ws.reports / f"ablation_{task}.txt"
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"ablate: {len(cells)} cells in {time.time() - started:.0f}s -> {table_path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="styleswap",
                                     description="style-adapter seq2seq workbench")
    parser.add_argument("--workdir", type=Path, default=Path("runs/toy"),
                        help="artifact directory (default runs/toy)")
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config field")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data")
    p = sub.add_parser("train-adapter")
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--mode", default=None, choices=training.MODES)
    p = sub.add_parser("train-task")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--trainable", default=None, choices=mdl.SELECTORS)
    p = sub.add_parser("generate")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--beam", type=int, default=None, dest="beam_size")
    p.add_argument("--mode", default=None, choices=training.MODES)
    p.add_argument("--trainable", default=None, choices=mdl.SELECTORS)
    p.add_argument("--input", type=Path, default=None)
    p.add_argument("--output", type=Path, default=None)
    p = sub.add_parser("evaluate")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--style", required=True, choices=[STYLELESS, *STYLES])
    p.add_argument("--outputs", type=Path, default=None)
    sub.add_parser("pipeline")
    p = sub.add_parser("ablate")
    p.add_argument("--task", default="headline", choices=TASKS)
    return parser


def _resolve_config(args) -> RunConfig:
    """Config file keys, then --set, then the flags on top."""
    items = read_config_file(args.config) if args.config is not None else {}
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        items[key] = value
    for key in ("seed", "mode", "trainable", "beam_size"):  # the flags that set a key
        if getattr(args, key, None) is not None:
            items[key] = str(getattr(args, key))
    return from_items(items)


def _writes_run_files(args) -> bool:
    """Whether the command writes into the workdir's own artifact tree."""
    if args.command == "generate":
        return args.output is None
    if args.command == "evaluate":
        return args.outputs is None
    return args.command in ("gen-data", "train-adapter", "train-task")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        ws = Workspace(args.workdir)
        if _writes_run_files(args):
            check_run(cfg, ws)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, ws)
        if args.command == "train-adapter":
            return cmd_train_adapter(cfg, ws, args.style)
        if args.command == "train-task":
            return cmd_train_task(cfg, ws, args.task)
        if args.command == "generate":
            return cmd_generate(cfg, ws, args.task, args.style,
                                input_file=args.input, output_file=args.output)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, ws, args.task, args.style,
                                outputs_file=args.outputs)
        if args.command == "pipeline":
            return cmd_pipeline(cfg, ws)
        if args.command == "ablate":
            return cmd_ablate(cfg, ws, args.task)
        raise CliError(f"unhandled command {args.command!r}")
    except (CliError, ValueError, OSError, store.StoreError, mdl.ConfigError,
            mdl.AdapterError, training.NonFiniteLoss, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
