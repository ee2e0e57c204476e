"""The three benchmark workloads, each driving the `styleswap` CLI in-process.

A workload has a set-up (inputs and artifacts made from the seed), a pass
(the timed CLI calls), and a check of the pass's outputs. Every pass of
one run starts from the same set-up and must produce byte-identical
outputs. Why each workload exists, and which layers it should and should
not move, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from styleswap import cli, store, training
from styleswap import model as mdl
from styleswap.data import STYLELESS, STYLES, Vocab, child_seed, read_corpus
from styleswap.metrics import read_report

MODE = "inverse-para"  # the CLI's default adapter pretraining mode
TRAINABLE = "enc"  # the CLI's default stage-2 selector
TASK = "headline"  # every workload uses one task: the story task would double the passes
ADAPTERS = (STYLELESS, *STYLES)


class OperationFailed(RuntimeError):
    """A CLI call failed; the run stops and reports itself incorrect."""


class RunState:
    """One benchmark run: the CLI log, operation counts and failed checks."""

    def __init__(self, seed: int, log_path: Path):
        self.seed = seed
        self.log = open(log_path, "w", encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.log.close()

    def cli(self, *argv: str) -> float:
        """Run one CLI command in-process; a non-zero exit or a raise is a failed op.

        Returns the call's wall time; raises OperationFailed after recording
        a failure, because later calls depend on this one's artifacts.
        """
        self.attempted += 1
        self.log.write(f"$ styleswap {' '.join(argv)}\n")
        self.log.flush()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a raising command is a failed operation, not a crash
            traceback.print_exc(file=self.log)
            code = "raised"
        elapsed = perf_counter() - started
        if code != 0:
            self.failed += 1
            self.problems.append(f"`styleswap {' '.join(argv)}` exited {code}")
            raise OperationFailed(self.problems[-1])
        return elapsed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def cli_flags(ws: Path, seed: int, sizes: dict[str, object]) -> list[str]:
    flags = ["--workdir", str(ws), "--seed", str(seed)]
    for key, value in sizes.items():
        flags += ["--set", f"{key}={value}"]
    return flags


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def seeded_adapters(config: mdl.ModelConfig, style: str, seed: int) -> mdl.AdapterSet:
    """Fresh adapters with a seeded non-zero up-projection, so they change outputs."""
    adapters = mdl.fresh_adapters(config, style, seed=child_seed(seed, f"bench:{style}"), mode=MODE)
    rng = np.random.default_rng(child_seed(seed, f"bench-up:{style}"))
    for layer in adapters.layers:
        layer["w_up"].data[:] = rng.normal(0.0, 0.3, size=layer["w_up"].shape)
    return adapters


class Workload:
    name = ""
    sizes: dict[str, object] = {}

    def __init__(self, state: RunState):
        self.s = state
        self.vocab = Vocab()
        self.ws: cli.Workspace | None = None

    def flags(self) -> list[str]:
        return cli_flags(self.ws.root, self.s.seed, self.sizes)

    def setup(self, root: Path) -> None:
        self.ws = cli.Workspace(root)
        self.ws.ensure_dirs()

    def reset(self) -> None:
        """Remove what a pass writes, so a pass that writes nothing is caught."""

    def run_pass(self) -> dict[str, float]:
        raise NotImplementedError

    def check_pass(self) -> str:
        """Check the pass's outputs; return the digest of outputs and scores."""
        raise NotImplementedError

    def check_once(self) -> None:
        """Checks too slow or too invasive to repeat after every pass."""

    def metrics(self, passes: list[dict[str, float]]) -> dict[str, tuple[float, str, str]]:
        return {}

    # -- shared checks -------------------------------------------------------

    def check_outputs(self, src: Path, out: Path) -> list[Path]:
        """One output line per input, no PAD/BOS/EOS, one finite score per input."""
        scores = out.with_suffix(".scores")
        n_in = len(src.read_text(encoding="utf-8").splitlines())
        self.s.attempted += n_in
        if not out.exists() or not scores.exists():
            self.s.failed += n_in
            self.s.problems.append(f"{out.name}: outputs or scores missing")
            return []
        lines = out.read_text(encoding="utf-8").splitlines()
        score_lines = scores.read_text(encoding="utf-8").splitlines()
        missing = max(0, n_in - len(lines), n_in - len(score_lines))
        bad = sum(1 for raw in score_lines[:n_in] if not _finite(_float(raw)))
        self.s.failed += missing + bad
        self.s.check(len(lines) == n_in, f"{out.name}: {len(lines)} output lines for {n_in} inputs")
        self.s.check(len(score_lines) == n_in,
                     f"{scores.name}: {len(score_lines)} scores for {n_in} inputs")
        self.s.check(bad == 0, f"{scores.name}: {bad} non-finite scores")
        banned = {self.vocab.names[i] for i in (self.vocab.pad, self.vocab.bos, self.vocab.eos)}
        leaked = sum(1 for line in lines for tok in line.split() if tok in banned)
        self.s.check(leaked == 0, f"{out.name}: {leaked} PAD/BOS/EOS tokens in outputs")
        return [out, scores]

    def check_lineage(self, model_paths, styles) -> None:
        """Every adapter reloads onto every model of its lineage, with its own style id."""
        for model_path in model_paths:
            model = store.load_checkpoint(model_path)
            for style in styles:
                path = self.ws.adapter_path(style, MODE)
                try:
                    adapters = store.load_adapter(path, model)
                except (store.StoreError, mdl.AdapterError, OSError) as exc:
                    self.s.problems.append(f"{path.name} onto {model_path.name}: {exc}")
                    continue
                self.s.check(adapters.style_id == style,
                             f"{path.name}: style id {adapters.style_id!r}")

    def check_log(self, path: Path) -> float:
        """Every loss in a stage's JSONL log is finite; returns the last validation loss."""
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        losses = [r[k] for r in records for k in ("loss", "val_loss") if k in r]
        self.s.check(bool(losses) and all(_finite(x) for x in losses),
                     f"{path.name}: missing or non-finite loss")
        val = [r["val_loss"] for r in records if "val_loss" in r]
        self.s.check(bool(val), f"{path.name}: no validation loss")
        return val[-1] if val else float("nan")

    def check_freezing(self, style: str) -> None:
        """Stage 1 leaves every base byte unchanged (structural freezing)."""
        base = store.load_checkpoint(self.ws.base_init_path())
        before = base.base_bytes()
        splits = training.load_style_pairs(self.ws.data, style, MODE, self.vocab,
                                           base.config.max_len)
        few = training.PairSplits(splits.train[:16], splits.valid[:8])
        training.train_style_adapter(base, self.vocab, style, MODE, few,
                                     training.Hyper(epochs=1, seed=self.s.seed))
        self.s.check(base.base_bytes() == before, f"stage 1 on {style} changed the base")


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return float("nan")


def _target_tokens(path: Path, vocab: Vocab) -> int:
    """Non-pad decoder targets per epoch: each sentence plus its EOS."""
    return sum(len(seq) + 1 for seq in read_corpus(path, vocab))


class Pipeline(Workload):
    """`styleswap pipeline` at the smallest size whose s0 ROUGE-1 is non-zero."""

    name = "pipeline"
    sizes = {"tasks": TASK, "n_task": 600, "n_style": 600, "step1_epochs": 1,
             "step2_epochs": 3, "patience": 9}

    def setup(self, root: Path) -> None:
        super().setup(root)
        self.reports = {}

    def reset(self) -> None:
        shutil.rmtree(self.ws.root, ignore_errors=True)

    def run_pass(self) -> dict[str, float]:
        return {"pipeline_s": self.s.cli(*self.flags(), "pipeline")}

    def check_pass(self) -> str:
        files = []
        src = self.ws.data / f"task_{TASK}.test.src"
        for style in ADAPTERS:
            files += self.check_outputs(src, self.ws.output_path(TASK, style))
            report = self.ws.report_path(TASK, style)
            if report.exists():
                self.reports[style] = read_report(report)
                files.append(report)
            else:
                self.s.problems.append(f"{report.name} missing")
        self.check_lineage([self.ws.base_init_path(), self.ws.task_model_path(TASK, TRAINABLE)],
                           ADAPTERS)
        for log in sorted(self.ws.logs.glob("*.jsonl")):
            self.check_log(log)
            files.append(log)
        return digest(files)

    def check_once(self) -> None:
        self.check_freezing("s1")

    def metrics(self, passes):
        r = self.reports
        return {
            "pipeline_s": (statistics.fmean(p["pipeline_s"] for p in passes), "s", "lower"),
            "rouge1_s0": (r[STYLELESS].r1, "ratio", "higher"),
            "rouge1_style": (float(np.mean([r[s].r1 for s in STYLES])), "ratio", "higher"),
            "marker_style": (float(np.mean([r[s].marker[s] for s in STYLES])), "ratio", "higher"),
        }


class Train(Workload):
    """Stage 1 for s1, then stage 2 on headline with the encoder trainable."""

    name = "train"
    sizes = {"tasks": TASK, "n_task": 1000, "n_style": 1000, "step1_epochs": 2,
             "step2_epochs": 2, "patience": 2}

    def setup(self, root: Path) -> None:
        super().setup(root)
        self.s.cli(*self.flags(), "gen-data")
        base = mdl.build_model(mdl.ModelConfig(seed=self.s.seed))
        store.save_checkpoint(base, self.ws.base_init_path())
        store.save_adapter(seeded_adapters(base.config, STYLELESS, self.s.seed),
                           base.base_id, self.ws.adapter_path(STYLELESS, MODE))
        epochs1, epochs2 = self.sizes["step1_epochs"], self.sizes["step2_epochs"]
        self.tokens = {
            "stage1": epochs1 * _target_tokens(self.ws.data / "style_s1.train.txt", self.vocab),
            "stage2": epochs2 * _target_tokens(self.ws.data / f"task_{TASK}.train.tgt",
                                               self.vocab),
        }

    def outputs(self) -> list[Path]:
        return [self.ws.adapter_path("s1", MODE), self.ws.task_model_path(TASK, TRAINABLE),
                self.ws.logs / f"step1.s1.{MODE}.jsonl",
                self.ws.logs / f"step2.{TASK}.{TRAINABLE}.jsonl"]

    def reset(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def run_pass(self) -> dict[str, float]:
        flags = self.flags()
        return {"stage1_s": self.s.cli(*flags, "train-adapter", "--style", "s1"),
                "stage2_s": self.s.cli(*flags, "train-task", "--task", TASK,
                                       "--trainable", TRAINABLE)}

    def check_pass(self) -> str:
        files = self.outputs()
        missing = [p.name for p in files if not p.exists()]
        self.s.check(not missing, f"pass wrote no {missing}")
        if missing:
            return ""
        self.val_loss = {"stage1": self.check_log(files[2]), "stage2": self.check_log(files[3])}
        self.check_lineage([self.ws.base_init_path(), files[1]], (STYLELESS, "s1"))
        return digest(files)

    def check_once(self) -> None:
        self.check_freezing("s1")

    def metrics(self, passes):
        out = {}
        for stage in ("stage1", "stage2"):
            wall = statistics.fmean(p[f"{stage}_s"] for p in passes)
            out[f"{stage}_tok_per_s"] = (self.tokens[stage] / wall, "1/s", "higher")
        for stage in ("stage1", "stage2"):
            out[f"{stage}_val_loss"] = (self.val_loss[stage], "nats", "lower")
        return out


class Decode(Workload):
    """`generate` for s0-s3 on headline test sources through a seeded random model."""

    name = "decode"
    sizes = {"tasks": TASK, "n_task": 500, "n_style": 20}

    def setup(self, root: Path) -> None:
        super().setup(root)
        self.s.cli(*self.flags(), "gen-data")
        model = mdl.build_model(mdl.ModelConfig(seed=self.s.seed))
        store.save_checkpoint(model, self.ws.task_model_path(TASK, TRAINABLE))
        for style in ADAPTERS:
            store.save_adapter(seeded_adapters(model.config, style, self.s.seed), model.base_id,
                               self.ws.adapter_path(style, MODE))
        src = self.ws.data / f"task_{TASK}.test.src"
        self.sentences = len(ADAPTERS) * len(src.read_text(encoding="utf-8").splitlines())

    def reset(self) -> None:
        for path in self.ws.outputs.glob("*"):
            path.unlink()

    def run_pass(self) -> dict[str, float]:
        flags = self.flags()
        return {"decode_s": sum(self.s.cli(*flags, "generate", "--task", TASK, "--style", style)
                                for style in ADAPTERS)}

    def check_pass(self) -> str:
        src = self.ws.data / f"task_{TASK}.test.src"
        files = []
        for style in ADAPTERS:
            files += self.check_outputs(src, self.ws.output_path(TASK, style))
        self.check_lineage([self.ws.task_model_path(TASK, TRAINABLE)], ADAPTERS)
        return digest(files)

    def metrics(self, passes):
        wall = statistics.fmean(p["decode_s"] for p in passes)
        return {"decode_sent_per_s": (self.sentences / wall, "1/s", "higher")}


WORKLOADS = {w.name: w for w in (Pipeline, Train, Decode)}
