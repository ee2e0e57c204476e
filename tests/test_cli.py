"""CLI behavior at micro scale: exit codes, artifacts, determinism."""

import contextlib
import ctypes
import hashlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import reseal, usable_cpus
from styleswap import cli
from styleswap import config as rc
from styleswap import data as sd
from styleswap import decoding as dec
from styleswap import metrics as mx
from styleswap import model as mdl
from styleswap import store, training, workers

MICRO = ["--set", "n_task=120", "--set", "n_style=120",
         "--set", "step1_epochs=1", "--set", "step2_epochs=1",
         "--set", "d_model=32", "--set", "d_ffn=48", "--set", "n_heads=2",
         "--set", "n_enc_layers=1", "--set", "n_dec_layers=1",
         "--set", "adapter_bottleneck=4", "--set", "batch_size=16",
         "--set", "max_out_len=12", "--set", "tasks=headline"]


def run(workdir, *extra) -> int:
    return cli.main(["--workdir", str(workdir), "--seed", "3", *MICRO, *list(extra)])


def micro_config():
    return cli._resolve_config(cli._build_parser().parse_args(["--seed", "3", *MICRO,
                                                               "pipeline"]))


def blas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})


def print_blas_threads() -> int:
    """A job for a worker: print how many threads its OpenBLAS runs."""
    for path in blas_libraries():
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                print(getattr(lib, name)())
                return 0
    return 1


def seven_inputs(flow: Path, tmp_path: Path) -> Path:
    """A 7-line input file: no CPU count from 2 to 6 splits it evenly."""
    lines = (flow / "data/task_headline.train.src").read_text().splitlines()[:7]
    path = tmp_path / "in.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """One micro workdir taken through the whole command flow."""
    ws = tmp_path_factory.mktemp("cliflow")
    assert run(ws, "gen-data") == 0
    assert run(ws, "train-adapter", "--style", "s0") == 0
    assert run(ws, "train-adapter", "--style", "s1") == 0
    assert run(ws, "train-task", "--task", "headline") == 0
    return ws


@pytest.fixture(scope="module")
def piped(tmp_path_factory):
    """A micro workdir after `pipeline`, with the flags `ablated` runs on."""
    ws = tmp_path_factory.mktemp("pipe")
    assert run(ws, "pipeline") == 0
    return ws


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """A micro workdir after `ablate`, and what the command printed."""
    ws, out = tmp_path_factory.mktemp("ablate"), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(ws, "ablate", "--task", "headline") == 0
    assert multiprocessing.active_children() == []
    return ws, out.getvalue()


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_set_value_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(["--workdir", str(tmp_path), "--set", "nope=1", "gen-data"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("length_penalty=-1", "error: length_penalty must be >= 0, got -1.0\n"),
        ("max_out_len=0", "error: max_out_len must be >= 1, got 0\n")])
    def test_bad_decode_setting_exits_1(self, tmp_path, capsys, setting, message):
        assert cli.main(["--workdir", str(tmp_path), "--set", setting, "gen-data"]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("setting, message", [
        ("mode=bogus", "mode must be one of inverse-para, denoise, got 'bogus'"),
        ("trainable=bogus", "trainable must be one of enc, enc+catt, enc+catt+dec, got 'bogus'"),
        ("tasks=headline,headline",
         "tasks must be one or more distinct names from headline,story, got 'headline,headline'"),
        ("step1_epochs=0", "step1_epochs must be >= 1, got 0"),
        ("step2_epochs=0", "step2_epochs must be >= 1, got 0"),
        ("batch_size=0", "batch_size must be >= 1, got 0"),
        ("n_task=1", "n_task must be >= 20 so that every split is non-empty, got 1"),
        ("n_style=19", "n_style must be >= 20 so that every split is non-empty, got 19"),
        ("lr=-1", "lr must be > 0, got -1.0"),
        ("lr=0", "lr must be > 0, got 0.0"),
        ("lr=inf", "lr must be finite, got inf"),
        ("length_penalty=inf", "length_penalty must be finite, got inf"),
        ("length_penalty=1000", "length_penalty must be small enough that max_out_len ** "
                                "length_penalty is finite, got 1000.0 at max_out_len=12"),
        ("beam_size=abc", "beam_size: expected int, got 'abc'"),
        ("max_len=1.5", "max_len: expected int, got '1.5'"),
        ("patience=0", "patience must be >= 1, got 0"),
        ("max_out_len=65", "max_out_len=65 exceeds the model's max_len=64"),
        ("seed=-1", "seed must be >= 0, got -1")])
    def test_bad_run_setting_exits_1_before_any_work(self, tmp_path, capsys, setting, message):
        # without run()'s --seed flag, which would override a seed key
        assert cli.main(["--workdir", str(tmp_path / "w"), *MICRO, "--set", setting,
                         "pipeline"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "w").exists()

    def test_fresh_s0_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workdir", str(tmp_path), "train-task", "--task", "headline",
                      "--fresh-s0"])
        assert exc.value.code == 2

    def test_vocab_size_is_not_a_setting(self, tmp_path, capsys):
        rc = cli.main(["--workdir", str(tmp_path), "--set", "vocab_size=100", "gen-data"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys: ['vocab_size']")
        assert len(err.splitlines()) == 1

    def test_generate_rejects_unknown_trainable(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workdir", str(tmp_path), "generate", "--task", "headline",
                      "--style", "s0", "--trainable", "everything"])
        assert exc.value.code == 2

    def test_preset_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workdir", str(tmp_path), "--preset", "paper", "gen-data"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_gradcheck_command_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workdir", str(tmp_path), "gradcheck"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_odd_d_model_is_refused_before_any_work(self, tmp_path, capsys):
        assert cli.main(["--workdir", str(tmp_path), "--set", "d_model=5", "--set", "n_heads=1",
                         "gen-data"]) == 1
        assert capsys.readouterr().err == (
            "error: d_model must be even (positions pair sin and cos), got 5\n")
        assert not any(tmp_path.iterdir())

    def test_set_keys_apply_together_with_the_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_model=30\nseed=5\n")  # valid only with the n_heads below
        args = cli._build_parser().parse_args(["--config", str(path), "--set", "n_heads=3",
                                               "--set", "lr=5e-5", "gen-data"])
        cfg = cli._resolve_config(args)
        assert (cfg.model.d_model, cfg.model.n_heads) == (30, 3)
        assert (cfg.seed, cfg.train.lr) == (5, 5e-5)


class TestGenData:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(a, "gen-data") == 0
        assert run(b, "gen-data") == 0
        assert tree_digest(a / "data") == tree_digest(b / "data")

    def test_rerun_with_other_corpus_settings_is_refused(self, flow, tmp_path, capsys):
        ws = tmp_path / "w"  # corpora and adapters, no config.txt
        shutil.copytree(flow, ws)
        before = tree_digest(ws)
        assert run(ws, "--set", "n_style=200", "gen-data") == 1
        assert capsys.readouterr().err == (
            f"error: {ws}/data/manifest.json was generated with different settings: "
            "n_style 120 (data) vs 200 (config); use a fresh workdir or matching flags\n")
        assert tree_digest(ws) == before
        assert run(ws, "gen-data") == 0  # the same settings rewrite the same corpora
        assert tree_digest(ws) == before

    def test_commands_never_mutate_inputs(self, flow):
        before = tree_digest(flow / "data")
        assert run(flow, "generate", "--task", "headline", "--style", "s1") == 0
        assert run(flow, "evaluate", "--task", "headline", "--style", "s1") == 0
        assert tree_digest(flow / "data") == before


class TestOrdering:
    def test_train_adapter_without_data(self, tmp_path, capsys):
        rc = run(tmp_path, "train-adapter", "--style", "s1")
        assert rc == 1
        assert "gen-data" in capsys.readouterr().err

    def test_generate_without_model(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        capsys.readouterr()
        rc = run(tmp_path, "generate", "--task", "headline", "--style", "s1")
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {tmp_path}/models/base_headline.enc.ckpt "
                                           "missing; run train-task first\n")

    @pytest.mark.parametrize("command, inputs, targets", [
        (["train-adapter", "--style", "s2"], "style_s2.para.train.src", "style_s2.train.txt"),
        (["train-task", "--task", "headline"], "task_headline.train.src",
         "task_headline.train.tgt")], ids=["stage1", "stage2"])
    def test_cut_target_file_is_refused_before_training(self, flow, tmp_path, capsys,
                                                        command, inputs, targets):
        ws = tmp_path / "w"
        shutil.copytree(flow, ws)
        target = ws / "data" / targets
        target.write_text("".join(target.read_text().splitlines(keepends=True)[:50]))
        n_inputs = len((ws / "data" / inputs).read_text().splitlines())
        before = tree_digest(ws)
        assert run(ws, *command) == 1
        assert capsys.readouterr().err == (f"error: {ws}/data/{inputs} has {n_inputs} lines "
                                           f"but {target} has 50\n")
        assert tree_digest(ws) == before  # no adapter, checkpoint or log

    def test_checkpoint_from_older_version_is_one_line_error(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        ws = cli.Workspace(tmp_path)
        base = mdl.build_model(mdl.ModelConfig(seed=3))
        header = {"kind": "checkpoint", "base_id": base.base_id,
                  "config": dict(mdl.asdict(base.config), dropout=0.0)}
        store._write(ws.base_init_path(), store.CKPT_MAGIC, header,
                     [(n, t.data) for n, t in base.params.items()])
        assert run(tmp_path, "train-adapter", "--style", "s0") == 1
        err = capsys.readouterr().err
        assert "model config keys differ from this version (unknown ['dropout']" in err
        assert len(err.splitlines()) == 1

    def test_checkpoint_with_a_malformed_body_is_one_line_error(self, flow, tmp_path, capsys):
        ws = tmp_path / "w"
        shutil.copytree(flow, ws)
        path = ws / "models/base_init.ckpt"
        reseal(path, lambda parts: parts["records"].__setitem__(slice(0, 4),
                                                                (99999).to_bytes(4, "little")))
        before = tree_digest(ws)
        capsys.readouterr()
        assert run(ws, "train-adapter", "--style", "s1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed file (record ")
        assert len(err.splitlines()) == 1
        assert tree_digest(ws) == before

    @pytest.mark.parametrize("command", [("train-adapter", "--style", "s0"),
                                         ("train-task", "--task", "headline"),
                                         ("evaluate", "--task", "headline", "--style", "s1"),
                                         ("generate", "--task", "headline", "--style", "s1")])
    def test_stage_commands_refuse_corpora_made_with_other_settings(self, flow, capsys,
                                                                     command):
        before = tree_digest(flow)
        capsys.readouterr()
        assert run(flow, "--set", "n_style=400", *command) == 1
        err = capsys.readouterr().err
        assert "n_style 120 (data) vs 400 (config)" in err and len(err.splitlines()) == 1
        assert tree_digest(flow) == before

    def test_non_finite_loss_is_one_line_error(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        assert run(tmp_path, "train-adapter", "--style", "s0") == 0
        ws = cli.Workspace(tmp_path)
        base = store.load_checkpoint(ws.base_init_path())
        base.params["enc.0.self.wq"].data[0, 0] = np.nan
        store.save_checkpoint(base, ws.base_init_path())
        capsys.readouterr()
        assert run(tmp_path, "train-task", "--task", "headline") == 1
        err = capsys.readouterr().err
        assert err == "error: loss is nan at step 1 (epoch 1) training 'enc'\n"
        assert not ws.task_model_path("headline", "enc").exists()

    def test_manifest_that_is_not_json_is_one_line_error(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        manifest = tmp_path / "data/manifest.json"
        manifest.write_text("{not json")
        before = tree_digest(tmp_path)
        capsys.readouterr()
        assert run(tmp_path, "train-adapter", "--style", "s1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: malformed manifest (JSONDecodeError(")
        assert len(err.splitlines()) == 1
        assert tree_digest(tmp_path) == before

    def test_train_adapter_and_train_task_follow_the_config_mode(self, tmp_path):
        assert run(tmp_path, "gen-data") == 0
        assert run(tmp_path, "--set", "mode=denoise", "train-adapter", "--style", "s0") == 0
        assert [p.name for p in (tmp_path / "adapters").iterdir()] == ["s0.denoise.adapter"]
        assert run(tmp_path, "--set", "mode=denoise", "train-task", "--task", "headline") == 0

    def test_mode_flag_beats_set(self, tmp_path):
        assert run(tmp_path, "gen-data") == 0
        assert run(tmp_path, "--set", "mode=inverse-para", "train-adapter", "--style", "s0",
                   "--mode", "denoise") == 0
        assert [p.name for p in (tmp_path / "adapters").iterdir()] == ["s0.denoise.adapter"]

    def test_corpora_made_with_other_noise_rates_are_refused(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        manifest = tmp_path / "data/manifest.json"
        planted = json.loads(manifest.read_text())
        planted["noise"]["mask_rate"] = 0.2
        manifest.write_text(json.dumps(planted))
        before = tree_digest(tmp_path)
        assert run(tmp_path, "pipeline") == 1
        err = capsys.readouterr().err
        assert "mask_rate 0.2 (data) vs 0.15 (this version)" in err
        assert err.endswith("; use a fresh workdir\n") and len(err.splitlines()) == 1
        assert tree_digest(tmp_path) == before

    def test_train_task_and_generate_follow_the_config_trainable(self, flow, tmp_path):
        assert run(flow, "--set", "trainable=enc+catt", "train-task", "--task", "headline") == 0
        assert (flow / "models/base_headline.enc_catt.ckpt").exists()
        assert run(flow, "--set", "trainable=enc+catt", "generate", "--task", "headline",
                   "--style", "s0", "--output", str(tmp_path / "out")) == 0

    def test_train_task_requires_s0_adapter(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        rc = run(tmp_path, "train-task", "--task", "headline")
        assert rc == 1
        assert "s0" in capsys.readouterr().err

    def test_stage_with_no_pair_under_max_len_exits_1_before_training(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        capsys.readouterr()
        assert run(tmp_path, "--set", "max_len=4", "--set", "max_out_len=4",
                   "train-adapter", "--style", "s1") == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'data/style_s1.para.train.src'}: "
                       "no train pair fits max_len=4\n")
        assert not any((tmp_path / "adapters").iterdir())
        assert not (tmp_path / "models/base_init.ckpt").exists()


class TestGenerate:
    def test_same_base_checksum_across_styles(self, flow, capsys):
        assert run(flow, "generate", "--task", "headline", "--style", "s0") == 0
        line_s0 = [l for l in capsys.readouterr().out.splitlines() if "base_sha" in l][0]
        assert run(flow, "generate", "--task", "headline", "--style", "s1") == 0
        line_s1 = [l for l in capsys.readouterr().out.splitlines() if "base_sha" in l][0]
        sha = lambda line: [f for f in line.split() if f.startswith("base_sha=")][0]
        adapter = lambda line: [f for f in line.split() if f.startswith("adapter=")][0]
        assert sha(line_s0) == sha(line_s1)
        assert adapter(line_s0) != adapter(line_s1)

    @pytest.mark.parametrize("copy, flags", [
        ("s2.inverse-para", ["--style", "s2"]),
        ("s1.denoise", ["--style", "s1", "--mode", "denoise"])], ids=["style", "mode"])
    def test_adapter_file_holding_another_style_or_mode_is_refused(self, flow, tmp_path,
                                                                   capsys, copy, flags):
        ws = tmp_path / "w"
        shutil.copytree(flow, ws)
        shutil.copy(ws / "adapters/s1.inverse-para.adapter", ws / f"adapters/{copy}.adapter")
        before = tree_digest(ws)
        assert run(ws, "generate", "--task", "headline", *flags) == 1
        assert capsys.readouterr().err == (f"error: {ws}/adapters/{copy}.adapter holds the "
                                           f"s1.inverse-para adapter, not {copy}\n")
        assert tree_digest(ws) == before

    def test_outputs_align_with_inputs(self, flow):
        n_inputs = len((flow / "data/task_headline.test.src").read_text().splitlines())
        n_outputs = len((flow / "outputs/headline.s0.out").read_text().splitlines())
        assert n_inputs == n_outputs

    def test_output_longer_than_model_max_len_exits_1(self, flow, capsys):
        out = flow / "outputs/overlong.out"
        rc = run(flow, "--set", "max_out_len=65", "generate", "--task", "headline",
                 "--style", "s1", "--output", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: max_out_len=65 exceeds the model's max_len=64\n"
        assert not out.exists()

    def test_beam_flag_sets_the_beam(self, flow, tmp_path, capsys):
        assert run(flow, "generate", "--task", "headline", "--style", "s1", "--beam", "2",
                   "--output", str(tmp_path / "out")) == 0
        assert " beam=2 " in capsys.readouterr().out

    def test_bad_beam_flag_exits_1_before_loading_a_model(self, flow, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(store, "load_checkpoint", None)
        out = tmp_path / "out"
        assert run(flow, "generate", "--task", "headline", "--style", "s1", "--beam", "0",
                   "--output", str(out)) == 1
        assert capsys.readouterr().err == "error: beam_size must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, model", [
        (["generate", "--task", "headline", "--style", "s1"], "base_headline.enc.ckpt"),
        (["evaluate", "--task", "headline", "--style", "s1",  # the references stand in for outputs
          "--outputs", "data/task_headline.test.tgt"], "base_headline.enc.ckpt"),
        (["train-adapter", "--style", "s1"], "base_init.ckpt")])
    def test_model_built_under_another_config_is_refused(self, flow, monkeypatch, capsys,
                                                         command, model):
        monkeypatch.chdir(flow)
        before = tree_digest(flow)
        assert run(flow, "--set", "d_model=16", "--set", "adapter_bottleneck=8", *command) == 1
        assert capsys.readouterr().err == (
            f"error: {flow}/models/{model} was built with a different model config: "
            "d_model 32 (checkpoint) vs 16 (config), adapter_bottleneck 4 (checkpoint) "
            "vs 8 (config); use a fresh workdir or matching flags\n")
        assert tree_digest(flow) == before  # no output, scores, report or log

    def test_output_named_like_its_scores_is_refused(self, flow, capsys):
        out = flow / "outputs/headline.s1.scores"
        before = tree_digest(flow)
        assert run(flow, "generate", "--task", "headline", "--style", "s1",
                   "--output", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: the scores would overwrite the outputs; "
            "name the output file with another suffix than .scores\n")
        assert tree_digest(flow) == before

    def test_output_that_is_the_input_is_refused(self, flow, tmp_path, capsys):
        path = tmp_path / "in.txt"
        shutil.copy(flow / "data/task_headline.test.src", path)
        before = path.read_bytes()
        assert run(flow, "generate", "--task", "headline", "--style", "s1",
                   "--input", str(path), "--output", str(path)) == 1
        assert capsys.readouterr().err == (f"error: {path}: the outputs or their scores "
                                           "would overwrite the inputs\n")
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_rerun_bit_identical(self, flow):
        out = flow / "outputs/headline.s1.out"
        assert run(flow, "generate", "--task", "headline", "--style", "s1") == 0
        first = out.read_bytes()
        assert run(flow, "generate", "--task", "headline", "--style", "s1") == 0
        assert out.read_bytes() == first


class TestEvaluate:
    def test_report_written_and_parseable(self, flow):
        assert run(flow, "generate", "--task", "headline", "--style", "s0") == 0
        assert run(flow, "evaluate", "--task", "headline", "--style", "s0") == 0
        report = mx.read_report(flow / "reports/headline.s0.report.json")
        assert 0.0 <= report.r1 <= 1.0
        assert set(report.marker) == set(sd.STYLES)

    def test_outputs_flag_writes_the_report_beside_the_outputs(self, flow, tmp_path, capsys):
        assert run(flow, "generate", "--task", "headline", "--style", "s1") == 0
        assert run(flow, "evaluate", "--task", "headline", "--style", "s1") == 0
        workdir_report = flow / "reports/headline.s1.report.json"
        written = workdir_report.read_bytes()
        other = tmp_path / "other.out"  # the references themselves, which score r1 1.0
        shutil.copy(flow / "data/task_headline.test.tgt", other)
        capsys.readouterr()
        assert run(flow, "evaluate", "--task", "headline", "--style", "s1",
                   "--outputs", str(other)) == 0
        assert workdir_report.read_bytes() == written
        assert mx.read_report(tmp_path / "other.report.json").r1 == 1.0
        assert capsys.readouterr().out.endswith(f" -> {tmp_path / 'other.report.json'}\n")


class TestModuleEntryPoint:
    def test_python_dash_m_prints_help(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "styleswap", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: styleswap")

    def test_import_loads_no_process_pool_machinery(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import styleswap.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestJobs:
    """`pipeline` and `ablate` run their stage commands in worker processes."""

    @pytest.mark.parametrize("command", ["pipeline", "ablate", "generate"])
    def test_worker_count_changes_no_artifact_or_line(self, flow, tmp_path, monkeypatch, capsys,
                                                      command):
        ws, digests, printed = tmp_path / "w", [], []
        src = seven_inputs(flow, tmp_path)  # shards of 3 and 4 lines, and of 2, 2 and 3
        for cpus in (1, 2, 3) if command == "generate" else (1, 2):
            usable_cpus(monkeypatch, cpus)
            if command == "generate":
                ws.mkdir()
                assert run(flow, "generate", "--task", "headline", "--style", "s1",
                           "--input", str(src), "--output", str(ws / "out.txt")) == 0
            else:
                assert run(ws, "--set", "tasks=headline,story", command) == 0
            assert multiprocessing.active_children() == []
            digests.append(tree_digest(ws))
            printed.append(re.sub(r"\d+s\b", "<wall>", capsys.readouterr().out))
            shutil.rmtree(ws)
        assert all(d == digests[0] for d in digests)
        assert all(p == printed[0] for p in printed)
        if command == "generate":
            assert sorted(digests[0]) == ["out.scores", "out.txt"]

    def test_workers_run_blas_on_one_thread(self):
        if not blas_libraries():
            pytest.skip("numpy is not linked to OpenBLAS")
        jobs = [workers._Job(f"probe {i}", print_blas_threads, ()) for i in range(2)]
        with contextlib.closing(workers._run_jobs(jobs)) as printed:
            assert list(printed) == ["1\n", "1\n"]

    def test_ready_jobs_start_before_the_next_text(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        submitted, submit = [], ProcessPoolExecutor.submit

        def spy(pool, fn, command, args):
            submitted.append(args)
            return submit(pool, fn, command, args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        usable_cpus(monkeypatch, 2)
        jobs = [workers._Job("a", print, ("a",)), workers._Job("b", print, ("b",), needs=("a",))]
        with contextlib.closing(workers._run_jobs(jobs)) as printed:
            assert next(printed) == "a\n"
            assert submitted == [("a",), ("b",)]  # b, made ready by a, before a's text
            assert next(printed) == "b\n"

    def test_unknown_need_is_refused_before_any_worker_starts(self, monkeypatch):
        pools = []
        monkeypatch.setattr(workers, "_pool", lambda *a: pools.append(a))
        jobs = [workers._Job("a", print, ("a",)),
                workers._Job("b", print, ("b",), needs=("a", "on disk"))]
        with pytest.raises(ValueError, match="^job 'b' needs 'on disk', which no job makes$"):
            next(workers._run_jobs(jobs))
        assert pools == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert workers._usable_cpus() == 3

    def test_blas_left_alone_without_a_memory_map(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "_LOADED_LIBRARIES", tmp_path / "no-maps")
        workers._one_blas_thread()

    def test_platform_without_fork_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert run(tmp_path, "pipeline") == 1
        err = capsys.readouterr().err
        assert err == ("error: worker processes need the fork start method, "
                       "which this platform lacks\n")
        assert not list((tmp_path / "adapters").iterdir())

    def test_failing_job_stops_the_run_with_the_sequential_error(self, tmp_path, capsys):
        ws = cli.Workspace(tmp_path)
        assert run(tmp_path, "gen-data") == 0
        base = cli.ensure_base(micro_config(), ws)
        base.params["enc.0.self.wq"].data[0, 0] = np.nan
        store.save_checkpoint(base, ws.base_init_path())
        capsys.readouterr()
        assert run(tmp_path, "train-adapter", "--style", "s0") == 1  # the first stage alone
        sequential = capsys.readouterr().err
        assert run(tmp_path, "pipeline") == 1
        assert capsys.readouterr().err == sequential
        assert len(sequential.splitlines()) == 1 and sequential.startswith("error: loss is nan")
        assert multiprocessing.active_children() == []
        assert not ws.task_model_path("headline", "enc").exists()
        assert not list(ws.logs.glob("step2.*"))

    def test_dead_worker_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "train_task", lambda *a, **k: os._exit(3))
        assert run(tmp_path, "pipeline") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died; ") and len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []
        assert not list((tmp_path / "reports").iterdir())

    def test_pipeline_workers_decode_without_workers_of_their_own(self, tmp_path, monkeypatch):
        calls, pool, shard = tmp_path / "calls.txt", workers._pool, dec._decode_shard

        def record(what):
            with open(calls, "a", encoding="utf-8") as fh:  # workers write it too
                fh.write(f"{what} {'worker' if workers._in_worker else 'caller'}\n")

        monkeypatch.setattr(workers, "_pool", lambda n, *a: record(f"pool{n}") or pool(n, *a))
        monkeypatch.setattr(dec, "_decode_shard", lambda i: record(f"shard{i}") or shard(i))
        usable_cpus(monkeypatch, 2)
        assert run(tmp_path / "w", "pipeline") == 0
        assert sorted(set(calls.read_text().splitlines())) == ["pool2 caller", "shard0 worker"]
        assert calls.read_text().count("shard0 worker") == 4  # one generate per style


class TestShardedGenerate:
    """A standalone `generate` decodes its input in shards, the caller taking shard 0."""

    def generate(self, flow, src, out):
        return run(flow, "generate", "--task", "headline", "--style", "s1",
                   "--input", str(src), "--output", str(out))

    @pytest.mark.parametrize("how", ["raises", "dies"])
    def test_failing_worker_is_one_line_error(self, flow, tmp_path, monkeypatch, capsys, how):
        beam_search = dec.beam_search

        def planted(*args):
            if not workers._in_worker:
                return beam_search(*args)
            if how == "dies":
                os._exit(3)
            raise ValueError("planted failure")

        monkeypatch.setattr(dec, "beam_search", planted)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "out.txt"
        assert self.generate(flow, seven_inputs(flow, tmp_path), out) == 1
        err = capsys.readouterr().err
        assert err == ("error: planted failure\n" if how == "raises" else
                       f"error: a worker process died; {str(out)!r} did not finish\n")
        assert multiprocessing.active_children() == []
        assert not out.exists() and not out.with_suffix(".scores").exists()

    @pytest.mark.parametrize("first", ["k00", "k01"])
    def test_first_failing_shard_in_shard_order_is_raised(self, flow, tmp_path, monkeypatch,
                                                          capsys, first):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("k00\nk01\nk02\n")  # one line per shard
        beam_search, vocab = dec.beam_search, sd.Vocab()

        def planted(model, adapters, x, cfg, voc):
            (line,) = vocab.decode(x)
            if line < first:
                return beam_search(model, adapters, x, cfg, voc)
            if line != "k02":  # the last shard fails first
                time.sleep(0.5)
            raise ValueError(f"planted at {line}")

        monkeypatch.setattr(dec, "beam_search", planted)
        usable_cpus(monkeypatch, 3)
        assert self.generate(flow, src, out) == 1
        assert capsys.readouterr().err == f"error: planted at {first}\n"
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_without_fork_generate_decodes_in_the_caller(self, flow, tmp_path, monkeypatch,
                                                         capsys):
        src, out = seven_inputs(flow, tmp_path), tmp_path / "out.txt"
        usable_cpus(monkeypatch, 2)
        assert self.generate(flow, src, out) == 0
        forked = out.read_bytes(), out.with_suffix(".scores").read_bytes(), capsys.readouterr()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(workers, "_pool", None)
        assert self.generate(flow, src, out) == 0
        assert (out.read_bytes(), out.with_suffix(".scores").read_bytes(),
                capsys.readouterr()) == forked


class TestPipelineMicro:
    def test_pipeline_writes_report_per_task_style(self, tmp_path, monkeypatch):
        fits, loads = [], tmp_path / "loads.txt"
        fit, load = mx.train_ngram_lm, store.load_checkpoint

        def counted_load(path):
            # a file, because the stage jobs load in forked workers
            with open(loads, "a", encoding="utf-8") as fh:
                fh.write(f"{Path(path).name}\n")
            return load(path)

        monkeypatch.setattr(mx, "train_ngram_lm", lambda *a, **k: fits.append(1) or fit(*a, **k))
        monkeypatch.setattr(store, "load_checkpoint", counted_load)
        ws = tmp_path / "pipe"
        assert run(ws, "pipeline") == 0
        assert len(fits) == 4  # one plain and three style LMs for the one task
        # the base, built by the pipeline itself, once per train-adapter s0-s3
        # and train-task, each in its own worker; the task model once per
        # generate, and once for evaluate
        assert sorted(loads.read_text().split()) == (["base_headline.enc.ckpt"] * 5
                                                     + ["base_init.ckpt"] * 5)
        for style in ("s0", "s1", "s2", "s3"):
            assert (ws / f"reports/headline.{style}.report.json").exists()
        assert (ws / "config.txt").exists()
        # a standalone evaluate loads its own embeddings and writes the same report
        report = ws / "reports/headline.s1.report.json"
        written = report.read_bytes()
        report.unlink()
        assert run(ws, "evaluate", "--task", "headline", "--style", "s1") == 0
        assert report.read_bytes() == written

    def test_corpora_made_with_other_settings_are_refused(self, tmp_path, capsys):
        ws = tmp_path / "pipe"
        assert run(ws, "gen-data") == 0
        assert run(ws, "pipeline") == 0  # matching corpora are reused
        data = tree_digest(ws / "data")
        config = (ws / "config.txt").read_bytes()
        capsys.readouterr()
        assert run(ws, "--set", "n_task=400", "pipeline") == 1
        err = capsys.readouterr().err
        assert "n_task 120 (data) vs 400 (config)" in err and len(err.splitlines()) == 1
        assert run(ws, "--set", "n_style=400", "--set", "tasks=headline,story", "ablate") == 1
        err = capsys.readouterr().err
        assert "n_style 120 (data) vs 400 (config)" in err and len(err.splitlines()) == 1
        assert "tasks ['headline'] (data) vs ['headline', 'story'] (config)" in err
        assert tree_digest(ws / "data") == data
        assert (ws / "config.txt").read_bytes() == config

    def test_artifact_counts_and_task_independence(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(one, "pipeline") == 0
        assert run(two, "--set", "tasks=headline,story", "pipeline") == 0
        # N styles + s0 adapters, M task bases
        adapters = sorted(p.name for p in (two / "adapters").iterdir())
        assert adapters == [f"{s}.inverse-para.adapter" for s in ("s0", "s1", "s2", "s3")]
        assert sorted(p.name for p in (two / "models").iterdir()) == [
            "base_headline.enc.ckpt", "base_init.ckpt", "base_story.enc.ckpt"]
        # adapters are identical whether one or two tasks follow
        for name in adapters:
            assert (one / "adapters" / name).read_bytes() == (two / "adapters" / name).read_bytes()
        # the two task models share lineage but differ in weights
        headline = store.load_checkpoint(two / "models/base_headline.enc.ckpt")
        story = store.load_checkpoint(two / "models/base_story.enc.ckpt")
        assert headline.base_id == story.base_id
        assert headline.base_bytes() != story.base_bytes()

    def test_ablate_grid_has_seven_rows(self, ablated):
        ws, _ = ablated
        table = (ws / "reports/ablation_headline.txt").read_text().splitlines()
        assert len(table) == 1 + 7  # header + 2x3 grid + no-s0
        names = [row.split()[0] for row in table[1:]]
        assert names == ["inverse-para/enc", "inverse-para/enc+catt",
                         "inverse-para/enc+catt+dec", "denoise/enc",
                         "denoise/enc+catt", "denoise/enc+catt+dec", "no-s0/enc"]

    def test_ablate_records_its_config(self, ablated):
        ws, _ = ablated
        assert rc.from_items(rc.read_config_file(ws / "config.txt")) == micro_config()

    def test_ablate_cells_record_their_configs(self, ablated):
        ws, _ = ablated
        cells = {f"{mode}/{sel}": (mode, sel) for mode in training.MODES
                 for sel in mdl.SELECTORS if (mode, sel) != ("inverse-para", "enc")}
        cells["no-s0/enc"] = ("inverse-para", "enc")
        assert sorted(str(p.parent.relative_to(ws / "ablate"))
                      for p in (ws / "ablate").rglob("config.txt")) == sorted(cells)
        for name, (mode, sel) in cells.items():
            cfg = rc.from_items(rc.read_config_file(ws / "ablate" / name / "config.txt"))
            assert cfg == replace(micro_config(), mode=mode, trainable=sel), name

    def test_ablate_table_columns_align(self, ablated):
        ws, _ = ablated
        header, *rows = (ws / "reports/ablation_headline.txt").read_text().splitlines()
        r1_end = header.index(" r1 ") + 3
        for row in rows:
            assert re.match(r"\S+\s+\S+", row).end() == r1_end, row
            assert len(row) == len(header)

    def test_ablate_cells_decode_s0_through_their_own_mode(self, ablated):
        ws, out = ablated

        def cell(line):  # the run's own workdir is the inverse-para/enc cell
            root = Path(line.split()[-1]).parents[1]
            return "inverse-para/enc" if root == ws else str(root.relative_to(ws / "ablate"))

        s0_adapter = {cell(line): line.split()[3] for line in out.splitlines()
                      if line.startswith("generate: ") and line.endswith("/headline.s0.out")}
        assert s0_adapter == {
            **{f"inverse-para/{sel}": "adapter=s0.inverse-para" for sel in mdl.SELECTORS},
            **{f"denoise/{sel}": "adapter=s0.denoise" for sel in mdl.SELECTORS},
            "no-s0/enc": "adapter=s0.fresh"}

    def test_no_s0_cell_decodes_s0_through_identity_adapters(self, ablated, tmp_path):
        ws, _ = ablated
        cell = ws / "ablate/no-s0/enc"
        model = store.load_checkpoint(cell / "models/base_headline.enc.ckpt")
        # zero up-projections make every fresh set the identity, whatever its seed
        adapters = mdl.fresh_adapters(model.config, "s0", seed=12345)
        out, scores = tmp_path / "nos0.out", tmp_path / "nos0.scores"
        dec.generate_batch(model, adapters, ws / "data/task_headline.test.src", out,
                           micro_config().decode, sd.Vocab())
        assert out.read_bytes() == (cell / "outputs/headline.s0.out").read_bytes()
        assert scores.read_bytes() == (cell / "outputs/headline.s0.scores").read_bytes()

    def test_ablate_cells_keep_their_own_files(self, ablated):
        ws, _ = ablated
        styles = ("s0", "s1", "s2", "s3")

        def cell_files(sel):
            return {"config.txt", f"models/base_headline.{sel.replace('+', '_')}.ckpt",
                    f"logs/step2.headline.{sel}.jsonl",
                    *(f"outputs/headline.{style}.{ext}" for ext in ("out", "scores")
                      for style in styles),
                    *(f"reports/headline.{style}.report.json" for style in styles)}

        cells = [f"{mode}/{sel}" for mode in training.MODES for sel in mdl.SELECTORS]
        for name in cells[1:] + ["no-s0/enc"]:
            cell = ws / "ablate" / name
            files = {str(p.relative_to(cell)) for p in cell.rglob("*") if p.is_file()}
            assert files == cell_files(name.split("/")[1]), name
        assert not (ws / "ablate/inverse-para/enc").exists()
        # the run's workdir holds the inverse-para/enc cell, what the cells share, and the table
        files = {str(p.relative_to(ws)) for p in ws.rglob("*")
                 if p.is_file() and p.parts[len(ws.parts)] not in ("ablate", "data")}
        assert files == cell_files("enc") | {
            "models/base_init.ckpt", "reports/ablation_headline.txt",
            *(f"adapters/{style}.{mode}.adapter" for style in styles for mode in training.MODES),
            *(f"logs/step1.{style}.{mode}.jsonl" for style in styles for mode in training.MODES)}
        assert not list(ws.rglob("*ablate-*")) and not list(ws.rglob("*.grid.*"))

    def test_ablate_run_cell_is_the_pipeline_run(self, ablated, piped):
        ws, _ = ablated
        pipeline, after = tree_digest(piped), tree_digest(ws)
        assert {rel: after.get(rel) for rel in pipeline} == pipeline
        row, = [line.split() for line in (ws / "reports/ablation_headline.txt").read_text()
                .splitlines() if line.startswith("inverse-para/enc ")]
        report = {s: mx.read_report(piped / f"reports/headline.{s}.report.json")
                  for s in ("s0", "s1", "s2", "s3")}
        assert row[1:] == [f"{report['s0'].r1:.3f}", f"{report['s0'].rl:.3f}",
                           *(f"{report[s].marker[s]:.3f}" for s in ("s1", "s2", "s3"))]

    def test_ablate_after_pipeline_keeps_every_pipeline_file(self, piped, tmp_path):
        ws = tmp_path / "w"
        shutil.copytree(piped, ws)
        assert run(ws, "ablate", "--task", "headline") == 0
        pipeline, after = tree_digest(piped), tree_digest(ws)
        assert {rel: after.get(rel) for rel in pipeline} == pipeline

    @pytest.mark.parametrize("command", ["pipeline", "ablate"])
    def test_workdir_written_with_other_settings_is_refused(self, piped, tmp_path, capsys,
                                                             command):
        ws = tmp_path / "w"
        shutil.copytree(piped, ws)
        before = tree_digest(ws)
        assert run(ws, "--set", "lr=0.002", command) == 1
        assert capsys.readouterr().err == (
            f"error: {ws}/config.txt was written with different settings: lr 0.001 (workdir) "
            "vs 0.002 (config); use a fresh workdir or matching flags\n")
        assert tree_digest(ws) == before
        with open(ws / "config.txt", "a", encoding="utf-8") as fh:  # an older config.txt
            fh.write("preset=toy\n")
        before = tree_digest(ws)
        assert run(ws, command) == 1
        assert capsys.readouterr().err == (
            f"error: {ws}/config.txt does not parse (unknown config keys: ['preset']); "
            "use a fresh workdir\n")
        assert tree_digest(ws) == before

    @pytest.mark.parametrize("command", [
        ["gen-data"], ["train-adapter", "--style", "s1"], ["train-task", "--task", "headline"],
        ["generate", "--task", "headline", "--style", "s1"],
        ["evaluate", "--task", "headline", "--style", "s1"]])
    def test_stage_commands_in_a_run_workdir_refuse_other_settings(self, piped, tmp_path,
                                                                   capsys, command):
        ws = tmp_path / "w"
        shutil.copytree(piped, ws)
        before = tree_digest(ws)
        assert run(ws, "--set", "lr=0.002", *command) == 1
        assert capsys.readouterr().err == (
            f"error: {ws}/config.txt was written with different settings: lr 0.001 (workdir) "
            "vs 0.002 (config); use a fresh workdir or matching flags\n")
        assert tree_digest(ws) == before

    def test_stage_commands_writing_outside_a_run_workdir_take_other_settings(self, piped,
                                                                              tmp_path):
        ws, out = tmp_path / "w", tmp_path / "beam2.out"
        shutil.copytree(piped, ws)
        before = tree_digest(ws)
        assert run(ws, "generate", "--task", "headline", "--style", "s1", "--beam", "2",
                   "--output", str(out)) == 0
        assert run(ws, "--set", "beam_size=2", "evaluate", "--task", "headline",
                   "--style", "s1", "--outputs", str(out)) == 0
        assert tree_digest(ws) == before
        assert (tmp_path / "beam2.report.json").exists()

    def test_ablate_task_outside_the_config_fails_before_training(self, tmp_path, capsys):
        ws = tmp_path / "abl"
        assert run(ws, "--set", "tasks=headline", "ablate", "--task", "story") == 1
        err = capsys.readouterr().err
        assert err == "error: ablate --task story: not one of the config's tasks (headline)\n"
        assert not list(tmp_path.rglob("*.adapter"))

    @pytest.mark.parametrize("command", [
        ["train-task"], ["generate", "--style", "s0"],
        ["generate", "--style", "s0", "--input", "data/task_headline.test.src",
         "--output", "story.out"],
        ["evaluate", "--style", "s0"]])
    def test_stage_task_outside_the_config_fails_before_any_work(self, flow, monkeypatch,
                                                                 capsys, command):
        monkeypatch.chdir(flow)
        before = tree_digest(flow)
        capsys.readouterr()
        assert run(flow, "--set", "tasks=headline", *command, "--task", "story") == 1
        assert capsys.readouterr().err == (
            f"error: {command[0]} --task story: not one of the config's tasks (headline)\n")
        assert tree_digest(flow) == before

    def test_reports_embedding_metric_reads_the_task_model(self, piped):
        vocab = sd.Vocab()
        emb = store.load_checkpoint(piped / "models/base_headline.enc.ckpt").params["emb.tok"]
        refs = sd.read_corpus(piped / "data/task_headline.test.tgt", vocab)
        for style in ("s0", "s1", "s2", "s3"):
            outputs = sd.read_corpus(piped / f"outputs/headline.{style}.out", vocab)
            report = mx.read_report(piped / f"reports/headline.{style}.report.json")
            assert report.bert_proxy == mx.embedding_cosine(outputs, refs, emb.data), style

