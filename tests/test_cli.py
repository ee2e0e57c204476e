"""CLI behavior at micro scale: exit codes, artifacts, determinism."""

import hashlib
from pathlib import Path

import pytest

from styleswap import cli
from styleswap import data as sd
from styleswap import metrics as mx
from styleswap import model as mdl
from styleswap import store

MICRO = ["--set", "n_task=120", "--set", "n_style=120",
         "--set", "step1_epochs=1", "--set", "step2_epochs=1",
         "--set", "d_model=32", "--set", "d_ffn=48", "--set", "n_heads=2",
         "--set", "n_enc_layers=1", "--set", "n_dec_layers=1",
         "--set", "adapter_bottleneck=4", "--set", "batch_size=16",
         "--set", "max_out_len=12", "--set", "tasks=headline"]


def run(workdir, *extra) -> int:
    return cli.main(["--workdir", str(workdir), "--seed", "3", *MICRO, *list(extra)])


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

    def test_preset_flag_replaces_the_config_file_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset=paper\nseed=5\nbeam_size=2\n")
        args = cli._build_parser().parse_args(["--config", str(path), "--preset", "toy",
                                               "gradcheck"])
        cfg = cli._resolve_config(args)
        assert cfg.preset == "toy" and cfg.model.adapter_bottleneck == 16
        assert (cfg.seed, cfg.decode.beam_size) == (5, 2)

    def test_set_keys_apply_together_with_the_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_model=30\n")  # valid only with the n_heads below
        args = cli._build_parser().parse_args(["--config", str(path), "--set", "n_heads=3",
                                               "--set", "preset=paper", "gradcheck"])
        cfg = cli._resolve_config(args)
        assert (cfg.model.d_model, cfg.model.n_heads) == (30, 3)
        assert cfg.preset == "paper" and cfg.model.adapter_bottleneck == 64


class TestGenData:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(a, "gen-data") == 0
        assert run(b, "gen-data") == 0
        assert tree_digest(a / "data") == tree_digest(b / "data")

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

    def test_generate_without_model(self, flow, capsys):
        rc = run(flow, "generate", "--task", "story", "--style", "s1")
        assert rc == 1
        assert "train-task" in capsys.readouterr().err

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

    def test_train_task_requires_s0_adapter(self, tmp_path, capsys):
        assert run(tmp_path, "gen-data") == 0
        rc = run(tmp_path, "train-task", "--task", "headline")
        assert rc == 1
        assert "s0" in capsys.readouterr().err


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

    def test_outputs_align_with_inputs(self, flow):
        n_inputs = len((flow / "data/task_headline.test.src").read_text().splitlines())
        n_outputs = len((flow / "outputs/headline.s0.out").read_text().splitlines())
        assert n_inputs == n_outputs

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
        report = mx.read_report(flow / "reports/headline.s0.report.txt")
        assert 0.0 <= report.r1 <= 1.0
        assert set(report.marker) == set(sd.STYLES)


class TestGradcheck:
    def test_exits_zero_under_threshold(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestPipelineMicro:
    def test_pipeline_writes_report_per_task_style(self, tmp_path):
        ws = tmp_path / "pipe"
        assert run(ws, "pipeline") == 0
        for style in ("s0", "s1", "s2", "s3"):
            assert (ws / f"reports/headline.{style}.report.txt").exists()
        assert (ws / "config.txt").exists()

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

    def test_ablate_grid_has_seven_rows(self, tmp_path):
        ws = tmp_path / "abl"
        assert run(ws, "ablate", "--task", "headline") == 0
        table = (ws / "reports/ablation_headline.txt").read_text().splitlines()
        assert len(table) == 1 + 7  # header + 2x3 grid + no-s0
        names = [row.split()[0] for row in table[1:]]
        assert names == ["inverse-para/enc", "inverse-para/enc+catt",
                         "inverse-para/enc+catt+dec", "denoise/enc",
                         "denoise/enc+catt", "denoise/enc+catt+dec", "no-s0/enc"]
