"""RunConfig defaults, key=value files, and derived config objects."""

import pytest

from styleswap import cli
from styleswap import config as rc
from styleswap.data import Vocab
from styleswap.model import ModelConfig

# Every key and its default: the flat key namespace from before the config was
# split into nested model, optimiser and decode configs, less the keys removed
# since (`dropout` and `vocab_size` then, the nine in REMOVED_KEYS later, and
# last `preset`).
KEYS_BEFORE_SPLIT = {
    "d_model": 64, "n_heads": 4, "d_ffn": 128, "n_enc_layers": 2,
    "n_dec_layers": 2, "adapter_bottleneck": 16, "max_len": 64, "seed": 0,
    "n_task": 10000, "n_style": 10000, "tasks": ("headline", "story"), "lr": 0.001,
    "batch_size": 8, "step1_epochs": 5, "step2_epochs": 5, "patience": 2,
    "mode": "inverse-para", "trainable": "enc", "beam_size": 4, "max_out_len": 32,
    "length_penalty": 0.0,
}
# Former keys whose one value became a constant; each line as a config.txt wrote it.
REMOVED_KEYS = {"mask_rate": "0.15", "delete_rate": "0.1", "styles": "s1,s2,s3",
                "beta1": "0.9", "beta2": "0.999", "adam_eps": "1e-08", "weight_decay": "0.0",
                "lm_order": "2", "lm_k": "0.1"}


class TestPresets:
    """The former presets: toy is the defaults, the paper's point is two keys, `preset` is gone."""

    def test_toy_defaults(self):
        cfg = rc.RunConfig()
        assert cfg.model.adapter_bottleneck == 16
        assert cfg.train.lr == 1e-3
        assert cfg.n_task == 10_000

    def test_paper_point_is_two_set_keys(self):
        args = cli._build_parser().parse_args(["--set", "adapter_bottleneck=64",
                                               "--set", "lr=5e-5", "pipeline"])
        cfg = cli._resolve_config(args)
        assert (cfg.train.batch_size, cfg.decode.beam_size) == (8, 4)  # the paper's, by default
        changed = {k: v for k, v in rc.flat_items(cfg).items() if v != KEYS_BEFORE_SPLIT[k]}
        assert changed == {"adapter_bottleneck": 64, "lr": 5e-5}

    def test_unknown_preset(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"^unknown config keys: \['preset'\]$"):
            rc.from_items({"preset": "toy"})
        # through the CLI, from --set and from an older config.txt: one line, exit 1, no files
        path, workdir = tmp_path / "run.cfg", tmp_path / "w"
        path.write_text("preset=toy\nseed=1\n")
        for flags in (["--set", "preset=paper"], ["--config", str(path)]):
            assert cli.main(["--workdir", str(workdir), *flags, "pipeline"]) == 1
            assert capsys.readouterr().err == "error: unknown config keys: ['preset']\n"
            assert not workdir.exists()


class TestConfigFile:
    def test_file_keys_override_the_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nadapter_bottleneck=64\nlr=0.002\ntasks=headline\n")
        cfg = rc.from_items(rc.read_config_file(path))
        assert cfg.model.adapter_bottleneck == 64
        assert cfg.train.lr == 0.002
        assert cfg.tasks == ("headline",)
        assert cfg.n_task == 10_000  # a default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_speed=9\n")
        with pytest.raises(ValueError, match="warp_speed"):
            rc.from_items(rc.read_config_file(path))

    def test_malformed_line_names_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.1\nthis is not a pair\n")
        with pytest.raises(ValueError, match=":2"):
            rc.from_items(rc.read_config_file(path))

    def test_save_load_roundtrip(self, tmp_path):
        cfg = rc.from_items({"lr": "0.005", "n_task": "123", "tasks": "story"})
        rc.save_config(cfg, tmp_path / "out.cfg")
        assert rc.from_items(rc.read_config_file(tmp_path / "out.cfg")) == cfg

    def test_every_knob_has_a_default(self):
        for key, value in rc.flat_items(rc.RunConfig()).items():
            assert value is not None, key

    def test_keys_and_defaults_kept_through_the_split(self):
        assert rc.flat_items(rc.RunConfig()) == KEYS_BEFORE_SPLIT
        assert len(KEYS_BEFORE_SPLIT) == 21

    def test_removed_keys_rejected(self, tmp_path, capsys):
        for key in ("dropout", "vocab_size", *REMOVED_KEYS):
            with pytest.raises(ValueError, match="unknown config keys"):
                rc.from_items({key: "1"})
        # through the CLI, from --set and from a config file: one line, exit 1, no files
        path, workdir = tmp_path / "run.cfg", tmp_path / "w"
        for key, value in REMOVED_KEYS.items():
            path.write_text(f"{key}={value}\n")
            for flags in (["--set", f"{key}={value}"], ["--config", str(path)]):
                assert cli.main(["--workdir", str(workdir), *flags, "pipeline"]) == 1
                assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
                assert not workdir.exists()
        # a config.txt saved before the keys were removed
        rc.save_config(rc.RunConfig(), path)
        with open(path, "a") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in REMOVED_KEYS.items())
        assert cli.main(["--workdir", str(workdir), "--config", str(path), "pipeline"]) == 1
        assert capsys.readouterr().err == f"error: unknown config keys: {sorted(REMOVED_KEYS)}\n"
        assert not workdir.exists()

    def test_save_writes_every_key(self, tmp_path):
        rc.save_config(rc.RunConfig(), tmp_path / "out.cfg")
        lines = (tmp_path / "out.cfg").read_text().splitlines()
        assert sorted(line.partition("=")[0] for line in lines) == sorted(KEYS_BEFORE_SPLIT)


class TestDerivedConfigs:
    def test_model_config_fields(self):
        cfg = rc.RunConfig()
        mc = cfg.model_config()
        assert (mc.d_model, mc.adapter_bottleneck) == (cfg.model.d_model, 16)

    def test_model_config_matches_model_defaults(self):
        for seed in (0, 3, 17):
            cfg = rc.from_items({"seed": str(seed)})
            assert cfg.model_config() == ModelConfig(seed=seed)

    def test_model_config_vocab_size_is_the_vocabulary(self):
        assert rc.RunConfig().model_config().vocab_size == len(Vocab())

    def test_hyper_stage_overrides(self):
        cfg = rc.RunConfig()
        hp = cfg.hyper(epochs=9, seed=42)
        assert hp.epochs == 9 and hp.seed == 42 and hp.lr == cfg.train.lr
