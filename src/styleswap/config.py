"""Run configuration: run-level settings around the three stage configs.

`RunConfig` holds what belongs to a run (preset, seed, corpus sizes and
tasks, per-stage epochs, pretraining mode, stage-2 trainable group) and
nests one `ModelConfig`, one `Hyper` and one `DecodeConfig`. Their own
field defaults are the only copy of the model, optimiser and decode
defaults. Each config checks its values when built, so a bad setting fails
when the config is read, before any stage runs.

A setting is a key only if a preset, a benchmark workload, an `ablate` cell,
a subcommand flag, a planned measurement (`length_penalty`) or the micro
tests (`max_out_len`) sets a second value for it; the model keys stay as the
group that checkpoints record. Values that nothing varies are constants
where they are used. Their former keys (`beta1`, `beta2`, `adam_eps`,
`weight_decay`, `lm_order`, `lm_k`, `mask_rate`, `delete_rate`, `styles`)
are unknown keys, an error in a config file as in `--set`.

The "toy" preset is the set of defaults: a ~1M-parameter model and
10k-sentence corpora sized for a desk run. The "paper" preset restores the
reference hyperparameters (bottleneck 64, lr 5e-5, batch 8, beam 4); it is
far too slow for a from-scratch CPU run but keeps the original operating
point expressible.

Keys are flat. Every run-level field and every nested field is one key,
except the nested fields that a run sets itself (seeds, vocabulary size,
each stage's epochs and log) and the fixed `ln_eps`. Config files are
`key=value` lines. A `preset=<name>` line is applied first wherever it
appears, then the remaining keys override it in file order, so files
inherit from a preset by naming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import TASKS, Vocab
from .decoding import DecodeConfig
from .model import SELECTORS, ModelConfig
from .training import MODES, Hyper


# The smallest corpus whose 90/5/5 split leaves valid and test non-empty.
MIN_CORPUS = 20


@dataclass(frozen=True)
class RunConfig:
    preset: str = "toy"
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    # corpora
    n_task: int = 10_000
    n_style: int = 10_000
    tasks: tuple[str, ...] = TASKS
    # training
    train: Hyper = field(default_factory=Hyper)
    step1_epochs: int = 5
    step2_epochs: int = 5
    mode: str = "inverse-para"  # adapter pretraining task; "denoise" is the -para ablation
    trainable: str = "enc"  # stage-2 selector
    # decoding
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self):
        tasks = self.tasks
        if not tasks or not set(tasks) <= set(TASKS) or len(set(tasks)) < len(tasks):
            raise ValueError(f"tasks must be one or more distinct names from "
                             f"{','.join(TASKS)}, got {','.join(tasks)!r}")
        for key, names in (("mode", MODES), ("trainable", SELECTORS)):
            if getattr(self, key) not in names:
                raise ValueError(f"{key} must be one of {', '.join(names)}, "
                                 f"got {getattr(self, key)!r}")
        for key in ("step1_epochs", "step2_epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("n_task", "n_style"):
            if getattr(self, key) < MIN_CORPUS:
                raise ValueError(f"{key} must be >= {MIN_CORPUS} so that every split is "
                                 f"non-empty, got {getattr(self, key)}")

    def model_config(self) -> ModelConfig:
        return replace(self.model, vocab_size=len(Vocab()), seed=self.seed)

    def hyper(self, epochs: int, seed: int, log_path: Path | None = None) -> Hyper:
        return replace(self.train, epochs=epochs, seed=seed, log_path=log_path)


_SECTIONS = ("model", "train", "decode")
# Nested fields that are not keys: set by the run itself, or fixed.
_NOT_KEYS = {"seed", "vocab_size", "ln_eps", "epochs", "log_path"}


def _flat_keys() -> dict[str, str | None]:
    """Every key, mapped to the nested config that holds it (None: RunConfig)."""
    default = RunConfig()
    keys: dict[str, str | None] = {}
    for f in fields(RunConfig):
        if f.name in _SECTIONS:
            keys.update((g.name, f.name) for g in fields(getattr(default, f.name))
                        if g.name not in _NOT_KEYS)
        else:
            keys[f.name] = None
    return keys


_KEYS = _flat_keys()


def flat_items(cfg: RunConfig) -> dict:
    """The config as flat key -> value, in declaration order."""
    return {key: getattr(cfg if section is None else getattr(cfg, section), key)
            for key, section in _KEYS.items()}


def _with_keys(cfg: RunConfig, values: dict) -> RunConfig:
    top = {k: v for k, v in values.items() if _KEYS[k] is None}
    for section in _SECTIONS:
        nested = {k: v for k, v in values.items() if _KEYS[k] == section}
        if nested:
            top[section] = replace(getattr(cfg, section), **nested)
    return replace(cfg, **top)


PRESETS: dict[str, dict] = {
    "toy": {},
    "paper": {"adapter_bottleneck": 64, "lr": 5e-5, "batch_size": 8, "beam_size": 4},
}


def apply_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    return _with_keys(RunConfig(preset=name), PRESETS[name])


def _coerce(current, raw):
    if isinstance(current, tuple):
        return tuple(part for part in raw.split(",") if part)
    return type(current)(raw)


def parse_overrides(cfg: RunConfig, items: dict[str, str]) -> RunConfig:
    unknown = set(items) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    current = flat_items(cfg)
    return _with_keys(cfg, {k: _coerce(current[k], v) for k, v in items.items()
                            if k != "preset"})


def read_config_file(path: Path) -> dict[str, str]:
    """The raw key -> value pairs of a key=value file."""
    items: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        items[key.strip()] = value.strip()
    return items


def from_items(items: dict[str, str], preset: str | None = None) -> RunConfig:
    """A preset, then every other key on top.

    The preset is `preset` if given, else the items' own `preset` key, else toy.
    """
    return parse_overrides(apply_preset(preset or items.get("preset", "toy")), items)


def load_config(path: Path) -> RunConfig:
    return from_items(read_config_file(path))


def save_config(cfg: RunConfig, path: Path) -> None:
    lines = []
    for key, value in flat_items(cfg).items():
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
