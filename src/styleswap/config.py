"""Run configuration: run-level settings around the three stage configs.

`RunConfig` holds what belongs to a run (preset, seed, corpora, per-stage
epochs, pretraining mode, stage-2 trainable group, metric LM settings) and
nests one `ModelConfig`, one `Hyper` and one `DecodeConfig`. Their own
field defaults are the only copy of the model, optimiser and decode
defaults.

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

from .data import Vocab
from .decoding import DecodeConfig
from .model import ModelConfig
from .training import Hyper


@dataclass(frozen=True)
class RunConfig:
    preset: str = "toy"
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    # corpora
    n_task: int = 10_000
    n_style: int = 10_000
    mask_rate: float = 0.15
    delete_rate: float = 0.10
    tasks: tuple[str, ...] = ("headline", "story")
    styles: tuple[str, ...] = ("s1", "s2", "s3")
    # training
    train: Hyper = field(default_factory=Hyper)
    step1_epochs: int = 5
    step2_epochs: int = 5
    mode: str = "inverse-para"  # adapter pretraining task; "denoise" is the -para ablation
    trainable: str = "enc"  # stage-2 selector
    # decoding
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    # metrics
    lm_order: int = 2
    lm_k: float = 0.1

    def model_config(self) -> ModelConfig:
        return replace(self.model, vocab_size=len(Vocab()), seed=self.seed)

    def hyper(self, epochs: int, seed: int, log_path: Path | None = None) -> Hyper:
        return replace(self.train, epochs=epochs, seed=seed, log_path=log_path)

    def decode_config(self, beam_size: int | None = None) -> DecodeConfig:
        return self.decode if beam_size is None else replace(self.decode, beam_size=beam_size)


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
