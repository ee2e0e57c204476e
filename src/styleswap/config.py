"""Run configuration: run-level settings around the three stage configs.

`RunConfig` holds what belongs to a run (seed, corpus sizes and tasks,
per-stage epochs, pretraining mode, stage-2 trainable group) and nests one
`ModelConfig`, one `Hyper` and one `DecodeConfig`. Their own field defaults
are the only copy of the model, optimiser and decode defaults. Each config
checks its values when built, so a bad setting fails when the config is
read, before any stage runs.

The defaults are the toy run: a ~1M-parameter model and 10k-sentence
corpora sized for a desk run. The paper's operating point is two keys away,
`--set adapter_bottleneck=64 --set lr=5e-5` (its batch 8 and beam 4 are the
defaults); it is far too slow for a from-scratch CPU run.

A setting is a key only if a benchmark workload, an `ablate` cell, a
subcommand flag, the paper's operating point (`lr`), a planned measurement
(`length_penalty`) or the micro tests (`max_out_len`) sets a second value
for it; the model keys stay as the group that checkpoints record. Values
that nothing varies are constants where they are used. Their former keys
(`beta1`, `beta2`, `adam_eps`, `weight_decay`, `lm_order`, `lm_k`,
`mask_rate`, `delete_rate`, `styles`) are unknown keys, an error in a
config file as in `--set`. So is the former `preset` key: delete the
`preset=` line of an older config.txt.

Keys are flat. Every run-level field and every nested field is one key,
except the nested fields that a run sets itself (seeds, vocabulary size,
each stage's epochs and log) and the fixed `ln_eps`. Config files are
`key=value` lines, applied over the defaults in file order. `from_items`
is the one parser: it turns the raw values of `--set` items and of config
file lines alike into a `RunConfig`.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.decode.max_out_len > self.model.max_len:
            raise ValueError(f"max_out_len={self.decode.max_out_len} exceeds the model's "
                             f"max_len={self.model.max_len}")
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


def _coerce(key, current, raw):
    if isinstance(current, tuple):
        return tuple(part for part in raw.split(",") if part)
    try:
        return type(current)(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {type(current).__name__}, got {raw!r}") from None


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


def from_items(items: dict[str, str]) -> RunConfig:
    """The defaults with every key of `items` on top."""
    unknown = set(items) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    default = RunConfig()
    current = flat_items(default)
    values = {key: _coerce(key, current[key], raw) for key, raw in items.items()}
    nested = {section: replace(getattr(default, section),
                               **{k: v for k, v in values.items() if _KEYS[k] == section})
              for section in _SECTIONS}
    return RunConfig(**nested, **{k: v for k, v in values.items() if _KEYS[k] is None})


def save_config(cfg: RunConfig, path: Path) -> None:
    lines = []
    for key, value in flat_items(cfg).items():
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
