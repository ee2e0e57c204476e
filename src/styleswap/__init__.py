"""Miniature encoder-decoder transformer with swappable style adapters."""

from .autograd import Tensor, backward, grad_check, no_grad
from .config import RunConfig, apply_preset, load_config
from .data import Vocab
from .decoding import DecodeConfig, DecodeResult, beam_search, greedy
from .metrics import MetricsReport, evaluate_run
from .model import AdapterSet, Model, ModelConfig, build_model, swap_adapters
from .store import load_adapter, load_checkpoint, save_adapter, save_checkpoint
from .training import AdamW, Hyper

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "grad_check", "no_grad",
    "RunConfig", "apply_preset", "load_config",
    "Vocab",
    "DecodeConfig", "DecodeResult", "beam_search", "greedy",
    "MetricsReport", "evaluate_run",
    "AdapterSet", "Model", "ModelConfig", "build_model", "swap_adapters",
    "load_adapter", "load_checkpoint", "save_adapter", "save_checkpoint",
    "AdamW", "Hyper",
    "__version__",
]
