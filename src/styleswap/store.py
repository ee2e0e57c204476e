"""Checkpoint and adapter-file persistence.

Both formats share the same skeleton: an 8-byte magic+version, a
length-prefixed JSON header, length-prefixed named float32 records sorted
by name, and a trailing sha256 over everything before it. A write streams
the parts to a temporary file while one sha256 absorbs the same bytes, so
no whole-file buffer and no copy of a float32 parameter is made. The
checksum is verified before any parameter is exposed. Records load as
writable float32 arrays, the dtype the model trains in, so a float32 model
saves and loads exactly, and save -> load -> save is byte-identical.

An adapter file records the lineage fingerprint of the base it was trained
against: the checksum of the freshly built base's weights plus config,
carried unchanged through fine-tuning and checkpoint round-trips. Loading
an adapter onto a base with a different lineage is a hard error; loading
onto any descendant of its own base (e.g. the task fine-tuned model) is
the intended swap path.

Loading checks the header and every record against the model config it
describes. A missing header key, a config key unknown to ModelConfig or
a ModelConfig field absent from the header, a missing or extra record, or
a record of the wrong shape is a StoreError naming the file and the key
or record. Adding or removing
a ModelConfig field changes every lineage fingerprint, and checkpoints
written before it no longer load: rebuild them.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .model import (ADAPTER_KEYS, AdapterError, AdapterSet, Model, ModelConfig,
                    model_from_arrays, param_layout, swap_adapters)

CKPT_MAGIC = b"SSWP"
ADAPTER_MAGIC = b"SSWA"
FORMAT_VERSION = 1


class StoreError(RuntimeError):
    """Malformed, corrupt, or incompatible artifact file."""


class FingerprintMismatch(StoreError):
    """Adapter was trained against a different base model."""


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _write(path: Path, magic: bytes, header: dict, named) -> None:
    # a temporary file in the target's directory, then one rename: a reader
    # sees the old file or the whole new one, never a partial write. The
    # name is the writer's own, so that processes writing one target never
    # rename or unlink each other's half-written file. A writer killed
    # outright (SIGKILL) leaves its temporary file behind, and no later
    # writer reuses that name; such `.<name>.<pid>.tmp` files can be deleted
    # whenever no command is writing.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    checksum = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            def put(chunk) -> None:
                checksum.update(chunk)
                fh.write(chunk)

            header_bytes = _canon_json(header)
            put(magic + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes)
            put(struct.pack("<I", len(named)))
            for name, arr in sorted(named):
                encoded = name.encode()
                # dtype tag 0 = float32
                put(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                                0, arr.ndim, *arr.shape))
                # the parameter's own buffer when it is already little-endian float32
                put(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))
            fh.write(checksum.digest())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, path: Path, magic: bytes, header_keys: tuple[str, ...]):
        raw = Path(path).read_bytes()
        if len(raw) < 48:
            raise StoreError(f"{path}: truncated file")
        body, checksum = raw[:-32], raw[-32:]
        if hashlib.sha256(body).digest() != checksum:
            raise StoreError(f"{path}: checksum mismatch (corrupt file)")
        if body[:4] != magic:
            raise StoreError(f"{path}: bad magic {body[:4]!r}, expected {magic!r}")
        (version,) = struct.unpack_from("<I", body, 4)
        if version != FORMAT_VERSION:
            raise StoreError(f"{path}: unsupported format version {version}")
        (header_len,) = struct.unpack_from("<I", body, 8)
        self.header = json.loads(body[12 : 12 + header_len])
        missing = [key for key in header_keys if key not in self.header]
        if missing:
            raise StoreError(f"{path}: header lacks {missing}")
        self._buf = body
        self._pos = 12 + header_len
        self.path = path

    def records(self) -> dict[str, np.ndarray]:
        (count,) = struct.unpack_from("<I", self._buf, self._pos)
        self._pos += 4
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", self._buf, self._pos)
            self._pos += 2
            name = self._buf[self._pos : self._pos + name_len].decode()
            self._pos += name_len
            dtype_tag, ndim = struct.unpack_from("<BB", self._buf, self._pos)
            self._pos += 2
            if dtype_tag != 0:
                raise StoreError(f"{self.path}: unknown dtype tag {dtype_tag}")
            shape = struct.unpack_from(f"<{ndim}I", self._buf, self._pos)
            self._pos += 4 * ndim
            n_bytes = 4 * int(np.prod(shape)) if ndim else 4
            flat = np.frombuffer(self._buf, dtype="<f4", count=n_bytes // 4,
                                 offset=self._pos)
            self._pos += n_bytes
            # a copy: parameters must be writable, not views of the file buffer
            out[name] = flat.reshape(shape).astype(np.float32)
        return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: Path) -> None:
    header = {"kind": "checkpoint", "config": asdict(model.config),
              "base_id": model.base_id}
    _write(path, CKPT_MAGIC, header, [(n, t.data) for n, t in model.params.items()])


def _check_names(path: Path, what: str, stored: dict, expected) -> None:
    missing = sorted(set(expected) - set(stored))
    if missing:
        raise StoreError(f"{path}: missing {what} record {missing[0]!r}")
    extra = sorted(set(stored) - set(expected))
    if extra:
        raise StoreError(f"{path}: unexpected {what} record {extra[0]!r}")


def load_checkpoint(path: Path) -> Model:
    reader = _Reader(path, CKPT_MAGIC, ("config", "base_id"))
    keys = set(reader.header["config"])
    known = {f.name for f in fields(ModelConfig)}
    if keys != known:
        raise StoreError(f"{path}: model config keys differ from this version "
                         f"(unknown {sorted(keys - known)}, missing {sorted(known - keys)}); "
                         "rebuild the file")
    config = ModelConfig(**reader.header["config"])
    stored = reader.records()
    layout = param_layout(config)
    _check_names(path, "parameter", stored, [name for name, *_ in layout])
    for name, _, want, _ in layout:
        if stored[name].shape != want:
            raise StoreError(f"{path}: record {name!r} shaped {stored[name].shape}, "
                             f"expected {want}")
    return model_from_arrays(config, stored, reader.header["base_id"])


# ---------------------------------------------------------------------------
# adapter files


def save_adapter(adapters: AdapterSet, base_id: str, path: Path) -> None:
    header = {"kind": "adapter", "style_id": adapters.style_id,
              "mode": adapters.mode, "base_id": base_id}
    _write(path, ADAPTER_MAGIC, header, [(n, t.data) for n, t in adapters.named()])


def load_adapter(path: Path, model: Model) -> AdapterSet:
    """Read an adapter file and install it via swap; base parameters untouched."""
    reader = _Reader(path, ADAPTER_MAGIC, ("base_id", "style_id", "mode"))
    if reader.header["base_id"] != model.base_id:
        raise FingerprintMismatch(
            f"{path}: adapter was trained against base {reader.header['base_id'][:12]}..., "
            f"model is {model.base_id[:12]}...")
    stored = reader.records()
    layers = range(model.config.n_dec_layers)
    _check_names(path, "adapter", stored,
                 [f"adapter.{i}.{key}" for i in layers for key in ADAPTER_KEYS])
    adapters = AdapterSet(
        style_id=reader.header["style_id"], mode=reader.header["mode"],
        layers=[{key: Tensor(stored[f"adapter.{i}.{key}"]) for key in ADAPTER_KEYS}
                for i in layers])
    try:
        swap_adapters(model, adapters)
    except AdapterError as exc:
        raise StoreError(f"{path}: record {exc}") from None
    return adapters
