"""Checkpoint and adapter-file persistence.

Both formats share the same skeleton: an 8-byte magic+version, a
length-prefixed JSON header, length-prefixed named float32 records sorted
by name, and a trailing sha256 over everything before it. A write streams
the parts to a temporary file while one sha256 absorbs the same bytes, so
no whole-file buffer and no copy of a float32 parameter is made. One
reader, `_read`, serves both formats: it checks the length, checksum,
magic, version and header keys, in that order, before it decodes any
record, and one record check serves both formats: the names, then the
shapes. Records load as writable float32 arrays, the dtype the model
trains in, so a float32 model saves and loads exactly, and save -> load ->
save is byte-identical.

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
or record. So is a file whose checksum holds but whose body does not
parse: a header that is not a JSON object or holds a value of the wrong
type, a record count, name or array that runs past the end, a record
name that appears twice, or bytes after the last record. Adding or
removing a ModelConfig field changes every lineage fingerprint, and
checkpoints written before it no longer load: rebuild them.
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
from .model import (AdapterSet, Model, ModelConfig, adapter_layout, model_from_arrays,
                    param_layout, swap_adapters)

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


def _read(path: Path, magic: bytes, header_keys: dict[str, type]) -> tuple[dict, dict]:
    """The header and the records of an artifact file, its frame checked first.

    `header_keys` maps each header key the file must hold to its value's type.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 48:
        raise StoreError(f"{path}: truncated file")
    body = memoryview(raw)[:-32]  # all but the checksum, without a copy of the file
    if hashlib.sha256(body).digest() != raw[-32:]:
        raise StoreError(f"{path}: checksum mismatch (corrupt file)")
    if raw[:4] != magic:
        raise StoreError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    version, header_len = struct.unpack_from("<II", body, 4)
    if version != FORMAT_VERSION:
        raise StoreError(f"{path}: unsupported format version {version}")
    try:
        header = json.loads(bytes(body[12 : 12 + header_len]))
    except ValueError as exc:  # not UTF-8 or not JSON, such as a length past the end
        raise StoreError(f"{path}: malformed file (header: {exc})") from None
    if not isinstance(header, dict):
        raise StoreError(f"{path}: malformed file (header is not a JSON object)")
    missing = [key for key in header_keys if key not in header]
    if missing:
        raise StoreError(f"{path}: header lacks {missing}")
    for key, kind in header_keys.items():
        if not isinstance(header[key], kind):
            raise StoreError(f"{path}: malformed file (header {key!r} holds "
                             f"{header[key]!r}, expected a {kind.__name__})")
    records = {}
    pos = 16 + header_len  # past the record count
    try:
        (count,) = struct.unpack_from("<I", body, 12 + header_len)
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, pos)
            name = str(body[pos + 2 : pos + 2 + name_len], "utf-8")
            if name in records:
                raise StoreError(f"{path}: malformed file (record {name!r} appears twice)")
            dtype_tag, ndim = struct.unpack_from("<BB", body, pos + 2 + name_len)
            if dtype_tag != 0:
                raise StoreError(f"{path}: unknown dtype tag {dtype_tag}")
            shape = struct.unpack_from(f"<{ndim}I", body, pos + 4 + name_len)
            pos += 4 + name_len + 4 * ndim
            size = int(np.prod(shape))
            # a copy: parameters must be writable, not views of the file buffer
            records[name] = np.frombuffer(body, "<f4", size, pos).reshape(shape).astype(np.float32)
            pos += 4 * size
    except (struct.error, ValueError) as exc:  # a field past the end, or a name not UTF-8
        raise StoreError(f"{path}: malformed file (record {len(records)}: {exc})") from None
    if pos != len(body):
        raise StoreError(f"{path}: malformed file ({len(body) - pos} bytes after the last record)")
    return header, records


def _check_records(path: Path, what: str, stored: dict, expected: list) -> None:
    """Refuse `stored` unless it holds exactly the `expected` (name, shape) records."""
    shapes = dict(expected)
    missing = sorted(shapes.keys() - stored.keys())
    if missing:
        raise StoreError(f"{path}: missing {what} record {missing[0]!r}")
    extra = sorted(stored.keys() - shapes.keys())
    if extra:
        raise StoreError(f"{path}: unexpected {what} record {extra[0]!r}")
    for name, shape in expected:
        if stored[name].shape != shape:
            raise StoreError(f"{path}: record {name!r} shaped {stored[name].shape}, "
                             f"expected {shape}")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: Path) -> None:
    header = {"kind": "checkpoint", "config": asdict(model.config),
              "base_id": model.base_id}
    _write(path, CKPT_MAGIC, header, [(n, t.data) for n, t in model.params.items()])


def load_checkpoint(path: Path) -> Model:
    header, stored = _read(path, CKPT_MAGIC, {"config": dict, "base_id": str})
    keys = set(header["config"])
    known = {f.name for f in fields(ModelConfig)}
    if keys != known:
        raise StoreError(f"{path}: model config keys differ from this version "
                         f"(unknown {sorted(keys - known)}, missing {sorted(known - keys)}); "
                         "rebuild the file")
    for f in fields(ModelConfig):
        value = header["config"][f.name]
        if type(value) is not type(f.default):  # bool is not int here
            raise StoreError(f"{path}: malformed file (model config {f.name}={value!r}, "
                             f"expected {type(f.default).__name__})")
    config = ModelConfig(**header["config"])
    _check_records(path, "parameter", stored,
                   [(name, shape) for name, _, shape, _ in param_layout(config)])
    return model_from_arrays(config, stored, header["base_id"])


# ---------------------------------------------------------------------------
# adapter files


def save_adapter(adapters: AdapterSet, base_id: str, path: Path) -> None:
    header = {"kind": "adapter", "style_id": adapters.style_id,
              "mode": adapters.mode, "base_id": base_id}
    _write(path, ADAPTER_MAGIC, header, [(n, t.data) for n, t in adapters.named()])


def load_adapter(path: Path, model: Model) -> AdapterSet:
    """Read an adapter file and install it via swap; base parameters untouched."""
    header, stored = _read(path, ADAPTER_MAGIC, {"base_id": str, "style_id": str, "mode": str})
    if header["base_id"] != model.base_id:
        raise FingerprintMismatch(
            f"{path}: adapter was trained against base {header['base_id'][:12]}..., "
            f"model is {model.base_id[:12]}...")
    layout, layers = adapter_layout(model.config), range(model.config.n_dec_layers)
    _check_records(path, "adapter", stored,
                   [(f"adapter.{i}.{key}", shape) for i in layers for key, shape, _ in layout])
    adapters = AdapterSet(
        style_id=header["style_id"], mode=header["mode"],
        layers=[{key: Tensor(stored[f"adapter.{i}.{key}"]) for key, *_ in layout}
                for i in layers])
    swap_adapters(model, adapters)
    return adapters
