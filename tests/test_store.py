"""Checkpoint and adapter file format tests."""

import json
import multiprocessing
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import reseal
from styleswap import data as sd
from styleswap import model as mdl
from styleswap import store
from styleswap.autograd import Tensor


def small_config(**over):
    base = dict(vocab_size=30, d_model=16, n_heads=2, d_ffn=20, n_enc_layers=1,
                n_dec_layers=2, adapter_bottleneck=4, max_len=12, seed=3)
    base.update(over)
    return mdl.ModelConfig(**base)


def logits(model, src, prefix):
    enc = mdl.encode_batch(model, np.asarray([src]), None)
    return mdl.decode_logits_batch(model, enc, None, np.asarray([prefix])).data


def toy_config():
    return mdl.ModelConfig()  # the full-size defaults


@pytest.fixture(params=["checkpoint", "adapter"])
def artifact(request, tmp_path):
    """One saved file of either format, with its loader and its writer."""
    model = mdl.build_model(small_config())
    if request.param == "checkpoint":
        path = tmp_path / "m.ckpt"
        load = store.load_checkpoint
        save = store.save_checkpoint
        store.save_checkpoint(model, path)
    else:
        path = tmp_path / "m.adapter"

        def load(p):
            return store.load_adapter(p, model)

        def save(adapters, p):
            store.save_adapter(adapters, model.base_id, p)

        save(mdl.fresh_adapters(model.config, "s1", seed=2, mode="denoise"), path)
    return SimpleNamespace(path=path, load=load, save=save)


def count_past_the_end(parts):
    parts["records"][:4] = struct.pack("<I", 99999)


def name_past_the_end(parts):
    parts["records"][4:6] = struct.pack("<H", 0xFFFF)


def first_record_twice(parts):
    records = parts["records"]
    (count, name_len) = struct.unpack_from("<IH", records, 0)
    ndim = records[7 + name_len]
    shape = struct.unpack_from(f"<{ndim}I", records, 8 + name_len)
    end = 8 + name_len + 4 * ndim + 4 * int(np.prod(shape))
    records[:4] = struct.pack("<I", count + 1)
    records += records[4:end]


def header_past_the_end(parts):
    parts["header_len"] = len(json.dumps(parts["header"])) + len(parts["records"]) + 8


class TestFrame:
    """The frame checks of the one reader, on both formats."""

    def test_save_load_save_byte_identical(self, artifact, tmp_path):
        again = tmp_path / "again"
        artifact.save(artifact.load(artifact.path), again)
        assert again.read_bytes() == artifact.path.read_bytes()

    def test_truncated_file_detected(self, artifact):
        artifact.path.write_bytes(artifact.path.read_bytes()[:47])
        with pytest.raises(store.StoreError, match=r"m\.\w+: truncated file$"):
            artifact.load(artifact.path)

    def test_corrupt_byte_detected(self, artifact):
        raw = bytearray(artifact.path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        artifact.path.write_bytes(bytes(raw))
        with pytest.raises(store.StoreError, match=r"checksum mismatch \(corrupt file\)$"):
            artifact.load(artifact.path)

    def test_bad_magic_detected(self, artifact):
        reseal(artifact.path, lambda parts: parts["prefix"].__setitem__(slice(0, 4), b"XXXX"))
        with pytest.raises(store.StoreError, match=r"bad magic b'XXXX', expected b'SSW[PA]'$"):
            artifact.load(artifact.path)

    def test_version_mismatch_detected(self, artifact):
        reseal(artifact.path,
               lambda parts: parts["prefix"].__setitem__(slice(4, 8), struct.pack("<I", 99)))
        with pytest.raises(store.StoreError, match=r"unsupported format version 99$"):
            artifact.load(artifact.path)

    def test_header_without_base_id_detected(self, artifact):
        reseal(artifact.path, lambda parts: parts["header"].pop("base_id"))
        with pytest.raises(store.StoreError, match=r"m\.\w+: header lacks \['base_id'\]$"):
            artifact.load(artifact.path)

    @pytest.mark.parametrize("edit, message", [
        (count_past_the_end, r"record \d+: unpack_from requires a buffer"),
        (name_past_the_end, r"record 0: "),
        (header_past_the_end, r"header: "),
        (first_record_twice, r"record '[\w.]+' appears twice\)$"),
        (lambda parts: parts["records"].extend(b"junk"), r"4 bytes after the last record\)$"),
        (lambda parts: parts.update(header=[]), r"header is not a JSON object"),
        (lambda parts: parts["header"].update(base_id=5),
         r"header 'base_id' holds 5, expected a str"),
    ], ids=["count", "name", "header_len", "duplicate", "trailing", "header_list",
            "base_id_int"])
    def test_malformed_body_is_one_store_error(self, artifact, edit, message):
        reseal(artifact.path, edit)
        with pytest.raises(store.StoreError, match=r"m\.\w+: malformed file \(" + message):
            artifact.load(artifact.path)

    @pytest.mark.parametrize("config, message", [
        (5, r"header 'config' holds 5, expected a dict"),
        ([], r"header 'config' holds \[\], expected a dict"),
        ({"d_model": "16"}, r"model config d_model='16', expected int"),
        ({"n_heads": True}, r"model config n_heads=True, expected int"),
        ({"max_len": 12.0}, r"model config max_len=12.0, expected int"),
        ({"ln_eps": None}, r"model config ln_eps=None, expected float"),
    ], ids=["int", "list", "str_dim", "bool_dim", "float_dim", "null_eps"])
    def test_malformed_model_config_is_one_store_error(self, tmp_path, config, message):
        path = tmp_path / "m.ckpt"
        store.save_checkpoint(mdl.build_model(small_config()), path)
        reseal(path, lambda parts: parts["header"].update(
            config=dict(parts["header"]["config"], **config) if isinstance(config, dict)
            else config))
        with pytest.raises(store.StoreError, match=r"m\.ckpt: malformed file \(" + message):
            store.load_checkpoint(path)


class TestCheckpoint:
    def test_roundtrip_within_storage_tolerance(self, tmp_path):
        model = mdl.build_model(small_config())
        store.save_checkpoint(model, tmp_path / "m.ckpt")
        back = store.load_checkpoint(tmp_path / "m.ckpt")
        assert back.config == model.config
        assert back.base_id == model.base_id
        for name, t in model.params.items():
            orig = t.data
            got = back.params[name].data
            denom = np.maximum(np.abs(orig), 1e-12)
            assert np.max(np.abs(got - orig) / denom) < 1e-6

    def test_save_load_save_byte_identical(self, tmp_path, monkeypatch):
        model = mdl.build_model(small_config())
        store.save_checkpoint(model, tmp_path / "a.ckpt")
        # loading fills the parameter layout from the file; it draws no model
        monkeypatch.setattr(mdl, "build_model", None)
        monkeypatch.setattr(store, "build_model", None, raising=False)
        back = store.load_checkpoint(tmp_path / "a.ckpt")
        store.save_checkpoint(back, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert list(back.params) == list(model.params)
        assert back.groups == model.groups
        assert all(t.requires_grad for t in back.params.values())

    def test_logits_close_after_roundtrip(self, tmp_path):
        model = mdl.build_model(small_config())
        mdl.swap_adapters(model, mdl.fresh_adapters(model.config, "s0"))
        store.save_checkpoint(model, tmp_path / "m.ckpt")
        back = store.load_checkpoint(tmp_path / "m.ckpt")
        mdl.swap_adapters(back, mdl.fresh_adapters(back.config, "s0"))
        rng = np.random.default_rng(0)
        for _ in range(5):
            src = list(rng.integers(1, 30, size=4))
            prefix = list(rng.integers(1, 30, size=3))
            a = logits(model, src, prefix)
            b = logits(back, src, prefix)
            assert np.max(np.abs(a - b)) < 1e-5

    @pytest.mark.parametrize("fail_at", ["write", "rename"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "m.ckpt"
        store.save_checkpoint(mdl.build_model(small_config(seed=1)), path)
        before = path.read_bytes()

        stopped_at = []

        class HalfFullDisk:
            """A file that takes half of a checkpoint's bytes, then reports a full disk."""

            def __init__(self, file, mode):
                self.fh = open(file, mode)
                self.room = len(before) // 2

            def write(self, chunk):
                chunk = memoryview(chunk).cast("B")
                self.fh.write(chunk[: self.room])
                if len(chunk) > self.room:
                    stopped_at.append(self.fh.tell())
                    raise OSError("No space left on device")
                self.room -= len(chunk)
                return len(chunk)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def no_rename(src, dst):
            raise OSError("rename failed")

        if fail_at == "write":
            # the streamed write opens its temporary file with the builtin open
            monkeypatch.setattr(store, "open", HalfFullDisk, raising=False)
        else:
            monkeypatch.setattr(store.os, "replace", no_rename)
        with pytest.raises(OSError):
            store.save_checkpoint(mdl.build_model(small_config(seed=2)), path)
        assert stopped_at == ([len(before) // 2] if fail_at == "write" else [])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_processes_writing_one_target_do_not_collide(self, tmp_path):
        path = tmp_path / "m.ckpt"
        models = [mdl.build_model(toy_config()), mdl.build_model(mdl.ModelConfig(seed=1))]

        def write_often(model):
            for _ in range(20):
                store.save_checkpoint(model, path)

        fork = multiprocessing.get_context("fork")
        writers = [fork.Process(target=write_often, args=(m,)) for m in models]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [w.exitcode for w in writers] == [0, 0]
        assert store.load_checkpoint(path).base_id in {m.base_id for m in models}
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        plain = tmp_path / "plain"
        plain.write_bytes(b"")  # the mode any new file gets, as before
        assert path.stat().st_mode == plain.stat().st_mode

    def test_missing_parameter_name_detected(self, tmp_path):
        model = mdl.build_model(small_config())
        named = [(n, t.data) for n, t in model.params.items()]
        header = {"kind": "checkpoint", "config": mdl.asdict(model.config),
                  "base_id": model.base_id}
        store._write(tmp_path / "m.ckpt", store.CKPT_MAGIC, header, named[:-1])
        with pytest.raises(store.StoreError, match="missing"):
            store.load_checkpoint(tmp_path / "m.ckpt")

    def test_wrong_record_shape_detected(self, tmp_path):
        model = mdl.build_model(small_config())
        named = [(n, np.zeros(1) if n == "enc.0.ffn.b2" else t.data)
                 for n, t in model.params.items()]
        header = {"kind": "checkpoint", "config": mdl.asdict(model.config),
                  "base_id": model.base_id}
        path = tmp_path / "m.ckpt"
        store._write(path, store.CKPT_MAGIC, header, named)
        with pytest.raises(store.StoreError, match=r"m\.ckpt: record 'enc\.0\.ffn\.b2' shaped"):
            store.load_checkpoint(path)

    def test_extra_parameter_name_detected(self, tmp_path):
        model = mdl.build_model(small_config())
        named = [(n, t.data) for n, t in model.params.items()] + [("enc.9.x", np.ones(2))]
        header = {"kind": "checkpoint", "config": mdl.asdict(model.config),
                  "base_id": model.base_id}
        store._write(tmp_path / "m.ckpt", store.CKPT_MAGIC, header, named)
        with pytest.raises(store.StoreError, match="unexpected parameter record 'enc.9.x'"):
            store.load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(dropout=0.0), r"unknown \['dropout'\], missing \[\]"),
        (lambda c: c.pop("seed"), r"unknown \[\], missing \['seed'\]"),
    ])
    def test_config_keys_must_match(self, tmp_path, edit, message):
        model = mdl.build_model(small_config())
        config = mdl.asdict(model.config)
        edit(config)
        header = {"kind": "checkpoint", "config": config, "base_id": model.base_id}
        path = tmp_path / "old.ckpt"
        store._write(path, store.CKPT_MAGIC, header,
                     [(n, t.data) for n, t in model.params.items()])
        with pytest.raises(store.StoreError, match=r"old\.ckpt: model config keys differ .*" + message):
            store.load_checkpoint(path)

    def test_lineage_survives_training_and_roundtrip(self, tmp_path):
        model = mdl.build_model(small_config())
        lineage = model.base_id
        model.params["emb.tok"].data += 0.25  # simulate fine-tuning
        store.save_checkpoint(model, tmp_path / "tuned.ckpt")
        back = store.load_checkpoint(tmp_path / "tuned.ckpt")
        assert back.base_id == lineage
        assert mdl.lineage_fingerprint(back.config, back.params) != lineage


class TestFloat32Storage:
    def test_loaded_arrays_are_writable_float32_and_exact(self, tmp_path):
        model = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(model.config, "s1", seed=2)
        store.save_checkpoint(model, tmp_path / "m.ckpt")
        store.save_adapter(adapters, model.base_id, tmp_path / "s1.adapter")
        back = store.load_checkpoint(tmp_path / "m.ckpt")
        loaded = store.load_adapter(tmp_path / "s1.adapter", back)
        for source in (model, back):
            for name, t in source.named_parameters():
                assert t.data.dtype == np.float32 and t.data.flags.writeable, name
        for name, t in model.params.items():
            assert np.array_equal(back.params[name].data, t.data), name
        for (name, t), (_, u) in zip(adapters.named(), loaded.named()):
            assert np.array_equal(u.data, t.data), name


class TestAdapterFiles:
    def test_roundtrip_and_install(self, tmp_path):
        model = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(model.config, "s2", seed=7, mode="denoise")
        adapters.layers[0]["w_up"].data[:] = 0.5
        store.save_adapter(adapters, model.base_id, tmp_path / "s2.adapter")
        fresh = mdl.build_model(small_config())
        loaded = store.load_adapter(tmp_path / "s2.adapter", fresh)
        assert fresh.adapters is loaded
        assert loaded.style_id == "s2" and loaded.mode == "denoise"
        assert np.allclose(loaded.layers[0]["w_up"].data, 0.5)

    def test_fingerprint_mismatch_is_hard_error(self, tmp_path):
        base_a = mdl.build_model(small_config(seed=1))
        base_b = mdl.build_model(small_config(seed=2))
        adapters = mdl.fresh_adapters(base_a.config, "s1")
        store.save_adapter(adapters, base_a.base_id, tmp_path / "a.adapter")
        with pytest.raises(store.FingerprintMismatch):
            store.load_adapter(tmp_path / "a.adapter", base_b)

    def test_adapter_loads_onto_finetuned_descendant(self, tmp_path):
        base = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(base.config, "s1")
        store.save_adapter(adapters, base.base_id, tmp_path / "s1.adapter")
        store.save_checkpoint(base, tmp_path / "base.ckpt")
        tuned = store.load_checkpoint(tmp_path / "base.ckpt")
        tuned.params["enc.0.self.wq"].data += 0.1
        store.load_adapter(tmp_path / "s1.adapter", tuned)  # must not raise

    def test_missing_record_detected(self, tmp_path):
        model = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(model.config, "s1")
        named = list(adapters.named())[:-1]
        header = {"kind": "adapter", "style_id": "s1", "mode": "fresh",
                  "base_id": model.base_id}
        store._write(tmp_path / "bad.adapter", store.ADAPTER_MAGIC, header,
                     [(n, t.data) for n, t in named])
        with pytest.raises(store.StoreError, match="missing adapter record"):
            store.load_adapter(tmp_path / "bad.adapter", model)

    @pytest.mark.parametrize("record", ["adapter.0.ln_g", "adapter.1.ln_b",
                                        "adapter.0.w_down", "adapter.1.w_up"])
    def test_wrong_record_shape_detected(self, tmp_path, record):
        model = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(model.config, "s1")
        named = [(n, np.zeros(3) if n == record else t.data) for n, t in adapters.named()]
        header = {"kind": "adapter", "style_id": "s1", "mode": "fresh",
                  "base_id": model.base_id}
        store._write(tmp_path / "bad.adapter", store.ADAPTER_MAGIC, header, named)
        with pytest.raises(store.StoreError, match=rf"bad\.adapter: record {record} shaped"):
            store.load_adapter(tmp_path / "bad.adapter", model)
        assert model.adapters is None

    def test_extra_record_detected(self, tmp_path):
        model = mdl.build_model(small_config())
        adapters = mdl.fresh_adapters(small_config(n_dec_layers=3), "s1")
        header = {"kind": "adapter", "style_id": "s1", "mode": "fresh",
                  "base_id": model.base_id}
        store._write(tmp_path / "bad.adapter", store.ADAPTER_MAGIC, header,
                     [(n, t.data) for n, t in adapters.named()])
        with pytest.raises(store.StoreError, match="unexpected adapter record 'adapter.2"):
            store.load_adapter(tmp_path / "bad.adapter", model)

    def test_wrong_magic_rejected(self, tmp_path):
        model = mdl.build_model(small_config())
        store.save_checkpoint(model, tmp_path / "m.ckpt")
        with pytest.raises(store.StoreError, match="magic"):
            store.load_adapter(tmp_path / "m.ckpt", model)

    def test_adapter_file_much_smaller_than_checkpoint(self, tmp_path):
        model = mdl.build_model(toy_config())
        adapters = mdl.fresh_adapters(model.config, "s1")
        store.save_checkpoint(model, tmp_path / "base.ckpt")
        store.save_adapter(adapters, model.base_id, tmp_path / "s1.adapter")
        ckpt = (tmp_path / "base.ckpt").stat().st_size
        adapter = (tmp_path / "s1.adapter").stat().st_size
        assert adapter <= 0.10 * ckpt
