"""Optimizer oracle tests and mini-scale stage contracts (freeze, determinism)."""

import hashlib

import numpy as np
import pytest

from styleswap import data as sd
from styleswap import model as mdl
from styleswap import training as tr
from styleswap.autograd import Tensor

VOCAB = sd.Vocab()


def mini_config(**over):
    base = dict(vocab_size=len(VOCAB), d_model=32, n_heads=2, d_ffn=48,
                n_enc_layers=1, n_dec_layers=1, adapter_bottleneck=4,
                max_len=40, seed=0)
    base.update(over)
    return mdl.ModelConfig(**base)


def group_bytes(model, group_names):
    digest = hashlib.sha256()
    for name in sorted(model.params):
        if model.groups[name] in group_names:
            digest.update(model.params[name].data.tobytes())
    return digest.hexdigest()


def adapter_bytes(adapters):
    digest = hashlib.sha256()
    for name, t in sorted(adapters.named()):
        digest.update(t.data.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def mini_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini-data")
    sd.generate_data_dir(root, seed=13, n_task=160, n_style=160)
    return root


class TestAdamW:
    def test_hand_step(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        t.grad = np.array([1.0])
        opt = tr.AdamW([("w", t)], tr.Hyper(lr=0.1))
        opt.step()
        # bias-corrected m-hat = 1, v-hat = 1 -> w = 1 - 0.1 * 1/(1 + 1e-8)
        assert t.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_zero_grads_no_decay_leaves_params(self):
        t = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        t.grad = np.zeros(2)
        opt = tr.AdamW([("w", t)], tr.Hyper(lr=0.1))
        opt.step()
        assert np.array_equal(t.data, [2.0, -3.0])

    def test_missing_grad_is_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.AdamW([("w", t)], tr.Hyper(lr=0.1))
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_moments_only_for_given_params(self):
        a = Tensor(np.ones(2), requires_grad=True)
        opt = tr.AdamW([("a", a)], tr.Hyper(lr=0.1))
        assert set(opt.moments) == {"a"}


class TestStage1:
    def test_zero_epochs_keeps_identity_adapter(self, mini_data):
        model = mdl.build_model(mini_config())
        splits = tr.load_style_pairs(mini_data, "s1", "inverse-para", VOCAB, 40)
        adapters, _ = tr.train_style_adapter(model, VOCAB, "s1", "inverse-para",
                                             splits, tr.Hyper(epochs=0))
        for layer in adapters.layers:
            assert np.all(layer["w_up"].data == 0.0)

    def test_base_frozen_bitwise_and_loss_decreases(self, mini_data):
        model = mdl.build_model(mini_config())
        before = hashlib.sha256(model.base_bytes()).hexdigest()
        splits = tr.load_style_pairs(mini_data, "s1", "inverse-para", VOCAB, 40)
        adapters, result = tr.train_style_adapter(
            model, VOCAB, "s1", "inverse-para", splits,
            tr.Hyper(lr=3e-3, batch_size=16, epochs=2, seed=3))
        assert hashlib.sha256(model.base_bytes()).hexdigest() == before
        head = np.mean(result.losses[:5])
        tail = np.mean(result.losses[-5:])
        assert tail < head
        assert adapters.style_id == "s1" and adapters.mode == "inverse-para"

    def test_denoise_mode_uses_noise_inputs(self, mini_data):
        para = tr.load_style_pairs(mini_data, "s2", "inverse-para", VOCAB, 40)
        noise = tr.load_style_pairs(mini_data, "s2", "denoise", VOCAB, 40)
        assert para.train[0][1] == noise.train[0][1]  # same targets
        assert para.train[0][0] != noise.train[0][0]  # different inputs
        mask_tok = VOCAB.mask
        assert any(mask_tok in x for x, _ in noise.train[:50])
        assert not any(mask_tok in x for x, _ in para.train[:50])

    def test_unknown_mode(self, mini_data):
        with pytest.raises(ValueError, match="mode"):
            tr.load_style_pairs(mini_data, "s1", "diffusion", VOCAB, 40)

    def test_missing_corpus_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            tr.load_style_pairs(tmp_path, "s1", "inverse-para", VOCAB, 40)


class TestStage2:
    def test_requires_adapters(self, mini_data):
        model = mdl.build_model(mini_config())
        splits = tr.load_task_pairs(mini_data, "headline", VOCAB, 40)
        with pytest.raises(mdl.AdapterError):
            tr.train_task(model, VOCAB, None, splits, "enc", tr.Hyper())

    def test_enc_selector_freezes_decoder_catt_and_adapters(self, mini_data):
        model = mdl.build_model(mini_config())
        s0_splits = tr.load_style_pairs(mini_data, "s0", "inverse-para", VOCAB, 40)
        adapters, _ = tr.train_style_adapter(model, VOCAB, "s0", "inverse-para", s0_splits,
                                             tr.Hyper(epochs=1, batch_size=16))
        frozen_before = group_bytes(model, ("dec-self", "dec-catt", "dec-other"))
        adapters_before = adapter_bytes(adapters)
        enc_before = group_bytes(model, ("enc",))
        splits = tr.load_task_pairs(mini_data, "headline", VOCAB, 40)
        tr.train_task(model, VOCAB, adapters, splits, "enc",
                      tr.Hyper(epochs=1, batch_size=16, seed=5))
        assert group_bytes(model, ("dec-self", "dec-catt", "dec-other")) == frozen_before
        assert adapter_bytes(adapters) == adapters_before
        assert group_bytes(model, ("enc",)) != enc_before

    def test_non_finite_loss_stops_before_the_update(self, mini_data, tmp_path):
        model = mdl.build_model(mini_config())
        adapters = mdl.fresh_adapters(model.config, "s0")
        model.params["enc.0.ffn.w1"].data[3, 5] = np.nan
        before = model.base_bytes()
        splits = tr.load_task_pairs(mini_data, "headline", VOCAB, 40)
        log = tmp_path / "step2.jsonl"
        with pytest.raises(tr.NonFiniteLoss,
                           match=r"^loss is nan at step 1 \(epoch 1\) training 'enc'$"):
            tr.train_task(model, VOCAB, adapters, splits, "enc",
                          tr.Hyper(epochs=1, batch_size=16, log_path=log))
        assert model.base_bytes() == before
        assert log.read_text() == ""

    def test_wider_selector_trains_strictly_more(self, mini_data):
        model = mdl.build_model(mini_config())
        count = lambda sel: sum(t.size for _, t in mdl.param_group(model, sel))
        assert count("enc") < count("enc+catt") < count("enc+catt+dec")


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, mini_data):
        outputs = []
        for _ in range(2):
            model = mdl.build_model(mini_config())
            splits = tr.load_style_pairs(mini_data, "s3", "inverse-para", VOCAB, 40)
            adapters, _ = tr.train_style_adapter(
                model, VOCAB, "s3", "inverse-para", splits,
                tr.Hyper(lr=1e-3, batch_size=16, epochs=1, seed=11))
            outputs.append(adapter_bytes(adapters))
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, mini_data):
        results = []
        for seed in (1, 2):
            model = mdl.build_model(mini_config())
            splits = tr.load_style_pairs(mini_data, "s3", "inverse-para", VOCAB, 40)
            adapters, _ = tr.train_style_adapter(
                model, VOCAB, "s3", "inverse-para", splits,
                tr.Hyper(lr=1e-3, batch_size=16, epochs=1, seed=seed))
            results.append(adapter_bytes(adapters))
        assert results[0] != results[1]


class TestPipeline:
    def test_training_log_written(self, mini_data, tmp_path):
        model = mdl.build_model(mini_config())
        splits = tr.load_style_pairs(mini_data, "s1", "inverse-para", VOCAB, 40)
        log = tmp_path / "train.jsonl"
        tr.train_style_adapter(model, VOCAB, "s1", "inverse-para", splits,
                               tr.Hyper(epochs=1, batch_size=16, log_path=log))
        import json

        lines = [json.loads(l) for l in log.read_text().splitlines()]
        steps = [l for l in lines if "loss" in l]
        assert steps and all({"step", "loss", "lr"} <= set(l) for l in steps)
