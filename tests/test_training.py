import json
import logging
import re
import resource
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from icleq.channel import (
    Task,
    TaskDistributionSpec,
    qam4_constellation,
    sample_pairs,
)
from icleq.rng import RngStream
from icleq.training import (
    ADAM,
    AdamState,
    CheckpointError,
    GraphNumericsError,
    PretrainTaskSet,
    TrainBatch,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    batch_loss,
    gradient,
    load_checkpoint,
    pretrain,
    sample_train_batch,
    save_checkpoint,
)
from icleq.transformer import ModelConfig, forward_batch, init_params

C2 = qam4_constellation(2)
SPEC = TaskDistributionSpec(2, 2, -10.0, -10.0)
TINY = ModelConfig(n_layers=1, n_heads=2, d_e=8, d_f=16, d_s=4, n_max=4, n_classes=16)
SMALL = ModelConfig(n_layers=2, n_heads=4, d_e=16, d_f=32, d_s=4, n_max=20, n_classes=16)


def tiny_cfg(**kw):
    base = dict(
        model=TINY,
        tasks=SPEC,
        bits=4,
        m_tasks=4,
        n_context=3,
        batch_size=4,
        n_steps=5,
        lr=1e-3,
        warmup_steps=0,
        seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def one_class_batch(cfg, x, ctx_ys, y, b):
    """b copies of one sequence whose inputs (pilots and test) all equal x."""
    xs = np.tile(x, (b, cfg.n_context + 1, 1))
    ys = np.tile(np.concatenate([ctx_ys, y[None]]), (b, 1, 1))
    return TrainBatch.from_arrays(cfg.model, xs, ys)


def tiny_batch(cfg, seed=1):
    ts = PretrainTaskSet.sample(cfg.tasks, cfg.m_tasks, RngStream(seed))
    return sample_train_batch(ts, cfg, C2, RngStream(seed, 1))


class TestTrainConfig:
    def test_context_longer_than_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_context=5.*n_max=4"):
            tiny_cfg(n_context=TINY.n_max + 1)
        assert tiny_cfg(n_context=TINY.n_max).n_context == TINY.n_max

    @pytest.mark.parametrize("edit", [{"d_s": 2}, {"n_classes": 4}], ids=["d_s", "n_classes"])
    def test_model_that_cannot_read_the_tasks_rejected(self, edit):
        """Token width and class count must fit the antenna counts, so a
        checkpoint that pairs a model with other tasks fails at load time."""
        with pytest.raises(ValueError, match="d_s=.*cannot read n_t=2, n_r=2 tasks"):
            tiny_cfg(model=replace(TINY, **edit))
        assert tiny_cfg(model=replace(TINY, d_s=6)).model.d_s == 6

    @pytest.mark.parametrize("name", ["n_steps", "warmup_steps"])
    def test_negative_step_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            tiny_cfg(**{name: -1})
        assert getattr(tiny_cfg(**{name: 0}), name) == 0

    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=f"lr must be > 0, got {lr}"):
            tiny_cfg(lr=lr)

    def test_infinite_init_scale_rejected(self):
        """nan and 0 are parse-time cases."""
        with pytest.raises(ValueError, match="init_scale must be finite and > 0, got inf"):
            tiny_cfg(init_scale=float("inf"))

    def test_loss_positions_is_a_constant(self):
        """The loss covers every received-signal position: a class constant,
        in no config's fields, and the dict of a config holds no constant."""
        assert TrainConfig.loss_positions == "all_y"
        assert "loss_positions" not in {f.name for f in fields(TrainConfig)}
        d = asdict(TrainConfig())
        assert not {"loss_positions", *ADAM} & set(d)
        assert not {"use_causal_mask", "use_positional"} & set(d["model"])


class TestBatchLoss:
    def test_uniform_head_gives_unit_loss(self):
        """All joint 4-QAM vectors have exactly unit norm, so a uniform
        classifier (soft estimate 0) scores a loss of exactly 1."""
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(2))
        params["head.w"] = np.zeros_like(params["head.w"])
        params["head.b"] = np.zeros_like(params["head.b"])
        loss = batch_loss(params, cfg, tiny_batch(cfg), C2)
        assert abs(loss - 1.0) < 1e-12

    def test_saturated_correct_head_gives_zero_loss(self):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(3))
        params["embed"] = np.zeros_like(params["embed"])
        params["pos"] = np.zeros_like(params["pos"])
        params["head.w"] = np.zeros_like(params["head.w"])
        params["head.b"] = np.zeros_like(params["head.b"])
        params["head.b"][7] = 200.0  # one-hot on class 7 everywhere
        ts = PretrainTaskSet.sample(cfg.tasks, 1, RngStream(4))
        t = Task(h=ts.hs[0], sigma2=float(ts.sigma2s[0]))
        _, ctx_ys = sample_pairs(t.h, t.sigma2, cfg.quantizer, C2, cfg.n_context, RngStream(5))
        # every input, pilots and test alike, is class 7
        x = C2.joint[7]
        batch = one_class_batch(cfg, x, ctx_ys, t.h @ x, 3)
        loss = batch_loss(params, cfg, batch, C2)
        assert loss < 1e-9

    def test_loss_is_mean_of_position_errors(self):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(6))
        batch = tiny_batch(cfg)
        _, est = forward_batch(params, cfg.model, C2, batch.tokens)
        tgt = batch.targets  # (2 n_t, B, P)
        tgtc = (tgt[:2] + 1j * tgt[2:]).transpose(1, 2, 0)
        per_pos = np.sum(np.abs(est - tgtc) ** 2, axis=2).mean(axis=0)  # (P,)
        assert abs(batch_loss(params, cfg, batch, C2) - per_pos.mean()) < 1e-12

    def test_batch_permutation_invariance(self):
        cfg = tiny_cfg(batch_size=6)
        params = init_params(cfg.model, RngStream(7))
        batch = tiny_batch(cfg)
        perm = RngStream(8)._gen.permutation(6)
        shuffled = TrainBatch(tokens=batch.tokens[:, perm], targets=batch.targets[:, perm])
        a = batch_loss(params, cfg, batch, C2)
        b = batch_loss(params, cfg, shuffled, C2)
        assert abs(a - b) < 1e-12

    def test_loss_nonnegative(self):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(9))
        assert batch_loss(params, cfg, tiny_batch(cfg), C2) >= 0.0


class TestGradient:
    def test_every_coordinate_matches_finite_differences(self):
        """Exhaustive central-difference check on a tiny model (N = 3)."""
        cfg = tiny_cfg()
        rng = RngStream(10)
        params = init_params(cfg.model, rng)
        batch = tiny_batch(cfg, seed=12)
        _, grads = gradient(params, cfg, batch, C2)
        h = 1e-5
        for name, g in grads.items():
            for ix in range(g.size):
                plus = {k: v.copy() for k, v in params.items()}
                plus[name].flat[ix] += h
                minus = {k: v.copy() for k, v in params.items()}
                minus[name].flat[ix] -= h
                fd = (batch_loss(plus, cfg, batch, C2) - batch_loss(minus, cfg, batch, C2)) / (
                    2 * h
                )
                an = g.flat[ix]
                assert abs(an - fd) <= max(1e-8, 1e-4 * max(abs(an), abs(fd))), (
                    f"{name}[{ix}]"
                )

    def test_saturated_minimum_has_vanishing_gradient(self):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(13))
        params["embed"] = np.zeros_like(params["embed"])
        params["pos"] = np.zeros_like(params["pos"])
        params["head.w"] = np.zeros_like(params["head.w"])
        params["head.b"] = np.zeros_like(params["head.b"])
        params["head.b"][5] = 200.0
        x = C2.joint[5]
        ts = PretrainTaskSet.sample(cfg.tasks, 1, RngStream(14))
        t = Task(h=ts.hs[0], sigma2=float(ts.sigma2s[0]))
        _, ctx_ys = sample_pairs(t.h, t.sigma2, cfg.quantizer, C2, cfg.n_context, RngStream(15))
        batch = one_class_batch(cfg, x, ctx_ys, t.h @ x, 2)
        loss, grads = gradient(params, cfg, batch, C2)
        assert loss < 1e-9
        assert max(np.abs(g).max() for g in grads.values()) < 1e-8

    def test_unused_positional_columns_get_zero_gradient(self):
        cfg = tiny_cfg(n_context=2)  # sequence length 5 < 2 * n_max + 1 = 9
        params = init_params(cfg.model, RngStream(16))
        batch = tiny_batch(cfg)
        _, grads = gradient(params, cfg, batch, C2)
        np.testing.assert_array_equal(grads["pos"][:, 5:], np.zeros((cfg.model.d_e, 4)))
        assert np.abs(grads["pos"][:, :5]).max() > 0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": RngStream(17).normal((3, 3))}
        state = AdamState.init(params)
        out, _ = adam_step(params, {"w": np.zeros((3, 3))}, state, tiny_cfg(lr=1e-2))
        np.testing.assert_allclose(out["w"], params["w"], atol=1e-12)

    def test_constant_gradient_descends(self):
        params = {"w": np.zeros(4)}
        state = AdamState.init(params)
        cfg = tiny_cfg(lr=1e-3)
        g = np.array([1.0, -2.0, 0.5, -0.1])
        for _ in range(50):
            params, state = adam_step(params, {"w": g}, state, cfg)
        assert np.all(np.sign(params["w"]) == -np.sign(g))

    def test_global_norm_clipping(self):
        params = {"w": np.zeros(1)}
        out_clipped, _ = adam_step(
            params, {"w": np.array([10.0])}, AdamState.init(params), tiny_cfg(lr=1.0)
        )
        out_free, _ = adam_step(
            params, {"w": np.array([1.0])}, AdamState.init(params), tiny_cfg(lr=1.0)
        )
        # a clipped gradient of 10 becomes exactly a gradient of 1
        np.testing.assert_allclose(out_clipped["w"], out_free["w"], atol=1e-15)


class TestPretrain:
    def test_curve_finite_and_reproducible(self):
        cfg = tiny_cfg(n_steps=30)
        p1, curve1, ts1 = pretrain(cfg)
        p2, curve2, ts2 = pretrain(cfg)
        assert all(np.isfinite(l) for _, l in curve1)
        assert curve1 == curve2
        for k in p1:
            assert np.array_equal(p1[k], p2[k])
        assert np.array_equal(ts1.hs, ts2.hs)

    def test_task_set_reproducible_from_seed_prefix_stable(self):
        cfg_short = tiny_cfg(n_steps=10)
        cfg_long = tiny_cfg(n_steps=20)
        _, c_short, _ = pretrain(cfg_short)
        _, c_long, _ = pretrain(cfg_long)
        assert c_long[:10] == c_short

    def test_progress_lines_give_step_time(self, caplog):
        """Each progress line ends with the mean wall-clock ms per step since
        the previous line and the process's peak RSS so far; with 40 steps
        a line falls every second step."""
        caplog.set_level(logging.INFO, logger="icleq.training")
        _, curve, _ = pretrain(tiny_cfg(n_steps=40))
        peak_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
        assert [int(re.match(r"step (\d+)/40", l).group(1)) for l in lines] == [
            *range(0, 40, 2), 39
        ]
        peaks = []
        for line, step in zip(lines, [*range(0, 40, 2), 39]):
            assert line.startswith(f"step {step}/40 loss {curve[step][1]:.4f} ")
            ms = re.fullmatch(r".* \(avg [0-9.]+\) ([0-9.]+) ms/step, peak RSS ([0-9]+) MB", line)
            assert ms and float(ms.group(1)) > 0
            peaks.append(int(ms.group(2)))
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= round(peak_after)

    def test_divergence_detector_on_exploding_loss(self, monkeypatch):
        import icleq.training as tr

        monkeypatch.setattr(tr, "gradient", lambda *a, **k: (2000.0, {}))
        with pytest.raises(TrainingDivergedError, match="loss 2000"):
            pretrain(tiny_cfg(n_steps=3))

    def test_divergence_detector_on_nonfinite(self):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(30))
        params["embed"][0, 0] = np.nan
        with pytest.raises(GraphNumericsError):
            gradient(params, cfg, tiny_batch(cfg), C2)

    def test_loss_decreases_on_single_task(self):
        cfg = tiny_cfg(m_tasks=1, n_steps=300, lr=3e-3, batch_size=8, bits=None)
        _, curve, _ = pretrain(cfg)
        first = np.mean([l for _, l in curve[:30]])
        last = np.mean([l for _, l in curve[-30:]])
        assert last < 0.8 * first


class TestPinnedCurves:
    """Five-step loss curves of a SMALL-size model, pinned to values of the
    graph that computed every column of the last layer and ran attention as
    separate matmul, scale and masked-softmax nodes: the pruned, fused graph
    must compute the same function."""

    BASE = dict(
        model=SMALL, tasks=SPEC, bits=4, m_tasks=16, n_context=10, batch_size=8,
        n_steps=5, lr=1e-3, warmup_steps=0, seed=11,
    )

    @pytest.mark.parametrize(
        "edit, want",
        [
            ({}, [1.0003820316475522, 0.9995526455775832, 0.9991887115947061,
                  0.9960513257827002, 0.9968292277807161]),
            ({"bits": None}, [1.0009546885856517, 0.9995195596349316, 0.9996714722465319,
                              0.9957644437224178, 0.9970980426198437]),
        ],
        ids=["4bit-all_y", "unquantized"],
    )
    def test_curve_pinned(self, edit, want):
        _, curve, _ = pretrain(TrainConfig(**{**self.BASE, **edit}))
        np.testing.assert_allclose([l for _, l in curve], want, rtol=1e-12, atol=0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(18))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        loaded, model, train = load_checkpoint(str(path))
        assert model == cfg.model
        assert train == cfg
        with np.load(path, allow_pickle=False) as archive:
            assert set(archive.files) == set(params) | {"__config__"}
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])
        # forward outputs identical to the last bit on a fixed probe
        batch = tiny_batch(cfg)
        a = forward_batch(params, cfg.model, C2, batch.tokens)
        b = forward_batch(loaded, cfg.model, C2, batch.tokens)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_corrupted_magic_rejected(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(19))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=r"not an \.npz archive \(bad magic\)"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(20))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(str(path))

    def test_flipped_payload_byte_rejected(self, tmp_path):
        """A changed tensor byte fails the archive's CRC-32."""
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(23))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        raw = bytearray(path.read_bytes())
        payload = params["embed"].tobytes()
        assert raw.count(payload) == 1
        raw[raw.index(payload) + len(payload) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(str(path))

    def test_byte_flips_load_identical_or_raise(self, tmp_path):
        """Corruption anywhere either leaves the loaded data unchanged
        (zip timestamps, header padding) or raises CheckpointError."""
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(24))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        raw = path.read_bytes()
        for i in range(0, len(raw), 7):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << (i % 8)
            path.write_bytes(bytes(flipped))
            try:
                loaded, model, train = load_checkpoint(str(path))
            except CheckpointError:
                continue
            assert model == cfg.model and train == cfg, f"byte {i}"
            assert all(np.array_equal(loaded[k], params[k]) for k in params), f"byte {i}"

    def test_archive_without_training_config_rejected(self, tmp_path):
        """Every checkpoint carries its training config; an archive with
        only the model config does not load."""
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg.model, RngStream(21)), cfg, str(path))
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays["__config__"]))
        arrays["__config__"] = np.array(json.dumps({"model": meta["model"]}))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(CheckpointError, match="holds no training config"):
            load_checkpoint(str(path))

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_wrong_dtype_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg.model, RngStream(25)), cfg, str(path))
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["head.b"] = arrays["head.b"].astype(np.float32)
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(CheckpointError, match="head.b has dtype float32"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("head.b"), r"missing \['head.b'\]"),
            (lambda p: p.__setitem__("bogus", np.zeros(3)), r"unexpected \['bogus'\]"),
        ],
        ids=["missing", "extra"],
    )
    def test_tensor_set_mismatch_rejected(self, tmp_path, edit, message):
        cfg = tiny_cfg()
        params = init_params(cfg.model, RngStream(22))
        edit(params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, str(path))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "use_causal_mask", False),
            ("model", "use_causal_mask", 1),
            ("model", "use_positional", False),
            ("train", "loss_positions", "final_only"),
        ],
    )
    def test_variant_keys_load_only_at_their_one_value(self, tmp_path, section, key, value):
        """Older checkpoints carry use_causal_mask, use_positional and
        loss_positions; at True, True and "all_y" they load, and any other
        value is rejected by name.  New checkpoints carry none of them."""
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg.model, RngStream(26)), cfg, str(path))
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays["__config__"]))
        variant = {"use_causal_mask": True, "use_positional": True}
        assert not set(variant) & (set(meta["model"]) | set(meta["train"]["model"]))
        assert "loss_positions" not in meta["train"]

        def rewrite(section, settings):
            meta[section].update(settings)
            if section == "model":  # the training config holds the model's too
                meta["train"]["model"].update(settings)
            arrays["__config__"] = np.array(json.dumps(meta))
            with open(path, "wb") as f:
                np.savez(f, **arrays)

        rewrite("model", variant)
        rewrite("train", {"loss_positions": "all_y"})
        assert load_checkpoint(str(path))[1:] == (cfg.model, cfg)
        legacy = meta[section][key]
        rewrite(section, {key: value})
        message = f"{key} must be {legacy!r}, got {value!r}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", 0.5),
            ("beta2", 1.0),
            ("epsilon", 0.0),
            ("clip_norm", -1.0),
            ("clip_norm", None),
        ],
    )
    def test_adam_settings_load_only_at_their_one_value(self, tmp_path, key, value):
        """Older checkpoints carry beta1, beta2, epsilon and clip_norm in
        their training config; at Adam's settings they load, and any other
        value is rejected by name."""
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg.model, RngStream(27)), cfg, str(path))
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays["__config__"]))
        assert not set(ADAM) & set(meta["train"])

        def rewrite(settings):
            meta["train"].update(settings)
            arrays["__config__"] = np.array(json.dumps(meta))
            with open(path, "wb") as f:
                np.savez(f, **arrays)

        rewrite({"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8, "clip_norm": 1.0})
        assert load_checkpoint(str(path))[1:] == (cfg.model, cfg)
        rewrite({key: value})
        with pytest.raises(CheckpointError, match=f"{key} must be {ADAM[key]}, got {value!r}"):
            load_checkpoint(str(path))


class TestAllYPositionZero:
    def test_position_zero_learns_prior_optimum_under_high_noise(self):
        """At very low SNR nothing is learnable, so the first-position loss
        should sit at the prior optimum E||x||^2 = 1 after a short run."""
        noisy = TaskDistributionSpec(2, 2, 20.0, 20.0)  # sigma2 = 100
        cfg = tiny_cfg(tasks=noisy, n_steps=200, batch_size=8, lr=1e-3)
        params, _, ts = pretrain(cfg)
        batch = sample_train_batch(ts, cfg, C2, RngStream(22))
        _, est = forward_batch(params, cfg.model, C2, batch.tokens)
        tgt = (batch.targets[:2] + 1j * batch.targets[2:]).transpose(1, 2, 0)
        pos0 = np.sum(np.abs(est[:, 0] - tgt[:, 0]) ** 2, axis=1).mean()
        assert abs(pos0 - 1.0) <= 0.1
