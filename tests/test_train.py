import hashlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np
import pytest

from synthrep.data import BatchSpec
from synthrep.encoder import EncoderConfig
from synthrep.generator import GeneratorConfig, caption_to_component, generate_dataset
from synthrep.data import synth_captions
from synthrep.train import (
    TrainConfig,
    Trainer,
    TrainingDivergedError,
    TrainState,
    adamw_step,
    load_checkpoint,
    lr_at,
    run_training,
    save_checkpoint,
    sub_params,
    write_metrics,
)
from synthrep.manifest import json_digest


def toy_manifest(num_captions=8, per_caption=3, dim=4, seed=2):
    gcfg = GeneratorConfig(feature_dim=dim, num_classes=3, ddim_steps=5)
    recs = synth_captions(num_captions, 3, seed=1)
    return generate_dataset([r.prompt for r in recs], per_caption, gcfg, seed=seed)


def tiny_cfg(**kw):
    base = dict(
        batch_spec=BatchSpec(4, 2),
        tau=0.5,
        base_lr=1e-2,
        epochs=2,
        warmup_epochs=0.5,
        augment_strength=0.1,
        encoder=EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=4),
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def text_encoder_cfg():
    return EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=4)


# -- schedule ----------------------------------------------------------------


def test_peak_lr_follows_reference_batch_convention():
    mp = TrainConfig(batch_spec=BatchSpec(20, 6), base_lr=1e-2)
    assert mp.reference_batch == 512
    assert abs(mp.peak_lr - 1e-2 * 120 / 512) <= 1e-18
    sc = TrainConfig(
        batch_spec=BatchSpec(20, 2), loss_variant="simclr_reduction", base_lr=1e-2
    )
    assert sc.reference_batch == 256
    assert abs(sc.peak_lr - 1e-2 * 40 / 256) <= 1e-18


def test_lr_warmup_then_cosine_closed_forms():
    cfg = TrainConfig(
        batch_spec=BatchSpec(4, 2), epochs=5, warmup_epochs=1.0, base_lr=0.512
    )
    spe = 20.0
    peak = cfg.peak_lr
    assert lr_at(0, cfg, spe) == 0.0
    assert abs(lr_at(10, cfg, spe) - peak * 0.5) <= 1e-15
    assert abs(lr_at(20, cfg, spe) - peak) <= 1e-15  # warmup boundary hits t=0
    # halfway through decay: t = (60 - 20) / (100 - 20) = 0.5
    assert abs(lr_at(60, cfg, spe) - peak * 0.5) <= 1e-15
    assert lr_at(100, cfg, spe) == 0.0
    assert lr_at(101, cfg, spe) == 0.0
    with pytest.raises(ValueError):
        lr_at(-1, cfg, spe)


def test_lr_without_warmup_starts_at_peak():
    cfg = TrainConfig(batch_spec=BatchSpec(4, 2), epochs=2, warmup_epochs=0.0)
    assert abs(lr_at(0, cfg, 10.0) - cfg.peak_lr) <= 1e-18


# -- optimizer ----------------------------------------------------------------


def test_adamw_two_steps_match_hand_computation():
    lr, (b1, b2), wd, eps = 0.1, (0.9, 0.99), 0.04, 1e-8
    scratch = {"w": (np.empty(3), np.empty(3))}
    w0 = np.array([1.0, -2.0, 0.5])
    g1 = np.array([0.5, 1.5, -0.25])
    g2 = np.array([-1.0, 0.5, 0.75])

    ts = TrainState(params={"w": w0.copy()}, m={"w": np.zeros(3)}, v={"w": np.zeros(3)})
    params = ts.params
    held = params["w"]

    adamw_step(ts, {"w": g1}, lr, (b1, b2), wd, scratch)
    m1 = (1 - b1) * g1
    v1 = (1 - b2) * g1**2
    upd1 = (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    w1 = w0 - lr * (upd1 + wd * w0)
    np.testing.assert_allclose(params["w"], w1, atol=1e-15)
    np.testing.assert_allclose(ts.m["w"], m1, atol=1e-15)
    np.testing.assert_allclose(ts.v["w"], v1, atol=1e-15)
    assert ts.step == 1
    assert params["w"] is held  # in-place update

    adamw_step(ts, {"w": g2}, lr, (b1, b2), wd, scratch)
    m2 = b1 * m1 + (1 - b1) * g2
    v2 = b2 * v1 + (1 - b2) * g2**2
    upd2 = (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
    w2 = w1 - lr * (upd2 + wd * w1)
    np.testing.assert_allclose(params["w"], w2, atol=1e-15)
    assert ts.step == 2


# -- config -------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(loss_variant="triplet")
    with pytest.raises(ValueError):
        tiny_cfg(loss_variant="simclr_reduction", batch_spec=BatchSpec(4, 3))
    with pytest.raises(ValueError):
        tiny_cfg(loss_variant="pair_only", batch_spec=BatchSpec(4, 2))
    with pytest.raises(ValueError):
        tiny_cfg(betas=(0.9, 1.0))
    with pytest.raises(ValueError):
        tiny_cfg(base_lr=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(weight_decay=-0.1)
    with pytest.raises(ValueError):
        tiny_cfg(epochs=0)
    with pytest.raises(ValueError):
        tiny_cfg(warmup_epochs=2.0, epochs=2)
    with pytest.raises(ValueError):
        tiny_cfg(augment_strength=-1.0)
    with pytest.raises(ValueError):
        tiny_cfg(grad_clip=0.0)
    # mistyped values are refused by name, not coerced or left to fail later
    for field, value in [
        ("tau", "x"),
        ("tau", None),
        ("tau", float("inf")),
        ("epochs", 4.0),
        ("epochs", True),
        ("grad_clip", "1"),
        ("betas", (0.9, "0.98")),
    ]:
        with pytest.raises(ValueError, match=field):
            tiny_cfg(**{field: value})
    assert tiny_cfg(epochs=np.int64(2), tau=np.float32(0.5), grad_clip=1).epochs == 2
    with pytest.raises(ValueError):
        tiny_cfg(loss_variant="multi_positive_text")  # no text encoder
    with pytest.raises(ValueError):
        tiny_cfg(
            loss_variant="multi_positive_text",
            text_encoder=EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=6),
        )


def test_train_config_round_trip_and_hash():
    transformer = EncoderConfig(
        input_dim=4, backbone="transformer", patch_size=2, depth=1, width=8, heads=2,
        head_hidden=8, head_out=4,
    )
    for cfg in (
        tiny_cfg(),
        tiny_cfg(encoder=transformer, text_encoder=text_encoder_cfg(),
                 loss_variant="multi_positive_text"),
    ):
        back = TrainConfig.from_dict(asdict(cfg))
        assert back == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg
        assert json_digest(asdict(back)) == json_digest(asdict(cfg))
    assert json_digest(asdict(tiny_cfg())) != json_digest(asdict(tiny_cfg(tau=0.4)))


# -- trainer ------------------------------------------------------------------


def test_trainer_divisibility_checks():
    man = toy_manifest(num_captions=8)
    with pytest.raises(ValueError, match="^batch num_captions 3 must divide the 8 dataset"):
        Trainer(man, tiny_cfg(batch_spec=BatchSpec(3, 2)))
    with pytest.raises(
        ValueError,
        match=r"^2\*epochs\*num_captions = 16 is not divisible by the batch image count 24;",
    ):
        Trainer(man, tiny_cfg(batch_spec=BatchSpec(8, 3), epochs=1))
    with pytest.raises(ValueError):
        Trainer(
            man,
            tiny_cfg(encoder=EncoderConfig(input_dim=5, mlp_widths=(8,), head_hidden=8, head_out=4)),
        )


def test_forwards_accounting_is_exact():
    man = toy_manifest(num_captions=8, per_caption=3)
    cfg = tiny_cfg(epochs=3, batch_spec=BatchSpec(4, 2))
    trainer = Trainer(man, cfg)
    # every image forward is counted: steps * n * m = 2 * epochs * captions
    assert trainer.total_steps * 4 * 2 == 2 * 3 * 8
    ts = trainer.init_state()
    metrics = trainer.run(ts)
    assert len(metrics) == trainer.total_steps
    assert ts.step == trainer.total_steps
    assert metrics[-1]["epoch_equiv"] == cfg.epochs
    assert all(np.isfinite(rec["loss"]) for rec in metrics)


def test_caption_slices_partition_each_pass():
    man = toy_manifest(num_captions=8)
    trainer = Trainer(man, tiny_cfg())
    for pass_idx in range(2):
        seen = np.concatenate(
            [
                trainer._caption_slice(pass_idx * trainer.steps_per_pass + o)
                for o in range(trainer.steps_per_pass)
            ]
        )
        assert sorted(seen) == sorted(man.unique_caption_ids)


def test_training_replay_is_bitwise_deterministic():
    man = toy_manifest()
    cfg = tiny_cfg(epochs=2)
    t1, t2 = Trainer(man, cfg), Trainer(man, cfg)
    s1, s2 = t1.init_state(), t2.init_state()
    m1, m2 = t1.run(s1), t2.run(s2)
    assert [r["loss"] for r in m1] == [r["loss"] for r in m2]
    for k in s1.params:
        np.testing.assert_array_equal(s1.params[k], s2.params[k])


def test_two_view_variant_duplicates_first_image():
    man = toy_manifest()
    cfg = tiny_cfg(
        loss_variant="simclr_reduction", batch_spec=BatchSpec(4, 2), augment_strength=0.2
    )
    trainer = Trainer(man, cfg)
    feats, ids, texts = trainer.assemble(0)
    assert texts is None
    np.testing.assert_array_equal(ids[::2], ids[1::2])
    for i in range(0, 8, 2):
        # same source image, different augmentation noise
        assert not np.array_equal(feats[i], feats[i + 1])


def test_text_inputs_are_conditional_means():
    man = toy_manifest()
    cfg = tiny_cfg(
        loss_variant="multi_positive_text",
        text_encoder=text_encoder_cfg(),
    )
    trainer = Trainer(man, cfg)
    _, ids, texts = trainer.assemble(0)
    cids = ids[:: cfg.batch_spec.samples_per_caption]
    assert texts.shape == (4, 4)
    for row, cid in zip(texts, cids):
        mean, _ = caption_to_component(man.prompt_for(int(cid)), man.config)
        np.testing.assert_array_equal(row, mean)


def test_text_variants_train_without_error():
    man = toy_manifest()
    for variant, spec in (
        ("multi_positive_text", BatchSpec(4, 2)),
        ("pair_only", BatchSpec(4, 1)),
    ):
        cfg = tiny_cfg(
            loss_variant=variant,
            batch_spec=spec,
            epochs=1,
            text_encoder=text_encoder_cfg(),
        )
        trainer = Trainer(man, cfg)
        ts = trainer.init_state()
        metrics = trainer.run(ts)
        assert all(np.isfinite(r["loss"]) for r in metrics)
        assert any(k.startswith("txt.") for k in ts.params)


def test_sub_params_shares_storage():
    d = {"img.w": np.zeros(3), "txt.w": np.ones(3)}
    view = sub_params(d, "img.")
    view["w"][0] = 7.0
    assert d["img.w"][0] == 7.0
    assert set(view) == {"w"}


def test_divergence_is_reported():
    # an absurd temperature overflows the gradient norm while the loss
    # itself stays finite
    trainer = Trainer(toy_manifest(), tiny_cfg(tau=1e-250))
    ts = trainer.init_state()
    before = {k: v.copy() for k, v in ts.params.items()}
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match="step 0"):
        trainer.train_step(ts)
    # the step is refused before the optimizer touches the parameters
    assert ts.step == 0
    for k, v in before.items():
        np.testing.assert_array_equal(ts.params[k], v)


def test_overflowing_embeddings_are_reported_as_divergence():
    # a huge learning rate overflows the projection head within a few steps;
    # the step is refused before the loss sees the embeddings
    trainer = Trainer(toy_manifest(), tiny_cfg(base_lr=1e12, epochs=6))
    ts = trainer.init_state()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            trainer.run(ts)
    msg = str(exc.value)
    assert "embeddings" in msg
    assert f"step {ts.step};" in msg
    assert f"lr={lr_at(ts.step, trainer.cfg, trainer.steps_per_epoch):.3g}" in msg
    assert ts.step > 0


def test_grad_clip_bounds_update_norm():
    man = toy_manifest()
    clip = 1e-3
    cfg = tiny_cfg(grad_clip=clip, epochs=1)
    trainer = Trainer(man, cfg)
    ts = trainer.init_state()
    rec = trainer.train_step(ts)
    assert rec["grad_norm"] > 0


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_and_byte_determinism(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(epochs=1)
    trainer = Trainer(man, cfg)
    ts = trainer.init_state()
    trainer.train_step(ts)

    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, cfg, ts, {"tag": "x"})
    save_checkpoint(p2, cfg, ts, {"tag": "x"})
    assert open(p1, "rb").read() == open(p2, "rb").read()

    loaded_cfg, loaded, meta = load_checkpoint(p1)
    assert loaded_cfg == cfg
    assert meta["tag"] == "x"
    assert loaded.step == ts.step
    for field in ("params", "m", "v"):
        saved, back = getattr(ts, field), getattr(loaded, field)
        assert list(back) == list(saved)
        for k in saved:
            np.testing.assert_array_equal(back[k], saved[k])


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(str(p))


def test_resume_reproduces_uninterrupted_run(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(epochs=8)  # 2 * 8 * 8 / (4 * 2) = 16 steps

    full_trainer = Trainer(man, cfg)
    full = full_trainer.init_state()
    full_metrics = full_trainer.run(full)

    half_trainer = Trainer(man, cfg)
    half = half_trainer.init_state()
    while half.step < 8:
        half_trainer.train_step(half)
    ckpt = str(tmp_path / "mid.bin")
    save_checkpoint(ckpt, cfg, half, None)

    _, resumed, _ = load_checkpoint(ckpt)
    tail_trainer = Trainer(man, cfg)
    tail_metrics = tail_trainer.run(resumed)

    assert [r["loss"] for r in tail_metrics] == [r["loss"] for r in full_metrics[8:]]
    for k in full.params:
        np.testing.assert_array_equal(resumed.params[k], full.params[k])


def test_run_training_writes_artifacts_and_resumes(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(epochs=4)  # 2 * 4 * 8 / (4 * 2) = 8 steps
    out = tmp_path / "run"
    out.mkdir()
    ts, metrics = run_training(man, cfg, out_dir=str(out), checkpoint_every=4)

    assert (out / "checkpoint_000004.bin").exists()
    assert (out / "checkpoint.bin").exists()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "synthrep-metrics"
    assert header["dataset_hash"] == man.hash()
    assert len(lines) == 1 + len(metrics)
    for line, rec in zip(lines[1:], metrics):
        parsed = json.loads(line)
        assert parsed["step"] == rec["step"]
        assert parsed["loss"] == rec["loss"]  # exact float round-trip
        assert parsed["lr"] == rec["lr"]

    ts2, metrics2 = run_training(
        man, cfg, str(tmp_path), resume_from=str(out / "checkpoint_000004.bin")
    )
    assert [r["loss"] for r in metrics2] == [r["loss"] for r in metrics[4:]]
    for k in ts.params:
        np.testing.assert_array_equal(ts2.params[k], ts.params[k])

    with pytest.raises(ValueError):
        run_training(
            man, tiny_cfg(epochs=8), str(tmp_path),
            resume_from=str(out / "checkpoint_000004.bin"),
        )


def test_resume_refuses_a_finished_checkpoint(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(epochs=1)  # 2 * 1 * 8 / (4 * 2) = 2 steps
    out = tmp_path / "run"
    out.mkdir()
    run_training(man, cfg, out_dir=str(out))
    ckpt = str(out / "checkpoint.bin")
    with pytest.raises(ValueError, match=r"checkpoint\.bin.*step 2"):
        run_training(man, cfg, str(tmp_path), resume_from=ckpt)


def test_resume_refuses_another_dataset(tmp_path):
    man, other = toy_manifest(), toy_manifest(seed=9)
    assert other.features.shape == man.features.shape
    assert other.hash() != man.hash()
    cfg = tiny_cfg(epochs=4)
    out = tmp_path / "run"
    out.mkdir()
    run_training(man, cfg, out_dir=str(out), checkpoint_every=4)
    with pytest.raises(ValueError, match="dataset"):
        run_training(other, cfg, str(tmp_path), resume_from=str(out / "checkpoint_000004.bin"))


def _saved_checkpoint(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(epochs=1)
    trainer = Trainer(man, cfg)
    ts = trainer.init_state()
    trainer.train_step(ts)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), cfg, ts, None)
    raw = path.read_bytes()
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    return path, raw, 16 + blob_len, [a["name"] for a in header["arrays"]]


def test_checkpoint_truncated_is_rejected_by_name(tmp_path):
    path, raw, arrays_start, names = _saved_checkpoint(tmp_path)
    for cut in (5, 12, arrays_start - 7):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=str(path)):
            load_checkpoint(str(path))
    for cut in (arrays_start, arrays_start + 3, (arrays_start + len(raw)) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        msg = str(exc.value)
        assert str(path) in msg
        assert any(repr(name) in msg for name in names)


def _rewrite_header(path, raw, edit):
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + blob_len :])


@pytest.mark.parametrize(
    "where, field",
    [
        ((), "arrays"),
        ((), "meta"),
        (("meta",), "train_config"),
        (("meta",), "step"),
        (("meta",), "opt_step"),
        (("arrays", 0), "name"),
        (("arrays", 0), "dtype"),
        (("arrays", 0), "shape"),
    ],
)
def test_checkpoint_missing_header_field_is_named(tmp_path, where, field):
    path, raw, _, _ = _saved_checkpoint(tmp_path)

    def drop(header):
        node = header
        for key in where:
            node = node[key]
        del node[field]

    _rewrite_header(path, raw, drop)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(path) in str(exc.value)
    assert repr(field) in str(exc.value)


def _rewrite_arrays(path, raw, edit):
    """Rewrite the checkpoint's arrays: edit(arrays) mutates a name -> array dict."""
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    arrays, offset = {}, 16 + blob_len
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"]))
        arrays[spec["name"]] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=offset
        ).reshape(spec["shape"])
        offset += count * dtype.itemsize
    edit(arrays)
    header["arrays"] = [
        {"name": k, "dtype": v.dtype.str, "shape": list(v.shape)} for k, v in arrays.items()
    ]
    blob = json.dumps(header).encode("utf-8")
    body = b"".join(np.ascontiguousarray(v).tobytes() for v in arrays.values())
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + body)


@pytest.mark.parametrize(
    "name, change",
    [
        ("params/img.head.l2.W", None),
        ("params/img.head.l3.W", lambda _: np.zeros(3)),
        ("opt_m/img.head.l2.W", lambda v: v[:, :-1]),
        ("params/img.head.l2.b", lambda v: v.astype(np.float32)),
        ("opt_v/img.head.n0.g", lambda v: v[:1]),
        ("opt_v/img.head.n1.b", lambda v: v.astype(">f8")),
    ],
    ids=["missing", "extra", "shape", "dtype", "norm_shape", "norm_byte_order"],
)
def test_checkpoint_arrays_must_match_the_config_layout(tmp_path, name, change):
    path, raw, _, _ = _saved_checkpoint(tmp_path)

    def edit(arrays):
        if change is None:
            del arrays[name]
        else:
            arrays[name] = change(arrays.get(name))

    _rewrite_arrays(path, raw, edit)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(path) in str(exc.value)
    assert repr(name) in str(exc.value)


def test_text_variant_checkpoint_holds_the_text_tower(tmp_path):
    man = toy_manifest()
    cfg = tiny_cfg(loss_variant="multi_positive_text", text_encoder=text_encoder_cfg(), epochs=1)
    trainer = Trainer(man, cfg)
    ts = trainer.init_state()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), cfg, ts, None)
    assert load_checkpoint(str(path))[1].params.keys() == ts.params.keys()
    raw = path.read_bytes()
    _rewrite_arrays(path, raw, lambda a: a.pop("opt_v/txt.head.l0.b"))
    with pytest.raises(ValueError, match="'opt_v/txt.head.l0.b'"):
        load_checkpoint(str(path))


def test_checkpoint_opt_step_other_than_step_is_rejected(tmp_path):
    path, raw, _, _ = _saved_checkpoint(tmp_path)
    _rewrite_header(path, raw, lambda h: h["meta"].update(opt_step=h["meta"]["step"] + 1))
    with pytest.raises(ValueError, match="opt_step") as exc:
        load_checkpoint(str(path))
    assert str(path) in str(exc.value)


def _set_steps(value):
    def edit(header):
        header["meta"].update(step=value, opt_step=value)

    return edit


def _set_first_shape_entry(header):
    header["arrays"][0]["shape"][0] += 0.5


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set_steps(2.9), "meta field 'step'"),
        (_set_steps("3"), "meta field 'step'"),
        (_set_steps(True), "meta field 'step'"),
        (_set_steps(-2), "meta field 'step'"),
        (lambda h: h["meta"].update(opt_step=1.0), "meta field 'opt_step'"),
        (_set_first_shape_entry, "array spec 0 field 'shape'"),
    ],
    ids=["step_float", "step_string", "step_bool", "step_negative", "opt_step_float",
         "shape_float"],
)
def test_checkpoint_mistyped_step_or_shape_is_rejected(tmp_path, edit, field):
    path, raw, _, _ = _saved_checkpoint(tmp_path)
    _rewrite_header(path, raw, edit)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(exc.value).startswith(f"{path}: {field} is invalid: ")


@pytest.mark.parametrize("field", ["batch_spec", "encoder", "text_encoder"])
def test_checkpoint_train_config_entry_that_is_no_object_is_rejected(tmp_path, field):
    path, raw, _, _ = _saved_checkpoint(tmp_path)
    _rewrite_header(path, raw, lambda h: h["meta"]["train_config"].update({field: 5}))
    with pytest.raises(ValueError, match="meta field 'train_config' is invalid") as exc:
        load_checkpoint(str(path))
    assert str(path) in str(exc.value)


def test_checkpoint_with_trailing_bytes_is_rejected(tmp_path):
    path, raw, _, _ = _saved_checkpoint(tmp_path)
    for junk in (b"\x00", b"trailing junk" * 3):
        path.write_bytes(raw + junk)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(path))


def test_write_metrics_round_trips_exact_floats(tmp_path):
    path = str(tmp_path / "m.jsonl")
    recs = [
        {"step": 1, "epoch_equiv": 1 / 3, "loss": math.pi, "lr": 1e-7, "grad_norm": 0.1}
    ]
    write_metrics(path, recs)
    parsed = json.loads(open(path).read().splitlines()[0])
    assert parsed["loss"] == math.pi
    assert parsed["epoch_equiv"] == 1 / 3
    assert parsed["lr"] == 1e-7


# -- golden train state -----------------------------------------------------------
#
# sha256 over save_checkpoint bytes then write_metrics bytes after 30 steps
# on a 40-caption x 6 manifest. They pin params, Adam moments, the stored
# train config and every metrics line, so a refactor of the step or the
# checkpoint format that changes a single output bit fails here.

_GOLDEN_TRAIN_STATE_SHA256 = {
    "multi_positive_c120": "b5d15caa6ed1f12407ec55624888a319fcbca0c5dee22caebd9b063f169da602",
    "simclr_reduction_c40": "23fdf4f4ea6c7423762bcdce07fe86446b063ff5362f02bc79de21f8be39c6eb",
    "multi_positive_text": "228666d52bed66218c990a2beb19b96c79968c810816fba2117648d0f8cbcc4d",
    "pair_only": "c3886023c4fa7b91106e36114d7e9037b41292777e14e098bef1be7fca68bd5c",
    "transformer": "0656c8c4c3060991606dac512a747dca265a0481ec5056d82eb99fe1b76885f1",
    "grad_clip_per_sample": "5128322fc6553412fabd34386dd1cc306b4ea5268eb5283712b404d3d58fa124",
}

_GOLDEN_CONFIGS = {
    "multi_positive_c120": dict(batch_spec=BatchSpec(20, 6), epochs=45),
    "simclr_reduction_c40": dict(
        loss_variant="simclr_reduction", batch_spec=BatchSpec(20, 2), epochs=15
    ),
    "multi_positive_text": dict(
        loss_variant="multi_positive_text",
        batch_spec=BatchSpec(10, 4),
        epochs=15,
        text_encoder=EncoderConfig(),
    ),
    "pair_only": dict(
        loss_variant="pair_only",
        batch_spec=BatchSpec(20, 1),
        epochs=8,
        text_encoder=EncoderConfig(),
    ),
    "transformer": dict(
        batch_spec=BatchSpec(10, 4), epochs=15, encoder=EncoderConfig(backbone="transformer")
    ),
    "grad_clip_per_sample": dict(
        batch_spec=BatchSpec(10, 4),
        epochs=15,
        grad_clip=2.0,
        encoder=EncoderConfig(head_norm="per_sample"),
    ),
}


@pytest.fixture(scope="module")
def golden_manifest():
    gcfg = GeneratorConfig(feature_dim=32, num_classes=5, ddim_steps=5)
    recs = synth_captions(40, 5, seed=4)
    return generate_dataset([r.prompt for r in recs], 6, gcfg, seed=8)


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_train_state_after_30_steps_keeps_its_bits(golden_manifest, tmp_path, name):
    cfg = TrainConfig(seed=11, **_GOLDEN_CONFIGS[name])
    trainer = Trainer(golden_manifest, cfg)
    ts = trainer.init_state()
    metrics = [trainer.train_step(ts) for _ in range(30)]
    ckpt, lines = tmp_path / "ckpt.bin", tmp_path / "metrics.jsonl"
    save_checkpoint(str(ckpt), cfg, ts, {"dataset_hash": golden_manifest.hash()})
    write_metrics(str(lines), metrics)
    digest = hashlib.sha256(ckpt.read_bytes() + lines.read_bytes()).hexdigest()
    assert digest == _GOLDEN_TRAIN_STATE_SHA256[name]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
@pytest.mark.parametrize("spec", [BatchSpec(20, 2), BatchSpec(20, 6)], ids=["c40", "c120"])
def test_steady_train_steps_take_almost_no_page_faults(golden_manifest, spec):
    # a step that frees its large temporaries and allocates them again faults
    # the pages back in on every step: about a thousand faults per step
    import resource

    cfg = TrainConfig(seed=11, batch_spec=spec, epochs=75)  # 50 steps or more
    trainer = Trainer(golden_manifest, cfg)
    ts = trainer.init_state()
    for _ in range(10):
        trainer.train_step(ts)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        trainer.train_step(ts)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 40
