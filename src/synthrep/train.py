"""Training loop: AdamW, warmup + cosine schedule, compute accounting.

Epochs are counted in two-view-equivalent units: one epoch means every
caption contributes two image forwards, so a run with m samples per caption
makes epochs * (2 / m) passes over the captions and the total image-forward
count is exactly epochs * 2 * num_captions for every m. Batch composition at
step k is a pure function of (seed, k), so training can stop and resume from
a checkpoint with bit-identical results; checkpoints therefore store no RNG
state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Batch, BatchSpec, augment_batch, sample_batch
from .encoder import Encoder, EncoderConfig
from .generator import caption_to_component
from .losses import (
    EmbeddingBatch,
    multi_positive_loss,
    multi_positive_with_text_loss,
    pair_contrastive_loss,
)
from .manifest import DatasetManifest, _read_field, canonical_json, fmt_float, json_digest
from .seeding import SALT_EPOCH, derive_u64, rng_from

__all__ = [
    "LOSS_VARIANTS",
    "TrainConfig",
    "OptimizerState",
    "TrainState",
    "TrainingDivergedError",
    "lr_at",
    "init_opt_state",
    "adamw_step",
    "Trainer",
    "sub_params",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
    "write_metrics",
    "train_config_hash",
]

LOSS_VARIANTS = (
    "multi_positive",  # n captions x m samples, all same-caption pairs positive
    "simclr_reduction",  # two augmented views of one image per caption
    "pair_only",  # dual-encoder image/text pair loss only
    "multi_positive_text",  # multi_positive + 0.5 * (i2t + t2i)
)

_TEXT_VARIANTS = ("pair_only", "multi_positive_text")


class TrainingDivergedError(RuntimeError):
    """Loss or gradients became non-finite; training aborts with diagnostics."""


@dataclass
class TrainConfig:
    batch_spec: BatchSpec = field(default_factory=lambda: BatchSpec(20, 6))
    loss_variant: str = "multi_positive"
    # no published temperature exists for this objective family at this
    # scale; 0.5 keeps the toy task unsolved at init so training has signal
    tau: float = 0.5
    base_lr: float = 1.0e-2
    weight_decay: float = 0.1
    betas: tuple = (0.9, 0.98)
    epochs: int = 192
    warmup_epochs: float = 1.0
    augment_strength: float = 0.1
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text_encoder: EncoderConfig | None = None
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.betas = tuple(self.betas)
        self.validate()

    def validate(self) -> None:
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss_variant {self.loss_variant!r}")
        if self.loss_variant == "simclr_reduction" and self.batch_spec.samples_per_caption != 2:
            raise ValueError("simclr_reduction uses exactly 2 views per caption")
        if self.loss_variant == "pair_only" and self.batch_spec.samples_per_caption != 1:
            raise ValueError("pair_only uses exactly 1 image per caption")
        b1, b2 = self.betas
        if not (0 < b1 < 1 and 0 < b2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must be in [0, epochs)")
        if not np.isfinite(self.augment_strength) or self.augment_strength < 0:
            raise ValueError("augment_strength must be finite and >= 0")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")
        if self.uses_text:
            if self.text_encoder is None:
                raise ValueError(f"{self.loss_variant} requires a text_encoder config")
            if self.text_encoder.head_out != self.encoder.head_out:
                raise ValueError("image and text towers must share head_out")

    @property
    def uses_text(self) -> bool:
        return self.loss_variant in _TEXT_VARIANTS

    @property
    def images_per_batch(self) -> int:
        return self.batch_spec.total

    @property
    def reference_batch(self) -> int:
        # two-view single-positive runs follow the 256-image convention,
        # multi-positive runs the 512-image convention
        return 256 if self.loss_variant == "simclr_reduction" else 512

    @property
    def peak_lr(self) -> float:
        return self.base_lr * self.images_per_batch / self.reference_batch

    def to_dict(self) -> dict:
        return {
            "batch_spec": {
                "num_captions": self.batch_spec.num_captions,
                "samples_per_caption": self.batch_spec.samples_per_caption,
            },
            "loss_variant": self.loss_variant,
            "tau": self.tau,
            "base_lr": self.base_lr,
            "weight_decay": self.weight_decay,
            "betas": list(self.betas),
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "augment_strength": self.augment_strength,
            "encoder": self.encoder.to_dict(),
            "text_encoder": None if self.text_encoder is None else self.text_encoder.to_dict(),
            "grad_clip": self.grad_clip,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if isinstance(d.get("batch_spec"), dict):
            d["batch_spec"] = BatchSpec(**d["batch_spec"])
        if isinstance(d.get("encoder"), dict):
            d["encoder"] = EncoderConfig.from_dict(d["encoder"])
        if isinstance(d.get("text_encoder"), dict):
            d["text_encoder"] = EncoderConfig.from_dict(d["text_encoder"])
        return TrainConfig(**d)


def train_config_hash(cfg: TrainConfig) -> str:
    """Stable hex digest of the full training configuration."""
    return json_digest(cfg.to_dict())


def lr_at(step: int, cfg: TrainConfig, steps_per_epoch: float) -> float:
    """Linear warmup from 0 to peak, then half-cosine decay to 0."""
    if step < 0:
        raise ValueError("step must be >= 0")
    peak = cfg.peak_lr
    warmup = cfg.warmup_epochs * steps_per_epoch
    total = cfg.epochs * steps_per_epoch
    if warmup > 0 and step < warmup:
        return peak * step / warmup
    if step >= total:
        return 0.0
    t = (step - warmup) / (total - warmup)
    return peak * 0.5 * (1.0 + np.cos(np.pi * t))


@dataclass
class OptimizerState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_opt_state(params: dict[str, np.ndarray]) -> OptimizerState:
    return OptimizerState(
        step=0,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    opt: OptimizerState,
    lr: float,
    betas: tuple,
    weight_decay: float,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected adaptive update with decoupled weight decay, in place."""
    b1, b2 = betas
    opt.step += 1
    bc1 = 1.0 - b1**opt.step
    bc2 = 1.0 - b2**opt.step
    for k in sorted(params):
        g = grads[k]
        opt.m[k] *= b1
        opt.m[k] += (1 - b1) * g
        opt.v[k] *= b2
        opt.v[k] += (1 - b2) * g * g
        update = (opt.m[k] / bc1) / (np.sqrt(opt.v[k] / bc2) + eps)
        params[k] -= lr * (update + weight_decay * params[k])


@dataclass
class TrainState:
    """Everything that evolves during a run; checkpoints serialize this."""

    params: dict[str, np.ndarray]  # keys prefixed "img." / "txt."
    norm_state: dict[str, np.ndarray]
    opt: OptimizerState
    step: int = 0


def sub_params(d: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """Prefix-stripped view; values are shared, not copied."""
    return {k[len(prefix) :]: v for k, v in d.items() if k.startswith(prefix)}


class Trainer:
    """Binds a manifest to a config and executes deterministic steps."""

    def __init__(self, manifest: DatasetManifest, cfg: TrainConfig):
        cfg.validate()
        self.manifest = manifest
        self.cfg = cfg
        self.image_enc = Encoder(cfg.encoder)
        self.text_enc = Encoder(cfg.text_encoder) if cfg.uses_text else None

        if cfg.encoder.input_dim != manifest.config.feature_dim:
            raise ValueError("encoder input_dim must match manifest feature_dim")
        if cfg.uses_text and cfg.text_encoder.input_dim != manifest.config.feature_dim:
            raise ValueError("text encoder input_dim must match manifest feature_dim")

        self.captions = manifest.unique_caption_ids
        n_caps = self.captions.size
        n = cfg.batch_spec.num_captions
        m = cfg.batch_spec.samples_per_caption
        if n_caps % n != 0:
            raise ValueError(
                f"batch num_captions {n} must divide the {n_caps} dataset captions"
            )
        forwards_target = 2 * cfg.epochs * n_caps
        if forwards_target % (n * m) != 0:
            raise ValueError(
                f"2*epochs*num_captions = {forwards_target} is not divisible by the "
                f"batch image count {n * m}; adjust epochs or batch_spec for exact "
                "compute accounting"
            )
        self.total_steps = forwards_target // (n * m)
        self.steps_per_pass = n_caps // n
        self.steps_per_epoch = self.total_steps / cfg.epochs
        self._perm_cache: tuple[int, np.ndarray] | None = None
        self._text_cache: dict[int, np.ndarray] = {}

    # -- state ----------------------------------------------------------------

    def init_state(self) -> TrainState:
        params = {
            "img." + k: v
            for k, v in self.image_enc.init_params(derive_u64(self.cfg.seed, 0)).items()
        }
        norm_state = {"img." + k: v for k, v in self.image_enc.init_state().items()}
        if self.text_enc is not None:
            params.update(
                {
                    "txt." + k: v
                    for k, v in self.text_enc.init_params(
                        derive_u64(self.cfg.seed, 1)
                    ).items()
                }
            )
            norm_state.update(
                {"txt." + k: v for k, v in self.text_enc.init_state().items()}
            )
        return TrainState(params=params, norm_state=norm_state, opt=init_opt_state(params))

    # -- deterministic batch assembly ------------------------------------------

    def _caption_slice(self, step: int) -> np.ndarray:
        pass_idx, offset = divmod(step, self.steps_per_pass)
        if self._perm_cache is None or self._perm_cache[0] != pass_idx:
            perm = rng_from(SALT_EPOCH, self.cfg.seed, pass_idx).permutation(self.captions)
            self._perm_cache = (pass_idx, perm)
        n = self.cfg.batch_spec.num_captions
        return self._perm_cache[1][offset * n : (offset + 1) * n]

    def _text_input(self, caption_id: int) -> np.ndarray:
        if caption_id not in self._text_cache:
            prompt = self.manifest.prompt_for(caption_id)
            mean, _ = caption_to_component(prompt, self.manifest.config)
            self._text_cache[caption_id] = mean
        return self._text_cache[caption_id]

    def assemble(self, step: int) -> tuple[Batch, np.ndarray | None]:
        """Batch (and text inputs) for a step; pure function of (seed, step)."""
        cfg = self.cfg
        cids = self._caption_slice(step)
        step_seed = derive_u64(cfg.seed, 2, step)
        if cfg.loss_variant == "simclr_reduction":
            # two views of each caption's first image, caption-major
            rows = np.array(
                [self.manifest.rows_for_caption(int(c))[0] for c in cids]
            )
            feats = np.repeat(self.manifest.features[rows], 2, axis=0)
            ids = np.repeat(cids, 2)
            batch = Batch(features=feats, caption_ids=ids)
        else:
            batch = sample_batch(self.manifest, cfg.batch_spec, step_seed, caption_ids=cids)
        feats = augment_batch(batch.features, cfg.augment_strength, step_seed)
        batch = Batch(features=feats, caption_ids=batch.caption_ids)

        texts = None
        if cfg.uses_text:
            texts = np.stack([self._text_input(int(c)) for c in cids])
        return batch, texts

    # -- one optimization step ---------------------------------------------------

    def train_step(self, ts: TrainState) -> dict:
        # divergence is detected explicitly below (embeddings, loss, grad norm),
        # so numpy's overflow warnings would only precede the error on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = self.cfg
            lr = lr_at(ts.step, cfg, self.steps_per_epoch)
            batch, texts = self.assemble(ts.step)

            img_params = sub_params(ts.params, "img.")
            img_state = sub_params(ts.norm_state, "img.")
            _, proj, tape = self.image_enc.forward(
                img_params, batch.features, state=img_state, training=True, update_running=True
            )
            self._check_finite("image", proj, ts.step, lr)

            grads: dict[str, np.ndarray] = {}
            if cfg.uses_text:
                txt_params = sub_params(ts.params, "txt.")
                txt_state = sub_params(ts.norm_state, "txt.")
                _, tproj, ttape = self.text_enc.forward(
                    txt_params, texts, state=txt_state, training=True, update_running=True
                )
                self._check_finite("text", tproj, ts.step, lr)
                cids = batch.caption_ids[:: cfg.batch_spec.samples_per_caption]
                if cfg.loss_variant == "pair_only":
                    out = pair_contrastive_loss(proj, tproj, cfg.tau)
                    loss = 0.5 * (out.loss_i2t + out.loss_t2i)
                    grad_proj = 0.5 * out.grad_image
                    grad_tproj = 0.5 * out.grad_text
                else:
                    out = multi_positive_with_text_loss(
                        EmbeddingBatch(proj, batch.caption_ids), tproj, cids, cfg.tau
                    )
                    loss = out.total
                    grad_proj = out.grad_images
                    grad_tproj = out.grad_texts
                for k, v in self.text_enc.backward(txt_params, ttape, grad_tproj).items():
                    grads["txt." + k] = v
            else:
                out = multi_positive_loss(EmbeddingBatch(proj, batch.caption_ids), cfg.tau)
                loss = out.loss
                grad_proj = out.grad_embeddings

            for k, v in self.image_enc.backward(img_params, tape, grad_proj).items():
                grads["img." + k] = v

            grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
            if not np.isfinite(loss) or not np.isfinite(grad_norm):
                raise TrainingDivergedError(
                    f"non-finite loss ({loss}) or gradient norm ({grad_norm}) at step "
                    f"{ts.step}; lr={lr:.3g}"
                )
            if cfg.grad_clip is not None and grad_norm > cfg.grad_clip:
                scale = cfg.grad_clip / grad_norm
                for g in grads.values():
                    g *= scale

            adamw_step(ts.params, grads, ts.opt, lr, cfg.betas, cfg.weight_decay)
            ts.step += 1
            return {
                "step": ts.step,
                "epoch_equiv": ts.step / self.steps_per_epoch,
                "loss": float(loss),
                "lr": float(lr),
                "grad_norm": grad_norm,
            }

    @staticmethod
    def _check_finite(tower: str, proj: np.ndarray, step: int, lr: float) -> None:
        if not np.all(np.isfinite(proj)):
            raise TrainingDivergedError(
                f"non-finite {tower} embeddings at step {step}; lr={lr:.3g}"
            )

    def run(self, ts: TrainState, on_step=None) -> list[dict]:
        metrics = []
        while ts.step < self.total_steps:
            rec = self.train_step(ts)
            metrics.append(rec)
            if on_step is not None:
                on_step(ts, rec)
        return metrics


def run_training(
    manifest: DatasetManifest,
    cfg: TrainConfig,
    out_dir: str | None = None,
    checkpoint_every: int = 0,
    resume_from: str | None = None,
) -> tuple[TrainState, list[dict]]:
    """Train to completion; optionally write metrics and checkpoints.

    Artifacts under out_dir: metrics.jsonl (one record per step) and
    checkpoint.bin (final state), plus checkpoint_NNNNNN.bin every
    `checkpoint_every` steps when requested.
    """
    import os

    trainer = Trainer(manifest, cfg)
    dataset_hash = manifest.hash()
    if resume_from is not None:
        loaded_cfg, ts, meta = load_checkpoint(resume_from)
        if loaded_cfg.to_dict() != cfg.to_dict():
            raise ValueError("checkpoint config does not match requested config")
        if meta.get("dataset_hash") != dataset_hash:
            raise ValueError(
                f"{resume_from}: checkpoint was trained on dataset "
                f"{meta.get('dataset_hash')}, not on this manifest ({dataset_hash})"
            )
        if ts.step >= trainer.total_steps:
            raise ValueError(
                f"{resume_from}: checkpoint is at step {ts.step}, the final step of "
                f"this run ({trainer.total_steps}); there is nothing to resume"
            )
    else:
        ts = trainer.init_state()

    cfg_hash = train_config_hash(cfg)
    ckpt_meta = {"config_hash": cfg_hash, "dataset_hash": dataset_hash}

    def on_step(state: TrainState, rec: dict) -> None:
        if (
            out_dir is not None
            and checkpoint_every > 0
            and state.step % checkpoint_every == 0
            and state.step < trainer.total_steps
        ):
            save_checkpoint(
                os.path.join(out_dir, f"checkpoint_{state.step:06d}.bin"),
                cfg,
                state,
                ckpt_meta,
            )

    metrics = trainer.run(ts, on_step=on_step)
    if out_dir is not None:
        write_metrics(
            os.path.join(out_dir, "metrics.jsonl"),
            metrics,
            header={"kind": "synthrep-metrics", **ckpt_meta},
        )
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), cfg, ts, ckpt_meta)
    return ts, metrics


def write_metrics(path: str, metrics: list[dict], header: dict | None = None) -> None:
    """Line-delimited metrics with exact float formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(canonical_json(header) + "\n")
        for rec in metrics:
            fh.write(
                '{"step":%d,"epoch_equiv":%s,"loss":%s,"lr":%s,"grad_norm":%s}\n'
                % (
                    rec["step"],
                    fmt_float(rec["epoch_equiv"]),
                    fmt_float(rec["loss"]),
                    fmt_float(rec["lr"]),
                    fmt_float(rec["grad_norm"]),
                )
            )


# -- checkpoint container -------------------------------------------------------
#
# MAGIC, then a little-endian uint64 header length, then a sorted-key JSON
# header, then raw array bytes concatenated in header order. Contains no
# timestamps, so identical states serialize to identical bytes.

_MAGIC = b"SRENCKPT"
_CKPT_FORMAT = 1


def save_checkpoint(
    path: str, cfg: TrainConfig, ts: TrainState, extra_meta: dict | None = None
) -> None:
    arrays: dict[str, np.ndarray] = {}
    for k, v in ts.params.items():
        arrays["params/" + k] = v
    for k, v in ts.opt.m.items():
        arrays["opt_m/" + k] = v
    for k, v in ts.opt.v.items():
        arrays["opt_v/" + k] = v
    for k, v in ts.norm_state.items():
        arrays["norm/" + k] = v

    names = sorted(arrays)
    header = {
        "format": _CKPT_FORMAT,
        "meta": {
            "step": ts.step,
            "opt_step": ts.opt.step,
            "train_config": cfg.to_dict(),
            **(extra_meta or {}),
        },
        "arrays": [
            {
                "name": k,
                "dtype": arrays[k].dtype.str,
                "shape": list(arrays[k].shape),
            }
            for k in names
        ],
    }
    blob = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for k in names:
            fh.write(np.ascontiguousarray(arrays[k]).tobytes())


def _checkpoint_layout(cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every array a checkpoint of `cfg` holds.

    `Encoder.init_params` under params/, opt_m/ and opt_v/ and
    `Encoder.init_state` under norm/, for the image tower and, in the text
    variants, the text tower.
    """
    towers = {"img.": cfg.encoder}
    if cfg.uses_text:
        towers["txt."] = cfg.text_encoder
    layout = {}
    for prefix, enc_cfg in towers.items():
        enc = Encoder(enc_cfg)
        for k, v in enc.init_params(0).items():
            for group in ("params/", "opt_m/", "opt_v/"):
                layout[group + prefix + k] = v.shape
        for k, v in enc.init_state().items():
            layout["norm/" + prefix + k] = v.shape
    return layout


def load_checkpoint(path: str) -> tuple[TrainConfig, TrainState, dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        raw_len = fh.read(8)
        blob_len = int.from_bytes(raw_len, "little")
        blob = fh.read(blob_len)
        if len(raw_len) != 8 or len(blob) != blob_len:
            raise ValueError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable checkpoint header ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != _CKPT_FORMAT:
            raise ValueError(f"{path}: unsupported checkpoint format")
        meta = _read_field(header, "meta", dict, path)
        cfg = _read_field(meta, "train_config", TrainConfig.from_dict, path, "meta")
        step = _read_field(meta, "step", int, path, "meta")
        opt_step = _read_field(meta, "opt_step", int, path, "meta")
        layout = _checkpoint_layout(cfg)
        arrays: dict[str, np.ndarray] = {}
        for i, spec in enumerate(_read_field(header, "arrays", list, path)):
            where = f"array spec {i}"
            name = _read_field(spec, "name", str, path, where)
            dtype = _read_field(spec, "dtype", np.dtype, path, where)
            shape = _read_field(spec, "shape", lambda v: tuple(map(int, v)), path, where)
            if name not in layout:
                raise ValueError(f"{path}: array {name!r} is not in its train_config's layout")
            if name in arrays:
                raise ValueError(f"{path}: array {name!r} appears twice")
            if shape != layout[name]:
                raise ValueError(
                    f"{path}: array {name!r} has shape {shape}; its train_config "
                    f"implies {layout[name]}"
                )
            if dtype != np.float64:
                raise ValueError(f"{path}: array {name!r} has dtype {dtype.str}, not float64")
            nbytes = (int(np.prod(shape)) if shape else 1) * dtype.itemsize
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(
                    f"{path}: array {name!r} is truncated ({len(buf)} of {nbytes} bytes)"
                )
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    missing = sorted(layout.keys() - arrays.keys())
    if missing:
        raise ValueError(f"{path}: array {missing[0]!r} is missing ({len(missing)} missing)")

    params = {k[len("params/") :]: v for k, v in arrays.items() if k.startswith("params/")}
    opt = OptimizerState(
        step=opt_step,
        m={k[len("opt_m/") :]: v for k, v in arrays.items() if k.startswith("opt_m/")},
        v={k[len("opt_v/") :]: v for k, v in arrays.items() if k.startswith("opt_v/")},
    )
    norm = {k[len("norm/") :]: v for k, v in arrays.items() if k.startswith("norm/")}
    ts = TrainState(params=params, norm_state=norm, opt=opt, step=step)
    return cfg, ts, meta
