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
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import BatchSpec, augment_batch, sample_batch
from .encoder import Encoder, EncoderConfig
from .generator import PromptSpec, caption_to_component
from .losses import EmbeddingBatch, multi_positive_loss, pair_contrastive_loss
from .manifest import (
    DatasetManifest,
    _of_type,
    _read_field,
    _write_lines,
    canonical_json,
    fmt_float,
    json_digest,
)
from .seeding import SALT_EPOCH, _check_numbers, derive_u64, rng_from

__all__ = [
    "TrainConfig",
    "TrainState",
    "TrainingDivergedError",
    "lr_at",
    "adamw_step",
    "Trainer",
    "sub_params",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
    "write_metrics",
]

LOSS_VARIANTS = (
    "multi_positive",  # n captions x m samples, all same-caption pairs positive
    "simclr_reduction",  # two augmented views of one image per caption
    "pair_only",  # the image-text term alone, 1 image per caption
    "multi_positive_text",  # multi-positive term + image-text term
)

_TEXT_VARIANTS = ("pair_only", "multi_positive_text")


class TrainingDivergedError(RuntimeError):
    """Loss or gradients became non-finite; training aborts with diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    batch_spec: BatchSpec = field(default_factory=lambda: BatchSpec(20, 6))
    loss_variant: str = "multi_positive"
    # no published temperature exists for this objective family at this
    # scale; 0.5 keeps the toy task unsolved at init so training has signal
    tau: float = 0.5
    base_lr: float = 1.0e-2
    weight_decay: float = 0.1
    betas: tuple[float, ...] = (0.9, 0.98)
    epochs: int = 192
    warmup_epochs: float = 1.0
    augment_strength: float = 0.1
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text_encoder: EncoderConfig | None = None
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(self.betas))
        _check_numbers(self)
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError("tau must be finite and > 0")
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
    def reference_batch(self) -> int:
        # two-view single-positive runs follow the 256-image convention,
        # multi-positive runs the 512-image convention
        return 256 if self.loss_variant == "simclr_reduction" else 512

    @property
    def peak_lr(self) -> float:
        return self.base_lr * self.batch_spec.total / self.reference_batch

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if "batch_spec" in d:
            d["batch_spec"] = BatchSpec(**d["batch_spec"])
        if "encoder" in d:
            d["encoder"] = EncoderConfig(**d["encoder"])
        if d.get("text_encoder") is not None:
            d["text_encoder"] = EncoderConfig(**d["text_encoder"])
        return TrainConfig(**d)


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
class TrainState:
    """Everything that evolves during a run; checkpoints serialize this."""

    params: dict[str, np.ndarray]  # keys prefixed "img." / "txt."
    m: dict[str, np.ndarray]  # AdamW first moments, keyed like params
    v: dict[str, np.ndarray]  # AdamW second moments, keyed like params
    step: int = 0  # optimizer steps taken


def _towers(cfg: TrainConfig) -> list[tuple[str, Encoder]]:
    """(key prefix, encoder) of each tower: image, and text in the text variants."""
    configs = [("img.", cfg.encoder), ("txt.", cfg.text_encoder)][: 1 + cfg.uses_text]
    return [(prefix, Encoder(enc_cfg)) for prefix, enc_cfg in configs]


def _init_state(cfg: TrainConfig) -> TrainState:
    """Step-0 state: the image tower from seed index 0 and, in the text
    variants, the text tower from index 1; both moments zero."""
    params = {}
    for index, (prefix, enc) in enumerate(_towers(cfg)):
        seed = derive_u64(cfg.seed, index)
        params.update((prefix + k, v) for k, v in enc.init_params(seed).items())
    return TrainState(
        params=params,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adamw_step(
    ts: TrainState,
    grads: dict[str, np.ndarray],
    lr: float,
    betas: tuple,
    weight_decay: float,
    scratch: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    """Bias-corrected adaptive update with decoupled weight decay (eps 1e-8):
    advances `ts` in place by one optimizer step. Every intermediate is
    written into `scratch[k]`, two float64 arrays of each parameter's shape.
    """
    b1, b2 = betas
    ts.step += 1
    bc1 = 1.0 - b1**ts.step
    bc2 = 1.0 - b2**ts.step
    for k in sorted(ts.params):
        g, p, m, v = grads[k], ts.params[k], ts.m[k], ts.v[k]
        t, u = scratch[k]
        m *= b1
        np.multiply(1 - b1, g, out=t)
        m += t
        v *= b2
        np.multiply(1 - b2, g, out=t)
        t *= g
        v += t
        # p -= lr * ((m / bc1) / (sqrt(v / bc2) + 1e-8) + weight_decay * p)
        np.divide(m, bc1, out=t)
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += 1e-8
        t /= u
        np.multiply(weight_decay, p, out=u)
        t += u
        t *= lr
        p -= t


def sub_params(d: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """Prefix-stripped view; values are shared, not copied."""
    return {k[len(prefix) :]: v for k, v in d.items() if k.startswith(prefix)}


def _accounting_error(num_captions: int, n: int, m: int, epochs: int) -> str:
    """Why batches of n captions times m samples cannot train `epochs`
    epochs over `num_captions` captions with exact compute accounting, or ""
    if they can: n must divide the caption count, and n * m the image-forward
    count 2 * epochs * num_captions."""
    if num_captions % n != 0:
        return f"batch num_captions {n} must divide the {num_captions} dataset captions"
    forwards = 2 * epochs * num_captions
    if forwards % (n * m) != 0:
        return (
            f"2*epochs*num_captions = {forwards} is not divisible by the batch image "
            f"count {n * m}; adjust epochs or batch_spec for exact compute accounting"
        )
    return ""


class Trainer:
    """Binds a manifest to a config and executes deterministic steps."""

    def __init__(self, manifest: DatasetManifest, cfg: TrainConfig):
        self.manifest = manifest
        self.cfg = cfg
        self.towers = _towers(cfg)

        if cfg.encoder.input_dim != manifest.config.feature_dim:
            raise ValueError("encoder input_dim must match manifest feature_dim")
        if cfg.uses_text and cfg.text_encoder.input_dim != manifest.config.feature_dim:
            raise ValueError("text encoder input_dim must match manifest feature_dim")

        # the caption index: each caption's rows in manifest order (the
        # argsort is stable), and the captions in first-appearance order
        order = np.argsort(manifest.caption_ids, kind="stable")
        ids = manifest.caption_ids[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        self.caption_rows = dict(zip(ids[starts].tolist(), np.split(order, starts[1:])))
        first_rows = np.sort(order[starts])
        self.captions = manifest.caption_ids[first_rows]
        n_caps = self.captions.size
        n = cfg.batch_spec.num_captions
        m = cfg.batch_spec.samples_per_caption
        problem = _accounting_error(n_caps, n, m, cfg.epochs)
        if problem:
            raise ValueError(problem)
        self.total_steps = 2 * cfg.epochs * n_caps // (n * m)
        self.steps_per_pass = n_caps // n
        self.steps_per_epoch = self.total_steps / cfg.epochs
        fewest = min(rows.size for rows in self.caption_rows.values())
        if cfg.loss_variant != "simclr_reduction" and fewest < m:
            raise ValueError(f"batches take {m} samples per caption; a caption has {fewest}")
        # in the text variants, each caption's text input: the conditional
        # mean of the prompt that its first row records
        self.text_inputs = {}
        for row in first_rows.tolist() if cfg.uses_text else ():
            cid = int(manifest.caption_ids[row])
            prompt = PromptSpec(cid, int(manifest.class_ids[row]), int(manifest.prompt_seeds[row]))
            self.text_inputs[cid] = caption_to_component(prompt, manifest.config)[0]
        self._perm_cache: tuple[int, np.ndarray] | None = None
        # parameter key -> two arrays of its shape for the gradient norm and
        # AdamW's intermediates; kept across steps, so that a step does not
        # free and fault back in megabytes of temporaries
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- state ----------------------------------------------------------------

    def init_state(self) -> TrainState:
        return _init_state(self.cfg)

    # -- deterministic batch assembly ------------------------------------------

    def _caption_slice(self, step: int) -> np.ndarray:
        pass_idx, offset = divmod(step, self.steps_per_pass)
        if self._perm_cache is None or self._perm_cache[0] != pass_idx:
            perm = rng_from(SALT_EPOCH, self.cfg.seed, pass_idx).permutation(self.captions)
            self._perm_cache = (pass_idx, perm)
        n = self.cfg.batch_spec.num_captions
        return self._perm_cache[1][offset * n : (offset + 1) * n]

    def assemble(self, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(features, caption ids, text inputs or None) of a step's caption-major
        batch; a pure function of (seed, step)."""
        cfg = self.cfg
        cids = self._caption_slice(step)
        m = cfg.batch_spec.samples_per_caption
        step_seed = derive_u64(cfg.seed, 2, step)
        if cfg.loss_variant == "simclr_reduction":
            # two views of each caption's first image
            rows = np.repeat([self.caption_rows[int(c)][0] for c in cids], m)
        else:
            rows = sample_batch(self.caption_rows, cids, m, step_seed)
        feats = augment_batch(self.manifest.features[rows], cfg.augment_strength, step_seed)
        texts = None
        if cfg.uses_text:
            texts = np.stack([self.text_inputs[c] for c in cids.tolist()])
        return feats, np.repeat(cids, m), texts

    # -- one optimization step ---------------------------------------------------

    def train_step(self, ts: TrainState) -> dict:
        # divergence is detected explicitly below (embeddings, loss, grad norm),
        # so numpy's overflow warnings would only precede the error on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = self.cfg
            lr = lr_at(ts.step, cfg, self.steps_per_epoch)
            feats, caption_ids, texts = self.assemble(ts.step)

            # forward every tower: the image tower, then the text tower
            params, tapes, projs = [], [], []
            for (prefix, enc), x in zip(self.towers, (feats, texts)):
                params.append(sub_params(ts.params, prefix))
                _, proj, tape = enc.forward(params[-1], x)
                if not np.all(np.isfinite(proj)):
                    tower = "image" if prefix == "img." else "text"
                    raise TrainingDivergedError(
                        f"non-finite {tower} embeddings at step {ts.step}; lr={lr:.3g}"
                    )
                tapes.append(tape)
                projs.append(proj)

            # the loss terms: (loss, gradient for each tower it reaches)
            images = EmbeddingBatch(projs[0], caption_ids)
            terms = []
            if cfg.loss_variant != "pair_only":
                out = multi_positive_loss(images, cfg.tau)
                terms.append((out.loss, out.grad_embeddings))
            if cfg.uses_text:
                text_ids = caption_ids[:: cfg.batch_spec.samples_per_caption]
                terms.append(pair_contrastive_loss(images, projs[1], text_ids, cfg.tau))
            # summed from the first term, not from zero, since 0.0 + -0.0 is +0.0
            loss, *grad_projs = terms[0]
            for term_loss, *term_grads in terms[1:]:
                loss = loss + term_loss
                summed = [g + t for g, t in zip(grad_projs, term_grads)]
                grad_projs = summed + term_grads[len(summed) :]

            # backward in reverse tower order; the gradient norm below sums
            # in this key order, text tower first
            grads: dict[str, np.ndarray] = {}
            for i in reversed(range(len(self.towers))):
                prefix, enc = self.towers[i]
                dparams = enc.backward(params[i], tapes[i], grad_projs[i])
                grads.update((prefix + k, v) for k, v in dparams.items())

            if not self._scratch:
                self._scratch = {
                    k: (np.empty(p.shape), np.empty(p.shape)) for k, p in ts.params.items()
                }
            squares = 0.0
            for k, g in grads.items():
                t = self._scratch[k][0]
                np.multiply(g, g, out=t)
                squares += float(np.sum(t))
            grad_norm = float(np.sqrt(squares))
            if not np.isfinite(loss) or not np.isfinite(grad_norm):
                raise TrainingDivergedError(
                    f"non-finite loss ({loss}) or gradient norm ({grad_norm}) at step "
                    f"{ts.step}; lr={lr:.3g}"
                )
            if cfg.grad_clip is not None and grad_norm > cfg.grad_clip:
                scale = cfg.grad_clip / grad_norm
                for g in grads.values():
                    g *= scale

            adamw_step(ts, grads, lr, cfg.betas, cfg.weight_decay, self._scratch)
            return {
                "step": ts.step,
                "epoch_equiv": ts.step / self.steps_per_epoch,
                "loss": float(loss),
                "lr": float(lr),
                "grad_norm": grad_norm,
            }

    def run(self, ts: TrainState) -> list[dict]:
        return [self.train_step(ts) for _ in range(ts.step, self.total_steps)]


def run_training(
    manifest: DatasetManifest,
    cfg: TrainConfig,
    out_dir: str,
    checkpoint_every: int = 0,
    resume_from: str | None = None,
    digest=None,
) -> tuple[TrainState, list[dict]]:
    """Train to completion, writing under out_dir metrics.jsonl (one record
    per step) and checkpoint.bin (final state), plus checkpoint_NNNNNN.bin
    every `checkpoint_every` steps when requested. A hashlib `digest`, when
    given, is fed the bytes of checkpoint.bin as they are written.
    """
    trainer = Trainer(manifest, cfg)
    dataset_hash = manifest.hash()
    if resume_from is not None:
        loaded_cfg, ts, meta = load_checkpoint(resume_from)
        if loaded_cfg != cfg:
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

    ckpt_meta = {"config_hash": json_digest(asdict(cfg)), "dataset_hash": dataset_hash}
    metrics, last = [], trainer.total_steps
    while ts.step < last:
        metrics.append(trainer.train_step(ts))
        if checkpoint_every > 0 and ts.step % checkpoint_every == 0 and ts.step < last:
            path = os.path.join(out_dir, f"checkpoint_{ts.step:06d}.bin")
            save_checkpoint(path, cfg, ts, ckpt_meta)
    write_metrics(
        os.path.join(out_dir, "metrics.jsonl"),
        metrics,
        header={"kind": "synthrep-metrics", **ckpt_meta},
    )
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), cfg, ts, ckpt_meta, digest)
    return ts, metrics


# the fields of a metrics line, in order, each with the formatter of its value
_METRIC_FIELDS = (
    ("step", str),
    ("epoch_equiv", fmt_float),
    ("loss", fmt_float),
    ("lr", fmt_float),
    ("grad_norm", fmt_float),
)


def write_metrics(path: str, metrics: list[dict], header: dict | None = None) -> None:
    """Line-delimited metrics with exact float formatting."""
    lines = [] if header is None else [canonical_json(header)]
    lines += (
        "{" + ",".join(f'"{name}":{fmt(rec[name])}' for name, fmt in _METRIC_FIELDS) + "}"
        for rec in metrics
    )
    _write_lines(path, lines)


# -- checkpoint container -------------------------------------------------------
#
# MAGIC, then a little-endian uint64 header length, then a sorted-key JSON
# header, then raw array bytes concatenated in header order. Contains no
# timestamps, so identical states serialize to identical bytes.

_MAGIC = b"SRENCKPT"
_CKPT_FORMAT = 2

# array-name prefix -> the TrainState field whose arrays it holds
_CKPT_FIELDS = {"params/": "params", "opt_m/": "m", "opt_v/": "v"}


def _checkpoint_arrays(ts: TrainState) -> dict[str, np.ndarray]:
    """Checkpoint name -> array, for every array `ts` holds."""
    return {
        prefix + k: v
        for prefix, name in _CKPT_FIELDS.items()
        for k, v in getattr(ts, name).items()
    }


def save_checkpoint(
    path: str, cfg: TrainConfig, ts: TrainState, extra_meta: dict | None = None, digest=None
) -> None:
    """Write `ts` to path; a hashlib `digest`, when given, is fed every byte
    written, so the file's hash costs no second read."""
    arrays = _checkpoint_arrays(ts)
    names = sorted(arrays)
    header = {
        "format": _CKPT_FORMAT,
        "meta": {
            "step": ts.step,
            "opt_step": ts.step,
            "train_config": asdict(cfg),
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

        def write(buf: bytes) -> None:
            fh.write(buf)
            if digest is not None:
                digest.update(buf)

        write(_MAGIC)
        write(np.uint64(len(blob)).tobytes())
        write(blob)
        for k in names:
            write(np.ascontiguousarray(arrays[k]).tobytes())


def _count(value) -> int:
    """A `_read_field` converter for a JSON integer >= 0."""
    n = _of_type(int)(value)
    if n < 0:
        raise ValueError(f"expected an int >= 0, got {n}")
    return n


def load_checkpoint(path: str, digest=None) -> tuple[TrainConfig, TrainState, dict]:
    """(config, state, meta) of a checkpoint; the state's arrays are those of
    `_init_state(config)`, each overwritten from the file. A hashlib `digest`,
    when given, is fed every byte read: of a checkpoint that loads, that is
    the whole file."""
    with open(path, "rb") as fh:

        def take(n: int) -> bytes:
            buf = fh.read(n)
            if digest is not None:
                digest.update(buf)
            return buf

        magic = take(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        raw_len = take(8)
        blob_len = int.from_bytes(raw_len, "little")
        blob = take(blob_len)
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
        step = _read_field(meta, "step", _count, path, "meta")
        opt_step = _read_field(meta, "opt_step", _count, path, "meta")
        if opt_step != step:
            raise ValueError(f"{path}: meta opt_step {opt_step} differs from step {step}")
        ts = _init_state(cfg)
        ts.step = step
        targets = _checkpoint_arrays(ts)
        read: set[str] = set()
        for i, spec in enumerate(_read_field(header, "arrays", list, path)):
            where = f"array spec {i}"
            name = _read_field(spec, "name", str, path, where)
            dtype = _read_field(spec, "dtype", np.dtype, path, where)
            shape = _read_field(
                spec, "shape", lambda v: tuple(map(_count, _of_type(list)(v))), path, where
            )
            if name not in targets:
                raise ValueError(f"{path}: array {name!r} is not in its train_config's layout")
            if name in read:
                raise ValueError(f"{path}: array {name!r} appears twice")
            target = targets[name]
            if shape != target.shape:
                raise ValueError(
                    f"{path}: array {name!r} has shape {shape}; its train_config "
                    f"implies {target.shape}"
                )
            if dtype != np.float64:
                raise ValueError(f"{path}: array {name!r} has dtype {dtype.str}, not float64")
            buf = take(target.nbytes)
            if len(buf) != target.nbytes:
                raise ValueError(
                    f"{path}: array {name!r} is truncated ({len(buf)} of {target.nbytes} bytes)"
                )
            target[...] = np.frombuffer(buf, dtype=dtype).reshape(shape)
            read.add(name)
        if take(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    missing = sorted(targets.keys() - read)
    if missing:
        raise ValueError(f"{path}: array {missing[0]!r} is missing ({len(missing)} missing)")
    return cfg, ts, meta
