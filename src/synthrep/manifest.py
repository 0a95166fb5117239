"""Dataset container and its JSONL on-disk format.

A manifest is a header line describing the generator configuration followed
by one JSON record per sample. The header carries `DatasetManifest.hash()`,
and `read_manifest` refuses a file whose rows do not match it. Floats are
written with 17 significant digits, which is enough to reproduce every
float64 bit-exactly, so write -> read -> write produces byte-identical files.
No timestamps or environment-dependent values are stored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .generator import GeneratorConfig

__all__ = [
    "DatasetManifest",
    "config_hash",
    "fmt_float",
    "write_manifest",
    "read_manifest",
]

_KIND = "synthrep-dataset"
_VERSION = 1


def fmt_float(v: float) -> str:
    """Shortest exact decimal for JSON output; parses back to the same bits."""
    return "%.17g" % float(v)


def canonical_json(obj) -> str:
    """Sorted-key, whitespace-free JSON: the one text form every artifact
    header, provenance record and config hash is built from."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_digest(obj) -> str:
    """sha256 hex digest of the canonical JSON of obj."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def config_hash(cfg: GeneratorConfig, master_seed: int) -> str:
    """Stable hex digest of the generator config and master seed."""
    return json_digest({"config": cfg.to_dict(), "master_seed": int(master_seed)})


@dataclass
class DatasetManifest:
    """Generated samples plus everything needed to regenerate them."""

    config: GeneratorConfig
    master_seed: int
    caption_ids: np.ndarray  # (N,) int64
    class_ids: np.ndarray  # (N,) int64
    prompt_seeds: np.ndarray  # (N,) uint64
    latent_seeds: np.ndarray  # (N,) uint64
    guidance_scales: np.ndarray  # (N,) float
    features: np.ndarray  # (N, feature_dim) float
    sampler: str = "ddim"

    def __post_init__(self) -> None:
        if self.sampler not in ("ddim", "direct"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        n = self.features.shape[0]
        for name in (
            "caption_ids",
            "class_ids",
            "prompt_seeds",
            "latent_seeds",
            "guidance_scales",
        ):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.features.ndim != 2 or self.features.shape[1] != self.config.feature_dim:
            raise ValueError("features must be (N, feature_dim)")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def unique_caption_ids(self) -> np.ndarray:
        # preserve first-appearance order rather than sorting
        _, first = np.unique(self.caption_ids, return_index=True)
        return self.caption_ids[np.sort(first)]

    @property
    def num_captions(self) -> int:
        return int(self.unique_caption_ids.size)

    def rows_for_caption(self, caption_id: int) -> np.ndarray:
        rows = np.flatnonzero(self.caption_ids == caption_id)
        if rows.size == 0:
            raise KeyError(f"caption_id {caption_id} not in manifest")
        return rows

    def prompt_for(self, caption_id: int):
        """Reconstruct the PromptSpec of a caption from its stored seed."""
        from .generator import PromptSpec

        row = self.rows_for_caption(caption_id)[0]
        return PromptSpec(
            caption_id=int(caption_id),
            class_id=int(self.class_ids[row]),
            prompt_seed=int(self.prompt_seeds[row]),
        )

    def hash(self) -> str:
        """Content hash covering config, seed, sampler, and every row."""
        h = hashlib.sha256()
        h.update(config_hash(self.config, self.master_seed).encode("ascii"))
        h.update(self.sampler.encode("ascii"))
        for name in ("caption_ids", "class_ids", "prompt_seeds", "latent_seeds"):
            h.update(np.ascontiguousarray(getattr(self, name), dtype=np.uint64).tobytes())
        h.update(np.ascontiguousarray(self.guidance_scales, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.features, dtype=np.float64).tobytes())
        return h.hexdigest()


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    lines = [
        canonical_json(
            {
                "kind": _KIND,
                "version": _VERSION,
                "config": manifest.config.to_dict(),
                "master_seed": int(manifest.master_seed),
                "config_hash": config_hash(manifest.config, manifest.master_seed),
                "content_hash": manifest.hash(),
                "num_samples": manifest.num_samples,
                "sampler": manifest.sampler,
            }
        )
    ]
    for i in range(manifest.num_samples):
        feat = ",".join(fmt_float(v) for v in manifest.features[i])
        lines.append(
            '{"caption_id":%d,"class_id":%d,"prompt_seed":%d,"latent_seed":%d,'
            '"guidance_scale":%s,"feature":[%s]}'
            % (
                int(manifest.caption_ids[i]),
                int(manifest.class_ids[i]),
                int(manifest.prompt_seeds[i]),
                int(manifest.latent_seeds[i]),
                fmt_float(manifest.guidance_scales[i]),
                feat,
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_field(record: dict, name: str, convert, path: str, where: str = "header"):
    """convert(record[name]); a missing or invalid field raises a ValueError
    that names the file, the part of it (`where`) and the field."""
    try:
        return convert(record[name])
    except KeyError:
        raise ValueError(f"{path}: {where} has no field {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {where} field {name!r} is invalid: {exc}") from None


def read_manifest(path: str) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != _KIND:
        raise ValueError(f"{path}: not a {_KIND} file")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')}")
    cfg = _read_field(header, "config", GeneratorConfig.from_dict, path)
    n = _read_field(header, "num_samples", int, path)
    master_seed = _read_field(header, "master_seed", int, path)
    content_hash = _read_field(header, "content_hash", str, path)
    records = lines[1:]
    if len(records) != n:
        raise ValueError(f"{path}: expected {n} records, found {len(records)}")

    features = np.empty((n, cfg.feature_dim))
    columns = {
        "caption_id": np.empty(n, dtype=np.int64),
        "class_id": np.empty(n, dtype=np.int64),
        "prompt_seed": np.empty(n, dtype=np.uint64),
        "latent_seed": np.empty(n, dtype=np.uint64),
        "guidance_scale": np.empty(n),
    }
    for i, line in enumerate(records):
        rec = json.loads(line)
        name = "feature"  # the field being read when an error is raised
        try:
            if len(rec[name]) != cfg.feature_dim:
                raise ValueError(f"length {len(rec[name])}, expected {cfg.feature_dim}")
            features[i] = rec[name]
            for name, column in columns.items():
                column[i] = rec[name]
        except KeyError:
            raise ValueError(f"{path}: record {i} has no field {name!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: record {i} field {name!r} is invalid: {exc}") from None

    manifest = DatasetManifest(
        config=cfg,
        master_seed=master_seed,
        caption_ids=columns["caption_id"],
        class_ids=columns["class_id"],
        prompt_seeds=columns["prompt_seed"],
        latent_seeds=columns["latent_seed"],
        guidance_scales=columns["guidance_scale"],
        features=features,
        sampler=header.get("sampler", "ddim"),
    )
    if header.get("config_hash") != config_hash(cfg, master_seed):
        raise ValueError(f"{path}: config hash mismatch")
    if manifest.hash() != content_hash:
        raise ValueError(f"{path}: content hash mismatch")
    return manifest
