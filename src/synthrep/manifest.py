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
from dataclasses import asdict, dataclass

import numpy as np

from .generator import GeneratorConfig

__all__ = [
    "DatasetManifest",
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


def _config_hash(cfg: GeneratorConfig, master_seed: int) -> str:
    """Stable hex digest of the generator config and master seed."""
    return json_digest({"config": asdict(cfg), "master_seed": int(master_seed)})


def _sampler(value):
    if value not in ("ddim", "direct"):
        raise ValueError(f"unknown sampler {value!r}")
    return value


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
        _sampler(self.sampler)
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

    def prompt_for(self, caption_id: int):
        """Reconstruct the PromptSpec of a caption from its stored seed."""
        from .generator import PromptSpec

        rows = np.flatnonzero(self.caption_ids == caption_id)
        if rows.size == 0:
            raise KeyError(f"caption_id {caption_id} not in manifest")
        row = rows[0]
        return PromptSpec(
            caption_id=int(caption_id),
            class_id=int(self.class_ids[row]),
            prompt_seed=int(self.prompt_seeds[row]),
        )

    def hash(self) -> str:
        """Content hash covering config, seed, sampler, and every row."""
        h = hashlib.sha256()
        h.update(_config_hash(self.config, self.master_seed).encode("ascii"))
        h.update(self.sampler.encode("ascii"))
        for name in ("caption_ids", "class_ids", "prompt_seeds", "latent_seeds"):
            h.update(np.ascontiguousarray(getattr(self, name), dtype=np.uint64).tobytes())
        h.update(np.ascontiguousarray(self.guidance_scales, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.features, dtype=np.float64).tobytes())
        return h.hexdigest()


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    header = canonical_json(
        {
            "kind": _KIND,
            "version": _VERSION,
            "config": asdict(manifest.config),
            "master_seed": int(manifest.master_seed),
            "config_hash": _config_hash(manifest.config, manifest.master_seed),
            "content_hash": manifest.hash(),
            "num_samples": manifest.num_samples,
            "sampler": manifest.sampler,
        }
    )
    # one %-format per row; every float is written as fmt_float writes it
    row = (
        '{"caption_id":%d,"class_id":%d,"prompt_seed":%d,"latent_seed":%d,'
        '"guidance_scale":%.17g,"feature":['
        + ",".join(["%.17g"] * manifest.features.shape[1])
        + "]}\n"
    )
    names = ("caption_ids", "class_ids", "prompt_seeds", "latent_seeds", "guidance_scales")
    columns = zip(*(getattr(manifest, name).tolist() for name in names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row % (*cols, *x.tolist()) for cols, x in zip(columns, manifest.features))


def _read_text(path: str, parse: str = "lines", what: str = "the file"):
    """The UTF-8 text of `path`, newlines translated as in text mode, as its
    lines (parse="lines"), as the one JSON object it holds ("object"), or as
    (line number, object) for each non-blank line ("records"). Failures
    raise ValueError("<path>: line N ..."), except that a well-formed value
    that is not an object reads "<path>: <what> must hold a JSON object"."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = before.count(b"\n") + 1
        raise ValueError(
            f"{path}: line {lineno} is not UTF-8 ({exc.reason} at byte offset {exc.start})"
        ) from None
    del raw  # free the bytes before the text is copied into lines
    text = text.replace("\r\n", "\n").replace("\r", "\n")

    def loads(chunk: str, lineno: int):
        try:
            return json.loads(chunk)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: line {lineno + exc.lineno - 1} is not JSON: {exc.msg} "
                f"(column {exc.colno})"
            ) from None
        except ValueError as exc:  # an integer literal past int's digit limit
            raise ValueError(f"{path}: line {lineno} is not JSON: {exc}") from None

    if parse == "object":
        value = loads(text, 1)
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {what} must hold a JSON object")
        return value
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if parse == "lines":
        return lines
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        value = loads(line, lineno)
        if not isinstance(value, dict):
            raise ValueError(f"{path}: line {lineno} is not a JSON object")
        records.append((lineno, value))
    return records


def _read_field(record: dict, name: str, convert, path: str, where: str = "header"):
    """convert(record[name]); a missing or invalid field raises a ValueError
    that names the file, the part of it (`where`) and the field."""
    try:
        return convert(record[name])
    except KeyError:
        raise ValueError(f"{path}: {where} has no field {name!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {where} field {name!r} is invalid: {exc}") from None


def _of_type(*types):
    """A `_read_field` converter that passes JSON values of `types` through
    and refuses any other, a boolean among them unless `types` holds bool."""

    def convert(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            names = " or ".join(t.__name__ for t in types)
            raise TypeError(f"expected {names}, got {type(value).__name__}")
        return value

    return convert


def read_manifest(path: str) -> DatasetManifest:
    records = _read_text(path, "records")
    if not records:
        raise ValueError(f"{path}: empty manifest")
    header = records.pop(0)[1]
    if header.get("kind") != _KIND:
        raise ValueError(f"{path}: not a {_KIND} file")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')}")
    cfg = _read_field(header, "config", lambda d: GeneratorConfig(**d), path)
    n = _read_field(header, "num_samples", _of_type(int), path)
    master_seed = _read_field(header, "master_seed", _of_type(int), path)
    content_hash = _read_field(header, "content_hash", str, path)
    sampler = _read_field(header, "sampler", _sampler, path)
    if len(records) != n:
        raise ValueError(f"{path}: expected {n} records, found {len(records)}")

    features = np.empty((n, cfg.feature_dim))
    # JSON types are checked: numpy would coerce "0", 0.9 or true unseen
    integer, number = _of_type(int), _of_type(int, float)
    columns = {
        "caption_id": np.empty(n, dtype=np.int64),
        "class_id": np.empty(n, dtype=np.int64),
        "prompt_seed": np.empty(n, dtype=np.uint64),
        "latent_seed": np.empty(n, dtype=np.uint64),
        "guidance_scale": np.empty(n),
    }
    for i, (lineno, rec) in enumerate(records):
        name = "feature"  # the field being read when an error is raised
        try:
            feature = rec[name]
            if len(feature) != cfg.feature_dim:
                raise ValueError(f"length {len(feature)}, expected {cfg.feature_dim}")
            if not set(map(type, feature)) <= {int, float}:
                raise TypeError("every entry must be a JSON number")
            features[i] = feature
            for name, column in columns.items():
                column[i] = (number if column.dtype.kind == "f" else integer)(rec[name])
        except KeyError:
            raise ValueError(f"{path}: line {lineno} has no field {name!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno} field {name!r} is invalid: {exc}") from None

    manifest = DatasetManifest(
        config=cfg,
        master_seed=master_seed,
        caption_ids=columns["caption_id"],
        class_ids=columns["class_id"],
        prompt_seeds=columns["prompt_seed"],
        latent_seeds=columns["latent_seed"],
        guidance_scales=columns["guidance_scale"],
        features=features,
        sampler=sampler,
    )
    if header.get("config_hash") != _config_hash(cfg, master_seed):
        raise ValueError(f"{path}: config hash mismatch")
    if manifest.hash() != content_hash:
        raise ValueError(f"{path}: content hash mismatch")
    return manifest
