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
import itertools
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


def _write_lines(path: str, lines) -> None:
    """Write each string of `lines` (any iterable) to `path` as a UTF-8 line
    ending in LF: the one writer of every text artifact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def json_digest(obj) -> str:
    """sha256 hex digest of the canonical JSON of obj."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _config_hash(cfg: GeneratorConfig, master_seed: int) -> str:
    """Stable hex digest of the generator config and master seed."""
    return json_digest({"config": asdict(cfg), "master_seed": int(master_seed)})


# a manifest row's fields and their dtypes, in the order each row is written;
# the column of a field is the DatasetManifest attribute of its plural name
_ROW_FIELDS = {
    "caption_id": np.int64,
    "class_id": np.int64,
    "prompt_seed": np.uint64,
    "latent_seed": np.uint64,
    "guidance_scale": np.float64,
}


def _sampler(value):
    if value not in ("ddim", "direct"):
        raise ValueError(f"unknown sampler {value!r}")
    return value


@dataclass
class DatasetManifest:
    """Generated samples (at least one) plus everything needed to regenerate them."""

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
        if n == 0:
            raise ValueError("the manifest holds no samples")
        for name in (f"{field}s" for field in _ROW_FIELDS):
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
        + "]}"
    )
    columns = zip(*(getattr(manifest, f"{field}s").tolist() for field in _ROW_FIELDS))
    rows = (row % (*cols, *x.tolist()) for cols, x in zip(columns, manifest.features))
    _write_lines(path, itertools.chain([header], rows))


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


def _number(value) -> float:
    """A JSON number as a float, so that 4 and 4.0 read alike; an integer
    beyond float's range raises OverflowError."""
    return float(_of_type(int, float)(value))


def _read_rows(path: str, records: list, columns: dict, width: int | None = None):
    """The records [(line number, object)] of a manifest or a feature file as
    ({field: array} for each field -> dtype of `columns`, (N, width) float
    array of their "feature" lists); width None takes the first record's. A
    missing field, a wrong JSON type, a value out of its dtype's range, a
    feature of another length and a non-finite entry each raise a ValueError
    naming the file, line and field."""
    # JSON types are checked: numpy would coerce "0", 0.9 or true unseen
    integer, number = _of_type(int), _of_type(int, float)
    out = {name: np.empty(len(records), dtype) for name, dtype in columns.items()}
    features = None if width is None else np.empty((len(records), width))
    for i, (lineno, rec) in enumerate(records):
        try:
            for name, column in out.items():
                column[i] = (number if column.dtype.kind == "f" else integer)(rec[name])
            name = "feature"  # the field being read when an error is raised
            row = rec[name]
            if not isinstance(row, list) or not set(map(type, row)) <= {int, float}:
                raise TypeError("expected a list of JSON numbers")
            if features is None:
                width = len(row)
                features = np.empty((len(records), width))
            if len(row) == width:  # else refused below, with both lengths
                features[i] = row
        except KeyError:
            raise ValueError(f"{path}: line {lineno} has no field {name!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno} field {name!r} is invalid: {exc}") from None
        if len(row) != width:
            raise ValueError(
                f"{path}: line {lineno} field 'feature' has length {len(row)}, expected {width}"
            )
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        where = f"line {records[np.argmin(finite)][0]}"
        raise ValueError(f"{path}: {where} field 'feature' is invalid: entries must be finite")
    return out, features


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

    columns, features = _read_rows(path, records, _ROW_FIELDS, cfg.feature_dim)
    try:
        manifest = DatasetManifest(
            config=cfg,
            master_seed=master_seed,
            **{f"{field}s": column for field, column in columns.items()},
            features=features,
            sampler=sampler,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header.get("config_hash") != _config_hash(cfg, master_seed):
        raise ValueError(f"{path}: config hash mismatch")
    if manifest.hash() != content_hash:
        raise ValueError(f"{path}: content hash mismatch")
    return manifest
