"""Command-line pipeline: generate, train, probe, fewshot, sweep, report.

`main` is the one frame of every command. It resolves a JSON config (the
config dataclasses' defaults < --config file < --set overrides, merged
alike) and one master seed (--seed flag, SYNTHREP_SEED environment variable,
or config "seed") from which all randomness derives, stages the artifacts in
a temporary directory, writes provenance.json, and renames the directory into
place on success; `report`, which renders saved reports, takes no config.
Reruns with identical config and seed produce byte-identical files. Failures
print a single JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import __version__
from .data import dedup_captions, load_captions, split_budget, synth_captions
from .encoder import Encoder, EncoderConfig
from .evaluate import (
    EpisodeSpec,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    linear_probe,
    load_features,
    stratified_split,
)
from .generator import GeneratorConfig, generate_dataset
from .manifest import (
    _number,
    _of_type,
    _read_text,
    _write_lines,
    canonical_json,
    json_digest,
    read_manifest,
    write_manifest,
)
from .report import _SUFFIXES, _axis_value, _read_report, _write_report, emit_report
from .seeding import derive_u64
from .train import (
    _TEXT_VARIANTS,
    Trainer,
    TrainConfig,
    _accounting_error,
    load_checkpoint,
    run_training,
    sub_params,
)

__all__ = ["main"]

SEED_ENV_VAR = "SYNTHREP_SEED"

# named guidance-scale groups for mixed-scale dataset generation
GUIDANCE_GROUPS = {
    "small": [2.0, 3.0],
    "large": [8.0, 10.0],
    "mixed": [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0],
}


def _fields(config, *omit: str) -> dict:
    """The fields of a config dataclass as JSON values, without `omit`."""
    return {k: v for k, v in json.loads(json.dumps(asdict(config))).items() if k not in omit}


# the text tower of the text loss variants: one narrow MLP layer and head
_TEXT_TOWER = EncoderConfig(mlp_widths=(64,), head_hidden=128)

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "generator": _fields(GeneratorConfig()),
    "data": {
        "num_captions": 500,
        "images_per_caption": 10,
        "captions_file": None,
        "guidance_scales": None,
        "sampler": "ddim",
    },
    # the master seed replaces each config's `seed`; each tower's input_dim
    # follows the manifest, and the text tower's head_out the image tower's
    "train": {
        **_fields(TrainConfig(), "seed"),
        "encoder": _fields(EncoderConfig(), "input_dim"),
        "text_encoder": _fields(_TEXT_TOWER, "input_dim", "head_out"),
    },
    "probe": _fields(ProbeConfig(), "seed"),
    "fewshot": _fields(EpisodeSpec(), "seed"),
    "eval_data": {
        "num_captions": 200,
        "samples_per_caption": 5,
        "train_fraction": 0.5,
    },
}


class CliError(RuntimeError):
    pass


# -- config plumbing ------------------------------------------------------------


def _deep_update(base: dict, patch: dict) -> dict:
    out = dict(base)
    for k, v in patch.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_update(out[k], v)
        else:
            out[k] = v
    return out


def _parse_override(expr: str) -> dict:
    """The config patch of a --set expression: {"a": {"b": V}} for a.b=V."""
    if "=" not in expr:
        raise CliError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        patch = json.loads(raw)
    except json.JSONDecodeError:
        patch = raw
    for part in reversed(key.split(".")):
        patch = {part: patch}
    return patch


def _guidance_scales(value):
    """data.guidance_scales: null, a group name or a list of numbers."""
    if value is None or isinstance(value, str):
        return value
    return [_number(w) for w in _of_type(list)(value)]


# what the config keys whose default is null may hold
_NULLABLE = {
    "data.captions_file": _of_type(str, type(None)),
    "data.guidance_scales": _guidance_scales,
    "train.grad_clip": lambda v: v if v is None else _number(v),
}


def _check_section(section: dict, default: dict, prefix: str) -> None:
    """Refuse a key that the default section lacks, and a value whose JSON
    type is not its default's: a float default takes any number, a null one
    what _NULLABLE allows. A number where a float is expected is stored as
    a float."""
    for key, value in section.items():
        name = prefix + key
        if key not in default:
            raise CliError(f"unknown config key {name!r}")
        expected = default[key]
        if isinstance(expected, dict) and isinstance(value, dict):
            _check_section(value, expected, name + ".")
            continue
        if expected is None:
            convert = _NULLABLE[name]
        elif isinstance(expected, float):
            convert = _number
        else:
            convert = _of_type(type(expected))
        try:
            section[key] = convert(value)
        except (TypeError, OverflowError) as exc:
            raise CliError(f"config key {name!r} is invalid: {exc}") from None


def _resolve_config(ns: argparse.Namespace) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if getattr(ns, "config", None):
        cfg = _deep_update(cfg, _read_text(ns.config, "object", "a config file"))
    for expr in getattr(ns, "set", None) or []:
        cfg = _deep_update(cfg, _parse_override(expr))
    unknown = sorted(cfg.keys() - DEFAULT_CONFIG.keys())
    if unknown:
        raise CliError(f"unknown config key {unknown[0]!r}")
    for name, default in DEFAULT_CONFIG.items():
        if not isinstance(default, dict):
            continue
        if not isinstance(cfg[name], dict):
            raise CliError(
                f"config section {name!r} must be an object, not {json.dumps(cfg[name])}"
            )
        _check_section(cfg[name], default, name + ".")
    return cfg


def _resolve_seed(ns: argparse.Namespace, cfg: dict) -> int:
    """The master seed from --seed, else SYNTHREP_SEED, else the config."""
    if getattr(ns, "seed", None) is not None:
        source, seed = "--seed", ns.seed
    elif os.environ.get(SEED_ENV_VAR) is not None:
        source, raw = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
        try:
            seed = int(raw)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    else:
        source, seed = "config seed", cfg["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise CliError(f"config seed must be an integer, got {json.dumps(seed)}")
    if seed < 0:
        raise CliError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# -- artifact staging -----------------------------------------------------------


class _Staging:
    """Build artifacts in <out>.partial; on leaving the `with` block, rename
    it to <out> if the block succeeded, else delete it.

    With --force an existing <out> is first renamed aside and deleted only
    after the new directory is in place, so a failure leaves the old output.
    """

    def __init__(self, out: str, force: bool):
        self.final = out.rstrip("/")
        self.tmp = self.final + ".partial"
        if os.path.exists(self.final) and not force:
            raise CliError(
                f"output directory {self.final!r} exists; pass --force to replace it"
            )
        if os.path.exists(self.tmp):
            shutil.rmtree(self.tmp)
        os.makedirs(self.tmp)

    def __enter__(self) -> "_Staging":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._commit()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, *parts: str) -> str:
        p = os.path.join(self.tmp, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def _commit(self) -> None:
        if not os.path.exists(self.final):
            os.rename(self.tmp, self.final)
            return
        # park the old output in a fresh directory beside it: it is deleted
        # only once the new output is in place, and put back if that fails
        parent = os.path.dirname(self.final) or "."
        aside = tempfile.mkdtemp(prefix=os.path.basename(self.final) + ".old.", dir=parent)
        old = os.path.join(aside, "out")
        try:
            os.rename(self.final, old)
        except BaseException:
            os.rmdir(aside)
            raise
        try:
            os.rename(self.tmp, self.final)
        except BaseException:
            os.rename(old, self.final)
            os.rmdir(aside)
            raise
        shutil.rmtree(aside)


def _write_provenance(path: str, command: str, cfg: dict, seed: int) -> str:
    record = {
        "command": command,
        "config_hash": json_digest({"config": cfg, "seed": seed}),
        "seed": seed,
        "versions": {
            "synthrep": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    _write_lines(path, [canonical_json(record)])
    return record["config_hash"]


# -- shared pipeline pieces -------------------------------------------------------


def _build_manifest(cfg: dict, seed: int):
    """(manifest, caption records) of the generator and data sections; the
    captions come from data.captions_file (deduplicated) or are synthesized."""
    gcfg = GeneratorConfig(**cfg["generator"])
    data = cfg["data"]
    if data["captions_file"]:
        records = dedup_captions(load_captions(data["captions_file"], gcfg.num_classes))
        if not records:
            raise CliError("caption file contained no usable captions")
    else:
        records = synth_captions(data["num_captions"], gcfg.num_classes, derive_u64(seed, 10))
    scales = data["guidance_scales"]
    if isinstance(scales, str):
        if scales not in GUIDANCE_GROUPS:
            raise CliError(
                f"unknown guidance group {scales!r}; choose from {sorted(GUIDANCE_GROUPS)}"
            )
        scales = GUIDANCE_GROUPS[scales]
    manifest = generate_dataset(
        [r.prompt for r in records],
        data["images_per_caption"],
        gcfg,
        derive_u64(seed, 11),
        guidance_scales=scales,
        sampler=data["sampler"],
    )
    return manifest, records


def _train_config(cfg: dict, feature_dim: int, seed: int) -> TrainConfig:
    """Both towers take the manifest's feature_dim as input_dim, and the text
    tower, which only the text variants get, the image tower's head_out."""
    section = dict(cfg["train"], seed=seed)
    image = dict(section["encoder"], input_dim=feature_dim)
    text = dict(section["text_encoder"], input_dim=feature_dim, head_out=image["head_out"])
    section["encoder"] = image
    section["text_encoder"] = text if section["loss_variant"] in _TEXT_VARIANTS else None
    try:
        return TrainConfig.from_dict(section)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid train config: {exc}") from exc


def _encoder_from_checkpoint(path: str | None):
    """((encoder, image-tower params), checkpoint id) of a checkpoint, read
    once; the id is the sha256 of its bytes, so a report names what it
    scored. (None, "") without one."""
    if path is None:
        return None, ""
    digest = hashlib.sha256()
    cfg, ts, _ = load_checkpoint(path, digest=digest)
    return (Encoder(cfg.encoder), sub_params(ts.params, "img.")), digest.hexdigest()


def _features_from(manifest_path: str, encoder):
    """(features, class ids, dataset id) of a manifest: its raw features, or
    those `encoder` (from `_encoder_from_checkpoint`) gives them."""
    manifest = read_manifest(manifest_path)
    if encoder is None:
        return manifest.features, manifest.class_ids, manifest.hash()
    enc, params = encoder
    if manifest.config.feature_dim != enc.cfg.input_dim:
        raise CliError(
            f"{manifest_path}: feature_dim {manifest.config.feature_dim} does not match "
            f"the checkpoint encoder's input_dim {enc.cfg.input_dim}"
        )
    return encode_dataset(manifest, enc, params), manifest.class_ids, manifest.hash()


# -- subcommands ------------------------------------------------------------------
#
# `main` calls a command's body as body(ns, staging, cfg, seed, config_hash)
# inside the staging block, after writing provenance.json, and prints the
# summary line the body returns. `report` gets None for the last three.


def _cmd_generate(ns, staging: _Staging, cfg: dict, seed: int, _hash) -> str:
    manifest, records = _build_manifest(cfg, seed)
    write_manifest(manifest, staging.path("manifest.jsonl"))
    _write_lines(staging.path("captions.txt"), (rec.text for rec in records))
    return f"wrote {manifest.num_samples} samples to {staging.final}/manifest.jsonl"


def _cmd_train(ns, staging: _Staging, cfg: dict, seed: int, _hash) -> str:
    if ns.checkpoint_every < 0:
        raise CliError(f"--checkpoint-every must be >= 0, got {ns.checkpoint_every}")
    manifest = read_manifest(ns.data)
    tcfg = _train_config(cfg, manifest.config.feature_dim, seed)
    ts, metrics = run_training(
        manifest,
        tcfg,
        out_dir=staging.tmp,
        checkpoint_every=ns.checkpoint_every,
        resume_from=ns.resume,
    )
    return (
        f"trained {ts.step} steps ({tcfg.loss_variant}), final loss "
        f"{metrics[-1]['loss']:.4f}, artifacts in {staging.final}"
    )


# the config class of each evaluation section and the salt of its seed
_EVALUATIONS = {"probe": (ProbeConfig, 30), "fewshot": (EpisodeSpec, 31)}


def _eval_config(cfg: dict, name: str, seed: int):
    """The ProbeConfig or EpisodeSpec of config section `name`, seeded from
    the master seed."""
    cls, salt = _EVALUATIONS[name]
    return cls(**cfg[name], seed=derive_u64(seed, salt))


def _evaluate(ns, staging: _Staging, cfg_hash: str, features: tuple, manifests: tuple, score):
    """Read the inputs of probe or fewshot, score them, and write report.json
    (with the config hash) and report.csv; returns the report.

    The inputs are the feature files of the `features` flags, or else the
    manifests of the `manifests` flags, encoded by --checkpoint when it is
    given; `score` takes one (features, class ids) pair per flag. A flag
    that would go unread is refused: feature files come all together and
    with no manifest or --checkpoint, since they are already encoded;
    without them, every manifest flag is needed. The report's dataset_id is
    the first manifest's content hash and its checkpoint_id the sha256 of
    the checkpoint, both empty for what they did not score."""

    def flag(name: str) -> str:
        return "--" + name.replace("_", "-")

    feature_files = [getattr(ns, name) for name in features]
    if any(feature_files):
        if not all(feature_files):
            raise CliError(" and ".join(map(flag, features)) + " must be given together")
        unread = [flag(name) for name in (*manifests, "checkpoint") if getattr(ns, name)]
        if unread:
            raise CliError(f"{unread[0]} goes with manifests, not with feature files")
        inputs = [(x, y) for _, y, x in map(load_features, feature_files)]
        dataset_id = checkpoint_id = ""
    else:
        if not all(getattr(ns, name) for name in manifests):
            needs = " and ".join(map(flag, manifests))
            raise CliError(f"{ns.command} needs {needs}, or feature files")
        encoder, checkpoint_id = _encoder_from_checkpoint(ns.checkpoint)
        encoded = [_features_from(getattr(ns, name), encoder) for name in manifests]
        inputs = [(x, y) for x, y, _ in encoded]
        dataset_id = encoded[0][2]
    report = score(*inputs)
    report.dataset_id = dataset_id
    report.checkpoint_id = checkpoint_id
    _write_report(staging.path("report.json"), report, config_hash=cfg_hash)
    emit_report([report], "csv", staging.path("report.csv"), meta_comment=cfg_hash)
    return report


def _cmd_probe(ns, staging: _Staging, cfg: dict, seed: int, cfg_hash: str) -> str:
    probe = _eval_config(cfg, "probe", seed)
    report = _evaluate(
        ns, staging, cfg_hash, ("train_features", "test_features"), ("data", "eval_data"),
        lambda train, test: linear_probe(*train, *test, probe),
    )
    return (
        f"linear probe accuracy {report.accuracy:.4f} +- {report.ci95:.4f} "
        f"(lambda {report.details['selected_lambda']:.3g}), report in {staging.final}"
    )


def _cmd_fewshot(ns, staging: _Staging, cfg: dict, seed: int, cfg_hash: str) -> str:
    spec = _eval_config(cfg, "fewshot", seed)
    report = _evaluate(
        ns, staging, cfg_hash, ("features",), ("data",), lambda data: fewshot_eval(*data, spec)
    )
    return (
        f"{spec.ways}-way {spec.shots}-shot accuracy {report.accuracy:.4f} "
        f"+- {report.ci95:.4f} over {spec.episodes} episodes, report in {staging.final}"
    )


# -- sweep -------------------------------------------------------------------------


def _sweep_eval_split(cfg: dict, seed: int):
    """Held-out direct-sampled data, shared by every sweep point."""
    ed = cfg["eval_data"]
    for key in ("num_captions", "samples_per_caption"):
        if ed[key] < 1:
            raise CliError(f"config key 'eval_data.{key}' must be >= 1, got {ed[key]}")
    if not 0 < ed["train_fraction"] < 1:
        raise CliError(
            f"config key 'eval_data.train_fraction' must lie in (0, 1), got {ed['train_fraction']}"
        )
    gcfg = GeneratorConfig(**cfg["generator"])
    records = synth_captions(ed["num_captions"], gcfg.num_classes, derive_u64(seed, 20))
    manifest = generate_dataset(
        [r.prompt for r in records],
        ed["samples_per_caption"],
        gcfg,
        derive_u64(seed, 21),
        sampler="direct",
    )
    train_rows, test_rows = stratified_split(
        manifest.class_ids, 1.0 - ed["train_fraction"], derive_u64(seed, 22)
    )
    return manifest, train_rows, test_rows


def _set_positives(train: dict, m: int) -> int:
    """Give the train section m positives per caption and return its views
    per caption: multi_positive, or for m == 1 simclr_reduction's two views."""
    views = 2 if m == 1 else m
    train["loss_variant"] = "simclr_reduction" if m == 1 else "multi_positive"
    train["batch_spec"]["samples_per_caption"] = views
    return views


def _sweep_point(axis: str, raw_value: str, cfg: dict, seed: int):
    """Resolve one sweep cell into (config, TrainConfig). A value that makes
    no valid generator or train config fails here, before any cell trains."""
    cell = json.loads(json.dumps(cfg))
    group = axis == "w" and raw_value in GUIDANCE_GROUPS
    kind, what = (float, "a number") if axis == "w" else (int, "an integer")
    try:
        value = "" if group else kind(raw_value)
    except ValueError:
        raise CliError(f"sweep axis {axis!r} takes {what}, got {raw_value!r}") from None
    try:
        if group:
            cell["data"]["guidance_scales"] = raw_value
        elif axis == "w":
            cell["generator"]["guidance_scale"] = value
            cell["data"]["guidance_scales"] = None
        elif axis == "m":
            _set_positives(cell["train"], value)
        elif axis == "l":
            total = int(cell["data"]["num_captions"]) * int(cell["data"]["images_per_caption"])
            budget = split_budget(total, value)
            cell["data"]["num_captions"] = budget.num_captions
            cell["data"]["images_per_caption"] = value
            batch = cell["train"]["batch_spec"]
            m = _set_positives(cell["train"], min(int(batch["samples_per_caption"]), value))
            # resizing the caption pool can break batch divisibility; shrink n to fit
            n, epochs = int(batch["num_captions"]), int(cell["train"]["epochs"])
            while n > 2 and _accounting_error(budget.num_captions, n, m, epochs):
                n -= 1
            batch["num_captions"] = n
        elif axis == "epochs":
            cell["train"]["epochs"] = value
        tcfg = _train_config(cell, GeneratorConfig(**cell["generator"]).feature_dim, seed)
    except (CliError, ValueError) as exc:
        raise CliError(f"sweep axis {axis!r} value {raw_value!r}: {exc}") from None
    return cell, tcfg


def _cmd_sweep(ns, staging: _Staging, cfg: dict, seed: int, cfg_hash: str) -> str:
    values = [v.strip() for v in ns.values.split(",") if v.strip()]
    if not values:
        raise CliError("--values must list at least one value")
    cells = [_sweep_point(ns.axis, raw, cfg, seed) for raw in values]
    eval_manifest, eval_train_rows, eval_test_rows = _sweep_eval_split(cfg, seed)
    # axes that leave the dataset unchanged share one manifest, which every
    # cell's batches must fit before the first cell trains
    shared_manifest = None
    if ns.axis in ("m", "epochs"):
        shared_manifest, _ = _build_manifest(cfg, seed)
        for raw, (_, tcfg) in zip(values, cells):
            try:
                Trainer(shared_manifest, tcfg)  # checks the batches against the data
            except ValueError as exc:
                raise CliError(f"sweep axis {ns.axis!r} value {raw!r}: {exc}") from None
        write_manifest(shared_manifest, staging.path("dataset", "manifest.jsonl"))

    reports = []
    for raw, (cell, tcfg) in zip(values, cells):
        label = f"{ns.axis}_{raw}"
        if shared_manifest is not None:
            manifest = shared_manifest
        else:
            manifest, _ = _build_manifest(cell, seed)
            write_manifest(manifest, staging.path(label, "manifest.jsonl"))

        run_dir = staging.path(label, "train")
        os.makedirs(run_dir, exist_ok=True)
        digest = hashlib.sha256()
        ts, _ = run_training(manifest, tcfg, out_dir=run_dir, digest=digest)

        feats = encode_dataset(eval_manifest, Encoder(tcfg.encoder), sub_params(ts.params, "img."))
        report = linear_probe(
            feats[eval_train_rows],
            eval_manifest.class_ids[eval_train_rows],
            feats[eval_test_rows],
            eval_manifest.class_ids[eval_test_rows],
            _eval_config(cell, "probe", seed),
        )
        report.dataset_id = manifest.hash()
        report.checkpoint_id = digest.hexdigest()
        _write_report(staging.path(label, "report.json"), report, axis=ns.axis, value=raw)
        reports.append(report)

    # a named guidance group has no numeric axis value, so no plot
    axis_values = [_axis_value(raw) for raw in values]
    for fmt in ("csv", "table") if "" in axis_values else ("csv", "table", "svg"):
        emit_report(
            reports, fmt, staging.path(f"summary.{_SUFFIXES[fmt]}"),
            axis_name=ns.axis, axis_values=axis_values,
            title=f"linear probe vs {ns.axis}", meta_comment=cfg_hash,
        )
    accs = ", ".join(f"{v}:{r.accuracy:.4f}" for v, r in zip(values, reports))
    return f"sweep over {ns.axis} done ({accs}), summary in {staging.final}"


def _cmd_report(ns, staging: _Staging, *_) -> str:
    paths = [p.strip() for p in ns.inputs.split(",") if p.strip()]
    if not paths:
        raise CliError("--inputs must list report JSON files")
    reports, values = (list(column) for column in zip(*map(_read_report, paths)))
    if ns.values:
        values = [v.strip() for v in ns.values.split(",")]
        if len(values) != len(reports):
            raise CliError("--values must match the number of inputs")
        if bad := [v for v in values if v and _axis_value(v) == ""]:
            raise CliError(f"--values entry {bad[0]!r} is not a number")
    cfg_hash = json_digest({"inputs": paths, "axis": ns.axis or ""})
    name = f"report.{_SUFFIXES[ns.format]}"
    emit_report(
        reports, ns.format, staging.path(name),
        axis_name=ns.axis, axis_values=values, title=ns.title, meta_comment=cfg_hash,
    )
    provenance = {"command": "report", "config_hash": cfg_hash}
    _write_lines(staging.path("provenance.json"), [canonical_json(provenance)])
    return f"rendered {len(reports)} report(s) to {staging.final}/{name}"


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthrep",
        description="Synthetic-data contrastive pretraining pipeline at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, configured: bool = True):
        p = sub.add_parser(name, help=help)
        if configured:
            p.add_argument("--config", help="JSON config file merged over defaults")
            p.add_argument(
                "--set",
                action="append",
                metavar="KEY=VALUE",
                help="dotted config override, e.g. generator.guidance_scale=4 (repeatable)",
            )
            p.add_argument("--seed", type=int, help=f"master seed (or set {SEED_ENV_VAR})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="replace an existing output directory")
        p.set_defaults(func=func)
        return p

    command("generate", _cmd_generate, "sample a synthetic dataset manifest")

    p = command("train", _cmd_train, "pretrain an encoder on a manifest")
    p.add_argument("--data", required=True, help="training manifest path")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="STEPS")

    p = command("probe", _cmd_probe, "linear-probe a frozen encoder")
    p.add_argument("--data", help="training manifest (probe fit data)")
    p.add_argument("--eval-data", help="held-out manifest (probe test data)")
    p.add_argument("--checkpoint", help="encoder checkpoint; omit to probe raw features")
    p.add_argument("--train-features", help="feature file alternative to --data")
    p.add_argument("--test-features", help="feature file alternative to --eval-data")

    p = command("fewshot", _cmd_fewshot, "episodic few-shot evaluation")
    p.add_argument("--data", help="manifest to evaluate on")
    p.add_argument("--checkpoint", help="encoder checkpoint; omit to use raw features")
    p.add_argument("--features", help="feature file alternative to --data")

    p = command("sweep", _cmd_sweep, "grid over one axis: w, m, l, or epochs")
    p.add_argument("--axis", required=True, choices=("w", "m", "l", "epochs"))
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated values; axis w also accepts small/large/mixed",
    )

    p = command(
        "report", _cmd_report, "render saved reports as table, csv, or svg", configured=False
    )
    p.add_argument("--inputs", required=True, help="comma-separated report.json paths")
    p.add_argument("--format", default="table", choices=("table", "csv", "svg"))
    p.add_argument("--axis", help="axis label for sweep rendering")
    p.add_argument("--values", help="comma-separated axis values (default: from inputs)")
    p.add_argument("--title", default="", help="plot title for svg output")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = seed = cfg_hash = None
        if ns.command != "report":
            cfg = _resolve_config(ns)
            seed = _resolve_seed(ns, cfg)
        with _Staging(ns.out, ns.force) as staging:
            if cfg is not None:
                cfg_hash = _write_provenance(
                    staging.path("provenance.json"), ns.command, cfg, seed
                )
            summary = ns.func(ns, staging, cfg, seed, cfg_hash)
    except (CliError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        record = {"error": str(exc), "command": ns.command}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
