"""Command-line pipeline: generate, train, probe, fewshot, sweep, report.

Every run resolves a JSON config (defaults < --config file < --set overrides),
derives all randomness from one master seed (--seed flag, SYNTHREP_SEED
environment variable, or config "seed"), stages its artifacts in a temporary
directory, and renames it into place on success. Reruns with identical config
and seed produce byte-identical files. Failures print a single JSON error
record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

import numpy as np
import scipy

from . import __version__
from .data import dedup_captions, load_captions, split_budget, synth_captions
from .encoder import Encoder, EncoderConfig
from .evaluate import (
    EpisodeSpec,
    EvalReport,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    linear_probe,
    load_features,
    stratified_split,
)
from .generator import GeneratorConfig, generate_dataset
from .manifest import canonical_json, json_digest, read_manifest, write_manifest
from .report import emit_report
from .seeding import derive_u64
from .train import (
    TrainConfig,
    load_checkpoint,
    run_training,
    sub_params,
    train_config_hash,
)

__all__ = ["main"]

SEED_ENV_VAR = "SYNTHREP_SEED"

# named guidance-scale groups for mixed-scale dataset generation
GUIDANCE_GROUPS = {
    "small": [2.0, 3.0],
    "large": [8.0, 10.0],
    "mixed": [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0],
}

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "generator": GeneratorConfig().to_dict(),
    "data": {
        "num_captions": 500,
        "images_per_caption": 10,
        "captions_file": None,
        "guidance_scales": None,
        "sampler": "ddim",
    },
    "train": {
        "batch_spec": {"num_captions": 20, "samples_per_caption": 6},
        "loss_variant": "multi_positive",
        "tau": 0.5,
        "base_lr": 1.0e-2,
        "weight_decay": 0.1,
        "betas": [0.9, 0.98],
        "epochs": 192,
        "warmup_epochs": 1.0,
        "augment_strength": 0.1,
        "encoder": {},
        "text_encoder": None,
        "grad_clip": None,
    },
    "probe": {
        "normalize_features": False,
        "val_fraction": 0.2,
        "max_iterations": 500,
    },
    "fewshot": {
        "ways": 5,
        "shots": 5,
        "queries_per_class": 15,
        "episodes": 600,
        "reg_lambda": 1.0,
    },
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


def _parse_override(expr: str) -> tuple[list[str], object]:
    if "=" not in expr:
        raise CliError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_override(cfg: dict, path: list[str], value) -> None:
    node = cfg
    for part in path[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise CliError(f"cannot descend into non-dict config key {part!r}")
    node[path[-1]] = value


def _resolve_config(ns: argparse.Namespace) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliError(f"{ns.config}: a config file must hold a JSON object")
        cfg = _deep_update(cfg, loaded)
    for expr in getattr(ns, "set", None) or []:
        path, value = _parse_override(expr)
        _apply_override(cfg, path, value)
    for name, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg[name], dict):
            raise CliError(
                f"config section {name!r} must be an object, not {json.dumps(cfg[name])}"
            )
    return cfg


def _resolve_seed(ns: argparse.Namespace, cfg: dict) -> int:
    if getattr(ns, "seed", None) is not None:
        return int(ns.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CliError(f"config seed must be an integer, got {json.dumps(seed)}")
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


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj) + "\n")


def _write_provenance(path: str, command: str, cfg: dict, seed: int) -> str:
    record = {
        "command": command,
        "config_hash": json_digest({"config": cfg, "seed": seed}),
        "seed": seed,
        "versions": {
            "synthrep": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _write_json(path, record)
    return record["config_hash"]


# -- shared pipeline pieces -------------------------------------------------------


def _caption_records(data_cfg: dict, num_classes: int, seed: int):
    """Captions from a file (deduplicated) or synthesized deterministically."""
    if data_cfg.get("captions_file"):
        records = dedup_captions(load_captions(data_cfg["captions_file"], num_classes))
        if not records:
            raise CliError("caption file contained no usable captions")
        return records
    return synth_captions(int(data_cfg["num_captions"]), num_classes, seed)


def _build_manifest(cfg: dict, seed: int, sampler_override: str | None = None):
    gcfg = GeneratorConfig.from_dict(cfg["generator"])
    data = cfg["data"]
    records = _caption_records(data, gcfg.num_classes, derive_u64(seed, 10))
    scales = data.get("guidance_scales")
    if isinstance(scales, str):
        if scales not in GUIDANCE_GROUPS:
            raise CliError(
                f"unknown guidance group {scales!r}; choose from {sorted(GUIDANCE_GROUPS)}"
            )
        scales = GUIDANCE_GROUPS[scales]
    manifest = generate_dataset(
        [r.prompt for r in records],
        int(data["images_per_caption"]),
        gcfg,
        derive_u64(seed, 11),
        guidance_scales=scales,
        sampler=sampler_override or data.get("sampler", "ddim"),
    )
    return manifest, records


def _train_config(cfg: dict, feature_dim: int, seed: int) -> TrainConfig:
    section = json.loads(json.dumps(cfg["train"]))
    enc = dict(section.get("encoder") or {})
    enc.setdefault("input_dim", feature_dim)
    section["encoder"] = enc
    variant = section.get("loss_variant", "multi_positive")
    if variant in ("pair_only", "multi_positive_text") and not section.get("text_encoder"):
        section["text_encoder"] = {
            "input_dim": feature_dim,
            "mlp_widths": [64],
            "head_hidden": 128,
            "head_out": enc.get("head_out", EncoderConfig().head_out),
        }
    section["seed"] = seed
    try:
        return TrainConfig.from_dict(section)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid train config: {exc}") from exc


def _encoder_from_checkpoint(path: str):
    cfg, ts, meta = load_checkpoint(path)
    enc = Encoder(cfg.encoder)
    params = sub_params(ts.params, "img.")
    state = sub_params(ts.norm_state, "img.")
    return enc, params, state, meta


def _features_from(manifest_path: str, checkpoint: str | None):
    manifest = read_manifest(manifest_path)
    if checkpoint is None:
        return manifest.features, manifest.class_ids, manifest.hash()
    enc, params, state, _ = _encoder_from_checkpoint(checkpoint)
    feats = encode_dataset(manifest, enc, params, state)
    return feats, manifest.class_ids, manifest.hash()


# -- subcommands ------------------------------------------------------------------


def _cmd_generate(ns: argparse.Namespace) -> int:
    cfg = _resolve_config(ns)
    seed = _resolve_seed(ns, cfg)
    with _Staging(ns.out, ns.force) as staging:
        manifest, records = _build_manifest(cfg, seed)
        write_manifest(manifest, staging.path("manifest.jsonl"))
        with open(staging.path("captions.txt"), "w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(rec.text + "\n")
        _write_provenance(staging.path("provenance.json"), "generate", cfg, seed)
    print(f"wrote {manifest.num_samples} samples to {staging.final}/manifest.jsonl")
    return 0


def _cmd_train(ns: argparse.Namespace) -> int:
    cfg = _resolve_config(ns)
    seed = _resolve_seed(ns, cfg)
    manifest = read_manifest(ns.data)
    tcfg = _train_config(cfg, manifest.config.feature_dim, seed)
    with _Staging(ns.out, ns.force) as staging:
        ts, metrics = run_training(
            manifest,
            tcfg,
            out_dir=staging.tmp,
            checkpoint_every=ns.checkpoint_every,
            resume_from=ns.resume,
        )
        _write_provenance(staging.path("provenance.json"), "train", cfg, seed)
    print(
        f"trained {ts.step} steps ({tcfg.loss_variant}), final loss "
        f"{metrics[-1]['loss']:.4f}, artifacts in {staging.final}"
    )
    return 0


def _probe_config(cfg: dict, seed: int) -> ProbeConfig:
    pc = cfg["probe"]
    return ProbeConfig(
        normalize_features=bool(pc["normalize_features"]),
        val_fraction=float(pc["val_fraction"]),
        max_iterations=int(pc["max_iterations"]),
        seed=derive_u64(seed, 30),
    )


def _probe_report(ns: argparse.Namespace, cfg: dict, seed: int) -> EvalReport:
    if ns.train_features:
        _, train_y, train_x = load_features(ns.train_features)
        _, test_y, test_x = load_features(ns.test_features)
        dataset_id = ""
    else:
        train_x, train_y, train_hash = _features_from(ns.data, ns.checkpoint)
        test_x, test_y, _ = _features_from(ns.eval_data, ns.checkpoint)
        dataset_id = train_hash
    report = linear_probe(train_x, train_y, test_x, test_y, _probe_config(cfg, seed))
    report.dataset_id = dataset_id
    report.checkpoint_id = ns.checkpoint or ""
    return report


def _cmd_probe(ns: argparse.Namespace) -> int:
    cfg = _resolve_config(ns)
    seed = _resolve_seed(ns, cfg)
    if bool(ns.train_features) != bool(ns.test_features):
        raise CliError("--train-features and --test-features must be given together")
    if not ns.train_features and not (ns.data and ns.eval_data):
        raise CliError("probe needs --data and --eval-data manifests, or feature files")
    with _Staging(ns.out, ns.force) as staging:
        report = _probe_report(ns, cfg, seed)
        cfg_hash = _write_provenance(staging.path("provenance.json"), "probe", cfg, seed)
        payload = report.to_dict()
        payload["config_hash"] = cfg_hash
        _write_json(staging.path("report.json"), payload)
        emit_report([report], "csv", staging.path("report.csv"), meta_comment=cfg_hash)
    print(
        f"linear probe accuracy {report.accuracy:.4f} +- {report.ci95:.4f} "
        f"(lambda {report.details['selected_lambda']:.3g}), report in {staging.final}"
    )
    return 0


def _cmd_fewshot(ns: argparse.Namespace) -> int:
    cfg = _resolve_config(ns)
    seed = _resolve_seed(ns, cfg)
    fs = cfg["fewshot"]
    spec = EpisodeSpec(
        ways=int(fs["ways"]),
        shots=int(fs["shots"]),
        queries_per_class=int(fs["queries_per_class"]),
        episodes=int(fs["episodes"]),
        reg_lambda=float(fs["reg_lambda"]),
        seed=derive_u64(seed, 31),
    )
    with _Staging(ns.out, ns.force) as staging:
        if ns.features:
            _, labels, feats = load_features(ns.features)
            dataset_id = ""
        else:
            feats, labels, dataset_id = _features_from(ns.data, ns.checkpoint)
        report = fewshot_eval(feats, labels, spec)
        report.dataset_id = dataset_id
        report.checkpoint_id = ns.checkpoint or ""
        cfg_hash = _write_provenance(staging.path("provenance.json"), "fewshot", cfg, seed)
        payload = report.to_dict()
        payload["config_hash"] = cfg_hash
        _write_json(staging.path("report.json"), payload)
        emit_report([report], "csv", staging.path("report.csv"), meta_comment=cfg_hash)
    print(
        f"{spec.ways}-way {spec.shots}-shot accuracy {report.accuracy:.4f} "
        f"+- {report.ci95:.4f} over {spec.episodes} episodes, report in {staging.final}"
    )
    return 0


# -- sweep -------------------------------------------------------------------------


def _sweep_eval_split(cfg: dict, seed: int):
    """Held-out direct-sampled data, shared by every sweep point."""
    gcfg = GeneratorConfig.from_dict(cfg["generator"])
    ed = cfg["eval_data"]
    records = synth_captions(int(ed["num_captions"]), gcfg.num_classes, derive_u64(seed, 20))
    manifest = generate_dataset(
        [r.prompt for r in records],
        int(ed["samples_per_caption"]),
        gcfg,
        derive_u64(seed, 21),
        sampler="direct",
    )
    train_frac = float(ed["train_fraction"])
    train_rows, test_rows = stratified_split(
        manifest.class_ids, 1.0 - train_frac, derive_u64(seed, 22)
    )
    return manifest, train_rows, test_rows


def _sweep_point(axis: str, raw_value: str, cfg: dict, seed: int):
    """Resolve one sweep cell into (config, train manifest, numeric axis value)."""
    cell = json.loads(json.dumps(cfg))
    numeric: float | None = None
    if axis == "w":
        if raw_value in GUIDANCE_GROUPS:
            cell["data"]["guidance_scales"] = raw_value
        else:
            numeric = float(raw_value)
            cell["generator"]["guidance_scale"] = numeric
            cell["data"]["guidance_scales"] = None
    elif axis == "m":
        m = int(raw_value)
        numeric = float(m)
        if m == 1:
            cell["train"]["loss_variant"] = "simclr_reduction"
            cell["train"]["batch_spec"]["samples_per_caption"] = 2
        else:
            cell["train"]["loss_variant"] = "multi_positive"
            cell["train"]["batch_spec"]["samples_per_caption"] = m
    elif axis == "l":
        l = int(raw_value)
        numeric = float(l)
        total = int(cell["data"]["num_captions"]) * int(cell["data"]["images_per_caption"])
        budget = split_budget(total, l)
        cell["data"]["num_captions"] = budget.num_captions
        cell["data"]["images_per_caption"] = l
        m = min(int(cell["train"]["batch_spec"]["samples_per_caption"]), l)
        if m == 1:
            cell["train"]["loss_variant"] = "simclr_reduction"
            m = 2
        else:
            cell["train"]["loss_variant"] = "multi_positive"
        cell["train"]["batch_spec"]["samples_per_caption"] = m
        # resizing the caption pool can break batch divisibility; shrink n to fit
        n = int(cell["train"]["batch_spec"]["num_captions"])
        epochs = int(cell["train"]["epochs"])
        while n > 2 and (
            budget.num_captions % n != 0 or (2 * epochs * budget.num_captions) % (n * m) != 0
        ):
            n -= 1
        cell["train"]["batch_spec"]["num_captions"] = n
    elif axis == "epochs":
        numeric = float(int(raw_value))
        cell["train"]["epochs"] = int(raw_value)
    else:
        raise CliError(f"unknown sweep axis {axis!r}")
    return cell, numeric


def _cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _resolve_config(ns)
    seed = _resolve_seed(ns, cfg)
    values = [v.strip() for v in ns.values.split(",") if v.strip()]
    if not values:
        raise CliError("--values must list at least one value")

    with _Staging(ns.out, ns.force) as staging:
        eval_manifest, eval_train_rows, eval_test_rows = _sweep_eval_split(cfg, seed)
        # axes that leave the dataset unchanged share one manifest
        shared_manifest = None
        if ns.axis in ("m", "epochs"):
            shared_manifest, _ = _build_manifest(cfg, seed)
            write_manifest(shared_manifest, staging.path("dataset", "manifest.jsonl"))

        reports, numerics = [], []
        for raw in values:
            cell, numeric = _sweep_point(ns.axis, raw, cfg, seed)
            label = f"{ns.axis}_{raw}"
            if shared_manifest is not None:
                manifest = shared_manifest
            else:
                manifest, _ = _build_manifest(cell, seed)
                write_manifest(manifest, staging.path(label, "manifest.jsonl"))

            tcfg = _train_config(cell, manifest.config.feature_dim, seed)
            run_dir = staging.path(label, "train")
            os.makedirs(run_dir, exist_ok=True)
            ts, _ = run_training(manifest, tcfg, out_dir=run_dir)

            enc = Encoder(tcfg.encoder)
            params = sub_params(ts.params, "img.")
            state = sub_params(ts.norm_state, "img.")
            feats = encode_dataset(eval_manifest, enc, params, state)
            report = linear_probe(
                feats[eval_train_rows],
                eval_manifest.class_ids[eval_train_rows],
                feats[eval_test_rows],
                eval_manifest.class_ids[eval_test_rows],
                _probe_config(cell, seed),
            )
            report.dataset_id = manifest.hash()
            report.checkpoint_id = train_config_hash(tcfg)
            payload = report.to_dict()
            payload["axis"] = ns.axis
            payload["value"] = raw
            _write_json(staging.path(label, "report.json"), payload)
            reports.append(report)
            numerics.append(numeric)

        cfg_hash = _write_provenance(staging.path("provenance.json"), "sweep", cfg, seed)
        axis_vals = [n if n is not None else "" for n in numerics]
        emit_report(
            reports, "csv", staging.path("summary.csv"),
            axis_name=ns.axis, axis_values=axis_vals, meta_comment=cfg_hash,
        )
        emit_report(
            reports, "table", staging.path("summary.txt"),
            axis_name=ns.axis, axis_values=axis_vals, meta_comment=cfg_hash,
        )
        if all(n is not None for n in numerics):
            emit_report(
                reports, "svg", staging.path("summary.svg"),
                axis_name=ns.axis, axis_values=numerics,
                title=f"linear probe vs {ns.axis}", meta_comment=cfg_hash,
            )
    accs = ", ".join(f"{v}:{r.accuracy:.4f}" for v, r in zip(values, reports))
    print(f"sweep over {ns.axis} done ({accs}), summary in {staging.final}")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    paths = [p.strip() for p in ns.inputs.split(",") if p.strip()]
    if not paths:
        raise CliError("--inputs must list report JSON files")
    reports, values = [], []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        values.append(payload.get("value", ""))
        reports.append(
            EvalReport(
                kind=payload["kind"],
                accuracy=payload["accuracy"],
                ci95=payload["ci95"],
                count=payload["count"],
                config=payload.get("config", {}),
                details=payload.get("details", {}),
                dataset_id=payload.get("dataset_id", ""),
                checkpoint_id=payload.get("checkpoint_id", ""),
            )
        )
    axis_values = values
    if ns.values:
        axis_values = [v.strip() for v in ns.values.split(",")]
        if len(axis_values) != len(reports):
            raise CliError("--values must match the number of inputs")
    with _Staging(ns.out, ns.force) as staging:
        cfg_hash = json_digest({"inputs": paths, "axis": ns.axis or ""})
        name = {"csv": "report.csv", "table": "report.txt", "svg": "report.svg"}[ns.format]
        emit_report(
            reports, ns.format, staging.path(name),
            axis_name=ns.axis, axis_values=axis_values,
            title=ns.title, meta_comment=cfg_hash,
        )
        _write_json(
            staging.path("provenance.json"), {"command": "report", "config_hash": cfg_hash}
        )
    print(f"rendered {len(reports)} report(s) to {staging.final}/{name}")
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthrep",
        description="Synthetic-data contrastive pretraining pipeline at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic dataset manifest")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="pretrain an encoder on a manifest")
    _add_common(p)
    p.add_argument("--data", required=True, help="training manifest path")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="STEPS")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probe", help="linear-probe a frozen encoder")
    _add_common(p)
    p.add_argument("--data", help="training manifest (probe fit data)")
    p.add_argument("--eval-data", help="held-out manifest (probe test data)")
    p.add_argument("--checkpoint", help="encoder checkpoint; omit to probe raw features")
    p.add_argument("--train-features", help="feature file alternative to --data")
    p.add_argument("--test-features", help="feature file alternative to --eval-data")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("fewshot", help="episodic few-shot evaluation")
    _add_common(p)
    p.add_argument("--data", help="manifest to evaluate on")
    p.add_argument("--checkpoint", help="encoder checkpoint; omit to use raw features")
    p.add_argument("--features", help="feature file alternative to --data")
    p.set_defaults(func=_cmd_fewshot)

    p = sub.add_parser("sweep", help="grid over one axis: w, m, l, or epochs")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=("w", "m", "l", "epochs"))
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated values; axis w also accepts small/large/mixed",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render saved reports as table, csv, or svg")
    _add_common(p)
    p.add_argument("--inputs", required=True, help="comma-separated report.json paths")
    p.add_argument("--format", default="table", choices=("table", "csv", "svg"))
    p.add_argument("--axis", help="axis label for sweep rendering")
    p.add_argument("--values", help="comma-separated axis values (default: from inputs)")
    p.add_argument("--title", default="", help="plot title for svg output")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        record = {"error": str(exc), "command": ns.command}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
