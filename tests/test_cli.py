import builtins
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import synthrep
from synthrep.cli import SEED_ENV_VAR, main
from synthrep.encoder import EncoderConfig
from feature_files import save_features
from synthrep.manifest import read_manifest
from synthrep.train import load_checkpoint, save_checkpoint

TINY = {
    "generator": {"feature_dim": 4, "num_classes": 3, "ddim_steps": 5},
    "data": {"num_captions": 8, "images_per_caption": 3},
    "train": {
        "batch_spec": {"num_captions": 4, "samples_per_caption": 2},
        "epochs": 2,
        "warmup_epochs": 0.5,
        "encoder": {"mlp_widths": [8], "head_hidden": 8, "head_out": 4},
    },
    "probe": {"max_iterations": 200},
    "fewshot": {"ways": 2, "shots": 1, "queries_per_class": 1, "episodes": 4},
    "eval_data": {"num_captions": 6, "samples_per_caption": 4, "train_fraction": 0.5},
}


@pytest.fixture(autouse=True)
def isolate_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def generated(workdir):
    root, cfg = workdir
    out = str(root / "data")
    assert main(["generate", "--config", cfg, "--seed", "5", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def eval_generated(workdir):
    root, cfg = workdir
    out = str(root / "evaldata")
    assert main(["generate", "--config", cfg, "--seed", "6", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def trained(workdir, generated):
    root, cfg = workdir
    out = str(root / "run")
    code = main(
        [
            "train",
            "--config",
            cfg,
            "--seed",
            "5",
            "--data",
            os.path.join(generated, "manifest.jsonl"),
            "--out",
            out,
        ]
    )
    assert code == 0
    return out


def test_generate_outputs(generated):
    names = sorted(os.listdir(generated))
    assert names == ["captions.txt", "manifest.jsonl", "provenance.json"]
    man = read_manifest(os.path.join(generated, "manifest.jsonl"))
    assert man.num_samples == 24
    assert man.config.feature_dim == 4
    assert len(open(os.path.join(generated, "captions.txt")).read().splitlines()) == 8
    prov = json.load(open(os.path.join(generated, "provenance.json")))
    assert prov["seed"] == 5
    assert prov["command"] == "generate"
    assert set(prov["versions"]) == {"synthrep", "numpy", "python"}


def test_generate_rerun_is_byte_identical(workdir, generated):
    root, cfg = workdir
    out2 = str(root / "data_again")
    assert main(["generate", "--config", cfg, "--seed", "5", "--out", out2]) == 0
    for name in ("manifest.jsonl", "captions.txt", "provenance.json"):
        a = open(os.path.join(generated, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_existing_output_needs_force(workdir, generated, capsys):
    root, cfg = workdir
    assert main(["generate", "--config", cfg, "--seed", "5", "--out", generated]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "exists" in err["error"]
    assert err["command"] == "generate"
    assert (
        main(["generate", "--config", cfg, "--seed", "5", "--out", generated, "--force"])
        == 0
    )
    assert not os.path.exists(generated + ".partial")


def test_set_overrides(workdir, capsys):
    root, cfg = workdir
    out = str(root / "override")
    code = main(
        [
            "generate",
            "--config",
            cfg,
            "--seed",
            "1",
            "--set",
            "generator.feature_dim=6",
            "--set",
            "data.num_captions=4",
            "--out",
            out,
        ]
    )
    assert code == 0
    man = read_manifest(os.path.join(out, "manifest.jsonl"))
    assert man.config.feature_dim == 6
    assert man.unique_caption_ids.size == 4

    assert main(["generate", "--config", cfg, "--set", "nodelimiter", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "--set" in err["error"] or "=" in err["error"]


def test_seed_resolution_order(workdir, monkeypatch):
    root, cfg = workdir
    out_env = str(root / "seed_env")
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert main(["generate", "--config", cfg, "--out", out_env]) == 0
    assert json.load(open(os.path.join(out_env, "provenance.json")))["seed"] == 9

    out_flag = str(root / "seed_flag")
    assert main(["generate", "--config", cfg, "--seed", "4", "--out", out_flag]) == 0
    assert json.load(open(os.path.join(out_flag, "provenance.json")))["seed"] == 4

    monkeypatch.delenv(SEED_ENV_VAR)
    out_default = str(root / "seed_default")
    assert main(["generate", "--config", cfg, "--out", out_default]) == 0
    assert json.load(open(os.path.join(out_default, "provenance.json")))["seed"] == 0


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_negative_seed_is_refused_naming_its_source(workdir, capsys, monkeypatch, tmp_path, source):
    root, cfg = workdir
    out = str(tmp_path / "never")
    argv = ["generate", "--config", cfg, "--out", out]
    if source == "flag":
        argv += ["--seed", "-1"]
        expected = "--seed must be a non-negative integer, got -1"
    elif source == "env":
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        expected = f"{SEED_ENV_VAR} must be a non-negative integer, got -3"
    else:
        argv += ["--set", "seed=-2"]
        expected = "config seed must be a non-negative integer, got -2"
    capsys.readouterr()
    assert main(argv) == 1
    assert _single_json_error(capsys, "generate") == expected
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["null", '"5"', "[1]", "1.5", "true"])
def test_non_integer_config_seed_is_json_error(workdir, capsys, tmp_path, value):
    root, cfg = workdir
    out = str(tmp_path / "never")
    capsys.readouterr()
    assert main(["generate", "--config", cfg, "--out", out, "--set", f"seed={value}"]) == 1
    assert "config seed must be an integer" in _single_json_error(capsys, "generate")
    assert not os.path.exists(out)


def test_train_outputs_and_rerun(workdir, generated, trained):
    root, cfg = workdir
    assert sorted(os.listdir(trained)) == [
        "checkpoint.bin",
        "metrics.jsonl",
        "provenance.json",
    ]
    lines = open(os.path.join(trained, "metrics.jsonl")).read().splitlines()
    assert json.loads(lines[0])["kind"] == "synthrep-metrics"
    assert len(lines) == 1 + 4  # 2 * 2 * 8 / (4 * 2) steps

    out2 = str(root / "run_again")
    code = main(
        [
            "train",
            "--config",
            cfg,
            "--seed",
            "5",
            "--data",
            os.path.join(generated, "manifest.jsonl"),
            "--out",
            out2,
        ]
    )
    assert code == 0
    a = open(os.path.join(trained, "checkpoint.bin"), "rb").read()
    b = open(os.path.join(out2, "checkpoint.bin"), "rb").read()
    assert a == b


def test_error_record_is_json(workdir, capsys, tmp_path):
    root, cfg = workdir
    out = str(tmp_path / "never")
    code = main(
        ["train", "--config", cfg, "--data", "/no/such/manifest.jsonl", "--out", out]
    )
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    rec = json.loads(err_lines[0])
    assert set(rec) == {"command", "error"}
    assert rec["command"] == "train"
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".partial")


def _fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this checkout's synthrep."""
    src = os.path.dirname(os.path.dirname(synthrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(SEED_ENV_VAR, None)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def _fresh_stdout(*args: str, cwd=None) -> str:
    done = _fresh_python(*args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _single_json_error(capsys, command):
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    rec = json.loads(err_lines[0])
    assert rec["command"] == command
    return rec["error"]


def test_train_on_manifest_without_config_is_json_error(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    lines = open(os.path.join(generated, "manifest.jsonl")).read().splitlines()
    header = json.loads(lines[0])
    del header["config"]
    bad = tmp_path / "manifest.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["train", "--config", cfg, "--data", str(bad), "--out", out])
    assert code == 1
    error = _single_json_error(capsys, "train")
    assert str(bad) in error and "'config'" in error
    assert not os.path.exists(out)


def test_train_on_edited_manifest_is_json_error(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    lines = open(os.path.join(generated, "manifest.jsonl")).read().splitlines()
    rec = json.loads(lines[1])
    rec["feature"][0] += 1.0
    bad = tmp_path / "manifest.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["train", "--config", cfg, "--data", str(bad), "--out", out])
    assert code == 1
    error = _single_json_error(capsys, "train")
    assert str(bad) in error and "content hash mismatch" in error
    assert not os.path.exists(out)


def test_negative_checkpoint_interval_is_json_error(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["train", "--config", cfg, "--seed", "5", "--data",
         os.path.join(generated, "manifest.jsonl"), "--checkpoint-every", "-1", "--out", out]
    )
    assert code == 1
    assert _single_json_error(capsys, "train") == "--checkpoint-every must be >= 0, got -1"
    assert not os.path.exists(out)


def test_train_resume_on_another_manifest_is_refused(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    other = str(tmp_path / "other")
    assert main(["generate", "--config", cfg, "--seed", "7", "--out", other]) == 0
    first = str(tmp_path / "first")
    data = os.path.join(generated, "manifest.jsonl")
    base = ["train", "--config", cfg, "--seed", "5"]
    assert main(base + ["--data", data, "--checkpoint-every", "2", "--out", first]) == 0
    ckpt = os.path.join(first, "checkpoint_000002.bin")
    out = str(tmp_path / "resumed")
    capsys.readouterr()
    code = main(
        base + ["--data", os.path.join(other, "manifest.jsonl"), "--resume", ckpt, "--out", out]
    )
    assert code == 1
    assert "dataset" in _single_json_error(capsys, "train")
    assert not os.path.exists(out)


def test_train_resume_on_a_finished_checkpoint_is_refused(
    workdir, generated, trained, capsys, tmp_path
):
    root, cfg = workdir
    data = os.path.join(generated, "manifest.jsonl")
    ckpt = os.path.join(trained, "checkpoint.bin")
    out = str(tmp_path / "resumed")
    capsys.readouterr()
    code = main(
        ["train", "--config", cfg, "--seed", "5", "--data", data, "--resume", ckpt,
         "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "train")
    assert ckpt in error and "step" in error
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".partial")


def test_train_resume_from_a_negative_step_names_the_file(
    workdir, generated, trained, capsys, tmp_path
):
    root, cfg = workdir
    raw = open(os.path.join(trained, "checkpoint.bin"), "rb").read()
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    header["meta"].update(step=-2, opt_step=-2)
    blob = json.dumps(header).encode("utf-8")
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + blob_len :])
    out = str(tmp_path / "resumed")
    capsys.readouterr()
    code = main(
        ["train", "--config", cfg, "--seed", "5", "--data",
         os.path.join(generated, "manifest.jsonl"), "--resume", str(bad), "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "train")
    assert error.startswith(f"{bad}: meta field 'step' is invalid: ")
    assert not os.path.exists(out)


def _probe_edited_checkpoint(cfg, generated, eval_generated, trained, capsys, tmp_path, edit):
    """Probe with a copy of the trained checkpoint whose header edit(header)
    rewrote; return the copy's path and the one JSON error line's message."""
    raw = open(os.path.join(trained, "checkpoint.bin"), "rb").read()
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + blob_len :])
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["probe", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--eval-data", os.path.join(eval_generated, "manifest.jsonl"),
         "--checkpoint", str(bad), "--out", out]
    )
    assert code == 1
    assert not os.path.exists(out)
    return str(bad), _single_json_error(capsys, "probe")


def test_probe_checkpoint_without_arrays_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    bad, error = _probe_edited_checkpoint(
        workdir[1], generated, eval_generated, trained, capsys, tmp_path,
        lambda header: header.pop("arrays"),
    )
    assert bad in error and "'arrays'" in error


def test_probe_checkpoint_with_non_object_encoder_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    bad, error = _probe_edited_checkpoint(
        workdir[1], generated, eval_generated, trained, capsys, tmp_path,
        lambda header: header["meta"]["train_config"].update(encoder=5),
    )
    assert bad in error and "meta field 'train_config' is invalid" in error


def test_probe_checkpoint_too_large_to_allocate_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    # a (4, 2**45) first weight: 1 PiB, above the 128 TiB a process can map,
    # so the allocation fails at once without touching memory
    _, error = _probe_edited_checkpoint(
        workdir[1], generated, eval_generated, trained, capsys, tmp_path,
        lambda header: header["meta"]["train_config"]["encoder"].update(mlp_widths=[2**45, 8]),
    )
    assert error


def test_probe_manifest_too_large_to_allocate_is_json_error(
    workdir, generated, eval_generated, capsys, tmp_path
):
    root, cfg = workdir
    lines = open(os.path.join(generated, "manifest.jsonl")).read().splitlines()
    header = json.loads(lines[0])
    header["config"]["feature_dim"] = 2**45  # 24 rows of it: 6 PiB
    bad = tmp_path / "manifest.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["probe", "--config", cfg, "--seed", "5", "--data", str(bad),
         "--eval-data", os.path.join(eval_generated, "manifest.jsonl"), "--out", out]
    )
    assert code == 1
    assert _single_json_error(capsys, "probe")
    assert not os.path.exists(out)


def test_probe_checkpoint_of_another_format_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    bad, error = _probe_edited_checkpoint(
        workdir[1], generated, eval_generated, trained, capsys, tmp_path,
        lambda header: header.update(format=1),
    )
    assert bad in error and "unsupported checkpoint format" in error


def test_probe_checkpoint_without_an_array_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    root, cfg = workdir
    tcfg, ts, _ = load_checkpoint(os.path.join(trained, "checkpoint.bin"))
    del ts.params["img.head.l2.W"]
    bad = tmp_path / "checkpoint.bin"
    save_checkpoint(str(bad), tcfg, ts)
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["probe", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--eval-data", os.path.join(eval_generated, "manifest.jsonl"),
         "--checkpoint", str(bad), "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "probe")
    assert str(bad) in error and "'params/img.head.l2.W'" in error
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_is_json_error(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["train", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--set", "train.epochs=6", "--set", "train.base_lr=1e12", "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "train")
    assert "non-finite" in error and "step" in error and "lr=" in error
    assert not os.path.exists(out)


def test_diverging_train_writes_one_stderr_line(tmp_path):
    # numpy overflow warnings from the diverging forward pass must not
    # precede the documented JSON error line; a fresh process, because
    # pytest would capture the warnings before they reach stderr
    data = str(tmp_path / "data")
    code = main(
        ["generate", "--seed", "5", "--out", data,
         "--set", "data.num_captions=100", "--set", "data.images_per_caption=6"]
    )
    assert code == 0
    done = _fresh_python(
        "-m", "synthrep.cli", "train", "--seed", "5",
        "--data", os.path.join(data, "manifest.jsonl"), "--out", str(tmp_path / "run"),
        "--set", "train.epochs=6", "--set", "train.base_lr=1e12",
    )
    assert done.returncode == 1
    err_lines = done.stderr.splitlines()
    assert len(err_lines) == 1, done.stderr
    rec = json.loads(err_lines[0])
    assert rec["command"] == "train" and "non-finite" in rec["error"]


# each section with a command that reads it
@pytest.mark.parametrize(
    "section, command",
    [
        ("data", "generate"),
        ("generator", "generate"),
        ("train", "train"),
        ("probe", "probe"),
        ("fewshot", "fewshot"),
    ],
)
def test_config_section_of_the_wrong_type_is_json_error(
    workdir, generated, eval_generated, capsys, tmp_path, section, command
):
    root, cfg = workdir
    inputs = _inputs(command, generated, eval_generated)
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        [command, "--config", cfg, *inputs, "--set", f"{section}=null", "--out", out]
    )
    assert code == 1
    assert repr(section) in _single_json_error(capsys, command)
    assert not os.path.exists(out)


def _inputs(command, generated, eval_generated):
    data = os.path.join(generated, "manifest.jsonl")
    return {
        "generate": [],
        "train": ["--data", data],
        "probe": ["--data", data, "--eval-data", os.path.join(eval_generated, "manifest.jsonl")],
        "fewshot": ["--data", data],
    }[command]


# each value was coerced (bool("no") is true, int(3.9) is 3), silently
# ignored, or ended in a TypeError traceback
@pytest.mark.parametrize(
    "command, override, message",
    [
        ("probe", "probe.normalize_features=no", "'probe.normalize_features' is invalid"),
        ("fewshot", "fewshot.ways=3.9", "'fewshot.ways' is invalid"),
        ("generate", "data.images_per_caption=2.7", "'data.images_per_caption' is invalid"),
        ("generate", 'data.num_captions="4"', "'data.num_captions' is invalid"),
        ("probe", 'probe.val_fraction="0.3"', "'probe.val_fraction' is invalid"),
        ("generate", 'data.guidance_scales=[2, "4"]', "'data.guidance_scales' is invalid"),
        ("probe", "probe.max_iteration=1", "unknown config key 'probe.max_iteration'"),
        ("fewshot", "fewshot.max_iterations=0", "unknown config key 'fewshot.max_iterations'"),
        ("generate", "foo.bar=1", "unknown config key 'foo'"),
        ("generate", 'generator.ddim_steps="5"', "'generator.ddim_steps' is invalid"),
        ("generate", "generator.ddim_steps=3.5", "'generator.ddim_steps' is invalid"),
        ("generate", "generator.feature_dim=4.5", "'generator.feature_dim' is invalid"),
        ("generate", "generator.foo=1", "unknown config key 'generator.foo'"),
        ("train", 'train.tau="x"', "'train.tau' is invalid"),
        ("train", "train.tau=null", "'train.tau' is invalid"),
        ("train", "train.encoder.head_out=2.5", "'train.encoder.head_out' is invalid"),
        ("train", "train.encoder.mlp_widths=[8.5]", "mlp_widths must be integers"),
        (
            "train",
            "train.encoder.norm_momentum=0.5",
            "unknown config key 'train.encoder.norm_momentum'",
        ),
        # each tower's input_dim follows the manifest, the text tower's head_out the image's
        ("train", "train.encoder.input_dim=16", "unknown config key 'train.encoder.input_dim'"),
        (
            "train",
            "train.text_encoder.norm_momentum=0.5",
            "unknown config key 'train.text_encoder.norm_momentum'",
        ),
        (
            "train",
            "train.text_encoder.head_out=32",
            "unknown config key 'train.text_encoder.head_out'",
        ),
        ("train", "train.batch_spec.num_captions=4.0", "'train.batch_spec.num_captions'"),
    ],
)
def test_mistyped_or_unknown_config_value_is_json_error(
    workdir, generated, eval_generated, capsys, tmp_path, command, override, message
):
    _, cfg = workdir
    inputs = _inputs(command, generated, eval_generated)
    out = str(tmp_path / "never")
    capsys.readouterr()
    assert main([command, "--config", cfg, *inputs, "--set", override, "--out", out]) == 1
    assert message in _single_json_error(capsys, command)
    assert not os.path.exists(out)


def test_text_tower_overrides_merge_and_follow_the_manifest(workdir, tmp_path):
    # the text tower resolves like the image tower: its input_dim follows the
    # manifest, its head_out the image tower's, and an object given to --set
    # merges into the defaults as a dotted key does
    root, cfg = workdir
    data = str(tmp_path / "data16")
    assert (
        main(["generate", "--config", cfg, "--seed", "5", "--set", "generator.feature_dim=16",
              "--out", data])
        == 0
    )
    overrides = ['train.text_encoder={"mlp_widths":[32]}', "train.text_encoder.mlp_widths=[32]"]
    checkpoints = []
    for i, override in enumerate(overrides):
        out = str(tmp_path / f"run{i}")
        code = main(
            ["train", "--config", cfg, "--seed", "5",
             "--data", os.path.join(data, "manifest.jsonl"),
             "--set", "train.loss_variant=multi_positive_text", "--set", override, "--out", out]
        )
        assert code == 0
        checkpoints.append(os.path.join(out, "checkpoint.bin"))
    assert _sha256_of(checkpoints[0]) == _sha256_of(checkpoints[1])
    tcfg, _, _ = load_checkpoint(checkpoints[0])
    assert tcfg.encoder.input_dim == 16
    head_out = TINY["train"]["encoder"]["head_out"]
    assert tcfg.text_encoder == EncoderConfig(
        input_dim=16, mlp_widths=(32,), head_hidden=128, head_out=head_out
    )


def test_integer_for_a_float_key_is_reported_as_a_float(workdir, generated, tmp_path):
    # EpisodeSpec.reg_lambda is a float, and the report writes it as one
    root, cfg = workdir
    out = str(tmp_path / "fewshot")
    code = main(
        ["fewshot", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--set", "fewshot.reg_lambda=2", "--out", out]
    )
    assert code == 0
    with open(os.path.join(out, "report.json")) as fh:
        assert '"reg_lambda":2.0,' in fh.read()


def test_integer_guidance_scale_writes_the_manifest_of_its_float(workdir, tmp_path):
    # GeneratorConfig.guidance_scale is a float: 4 and 4.0 are one config,
    # and the provenance hashes it as one
    root, cfg = workdir
    outputs = []
    for value in ("4", "4.0"):
        out = str(tmp_path / value)
        code = main(
            ["generate", "--config", cfg, "--seed", "5",
             "--set", f"generator.guidance_scale={value}", "--out", out]
        )
        assert code == 0
        outputs.append([_sha256_of(os.path.join(out, name))
                        for name in ("manifest.jsonl", "provenance.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command,key,values",
    [("generate", "data.guidance_scales", ("[2,4]", "[2.0,4.0]")),
     ("train", "train.grad_clip", ("1", "1.0"))],
)
def test_integers_in_a_float_list_or_nullable_float_key_hash_as_floats(
    workdir, generated, tmp_path, command, key, values
):
    root, cfg = workdir
    data = [] if command == "generate" else ["--data", os.path.join(generated, "manifest.jsonl")]
    provenance = []
    for i, value in enumerate(values):
        out = str(tmp_path / str(i))
        argv = [command, "--config", cfg, "--seed", "5", *data, "--set", f"{key}={value}"]
        assert main(argv + ["--out", out]) == 0
        provenance.append(_sha256_of(os.path.join(out, "provenance.json")))
    assert provenance[0] == provenance[1]


def test_fewshot_non_finite_features_are_json_error(workdir, generated, capsys, tmp_path):
    root, cfg = workdir
    man = read_manifest(os.path.join(generated, "manifest.jsonl"))
    feats = tmp_path / "features.jsonl"
    # json.dumps writes NaN, which load_features reads; save_features writes
    # nan, which no JSON reader accepts
    with open(feats, "w") as fh:
        for i in range(man.num_samples):
            row = [float("nan") if i == 3 else float(v) for v in man.features[i]]
            rec = {"sample_id": i, "class_id": int(man.class_ids[i]), "feature": row}
            fh.write(json.dumps(rec) + "\n")
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["fewshot", "--config", cfg, "--features", str(feats), "--out", out])
    assert code == 1
    assert "finite" in _single_json_error(capsys, "fewshot")
    assert not os.path.exists(out)


# numpy is the only runtime dependency: the GELU's erf and the L-BFGS solver
# are numpy, and provenance records no scipy version. Each script prints the
# scipy modules a fresh process has loaded.
_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def test_cli_import_leaves_scipy_optimize_unloaded():
    probe = "import sys, synthrep.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_stdout("-c", probe).strip() == "False"


def test_cli_import_leaves_scipy_special_unloaded():
    probe = "import sys, synthrep.cli; print('scipy.special' in sys.modules)"
    assert _fresh_stdout("-c", probe).strip() == "False"


def test_probe_and_fewshot_load_no_scipy_optimize(workdir, generated, eval_generated, tmp_path):
    # train and the encoder forwards of probe and fewshot load no scipy module
    root, cfg = workdir
    script = (
        "import sys\n"
        "from synthrep.cli import main\n"
        "cfg, data, evl = sys.argv[1:]\n"
        "def run(*args):\n"
        "    assert main([*args, '--config', cfg, '--seed', '5']) == 0, args\n"
        "run('train', '--data', data, '--out', 'train')\n"
        + _LOADED_SCIPY
        + "run('probe', '--data', data, '--eval-data', evl,\n"
        "    '--checkpoint', 'train/checkpoint.bin', '--out', 'probe')\n"
        "run('fewshot', '--data', data, '--checkpoint', 'train/checkpoint.bin',\n"
        "    '--out', 'fewshot')\n"
        + _LOADED_SCIPY
    )
    data = os.path.join(generated, "manifest.jsonl")
    evl = os.path.join(eval_generated, "manifest.jsonl")
    out = _fresh_stdout("-c", script, cfg, data, evl, cwd=tmp_path)
    assert [line for line in out.splitlines() if line.startswith("[")] == ["[]", "[]"]
    assert (tmp_path / "probe" / "report.json").exists()
    assert (tmp_path / "fewshot" / "report.json").exists()


def test_generate_and_report_load_no_scipy_submodule(workdir, tmp_path):
    # generate, sweep and report load no scipy module either
    root, cfg = workdir
    script = (
        "import sys\n"
        "from synthrep.cli import main\n"
        "cfg = sys.argv[1]\n"
        "def run(*args):\n"
        "    assert main([*args, '--config', cfg, '--seed', '5']) == 0, args\n"
        "run('generate', '--out', 'data')\n"
        "run('sweep', '--axis', 'epochs', '--values', '1', '--out', 'sweep')\n"
        "assert main(['report', '--inputs', 'sweep/epochs_1/report.json',\n"
        "             '--out', 'rendered']) == 0\n"
        + _LOADED_SCIPY
    )
    out = _fresh_stdout("-c", script, cfg, cwd=tmp_path)
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "data" / "manifest.jsonl").exists()
    assert (tmp_path / "sweep" / "epochs_1" / "report.json").exists()
    assert (tmp_path / "rendered").is_dir()


# sha256 of checkpoint.bin from `train` on TINY with seed 5
_TINY_CHECKPOINT_SHA256 = "0e702c12f06bd16851d59cf5e98131e6396ff35db17adc3935687b7a41bb2958"


def test_train_in_fresh_process_keeps_checkpoint_bits(workdir, tmp_path):
    root, cfg = workdir
    script = (
        "import hashlib, sys\n"
        "from synthrep.cli import main\n"
        "cfg = sys.argv[1]\n"
        "assert main(['generate', '--config', cfg, '--seed', '5', '--out', 'data']) == 0\n"
        "assert main(['train', '--config', cfg, '--seed', '5',\n"
        "             '--data', 'data/manifest.jsonl', '--out', 'run']) == 0\n"
        "print(hashlib.sha256(open('run/checkpoint.bin', 'rb').read()).hexdigest())\n"
    )
    out = _fresh_stdout("-c", script, cfg, cwd=tmp_path)
    assert out.splitlines()[-1] == _TINY_CHECKPOINT_SHA256


@pytest.mark.parametrize("failing_call", [1, 2])
def test_force_keeps_old_output_when_a_rename_fails(
    workdir, monkeypatch, capsys, tmp_path, failing_call
):
    # call 1 moves the old output aside, call 2 moves the new one into place
    root, cfg = workdir
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_rename, calls = os.rename, []

    def rename_failing_once(src, dst):
        calls.append((src, dst))
        if len(calls) == failing_call:
            raise OSError(f"injected rename failure: {src} -> {dst}")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename_failing_once)
    capsys.readouterr()
    code = main(["generate", "--config", cfg, "--seed", "6", "--out", str(out), "--force"])
    monkeypatch.undo()
    assert code == 1
    assert "injected" in _single_json_error(capsys, "generate")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    # without the fault, --force replaces the output and leaves nothing beside it
    assert main(["generate", "--config", cfg, "--seed", "6", "--out", str(out), "--force"]) == 0
    assert (out / "manifest.jsonl").read_bytes() != before["manifest.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def _sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_probe_raw_and_checkpoint(workdir, generated, eval_generated, trained):
    root, cfg = workdir
    data = os.path.join(generated, "manifest.jsonl")
    eval_data = os.path.join(eval_generated, "manifest.jsonl")

    raw_out = str(root / "probe_raw")
    code = main(
        ["probe", "--config", cfg, "--seed", "5", "--data", data,
         "--eval-data", eval_data, "--out", raw_out]
    )
    assert code == 0
    rep = json.load(open(os.path.join(raw_out, "report.json")))
    assert rep["kind"] == "linear_probe"
    assert rep["checkpoint_id"] == ""
    assert 0.0 <= rep["accuracy"] <= 1.0
    assert rep["config_hash"]
    assert rep["dataset_id"] == read_manifest(data).hash()
    assert os.path.exists(os.path.join(raw_out, "report.csv"))

    ckpt_out = str(root / "probe_ckpt")
    code = main(
        ["probe", "--config", cfg, "--seed", "5", "--data", data,
         "--eval-data", eval_data,
         "--checkpoint", os.path.join(trained, "checkpoint.bin"),
         "--out", ckpt_out]
    )
    assert code == 0
    rep2 = json.load(open(os.path.join(ckpt_out, "report.json")))
    assert rep2["checkpoint_id"] == _sha256_of(os.path.join(trained, "checkpoint.bin"))


def test_probe_loads_the_checkpoint_once(
    workdir, generated, eval_generated, trained, monkeypatch, tmp_path
):
    # one load and one open: the report's checkpoint_id is hashed from the
    # bytes the load reads
    calls, opens = [], []
    ckpt = os.path.join(trained, "checkpoint.bin")
    real_open = builtins.open

    def counting_load(path, **kwargs):
        calls.append(path)
        return load_checkpoint(path, **kwargs)

    def counting_open(file, *args, **kwargs):
        if file == ckpt:
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("synthrep.cli.load_checkpoint", counting_load)
    monkeypatch.setattr(builtins, "open", counting_open)
    code = main(
        ["probe", "--config", workdir[1], "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--eval-data", os.path.join(eval_generated, "manifest.jsonl"),
         "--checkpoint", ckpt, "--out", str(tmp_path / "probe")]
    )
    assert code == 0
    assert calls == [ckpt]
    assert opens == [ckpt]
    rep = json.load(open(str(tmp_path / "probe" / "report.json")))
    assert rep["checkpoint_id"] == _sha256_of(ckpt)


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_manifest_of_another_width_than_the_checkpoint_is_json_error(
    workdir, generated, trained, capsys, tmp_path, command
):
    root, cfg = workdir
    wide = str(tmp_path / "wide")
    assert main(
        ["generate", "--config", cfg, "--seed", "7", "--out", wide,
         "--set", "generator.feature_dim=6"]
    ) == 0
    wide_data = os.path.join(wide, "manifest.jsonl")
    data = ["--data", wide_data]
    if command == "probe":  # the training manifest fits; the eval one does not
        data = ["--data", os.path.join(generated, "manifest.jsonl"), "--eval-data", wide_data]
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        [command, "--config", cfg, "--seed", "5", *data,
         "--checkpoint", os.path.join(trained, "checkpoint.bin"), "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, command)
    assert wide_data in error
    assert "feature_dim 6" in error and "input_dim 4" in error
    assert not os.path.exists(out)


def test_probe_feature_file_path(workdir, generated, eval_generated, tmp_path):
    root, cfg = workdir
    man = read_manifest(os.path.join(generated, "manifest.jsonl"))
    eman = read_manifest(os.path.join(eval_generated, "manifest.jsonl"))
    tr = str(tmp_path / "train.jsonl")
    te = str(tmp_path / "test.jsonl")
    save_features(tr, np.arange(man.num_samples), man.class_ids, man.features)
    save_features(te, np.arange(eman.num_samples), eman.class_ids, eman.features)

    out = str(tmp_path / "probe_files")
    code = main(
        ["probe", "--config", cfg, "--train-features", tr, "--test-features", te,
         "--out", out]
    )
    assert code == 0

    assert main(["probe", "--config", cfg, "--train-features", tr, "--out", out]) == 1
    assert main(["probe", "--config", cfg, "--out", out]) == 1


def test_probe_with_an_empty_validation_split_is_json_error(capsys, tmp_path):
    # with one row per class the probe has no row to select its penalty on
    feats = str(tmp_path / "features.jsonl")
    save_features(feats, np.arange(3), np.arange(3), np.eye(3))
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["probe", "--train-features", feats, "--test-features", feats, "--out", out])
    assert code == 1
    assert "validation split is empty" in _single_json_error(capsys, "probe")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_checkpoint_with_feature_files_is_json_error(
    workdir, generated, trained, capsys, tmp_path, command
):
    # feature files are already encoded: a checkpoint would go unread
    root, cfg = workdir
    man = read_manifest(os.path.join(generated, "manifest.jsonl"))
    feats = str(tmp_path / "features.jsonl")
    save_features(feats, np.arange(man.num_samples), man.class_ids, man.features)
    inputs = {
        "probe": ["--train-features", feats, "--test-features", feats],
        "fewshot": ["--features", feats],
    }[command]
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        [command, "--config", cfg, *inputs,
         "--checkpoint", os.path.join(trained, "checkpoint.bin"), "--out", out]
    )
    assert code == 1
    assert "--checkpoint" in _single_json_error(capsys, command)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("probe", ["--data", "nonexistent.jsonl", "--eval-data", "nope.jsonl"]),
        ("probe", ["--eval-data", "nope.jsonl"]),
        ("fewshot", ["--data", "MANIFEST"]),
    ],
)
def test_manifest_flags_with_feature_files_are_json_error(
    workdir, generated, capsys, tmp_path, command, flags
):
    # feature files replace the manifests: a manifest flag would go unread
    root, cfg = workdir
    manifest = os.path.join(generated, "manifest.jsonl")
    man = read_manifest(manifest)
    feats = str(tmp_path / "features.jsonl")
    save_features(feats, np.arange(man.num_samples), man.class_ids, man.features)
    inputs = {
        "probe": ["--train-features", feats, "--test-features", feats],
        "fewshot": ["--features", feats],
    }[command]
    flags = [manifest if f == "MANIFEST" else f for f in flags]
    out = str(tmp_path / "never")
    capsys.readouterr()
    assert main([command, "--config", cfg, *inputs, *flags, "--out", out]) == 1
    assert flags[0] in _single_json_error(capsys, command)
    assert not os.path.exists(out)


def test_fewshot_without_data_or_features_is_json_error(workdir, capsys, tmp_path):
    root, cfg = workdir
    out = str(tmp_path / "never")
    capsys.readouterr()
    assert main(["fewshot", "--config", cfg, "--out", out]) == 1
    assert "--data" in _single_json_error(capsys, "fewshot")
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"sample_id": 0, "feature": [1.0, 2.0, 3.0, 4.0]}, "has no field 'class_id'"),
        ([1, 2], "is not a JSON object"),
        ({"sample_id": 0, "class_id": 0, "feature": [1.0]}, "field 'feature' has length 1"),
        ({"sample_id": 0, "class_id": 0, "feature": ["0.5", True, 1.0, 2.0]},
         "field 'feature' is invalid: expected a list of JSON numbers"),
    ],
)
def test_probe_bad_feature_record_is_json_error(
    workdir, generated, capsys, tmp_path, record, message
):
    root, cfg = workdir
    man = read_manifest(os.path.join(generated, "manifest.jsonl"))
    good = tmp_path / "good.jsonl"
    save_features(str(good), np.arange(man.num_samples), man.class_ids, man.features)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(good.read_text() + json.dumps(record) + "\n")
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["probe", "--config", cfg, "--train-features", str(bad), "--test-features",
         str(good), "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "probe")
    assert error.startswith(f"{bad}: line {man.num_samples + 1} ")
    assert message in error
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flags", [["--config", "/nonexistent.json"], ["--set", "foo.bar=1"], ["--seed", "5"]]
)
def test_report_refuses_config_flags(capsys, tmp_path, flags):
    # report renders saved reports and takes no config, so these would go unread
    report = tmp_path / "report.json"
    report.write_text(
        json.dumps({"kind": "fewshot", "accuracy": 0.5, "ci95": 0.1, "count": 4})
    )
    out = str(tmp_path / "never")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--inputs", str(report), "--out", out, *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"accuracy": 0.5}, "report has no field 'kind'"),
        ([1], "a report must hold a JSON object"),
        ({"kind": "fewshot", "accuracy": "high", "ci95": 0.1, "count": 4},
         "report field 'accuracy' is invalid"),
        ({"kind": "fewshot", "accuracy": 0.5, "ci95": 0.1, "count": 4, "details": []},
         "report field 'details' is invalid"),
        ({"kind": "fewshot", "accuracy": 1.5, "ci95": 0.1, "count": 4},
         "accuracy must lie in [0, 1]"),
        ({"kind": "fewshot", "accuracy": 0.5, "ci95": float("nan"), "count": 4},
         "ci95 must be finite and >= 0"),
        ({"kind": "fewshot", "accuracy": 0.5, "ci95": -0.5, "count": 4},
         "ci95 must be finite and >= 0"),
        ({"kind": "fewshot", "accuracy": 0.5, "ci95": 0.1, "count": 0}, "count must be >= 1"),
        ({"kind": "fewshot", "accuracy": 0.5, "ci95": 0.1, "count": -5}, "count must be >= 1"),
    ],
)
def test_report_with_bad_payload_is_json_error(capsys, tmp_path, payload, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    out = str(tmp_path / "rendered")
    capsys.readouterr()
    code = main(["report", "--inputs", str(path), "--out", out])
    assert code == 1
    error = _single_json_error(capsys, "report")
    assert error.startswith(f"{path}: ")
    assert message in error
    assert not os.path.exists(out)


def _text_input_case(case, cfg, generated, tmp_path):
    """(argv, bad file, expected error prefix after the path) for one case."""
    manifest = os.path.join(generated, "manifest.jsonl")
    with open(manifest, "rb") as fh:
        lines = fh.read().split(b"\n")
    bad = tmp_path / "bad"
    out = ["--out", str(tmp_path / "never")]
    if case == "truncated_manifest":
        bad.write_bytes(b"\n".join(lines[:2]) + b"\n" + lines[2][:10])
        return ["train", "--config", cfg, "--data", str(bad), *out], bad, "line 3 is not JSON"
    if case == "manifest_not_utf8":
        bad.write_bytes(b"\n".join([lines[0], b"\xff" + lines[1][1:], *lines[2:]]))
        return ["train", "--config", cfg, "--data", str(bad), *out], bad, "line 2 is not UTF-8"
    if case == "manifest_record_not_object":
        bad.write_bytes(b"\n".join([lines[0], b"[1,2]", *lines[2:]]))
        return (
            ["train", "--config", cfg, "--data", str(bad), *out],
            bad,
            "line 2 is not a JSON object",
        )
    if case == "features_not_utf8":
        man = read_manifest(manifest)
        good = tmp_path / "good.jsonl"
        save_features(str(good), np.arange(man.num_samples), man.class_ids, man.features)
        bad.write_bytes(good.read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
        argv = ["probe", "--config", cfg, "--train-features", str(bad),
                "--test-features", str(good), *out]
        return argv, bad, "line 2 is not UTF-8"
    if case == "config_not_json":
        bad.write_text('{"seed": 1,\n}\n')
        return ["generate", "--config", str(bad), *out], bad, "line 2 is not JSON"
    assert case == "captions_not_utf8"
    bad.write_bytes(b"a red fox\r\n\xff\r\n")
    argv = ["generate", "--config", cfg, "--set", f"data.captions_file={bad}", *out]
    return argv, bad, "line 2 is not UTF-8"


@pytest.mark.parametrize(
    "case",
    [
        "truncated_manifest",
        "manifest_not_utf8",
        "manifest_record_not_object",
        "features_not_utf8",
        "config_not_json",
        "captions_not_utf8",
    ],
)
def test_unreadable_text_input_error_names_file_and_line(
    workdir, generated, capsys, tmp_path, case
):
    _, cfg = workdir
    argv, bad, message = _text_input_case(case, cfg, generated, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert _single_json_error(capsys, argv[0]).startswith(f"{bad}: {message}")
    assert not os.path.exists(tmp_path / "never")


def test_fewshot_command(workdir, generated):
    root, cfg = workdir
    out = str(root / "fewshot")
    code = main(
        ["fewshot", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"), "--out", out]
    )
    assert code == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["kind"] == "fewshot"
    assert rep["count"] == 4
    assert rep["config"]["ways"] == 2


def test_sweep_and_report(workdir):
    root, cfg = workdir
    out = str(root / "sweep_m")
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", "m",
         "--values", "1,2", "--out", out]
    )
    assert code == 0
    # shared dataset for the m axis, one cell directory per value
    assert os.path.exists(os.path.join(out, "dataset", "manifest.jsonl"))
    for label in ("m_1", "m_2"):
        cell = json.load(open(os.path.join(out, label, "report.json")))
        assert cell["axis"] == "m"
        assert cell["value"] == label.split("_")[1]
        # the report names the bytes of the checkpoint it scored
        ckpt = os.path.join(out, label, "train", "checkpoint.bin")
        assert cell["checkpoint_id"] == _sha256_of(ckpt)
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "summary.svg"))

    rep_out = str(root / "rendered")
    inputs = ",".join(
        os.path.join(out, label, "report.json") for label in ("m_1", "m_2")
    )
    code = main(
        ["report", "--inputs", inputs, "--format", "csv", "--axis", "m",
         "--out", rep_out]
    )
    assert code == 0
    text = open(os.path.join(rep_out, "report.csv")).read()
    assert "linear_probe" in text


def test_sweep_w_token_group(workdir):
    root, cfg = workdir
    out = str(root / "sweep_w")
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", "w",
         "--values", "small", "--out", out]
    )
    assert code == 0
    # token groups have no numeric axis, so no svg is rendered
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert not os.path.exists(os.path.join(out, "summary.svg"))
    cell = json.load(open(os.path.join(out, "w_small", "report.json")))
    assert cell["value"] == "small"


def test_sweep_l_splits_a_fixed_budget(workdir):
    root, cfg = workdir
    out = str(root / "sweep_l")
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", "l",
         "--values", "1,4", "--out", out]
    )
    assert code == 0
    # 8 captions x 3 images: the 24-image budget becomes 24 x 1 and 6 x 4
    for label, captions, variant, m in (
        ("l_1", 24, "simclr_reduction", 2),
        ("l_4", 6, "multi_positive", 2),
    ):
        man = read_manifest(os.path.join(out, label, "manifest.jsonl"))
        assert man.num_samples == 24
        assert man.unique_caption_ids.size == captions
        tcfg, _, _ = load_checkpoint(os.path.join(out, label, "train", "checkpoint.bin"))
        assert tcfg.loss_variant == variant
        assert tcfg.batch_spec.samples_per_caption == m
    assert not os.path.exists(os.path.join(out, "dataset"))
    assert os.path.exists(os.path.join(out, "summary.svg"))


@pytest.mark.parametrize(
    "axis, value, kind",
    [("w", "abc", "a number"), ("m", "abc", "an integer"), ("m", "2.5", "an integer"),
     ("l", "x", "an integer"), ("epochs", "1e3", "an integer")],
)
def test_sweep_value_of_the_wrong_kind_is_json_error(workdir, capsys, tmp_path, axis, value, kind):
    root, cfg = workdir
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", axis,
         "--values", f"1,{value}", "--out", out]
    )
    assert code == 1
    error = _single_json_error(capsys, "sweep")
    assert error == f"sweep axis {axis!r} takes {kind}, got {value!r}"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("train_fraction", "1.5", "must lie in (0, 1), got 1.5"),
        ("train_fraction", "1", "must lie in (0, 1), got 1.0"),
        ("train_fraction", "0", "must lie in (0, 1), got 0.0"),
        ("samples_per_caption", "0", "must be >= 1, got 0"),
        ("num_captions", "0", "must be >= 1, got 0"),
    ],
)
def test_sweep_eval_data_out_of_range_is_json_error(
    workdir, capsys, monkeypatch, tmp_path, key, value, message
):
    root, cfg = workdir

    def no_training(*args, **kwargs):
        raise AssertionError("a sweep cell trained before eval_data was checked")

    monkeypatch.setattr("synthrep.cli.run_training", no_training)
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", "epochs", "--values", "1",
         "--set", f"eval_data.{key}={value}", "--out", out]
    )
    assert code == 1
    assert _single_json_error(capsys, "sweep") == f"config key 'eval_data.{key}' {message}"
    assert not os.path.exists(out)


def test_sweep_epochs_shares_one_dataset(workdir):
    root, cfg = workdir
    out = str(root / "sweep_epochs")
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", "epochs",
         "--values", "1,2", "--out", out]
    )
    assert code == 0
    assert read_manifest(os.path.join(out, "dataset", "manifest.jsonl")).num_samples == 24
    # 2 * epochs * 8 captions image forwards at 4 x 2 images a step
    for label, steps in (("epochs_1", 2), ("epochs_2", 4)):
        assert not os.path.exists(os.path.join(out, label, "manifest.jsonl"))
        _, ts, _ = load_checkpoint(os.path.join(out, label, "train", "checkpoint.bin"))
        assert ts.step == steps


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("m", "2,0", "invalid train config: samples_per_caption must be >= 1"),
        ("epochs", "1,0", "invalid train config: epochs must be >= 1"),
        ("l", "1,0", "budget quantities must be positive"),
        # 8 captions x 3 images: the shared dataset has too few per caption
        ("m", "2,4", "batches take 4 samples per caption; a caption has 3"),
    ],
)
def test_sweep_checks_every_value_before_any_training(
    workdir, capsys, monkeypatch, tmp_path, axis, values, message
):
    root, cfg = workdir
    trainings = []
    real_run_training = synthrep.cli.run_training

    def counting_run_training(*args, **kwargs):
        trainings.append(1)
        return real_run_training(*args, **kwargs)

    monkeypatch.setattr("synthrep.cli.run_training", counting_run_training)
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["sweep", "--config", cfg, "--seed", "5", "--axis", axis, "--values", values,
         "--out", out]
    )
    assert code == 1
    bad = values.split(",")[-1]
    assert _single_json_error(capsys, "sweep") == f"sweep axis {axis!r} value {bad!r}: {message}"
    assert trainings == []
    assert not os.path.exists(out)


def _axis_reports(tmp_path, values):
    """Two report.json files as a sweep writes them, with these axis values."""
    paths = []
    for i, value in enumerate(values):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(
            {"kind": "linear_probe", "accuracy": 0.5, "ci95": 0.1, "count": 4,
             "axis": "w", "value": value}
        ))
        paths.append(str(path))
    return ",".join(paths)


@pytest.mark.parametrize("fmt", ["table", "csv", "svg"])
def test_report_values_entry_that_is_no_number_is_json_error(capsys, tmp_path, fmt):
    inputs = _axis_reports(tmp_path, ["2", "4"])
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        ["report", "--inputs", inputs, "--format", fmt, "--values", "a,b", "--out", out]
    )
    assert code == 1
    assert _single_json_error(capsys, "report") == "--values entry 'a' is not a number"
    assert not os.path.exists(out)


@pytest.mark.parametrize("axis", ["w, m", 'say "m"', "m\nw"])
def test_report_axis_that_breaks_a_csv_row_is_json_error(capsys, tmp_path, axis):
    inputs = _axis_reports(tmp_path, ["2", "4"])
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["report", "--inputs", inputs, "--format", "csv", "--axis", axis, "--out", out])
    assert code == 1
    assert _single_json_error(capsys, "report").startswith(f"--axis {axis!r} holds")
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "field, value", [("kind", "probe, v2"), ("dataset_id", "a\nb"), ("checkpoint_id", 'say "x"')]
)
def test_report_field_that_breaks_a_csv_row_is_json_error(capsys, tmp_path, field, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(
        {"kind": "linear_probe", "accuracy": 0.5, "ci95": 0.1, "count": 4, field: value}
    ))
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["report", "--inputs", str(path), "--format", "csv", "--out", out])
    assert code == 1
    error = _single_json_error(capsys, "report")
    assert error.startswith(f"{path}: report field {field!r} value {value!r} holds")
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flag, text", [("--title", "a\x01b"), ("--axis", "m\x1f"), ("--title", "\ufffe")]
)
def test_report_title_or_axis_that_xml_forbids_is_json_error(capsys, tmp_path, flag, text):
    inputs = _axis_reports(tmp_path, ["2", "4"])
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["report", "--inputs", inputs, "--format", "svg", flag, text, "--out", out])
    assert code == 1
    assert _single_json_error(capsys, "report").startswith(f"{flag} {text!r} holds")
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_report_takes_a_non_finite_axis_value_for_no_number(capsys, tmp_path, value):
    inputs = _axis_reports(tmp_path, ["2", value])
    out = str(tmp_path / "rendered")
    assert main(["report", "--inputs", inputs, "--format", "csv", "--axis", "w",
                 "--out", out]) == 0
    rows = open(os.path.join(out, "report.csv")).read().splitlines()[2:]
    assert [row.split(",")[1:3] for row in rows] == [["w", "2"], ["w", ""]]
    never = str(tmp_path / "never")
    capsys.readouterr()
    code = main(["report", "--inputs", inputs, "--format", "svg", "--values", f"1,{value}",
                 "--out", never])
    assert code == 1
    assert _single_json_error(capsys, "report") == f"--values entry {value!r} is not a number"
    assert not os.path.exists(never)


def test_report_svg_escapes_its_title_and_axis(tmp_path):
    import xml.etree.ElementTree as ET

    inputs = _axis_reports(tmp_path, ["2", "4"])
    out = str(tmp_path / "rendered")
    argv = ["report", "--inputs", inputs, "--format", "svg", "--title", "acc & m < 6",
            "--axis", "m > 1 & w", "--out", out]
    assert main(argv) == 0
    texts = [t.text for t in ET.parse(os.path.join(out, "report.svg")).iter() if t.text]
    assert "acc & m < 6" in texts and "m > 1 & w" in texts


def test_report_renders_a_stored_value_that_is_no_number_blank(tmp_path):
    # a guidance group cell stores its name as the value, as in sweep --axis w
    inputs = _axis_reports(tmp_path, ["2", "small"])
    out = str(tmp_path / "rendered")
    assert main(["report", "--inputs", inputs, "--format", "csv", "--axis", "w",
                 "--out", out]) == 0
    rows = open(os.path.join(out, "report.csv")).read().splitlines()[2:]
    assert [row.split(",")[1:3] for row in rows] == [["w", "2"], ["w", ""]]
    table = str(tmp_path / "table")
    assert main(["report", "--inputs", inputs, "--axis", "w", "--out", table]) == 0
    # a blank --values entry renders blank too
    blank = str(tmp_path / "blank")
    assert main(["report", "--inputs", inputs, "--format", "csv", "--axis", "w",
                 "--values", "3,", "--out", blank]) == 0
    rows = open(os.path.join(blank, "report.csv")).read().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["3", ""]
