import json
import os
import subprocess
import sys

import numpy as np
import pytest

import synthrep
from synthrep.cli import SEED_ENV_VAR, main
from synthrep.evaluate import save_features
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
    assert set(prov["versions"]) >= {"synthrep", "numpy", "scipy", "python"}


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


def test_probe_checkpoint_without_arrays_is_json_error(
    workdir, generated, eval_generated, trained, capsys, tmp_path
):
    root, cfg = workdir
    raw = open(os.path.join(trained, "checkpoint.bin"), "rb").read()
    blob_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + blob_len])
    del header["arrays"]
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
    error = _single_json_error(capsys, "probe")
    assert str(bad) in error and "'arrays'" in error
    assert not os.path.exists(out)


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
    data = os.path.join(generated, "manifest.jsonl")
    inputs = {
        "generate": [],
        "train": ["--data", data],
        "probe": ["--data", data, "--eval-data", os.path.join(eval_generated, "manifest.jsonl")],
        "fewshot": ["--data", data],
    }[command]
    out = str(tmp_path / "never")
    capsys.readouterr()
    code = main(
        [command, "--config", cfg, *inputs, "--set", f"{section}=null", "--out", out]
    )
    assert code == 1
    assert repr(section) in _single_json_error(capsys, command)
    assert not os.path.exists(out)


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # commands that never fit a classifier should not pay for scipy.optimize
    probe = "import sys, synthrep.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_stdout("-c", probe).strip() == "False"


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special (erf, for the GELU) loads at the first encoder forward
    probe = "import sys, synthrep.cli; print('scipy.special' in sys.modules)"
    assert _fresh_stdout("-c", probe).strip() == "False"


def test_generate_and_report_load_no_scipy_submodule(workdir, generated, eval_generated, tmp_path):
    root, cfg = workdir
    report = str(tmp_path / "probe")
    code = main(
        ["probe", "--config", cfg, "--seed", "5",
         "--data", os.path.join(generated, "manifest.jsonl"),
         "--eval-data", os.path.join(eval_generated, "manifest.jsonl"), "--out", report]
    )
    assert code == 0
    script = (
        "import sys\n"
        "from synthrep.cli import main\n"
        "cfg, report = sys.argv[1:]\n"
        "assert main(['generate', '--config', cfg, '--seed', '5', '--out', 'data']) == 0\n"
        "assert main(['report', '--inputs', report, '--out', 'rendered']) == 0\n"
        "print(sorted(m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules))\n"
    )
    out = _fresh_stdout("-c", script, cfg, os.path.join(report, "report.json"), cwd=tmp_path)
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "data" / "manifest.jsonl").exists()
    assert (tmp_path / "rendered").is_dir()


# sha256 of checkpoint.bin from `train` on TINY with seed 5, taken while
# scipy.special was still imported with the encoder module
_TINY_CHECKPOINT_SHA256 = "d16267a8c19065d6c2848a8fb72c357520333d109641bc103f8f62793886dca3"


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
    assert rep2["checkpoint_id"].endswith("checkpoint.bin")


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
        assert os.path.exists(os.path.join(out, label, "train", "checkpoint.bin"))
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
