#!/usr/bin/env python3
"""Benchmark of the synthrep command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Run from the root of a source checkout; the program is taken from ./src.

--trace 0 runs the workload's CLI commands as users run them: one fresh
`synthrep` process per command, one command at a time, in a closed loop of
passes until S seconds are used (at least two passes). It checks every
pass's outputs, requires byte-identical artifacts across passes, and prints
the end-to-end metrics of BENCHMARK.json.

--trace 1 runs the same argv lists in one process through synthrep.cli.main,
alternating an untraced and a traced process (perfbench/trace.py), and prints
the per-layer metrics of BENCHMARK.json. Its artifacts must equal the
untraced ones.

Either way the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics, and the full result (every pass, stage
metrics, fingerprints, machine facts) is written under .perfbench/results/.
--compare prints, per workload and metric, the medians of two such result
sets (files or directories) and their ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 2
# one BLAS thread, here and in every child: on the small matrices synthrep
# uses a second thread only spins, doubling CPU time and widening the spread;
# outputs are bit-identical either way
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every run must end within 180 s; a command still running at this point is killed
HARD_LIMIT_S = 150.0


# -- workloads -------------------------------------------------------------------
#
# Commands run in a fresh directory per pass with relative paths, so artifacts
# that embed a path (report.json's checkpoint_id) are the same in every pass.


def _quickstart(seed: int) -> list[list[str]]:
    s = str(seed)
    data, ev = "runs/data/manifest.jsonl", "runs/eval/manifest.jsonl"
    ckpt = "runs/train/checkpoint.bin"
    return [
        ["generate", "--out", "runs/data", "--seed", s,
         "--set", "data.num_captions=100", "--set", "data.images_per_caption=6"],
        ["generate", "--out", "runs/eval", "--seed", str(seed + 1),
         "--set", "data.num_captions=60", "--set", "data.sampler=direct"],
        ["train", "--data", data, "--out", "runs/train", "--seed", s,
         "--set", "train.epochs=24"],
        ["probe", "--data", data, "--eval-data", ev, "--checkpoint", ckpt,
         "--out", "runs/probe", "--seed", s],
        ["fewshot", "--data", ev, "--checkpoint", ckpt, "--out", "runs/fewshot", "--seed", s,
         "--set", "fewshot.queries_per_class=5"],
    ]


def _guided_gen(seed: int) -> list[list[str]]:
    size = ["--set", "data.num_captions=60", "--set", "data.images_per_caption=10"]
    return [
        ["generate", "--out", "runs/w4", "--seed", str(seed), *size,
         "--set", "generator.guidance_scale=4"],
        ["generate", "--out", "runs/mixed", "--seed", str(seed), *size,
         "--set", "data.guidance_scales=mixed"],
    ]


def _m_sweep(seed: int) -> list[list[str]]:
    return [
        ["sweep", "--axis", "m", "--values", "1,2,6", "--out", "runs/sweep", "--seed", str(seed),
         "--set", "data.num_captions=200", "--set", "train.epochs=48"],
    ]


# Per workload: its commands, and what a correct pass leaves behind: manifest
# row counts, train step counts (metrics.jsonl lines after the header), and
# the lowest acceptable accuracy of each report (twice chance: 10 classes for
# the probe, 5 ways for few-shot).
WORKLOADS = {
    "quickstart": {
        "commands": _quickstart,
        "manifests": {"runs/data/manifest.jsonl": 600, "runs/eval/manifest.jsonl": 600},
        "train_steps": {"runs/train/metrics.jsonl": 40},
        "reports": {"runs/probe/report.json": 0.2, "runs/fewshot/report.json": 0.4},
        # image forwards are exactly 2 * epochs * captions (see synthrep.train)
        "train_forwards": 2 * 24 * 100,
        "fewshot_episodes": 600,
    },
    "guided_gen": {
        "commands": _guided_gen,
        "manifests": {"runs/w4/manifest.jsonl": 600, "runs/mixed/manifest.jsonl": 600},
        "train_steps": {},
        "reports": {},
    },
    "m_sweep": {
        "commands": _m_sweep,
        "manifests": {"runs/sweep/dataset/manifest.jsonl": 2000},
        "train_steps": {
            "runs/sweep/m_1/train/metrics.jsonl": 480,
            "runs/sweep/m_2/train/metrics.jsonl": 480,
            "runs/sweep/m_6/train/metrics.jsonl": 160,
        },
        "reports": {
            "runs/sweep/m_1/report.json": 0.2,
            "runs/sweep/m_2/report.json": 0.2,
            "runs/sweep/m_6/report.json": 0.2,
        },
    },
}

FINGERPRINTED = ("manifest.jsonl", "checkpoint.bin", "metrics.jsonl", "report.json")


# -- child processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(BLAS_ENV)
    env.pop("SYNTHREP_SEED", None)  # the seed reaches the program only as --seed
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.t_end = time.monotonic() + seconds

    def left(self) -> float:
        return self.t_end - time.monotonic()


def spawn(argv: list[str], cwd: Path, log: Path, deadline: Deadline) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh, stderr=fh)
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


def synthrep_argv(args: list[str]) -> list[str]:
    # what the `synthrep` console script runs
    return [sys.executable, "-c", "import sys; from synthrep.cli import main; sys.exit(main())",
            *args]


def tail(path: Path, n: int = 400) -> str:
    try:
        return path.read_bytes()[-n:].decode("utf-8", "replace")
    except OSError:
        return ""


# -- outputs: checks and fingerprints -------------------------------------------------


def inspect_pass(pass_dir: Path, spec: dict) -> tuple[dict, dict, list[str]]:
    """Fingerprints, quality figures and problems of one finished pass."""
    from synthrep.manifest import read_manifest

    fp: dict[str, str] = {}
    for path in sorted(pass_dir.rglob("*")):
        if path.name in FINGERPRINTED:
            fp[str(path.relative_to(pass_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    problems, quality = [], {}
    for rel, rows in spec["manifests"].items():
        try:
            manifest = read_manifest(str(pass_dir / rel))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{rel}: unreadable manifest ({exc})")
            continue
        fp[f"DatasetManifest.hash:{rel}"] = manifest.hash()
        if manifest.num_samples != rows:
            problems.append(f"{rel}: {manifest.num_samples} rows, expected {rows}")
    for rel, steps in spec["train_steps"].items():
        try:
            lines = (pass_dir / rel).read_text(encoding="utf-8").splitlines()
            last = json.loads(lines[-1])
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{rel}: unreadable metrics ({exc})")
            continue
        if len(lines) - 1 != steps or last.get("step") != steps:
            problems.append(f"{rel}: {len(lines) - 1} steps, expected {steps}")
        if not isinstance(last.get("loss"), float) or not math.isfinite(last["loss"]):
            problems.append(f"{rel}: final loss {last.get('loss')!r} is not a finite number")
    for rel, floor in spec["reports"].items():
        try:
            acc = json.loads((pass_dir / rel).read_text(encoding="utf-8"))["accuracy"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{rel}: unreadable report ({exc})")
            continue
        quality[rel] = acc
        if not floor <= acc <= 1.0:
            problems.append(f"{rel}: accuracy {acc} below {floor}")
    return fp, quality, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "synthrep").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_stored_fingerprint(key: str, fp: dict) -> str | None:
    """Compare with the fingerprint an earlier run of the same code and seed stored."""
    store = STATE / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != fp:
            return f"artifacts differ from an earlier run of the same code and seed ({key})"
        return None
    known[key] = fp
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, store)
    return None


def fp_digest(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


# -- set-up ---------------------------------------------------------------------------


def setup(work: Path, deadline: Deadline) -> tuple[list[float], list[dict], list[str]]:
    """Fresh work directory and a fresh import of the program, several times.

    Each repeat also reports the machine facts and checks that the package
    imported is the one in this checkout.
    """
    walls, facts, problems = [], [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        log = work / "setup.log"
        res = spawn([sys.executable, str(BENCH_DIR / "trace.py"), "facts"], work, log, deadline)
        walls.append(time.perf_counter() - t0)
        if res["code"] != 0:
            problems.append(f"set-up {k}: import failed: {tail(log)}")
            continue
        facts.append(json.loads(log.read_text().splitlines()[-1]))
        log.unlink()
    for f in facts:
        if not f["synthrep_file"].startswith(str(ROOT / "src")):
            problems.append(f"imported {f['synthrep_file']}, not this checkout's package")
        if any(n > f["nproc"] for n in f["blas_threads"].values()):
            problems.append(f"BLAS threads {f['blas_threads']} exceed nproc {f['nproc']}")
    return walls, facts, problems


# -- the two kinds of run -------------------------------------------------------------


def run_cli(spec: dict, seed: int, seconds: float, work: Path, deadline: Deadline) -> dict:
    """Closed loop of passes, one fresh process per command."""
    commands = spec["commands"](seed)
    passes, problems = [], []
    t_start = time.monotonic()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        log = pass_dir / "commands.log"
        cmds = []
        for args in commands:
            res = spawn(synthrep_argv(args), pass_dir, log, deadline)
            cmds.append({"argv": args, **res})
            if res["code"] != 0:
                problems.append(f"pass {len(passes)}: `{args[0]}` exited {res['code']}: {tail(log)}")
                break
        fp, quality, bad = inspect_pass(pass_dir, spec)
        problems += [f"pass {len(passes)}: {p}" for p in bad]
        passes.append({
            "commands": cmds,
            "wall_s": sum(c["wall_s"] for c in cmds),
            "cpu_s": sum(c["cpu_s"] for c in cmds),
            "fingerprint": fp,
            "quality": quality,
        })
        shutil.rmtree(pass_dir)
        elapsed = time.monotonic() - t_start
        estimate = statistics.median(p["wall_s"] for p in passes)
        if problems or (len(passes) >= MIN_PASSES and elapsed + estimate > seconds):
            break
        if deadline.left() < 2 * estimate + 10:
            break
    return {"passes": passes, "problems": problems}


def run_inprocess(spec: dict, seed: int, seconds: float, work: Path, deadline: Deadline) -> dict:
    """Alternate untraced and traced in-process passes (at least one of each)."""
    argv = spec["commands"](seed)
    passes, problems = [], []
    t_start = time.monotonic()
    while True:
        traced = len(passes) % 2 == 1
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        spec_file, out_file = work / "spec.json", work / "out.json"
        spec_file.write_text(json.dumps({"argv": argv, "traced": traced}))
        log = pass_dir / "commands.log"
        res = spawn([sys.executable, str(BENCH_DIR / "trace.py"), "run", str(spec_file),
                     str(out_file)], pass_dir, log, deadline)
        if res["code"] != 0:
            problems.append(f"pass {len(passes)}: runner exited {res['code']}: {tail(log)}")
            break
        out = json.loads(out_file.read_text())
        out["traced"] = traced
        out["rss_mb"] = res["rss_mb"]
        for args, code in zip(argv, out["codes"]):
            if code != 0:
                problems.append(f"pass {len(passes)}: `{args[0]}` returned {code}: {tail(log)}")
        out["fingerprint"], out["quality"], bad = inspect_pass(pass_dir, spec)
        problems += [f"pass {len(passes)}: {p}" for p in bad]
        passes.append(out)
        shutil.rmtree(pass_dir)
        elapsed = time.monotonic() - t_start
        pair = sum(p["wall_s"] + p["import_s"] for p in passes[-2:])
        if problems or (len(passes) % 2 == 0 and elapsed + pair > seconds):
            break
        if deadline.left() < pair + 10:
            break
    return {"passes": passes, "problems": problems}


# -- metrics ---------------------------------------------------------------------------


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def cli_metrics(passes: list[dict], setup_s: float) -> dict:
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(c["rss_mb"] for p in passes for c in p["commands"]),
        "setup_s": setup_s,
    }


def stage_metrics(passes: list[dict], spec: dict) -> dict:
    """Median time per pass of each command kind, and the stage rates of
    workloads whose stages are commands of their own."""
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        per_pass: dict[str, float] = {}
        for c in p["commands"]:
            per_pass[c["argv"][0]] = per_pass.get(c["argv"][0], 0.0) + c["wall_s"]
        for kind, secs in per_pass.items():
            by_kind.setdefault(kind, []).append(secs)
    out = {f"command_s.{k}": median(v) for k, v in by_kind.items()}
    if "generate" in by_kind:
        out["gen_samples_per_s"] = sum(spec["manifests"].values()) / out["command_s.generate"]
    if "train" in by_kind:
        out["train_samples_per_s"] = spec["train_forwards"] / out["command_s.train"]
    if "probe" in by_kind:
        out["probe_s"] = out["command_s.probe"]
    if "fewshot" in by_kind:
        out["fewshot_episodes_per_s"] = spec["fewshot_episodes"] / out["command_s.fewshot"]
    for rel in spec["reports"]:
        out[f"accuracy.{rel}"] = passes[0]["quality"][rel]
    return out


def inprocess_metrics(passes: list[dict], facts: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = {}
    for name in traced[0]["layers"] if traced else ():
        layers[name] = median(p["layers"][name] for p in traced)
    layers["cli.import_s"] = median(f["import_s"] for f in facts)
    layers["trace.overhead_s"] = (
        median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
        if traced and plain else 0.0
    )
    return layers


# -- one benchmark run -------------------------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "synthrep" / "cli.py").is_file():
        print(f"no synthrep source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench_def = load_benchmark()
    spec = WORKLOADS[workload]
    sys.path.insert(0, str(ROOT / "src"))  # for reading manifests back
    os.environ.update(BLAS_ENV)  # before this process loads numpy
    deadline = Deadline(HARD_LIMIT_S)
    work = STATE / "work" / f"{workload}-{os.getpid()}"
    try:
        setup_walls, facts, problems = setup(work, deadline)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 2
        runner = run_inprocess if trace else run_cli
        result = runner(spec, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, problems = result["passes"], result["problems"]
    if trace:
        attempted = sum(len(p["codes"]) for p in passes)
        failed = sum(1 for p in passes for c in p["codes"] if c != 0)
    else:
        attempted = sum(len(p["commands"]) for p in passes)
        failed = sum(1 for p in passes for c in p["commands"] if c["code"] != 0)
    attempted = max(attempted, 1)
    prints = {fp_digest(p["fingerprint"]) for p in passes}
    if len(prints) > 1:
        problems.append(f"artifacts differ between passes of one seed: {sorted(prints)}")
    digest = source_digest()
    if passes and len(prints) == 1 and not problems:
        argv = hashlib.sha256(json.dumps(spec["commands"](seed)).encode()).hexdigest()
        key = f"{workload}|seed={seed}|src={digest[:16]}|argv={argv[:16]}"
        stored = check_stored_fingerprint(key, passes[0]["fingerprint"])
        if stored:
            problems.append(stored)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "source_digest": digest, "machine": facts[0] if facts else {},
        "setup_wall_s": setup_walls,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems,
        "fingerprint": passes[0]["fingerprint"] if passes else {},
    }
    metrics: dict[str, float] = {}
    if passes and not problems:
        if trace:
            metrics = inprocess_metrics(passes, facts)
            traced = [p for p in passes if p["traced"]]
            record["absent_targets"] = traced[-1]["absent"]
            record["breakdown"] = traced[-1]["breakdown"]
            record["inprocess_wall_s"] = {
                "untraced": [p["wall_s"] for p in passes if not p["traced"]],
                "traced": [p["wall_s"] for p in traced],
            }
        else:
            metrics = cli_metrics(passes, median(setup_walls))
            record["stage"] = stage_metrics(passes, spec)
            record["pass_wall_s"] = [p["wall_s"] for p in passes]
    record["metrics"] = metrics

    wanted = bench_def["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = not problems and not missing and failed == 0
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-s{seed}-t{int(trace)}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1))

    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"workload {workload} seed {seed}: {len(passes)} passes, fingerprint "
          f"{fp_digest(record['fingerprint'])}, result in {out.relative_to(ROOT)}")
    if not trace and "stage" in record:
        print("stage: " + ", ".join(f"{k}={v:.4g}" for k, v in sorted(record["stage"].items())))
    if trace and "breakdown" in record:
        print("top-level spans: " + ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(record["breakdown"].items(), key=lambda kv: -kv[1])))
        if record["absent_targets"]:
            print("absent wrap targets: " + ", ".join(record["absent_targets"]))
        if metrics["trace.coverage"] < 0.9:
            print(f"top-level spans cover only {metrics['trace.coverage']:.1%} of the "
                  "in-process time; a layer call is unwrapped")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0 if correct else 1


# -- compare ---------------------------------------------------------------------------------


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def unit_of(name: str, units: dict[str, str]) -> str:
    """Unit of a metric: from BENCHMARK.json, else from the result-file naming."""
    if name in units:
        return units[name]
    stem = name.split(".")[0]
    if stem.endswith("per_s"):
        return "1/s"
    if stem.endswith("_s"):
        return "s"
    return "fraction" if stem == "accuracy" else ""


MACHINE_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads")


def compare(base_path: Path, new_path: Path) -> int:
    bench_def = load_benchmark()
    bounds = {m["name"]: m for m in bench_def["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench_def["end_to_end"] + bench_def["per_layer"]}
    base, new = load_results(base_path), load_results(new_path)

    def collect(results):
        table: dict[tuple, list[float]] = {}
        for r in results:
            for name, value in {**r.get("metrics", {}), **r.get("stage", {})}.items():
                table.setdefault((r["workload"], name), []).append(value)
        return table

    def spread(values):
        if len(values) < 2:
            return float("inf")
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        return (q3 - q1) / abs(mid) if mid else float("inf")

    tb, tn = collect(base), collect(new)
    for label, results in (("base", base), ("new", new)):
        machines = {
            json.dumps({k: r.get("machine", {}).get(k) for k in MACHINE_KEYS}, sort_keys=True)
            for r in results
        }
        print(f"{label}: {len(results)} runs on {'; '.join(sorted(machines))}")
    print(f"{'workload':<11} {'metric':<36} {'unit':<8} {'base':>12} {'new':>12} "
          f"{'new/base':>9}  verdict")
    for key in sorted(set(tb) | set(tn)):
        workload, name = key
        b, n = tb.get(key, []), tn.get(key, [])
        if not b or not n:
            print(f"{workload:<11} {name:<36} {unit_of(name, units):<8} "
                  f"{'only in ' + ('new' if n else 'base'):>35}")
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        ratio = mn / mb if mb else float("nan")
        verdict = ""
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            bound = bounds[name]["bound"]
            if all((x < y) if lower else (x > y) for x in n for y in b):
                verdict = "better (every run)"
            elif max(spread(b), spread(n)) > bound:
                verdict = "unresolved (spread > bound)"
            elif (ratio - 1 if lower else 1 - ratio) > bound:
                verdict = f"WORSE by more than {bound:.0%}"
            else:
                verdict = f"within {bound:.0%}"
        print(f"{workload:<11} {name:<36} {unit_of(name, units):<8} {mb:>12.5g} {mn:>12.5g} "
              f"{ratio:>9.3f}  {verdict}")
    fb = {(r["workload"], r["seed"]): r["fingerprint"] for r in base if r.get("fingerprint")}
    fn = {(r["workload"], r["seed"]): r["fingerprint"] for r in new if r.get("fingerprint")}
    for key in sorted(set(fb) & set(fn)):
        changed = sorted(k for k in set(fb[key]) | set(fn[key]) if fb[key].get(k) != fn[key].get(k))
        if changed:
            print(f"outputs differ: {key[0]} seed {key[1]}: {', '.join(changed)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    ns = parser.parse_args(argv)
    if ns.compare:
        return compare(*ns.compare)
    if not ns.workload:
        parser.error("--workload is required")
    return bench(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
