"""Child processes of the synthrep benchmark: machine facts and in-process runs.

    python3 perfbench/trace.py facts
        Import synthrep.cli once and print, as one JSON line, the import time
        and the machine facts (nproc, Python/numpy/scipy versions, the BLAS
        build and the BLAS thread count in effect).

    python3 perfbench/trace.py run SPEC OUT
        Execute the argv lists in the JSON file SPEC through synthrep.cli.main,
        one after another in this one process, and write the timings to the
        JSON file OUT. When SPEC says "traced", wrappers from TARGETS record a
        span around every call into each layer first, and OUT also carries the
        per-layer metrics computed from those spans.

Wrappers are placed from outside the package, in the namespace where the
caller looks the name up (a module global such as synthrep.cli.generate_dataset
or a class attribute such as Encoder.forward), so no source file changes. A
target that a later version renames or removes is reported as absent and
skipped. Both commands expect synthrep on PYTHONPATH; perfbench/run.py sets it.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import os
import platform
import sys
import time
import traceback
from array import array

# (span name, module, attribute) for every wrapped function. Span names are
# "<layer>.<function>"; the layer is the package module that does the work.
TARGETS = [
    ("cli.main", "synthrep.cli", "main"),
    ("data.synth_captions", "synthrep.cli", "synth_captions"),
    ("generator.generate_dataset", "synthrep.cli", "generate_dataset"),
    ("manifest.write_manifest", "synthrep.cli", "write_manifest"),
    ("manifest.read_manifest", "synthrep.cli", "read_manifest"),
    ("train.run_training", "synthrep.cli", "run_training"),
    ("train.load_checkpoint", "synthrep.cli", "load_checkpoint"),
    ("train.load_checkpoint", "synthrep.train", "load_checkpoint"),
    ("train.save_checkpoint", "synthrep.train", "save_checkpoint"),
    ("train.write_metrics", "synthrep.train", "write_metrics"),
    ("train.train_step", "synthrep.train", "Trainer.train_step"),
    ("train.train_step_fn", "synthrep.train", "train_step"),
    ("train.adamw_step", "synthrep.train", "adamw_step"),
    ("data.assemble", "synthrep.train", "Trainer.assemble"),
    ("encoder.forward", "synthrep.encoder", "Encoder.forward"),
    ("encoder.backward", "synthrep.encoder", "Encoder.backward"),
    ("losses.multi_positive_loss", "synthrep.train", "multi_positive_loss"),
    ("losses.multi_positive_with_text_loss", "synthrep.train", "multi_positive_with_text_loss"),
    ("losses.pair_contrastive_loss", "synthrep.train", "pair_contrastive_loss"),
    ("evaluate.encode_dataset", "synthrep.cli", "encode_dataset"),
    ("evaluate.stratified_split", "synthrep.cli", "stratified_split"),
    ("evaluate.linear_probe", "synthrep.cli", "linear_probe"),
    ("evaluate.fewshot_eval", "synthrep.cli", "fewshot_eval"),
    ("evaluate.fit_logreg", "synthrep.evaluate", "fit_logreg"),
    ("evaluate.minimize", "synthrep.evaluate", "minimize"),
    ("report.emit_report", "synthrep.cli", "emit_report"),
    ("seeding.rng_from.generator", "synthrep.generator", "rng_from"),
    ("seeding.rng_from.data", "synthrep.data", "rng_from"),
    ("seeding.rng_from.encoder", "synthrep.encoder", "rng_from"),
    ("seeding.rng_from.train", "synthrep.train", "rng_from"),
    ("seeding.rng_from.evaluate", "synthrep.evaluate", "rng_from"),
]


def _generate_note(args, kwargs, manifest):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    if kwargs.get("sampler", "ddim") == "direct":
        mode = "direct"
    elif kwargs.get("guidance_scales") is not None:
        mode = "mixed"
    else:
        mode = "w%g" % cfg.guidance_scale
    return mode, int(manifest.num_samples)


# Extra facts a span keeps, taken from the call's arguments and result.
NOTES = {
    "cli.main": lambda args, kwargs, code: args[0][0],
    "generator.generate_dataset": _generate_note,
    "manifest.write_manifest": lambda args, kwargs, _r: (
        int(args[0].num_samples),
        os.path.getsize(args[1]),
    ),
    "train.save_checkpoint": lambda args, kwargs, _r: os.path.getsize(args[0]),
    "train.train_step": lambda args, kwargs, _r: "c%d" % args[0].cfg.batch_spec.total,
    "evaluate.minimize": lambda args, kwargs, res: (int(res.nit), bool(res.success)),
}


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start and end time."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.note_errors = 0
        self._stack: list[int] = []

    def wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        note = NOTES.get(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                try:
                    self.notes[idx] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.note_errors += 1
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the targets that do not."""
    absent = []
    for span, module_name, attr in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        if not callable(fn):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(span, fn))
    return absent


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced pass, its top-level time breakdown and span table."""
    import numpy as np

    n = len(tracer.name)
    name = np.asarray(tracer.name, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    ids = {s: i for i, s in enumerate(tracer.names)}
    notes = tracer.notes

    def rows(span):
        return np.flatnonzero(name == ids[span]) if span in ids else np.empty(0, np.int64)

    def total(*spans):
        return float(sum(dur[rows(s)].sum() for s in spans))

    def count(*spans):
        return int(sum(rows(s).size for s in spans))

    def under(idx, span):
        target = ids.get(span)
        idx = parent[idx]
        while idx >= 0:
            if name[idx] == target:
                return True
            idx = parent[idx]
        return False

    def pct(values, q, scale=1.0):
        return float(np.percentile(values, q)) * scale if len(values) else 0.0

    m: dict[str, float] = {}

    gen = rows("generator.generate_dataset")
    m["generator.generate_s"] = float(dur[gen].sum())
    for mode in ("w1", "w4", "mixed", "direct"):
        sel = [i for i in gen if i in notes and notes[i][0] == mode]
        secs = float(dur[sel].sum())
        m[f"generator.samples_per_s.{mode}"] = (
            sum(notes[i][1] for i in sel) / secs if secs > 0 else 0.0
        )
    rng_spans = [s for s in tracer.names if s.startswith("seeding.rng_from.")]
    m["generator.rng_calls"] = count("seeding.rng_from.generator")
    m["seeding.rng_calls"] = count(*rng_spans)
    m["seeding.rng_s"] = total(*rng_spans)

    writes = [notes[i] for i in rows("manifest.write_manifest") if i in notes]
    m["manifest.write_s"] = total("manifest.write_manifest")
    m["manifest.read_s"] = total("manifest.read_manifest")
    m["manifest.rows_written"] = sum(r for r, _ in writes)
    m["manifest.bytes_written"] = sum(b for _, b in writes)

    steps = rows("train.train_step")
    m["data.assemble_s"] = total("data.assemble")
    m["encoder.forward_s"] = total("encoder.forward")
    m["encoder.backward_s"] = total("encoder.backward")
    m["losses.loss_s"] = total(
        "losses.multi_positive_loss",
        "losses.multi_positive_with_text_loss",
        "losses.pair_contrastive_loss",
    )
    m["train.adamw_s"] = total("train.adamw_step")
    m["train.step_self_s"] = float((dur[steps] - child[steps]).sum())
    m["train.steps"] = int(steps.size)
    for shape in ("c40", "c120"):
        d = dur[[i for i in steps if notes.get(i) == shape]]
        m[f"train.step_p50_ms.{shape}"] = pct(d, 50, 1e3)
        m[f"train.step_p99_ms.{shape}"] = pct(d, 99, 1e3)
    m["train.checkpoint_save_s"] = total("train.save_checkpoint")
    m["train.checkpoint_load_s"] = total("train.load_checkpoint")
    m["train.checkpoint_bytes"] = sum(notes.get(i, 0) for i in rows("train.save_checkpoint"))
    m["train.metrics_write_s"] = total("train.write_metrics")

    probe_fits = [i for i in rows("evaluate.fit_logreg") if under(i, "evaluate.linear_probe")]
    probe_solves = [
        notes[i]
        for i in rows("evaluate.minimize")
        if i in notes and under(i, "evaluate.linear_probe")
    ]
    m["evaluate.encode_s"] = total("evaluate.encode_dataset")
    m["evaluate.probe_fit_s"] = float(dur[probe_fits].sum())
    m["evaluate.probe_fits"] = len(probe_fits)
    m["evaluate.lbfgs_iters"] = sum(nit for nit, _ in probe_solves)
    m["evaluate.converged_frac"] = (
        sum(ok for _, ok in probe_solves) / len(probe_solves) if probe_solves else 0.0
    )
    episodes = []
    fits = rows("evaluate.fit_logreg")
    for f in rows("evaluate.fewshot_eval"):
        # an episode runs from the end of the previous head fit to the end of its own
        ends = [tracer.end[i] for i in fits[parent[fits] == f]]
        starts = [tracer.start[f]] + ends[:-1]
        episodes.extend(e - s for s, e in zip(starts, ends))
    m["evaluate.fewshot_s"] = total("evaluate.fewshot_eval")
    m["evaluate.fewshot_episode_p50_ms"] = pct(episodes, 50, 1e3)
    m["evaluate.fewshot_episode_p99_ms"] = pct(episodes, 99, 1e3)

    m["report.emit_s"] = total("report.emit_report")

    # top level: spans called directly by a command; the rest of each
    # command's time (config, staging, provenance files) is the remainder
    commands = rows("cli.main")
    top = np.flatnonzero(np.isin(parent, commands))
    breakdown: dict[str, float] = {}
    for i in top:
        key = tracer.names[name[i]]
        breakdown[key] = breakdown.get(key, 0.0) + float(dur[i])
    covered = float(dur[top].sum())
    breakdown["(remainder)"] = wall_s - covered
    m["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    m["trace.uncovered_s"] = wall_s - covered
    m["trace.spans"] = n
    # every span, aggregated by name: count, total and self seconds
    spans = {
        s: [int(r.size), float(dur[r].sum()), float(dur[r].sum() - child[r].sum())]
        for s, r in ((s, rows(s)) for s in tracer.names)
    }
    return m, breakdown, spans


# -- child entry points -------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def facts() -> dict:
    t0 = time.perf_counter()
    import synthrep.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import numpy
    import scipy
    import synthrep

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = {}
    return {
        "import_s": import_s,
        "synthrep_file": os.path.abspath(synthrep.__file__),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run(spec: dict) -> dict:
    t0 = time.perf_counter()
    import synthrep.cli as cli

    out = {"import_s": time.perf_counter() - t0, "absent": [], "command_s": [], "codes": []}
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        out["absent"] = install(tracer)
    start = time.perf_counter()
    for argv in spec["argv"]:
        t = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed command, as in the CLI
            traceback.print_exc()
            code = 1
        out["command_s"].append(time.perf_counter() - t)
        out["codes"].append(code)
    out["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        out["layers"], out["breakdown"], out["spans"] = layer_metrics(tracer, out["wall_s"])
        out["layers"]["trace.absent_targets"] = len(out["absent"])
        out["note_errors"] = tracer.note_errors
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["facts"]:
        print(json.dumps(facts(), sort_keys=True))
        return 0
    if argv[:1] == ["run"] and len(argv) == 3:
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        result = run(spec)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
