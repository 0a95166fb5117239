"""The package root exports what the demos and the README example import,
every submodule export has a caller outside its module, the README example
runs, and the config classes are frozen values."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synthrep
from synthrep.data import BatchSpec
from synthrep.encoder import EncoderConfig
from synthrep.evaluate import EpisodeSpec, ProbeConfig
from synthrep.generator import GeneratorConfig
from synthrep.train import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def _root_imports(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "synthrep" and node.level == 0:
            names.update(alias.name for alias in node.names)
    return names


def _caller_sources() -> dict[str, str]:
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(ROOT.glob("demos/*.py"))}
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.S)):
        sources[f"README.md python block {i}"] = block
    return sources


def test_callers_import_only_exported_names():
    sources = _caller_sources()
    assert len(sources) == 4  # three demos and the README example
    for where, source in sources.items():
        names = _root_imports(source)
        assert names, f"{where} imports nothing from synthrep"
        for name in sorted(names):
            assert name in synthrep.__all__, f"{where} imports {name}, not in __all__"
            assert hasattr(synthrep, name), f"{where} imports {name}, which does not resolve"


def test_root_exports_nothing_its_callers_do_not_use():
    used = set().union(*(_root_imports(s) for s in _caller_sources().values()))
    assert sorted(set(synthrep.__all__) - used) == ["__version__"]
    assert len(synthrep.__all__) == len(set(synthrep.__all__))


def _identifiers(source: str) -> set[str]:
    """The names a Python source refers to: names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _trace_targets() -> set[str]:
    """The attribute names that perfbench/trace.py wraps, such as Trainer.train_step."""
    for node in ast.parse((ROOT / "perfbench" / "trace.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS":
            return {part for *_, attr in ast.literal_eval(node.value) for part in attr.split(".")}
    raise AssertionError("perfbench/trace.py defines no TARGETS")


def test_every_submodule_export_has_a_caller_outside_its_module():
    # callers: the other package modules, the demos, the README, the
    # benchmark's trace targets and the acceptance gates; exception classes
    # are exempt, since callers catch them by a base class
    package = ROOT / "src" / "synthrep"
    modules = {p.stem: _identifiers(p.read_text()) for p in sorted(package.glob("*.py"))}
    outside = set(_trace_targets())
    outside |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*sorted(ROOT.glob("demos/*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _identifiers(path.read_text())
    unused = []
    for stem in sorted(modules.keys() - {"__init__"}):
        module = importlib.import_module(f"synthrep.{stem}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, Exception):
                continue
            others = (ids for other, ids in modules.items() if other != stem)
            if name not in outside and not any(name in ids for ids in others):
                unused.append(f"synthrep.{stem}.{name}")
    assert unused == []


def test_readme_example_runs(tmp_path):
    example = _caller_sources()["README.md python block 0"]
    src = str(Path(synthrep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", example], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    accuracy, ci95 = map(float, done.stdout.split())
    assert 0.0 <= accuracy <= 1.0 and ci95 >= 0.0


@pytest.mark.parametrize(
    "config",
    [GeneratorConfig(), EncoderConfig(), TrainConfig(), ProbeConfig(), EpisodeSpec(),
     BatchSpec(2, 1)],
    ids=lambda config: type(config).__name__,
)
def test_configs_are_frozen_and_checked_only_at_construction(config):
    # a config is checked once, in __post_init__, and serialised by asdict
    for field in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
    for name in ("validate", "to_dict"):
        assert not hasattr(config, name), f"{type(config).__name__} defines {name}"
