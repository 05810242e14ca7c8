"""Public names: the package's ``__all__``, the attributes the benchmark tracer wraps
and the names README's library example uses."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import phasenoise
from phasenoise import cli, linksim, timegen

# the modules and classes whose attributes perfbench/spans.py replaces
_OWNERS = (cli, cli.OutputWriter, linksim, linksim.Constellation, timegen)


def test_all_names_resolve_once():
    assert len(phasenoise.__all__) == len(set(phasenoise.__all__))
    for name in phasenoise.__all__:
        assert getattr(phasenoise, name, None) is not None, name


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    return {(owner.__name__, name): value
            for owner in _OWNERS for name, value in vars(owner).items()}


def test_tracer_installs_and_restores():
    # a name the tracer wraps that has been deleted or renamed fails install
    spans = _load_spans()
    before = _attributes()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = {key for key, value in _attributes().items() if value is not before[key]}
    finally:
        tracer.restore()
    assert {("phasenoise.linksim", "measure_sir"), ("OutputWriter", "write"),
            ("Constellation", "decide"), ("phasenoise.cli", "fit_composite")} <= wrapped
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_readme_library_example_runs():
    # README's python block, in a child where any warning is an error: the
    # docs cite no removed name and the example warns of nothing
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    src = os.path.dirname(os.path.dirname(phasenoise.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
