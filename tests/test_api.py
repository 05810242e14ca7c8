"""Public names: the package's ``__all__`` and the attributes the benchmark tracer wraps."""

import importlib.util
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
