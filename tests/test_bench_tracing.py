"""The benchmark's tracer wraps fibwalk names by attribute; they must resolve."""

import importlib.util
from pathlib import Path

from fibwalk import cli, dynamics, output, schur, spectrum, sweep, walk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracing = load_tracing()
    modules = (cli, dynamics, output, schur, spectrum, sweep, walk)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = {
            (m.__name__, key)
            for m, names in zip(modules, before)
            for key, value in vars(m).items()
            if names.get(key) is not value
        }
        assert ("fibwalk.dynamics", "apply_step") in wrapped
        assert ("fibwalk.dynamics", "localized_state") in wrapped
    finally:
        tracer.uninstall()
    for m, names in zip(modules, before):
        changed = [k for k, v in vars(m).items() if names.get(k) is not v]
        assert changed == [], f"{m.__name__} not restored: {changed}"
        assert set(vars(m)) == set(names)
