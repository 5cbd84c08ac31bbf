"""The names the benchmark binds exist in the program.

Each workload's set-up is built through bench/fixture.py with
bench/tracing.py's spans installed, as ``bench/run.py --trace 1`` does, so
renaming or deleting a traced name (``earliest_obs_time``,
``Metric.christoffel``, ...) fails here.  bench/ is only read: its modules
are loaded from their files without writing bytecode beside them.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

import lorentz_gauge
from lorentz_gauge import (  # noqa: F401  (the submodules the tracer patches)
    config,
    errors,
    gauge,
    geometry,
    linalg,
    reconstruction,
    symcalc,
    transport,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = [w["name"] for w in
             json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def load_bench(name):
    """bench/<name>.py as a module, with no bytecode written."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def bindings():
    """Every attribute of the program's modules and of the classes they hold."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "lorentz_gauge":
            continue
        for attr, value in vars(module).items():
            out[mod_name, attr] = value
            if isinstance(value, type):
                out.update(((mod_name, attr, k), v) for k, v in vars(value).items())
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_installs_on_every_workload(name):
    fixture, tracing = load_bench("fixture"), load_bench("tracing")
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install_setup(tracer, lorentz_gauge)
        objs = fixture.build(lorentz_gauge, name, seed=1)
        tracing.install_layers(tracer, lorentz_gauge)
    finally:
        tracer.uninstall()
    assert tracer.calls["config.Fixture"] >= 2
    assert objs["metric"].dim == 3
    after = bindings()
    assert all(after[key] is value for key, value in before.items())
