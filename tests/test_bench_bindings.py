"""The benchmark's tracer finds every binding it wraps.

``bench/tracing.py`` wraps package functions by name and records a name
it cannot find in ``Tracer.absent`` instead of failing, and
``bench/test_bench.py`` checks a few bindings by name.  A deletion or
rename in ``src/`` that drops one of them would leave a per-layer metric
silently at zero, so this test names them.  It reads ``bench/`` and
changes nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from cewave import charsys, cli, jets, lagrangians, rays, shock1d

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_bindings():
    # the bindings bench/test_bench.py checks the tracer patches
    return (cli.classify, shock1d.scalar_system, shock1d.crossing_time,
            lagrangians.LagrangianModel.jet_at, jets.Jet3.__add__)


def test_tracer_finds_every_traced_function():
    originals = _bench_bindings()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        patched = _bench_bindings()
    finally:
        tracer.restore()
    assert _bench_bindings() == originals
    # ce.data_from_model left src/ before the benchmark dropped its span
    assert set(tracer.absent) <= {"ce.data_from_model"}
    assert all(new is not old for new, old in zip(patched, originals))
    # the tracer reaches these through shock1d's own imports
    assert shock1d.scalar_system is charsys.scalar_system
    assert shock1d.crossing_time is rays.crossing_time
