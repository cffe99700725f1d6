"""The benchmark's trace hooks still read the package: a src change must not break --trace 1.

benchmarks/tracing.py binds band_minima's scan_step and q_window by name and
reads MixtureSeries.clamped, so it is loaded here by path and run on one call
of each traced function.
"""
import importlib.util
import os

import ramanpa.dressed_states as ds
import ramanpa.pa_kinetics as pk
from ramanpa.pa_kinetics import MixtureState, PulseParams

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_read_band_minima_and_mixture():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        ds.band_minima([5.4, 1.1], 0.0)
        pulse = PulseParams(t_pa=0.01, rho0=1.0e14, n0=9300.0)
        pk.simulate_mixture(MixtureState(counts=(1200.0, 7000.0, 1100.0)), 1e-13, pulse,
                            dt=5e-6)
    finally:
        tracer.uninstall()
    spans = {span[0]: span[5] for span in tracer.finalize()}
    solve = spans["dressed_states.band_minima"]
    assert solve["rows"] == 2 and solve["grid_points"] == 41
    assert spans["pa_kinetics.simulate_mixture"]["clamped"] is False
