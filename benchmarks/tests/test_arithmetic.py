"""Tests of the benchmark's own arithmetic: tail rule, self time, row uniqueness."""

import json
import os

import numpy as np
import pytest

import tracing
from harness import quartile_spread, tail_latency

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tail_is_the_op_with_ten_ops_beyond_it():
    value, pct, n = tail_latency(np.arange(1.0, 101.0))
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_ignores_input_order():
    xs = list(np.random.default_rng(0).permutation(np.arange(1.0, 21.0)))
    assert tail_latency(xs) == (10.0, 50.0, 20)


def test_tail_with_eleven_ops_is_the_minimum():
    value, pct, n = tail_latency([5.0, 1.0] + [9.0] * 9)
    assert value == 1.0 and pct == pytest.approx(100.0 / 11) and n == 11


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_with_ten_or_fewer_ops_reports_the_maximum(n):
    xs = [float(k) for k in range(n)]
    assert tail_latency(xs) == (float(n - 1), 100.0, n)


def test_tail_of_no_ops_is_an_error():
    with pytest.raises(ValueError):
        tail_latency([])


def test_quartile_spread():
    assert quartile_spread([1.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def _span(name, start, end, parent, op=0, attrs=None):
    return [name, start, end, parent, op, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 3.0, 0),   # sibling of c
        _span("c", 4.0, 7.0, 0),
        _span("d", 5.0, 6.0, 2),   # nested inside c
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_per_layer_self_time_of_nested_spans():
    spans = [
        _span("spectra.fit_spectrum", 0.0, 1.0, -1),
        _span("spectra.optimizer", 0.1, 0.6, 0, attrs={"via": "spectra", "nfev": 3, "nit": 2}),
        _span("pa_kinetics.remaining_fraction", 0.2, 0.3, 1, attrs={"via": "spectra"}),
        _span("pa_kinetics.remaining_fraction", 0.7, 0.8, 0, attrs={"via": "spectra"}),
    ]
    m = tracing.per_layer_metrics(spans, n_ops=1)
    assert m["spectra.fit_spectrum.self_s"] == pytest.approx(0.4)
    assert m["spectra.optimizer.self_s"] == pytest.approx(0.4)
    assert m["spectra.fit.forward_calls"] == 2
    assert m["spectra.fit.useful_forward_ratio"] == pytest.approx(1.5)


def _fake_band_minima(omega, delta, epsilon_q=0.65, scan_step=1e-3, q_window=(-3.0, 3.0)):
    return omega


def _ratio_sweep_like_solve(tracer, solve, op, seed=0, points=25, samples=500):
    """Mirror `ratio-sweep`: every Monte Carlo point and the exact sweep are
    solved once for each variant, so each row is solved twice."""
    tracer.op = op
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(8.0, 0.8, samples), rng.normal(0.0, 0.5, samples))
             for _ in range(points)]
    axis = np.linspace(0.0, 12.0, points)
    for _variant in ("with", "without"):
        for omegas, deltas in draws:
            solve(omegas, deltas, np.full(samples, 0.65), scan_step=0.02)
    for _variant in ("with", "without"):
        solve(axis, 0.0, 0.65, scan_step=1e-3)


def test_unique_row_ratio_of_a_ratio_sweep_solve_is_one_half():
    tracer = tracing.Tracer()
    solve = tracer.wrap(_fake_band_minima, "dressed_states.band_minima", "uncertainty",
                        hook=tracing._band_minima_hook)
    _ratio_sweep_like_solve(tracer, solve, op=0)
    spans = tracer.finalize()
    assert sum(s[5]["rows"] for s in spans) == 2 * (25 * 500 + 25)
    assert tracing.unique_row_ratio(spans) == 0.5
    m = tracing.per_layer_metrics(spans, n_ops=1)
    assert m["dressed_states.band_minima.calls"] == 52
    assert m["dressed_states.band_minima.grid_evals"] == 2 * (25 * 500 * 301 + 25 * 6001)
    assert m["dressed_states.band_minima.max_grid_mb"] == pytest.approx(500 * 301 * 8 / 1e6)


def test_unique_row_ratio_is_per_op():
    # the same arguments in two ops are two solves a within-op dedupe cannot share
    tracer = tracing.Tracer()
    solve = tracer.wrap(_fake_band_minima, "dressed_states.band_minima", "uncertainty",
                        hook=tracing._band_minima_hook)
    _ratio_sweep_like_solve(tracer, solve, op=0)
    _ratio_sweep_like_solve(tracer, solve, op=1)
    assert tracing.unique_row_ratio(tracer.finalize()) == 0.5


def test_unique_row_ratio_of_distinct_rows_is_one():
    tracer = tracing.Tracer()
    solve = tracer.wrap(_fake_band_minima, "dressed_states.band_minima", "uncertainty",
                        hook=tracing._band_minima_hook)
    solve(np.arange(10.0), 0.5)
    solve(np.arange(10.0), -0.5)
    assert tracing.unique_row_ratio(tracer.finalize()) == 1.0


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.PER_LAYER
    assert list(layer_map) == list(tracing.PER_LAYER)
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, targets in layer_map.items():
        assert targets or name == "trace.overhead_ratio"
        assert all(t["workload"] in workloads and t["metric"] in end_to_end
                               for t in targets)
