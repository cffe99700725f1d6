"""Span tracing around calls into the public functions of each `ramanpa` module.

`install` wraps every binding of a traced function as the calling module holds
it (for example `ramanpa.uncertainty.band_minima` next to
`ramanpa.dressed_states.band_minima`), so calls made from inside the package
are seen too. Spans stay in memory; `per_layer_metrics` turns them into the
per-layer metrics listed in `PER_LAYER`.

A span is a list `[name, start, end, parent, op, attrs]`: `parent` is the
index of the enclosing span in the same list or -1, `op` the benchmark op that
caused it, and `attrs` a dict of counts recorded at the boundary or None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# name -> (unit, better). Counts and times are per op of the traced pass.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_optimize_s": ("s", "lower"),
    "cli.import.scipy_constants_s": ("s", "lower"),
    "cli.startup_share": ("1", "lower"),
    "cli.bands.main_s": ("s", "lower"),
    "cli.coeffs.main_s": ("s", "lower"),
    "cli.simulate.main_s": ("s", "lower"),
    "cli.fit.main_s": ("s", "lower"),
    "cli.mixture-sim.main_s": ("s", "lower"),
    "cli.ratio-sweep.main_s": ("s", "lower"),
    "config.from_environment.self_s": ("s", "lower"),
    "dressed_states.band_minima.calls": ("count", "lower"),
    "dressed_states.band_minima.rows": ("count", "lower"),
    "dressed_states.band_minima.self_s": ("s", "lower"),
    "dressed_states.band_minima.rows_per_s": ("1/s", "higher"),
    "dressed_states.band_minima.grid_evals": ("count", "lower"),
    "dressed_states.band_minima.max_grid_mb": ("MB", "lower"),
    "dressed_states.band_minima.unique_row_ratio": ("1", "higher"),
    "dressed_states.find_band_minimum.self_s": ("s", "lower"),
    "dressed_states.coefficients_vs_delta.self_s": ("s", "lower"),
    "dressed_states.band_curve.self_s": ("s", "lower"),
    "interference.rate_ratio.calls": ("count", "lower"),
    "interference.rate_ratio.self_s": ("s", "lower"),
    "uncertainty.ratio_band.calls": ("count", "lower"),
    "uncertainty.ratio_band.self_s": ("s", "lower"),
    "uncertainty.band_minima_share": ("1", "lower"),
    "pa_kinetics.simulate_mixture.calls": ("count", "lower"),
    "pa_kinetics.simulate_mixture.self_s": ("s", "lower"),
    "pa_kinetics.simulate_mixture.steps": ("count", "lower"),
    "pa_kinetics.simulate_mixture.shell_stage_evals": ("count", "lower"),
    "pa_kinetics.simulate_mixture.clamped_ratio": ("1", "lower"),
    "pa_kinetics.mixture.conservation_max_rel": ("1", "lower"),
    "pa_kinetics.mixture.edge_loss_max": ("1", "lower"),
    "pa_kinetics.invert_remaining_fraction.self_s": ("s", "lower"),
    "pa_kinetics.remaining_fraction.calls": ("count", "lower"),
    "spectra.fit_spectrum.calls": ("count", "lower"),
    "spectra.fit_spectrum.self_s": ("s", "lower"),
    "spectra.optimizer.calls": ("count", "lower"),
    "spectra.optimizer.self_s": ("s", "lower"),
    "spectra.optimizer.nfev": ("count", "lower"),
    "spectra.optimizer.nit": ("count", "lower"),
    "spectra.fit.forward_calls": ("count", "lower"),
    "spectra.fit.useful_forward_ratio": ("1", "higher"),
    "spectra.write_spectrum_csv.self_s": ("s", "lower"),
    "spectra.read_spectrum_csv.self_s": ("s", "lower"),
    "spectra.synthesize_spectrum.self_s": ("s", "lower"),
    "svgplot.render_plot.self_s": ("s", "lower"),
    "svgplot.write_svg.self_s": ("s", "lower"),
    "io.csv_write_s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

CSV_WRITERS = ("dressed_states.write_band_csv", "interference.write_ratio_sweep_csv",
               "pa_kinetics.write_mixture_csv", "spectra.write_spectrum_csv",
               "uncertainty.write_ratio_band_csv")


# Hooks run after the span closes and only keep references or cheap counts.
def _band_minima_hook(attrs, a, result):
    attrs["args"] = (a["omega"], a["delta"], a["epsilon_q"], a["scan_step"], a["q_window"])


def _minimize_hook(attrs, a, result):
    attrs["nfev"] = int(result.nfev)
    attrs["nit"] = int(result.nit)


def _mixture_hook(attrs, a, result):
    attrs["steps"] = int(np.ceil(a["pulse"].t_pa / a["dt"]))
    attrs["shells"] = int(a["n_shells"])
    attrs["clamped"] = bool(result.clamped)


# (defining module, attribute, span name, hook run after the call)
TARGETS = (
    ("ramanpa.dressed_states", "band_minima", "dressed_states.band_minima", _band_minima_hook),
    ("ramanpa.dressed_states", "find_band_minimum", "dressed_states.find_band_minimum", None),
    ("ramanpa.dressed_states", "coefficients_vs_delta", "dressed_states.coefficients_vs_delta",
     None),
    ("ramanpa.dressed_states", "band_curve", "dressed_states.band_curve", None),
    ("ramanpa.dressed_states", "write_band_csv", "dressed_states.write_band_csv", None),
    ("ramanpa.interference", "rate_ratio", "interference.rate_ratio", None),
    ("ramanpa.interference", "write_ratio_sweep_csv", "interference.write_ratio_sweep_csv", None),
    ("ramanpa.uncertainty", "ratio_band_vs_omega", "uncertainty.ratio_band", None),
    ("ramanpa.uncertainty", "ratio_band_vs_delta", "uncertainty.ratio_band", None),
    ("ramanpa.uncertainty", "write_ratio_band_csv", "uncertainty.write_ratio_band_csv", None),
    ("ramanpa.pa_kinetics", "simulate_mixture", "pa_kinetics.simulate_mixture", _mixture_hook),
    ("ramanpa.pa_kinetics", "invert_remaining_fraction", "pa_kinetics.invert_remaining_fraction",
     None),
    ("ramanpa.pa_kinetics", "remaining_fraction", "pa_kinetics.remaining_fraction", None),
    ("ramanpa.pa_kinetics", "write_mixture_csv", "pa_kinetics.write_mixture_csv", None),
    ("ramanpa.spectra", "fit_spectrum", "spectra.fit_spectrum", None),
    ("ramanpa.spectra", "synthesize_spectrum", "spectra.synthesize_spectrum", None),
    ("ramanpa.spectra", "write_spectrum_csv", "spectra.write_spectrum_csv", None),
    ("ramanpa.spectra", "read_spectrum_csv", "spectra.read_spectrum_csv", None),
    ("scipy.optimize", "minimize", "spectra.optimizer", _minimize_hook),
    ("ramanpa.svgplot", "render_plot", "svgplot.render_plot", None),
    ("ramanpa.svgplot", "write_svg", "svgplot.write_svg", None),
)


class Tracer:
    """In-memory span recorder. `op` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name, via, hook=None, attrs=None):
        """Return `fn` wrapped so each call records a span named `name`."""
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op,
                    dict(attrs) if attrs else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            # the binding is recorded only where it differs from the home module,
            # which keeps the many forward-model spans free of a dict
            if via != name.split(".")[0] or hook:
                span[5] = span[5] or {}
                span[5]["via"] = via
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span[5], bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every `ramanpa.*` binding of each traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ramanpa" or n.startswith("ramanpa."))]
        for mod_name, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        via = mod.__name__.removeprefix("ramanpa.")
                        setattr(mod, binding, self.wrap(original, name, via, hook))
                        self._undo.append((mod, binding, original))
        config = sys.modules.get("ramanpa.config")
        if config is not None:
            cls = config.RunConfig
            original = cls.__dict__["from_environment"]
            cls.from_environment = classmethod(
                self.wrap(original.__func__, "config.from_environment", "cli"))
            self._undo.append((cls, "from_environment", original))

    def uninstall(self):
        for owner, binding, original in reversed(self._undo):
            setattr(owner, binding, original)
        self._undo.clear()

    def finalize(self):
        """Replace raw call arguments in span attrs by JSON-safe counts."""
        solves = [s for s in self.spans if s[5] and "args" in s[5]]
        per_op_rows: dict[int, list] = {}
        for span in solves:
            omega, delta, eps, step, window = span[5].pop("args")
            om, de, ep = np.broadcast_arrays(np.atleast_1d(np.asarray(omega, float)),
                                             np.atleast_1d(np.asarray(delta, float)),
                                             np.atleast_1d(np.asarray(eps, float)))
            span[5]["rows"] = int(om.size)
            span[5]["grid_points"] = int(round((window[1] - window[0]) / step)) + 1
            rows = np.column_stack([om, de, ep, np.full(om.size, float(step))])
            per_op_rows.setdefault(span[4], []).append(rows)
        unique = {op: distinct_rows(blocks) for op, blocks in per_op_rows.items()}
        for span in solves:
            span[5]["op_distinct_rows"] = unique[span[4]]
        return self.spans


def distinct_rows(blocks) -> int:
    """Number of distinct (omega, delta, epsilon_q, scan_step) rows in `blocks`."""
    return int(np.unique(np.vstack(blocks), axis=0).shape[0])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span[1]), min(hi, span[2])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span[2] - span[1]) - covered)
    return out


def unique_row_ratio(spans) -> float:
    """Distinct rows per op summed over ops, divided by all rows solved."""
    rows = 0
    distinct: dict[int, int] = {}
    for span in spans:
        attrs = span[5]
        if span[0] == "dressed_states.band_minima" and attrs:
            rows += attrs["rows"]
            distinct[span[4]] = attrs["op_distinct_rows"]
    return sum(distinct.values()) / rows if rows else 0.0


def per_layer_metrics(spans, n_ops, extra=None) -> dict:
    """Per-layer metrics from the spans of one traced pass of `n_ops` ops.

    Counts and times are per op; a layer the workload never reaches reads 0.
    `extra` supplies the metrics measured outside the spans (import times,
    mixture diagnostics, bytes written, overhead ratio).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    dur_s: dict[str, float] = {}
    for span, st in zip(spans, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + st
        dur_s[span[0]] = dur_s.get(span[0], 0.0) + span[2] - span[1]

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def child_time(parent_name, child_name):
        parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
        return sum(s[2] - s[1] for s in spans if s[0] == child_name and s[3] in parents)

    def via_calls(name, via):
        return sum(1 for s in spans if s[0] == name and (s[5] or {}).get("via") == via)

    def in_fit_forward():
        fits = {i for i, s in enumerate(spans) if s[0] == "spectra.fit_spectrum"}
        # forward-model calls may sit under the optimizer span inside a fit
        parent = {i: s[3] for i, s in enumerate(spans)}
        count = 0
        for i, s in enumerate(spans):
            if s[0] != "pa_kinetics.remaining_fraction" or (s[5] or {}).get("via") != "spectra":
                continue
            p = s[3]
            while p >= 0 and p not in fits:
                p = parent[p]
            count += p >= 0
        return count

    n = max(n_ops, 1)
    bm = "dressed_states.band_minima"
    rows = attr_sum(bm, "rows")
    grid = [(s[5]["rows"], s[5]["grid_points"]) for s in spans if s[0] == bm and s[5]]
    nfev = attr_sum("spectra.optimizer", "nfev")
    forward = in_fit_forward()
    fits = calls.get("spectra.fit_spectrum", 0)
    mix = "pa_kinetics.simulate_mixture"
    mix_calls = calls.get(mix, 0)
    ratio_time = dur_s.get("uncertainty.ratio_band", 0.0)
    verbs = {}
    for s in spans:
        if s[0] == "cli.main":
            verbs.setdefault(s[5]["verb"], []).append(s[2] - s[1])

    m = {
        "config.from_environment.self_s": self_s.get("config.from_environment", 0.0) / n,
        f"{bm}.calls": calls.get(bm, 0) / n,
        f"{bm}.rows": rows / n,
        f"{bm}.self_s": self_s.get(bm, 0.0) / n,
        f"{bm}.rows_per_s": rows / dur_s[bm] if dur_s.get(bm) else 0.0,
        f"{bm}.grid_evals": sum(r * g for r, g in grid) / n,
        f"{bm}.max_grid_mb": max((r * g * 8 / 1e6 for r, g in grid), default=0.0),
        f"{bm}.unique_row_ratio": unique_row_ratio(spans),
        "interference.rate_ratio.calls": calls.get("interference.rate_ratio", 0) / n,
        "uncertainty.ratio_band.calls": calls.get("uncertainty.ratio_band", 0) / n,
        "uncertainty.band_minima_share":
            child_time("uncertainty.ratio_band", bm) / ratio_time if ratio_time else 0.0,
        f"{mix}.calls": mix_calls / n,
        f"{mix}.steps": attr_sum(mix, "steps") / n,
        f"{mix}.shell_stage_evals": sum(4 * s[5]["steps"] * s[5]["shells"]
                                        for s in spans if s[0] == mix) / n,
        f"{mix}.clamped_ratio": attr_sum(mix, "clamped") / mix_calls if mix_calls else 0.0,
        "pa_kinetics.remaining_fraction.calls":
            via_calls("pa_kinetics.remaining_fraction", "spectra") / n,
        "spectra.fit_spectrum.calls": fits / n,
        "spectra.optimizer.calls": calls.get("spectra.optimizer", 0) / n,
        "spectra.optimizer.nfev": nfev / n,
        "spectra.optimizer.nit": attr_sum("spectra.optimizer", "nit") / n,
        "spectra.fit.forward_calls": forward / fits if fits else 0.0,
        "spectra.fit.useful_forward_ratio": nfev / forward if forward else 0.0,
        "io.csv_write_s": sum(dur_s.get(w, 0.0) for w in CSV_WRITERS) / n,
    }
    for name in ("interference.rate_ratio", "uncertainty.ratio_band", mix,
                 "pa_kinetics.invert_remaining_fraction", "spectra.fit_spectrum",
                 "spectra.optimizer", "spectra.write_spectrum_csv",
                 "spectra.read_spectrum_csv", "spectra.synthesize_spectrum",
                 "svgplot.render_plot", "svgplot.write_svg",
                 "dressed_states.find_band_minimum", "dressed_states.coefficients_vs_delta",
                 "dressed_states.band_curve"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for verb in ("bands", "coeffs", "simulate", "fit", "mixture-sim", "ratio-sweep"):
        times = verbs.get(verb)
        m[f"cli.{verb}.main_s"] = sum(times) / len(times) if times else 0.0
    for key in ("cli.import_s", "cli.import.scipy_optimize_s", "cli.import.scipy_constants_s",
                "cli.startup_share", "pa_kinetics.mixture.conservation_max_rel",
                "pa_kinetics.mixture.edge_loss_max", "io.bytes_written",
                "trace.overhead_ratio"):
        m[key] = 0.0
    m.update(extra or {})
    return {name: m[name] for name in PER_LAYER}
