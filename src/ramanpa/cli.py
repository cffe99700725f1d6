"""Command-line front end.

Verbs: bands, coeffs, ratio-sweep, fit, simulate, mixture-sim. Every command
reads an optional config file (--config or the RAMANPA_CONFIG variable),
writes CSV/JSON/SVG artifacts into --out-dir, and is deterministic for a given
config and seed. A verb checks its flags and solves; `main` alone writes the
outputs --format asks for and prints, so a failed run creates no out dir.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric non-convergence.
`main` alone maps errors to codes (FloatingPointError, LinAlgError: 3;
ConfigError, SpectrumFormatError, OSError: 2; any other ValueError, a bad flag
value: 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .config import ENV_CONFIG, ConfigError, RunConfig, _float_list
from .dressed_states import (
    _MAX_BAND_POINTS,
    _MAX_BAND_Q,
    DRESSING_LIMIT_ER,
    band_curve,
    coefficients_vs_delta,
    find_band_minimum,
    write_band_csv,
)
from .interference import rate_ratio, rate_ratio_no_interference, write_ratio_sweep_csv
from .pa_kinetics import (
    _MAX_SHELLS,
    LorentzianLine,
    lorentzian_eta,
    rate_from_eta,
    remaining_fraction,
    simulate_mixture,
    write_mixture_csv,
)
from .spectra import (
    SpectrumFormatError,
    fit_spectrum,
    normalize_spectrum,
    read_spectrum_csv,
    synthesize_spectrum,
    write_spectrum_csv,
)
from .svgplot import BandArea, Markers, Series, render_plot, write_svg
from .tables import write_csv
from .uncertainty import MAX_SAMPLES, ratio_bands, write_ratio_band_csv
from .constants import MS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_COLOR_WITH = "#e07b2a"     # with-interference curves
_COLOR_WITHOUT = "#3a6fb0"  # without-interference curves
_BAND_COLORS = ("#555555", "#888888", "#bbbbbb")
_SPIN_LABELS = ("m_f=-1", "m_f=0", "m_f=+1")
_MAX_SWEEP_POINTS = 100_000  # ratio-sweep --points cap, checked before linspace
_SWEEP_DEFAULTS = {"omega": (0.0, 12.0, 25), "delta": (-2.5, 2.5, 21)}  # start, stop, points


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -2 and -2.5 for negative numbers; any token that
        # starts with a minus and a digit is a value, so `--delta-list -2.5,0`
        # and `--delta -1e-3` parse like their `--flag=value` forms
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # usage problems must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ramanpa",
                     description="Dressed-spin photoassociation toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
    common.add_argument("--out-dir", help="output directory (default: config output.dir)")
    common.add_argument("--format", dest="formats",
                        help="comma list of csv,json,svg")
    # only the verbs that draw random numbers take a seed
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, help="random seed override")
    # the dressing point of the verbs that solve band minima
    dressing = argparse.ArgumentParser(add_help=False)
    dressing.add_argument("--omega", type=float,
                          help=f"Raman coupling in E_r, 0 to {DRESSING_LIMIT_ER:g}")
    dressing.add_argument("--delta", type=float,
                          help=f"detuning in E_r, |delta| <= {DRESSING_LIMIT_ER:g}")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", parents=[common, dressing],
                       help="dressed band structure over a q grid")
    p.add_argument("--q-min", type=float, default=-3.0,
                   help=f"grid start in k_r, |q| <= {_MAX_BAND_Q:g} (default -3)")
    p.add_argument("--q-max", type=float, default=3.0,
                   help=f"grid end in k_r, |q| <= {_MAX_BAND_Q:g} (default 3)")
    p.add_argument("--n-points", type=int, default=601,
                   help=f"q grid points, 2 to {_MAX_BAND_POINTS} (default 601)")
    p.set_defaults(func=cmd_bands, parser=p)

    p = sub.add_parser("coeffs", parents=[common, dressing],
                       help="band-minimum superposition coefficients")
    p.add_argument("--delta-list", help="comma list of detunings in E_r")
    p.set_defaults(func=cmd_coeffs, parser=p)

    p = sub.add_parser("ratio-sweep", parents=[seeded, dressing],
                       help="PA rate-ratio bands over omega or delta")
    p.add_argument("--axis", choices=("omega", "delta"), default="omega")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int,
                   help=f"sweep points, 1 to {_MAX_SWEEP_POINTS} (default 25 omega, 21 delta)")
    p.add_argument("--samples", type=int,
                   help=f"Monte Carlo samples per point, 100 to {MAX_SAMPLES}")
    p.add_argument("--no-interference", action="store_true",
                   help="emit only the no-interference variant band")
    p.set_defaults(func=cmd_ratio_sweep, parser=p)

    p = sub.add_parser("fit", parents=[common], help="fit a spectrum CSV")
    p.add_argument("spectrum", help="input spectrum CSV path")
    p.add_argument("--rho0", type=float, help="peak density override, cm^-3")
    p.add_argument("--t-pa", type=float, help="pulse duration override, ms")
    p.set_defaults(func=cmd_fit, parser=p)

    p = sub.add_parser("simulate", parents=[seeded, dressing],
                       help="synthesize a superposition-state spectrum")
    p.add_argument("--mode", choices=("superposition",), default="superposition")
    p.add_argument("--noise", type=float, default=0.0, help="relative noise sigma, 0 to 1 (default 0)")
    p.add_argument("--no-interference", action="store_true",
                   help="scale by the no-interference ratio instead")
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("mixture-sim", parents=[common],
                       help="two-channel spin-mixture loss kinetics")
    p.add_argument("--counts", help="N_-1,N_0,N_+1")
    p.add_argument("--k00", type=float, help="bare-state rate, cm^3/s")
    p.add_argument("--t-pa", type=float, help="pulse duration, ms")
    p.add_argument("--dt", type=float,
                   help="time-sample step, ms, t_pa/10^6 to t_pa/100 (default t_pa/1000)")
    p.add_argument("--cross-weight", type=float,
                   help="(+1,-1) channel weight relative to (0,0); default: "
                        "bare ratio 2 damped by the pair-energy offset")
    p.add_argument("--n-shells", type=int,
                   help=f"Thomas-Fermi density shells, 1 to {_MAX_SHELLS} "
                        "(default: kinetics.n_shells, 400)")
    p.set_defaults(func=cmd_mixture_sim, parser=p)

    return parser


def _write_ascii(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _json(payload):
    """Writer of `payload` as sorted, indented ASCII JSON."""
    return lambda path: _write_ascii(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _svg(title, x_label, y_label, **layers):
    """Writer that renders one plot of `layers` (render_plot's keywords) as SVG."""
    return lambda path: write_svg(path, render_plot(title, x_label, y_label, **layers))


# commands -------------------------------------------------------------------
# Each returns (outputs, summary): outputs are (file name, format, writer) in
# writing order, format None for a file written whatever --format says. The
# writers look up render_plot, write_svg and the CSV writers only when called.

def cmd_bands(args, config: RunConfig):
    params = config.raman_params(args.omega, args.delta)
    curve = band_curve(params, args.q_min, args.q_max, args.n_points)
    state = find_band_minimum(params)

    series = [Series(x=curve.q_grid, y=curve.energies[:, b],
                     color=_BAND_COLORS[b], label=f"band {b + 1}")
              for b in range(3)]
    marker = Markers(x=np.array([state.q]), y=np.array([state.energy]),
                     color=_COLOR_WITH, label="band minimum", radius=4.0)
    return [
        ("bands.csv", "csv", lambda path: write_band_csv(path, curve)),
        ("bands.json", "json", _json({
            "omega_r_Er": params.omega_r, "delta_Er": params.delta,
            "epsilon_q_Er": params.epsilon_q,
            "q_star_kr": state.q, "energy_Er": state.energy,
            "coeffs": list(state.coeffs), "weights": list(state.weights),
        })),
        ("bands.svg", "svg", _svg(
            f"Dressed bands, omega_R={params.omega_r:g} E_r, delta={params.delta:g} E_r",
            "q (k_r)", "E (E_r)", series=series, markers=[marker])),
    ], (f"band minimum: q* = {state.q:.6g} k_r, E = {state.energy:.6g} E_r, "
        f"coeffs = ({state.coeffs[0]:.4f}, {state.coeffs[1]:.4f}, {state.coeffs[2]:.4f})")


def cmd_coeffs(args, config: RunConfig):
    if args.delta_list is not None and args.delta is not None:
        raise ValueError("--delta-list takes no --delta")
    listed = (None if args.delta_list is None
              else _float_list(args.delta_list, "--delta-list value"))
    # the list's first detuning replaces raman.delta, as --delta does
    params = config.raman_params(args.omega, args.delta if listed is None else listed[0])
    deltas = listed or [params.delta]
    states = coefficients_vs_delta(params, deltas)

    ratios = [rate_ratio(s.coeffs) for s in states]
    ratios_ni = [rate_ratio_no_interference(s.coeffs) for s in states]
    rows = [(d, s.q, s.energy, *s.coeffs, r, rn)
            for d, s, r, rn in zip(deltas, states, ratios, ratios_ni)]

    dv = np.array(deltas)
    weights = np.array([s.weights for s in states])
    # a curve needs two detunings; a single one is drawn as markers
    layer, key = (Series, "series") if len(deltas) > 1 else (Markers, "markers")
    layers = [layer(x=dv, y=weights[:, m], color=_BAND_COLORS[m],
                    label=_SPIN_LABELS[m]) for m in range(3)]
    return [
        ("coeffs.csv", "csv", lambda path: write_csv(
            path, ("delta_Er", "q_star_kr", "energy_Er", "C_m-1", "C_m0", "C_m+1",
                   "ratio", "ratio_no_interference"), list(zip(*rows)))),
        ("coeffs.json", "json", _json([
            {"delta_Er": d, "q_star_kr": s.q, "energy_Er": s.energy,
             "coeffs": list(s.coeffs), "weights": list(s.weights),
             "ratio": r, "ratio_no_interference": rn}
            for d, s, r, rn in zip(deltas, states, ratios, ratios_ni)])),
        ("coeffs.svg", "svg", _svg(
            f"Band-minimum spin weights, omega_R={params.omega_r:g} E_r",
            "delta (E_r)", "|C|^2", y_range=(0.0, 1.05), **{key: layers})),
    ], "\n".join(
        f"delta = {d:+.3g} E_r: q* = {s.q:+.4f} k_r, "
        f"coeffs = ({s.coeffs[0]:+.4f}, {s.coeffs[1]:+.4f}, {s.coeffs[2]:+.4f}), "
        f"ratio = {r:.4f}"
        for d, s, r in zip(deltas, states, ratios))


def cmd_ratio_sweep(args, config: RunConfig):
    if (args.omega if args.axis == "omega" else args.delta) is not None:
        raise ValueError(f"--axis {args.axis} takes no --{args.axis}")
    start, stop, points = (default if value is None else value for value, default
                           in zip((args.start, args.stop, args.points),
                                  _SWEEP_DEFAULTS[args.axis]))
    if not (1 <= points <= _MAX_SWEEP_POINTS and -math.inf < start <= stop < math.inf):
        raise ValueError(f"need finite start <= stop and 1 <= points <= "
                         f"{_MAX_SWEEP_POINTS}")
    axis = np.linspace(start, stop, points)
    # the axis's first value replaces the swept key's configured one, as a flag does
    if args.axis == "omega":
        nominal = config.raman_params(axis[0], args.delta)
        omega_col, delta_col = axis, np.full(points, nominal.delta)
        x_label = "omega_R (E_r)"
    else:
        nominal = config.raman_params(args.omega, axis[0])
        omega_col, delta_col = np.full(points, nominal.omega_r), axis
        x_label = "delta (E_r)"
    mc_spec = config.uncertainty_spec(seed=args.seed, n_samples=args.samples)
    mc_with, mc_without = ratio_bands(axis, omega_col, delta_col, mc_spec, nominal.epsilon_q)
    first = 1 if args.no_interference else 0
    bands, colors = [mc_with, mc_without][first:], (_COLOR_WITH, _COLOR_WITHOUT)[first:]

    areas = [BandArea(x=b.sweep_axis, lower=b.lower, upper=b.upper, color=color,
                      label=b.variant)
             for b, color in zip(bands, colors)]
    lines = [Series(x=axis, y=mc_without.nominal, color=_COLOR_WITHOUT,
                    label="nominal, no cross term", dashed=True),
             Series(x=axis, y=mc_with.nominal, color=_COLOR_WITH,
                    label="nominal")]
    return [
        ("ratio_band.csv", "csv", lambda path: write_ratio_band_csv(path, bands)),
        ("ratio_nominal.csv", "csv", lambda path: write_ratio_sweep_csv(
            path, omega_col, delta_col, mc_with.nominal, mc_without.nominal)),
        ("ratio_sweep.json", "json", _json({
            "axis": args.axis, "values": axis.tolist(),
            "bands": [{"variant": b.variant, "mean": b.mean.tolist(),
                       "lower": b.lower.tolist(), "upper": b.upper.tolist()}
                      for b in bands],
            "nominal_ratio": mc_with.nominal.tolist(),
            "nominal_ratio_no_interference": mc_without.nominal.tolist(),
            "n_samples": mc_spec.n_samples, "seed": mc_spec.seed,
        })),
        ("ratio_sweep.svg", "svg", _svg("Normalized PA rate", x_label, "k_sup / k_00",
                                        series=lines, bands=areas, y_range=(0.0, 1.05))),
    ], (f"ratio sweep over {args.axis}: {points} points, "
        f"{mc_spec.n_samples} samples/point, seed {mc_spec.seed}")


def cmd_fit(args, config: RunConfig):
    data = read_spectrum_csv(args.spectrum)
    pulse = config.pulse_params(n0=max(float(np.max(data.atoms_total)), 1.0),
                                t_pa_ms=args.t_pa, rho0=args.rho0)
    fit = fit_spectrum(data)
    k_pa = rate_from_eta(fit.eta_res, pulse)
    record = {
        "n0": fit.n0, "eta_res": fit.eta_res, "nu0_khz": fit.nu0,
        "gamma_khz": fit.gamma, "k_pa_cm3_s": k_pa,
        "residual_rms": fit.residual_rms, "converged": fit.converged,
    }
    text = "".join(f"{key} = {value}\n" for key, value in record.items())
    normalized = normalize_spectrum(data, fit) if fit.converged and fit.n0 > 0 else None

    def write_record(path):
        _write_ascii(path, text)
        if not fit.converged:  # warn only once the parameters are on disk
            print("warning: fit did not converge; best-effort parameters written",
                  file=sys.stderr)

    outputs = [("fit_result.txt", None, write_record),
               ("fit_result.json", "json",
                _json({**record, "covariance": fit.covariance.tolist()}))]
    if normalized is not None:
        outputs.append(("spectrum_normalized.csv", "csv",
                        lambda path: write_spectrum_csv(path, normalized)))

    def plot_fit(path):
        dense = np.linspace(data.detunings_khz[0], data.detunings_khz[-1], 400)
        if 0 < fit.eta_res < math.inf and 0 < fit.gamma < math.inf and math.isfinite(fit.nu0):
            line = LorentzianLine(eta_res=fit.eta_res, nu0=fit.nu0, gamma=fit.gamma)
            model = fit.n0 * remaining_fraction(lorentzian_eta(dense, line))
        else:
            model = np.full(dense.size, fit.n0)
        layers = [Series(x=dense, y=model, color=_COLOR_WITH, label="fit")]
        points = [Markers(x=data.detunings_khz, y=data.atoms_total,
                          color="#222222", label="data", yerr=data.stderr)]
        _svg("PA spectrum fit", "detuning (kHz)", "atoms",
             series=layers, markers=points)(path)

    outputs.append(("fit.svg", "svg", plot_fit))
    loss = 1.0 - remaining_fraction(fit.eta_res) if math.isfinite(fit.eta_res) else math.nan
    return outputs, (f"fit: n0 = {fit.n0:.6g}, eta_res = {fit.eta_res:.6g}, "
                     f"nu0 = {fit.nu0:.6g} kHz, gamma = {fit.gamma:.6g} kHz, "
                     f"k_pa = {k_pa:.6g} cm^3/s, resonant loss = {loss:.2%}, "
                     f"converged = {fit.converged}")


def cmd_simulate(args, config: RunConfig):
    params = config.raman_params(args.omega, args.delta)

    state = find_band_minimum(params)
    ratio = (rate_ratio_no_interference(state.coeffs) if args.no_interference
             else rate_ratio(state.coeffs))
    # a bad configured value exits 2, a bad --seed or --noise 1
    pulse = config.pulse_params()
    eta00 = config.eta00(pulse)
    line = config.lorentzian(eta_res=ratio * eta00)
    seed = config.seed(args.seed)
    detunings = np.linspace(line.nu0 - 3.0 * line.gamma, line.nu0 + 3.0 * line.gamma, 31)
    spectrum = synthesize_spectrum(
        line, pulse, detunings, args.noise, seed,
        component_weights=state.weights, include_stderr=args.noise > 0)
    k00 = config.get("kinetics.k00_cm3_s")

    points = [Markers(x=spectrum.detunings_khz, y=spectrum.atoms_total,
                      color="#222222", label="total", yerr=spectrum.stderr)]
    return [
        ("spectrum_superposition.csv", "csv",
         lambda path: write_spectrum_csv(path, spectrum)),
        ("simulate_superposition.json", "json", _json({
            "omega_r_Er": params.omega_r, "delta_Er": params.delta,
            "q_star_kr": state.q, "coeffs": list(state.coeffs),
            "rate_ratio": ratio, "eta00_res": eta00,
            "eta_res": ratio * eta00, "k00_cm3_s": k00,
            "k_scaled_cm3_s": ratio * k00, "noise_rel": args.noise,
            "seed": seed, "variant": "without-interference"
            if args.no_interference else "with-interference",
        })),
        ("spectrum_superposition.svg", "svg", _svg(
            "Synthetic superposition-state spectrum", "detuning (kHz)", "atoms",
            markers=points)),
    ], (f"superposition spectrum: ratio = {ratio:.4f}, eta_res = {ratio * eta00:.4g}, "
        f"resonant loss = {1.0 - remaining_fraction(ratio * eta00):.2%}")


def cmd_mixture_sim(args, config: RunConfig):
    mixture = config.mixture_args(
        counts=args.counts, k00=args.k00, t_pa_ms=args.t_pa, dt_ms=args.dt,
        cross_weight=args.cross_weight, n_shells=args.n_shells)
    series = simulate_mixture(**mixture)
    k00, t_pa, cross_weight = mixture["k00"], mixture["pulse"].t_pa, mixture["cross_weight"]
    start, end = series.counts[0], series.counts[-1]
    losses = [(s - e) / s if s > 0 else 0.0 for s, e in zip(start, end)]
    per_spin = ", ".join(f"{lab} {lo:.1%}" for lab, lo in zip(_SPIN_LABELS, losses))

    t_ms = series.times / MS
    layers = [Series(x=t_ms, y=series.counts[:, m],
                     color=_BAND_COLORS[m], label=_SPIN_LABELS[m])
              for m in range(3)]
    layers.append(Series(x=t_ms, y=series.molecules_cumulative,
                         color=_COLOR_WITH, label="molecules", dashed=True))
    return [
        ("mixture_timeseries.csv", "csv", lambda path: write_mixture_csv(path, series)),
        ("mixture_summary.json", "json", _json({
            "counts_initial": list(start), "counts_final": list(end),
            "fractional_loss": losses,
            "molecules_total": float(series.molecules_cumulative[-1]),
            "events_00": float(series.events_00[-1]),
            "events_pm": float(series.events_pm[-1]),
            "k00_cm3_s": k00, "t_pa_s": t_pa, "cross_weight": cross_weight,
        })),
        ("mixture_timeseries.svg", "svg", _svg(
            "Spin-mixture PA losses", "t (ms)", "atoms / molecules", series=layers)),
    ], (f"mixture losses after {t_pa / MS:g} ms: {per_spin}; "
        f"molecules = {series.molecules_cumulative[-1]:.1f}")


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # name the verb's flags, not the root usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        config = RunConfig.from_environment(args.config)
        formats = config.formats(args.formats)
        out_dir = config.out_dir(args.out_dir or None)  # an empty --out-dir is not given
        outputs, summary = args.func(args, config)
        os.makedirs(out_dir, exist_ok=True)
        for name, fmt, write in outputs:
            if fmt is None or fmt in formats:
                write(os.path.join(out_dir, name))
    except (FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # LinAlgError is a ValueError, so the numeric failures are tested first;
        # bad data or config exits 2; any other ValueError is a bad flag value
        if isinstance(exc, (FloatingPointError, np.linalg.LinAlgError)):
            return EXIT_NUMERIC
        data = isinstance(exc, (ConfigError, SpectrumFormatError, OSError))
        return EXIT_DATA if data else EXIT_USAGE
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
