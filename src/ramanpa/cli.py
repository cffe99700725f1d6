"""Command-line front end.

Verbs: bands, coeffs, ratio-sweep, fit, simulate, mixture-sim. Every command
reads an optional config file (--config or the RAMANPA_CONFIG variable),
writes CSV/JSON/SVG artifacts into --out-dir, and is deterministic for a given
config and seed. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

import numpy as np

from .config import ENV_CONFIG, ConfigError, RunConfig
from .dressed_states import (
    DRESSING_LIMIT_ER,
    band_curve,
    coefficients_vs_delta,
    find_band_minimum,
    write_band_csv,
)
from .interference import (
    rate_ratio,
    rate_ratio_no_interference,
    write_ratio_sweep_csv,
)
from .pa_kinetics import (
    _MAX_SHELLS,
    LorentzianLine,
    lorentzian_eta,
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
from .uncertainty import _MAX_SAMPLES, UncertaintySpec, _band, write_ratio_band_csv
from .constants import MS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_COLOR_WITH = "#e07b2a"     # with-interference curves
_COLOR_WITHOUT = "#3a6fb0"  # without-interference curves
_BAND_COLORS = ("#555555", "#888888", "#bbbbbb")
_SPIN_LABELS = ("m_f=-1", "m_f=0", "m_f=+1")
_MAX_BAND_POINTS = 100_000  # bands --n-points cap: band_curve holds n x 3 x 3 arrays
_MAX_SWEEP_POINTS = 100_000  # ratio-sweep --points cap, checked before linspace
_MAX_BAND_Q = math.sqrt(DRESSING_LIMIT_ER)  # bands --q-min/--q-max bound: q^2 <= 1e6 E_r


class _UsageError(ValueError):
    """Bad flag values; maps to exit code 1."""


@contextlib.contextmanager
def _flag_values():
    """Turn a ValueError from flag values into _UsageError; a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


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
    common.add_argument("--seed", type=int, help="random seed override")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", parents=[common],
                       help="dressed band structure over a q grid")
    p.add_argument("--omega", type=float,
                   help=f"Raman coupling in E_r, 0 to {DRESSING_LIMIT_ER:g}")
    p.add_argument("--delta", type=float,
                   help=f"detuning in E_r, |delta| <= {DRESSING_LIMIT_ER:g}")
    p.add_argument("--q-min", type=float, default=-3.0,
                   help=f"grid start in k_r, |q| <= {_MAX_BAND_Q:g} (default -3)")
    p.add_argument("--q-max", type=float, default=3.0,
                   help=f"grid end in k_r, |q| <= {_MAX_BAND_Q:g} (default 3)")
    p.add_argument("--n-points", type=int, default=601,
                   help=f"q grid points, 2 to {_MAX_BAND_POINTS} (default 601)")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("coeffs", parents=[common],
                       help="band-minimum superposition coefficients")
    p.add_argument("--omega", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta-list", help="comma list of detunings in E_r")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("ratio-sweep", parents=[common],
                       help="PA rate-ratio bands over omega or delta")
    p.add_argument("--axis", choices=("omega", "delta"), default="omega")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int,
                   help=f"sweep points, 1 to {_MAX_SWEEP_POINTS} (default 25 omega, 21 delta)")
    p.add_argument("--omega", type=float, help="nominal coupling for the delta axis")
    p.add_argument("--delta", type=float, help="nominal detuning for the omega axis")
    p.add_argument("--samples", type=int,
                   help=f"Monte Carlo samples per point, 100 to {_MAX_SAMPLES}")
    p.add_argument("--no-interference", action="store_true",
                   help="emit only the no-interference variant band")
    p.set_defaults(func=cmd_ratio_sweep)

    p = sub.add_parser("fit", parents=[common], help="fit a spectrum CSV")
    p.add_argument("spectrum", help="input spectrum CSV path")
    p.add_argument("--rho0", type=float, help="peak density override, cm^-3")
    p.add_argument("--t-pa", type=float, help="pulse duration override, ms")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", parents=[common],
                       help="synthesize spectra or mixture losses")
    p.add_argument("--mode", choices=("superposition", "mixture"),
                   default="superposition")
    p.add_argument("--omega", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--noise", type=float, default=0.0, help="relative noise sigma, 0 to 1 (default 0)")
    p.add_argument("--no-interference", action="store_true",
                   help="scale by the no-interference ratio instead")
    p.set_defaults(func=cmd_simulate)

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
    p.set_defaults(func=cmd_mixture_sim)

    return parser


def _prepare(args, config: RunConfig):
    out_dir = args.out_dir or config.get("output.dir")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, args.formats


def _path(out_dir, name):
    return os.path.join(out_dir, name)


def _dump_json(path, payload):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# commands -------------------------------------------------------------------

def cmd_bands(args, config: RunConfig) -> int:
    with _flag_values():
        params = config.raman_params(args.omega, args.delta)
        if not (2 <= args.n_points <= _MAX_BAND_POINTS
                and -_MAX_BAND_Q <= args.q_min < args.q_max <= _MAX_BAND_Q):
            raise ValueError(f"need q_min < q_max within +-{_MAX_BAND_Q:g} k_r and "
                             f"2 <= n_points <= {_MAX_BAND_POINTS}")
    out_dir, formats = _prepare(args, config)

    curve = band_curve(params, args.q_min, args.q_max, args.n_points)
    state = find_band_minimum(params)

    if "csv" in formats:
        write_band_csv(_path(out_dir, "bands.csv"), curve)
    if "json" in formats:
        _dump_json(_path(out_dir, "bands.json"), {
            "omega_r_Er": params.omega_r, "delta_Er": params.delta,
            "epsilon_q_Er": params.epsilon_q,
            "q_star_kr": state.q, "energy_Er": state.energy,
            "coeffs": list(state.coeffs), "weights": list(state.weights),
        })
    if "svg" in formats:
        series = [Series(x=curve.q_grid, y=curve.energies[:, b],
                         color=_BAND_COLORS[b], label=f"band {b + 1}")
                  for b in range(3)]
        marker = Markers(x=np.array([state.q]), y=np.array([state.energy]),
                         color=_COLOR_WITH, label="band minimum", radius=4.0)
        svg = render_plot(
            f"Dressed bands, omega_R={params.omega_r:g} E_r, delta={params.delta:g} E_r",
            "q (k_r)", "E (E_r)", series=series, markers=[marker])
        write_svg(_path(out_dir, "bands.svg"), svg)

    print(f"band minimum: q* = {state.q:.6g} k_r, E = {state.energy:.6g} E_r, "
          f"coeffs = ({state.coeffs[0]:.4f}, {state.coeffs[1]:.4f}, {state.coeffs[2]:.4f})")
    return EXIT_OK


def cmd_coeffs(args, config: RunConfig) -> int:
    with _flag_values():
        params = config.raman_params(args.omega, args.delta)
        if args.delta_list:
            deltas = [float(v) for v in args.delta_list.split(",")]
            if not all(abs(d) <= DRESSING_LIMIT_ER for d in deltas):
                raise ValueError(f"--delta-list entries must be finite and within "
                                 f"+-{DRESSING_LIMIT_ER:g} E_r")
        else:
            deltas = [params.delta]
    out_dir, formats = _prepare(args, config)

    states = coefficients_vs_delta(params, deltas)
    ratios = [rate_ratio(s.coeffs) for s in states]
    ratios_ni = [rate_ratio_no_interference(s.coeffs) for s in states]

    if "csv" in formats:
        rows = [(d, s.q, s.energy, *s.coeffs, r, rn)
                for d, s, r, rn in zip(deltas, states, ratios, ratios_ni)]
        write_csv(_path(out_dir, "coeffs.csv"),
                  ("delta_Er", "q_star_kr", "energy_Er", "C_m-1", "C_m0", "C_m+1",
                   "ratio", "ratio_no_interference"), list(zip(*rows)))
    if "json" in formats:
        _dump_json(_path(out_dir, "coeffs.json"), [
            {"delta_Er": d, "q_star_kr": s.q, "energy_Er": s.energy,
             "coeffs": list(s.coeffs), "weights": list(s.weights),
             "ratio": r, "ratio_no_interference": rn}
            for d, s, r, rn in zip(deltas, states, ratios, ratios_ni)])
    if "svg" in formats:
        dv = np.array(deltas)
        weights = np.array([s.weights for s in states])
        # a curve needs two detunings; a single one is drawn as markers
        layer, key = (Series, "series") if len(deltas) > 1 else (Markers, "markers")
        layers = [layer(x=dv, y=weights[:, m], color=_BAND_COLORS[m],
                        label=_SPIN_LABELS[m]) for m in range(3)]
        svg = render_plot(f"Band-minimum spin weights, omega_R={params.omega_r:g} E_r",
                          "delta (E_r)", "|C|^2", y_range=(0.0, 1.05), **{key: layers})
        write_svg(_path(out_dir, "coeffs.svg"), svg)

    for d, s, r in zip(deltas, states, ratios):
        print(f"delta = {d:+.3g} E_r: q* = {s.q:+.4f} k_r, "
              f"coeffs = ({s.coeffs[0]:+.4f}, {s.coeffs[1]:+.4f}, {s.coeffs[2]:+.4f}), "
              f"ratio = {r:.4f}")
    return EXIT_OK


def cmd_ratio_sweep(args, config: RunConfig) -> int:
    with _flag_values():
        if args.axis == "omega":
            start = 0.0 if args.start is None else args.start
            stop = 12.0 if args.stop is None else args.stop
            points = 25 if args.points is None else args.points
        else:
            start = -2.5 if args.start is None else args.start
            stop = 2.5 if args.stop is None else args.stop
            points = 21 if args.points is None else args.points
        if not (1 <= points <= _MAX_SWEEP_POINTS and -math.inf < start <= stop < math.inf):
            raise ValueError(f"need finite start <= stop and 1 <= points <= "
                             f"{_MAX_SWEEP_POINTS}")
        nominal = config.raman_params(args.omega, args.delta)
        mc_spec = config.uncertainty_spec(seed=args.seed, n_samples=args.samples)
    epsilon_q = nominal.epsilon_q

    axis = np.linspace(start, stop, points)
    zero_spec = UncertaintySpec(omega_rel_sigma=0.0, delta_sigma=0.0,
                                epsilon_q_sigma=0.0, n_samples=100,
                                seed=mc_spec.seed)
    if args.axis == "omega":
        omega_col, delta_col = axis, np.full(points, nominal.delta)
        x_label = "omega_R (E_r)"
    else:
        omega_col, delta_col = np.full(points, nominal.omega_r), axis
        x_label = "delta (E_r)"
    with _flag_values():
        mc_with, mc_without = _band(axis, omega_col, delta_col, mc_spec, epsilon_q)
        nominal_with, nominal_without = _band(axis, omega_col, delta_col, zero_spec,
                                              epsilon_q)
    bands = [mc_without] if args.no_interference else [mc_with, mc_without]
    out_dir, formats = _prepare(args, config)

    if "csv" in formats:
        write_ratio_band_csv(_path(out_dir, "ratio_band.csv"), bands)
        write_ratio_sweep_csv(_path(out_dir, "ratio_nominal.csv"),
                              omega_col, delta_col,
                              nominal_with.mean, nominal_without.mean)
    if "json" in formats:
        _dump_json(_path(out_dir, "ratio_sweep.json"), {
            "axis": args.axis, "values": axis.tolist(),
            "bands": [{"variant": b.variant, "mean": b.mean.tolist(),
                       "lower": b.lower.tolist(), "upper": b.upper.tolist()}
                      for b in bands],
            "nominal_ratio": nominal_with.mean.tolist(),
            "nominal_ratio_no_interference": nominal_without.mean.tolist(),
            "n_samples": mc_spec.n_samples, "seed": mc_spec.seed,
        })
    if "svg" in formats:
        areas = [BandArea(x=b.sweep_axis, lower=b.lower, upper=b.upper,
                          color=_COLOR_WITH if b.variant.startswith("with-")
                          else _COLOR_WITHOUT,
                          label=b.variant)
                 for b in bands]
        lines = [Series(x=axis, y=nominal_without.mean, color=_COLOR_WITHOUT,
                        label="nominal, no cross term", dashed=True),
                 Series(x=axis, y=nominal_with.mean, color=_COLOR_WITH,
                        label="nominal")]
        svg = render_plot("Normalized PA rate", x_label, "k_sup / k_00",
                          series=lines, bands=areas, y_range=(0.0, 1.05))
        write_svg(_path(out_dir, "ratio_sweep.svg"), svg)

    print(f"ratio sweep over {args.axis}: {points} points, "
          f"{mc_spec.n_samples} samples/point, seed {mc_spec.seed}")
    return EXIT_OK


def cmd_fit(args, config: RunConfig) -> int:
    data = read_spectrum_csv(args.spectrum)
    with _flag_values():
        data.pulse = config.pulse_params(n0=max(float(np.max(data.atoms_total)), 1.0),
                                         t_pa_ms=args.t_pa, rho0=args.rho0)
    out_dir, formats = _prepare(args, config)

    try:
        fit = fit_spectrum(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: fit failed numerically: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    record = {
        "n0": fit.n0, "eta_res": fit.eta_res, "nu0_khz": fit.nu0,
        "gamma_khz": fit.gamma, "k_pa_cm3_s": fit.k_pa,
        "residual_rms": fit.residual_rms, "converged": fit.converged,
    }
    with open(_path(out_dir, "fit_result.txt"), "w", encoding="ascii",
              newline="\n") as fh:
        for key, value in record.items():
            fh.write(f"{key} = {value}\n")
    if "json" in formats:
        payload = dict(record)
        payload["covariance"] = fit.covariance.tolist()
        _dump_json(_path(out_dir, "fit_result.json"), payload)

    if fit.converged and fit.n0 > 0:
        normalized = normalize_spectrum(data, fit)
        if "csv" in formats:
            write_spectrum_csv(_path(out_dir, "spectrum_normalized.csv"), normalized)
    else:
        print("warning: fit did not converge; best-effort parameters written",
              file=sys.stderr)

    if "svg" in formats:
        dense = np.linspace(data.detunings_khz[0], data.detunings_khz[-1], 400)
        if 0 < fit.eta_res < math.inf and 0 < fit.gamma < math.inf and math.isfinite(fit.nu0):
            line = LorentzianLine(eta_res=fit.eta_res, nu0=fit.nu0, gamma=fit.gamma)
            model = fit.n0 * remaining_fraction(lorentzian_eta(dense, line))
        else:
            model = np.full(dense.size, fit.n0)
        layers = [Series(x=dense, y=model, color=_COLOR_WITH, label="fit")]
        points = [Markers(x=data.detunings_khz, y=data.atoms_total,
                          color="#222222", label="data", yerr=data.stderr)]
        svg = render_plot("PA spectrum fit", "detuning (kHz)", "atoms",
                          series=layers, markers=points)
        write_svg(_path(out_dir, "fit.svg"), svg)

    loss = 1.0 - remaining_fraction(fit.eta_res)
    print(f"fit: n0 = {fit.n0:.6g}, eta_res = {fit.eta_res:.6g}, "
          f"nu0 = {fit.nu0:.6g} kHz, gamma = {fit.gamma:.6g} kHz, "
          f"k_pa = {fit.k_pa:.6g} cm^3/s, resonant loss = {loss:.2%}, "
          f"converged = {fit.converged}")
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    with _flag_values():
        params = config.raman_params(args.omega, args.delta)
        # (1 + sigma g) noise past sigma = 1 clips most points to 0, and huge
        # sigmas overflow
        if not 0 <= args.noise <= 1:
            raise ValueError("--noise must be between 0 and 1")

    if args.mode == "mixture":
        return _run_mixture(args, config, config.mixture_args())

    state = find_band_minimum(params)
    ratio = (rate_ratio_no_interference(state.coeffs) if args.no_interference
             else rate_ratio(state.coeffs))
    # a bad configured value exits 2, a bad --seed 1, before any output exists
    with _flag_values():
        pulse = config.pulse_params()
        eta00 = config.eta00(pulse)
        line = config.lorentzian(eta_res=ratio * eta00)
        seed = config.seed(args.seed)
    k00 = config.get("kinetics.k00_cm3_s")
    out_dir, formats = _prepare(args, config)
    detunings = np.linspace(line.nu0 - 3.0 * line.gamma, line.nu0 + 3.0 * line.gamma, 31)
    spectrum = synthesize_spectrum(
        line, pulse, detunings, args.noise, seed,
        component_weights=state.weights, include_stderr=args.noise > 0)

    if "csv" in formats:
        write_spectrum_csv(_path(out_dir, "spectrum_superposition.csv"), spectrum)
    if "json" in formats:
        _dump_json(_path(out_dir, "simulate_superposition.json"), {
            "omega_r_Er": params.omega_r, "delta_Er": params.delta,
            "q_star_kr": state.q, "coeffs": list(state.coeffs),
            "rate_ratio": ratio, "eta00_res": eta00,
            "eta_res": ratio * eta00, "k00_cm3_s": k00,
            "k_scaled_cm3_s": ratio * k00, "noise_rel": args.noise,
            "seed": seed, "variant": "without-interference"
            if args.no_interference else "with-interference",
        })
    if "svg" in formats:
        points = [Markers(x=spectrum.detunings_khz, y=spectrum.atoms_total,
                          color="#222222", label="total", yerr=spectrum.stderr)]
        svg = render_plot("Synthetic superposition-state spectrum",
                          "detuning (kHz)", "atoms", markers=points)
        write_svg(_path(out_dir, "spectrum_superposition.svg"), svg)

    print(f"superposition spectrum: ratio = {ratio:.4f}, eta_res = {ratio * eta00:.4f}, "
          f"resonant loss = {1.0 - remaining_fraction(ratio * eta00):.2%}")
    return EXIT_OK


def cmd_mixture_sim(args, config: RunConfig) -> int:
    with _flag_values():
        mixture = config.mixture_args(
            counts=args.counts, k00=args.k00, t_pa_ms=args.t_pa, dt_ms=args.dt,
            cross_weight=args.cross_weight, n_shells=args.n_shells)
    return _run_mixture(args, config, mixture)


def _run_mixture(args, config: RunConfig, mixture: dict) -> int:
    """Solve the mixture kinetics for checked simulate_mixture arguments, then write outputs."""
    series = simulate_mixture(**mixture)
    k00, t_pa, cross_weight = mixture["k00"], mixture["pulse"].t_pa, mixture["cross_weight"]
    out_dir, formats = _prepare(args, config)
    start = series.counts[0]
    end = series.counts[-1]
    losses = [(s - e) / s if s > 0 else 0.0 for s, e in zip(start, end)]

    if "csv" in formats:
        write_mixture_csv(_path(out_dir, "mixture_timeseries.csv"), series)
    if "json" in formats:
        _dump_json(_path(out_dir, "mixture_summary.json"), {
            "counts_initial": list(start), "counts_final": list(end),
            "fractional_loss": losses,
            "molecules_total": float(series.molecules_cumulative[-1]),
            "events_00": float(series.events_00[-1]),
            "events_pm": float(series.events_pm[-1]),
            "k00_cm3_s": k00, "t_pa_s": t_pa, "cross_weight": cross_weight,
            "clamped": series.clamped,
        })
    if "svg" in formats:
        layers = [Series(x=series.times / MS, y=series.counts[:, m],
                         color=_BAND_COLORS[m], label=_SPIN_LABELS[m])
                  for m in range(3)]
        layers.append(Series(x=series.times / MS, y=series.molecules_cumulative,
                             color=_COLOR_WITH, label="molecules", dashed=True))
        svg = render_plot("Spin-mixture PA losses", "t (ms)", "atoms / molecules",
                          series=layers)
        write_svg(_path(out_dir, "mixture_timeseries.svg"), svg)

    summary = ", ".join(f"{lab} {lo:.1%}" for lab, lo in zip(_SPIN_LABELS, losses))
    print(f"mixture losses after {t_pa / MS:g} ms: {summary}; "
          f"molecules = {series.molecules_cumulative[-1]:.1f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_environment(args.config)
        with _flag_values():
            args.formats = config.formats(args.formats)
        return args.func(args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, SpectrumFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
