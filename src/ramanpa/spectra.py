"""PA loss spectra: forward synthesis, CSV exchange, and line fitting.

A spectrum is the remaining atom number versus PA detuning. The forward model
is n0 * remaining_fraction(lorentzian_eta(detuning)); the fitter inverts it
for (n0, eta_res, nu0, gamma) by derivative-free simplex search with restarts
and reports the Gauss-Newton covariance from the residual Jacobian. The
simplex search is in-house numpy: a transcription of scipy's Nelder-Mead
that reproduces its iterates bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .pa_kinetics import (
    LorentzianLine,
    PulseParams,
    _remaining_fraction,
    invert_remaining_fraction,
    lorentzian_eta,
    rate_from_eta,
    remaining_fraction,
)
from .tables import write_csv

__all__ = [
    "Spectrum",
    "FitResult",
    "SpectrumFormatError",
    "synthesize_spectrum",
    "fit_spectrum",
    "extract_kpa",
    "normalize_spectrum",
    "component_spectrum",
    "read_spectrum_csv",
    "write_spectrum_csv",
]

_COMPONENT_COLS = ("atoms_m_minus1", "atoms_m0", "atoms_m_plus1")
_RESTART_SEED = 20210907  # fixed internal stream keeps fits deterministic


class SpectrumFormatError(ValueError):
    """Raised for malformed spectrum CSV input; carries the offending line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


def _first_bad_row(det, total, components, stderr):
    """(row, reason) for the first row that breaks a rule below, else None;
    a row's rules are checked in the order listed."""
    table = np.column_stack([c for c in (det, total, components, stderr) if c is not None])
    counts = table[:, 1:5] if stderr is None else table[:, 1:-1]
    rules = (
        (~np.isfinite(table).all(axis=1), "non-finite value"),
        (~(det > np.r_[-np.inf, det[:-1]]), "detunings not strictly increasing"),
        ((counts < 0).any(axis=1), "negative atom count"),
        # sums over the counts, and the plotted axes, stay finite
        ((table[:, 1:] > 1e300).any(axis=1), "counts and stderr must be at most 1e300"),
        ((stderr is not None) & (table[:, -1] <= 0), "stderr must be > 0"),
    )
    hits = np.argwhere(np.column_stack([broken for broken, _ in rules]))
    return (int(hits[0, 0]), rules[hits[0, 1]][1]) if len(hits) else None


@dataclass
class Spectrum:
    """Measured or synthetic PA spectrum.

    atoms_components, when present, has one column per m_f = -1, 0, +1;
    stderr entries are per-point standard errors of atoms_total. ValueError
    names the first row (0-based) with a non-finite value, a detuning not above
    the previous, a negative count, a count or stderr past 1e300, or stderr <= 0.
    """

    detunings_khz: np.ndarray
    atoms_total: np.ndarray
    atoms_components: np.ndarray | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        self.detunings_khz = np.asarray(self.detunings_khz, dtype=float)
        self.atoms_total = np.asarray(self.atoms_total, dtype=float)
        n = len(self.detunings_khz)
        if self.atoms_total.shape != (n,):
            raise ValueError("atoms_total length must match detunings")
        if self.atoms_components is not None:
            self.atoms_components = np.asarray(self.atoms_components, dtype=float)
            if self.atoms_components.shape != (n, 3):
                raise ValueError("atoms_components must have shape (n, 3)")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
            if self.stderr.shape != (n,):
                raise ValueError("stderr length must match detunings")
        columns = (self.detunings_khz, self.atoms_total, self.atoms_components, self.stderr)
        if bad := _first_bad_row(*columns):
            raise ValueError("row %d: %s" % bad)

    def __len__(self) -> int:
        return len(self.detunings_khz)


@dataclass
class FitResult:
    """Fitted line parameters.

    covariance is the 4x4 Gauss-Newton estimate s^2 (J^T J)^+ over
    (n0, eta_res, nu0, gamma), so its diagonal is never negative;
    residual_rms is the RMS of (y - model) / model, a fraction, not a count;
    converged is False when the simplex search failed or the fitted gamma is
    narrower than the smallest detuning spacing (a line that captured a
    single point) or wider than the detuning span (its half-maximum points
    lie off the grid); objective_trace is [objective at the winning start,
    objective at the optimum] (empty for a flat spectrum).
    """

    n0: float
    eta_res: float
    nu0: float
    gamma: float
    residual_rms: float
    converged: bool
    covariance: np.ndarray
    objective_trace: list = field(default_factory=list)


def synthesize_spectrum(line: LorentzianLine, pulse: PulseParams, detunings,
                        noise_rel: float, seed: int, *,
                        component_weights=None, include_stderr: bool = False) -> Spectrum:
    """Forward-model a spectrum with multiplicative Gaussian noise.

    atoms(detuning) = n0 * remaining_fraction(lorentzian_eta(detuning, line)),
    each point scaled by (1 + noise_rel * g) with unit Gaussians g drawn from
    a generator seeded by `seed`. With component_weights (w_-1, w_0, w_+1),
    per-component columns are synthesized with independent noise and the total
    is their sum; every spin component then shares one fractional loss curve.
    Raises ValueError unless 0 <= noise_rel <= 1.
    """
    # past sigma = 1, (1 + sigma g) clips most points to 0; huge sigmas overflow
    if not 0 <= noise_rel <= 1:
        raise ValueError("--noise must be between 0 and 1")
    det = np.asarray(detunings, dtype=float)
    if det.size == 0:
        raise ValueError("detuning list must be non-empty")
    rng = np.random.default_rng(seed)
    clean = pulse.n0 * remaining_fraction(lorentzian_eta(det, line))
    if component_weights is None:
        total = clean * (1.0 + noise_rel * rng.standard_normal(det.size))
        total = np.maximum(total, 0.0)
        components = None
    else:
        w = np.asarray(component_weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("component_weights must be three fractions summing to 1")
        comp_clean = clean[:, None] * w[None, :]
        noise = noise_rel * rng.standard_normal((det.size, 3))
        components = np.maximum(comp_clean * (1.0 + noise), 0.0)
        total = components.sum(axis=1)
    stderr = None
    if include_stderr and noise_rel > 0:
        stderr = noise_rel * clean
    return Spectrum(detunings_khz=det, atoms_total=total,
                    atoms_components=components, stderr=stderr)


def component_spectrum(data: Spectrum, m_f: int) -> Spectrum:
    """Total-only sub-spectrum of one m_f component (-1, 0, or +1)."""
    if data.atoms_components is None:
        raise ValueError("spectrum carries no per-component columns")
    if m_f not in (-1, 0, 1):
        raise ValueError("m_f must be -1, 0, or +1")
    return Spectrum(detunings_khz=data.detunings_khz.copy(),
                    atoms_total=data.atoms_components[:, m_f + 1].copy())


def _forward(det, theta):
    """Model in internal coordinates (n0, log eta_res, nu0, log gamma)."""
    n0, log_eta, nu0, log_gamma = values = theta.tolist()
    if not all(map(math.isfinite, values)) or abs(log_eta) > 60 or abs(log_gamma) > 60:
        return None
    # inlined Lorentzian; the optimizer calls this thousands of times per fit.
    # The kernel's input check holds by construction: theta is finite, so
    # e^log_eta <= e^60 and half is in [e^-60, e^60] / 2; d = det - nu0 may
    # overflow to +-inf but is never nan, so d^2 + half^2 >= half^2 > 0. eta
    # is thus finite and in [0, e^60] up to rounding, the Lorentzian factor
    # half^2 / (d^2 + half^2) being at most 1.
    half = 0.5 * math.exp(log_gamma)
    d = det - nu0
    eta = math.exp(log_eta) * half * half / (d * d + half * half)
    return n0 * _remaining_fraction(eta)


_Simplex = namedtuple("_Simplex", "x fun nit nfev success")
_XATOL, _FATOL, _MAXITER, _MAXFEV = 1e-7, 1e-9, 2000, 4000


class _EvalCap(Exception):
    """The simplex search spent its evaluation budget mid-iteration."""


def _simplex(func, x0):
    """Nelder-Mead minimum of func from x0 (Nelder & Mead 1965; Lagarias et al. 1998).

    Transcribes scipy 1.17's _minimize_neldermead for the options fit_spectrum
    used with it (coefficients rho 1, chi 2, psi 0.5, sigma 0.5; xatol 1e-7,
    fatol 1e-9, maxiter 2000, maxfev 4000; no bounds), so x, fun, nit, nfev
    and success equal scipy.optimize.minimize's bit for bit. func receives
    the simplex's own rows and must not modify them.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= _MAXFEV:
            raise _EvalCap
        nfev += 1
        return func(x)

    n = len(x0)
    sim = np.array([x0] * (n + 1), dtype=float)
    for k in range(n):  # 5 % steps, 0.00025 from a zero coordinate
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice before the first iteration
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
    nit = 1
    while nfev < _MAXFEV and nit < _MAXITER:
        try:
            if (abs(sim[1:] - sim[0]).max() <= _XATOL
                    and abs(fsim[0] - fsim[1:]).max() <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:  # expand
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside, else inside; shrink if neither improves
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _EvalCap:
            pass
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
    return _Simplex(sim[0], fsim.min(), nit, nfev,
                    not (nfev >= _MAXFEV or nit >= _MAXITER))


def fit_spectrum(data: Spectrum) -> FitResult:
    """Least-squares fit of the loss lineshape.

    Weighted residuals (inverse variance when stderr is present, uniform
    otherwise) are minimized over (n0, eta_res, nu0, gamma); eta_res and gamma
    are searched in log space to stay positive. Simplex search runs from the
    data-driven initial guess plus 5 perturbed restarts; the best run wins.
    The search is _simplex, an in-house numpy Nelder-Mead whose every iterate
    equals scipy.optimize.minimize(method="Nelder-Mead")'s at the same options.
    A perfectly flat spectrum short-circuits to eta_res = 0. ValueError below 5
    points, or for a half-span past e^60 kHz, where log gamma starts outside _forward's box.
    """
    n = len(data)
    if n < 5:
        raise ValueError("need at least 5 points to fit")
    x = data.detunings_khz
    y = data.atoms_total
    span = float(x[-1]) - float(x[0])  # Python floats overflow to inf silently
    if not 0.5 * span <= math.exp(60):
        raise ValueError("half the detuning span must be at most e^60 (about 1.1e26) kHz")

    if np.ptp(y) == 0.0:
        # no structure to fit; pin the line to zero strength
        return FitResult(n0=float(y[0]), eta_res=0.0,
                         nu0=float(0.5 * (x[0] + x[-1])), gamma=0.5 * span,
                         residual_rms=0.0, converged=True, covariance=np.zeros((4, 4)))

    # uniform weights are normalized by the count scale so the objective is
    # O(1) and the simplex stopping tolerances are meaningful
    sqrt_w = (np.full(n, 1.0 / float(np.mean(y))) if data.stderr is None
              else 1.0 / data.stderr)

    n0_ref = float(np.max(y))
    x_scale = 0.5 * span

    # search coords are all O(1): (n0/n0_ref, log eta, nu0/x_scale, log gamma)
    internal_scale = np.array([n0_ref, 1.0, x_scale, 1.0])

    def to_internal(theta_s):
        return theta_s * internal_scale

    def objective(theta_s):
        model = _forward(x, to_internal(theta_s))
        if model is None:
            return np.inf
        r = (y - model) * sqrt_w
        return float(r @ r)

    nu0_init = float(x[np.argmin(y)])
    frac = min(max(float(np.min(y)) / n0_ref, 1e-9), 1.0)
    eta_init = max(invert_remaining_fraction(frac), 1e-8)
    theta0 = np.array([1.0, math.log(eta_init), nu0_init / x_scale,
                       math.log(max(0.5 * span, 1e-6))])

    rng = np.random.default_rng(_RESTART_SEED)
    starts = [theta0]
    for _ in range(5):
        starts.append(theta0 + np.array([0.05, 0.3, 0.2, 0.3])
                      * rng.standard_normal(4))

    best = best_start = None
    for start in starts:
        res = _simplex(objective, start)
        if best is None or res.fun < best.fun:
            best, best_start = res, start

    theta = to_internal(best.x)
    n0 = float(theta[0])
    eta_res = math.exp(theta[1])
    nu0 = float(theta[2])
    gamma = math.exp(theta[3])
    # a line narrower than every detuning spacing has captured a single point;
    # one wider than the span has its half-maximum points off the grid
    converged = (bool(best.success) and math.isfinite(best.fun)
                 and float(np.min(np.diff(x))) <= gamma <= span)

    model = _forward(x, theta)
    safe = np.where(np.abs(model) > 0, model, 1.0)
    residual_rms = float(np.sqrt(np.mean(((y - model) / safe) ** 2)))

    # Gauss-Newton covariance s^2 (J^T J)^+ = s^2 J^+ (J^+)^T, with J the
    # Jacobian of the weighted residuals in the O(1) search coordinates by
    # central differences. The step is absolute: a relative step collapses
    # whenever a coordinate sits near zero (log eta crosses 0 at unit pulse
    # strength). The diagonal scale/log Jacobian maps it to
    # (n0, eta_res, nu0, gamma); counts so large that the n0 variance
    # overflows raise FloatingPointError.
    step = 1e-6
    with np.errstate(over="ignore", invalid="ignore"):
        jac = np.empty((n, 4))
        for i, e in enumerate(step * np.eye(4)):
            hi = _forward(x, to_internal(best.x + e))
            lo = _forward(x, to_internal(best.x - e))
            if hi is None or lo is None:
                raise FloatingPointError("fit covariance is not finite")
            jac[:, i] = (hi - lo) * sqrt_w / (2.0 * step)
        s2 = 1.0 if data.stderr is not None else float(best.fun) / max(n - 4, 1)
        p = np.array([n0_ref, eta_res, x_scale, gamma])[:, None] * np.linalg.pinv(jac)
        covariance = s2 * (p @ p.T)
    if not np.all(np.isfinite(covariance)):
        raise FloatingPointError("fit covariance is not finite")

    return FitResult(n0=n0, eta_res=eta_res, nu0=nu0, gamma=gamma,
                     residual_rms=residual_rms, converged=converged, covariance=covariance,
                     objective_trace=[objective(best_start), float(best.fun)])


def extract_kpa(fit: FitResult, pulse: PulseParams) -> float:
    """PA rate constant k_pa = eta_res / (rho0 * t_pa), in cm^3/s."""
    if not fit.converged:
        raise ValueError("fit did not converge; k_pa undefined")
    return rate_from_eta(fit.eta_res, pulse)


def normalize_spectrum(data: Spectrum, fit: FitResult) -> Spectrum:
    """Spectrum with all counts and errors divided by the fitted n0."""
    if not fit.converged:
        raise ValueError("fit did not converge")
    if fit.n0 <= 0:
        raise ValueError("fitted n0 must be > 0")
    scale = 1.0 / fit.n0
    return Spectrum(
        detunings_khz=data.detunings_khz.copy(),
        atoms_total=data.atoms_total * scale,
        atoms_components=None if data.atoms_components is None
        else data.atoms_components * scale,
        stderr=None if data.stderr is None else data.stderr * scale,
    )


def write_spectrum_csv(path, data: Spectrum) -> None:
    """Write a spectrum as CSV; component and stderr columns only if present."""
    header = ["detuning_khz", "atoms_total"]
    columns = [data.detunings_khz, data.atoms_total]
    if data.atoms_components is not None:
        header += _COMPONENT_COLS
        columns += list(data.atoms_components.T)
    if data.stderr is not None:
        header.append("stderr")
        columns.append(data.stderr)
    write_csv(path, header, columns)


def read_spectrum_csv(path) -> Spectrum:
    """Parse an ASCII spectrum CSV whose values pass Spectrum's rules.

    Faults raise SpectrumFormatError naming the offending line (1-based, header
    included); a parse fault on any line is named before a value fault.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        k = len(re.findall(rb"\r\n?|\n", data[:exc.start])) + 1
        raise SpectrumFormatError(f"line {k}: non-ASCII byte", line_no=k) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise SpectrumFormatError(f"line {reader.line_num}: {exc}",
                                  line_no=reader.line_num) from None
    if not rows:
        raise SpectrumFormatError("empty spectrum file", line_no=1)
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["detuning_khz", "atoms_total"]:
        raise SpectrumFormatError(
            "line 1: header must start with detuning_khz,atoms_total", line_no=1)
    has_components = list(header[2:5]) == list(_COMPONENT_COLS)
    rest = header[5:] if has_components else header[2:]
    has_stderr = rest == ["stderr"]
    if not has_stderr and rest:
        raise SpectrumFormatError(
            f"line 1: unrecognized columns {rest}", line_no=1)
    n_cols = 2 + (3 if has_components else 0) + (1 if has_stderr else 0)

    lines, vals = [], []
    for k, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_cols:
            raise SpectrumFormatError(
                f"line {k}: expected {n_cols} fields, got {len(row)}", line_no=k)
        try:
            vals.append([float(v) for v in row])
        except ValueError:
            raise SpectrumFormatError(
                f"line {k}: non-numeric field in {row!r}", line_no=k) from None
        lines.append(k)
    if not lines:
        raise SpectrumFormatError("no data rows", line_no=len(rows))
    table = np.array(vals, order="F")  # contiguous columns
    columns = (table[:, 0], table[:, 1], table[:, 2:5] if has_components else None,
               table[:, -1] if has_stderr else None)
    if bad := _first_bad_row(*columns):
        k = lines[bad[0]]
        raise SpectrumFormatError(f"line {k}: {bad[1]}", line_no=k)
    return Spectrum(*columns)
