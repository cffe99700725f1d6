"""PA loss spectra: forward synthesis, CSV exchange, and line fitting.

A spectrum is the remaining atom number versus PA detuning. The forward model
is n0 * remaining_fraction(lorentzian_eta(detuning)); the fitter inverts it
for (n0, eta_res, nu0, gamma) by derivative-free simplex search with restarts
and reports the Gauss-Newton covariance from the residual Jacobian. The
simplex search is in-house numpy: scipy's Nelder-Mead with the restarts run
in lockstep, one batched model call per round serving every search, each
search reproducing scipy's iterates from its start bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .pa_kinetics import (
    LorentzianLine,
    PulseParams,
    _lorentzian,
    _remaining_fraction,
    invert_remaining_fraction,
    lorentzian_eta,
    remaining_fraction,
)
from .tables import read_text, write_csv

__all__ = [
    "Spectrum",
    "FitResult",
    "SpectrumFormatError",
    "synthesize_spectrum",
    "fit_spectrum",
    "normalize_spectrum",
    "component_spectrum",
    "read_spectrum_csv",
    "write_spectrum_csv",
]

_COMPONENT_COLS = ("atoms_m_minus1", "atoms_m0", "atoms_m_plus1")
_RESTART_SEED = 20210907  # fixed internal stream keeps fits deterministic
_MAX_FIT_POINTS = 100_000  # a fit at the cap: about 138 MiB peak (tracemalloc), 25 s on a 2-core Xeon


class SpectrumFormatError(ValueError):
    """A spectrum file or table that cannot be read or fitted; a reader
    message that names a line starts with `line k:`."""


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


# |coordinate| bounds of the model's box: n0 and nu0 need only be finite
_BOX = np.array([np.finfo(float).max, 60.0, np.finfo(float).max, 60.0])


def _in_box(thetas):
    """Rows of (k, 4) internal coordinates the model is defined on: finite,
    with |log eta_res| and |log gamma| at most 60 (nan and +-inf fail every
    column's bound)."""
    return (np.abs(thetas) <= _BOX).all(axis=1)


def _forward(det, thetas):
    """Model rows (k, n) for (k, 4) internal coordinates (n0, log eta_res,
    nu0, log gamma) that pass _in_box; row i depends on thetas[i] alone, bit
    for bit, so a batch rounds like each row evaluated by itself.

    In the box the kernel's input check holds by construction: e^log_eta <=
    e^60 and half is in [e^-60, e^60] / 2; d = det - nu0 may overflow to +-inf
    but is never nan, so d^2 + half^2 >= half^2 > 0. eta is thus finite and in
    [0, e^60] up to rounding, the Lorentzian factor being at most 1. Only n0
    times the fraction, and d^2, can overflow; callers silence that.
    """
    # contiguous columns keep every row on the same ufunc loops
    n0, log_eta, nu0, log_gamma = np.array(thetas.T)[:, :, None]
    half = np.exp(log_gamma)
    half *= 0.5
    eta = _lorentzian(np.subtract(det, nu0), np.exp(log_eta), half)
    model = _remaining_fraction(eta)
    model *= n0
    return model


_Simplex = namedtuple("_Simplex", "x fun nit nfev success")
_XATOL, _FATOL, _MAXITER, _MAXFEV = 1e-7, 1e-9, 2000, 4000
# trial points a * xbar - b * worst, in scipy's order of use: reflection,
# expansion, outside and inside contraction (rho 1, chi 2, psi 0.5)
_TRIAL_A = np.array([[2.0], [3.0], [1.5], [0.5]])
_TRIAL_B = np.array([[1.0], [2.0], [0.5], [-0.5]])


class _Search:
    """One search of _simplex: a view of its (n+1, n+1) block [sim | fsim]
    of the shared array, scipy's counters, and whether its iteration ends in
    a shrink."""

    __slots__ = ("block", "nit", "nfev", "shrinking")

    def __init__(self, block):
        self.block = block
        self.nit, self.nfev, self.shrinking = 1, len(block), False

    def take(self, pts, values, fsim):
        """Finish the iteration from the values of pts, the trial points or
        the shrunk vertices, using only those scipy's order evaluates and
        counting them as it does: a capped evaluation ends the iteration,
        uncounted in nit. fsim is the block's values as Python floats. True
        when the iteration ended and the simplex is due its sort; False while
        a shrink is pending."""
        block = self.block
        if self.shrinking:
            self.shrinking = False
            for j, fx in enumerate(values, 1):
                block[j, :-1] = pts[j - 1]  # scipy moves the vertex before the cap stops it
                if self.nfev >= _MAXFEV:
                    break
                self.nfev += 1
                block[j, -1] = fx
            else:
                self.nit += 1
            return True
        fxr, fxe, fxc, fxcc = values
        self.nfev += 1  # the round began with nfev < _MAXFEV
        if fxr < fsim[0] or not fxr < fsim[-2]:  # expansion or contraction next
            if self.nfev >= _MAXFEV:
                return True
            self.nfev += 1
        if fxr < fsim[0]:  # expand
            k, fx = (1, fxe) if fxe < fxr else (0, fxr)
        elif fxr < fsim[-2]:  # reflect
            k, fx = 0, fxr
        elif fxr < fsim[-1] and fxc <= fxr:  # contract outside
            k, fx = 2, fxc
        elif not fxr < fsim[-1] and fxcc < fsim[-1]:  # contract inside
            k, fx = 3, fxcc
        else:  # shrink toward the best vertex next round
            self.shrinking = True
            return False
        block[-1, :-1] = pts[k]
        block[-1, -1] = fx
        self.nit += 1
        return True


def _sort_vertices(blocks, rows):
    """Order the given searches' vertices, values alongside, by value with
    np.argsort, as scipy does; ties keep its order, which Python's stable sort
    would not. One argsort and one gather from the flat rows serve them all."""
    rows = np.asarray(rows, dtype=np.intp)
    flat = blocks[rows, :, -1].argsort(axis=1)
    flat += (rows * blocks.shape[1])[:, None]
    blocks[rows] = blocks.reshape(-1, blocks.shape[2])[flat]


def _simplex(batch, starts):
    """Nelder-Mead minima of batch from every start, run in lockstep (Nelder &
    Mead 1965; Lagarias et al. 1998).

    batch maps (k, n) points to their k objective values; a row's value must
    not depend on the other rows, and batch must not modify the points.
    Every round, each live search submits the four trial points of its
    iteration (reflection, expansion, outside and inside contraction, all
    known from the centroid and the worst vertex) or, after a failed
    contraction, its n shrunk vertices, and one batch call serves them all.
    Each search then uses only the values that scipy 1.17's
    _minimize_neldermead evaluates, with the options fit_spectrum used with it
    (coefficients rho 1, chi 2, psi 0.5, sigma 0.5; xatol 1e-7, fatol 1e-9,
    maxiter 2000, maxfev 4000; no bounds), so each result's x, fun, nit, nfev
    and success equal scipy.optimize.minimize's from that start bit for bit.

    The m searches live in one (m, n+1, n+1) array: search i's block holds
    its vertices in columns :n and their values in column n, best first once
    sorted, so one argsort and one gather order a block's vertices with their
    values, and one comparison of |block[1:] - block[0]| against the row
    (xatol, ..., xatol, fatol) is every search's stopping test. Every round
    writes the (m, 4, n) trial points into one preallocated buffer, the
    stopped searches' rows unused.
    """
    x0 = np.array(starts, dtype=float)
    m, n = x0.shape
    blocks = np.empty((m, n + 1, n + 1))
    sims = blocks[:, :, :n]
    sims[:] = x0[:, None]
    for k in range(n):  # 5 % steps, 0.00025 from a zero coordinate
        sims[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    tol = np.array([_XATOL] * n + [_FATOL])
    spread = np.empty((m, n, n + 1))
    within = np.empty(spread.shape, dtype=bool)
    trials, worst = np.empty((2, m, 4, n))
    # speculative points can lie far past any point scipy evaluates
    with np.errstate(over="ignore", invalid="ignore"):
        blocks[:, :, n] = np.asarray(batch(sims.reshape(-1, n)), dtype=float).reshape(m, n + 1)
        searches = [_Search(block) for block in blocks]
        for _ in range(2):  # scipy sorts twice before the first iteration
            _sort_vertices(blocks, np.arange(m))
        live = list(enumerate(searches))
        while True:
            # every search's stopping test and trial points at once; the
            # stopped ones' go unused
            np.subtract(blocks[:, 1:], blocks[:, :1], out=spread)
            np.abs(spread, out=spread)
            converged = np.less_equal(spread, tol, out=within).all(axis=(1, 2)).tolist()
            live = [(i, s) for i, s in live if s.shrinking
                    or (s.nfev < _MAXFEV and s.nit < _MAXITER and not converged[i])]
            if not live:
                break
            xbar = np.add.reduce(sims[:, :-1], 1)
            xbar /= n
            np.multiply(_TRIAL_A, xbar[:, None], out=trials)
            np.multiply(_TRIAL_B, sims[:, -1:], out=worst)
            trials -= worst
            fsims = blocks[:, :, n].tolist()
            shrunk = {i: s.block[0, :-1] + 0.5 * (s.block[1:, :-1] - s.block[0, :-1])
                      for i, s in live if s.shrinking}
            if shrunk:
                submitted = np.concatenate([shrunk.get(i, trials[i]) for i, _ in live])
            elif len(live) == m:  # the usual round: the trial buffer as it stands
                submitted = trials.reshape(-1, n)
            else:
                submitted = trials[[i for i, _ in live]].reshape(-1, n)
            values = batch(submitted).tolist()
            k, ended = 0, []
            for i, s in live:
                pts = shrunk[i] if s.shrinking else trials[i]
                if s.take(pts, values[k:k + len(pts)], fsims[i]):
                    ended.append(i)
                k += len(pts)
            _sort_vertices(blocks, ended)
    return [_Simplex(s.block[0, :-1].copy(), s.block[:, -1].min(), s.nit, s.nfev,
                     not (s.nfev >= _MAXFEV or s.nit >= _MAXITER)) for s in searches]


def fit_spectrum(data: Spectrum) -> FitResult:
    """Least-squares fit of the loss lineshape.

    Weighted residuals (inverse variance when stderr is present, uniform
    otherwise) are minimized over (n0, eta_res, nu0, gamma); eta_res and gamma
    are searched in log space to stay positive. Simplex search runs from the
    data-driven initial guess plus 5 perturbed restarts; the best run wins.
    The six searches run in lockstep in _simplex, an in-house numpy
    Nelder-Mead that makes one batched model call per round and whose every
    search equals scipy.optimize.minimize(method="Nelder-Mead")'s from the
    same start at the same options. A perfectly flat spectrum short-circuits
    to eta_res = 0. SpectrumFormatError outside 5 to _MAX_FIT_POINTS points,
    or for a half-span past e^60 kHz, where log gamma starts outside
    _forward's box.
    """
    n = len(data)
    if not 5 <= n <= _MAX_FIT_POINTS:
        raise SpectrumFormatError(f"need 5 to {_MAX_FIT_POINTS} points to fit, got {n}")
    x = data.detunings_khz
    y = data.atoms_total
    span = float(x[-1]) - float(x[0])  # Python floats overflow to inf silently
    if not 0.5 * span <= math.exp(60):
        raise SpectrumFormatError(
            "half the detuning span must be at most e^60 (about 1.1e26) kHz")

    # the search sees the detunings about the grid's centre, xc = x - centre,
    # so a shift of the grid that xc absorbs exactly moves the fitted nu0
    # alone; halving first keeps x[0] + x[-1] from overflowing
    centre = 0.5 * float(x[0]) + 0.5 * float(x[-1])
    if np.ptp(y) == 0.0:
        # no structure to fit; pin the line to zero strength
        return FitResult(n0=float(y[0]), eta_res=0.0, nu0=centre, gamma=0.5 * span,
                         residual_rms=0.0, converged=True, covariance=np.zeros((4, 4)))

    # uniform weights are normalized by the count scale so the objective is
    # O(1) and the simplex stopping tolerances are meaningful
    sqrt_w = (np.full(n, 1.0 / float(np.mean(y))) if data.stderr is None
              else 1.0 / data.stderr)

    n0_ref = float(np.max(y))
    x_scale = 0.5 * span

    # search coords are all O(1): (n0/n0_ref, log eta, (nu0 - centre)/x_scale, log gamma)
    internal_scale = np.array([n0_ref, 1.0, x_scale, 1.0])
    xc = x - centre

    def objective(theta_s):
        """Weighted sum of squared residuals of each row; inf off the box."""
        with np.errstate(over="ignore"):
            thetas = theta_s * internal_scale
            ok = _in_box(thetas)
            every = ok.all()  # the usual round: no mask and no scatter
            r = _forward(xc, thetas if every else thetas[ok])
            np.subtract(y, r, out=r)
            r *= sqrt_w
            r *= r
            sums = np.add.reduce(r, axis=1)
        if every:
            return sums
        out = np.full(len(thetas), np.inf)
        out[ok] = sums
        return out

    nu0_init = float(x[np.argmin(y)])
    frac = min(max(float(np.min(y)) / n0_ref, 1e-9), 1.0)
    eta_init = max(invert_remaining_fraction(frac), 1e-8)
    theta0 = np.array([1.0, math.log(eta_init), (nu0_init - centre) / x_scale,
                       math.log(max(0.5 * span, 1e-6))])

    rng = np.random.default_rng(_RESTART_SEED)
    starts = [theta0]
    for _ in range(5):
        starts.append(theta0 + np.array([0.05, 0.3, 0.2, 0.3])
                      * rng.standard_normal(4))

    # the first of equal minima wins
    best, best_start = min(zip(_simplex(objective, starts), starts), key=lambda r: r[0].fun)

    theta = best.x * internal_scale
    n0 = float(theta[0])
    eta_res = math.exp(theta[1])
    nu0 = float(theta[2]) + centre
    gamma = math.exp(theta[3])
    # a line narrower than every detuning spacing has captured a single point;
    # one wider than the span has its half-maximum points off the grid
    converged = (bool(best.success) and math.isfinite(best.fun)
                 and float(np.min(np.diff(x))) <= gamma <= span)

    model = _forward(xc, theta[None])[0]
    safe = np.where(np.abs(model) > 0, model, 1.0)
    residual_rms = float(np.sqrt(np.mean(((y - model) / safe) ** 2)))

    # Gauss-Newton covariance s^2 (J^T J)^+ = s^2 J^+ (J^+)^T, with J the
    # Jacobian of the weighted residuals in the O(1) search coordinates by
    # central differences, all 8 model rows in one call. The step is absolute:
    # a relative step collapses whenever a coordinate sits near zero (log eta
    # crosses 0 at unit pulse strength). The diagonal scale/log Jacobian maps
    # it to (n0, eta_res, nu0, gamma); counts so large that the n0 variance
    # overflows raise FloatingPointError.
    step = 1e-6
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (best.x + step * np.concatenate([np.eye(4), -np.eye(4)])) * internal_scale
        if not _in_box(rows).all():
            raise FloatingPointError("fit covariance is not finite")
        hi, lo = np.split(_forward(xc, rows), 2)
        jac = ((hi - lo) * sqrt_w / (2.0 * step)).T
        s2 = 1.0 if data.stderr is not None else float(best.fun) / max(n - 4, 1)
        p = np.array([n0_ref, eta_res, x_scale, gamma])[:, None] * np.linalg.pinv(jac)
        covariance = s2 * (p @ p.T)
    if not np.all(np.isfinite(covariance)):
        raise FloatingPointError("fit covariance is not finite")

    return FitResult(n0=n0, eta_res=eta_res, nu0=nu0, gamma=gamma,
                     residual_rms=residual_rms, converged=converged, covariance=covariance,
                     objective_trace=[float(objective(best_start[None])[0]),
                                      float(best.fun)])


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
    text = read_text(path, "ascii", SpectrumFormatError, "non-ASCII byte")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise SpectrumFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise SpectrumFormatError("empty spectrum file")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["detuning_khz", "atoms_total"]:
        raise SpectrumFormatError("line 1: header must start with detuning_khz,atoms_total")
    has_components = list(header[2:5]) == list(_COMPONENT_COLS)
    rest = header[5:] if has_components else header[2:]
    has_stderr = rest == ["stderr"]
    if not has_stderr and rest:
        raise SpectrumFormatError(f"line 1: unrecognized columns {rest}")
    n_cols = 2 + (3 if has_components else 0) + (1 if has_stderr else 0)

    lines, vals = [], []
    for k, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_cols:
            raise SpectrumFormatError(f"line {k}: expected {n_cols} fields, got {len(row)}")
        try:
            vals.append([float(v) for v in row])
        except ValueError:
            raise SpectrumFormatError(f"line {k}: non-numeric field in {row!r}") from None
        lines.append(k)
    if not lines:
        raise SpectrumFormatError("no data rows")
    table = np.array(vals, order="F")  # contiguous columns
    columns = (table[:, 0], table[:, 1], table[:, 2:5] if has_components else None,
               table[:, -1] if has_stderr else None)
    if bad := _first_bad_row(*columns):
        raise SpectrumFormatError(f"line {lines[bad[0]]}: {bad[1]}")
    return Spectrum(*columns)
