"""Two-body photoassociation loss kinetics in a Thomas-Fermi condensate.

Local two-body loss d(rho)/dt = -k rho^2 integrated over an inverted-parabola
density profile gives the closed-form remaining fraction N(eta)/N_0 in terms
of the dimensionless pulse strength eta = k_PA rho_0 t_PA. The module also
carries an independent shell-integration oracle for that formula, the
Lorentzian lineshape of k_PA versus detuning, peak-density helpers, and exact
per-shell two-channel kinetics for spin-mixture losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    EPSILON_Q_ER,
    HBAR,
    M3_TO_CM3,
    PA_LINE_FWHM_KHZ,
    er_to_khz,
)
from .interference import bare_pair_singlet_weight
from .tables import write_csv

__all__ = [
    "PulseParams",
    "LorentzianLine",
    "MixtureState",
    "MixtureSeries",
    "remaining_fraction",
    "remaining_fraction_oracle",
    "invert_remaining_fraction",
    "eta_from_rate",
    "rate_from_eta",
    "lorentzian_eta",
    "thomas_fermi_peak_density",
    "DEFAULT_CROSS_WEIGHT",
    "check_mixture_args",
    "simulate_mixture",
    "write_mixture_csv",
]

# below this eta the closed form cancels to O(eta^{5/2}) and loses digits
# (1e-11 relative at 1e-2); the series takes over, exact to rounding up to here
_SERIES_SWITCH = 0.1
_SERIES_TERMS = 20
# the signed series coefficients, highest power first for Horner's rule
_SERIES_COEFFS = np.cumprod(
    [1.0] + [-(n + 2.0) / (n + 3.5) for n in range(_SERIES_TERMS)])[::-1].tolist()
# time rows x shells per block of the closed-form mixture evaluation
_BLOCK_CELLS = 2**14
_MAX_SHELLS = 100_000  # n_shells cap: a few MB of shell arrays


@dataclass(frozen=True)
class PulseParams:
    """PA pulse context: duration t_pa (s), peak density rho0 (cm^-3),
    off-resonant atom count n0, and the nominal intensity (W/cm^2, metadata)."""

    t_pa: float
    rho0: float
    n0: float
    intensity: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_pa, self.rho0, self.n0, self.intensity))):
            raise ValueError("pulse parameters must be finite")
        if self.t_pa <= 0:
            raise ValueError("t_pa must be > 0")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be > 0")
        if self.n0 <= 0:
            raise ValueError("n0 must be > 0")
        if self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        # keeps k_pa = eta / (rho0 t_pa) and eta = k_pa rho0 t_pa finite
        if not 1e-100 <= self.rho0 * self.t_pa <= 1e100:
            raise ValueError("rho0 * t_pa must be between 1e-100 and 1e100 cm^-3 s")


@dataclass(frozen=True)
class LorentzianLine:
    """PA line: peak pulse strength eta_res, center nu0 (kHz), FWHM gamma (kHz)."""

    eta_res: float
    nu0: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta_res, self.nu0, self.gamma))):
            raise ValueError("line parameters must be finite")
        if self.eta_res < 0:
            raise ValueError("eta_res must be >= 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


@dataclass(frozen=True)
class MixtureState:
    """Spin-component atom numbers (N_-1, N_0, N_+1) sharing one trap."""

    counts: tuple[float, float, float]

    def __post_init__(self):
        # the bound keeps sums, and the plotted axes, of the counts finite
        if len(self.counts) != 3 or not all(0 <= c <= 1e300 for c in self.counts):
            raise ValueError("counts must be three finite numbers from 0 to 1e300")
        if sum(self.counts) <= 0:
            raise ValueError("n_total must be > 0")


@dataclass
class MixtureSeries:
    """Mixture-loss time series with event bookkeeping.

    counts[i] is (N_-1, N_0, N_+1) at times[i]; events_00 and events_pm are the
    cumulative (0,0) and (+1,-1) PA event counts, so N_0 drops by 2 per (0,0)
    event and N_-1, N_+1 by 1 each per (+1,-1) event. clamped is always
    False: the closed-form densities never go negative.
    """

    times: np.ndarray
    counts: np.ndarray
    events_00: np.ndarray
    events_pm: np.ndarray
    clamped: bool = False

    @property
    def molecules_cumulative(self) -> np.ndarray:
        return self.events_00 + self.events_pm


def remaining_fraction(eta):
    """Fraction of atoms remaining after a pulse of strength eta.

    Closed form (15/2) eta^{-5/2} [sqrt(eta) + eta^{3/2}/3
    - sqrt(1+eta) asinh(sqrt(eta))]; strictly decreasing, 1 at eta = 0,
    asymptotically (5/2)/eta. Evaluated divided through by eta^{5/2}, it has
    no intermediate over- or underflow for finite eta. Below _SERIES_SWITCH the power series
    sum_n c_n (-eta)^n, c_0 = 1 and c_{n+1}/c_n = (n+2)/(n+3.5), replaces it;
    truncated after _SERIES_TERMS terms it is exact to rounding there.
    Accepts scalars or arrays; raises ValueError unless every eta is finite and >= 0.
    """
    arr = np.asarray(eta, dtype=float)
    # min and max propagate nan; initial=0 lets an empty array through
    if not (0.0 <= arr.min(initial=0.0) and arr.max(initial=0.0) < math.inf):
        raise ValueError("eta must be finite and >= 0")
    return _remaining_fraction(arr)


def _remaining_fraction(arr):
    """remaining_fraction of a float array (or float) the caller has proven
    finite and >= 0; the one copy of the formula, with no input check.

    Each element's value depends on that element alone, bit for bit, so a
    batch of spectrum rows rounds like each row evaluated by itself: the
    series is summed by Horner's rule elementwise, where a matvec's rounding
    would depend on how many rows it gets.
    """
    arr = np.asarray(arr)
    big = np.maximum(arr, _SERIES_SWITCH)  # keeps the closed form off eta = 0
    inner = 1.0 + big / 3.0 - np.sqrt(1.0 + 1.0 / big) * np.arcsinh(np.sqrt(big))
    out = np.asarray(7.5 / big * (inner / big))
    small = arr < _SERIES_SWITCH
    if small.any():
        eta = arr[small]
        acc = np.full(eta.shape, _SERIES_COEFFS[0])
        for c in _SERIES_COEFFS[1:]:
            acc *= eta
            acc += c
        out[small] = acc
    return float(out) if out.ndim == 0 else out


def remaining_fraction_oracle(eta: float, n_shells: int) -> float:
    """Shell-integration check of remaining_fraction.

    Applies the local solution rho(t) = rho(0)/(1 + k rho(0) t) on midpoint
    shells of the parabolic profile rho(0, r) = rho_0 (1 - r^2/R^2) and sums
    atom numbers; converges to the closed form as n_shells grows.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if n_shells < 100:
        raise ValueError("n_shells must be >= 100")
    x = (np.arange(n_shells) + 0.5) / n_shells
    shape = 1.0 - x * x
    w = x * x * shape  # r^2 dr volume weight times initial density
    return float(np.sum(w / (1.0 + eta * shape)) / np.sum(w))


def invert_remaining_fraction(fraction: float) -> float:
    """Pulse strength eta that leaves the given remaining fraction.

    Inverse of remaining_fraction on (0, 1]; fraction 1 maps to 0. Bisection narrows
    (0, (5/2)/fraction) to two adjacent floats: (5/2)/eta - remaining_fraction(eta) =
    (15/2) eta^{-5/2} h(sqrt(eta)) > 0, as h(s) = sqrt(1+s^2) asinh(s) - s has h(0) = 0
    and h'(s) = s asinh(s)/sqrt(1+s^2) > 0. ValueError if (5/2)/fraction overflows.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction >= 1.0:
        return 0.0
    lo, hi = 0.0, 2.5 / fraction
    if hi == math.inf:
        raise ValueError("fraction too small to invert")
    # every eta evaluated lies in the finite, non-negative bracket
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if _remaining_fraction(mid) > fraction:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda eta: abs(_remaining_fraction(eta) - fraction))


def eta_from_rate(k_pa: float, pulse: PulseParams) -> float:
    """eta = k_pa * rho0 * t_pa with k_pa in cm^3/s."""
    if k_pa < 0:
        raise ValueError("k_pa must be >= 0")
    eta = k_pa * pulse.rho0 * pulse.t_pa
    if not math.isfinite(eta):
        raise ValueError("eta = k_pa * rho0 * t_pa must be finite")
    return eta


def rate_from_eta(eta: float, pulse: PulseParams) -> float:
    """Inverse of eta_from_rate: k_pa = eta / (rho0 * t_pa)."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return eta / (pulse.rho0 * pulse.t_pa)


def lorentzian_eta(delta_nu, line: LorentzianLine):
    """Pulse strength versus PA detuning (kHz): a Lorentzian peaking at nu0."""
    half = 0.5 * line.gamma
    d = np.asarray(delta_nu, dtype=float) - line.nu0
    out = line.eta_res * half * half / (d * d + half * half)
    return float(out) if np.ndim(delta_nu) == 0 else out


# (+1,-1) channel strength relative to (0,0) for light on the (0,0) line: the
# bare ratio 2 times the PA Lorentzian at the pair-energy offset 8 + 2 eps_q
# E_r of |-1, q+2>|+1, q-2> above |0, q>|0, q> (see simulate_mixture)
_PAIR_OFFSET_ER = 8.0 + 2.0 * EPSILON_Q_ER
DEFAULT_CROSS_WEIGHT = (
    bare_pair_singlet_weight(-1, 1) / bare_pair_singlet_weight(0, 0)
    * lorentzian_eta(er_to_khz(_PAIR_OFFSET_ER),
                     LorentzianLine(eta_res=1.0, nu0=0.0, gamma=PA_LINE_FWHM_KHZ)))


def thomas_fermi_peak_density(n_atoms: float, omega_bar: float,
                              scattering_length: float, mass: float) -> float:
    """Peak density (cm^-3) of a Thomas-Fermi condensate.

    rho_0 = (15 N / 8 pi) Rbar^-3 with Rbar = a_ho (15 N a_s / a_ho)^{1/5}
    and a_ho = sqrt(hbar / (m omega_bar)); SI inputs (rad/s, m, kg). ValueError
    unless the inputs are > 0 and the density is finite and > 0.
    """
    if n_atoms <= 0 or omega_bar <= 0 or scattering_length <= 0 or mass <= 0:
        raise ValueError("all Thomas-Fermi inputs must be > 0")
    try:
        a_ho = math.sqrt(HBAR / (mass * omega_bar))
        rbar = a_ho * (15.0 * n_atoms * scattering_length / a_ho) ** 0.2
        density = (15.0 * n_atoms / (8.0 * math.pi)) / rbar**3 * M3_TO_CM3
    except ArithmeticError:  # rbar**3 overflowed, or a length underflowed to 0
        density = 0.0
    if not 0.0 < density < math.inf:
        raise ValueError("Thomas-Fermi peak density must be finite and > 0")
    return density


def check_mixture_args(k00: float, pulse: PulseParams, dt: float,
                       cross_weight: float, n_shells: int) -> None:
    """Raise ValueError unless simulate_mixture accepts these scalar arguments."""
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError("dt must be finite and > 0")
    if not pulse.t_pa / 1e6 <= dt <= pulse.t_pa / 100.0:
        raise ValueError("dt must be between t_pa/10^6 and t_pa/100")
    if not math.isfinite(k00) or k00 < 0:
        raise ValueError("k00 must be finite and >= 0")
    if not math.isfinite(cross_weight) or cross_weight < 0:
        raise ValueError("cross_weight must be finite and >= 0")
    # finite peak loss rates keep the t = 0 sample free of inf * 0
    if not (math.isfinite(k00 * pulse.rho0) and math.isfinite(cross_weight * k00 * pulse.rho0)):
        raise ValueError("k00 * rho0 and cross_weight * k00 * rho0 must be finite")
    if not 1 <= n_shells <= _MAX_SHELLS:
        raise ValueError(f"n_shells must be between 1 and {_MAX_SHELLS}")


def simulate_mixture(initial: MixtureState, k00: float, pulse: PulseParams,
                     dt: float, cross_weight: float = DEFAULT_CROSS_WEIGHT,
                     n_shells: int = 400) -> MixtureSeries:
    """Two-channel PA losses of a spin mixture, exact on every density shell.

    Local channel ODEs on each shell:

        d rho_0 / dt = -k00 rho_0^2
        d rho_+ / dt = d rho_- / dt = -cross_weight * k00 rho_+ rho_-

    k00 is the (0,0) rate with the PA light on that pair's resonance.

    The mixture is assumed to occupy the bare spin-momentum states of the
    Raman frame, |-1, q+2>, |0, q>, |+1, q-2>, so the edge components carry
    +-2 k_r. Their (+1,-1) pair then sits 8 + 2 eps_q E_r (about 34.2 kHz)
    above the (0,0) pair, for every q and delta, and the light drives it off
    resonance. cross_weight therefore defaults to DEFAULT_CROSS_WEIGHT: the
    bare Clebsch-Gordan ratio 2 of the (+1,-1) to the (0,0) channel times the
    Lorentzian factor 1 / (1 + (2 offset / FWHM)^2) of the 20 kHz PA line,
    about 0.157. cross_weight=2 is the zero-offset (on-resonance) pair. A
    mixture at rest, with only the Zeeman offset, is not modelled.

    Components share one frozen Thomas-Fermi shape scaled by their initial
    fractions; shells evolve independently (no hydrodynamic rearrangement).
    Both channels are solved in closed form at ceil(t_pa/dt) + 1 equally
    spaced sample times: rho_0(t) = rho_0 / (1 + k00 rho_0 t), and, as the
    larger minus the smaller edge density D = hi - lo is conserved,
    lo(t) = lo / (1 + hi g) with g = expm1(k_pm D t) / D (k_pm t when D = 0,
    k_pm = cross_weight k00). Row 0 holds the given counts exactly, and
    event counts follow from atom conservation.
    """
    check_mixture_args(k00, pulse, dt, cross_weight, n_shells)

    counts0 = np.asarray(initial.counts, dtype=float)
    n_tot = float(counts0.sum())
    fractions = counts0 / n_tot

    x = (np.arange(n_shells) + 0.5) / n_shells
    shape = 1.0 - x * x
    u = x * x  # shell volume weight, common factor absorbed in the norm
    # count normalization ties shell sums back to absolute atom numbers
    norm = n_tot / (pulse.rho0 * float(np.sum(u * shape)))

    lo, hi = (0, 2) if fractions[0] <= fractions[2] else (2, 0)
    r00, lo0, hi0 = (fractions[m] * pulse.rho0 * shape for m in (1, lo, hi))
    diff = hi0 - lo0  # conserved; lo is solved directly to keep its precision near 0
    k_pm = cross_weight * k00
    w00, wlo = norm * u * r00, norm * u * lo0

    n_steps = math.ceil(pulse.t_pa / dt)  # 100 to 10^6 by the dt precondition
    times = np.linspace(0.0, pulse.t_pa, n_steps + 1)
    counts = np.empty((n_steps + 1, 3))
    rows = max(1, _BLOCK_CELLS // n_shells)
    with np.errstate(over="ignore"):  # expm1 -> inf sends lo to 0
        for i in range(0, n_steps + 1, rows):
            t = times[i:i + rows, None]
            g = k_pm * t if diff[0] == 0.0 else np.expm1(k_pm * diff * t) / diff
            counts[i:i + rows, 1] = np.sum(w00 / (1.0 + k00 * r00 * t), axis=1)
            counts[i:i + rows, lo] = np.sum(wlo / (1.0 + hi0 * g), axis=1)
    counts[:, hi] = counts[:, lo] + norm * float(np.sum(u * diff))  # equal edges stay equal
    # norm ties each column to its given count only to rounding; divided by
    # its t = 0 value and scaled by the given count, in place, row 0 holds the
    # given counts exactly (an empty component's zero column stays as it is)
    for m in np.flatnonzero(counts[0] > 0.0):
        counts[:, m] /= counts[0, m]
        counts[:, m] *= counts0[m]
    e00 = 0.5 * (counts[0, 1] - counts[:, 1])
    epm = counts[0, lo] - counts[:, lo]

    return MixtureSeries(times=times, counts=counts, events_00=e00, events_pm=epm)


def write_mixture_csv(path, series: MixtureSeries) -> None:
    """Write a mixture time series as CSV, one row per sample time."""
    write_csv(path, ("t_s", "N_m-1", "N_m0", "N_m+1", "molecules_cumulative"),
              (series.times, *series.counts.T, series.molecules_cumulative))
