"""Monte Carlo propagation of dressing-parameter uncertainties.

The measured Raman coupling and detuning carry experimental uncertainties
(10% relative and 0.5 E_r by default). Sampling both, re-solving the band
minimum per sample, and evaluating the PA rate ratio yields the mean +- one
standard deviation prediction bands drawn around the nominal theory curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_Q_ER
from .dressed_states import band_minima
from .interference import _batch_ratios
from .tables import write_csv

__all__ = [
    "UncertaintySpec",
    "RatioBand",
    "ratio_band_vs_omega",
    "ratio_band_vs_delta",
    "write_ratio_band_csv",
]

_MAX_SAMPLES = 10**6  # per sweep point; about 136 MiB peak at the cap
VARIANT_WITH = "with-interference"
VARIANT_WITHOUT = "without-interference"


@dataclass(frozen=True)
class UncertaintySpec:
    """Sampling plan: relative sigma of Omega_R, absolute sigma of delta (E_r),
    optional absolute sigma of epsilon_q, sample count, and the seed."""

    omega_rel_sigma: float = 0.10
    delta_sigma: float = 0.5
    n_samples: int = 2000
    seed: int = 0
    epsilon_q_sigma: float = 0.0

    def __post_init__(self):
        sigmas = (self.omega_rel_sigma, self.delta_sigma, self.epsilon_q_sigma)
        if not all(0 <= s < math.inf for s in sigmas):
            raise ValueError("sigmas must be finite and >= 0")
        if not 100 <= self.n_samples <= _MAX_SAMPLES:
            raise ValueError(f"n_samples must be between 100 and {_MAX_SAMPLES}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def is_zero(self) -> bool:
        return self.omega_rel_sigma == 0 and self.delta_sigma == 0 and self.epsilon_q_sigma == 0


@dataclass
class RatioBand:
    """Rate-ratio band along one sweep axis.

    lower/upper are mean -+ one standard deviation, clipped to [0, 1.05] for
    display; std holds the unclipped per-point standard deviation.
    """

    sweep_axis: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    variant: str
    std: np.ndarray


def _draw_positive(rng, nominal: float, sigma: float, n: int) -> np.ndarray:
    """Gaussian draws with negative values redrawn until none remain."""
    if sigma == 0:
        return np.full(n, nominal)
    out = rng.normal(nominal, sigma, n)
    while np.any(out < 0):
        bad = out < 0
        out[bad] = rng.normal(nominal, sigma, int(bad.sum()))
    return out


def _draw_samples(rng, omega_nom, delta_nom, epsilon_nom, spec: UncertaintySpec):
    omegas = _draw_positive(rng, omega_nom, spec.omega_rel_sigma * omega_nom,
                            spec.n_samples)
    if spec.delta_sigma > 0:
        deltas = rng.normal(delta_nom, spec.delta_sigma, spec.n_samples)
    else:
        deltas = np.full(spec.n_samples, delta_nom)
    epsilons = _draw_positive(rng, epsilon_nom, spec.epsilon_q_sigma, spec.n_samples)
    return omegas, deltas, epsilons


def _band(axis_values, omegas, deltas, spec: UncertaintySpec,
          epsilon_q: float) -> tuple[RatioBand, RatioBand]:
    """Sweep both variants over nominal omegas/deltas broadcast against the axis.

    Both variants come from one band-minimum solve per sweep point, since the
    same coefficients feed both ratios. Returns (with, without) interference.
    """
    axis = np.asarray(axis_values, dtype=float)
    if axis.size == 0:
        raise ValueError("sweep axis must be non-empty")
    om_nom, de_nom, _ = np.broadcast_arrays(np.asarray(omegas, dtype=float),
                                            np.asarray(deltas, dtype=float), axis)
    if not (np.all(np.isfinite(om_nom)) and np.all(np.isfinite(de_nom))):
        raise ValueError("sweep values and nominal omega_r, delta must be finite")
    if np.any(om_nom < 0):
        raise ValueError("nominal omega_r must be >= 0")
    means = np.empty((2, axis.size))
    stds = np.zeros((2, axis.size))
    if spec.is_zero:
        # zero-width band: one solve per point
        _, _, coeffs = band_minima(om_nom, de_nom, epsilon_q)
        means[:] = _batch_ratios(coeffs)
    else:
        for i in range(axis.size):
            # one independent substream per sweep point: mirrored or reordered
            # sweeps reuse identical draws at equal indices
            rng = np.random.default_rng([spec.seed, i])
            draws = _draw_samples(rng, om_nom[i], de_nom[i], epsilon_q, spec)
            _, _, coeffs = band_minima(*draws)
            ratios = np.stack(_batch_ratios(coeffs))
            means[:, i] = np.mean(ratios, axis=1)
            stds[:, i] = np.std(ratios, axis=1, ddof=1)
    lower = np.clip(means - stds, 0.0, 1.05)
    upper = np.clip(means + stds, 0.0, 1.05)
    return tuple(RatioBand(sweep_axis=axis, mean=means[k], lower=lower[k], upper=upper[k],
                           variant=variant, std=stds[k])
                 for k, variant in enumerate((VARIANT_WITH, VARIANT_WITHOUT)))


def ratio_band_vs_omega(omega_list, delta_nominal: float, spec: UncertaintySpec,
                        interference: bool = True,
                        epsilon_q: float = EPSILON_Q_ER) -> RatioBand:
    """Rate-ratio band swept over the Raman coupling at fixed nominal delta."""
    bands = _band(omega_list, omega_list, delta_nominal, spec, epsilon_q)
    return bands[0] if interference else bands[1]


def ratio_band_vs_delta(delta_list, omega_nominal: float, spec: UncertaintySpec,
                        interference: bool = True,
                        epsilon_q: float = EPSILON_Q_ER) -> RatioBand:
    """Rate-ratio band swept over the detuning at fixed nominal coupling."""
    bands = _band(delta_list, omega_nominal, delta_list, spec, epsilon_q)
    return bands[0] if interference else bands[1]


def write_ratio_band_csv(path, bands) -> None:
    """Write a list of bands as CSV rows tagged by variant."""
    fields = ("sweep_axis", "mean", "lower", "upper")
    write_csv(path, ("axis_value_Er", "mean", "lower", "upper", "variant"),
              [[v for b in bands for v in getattr(b, f)] for f in fields]
              + [[b.variant for b in bands for _ in b.sweep_axis]])
