"""Monte Carlo propagation of dressing-parameter uncertainties.

The measured Raman coupling and detuning carry experimental uncertainties
(10% relative and 0.5 E_r by default). Sampling both, solving the band
minimum of every sample and every nominal point of a sweep together, and
evaluating the PA rate ratio yields the nominal theory curves and the mean
+- one standard deviation prediction bands drawn around them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_Q_ER
from .dressed_states import DRESSING_LIMIT_ER, band_minima
from .interference import _batch_ratios
from .tables import write_csv

__all__ = [
    "UncertaintySpec",
    "RatioBand",
    "MAX_SAMPLES",
    "ratio_bands",
    "ratio_band_vs_omega",
    "ratio_band_vs_delta",
    "write_ratio_band_csv",
]

MAX_SAMPLES = 10**6  # per sweep point; about 146 MiB peak at the cap
_SOLVE_ROWS = 1 << 16  # rows per band_minima call in ratio_bands: 25 x 2001 fit in one
# draws within 99 sigma of omega_r 12, |delta| 3 and eps_q 0.65 E_r stay within 1e6 E_r
_SIGMA_CAPS = {"omega_rel_sigma": 100.0, "delta_sigma": 1e4, "epsilon_q_sigma": 1e4}
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
        for name, cap in _SIGMA_CAPS.items():
            if not 0 <= getattr(self, name) <= cap:  # NaN fails too
                raise ValueError(f"{name} must be finite, >= 0 and <= {cap:g}")
        if not 100 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"n_samples must be between 100 and {MAX_SAMPLES}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def is_zero(self) -> bool:
        return self.omega_rel_sigma == 0 and self.delta_sigma == 0 and self.epsilon_q_sigma == 0


@dataclass
class RatioBand:
    """Rate-ratio band along one sweep axis.

    lower/upper are mean -+ one standard deviation, clipped to [0, 1.05] for
    display; std holds the unclipped per-point standard deviation; nominal is
    the variant's zero-width ratio at each point, solved with the draws.
    """

    sweep_axis: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    variant: str
    std: np.ndarray
    nominal: np.ndarray


def _draw(rng, nominal: float, sigma: float, n: int, low: float) -> np.ndarray:
    """n Gaussian draws about nominal, those outside [low, DRESSING_LIMIT_ER] redrawn
    in index order until none remain. For a nominal inside, UncertaintySpec's caps
    keep each draw's odds of landing inside >= 0.004 (omega_r 1e6, sigma 100 x)."""
    if sigma == 0:
        return np.full(n, nominal)
    out = rng.normal(nominal, sigma, n)
    bad = np.flatnonzero((out < low) | (out > DRESSING_LIMIT_ER))
    while bad.size:
        out[bad] = redrawn = rng.normal(nominal, sigma, bad.size)
        bad = bad[(redrawn < low) | (redrawn > DRESSING_LIMIT_ER)]
    return out


def _draw_samples(rng, omega_nom, delta_nom, epsilon_nom, spec: UncertaintySpec, out):
    """Fill out (3, n_samples) with omega, delta, epsilon_q draws; omega, epsilon_q >= 0."""
    out[0] = _draw(rng, omega_nom, spec.omega_rel_sigma * omega_nom, spec.n_samples, 0.0)
    out[1] = _draw(rng, delta_nom, spec.delta_sigma, spec.n_samples, -DRESSING_LIMIT_ER)
    out[2] = _draw(rng, epsilon_nom, spec.epsilon_q_sigma, spec.n_samples, 0.0)


def ratio_bands(axis_values, omegas, deltas, spec: UncertaintySpec,
                epsilon_q: float = EPSILON_Q_ER) -> tuple[RatioBand, RatioBand]:
    """Both variants' bands over a sweep, each with its nominal curve, in one pass.

    axis_values is the 1-D sweep axis written into the bands; omegas and deltas
    are the nominal coupling and detuning at each point, as arrays or scalars
    broadcast along it. Point i gives a block of rows: its nominal row, then
    (unless the spec is zero-width) n_samples draws from its own
    default_rng([seed, i]) stream, so mirrored or reordered sweeps reuse
    identical draws at equal indices. One band_minima call solves each group of
    whole blocks of at most _SOLVE_ROWS rows. Returns (with, without) bands.
    """
    axis = np.asarray(axis_values, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError("sweep axis must be a non-empty 1-D sequence")
    om_nom, de_nom = (np.broadcast_to(np.asarray(v, dtype=float), axis.shape)
                      for v in (omegas, deltas))
    # a nominal outside _draw's interval would redraw (nearly) forever
    if not all(np.all(np.abs(v) <= DRESSING_LIMIT_ER) for v in (om_nom, de_nom, epsilon_q)):
        raise ValueError(f"sweep values and nominal omega_r, delta, epsilon_q must be finite, "
                         f"with magnitude <= {DRESSING_LIMIT_ER:g} E_r")
    if np.any(om_nom < 0) or epsilon_q < 0:
        raise ValueError("nominal omega_r and epsilon_q must be >= 0")
    if not np.all(np.isfinite(axis)):
        raise ValueError("sweep axis values must be finite")
    width = 1 if spec.is_zero else 1 + spec.n_samples
    nominal, means, stds = np.zeros((3, 2, axis.size))
    per_solve = max(1, _SOLVE_ROWS // width)
    for first in range(0, axis.size, per_solve):
        part = slice(first, min(first + per_solve, axis.size))
        block = np.empty((3, part.stop - first, width))
        block[:, :, 0] = np.broadcast_arrays(om_nom[part], de_nom[part], epsilon_q)
        if width > 1:
            for j, i in enumerate(range(first, part.stop)):
                _draw_samples(np.random.default_rng([spec.seed, i]),
                              om_nom[i], de_nom[i], epsilon_q, spec, block[:, j, 1:])
        ratios = np.reshape(_batch_ratios(band_minima(*block.reshape(3, -1))[2]), (2, -1, width))
        nominal[:, part] = ratios[:, :, 0]
        # a zero-width block is its nominal row: the mean is that row, the std 0
        draws = ratios[:, :, 1:] if width > 1 else ratios
        means[:, part] = np.mean(draws, axis=2)
        stds[:, part] = np.std(draws, axis=2, ddof=min(1, width - 1))
    lower = np.clip(means - stds, 0.0, 1.05)
    upper = np.clip(means + stds, 0.0, 1.05)
    return tuple(RatioBand(sweep_axis=axis, mean=means[k], lower=lower[k], upper=upper[k],
                           variant=variant, std=stds[k], nominal=nominal[k])
                 for k, variant in enumerate((VARIANT_WITH, VARIANT_WITHOUT)))


def ratio_band_vs_omega(omega_list, delta_nominal: float, spec: UncertaintySpec,
                        interference: bool = True,
                        epsilon_q: float = EPSILON_Q_ER) -> RatioBand:
    """One variant of ratio_bands swept over the Raman coupling at fixed nominal delta."""
    return ratio_bands(omega_list, omega_list, delta_nominal, spec,
                       epsilon_q)[0 if interference else 1]


def ratio_band_vs_delta(delta_list, omega_nominal: float, spec: UncertaintySpec,
                        interference: bool = True,
                        epsilon_q: float = EPSILON_Q_ER) -> RatioBand:
    """One variant of ratio_bands swept over the detuning at fixed nominal coupling."""
    return ratio_bands(delta_list, omega_nominal, delta_list, spec,
                       epsilon_q)[0 if interference else 1]


def write_ratio_band_csv(path, bands) -> None:
    """Write a list of bands as CSV rows tagged by variant."""
    fields = ("sweep_axis", "mean", "lower", "upper")
    write_csv(path, ("axis_value_Er", "mean", "lower", "upper", "variant"),
              [[v for b in bands for v in getattr(b, f)] for f in fields]
              + [[b.variant for b in bands for _ in b.sweep_axis]])
