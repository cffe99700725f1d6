"""Singlet-channel projection of two-atom spin states and PA rate ratios.

Photoassociation out of an f=1 condensate proceeds through the |F=0, m_F=0>
two-atom channel. For a pair of atoms sharing the spin state
(C_-1, C_0, C_+1), the channel amplitude is (2 C_-1 C_+1 - C_0^2)/sqrt(3):
the (0,0) and (+1,-1) pathways enter with opposite Clebsch-Gordan signs, so a
dressed superposition can interfere destructively and go dark to the PA light.
All rates are normalized to the bare m_f=0 condensate rate.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import write_csv

__all__ = [
    "singlet_amplitude",
    "rate_ratio",
    "rate_ratio_no_interference",
    "bare_pair_singlet_weight",
    "write_ratio_sweep_csv",
]

_SQRT3 = math.sqrt(3.0)


def _validated(coeffs) -> np.ndarray:
    c = np.asarray(coeffs).reshape(-1)
    if c.shape != (3,):
        raise ValueError("expected three spin amplitudes (C_-1, C_0, C_+1)")
    norm = float(np.sum(np.abs(c) ** 2))
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"amplitudes not normalized: |c|^2 = {norm!r}")
    return c


def singlet_amplitude(coeffs):
    """Amplitude of the |F=0, m_F=0> component of the two-atom state.

    Returns (2 C_-1 C_+1 - C_0^2) / sqrt(3); complex if the input is complex.
    """
    cm, c0, cp = _validated(coeffs)
    amp = (2.0 * cm * cp - c0 * c0) / _SQRT3
    return complex(amp) if np.iscomplexobj(amp) else float(amp)


def rate_ratio(coeffs) -> float:
    """Normalized PA rate k_sup/k_00 including the interference cross term.

    |C_0^2|^2 + 4|C_-1 C_+1|^2 - 4 Re[C_0^2 C_-1* C_+1*], algebraically equal
    to |2 C_-1 C_+1 - C_0^2|^2. Clipped to [0, 1] against rounding dust.
    """
    return float(_batch_ratios(_validated(coeffs))[0])


def rate_ratio_no_interference(coeffs) -> float:
    """Rate ratio with the cross term dropped: |C_0^2|^2 + 4|C_-1 C_+1|^2."""
    return float(_batch_ratios(_validated(coeffs))[1])


def _batch_ratios(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate ratios with and without the cross term over coeffs (..., 3).

    Real or complex amplitudes; each |z|^2 is written as z * conj(z), so for
    real input the cancellation in the cross term is exact.
    """
    cm, c0, cp = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    c0sq = c0 * c0
    pair = cm * cp
    no_int = (c0sq * np.conj(c0sq)).real + 4.0 * (pair * np.conj(pair)).real
    full = no_int - 4.0 * (c0sq * np.conj(pair)).real
    return np.clip(full, 0.0, 1.0), np.clip(no_int, 0.0, 1.0)


def bare_pair_singlet_weight(mf_a: int, mf_b: int) -> float:
    """Squared |F=0, m_F=0> overlap of a symmetrized bare pair (mf_a, mf_b).

    (0, 0) -> 1/3; {+1, -1} in either order -> 2/3; every other pair -> 0.
    This is the bare Clebsch-Gordan weight only, for a pair on the PA
    resonance; mixture kinetics multiply the (+1,-1)/(0,0) ratio by the
    Lorentzian factor of that pair's energy offset (see
    pa_kinetics.DEFAULT_CROSS_WEIGHT).
    """
    valid = (-1, 0, 1)
    if mf_a not in valid or mf_b not in valid:
        raise ValueError("spin indices must be -1, 0, or +1")
    if mf_a == 0 and mf_b == 0:
        return 1.0 / 3.0
    if {mf_a, mf_b} == {-1, 1}:
        return 2.0 / 3.0
    return 0.0


def write_ratio_sweep_csv(path, omega_r, delta, ratio, ratio_no_interference) -> None:
    """Write a nominal rate-ratio sweep as CSV, one row per parameter point."""
    write_csv(path, ("omega_r_Er", "delta_Er", "ratio", "ratio_no_interference"),
              (omega_r, delta, ratio, ratio_no_interference))
