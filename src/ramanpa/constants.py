"""Physical constants and the unit conversions used across the toolkit.

Internal unit policy: energies in recoil units E_r, quasimomentum in k_r,
frequencies in kHz, densities in cm^-3, times in seconds inside the library
(milliseconds only at the CLI surface).
"""

import math

__all__ = ["EPSILON_Q_ER", "RECOIL_ENERGY_HZ", "er_to_khz"]

# CODATA 2022, as scipy.constants gives them (hbar, atomic_mass, "Bohr
# radius"); written out so that importing the toolkit does not load scipy
HBAR = 1.0545718176461565e-34          # J s
ATOMIC_MASS_KG = 1.66053906892e-27     # kg per u
BOHR_RADIUS_M = 5.29177210544e-11      # m

# Default experimental scales. Overridable through RamanParams / RunConfig;
# formulas never hard-code these.
RECOIL_ENERGY_HZ = 3680.0              # E_r/h for the Raman laser pair
EPSILON_Q_ER = 0.65                    # quadratic Zeeman shift, E_r
TRAP_OMEGA_BAR = 2.0 * math.pi * 90.0  # geometric-mean trap frequency, rad/s
PA_LINE_FWHM_KHZ = 20.0                # photoassociation line width (FWHM), kHz
SCATTERING_LENGTH_A0 = 100.4           # f=1 s-wave scattering length, Bohr radii
RB87_MASS_AMU = 86.909180527

# Conversions
MS = 1e-3                              # s per ms
M3_TO_CM3 = 1e-6                       # density m^-3 -> cm^-3


def er_to_khz(energy_er, recoil_energy_hz=RECOIL_ENERGY_HZ):
    """Convert an energy in E_r to a frequency in kHz."""
    return energy_er * recoil_energy_hz / 1e3
