"""Photoassociation of Raman-dressed spin-1 condensates.

Band structure and superposition coefficients of Raman-coupled atoms, the
two-pathway singlet interference that suppresses photoassociation, two-body
loss kinetics over Thomas-Fermi profiles, spectrum synthesis and fitting, and
Monte Carlo uncertainty bands. The `ramanpa` CLI exposes the same pipeline.
"""

from .constants import EPSILON_Q_ER, RECOIL_ENERGY_HZ, er_to_khz
from .dressed_states import (
    BandCurve,
    DressedState,
    RamanParams,
    band_curve,
    band_minima,
    build_hamiltonian,
    coefficients_vs_delta,
    find_band_minimum,
    write_band_csv,
)
from .interference import (
    bare_pair_singlet_weight,
    rate_ratio,
    rate_ratio_no_interference,
    singlet_amplitude,
    write_ratio_sweep_csv,
)
from .pa_kinetics import (
    LorentzianLine,
    MixtureSeries,
    MixtureState,
    PulseParams,
    eta_from_rate,
    invert_remaining_fraction,
    lorentzian_eta,
    rate_from_eta,
    remaining_fraction,
    remaining_fraction_oracle,
    simulate_mixture,
    thomas_fermi_peak_density,
    write_mixture_csv,
)
from .spectra import (
    FitResult,
    Spectrum,
    SpectrumFormatError,
    component_spectrum,
    extract_kpa,
    fit_spectrum,
    normalize_spectrum,
    read_spectrum_csv,
    synthesize_spectrum,
    write_spectrum_csv,
)
from .uncertainty import (
    MAX_SAMPLES,
    RatioBand,
    UncertaintySpec,
    ratio_bands,
    ratio_band_vs_delta,
    ratio_band_vs_omega,
    write_ratio_band_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BandCurve", "DressedState", "RamanParams", "band_curve", "band_minima",
    "build_hamiltonian", "coefficients_vs_delta",
    "find_band_minimum", "write_band_csv",
    "bare_pair_singlet_weight", "rate_ratio", "rate_ratio_no_interference",
    "singlet_amplitude", "write_ratio_sweep_csv",
    "LorentzianLine", "MixtureSeries", "MixtureState", "PulseParams",
    "eta_from_rate", "invert_remaining_fraction", "lorentzian_eta",
    "rate_from_eta", "remaining_fraction", "remaining_fraction_oracle",
    "simulate_mixture", "thomas_fermi_peak_density", "write_mixture_csv",
    "FitResult", "Spectrum", "SpectrumFormatError", "component_spectrum",
    "extract_kpa", "fit_spectrum", "normalize_spectrum", "read_spectrum_csv",
    "synthesize_spectrum", "write_spectrum_csv",
    "MAX_SAMPLES", "RatioBand", "UncertaintySpec", "ratio_bands", "ratio_band_vs_delta",
    "ratio_band_vs_omega", "write_ratio_band_csv",
    "EPSILON_Q_ER", "RECOIL_ENERGY_HZ", "er_to_khz",
    "__version__",
]
