"""Every exported name resolves, so a deletion leaves no stale export, and the
package exports exactly its modules' `__all__` lists."""
import importlib
import pkgutil

import pytest

import ramanpa

MODULES = sorted(m.name for m in pkgutil.iter_modules(ramanpa.__path__, "ramanpa."))


def test_modules_are_found():
    assert {"ramanpa.cli", "ramanpa.config", "ramanpa.spectra"} <= set(MODULES)


@pytest.mark.parametrize("name", ["ramanpa"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []


SURFACE = ("constants", "dressed_states", "interference", "pa_kinetics", "spectra",
           "uncertainty")


def test_package_all_is_its_modules_all_in_order():
    lists = [importlib.import_module(f"ramanpa.{m}").__all__ for m in SURFACE]
    assert ramanpa.__all__ == [name for names in lists for name in names] + ["__version__"]


def test_public_surface_is_pinned():
    assert set(ramanpa.__all__) == {
        "EPSILON_Q_ER", "RECOIL_ENERGY_HZ", "er_to_khz",
        "BandCurve", "DressedState", "RamanParams", "band_curve", "band_minima",
        "build_hamiltonian", "coefficients_vs_delta", "find_band_minimum", "write_band_csv",
        "bare_pair_singlet_weight", "rate_ratio", "rate_ratio_no_interference",
        "singlet_amplitude", "write_ratio_sweep_csv",
        "DEFAULT_CROSS_WEIGHT", "LorentzianLine", "MixtureSeries", "MixtureState",
        "PulseParams", "check_mixture_args", "eta_from_rate", "invert_remaining_fraction",
        "lorentzian_eta", "rate_from_eta", "remaining_fraction", "remaining_fraction_oracle",
        "simulate_mixture", "thomas_fermi_peak_density", "write_mixture_csv",
        "FitResult", "Spectrum", "SpectrumFormatError", "component_spectrum", "fit_spectrum",
        "normalize_spectrum", "read_spectrum_csv", "synthesize_spectrum", "write_spectrum_csv",
        "MAX_SAMPLES", "RatioBand", "UncertaintySpec", "ratio_band_vs_delta",
        "ratio_band_vs_omega", "ratio_bands", "write_ratio_band_csv",
        "__version__",
    }
