"""Relations between solver runs that hold without a reference solver: a
solver swap must keep them, so they pin "same numbers" where no oracle does."""
import numpy as np
import pytest

from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.spectra import Spectrum, fit_spectrum, synthesize_spectrum

LINE = LorentzianLine(eta_res=1.0, nu0=0.3, gamma=20.0)
PULSE = PulseParams(t_pa=5e-3, rho0=1.0e14, n0=9000.0)
GRID = np.sort(np.concatenate([np.linspace(-60.0, -50.0, 6), np.linspace(-6.0, 6.0, 16),
                               [-20.0, 20.0], np.linspace(50.0, 60.0, 6)]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("weights", ["uniform", "stderr"])
def test_fit_count_scaling_is_bit_exact(seed, weights):
    """Counts and stderr x 4 give n0 x 4 and the same line, bit for bit: the
    search coordinates divide the counts by their maximum, and the weights
    by a power of two."""
    data = synthesize_spectrum(LINE, PULSE, GRID, 0.03, seed,
                               include_stderr=weights == "stderr")
    scaled = Spectrum(data.detunings_khz, 4.0 * data.atoms_total,
                      stderr=None if data.stderr is None else 4.0 * data.stderr)
    fit, fit4 = fit_spectrum(data), fit_spectrum(scaled)
    assert fit4.n0 == 4.0 * fit.n0
    assert (fit4.eta_res, fit4.nu0, fit4.gamma, fit4.converged) == (
        fit.eta_res, fit.nu0, fit.gamma, fit.converged)
