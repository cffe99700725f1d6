"""Relations between solver runs that hold without a reference solver: a
solver swap must keep them, so they pin "same numbers" where no oracle does."""
import numpy as np
import pytest

from ramanpa.dressed_states import band_minima
from ramanpa.pa_kinetics import LorentzianLine, MixtureState, PulseParams, simulate_mixture
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("weights", ["uniform", "stderr"])
def test_fit_translation_is_bit_exact(seed, weights):
    """Detunings + 64 kHz on a +-30 kHz grid give the same fit with nu0 + 64,
    bit for bit: the search sees the detunings about the grid's centre, which
    the shift leaves unchanged."""
    grid = np.linspace(-30.0, 30.0, 31)
    data = synthesize_spectrum(LINE, PULSE, grid, 0.03, seed,
                               include_stderr=weights == "stderr")
    shifted = Spectrum(data.detunings_khz + 64.0, data.atoms_total, stderr=data.stderr)
    fit, moved = fit_spectrum(data), fit_spectrum(shifted)
    assert moved.nu0 == fit.nu0 + 64.0
    assert (moved.n0, moved.eta_res, moved.gamma, moved.residual_rms, moved.converged) == (
        fit.n0, fit.eta_res, fit.gamma, fit.residual_rms, fit.converged)
    assert np.array_equal(moved.covariance, fit.covariance)


def test_band_mirror_in_detuning():
    """delta -> -delta swaps the bare states m_f = -1 and +1 and q -> -q, so E
    stays, q* changes sign and (C_-1, C_0, C_+1) reverses, to rounding (read:
    9e-16 relative for E, 2e-14 for q* and 7e-15 for the coefficients)."""
    rng = np.random.default_rng(1929)
    n = 20000
    omega, delta = rng.uniform(0.0, 15.0, n), rng.uniform(-4.0, 4.0, n)
    eps = rng.uniform(0.0, 2.0, n)
    q, e, c = band_minima(omega, delta, eps)
    q_m, e_m, c_m = band_minima(omega, -delta, eps)
    assert np.max(np.abs(e_m - e) / np.maximum(1.0, np.abs(e))) < 1e-14
    assert np.max(np.abs(q_m + q)) < 5e-14
    assert np.max(np.abs(c_m - c[:, ::-1])) < 2e-14


@pytest.mark.parametrize("seed", range(3))
def test_mixture_mirror_is_bit_exact(seed):
    """Counts (a, b, c) -> (c, b, a) mirror every row of the series, bit for
    bit: the edge components enter only through which one is smaller, and
    whole-number counts sum exactly in either order. At a = c the two edge
    columns are equal, bit for bit."""
    rng = np.random.default_rng(seed)
    a, b, c = (float(v) for v in rng.integers(0, 10000, 3))
    for a, b, c in ((a, b, c), (a, b, a)):
        pulse = PulseParams(t_pa=0.01, rho0=1.0e14, n0=a + b + c)
        run, mirror = (simulate_mixture(MixtureState(counts=counts), 3.0e-12, pulse,
                                        dt=pulse.t_pa / 2000.0)
                       for counts in ((a, b, c), (c, b, a)))
        assert np.array_equal(mirror.times, run.times)
        assert np.array_equal(mirror.counts, run.counts[:, ::-1])
        assert np.array_equal(mirror.events_00, run.events_00)
        assert np.array_equal(mirror.events_pm, run.events_pm)
    assert np.array_equal(run.counts[:, 0], run.counts[:, 2])
