"""Spectrum synthesis, CSV IO, line fitting, and rate extraction."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanpa.dressed_states import RamanParams, find_band_minimum
from ramanpa.interference import rate_ratio
from ramanpa.pa_kinetics import (
    LorentzianLine,
    PulseParams,
    invert_remaining_fraction,
    remaining_fraction,
)
from ramanpa.spectra import (
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

# measurement layout: dense line core, wing baseline anchors at both ends,
# mid-wing points to pin the width
GRID_30 = np.sort(np.concatenate([
    np.linspace(-60.0, -50.0, 6),
    np.linspace(-6.0, 6.0, 16),
    [-20.0, 20.0],
    np.linspace(50.0, 60.0, 6),
]))
GRID_200 = np.sort(np.concatenate([
    np.linspace(-60.0, -50.0, 33),
    np.linspace(-8.0, 8.0, 130),
    [-25.0, -20.0, 20.0, 25.0],
    np.linspace(50.0, 60.0, 33),
]))

LINE = LorentzianLine(eta_res=1.0, nu0=0.3, gamma=20.0)
PULSE = PulseParams(t_pa=5e-3, rho0=1.0e14, n0=9000.0)


def fit_of(noise, seed, line=LINE, grid=GRID_30, **kw):
    data = synthesize_spectrum(line, PULSE, grid, noise, seed, **kw)
    return fit_spectrum(data)


# ---------------------------------------------------------------- synthesis

def test_synthesize_far_off_resonance_keeps_every_atom():
    det = np.array([1e10, 2e10, 3e10, 4e10, 5e10])
    spec = synthesize_spectrum(LINE, PULSE, det, 0.0, 0)
    assert np.all(spec.atoms_total == PULSE.n0)


def test_synthesize_resonant_point_zero_noise():
    det = np.array([-40.0, 0.3, 40.0])
    spec = synthesize_spectrum(LINE, PULSE, det, 0.0, 0)
    assert spec.atoms_total[1] == pytest.approx(
        PULSE.n0 * 0.6516213978965402, rel=1e-12)


def test_synthesize_seed_controls_noise():
    a = synthesize_spectrum(LINE, PULSE, GRID_30, 0.03, 7)
    b = synthesize_spectrum(LINE, PULSE, GRID_30, 0.03, 7)
    c = synthesize_spectrum(LINE, PULSE, GRID_30, 0.03, 8)
    assert np.array_equal(a.atoms_total, b.atoms_total)
    assert not np.array_equal(a.atoms_total, c.atoms_total)


def test_synthesize_stderr_column():
    spec = synthesize_spectrum(LINE, PULSE, GRID_30, 0.03, 1, include_stderr=True)
    clean = PULSE.n0 * remaining_fraction(
        1.0 * (10.0 ** 2) / ((GRID_30 - 0.3) ** 2 + 10.0 ** 2))
    assert np.allclose(spec.stderr, 0.03 * clean, rtol=1e-12)
    assert synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 1).stderr is None


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_spectrum(LINE, PULSE, GRID_30, -0.01, 0)
    with pytest.raises(ValueError):
        synthesize_spectrum(LINE, PULSE, [], 0.0, 0)


def test_synthesize_components_share_loss_curve():
    w = (0.25, 0.5, 0.25)
    spec = synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0, component_weights=w)
    assert spec.atoms_components.shape == (GRID_30.size, 3)
    assert np.allclose(spec.atoms_components.sum(axis=1), spec.atoms_total,
                       rtol=1e-12)
    # zero noise: every column is its weight times the shared curve
    for j, wj in enumerate(w):
        assert np.allclose(spec.atoms_components[:, j], wj * spec.atoms_total,
                           rtol=1e-12)


def test_synthesize_rejects_bad_weights():
    with pytest.raises(ValueError):
        synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0,
                            component_weights=(0.5, 0.6, 0.1))
    with pytest.raises(ValueError):
        synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0,
                            component_weights=(-0.1, 0.6, 0.5))


def test_component_spectrum_selects_column():
    spec = synthesize_spectrum(LINE, PULSE, GRID_30, 0.01, 3,
                               component_weights=(0.2, 0.5, 0.3))
    for m_f, col in ((-1, 0), (0, 1), (1, 2)):
        sub = component_spectrum(spec, m_f)
        assert np.array_equal(sub.atoms_total, spec.atoms_components[:, col])
        assert sub.atoms_components is None
    with pytest.raises(ValueError):
        component_spectrum(spec, 2)
    bare = synthesize_spectrum(LINE, PULSE, GRID_30, 0.01, 3)
    with pytest.raises(ValueError):
        component_spectrum(bare, 0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(detunings_khz=np.array([0.0, 0.0, 1.0]),
                 atoms_total=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Spectrum(detunings_khz=np.array([0.0, 1.0]),
                 atoms_total=np.array([1.0]))
    with pytest.raises(ValueError):
        Spectrum(detunings_khz=np.array([0.0, 1.0]),
                 atoms_total=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        Spectrum(detunings_khz=np.array([0.0, 1.0]),
                 atoms_total=np.array([1.0, 2.0]),
                 stderr=np.array([0.1, 0.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(detunings_khz=np.array([0.0, 1.0]),
                     atoms_total=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            Spectrum(detunings_khz=np.array([0.0, bad]),
                     atoms_total=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            Spectrum(detunings_khz=np.array([0.0, 1.0]),
                     atoms_total=np.array([1.0, 2.0]),
                     atoms_components=np.array([[0.2, 0.5, 0.3], [bad, 1.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Spectrum(detunings_khz=np.array([0.0, 1.0]),
                     atoms_total=np.array([1.0, 2.0]),
                     stderr=np.array([0.1, bad]))


# ------------------------------------------------------------------ fitting

def test_fit_zero_noise_round_trip():
    fit = fit_of(0.0, 0)
    assert fit.converged is True
    assert fit.n0 == pytest.approx(PULSE.n0, rel=1e-4)
    assert fit.eta_res == pytest.approx(1.0, rel=1e-4)
    assert fit.nu0 == pytest.approx(0.3, abs=1e-3)
    assert fit.gamma == pytest.approx(20.0, rel=1e-4)
    assert fit.residual_rms < 1e-6 * PULSE.n0
    assert fit.k_pa == pytest.approx(1.0 / (PULSE.rho0 * PULSE.t_pa), rel=1e-4)


def test_fit_is_deterministic():
    a = fit_of(0.03, 11)
    b = fit_of(0.03, 11)
    assert (a.n0, a.eta_res, a.nu0, a.gamma) == (b.n0, b.eta_res, b.nu0, b.gamma)
    assert np.array_equal(a.covariance, b.covariance)


def test_fit_mean_pulse_strength_unbiased():
    fits = [fit_of(0.03, seed) for seed in range(20)]
    assert all(f.converged for f in fits)
    etas = [f.eta_res for f in fits]
    assert abs(float(np.mean(etas)) - 1.0) < 0.03
    # the reported uncertainty is calibrated against the seed-to-seed spread
    sigma_eta = float(np.median([math.sqrt(f.covariance[1, 1]) for f in fits]))
    assert 0.7 <= sigma_eta / float(np.std(etas)) <= 1.4


def test_fit_covariance_reports_sane_uncertainty():
    fit = fit_of(0.03, 5)
    cov = fit.covariance
    assert cov.shape == (4, 4)
    assert np.allclose(cov, cov.T)
    assert np.all(np.diag(cov) >= 0)
    sigma_eta = math.sqrt(cov[1, 1])
    assert 0.01 < sigma_eta / fit.eta_res < 0.15


@pytest.mark.parametrize("eta_res, seed", [(0.05, 2), (0.05, 4), (0.1, 4), (0.2, 1)])
def test_fit_covariance_is_positive_semidefinite(eta_res, seed):
    # weak noisy lines whose second-difference Hessian was indefinite
    fit = fit_of(0.1, seed, line=LorentzianLine(eta_res=eta_res, nu0=0.0, gamma=20.0))
    cov = fit.covariance
    assert np.all(np.isfinite(cov))
    assert np.array_equal(cov, cov.T)
    assert np.all(np.diag(cov) >= 0)


def test_fit_covariance_overflow_raises():
    # the n0 variance grows as n0^2 and overflows near 1e160 counts
    pulse = PulseParams(t_pa=5e-3, rho0=1.0e14, n0=1e160)
    with pytest.raises(FloatingPointError, match="covariance is not finite"):
        fit_spectrum(synthesize_spectrum(LINE, pulse, GRID_30, 0.03, 5))


def test_fit_objective_trace_never_increases():
    fit = fit_of(0.03, 2)
    trace = np.asarray(fit.objective_trace)
    assert trace.size > 0
    assert np.all(np.diff(trace) <= 1e-12)


def test_fit_flat_spectrum_gives_zero_strength():
    flat = Spectrum(detunings_khz=GRID_30.copy(),
                    atoms_total=np.full(GRID_30.size, 9000.0))
    fit = fit_spectrum(flat)
    assert fit.converged
    assert fit.eta_res < 1e-4
    assert fit.n0 == pytest.approx(9000.0, rel=1e-6)
    assert math.isnan(fit.k_pa)  # no pulse metadata on a bare spectrum


def test_fit_line_narrower_than_grid_is_not_converged():
    # the line collapses onto one noisy point: gamma ~ 0.005 kHz on a
    # 0.8 kHz grid spacing
    fit = fit_of(0.1, 4, line=LorentzianLine(eta_res=0.1, nu0=0.0, gamma=20.0))
    assert fit.gamma < np.min(np.diff(GRID_30))
    assert fit.converged is False
    with pytest.raises(ValueError, match="did not converge"):
        extract_kpa(fit, PULSE)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(log_eta=st.floats(-2.0, 1.5), gamma=st.floats(5.0, 40.0),
       nu0=st.floats(-10.0, 10.0), noise=st.floats(0.0, 0.1),
       seed=st.integers(0, 2**32 - 1),
       detunings=st.lists(st.floats(-60.0, 60.0), min_size=8, max_size=40,
                          unique=True).map(sorted))
def test_fit_drawn_spectra_give_valid_covariance(log_eta, gamma, nu0, noise,
                                                 seed, detunings):
    """A drawn spectrum raises a documented error or fits without warnings
    to a finite covariance with no negative variance."""
    line = LorentzianLine(eta_res=10.0 ** log_eta, nu0=nu0, gamma=gamma)
    data = synthesize_spectrum(line, PULSE, detunings, noise, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            fit = fit_spectrum(data)
        except (ValueError, FloatingPointError):
            return
    cov = fit.covariance
    assert np.all(np.isfinite(cov))
    assert np.all(np.diag(cov) >= 0)
    if fit.converged:
        assert fit.gamma >= np.min(np.diff(detunings))


def test_fit_needs_five_points():
    with pytest.raises(ValueError):
        fit_spectrum(Spectrum(detunings_khz=np.array([0.0, 1.0, 2.0, 3.0]),
                              atoms_total=np.array([1.0, 2.0, 3.0, 4.0])))


def test_fit_weighted_by_stderr_matches_unweighted_shape():
    fit = fit_of(0.03, 4, include_stderr=True)
    assert fit.converged
    assert fit.eta_res == pytest.approx(1.0, abs=0.2)


# ----------------------------------------------------------- rate extraction

def test_extract_kpa_arithmetic():
    fit = fit_of(0.0, 0)
    assert extract_kpa(fit, PULSE) == pytest.approx(
        fit.eta_res / (PULSE.rho0 * PULSE.t_pa), rel=1e-14)


def test_extract_kpa_requires_convergence():
    bad = FitResult(n0=1.0, eta_res=1.0, nu0=0.0, gamma=1.0, k_pa=float("nan"),
                    residual_rms=0.0, converged=False, covariance=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        extract_kpa(bad, PULSE)
    with pytest.raises(ValueError):
        normalize_spectrum(synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0), bad)


def test_normalize_spectrum_round_trip():
    data = synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0)
    fit = fit_spectrum(data)
    norm = normalize_spectrum(data, fit)
    from ramanpa.pa_kinetics import lorentzian_eta
    wing = remaining_fraction(lorentzian_eta(GRID_30[0], LINE))
    assert norm.atoms_total[0] == pytest.approx(wing, rel=1e-4)
    i0 = int(np.argmin(np.abs(GRID_30 - 0.3)))
    assert norm.atoms_total[i0] == pytest.approx(
        remaining_fraction(1.0), rel=1e-3)
    refit = fit_spectrum(norm)
    assert refit.n0 == pytest.approx(1.0, rel=1e-4)
    again = normalize_spectrum(norm, refit)
    assert np.allclose(again.atoms_total, norm.atoms_total, rtol=1e-4)


def test_suppression_ratio_pipeline():
    """Dressed-to-bare rate ratio recovered from fitted spectrum pairs.

    The dressed line is the bare one scaled by the two-pathway ratio at
    full coupling; fitting both at 3% noise on the dense 200-point layout
    keeps the per-pair estimate within 10% and the 12-seed median tighter.
    """
    state = find_band_minimum(RamanParams(omega_r=8.0, delta=0.0))
    expected = rate_ratio(tuple(state.coeffs))
    bare_line = LorentzianLine(eta_res=1.0, nu0=0.3, gamma=20.0)
    dressed_line = LorentzianLine(eta_res=expected, nu0=0.3, gamma=20.0)

    ratios = []
    for s in range(12):
        bare = fit_spectrum(synthesize_spectrum(
            bare_line, PULSE, GRID_200, 0.03, 1000 + s))
        dressed = fit_spectrum(synthesize_spectrum(
            dressed_line, PULSE, GRID_200, 0.03, 2000 + s))
        assert bare.converged and dressed.converged
        ratios.append(extract_kpa(dressed, PULSE) / extract_kpa(bare, PULSE))

    assert abs(ratios[0] - expected) / expected < 0.10
    assert abs(float(np.median(ratios)) - expected) / expected < 0.10


def test_component_fits_agree_for_shared_line():
    state = find_band_minimum(RamanParams(omega_r=8.0, delta=0.0))
    line = LorentzianLine(eta_res=1.05, nu0=0.0, gamma=20.0)
    spec = synthesize_spectrum(line, PULSE, GRID_30, 0.0, 0,
                               component_weights=tuple(state.weights))
    etas = [fit_spectrum(component_spectrum(spec, m)).eta_res for m in (-1, 0, 1)]
    assert max(etas) - min(etas) < 1e-6 * 1.05
    assert etas[1] == pytest.approx(1.05, rel=1e-4)


# ------------------------------------------------------------------- CSV IO

def test_csv_round_trip_full_columns(tmp_path):
    spec = synthesize_spectrum(LINE, PULSE, GRID_30, 0.02, 9,
                               component_weights=(0.2, 0.5, 0.3),
                               include_stderr=True)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert np.allclose(back.detunings_khz, spec.detunings_khz, rtol=1e-10)
    assert np.allclose(back.atoms_total, spec.atoms_total, rtol=1e-10)
    assert np.allclose(back.atoms_components, spec.atoms_components, rtol=1e-10)
    assert np.allclose(back.stderr, spec.stderr, rtol=1e-10)


def test_csv_round_trip_totals_only(tmp_path):
    spec = synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert back.atoms_components is None and back.stderr is None
    assert np.allclose(back.atoms_total, spec.atoms_total, rtol=1e-10)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize("rows,bad_line,needle", [
    (["detuning_khz,atoms_total", "0.0,100.0", "1.0"], 3, "expected 2 fields"),
    (["detuning_khz,atoms_total", "0.0,100.0", "1.0,abc"], 3, "non-numeric"),
    (["detuning_khz,atoms_total", "0.0,100.0", "0.0,90.0"], 3,
     "strictly increasing"),
    (["detuning_khz,atoms_total", "0.0,100.0", "1.0,-5.0"], 3, "negative"),
    (["detuning_khz,atoms_total,stderr", "0.0,100.0,3.0", "1.0,90.0,0.0"], 3,
     "stderr"),
    (["frequency,atoms_total", "0.0,100.0"], 1, "header"),
    (["detuning_khz,atoms_total", "0.0,100.0", "1.0,inf"], 3, "non-finite"),
    (["detuning_khz,atoms_total", "0.0,100.0", "1.0,nan"], 3, "non-finite"),
    (["detuning_khz,atoms_total", "-inf,100.0", "1.0,90.0"], 2, "non-finite"),
    (["detuning_khz,atoms_total,stderr", "0.0,100.0,3.0", "1.0,90.0,nan"], 3,
     "non-finite"),
])
def test_csv_errors_name_the_line(tmp_path, rows, bad_line, needle):
    path = tmp_path / "bad.csv"
    write_lines(path, rows)
    with pytest.raises(SpectrumFormatError) as err:
        read_spectrum_csv(path)
    assert err.value.line_no == bad_line
    assert needle in str(err.value)


@pytest.mark.parametrize("raw, bad_line", [
    (b"\xef\xbb\xbfdetuning_khz,atoms_total\n0.0,100.0\n", 1),
    (b"detuning_khz,atoms_total\r\n0.0,100.0\r\n1.0,9\xff0.0\r\n", 3),
    (b"detuning_khz,atoms_total\r0.0,100.0\r1.0,9\xff0.0\r", 3),
])
def test_csv_non_ascii_byte_names_the_line(tmp_path, raw, bad_line):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(SpectrumFormatError, match="non-ASCII") as err:
        read_spectrum_csv(path)
    assert err.value.line_no == bad_line


def test_csv_empty_and_headers_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="ascii")
    with pytest.raises(SpectrumFormatError):
        read_spectrum_csv(empty)
    headers = tmp_path / "headers.csv"
    write_lines(headers, ["detuning_khz,atoms_total"])
    with pytest.raises(SpectrumFormatError):
        read_spectrum_csv(headers)
