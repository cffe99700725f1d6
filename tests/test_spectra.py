"""Spectrum synthesis, CSV IO, line fitting, and rate extraction."""
import itertools
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ramanpa import spectra
from ramanpa.dressed_states import RamanParams, find_band_minimum
from ramanpa.interference import rate_ratio
from ramanpa.pa_kinetics import (
    _SERIES_SWITCH,
    _remaining_fraction,
    LorentzianLine,
    PulseParams,
    invert_remaining_fraction,
    lorentzian_eta,
    rate_from_eta,
    remaining_fraction,
)
from ramanpa.spectra import (
    FitResult,
    Spectrum,
    SpectrumFormatError,
    component_spectrum,
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


def test_synthesize_rejects_noise_past_one_without_warnings():
    # a sigma of 1e308 overflowed (1 + sigma g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for noise in (1e308, 1.01, math.nan):
            with pytest.raises(ValueError, match="between 0 and 1"):
                synthesize_spectrum(LINE, PULSE, GRID_30, noise, 0)


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


def test_spectrum_rejects_counts_past_1e300_without_warnings():
    """Counts near 1.7e307 overflowed the fit's sums; Spectrum now stops them."""
    x = np.arange(9.0)
    counts = np.linspace(1.6e307, 1.7e307, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 0: counts and stderr must be at most 1e300"):
            fit_spectrum(Spectrum(x, counts))
        with pytest.raises(ValueError, match="row 2: .*1e300"):
            Spectrum(x, np.ones(9), stderr=np.array([1.0, 1.0, 1e301] + [1.0] * 6))


# ------------------------------------------------------------------ fitting

def test_fit_zero_noise_round_trip():
    fit = fit_of(0.0, 0)
    assert fit.converged is True
    assert fit.n0 == pytest.approx(PULSE.n0, rel=1e-4)
    assert fit.eta_res == pytest.approx(1.0, rel=1e-4)
    assert fit.nu0 == pytest.approx(0.3, abs=1e-3)
    assert fit.gamma == pytest.approx(20.0, rel=1e-4)
    assert fit.residual_rms < 1e-6
    assert rate_from_eta(fit.eta_res, PULSE) == pytest.approx(
        1.0 / (PULSE.rho0 * PULSE.t_pa), rel=1e-4)


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


def test_fit_line_narrower_than_grid_is_not_converged():
    # the line collapses onto one noisy point: gamma ~ 0.005 kHz on a
    # 0.8 kHz grid spacing
    fit = fit_of(0.1, 4, line=LorentzianLine(eta_res=0.1, nu0=0.0, gamma=20.0))
    assert fit.gamma < np.min(np.diff(GRID_30))
    assert fit.converged is False


def test_fit_line_wider_than_span_is_not_converged():
    # a weak line flattens across the grid: gamma ~ 2085 kHz on a 120 kHz
    # span, with eta_res and n0 trading off against it
    fit = fit_of(0.1, 4, line=LorentzianLine(eta_res=0.05, nu0=0.0, gamma=20.0))
    assert fit.gamma > GRID_30[-1] - GRID_30[0]
    assert fit.converged is False


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
        assert np.min(np.diff(detunings)) <= fit.gamma <= detunings[-1] - detunings[0]


DIP = np.array([9000.0, 8900.0, 8500.0, 7000.0, 5000.0, 7000.0, 8500.0, 8900.0, 9000.0])


@pytest.mark.parametrize("detunings", [np.linspace(-1e30, 1e30, 9),
                                       1e200 + np.linspace(-1e190, 1e190, 9)],
                         ids=["+-1e30", "1e200+-1e190"])
def test_fit_rejects_span_past_the_log_gamma_box(detunings):
    """Every start's log gamma sat outside |log gamma| <= 60, so the model was
    never evaluated and the fit raised TypeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="e\\^60"):
            fit_spectrum(Spectrum(detunings, DIP))


def test_fit_span_inside_the_box_still_fits():
    fit = fit_spectrum(Spectrum(np.linspace(-1e26, 1e26, 9), DIP))
    assert math.isfinite(fit.eta_res) and fit.gamma > 0


def test_fit_needs_five_points():
    with pytest.raises(ValueError):
        fit_spectrum(Spectrum(detunings_khz=np.array([0.0, 1.0, 2.0, 3.0]),
                              atoms_total=np.array([1.0, 2.0, 3.0, 4.0])))


def test_fit_weighted_by_stderr_matches_unweighted_shape():
    fit = fit_of(0.03, 4, include_stderr=True)
    assert fit.converged
    assert fit.eta_res == pytest.approx(1.0, abs=0.2)


# ------------------------------------------------ simplex against scipy's

_NM_OPTIONS = {"xatol": 1e-7, "fatol": 1e-9, "maxiter": 2000, "maxfev": 4000}
_ORACLE_SPECTRA = {
    **{f"criterion5-seed{s}": synthesize_spectrum(LINE, PULSE, GRID_30, 0.03, s)
       for s in range(3)},
    # the reproducers of the narrow-line, wide-line and edge-spike tests
    "narrow-line": synthesize_spectrum(LorentzianLine(eta_res=0.1, nu0=0.0, gamma=20.0),
                                       PULSE, GRID_30, 0.1, 4),
    "wide-line": synthesize_spectrum(LorentzianLine(eta_res=0.05, nu0=0.0, gamma=20.0),
                                     PULSE, GRID_30, 0.1, 4),
    "edge-spike": Spectrum(np.arange(-30.0, 31.0, 10.0),
                           np.array([8600.0, 8200.0, 7000.0, 5000.0, 7000.0, 8200.0, 0.0]),
                           stderr=np.full(7, 90.0)),
}


def _scipy_simplex(func, x0, **options):
    from scipy.optimize import minimize
    res = minimize(func, x0, method="Nelder-Mead", options={**_NM_OPTIONS, **options})
    return spectra._Simplex(res.x, res.fun, res.nit, res.nfev, res.success)


def _row_function(batch):
    """The scalar objective of one point: a batch of one row."""
    return lambda x: float(batch(x[None])[0])


def _assert_same_search(ours, func, x0, **options):
    ref = _scipy_simplex(func, x0, **options)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (ours.nit, ours.nfev, ours.success) == (ref.nit, ref.nfev, ref.success)


def _fit_objective(data, monkeypatch):
    """The batched objective fit_spectrum hands to _simplex."""
    batches, simplex = [], spectra._simplex

    def recording(batch, starts):
        batches.append(batch)
        return simplex(batch, starts)

    monkeypatch.setattr(spectra, "_simplex", recording)
    fit_spectrum(data)
    monkeypatch.undo()
    return batches[0]


@pytest.mark.parametrize("name", _ORACLE_SPECTRA)
def test_simplex_matches_scipy_at_every_fit_start(name, monkeypatch):
    """Each lockstep search equals scipy's from its start on the one-row objective."""
    searches, simplex = [], spectra._simplex

    def recording(batch, starts):
        results = simplex(batch, starts)
        searches.extend((batch, x0.copy(), res) for x0, res in zip(starts, results))
        return results

    monkeypatch.setattr(spectra, "_simplex", recording)
    fit_spectrum(_ORACLE_SPECTRA[name])
    assert len(searches) == 6
    for batch, x0, ours in searches:
        _assert_same_search(ours, _row_function(batch), x0)


@pytest.mark.parametrize("func, counter, cap", [
    # pseudo-random noise of 1e-3 keeps the values further apart than fatol,
    # so the search spends every evaluation, the last inside an iteration
    (lambda x: float(x @ x) + 1e-3 * zlib.crc32(x.tobytes()) / 2**32, "nfev", 4000),
    # an unbounded, nearly flat descent spends every iteration first
    (lambda x: -float(np.sum(np.abs(x) ** 0.01)), "nit", 2000),
], ids=["evaluation-cap", "iteration-cap"])
def test_simplex_matches_scipy_when_a_cap_stops_it(func, counter, cap):
    x0 = np.array([0.7, -1.3, 0.0, 2.1])
    ours, = spectra._simplex(lambda points: np.array([func(x) for x in points]), [x0])
    assert not ours.success
    assert getattr(ours, counter) == cap
    _assert_same_search(ours, func, x0)


def test_simplex_matches_scipy_wherever_the_evaluation_cap_falls(monkeypatch):
    """On pure noise about half the contractions fail, so these caps fall in
    every step of an iteration, the shrink's four evaluations included."""
    func = lambda x: zlib.crc32(x.tobytes()) / 2**32  # noqa: E731
    x0 = np.array([0.7, -1.3, 0.0, 2.1])
    for cap in range(6, 60):
        monkeypatch.setattr(spectra, "_MAXFEV", cap)
        ours, = spectra._simplex(lambda points: np.array([func(x) for x in points]), [x0])
        assert ours.nfev == cap
        _assert_same_search(ours, func, x0, maxfev=cap)


def test_simplex_matches_scipy_in_mixed_lockstep_rounds(monkeypatch):
    """Five searches on pure noise: in many rounds some shrink while others
    submit trial points, the stopping test or the evaluation cap ends them in
    different rounds, and each still equals scipy's from its start."""
    func = lambda x: zlib.crc32(x.tobytes()) / 2**32  # noqa: E731
    starts = [np.array([0.7, -1.3, 0.0, 2.1])] + list(np.random.default_rng(5).normal(size=(4, 4)))
    rounds, take = [], spectra._Search.take

    def batch(points):
        rounds.append([])
        return np.array([func(x) for x in points])

    def spying(search, *args):
        rounds[-1].append((id(search), search.shrinking))
        return take(search, *args)

    monkeypatch.setattr(spectra._Search, "take", spying)
    results = spectra._simplex(batch, starts)
    mixed = sum(len({shrinking for _, shrinking in r}) == 2 for r in rounds)
    last_round = {search: k for k, r in enumerate(rounds) for search, _ in r}
    assert mixed >= 10 and len(set(last_round.values())) == len(starts)
    assert {ours.success for ours in results} == {True, False}
    for x0, ours in zip(starts, results):
        _assert_same_search(ours, func, x0)


@pytest.mark.parametrize("name", _ORACLE_SPECTRA)
def test_fit_equals_the_scipy_path_bit_for_bit(name, monkeypatch):
    data = _ORACLE_SPECTRA[name]
    ours = fit_spectrum(data)
    starts = []

    def scipy_searches(batch, x0s):
        starts.extend(x0s)
        return [_scipy_simplex(_row_function(batch), x0) for x0 in x0s]

    monkeypatch.setattr(spectra, "_simplex", scipy_searches)
    ref = fit_spectrum(data)
    assert len(starts) == 6  # scipy ran every search the fit made
    for key in ("n0", "eta_res", "nu0", "gamma", "residual_rms", "objective_trace"):
        assert np.asarray(getattr(ours, key)).tobytes() == \
            np.asarray(getattr(ref, key)).tobytes(), key
    assert ours.converged is ref.converged
    assert ours.covariance.tobytes() == ref.covariance.tobytes()


def _rows_for_batches():
    """24 search points: the fit's neighbourhood, with line strengths whose
    eta falls below, across and above _SERIES_SWITCH, four points outside the
    |log| <= 60 box, and far points whose model or residuals overflow."""
    rng = np.random.default_rng(3)
    near = np.column_stack([rng.uniform(0.8, 1.2, 16), rng.uniform(-6.0, 4.0, 16),
                            rng.uniform(-0.5, 0.5, 16), rng.uniform(1.0, 4.0, 16)])
    edge = [[1.0, 61.0, 0.0, 2.3], [1.0, 0.0, 0.0, -60.5], [math.nan, 0.0, 0.0, 2.3],
            [1.0, 0.0, math.inf, 2.3],
            [1e295, 0.0, 0.0, 2.3],  # the squared residuals overflow
            [1e306, 0.0, 0.0, 2.3],  # n0 overflows once scaled
            [1.0, -60.0, 1e300, 60.0],  # d^2 overflows; eta is 0
            # a far expansion point 3 * centroid - 2 * worst, inside the box
            list(3.0 * np.array([1.0, 0.0, 0.0, 2.3])
                 - 2.0 * np.array([1.0, -10.0, 5e299, 25.0]))]
    return np.concatenate([near, edge])[rng.permutation(24)]


def test_batched_objective_rows_equal_rows_evaluated_alone(monkeypatch):
    """A row's objective value, and its model, do not depend on the other rows
    of the call, bit for bit; rows off the box give inf and nothing warns."""
    data = _ORACLE_SPECTRA["criterion5-seed0"]
    batch = _fit_objective(data, monkeypatch)
    rows = _rows_for_batches()
    with np.errstate(over="ignore"):
        internal = rows * np.array([float(np.max(data.atoms_total)), 1.0,
                                    0.5 * (data.detunings_khz[-1] - data.detunings_khz[0]), 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = np.concatenate([batch(row[None]) for row in rows])
        assert np.isinf(alone).sum() == 6 and not np.isnan(alone).any()
        boxed = spectra._in_box(internal)
        assert boxed.sum() == 19
        for k in (1, 2, 3, 5, 24):
            assert batch(rows[:k]).tobytes() == alone[:k].tobytes(), k
            with np.errstate(over="ignore"):  # as _forward's callers run it
                model = spectra._forward(data.detunings_khz, internal[:k][boxed[:k]])
                for i, row in enumerate(internal[:k][boxed[:k]]):
                    assert model[i].tobytes() == \
                        spectra._forward(data.detunings_khz, row[None])[0].tobytes(), (k, i)
        with np.errstate(over="ignore"):
            etas = [lorentzian_eta(data.detunings_khz,
                                   LorentzianLine(math.exp(le), nu0, math.exp(lg)))
                    for _, le, nu0, lg in internal[boxed]]
    assert (np.array(etas) < _SERIES_SWITCH).any() and (np.array(etas) > _SERIES_SWITCH).any()


def _in_box_reference(thetas):
    """_in_box as two checks: every coordinate finite, both logs within 60."""
    return np.isfinite(thetas).all(axis=1) & (np.abs(thetas[:, 1::2]) <= 60).all(axis=1)


def test_in_box_equals_the_two_check_reference_on_edge_rows():
    base = [1.0, 0.0, 0.0, 2.3]
    rows = [base]
    for col in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            rows.append(base[:col] + [bad] + base[col + 1:])
    for col in (1, 3):  # log eta and log gamma on and just past the bound
        for edge in (60.0, -60.0, np.nextafter(60.0, math.inf), -np.nextafter(60.0, math.inf)):
            rows.append(base[:col] + [edge] + base[col + 1:])
    big = np.finfo(float).max
    for col in (0, 2):  # n0 and nu0 need only be finite
        for edge in (big, -big):
            rows.append(base[:col] + [edge] + base[col + 1:])
    rows = np.array(rows)
    got = spectra._in_box(rows)
    assert got.tolist() == _in_box_reference(rows).tolist()
    assert got.sum() == 1 + 4 + 4  # the base, the four logs at +-60, the four +-float max


def _forward_reference(det, thetas):
    """_forward as one expression, each row's arithmetic in _forward's order."""
    n0, log_eta, nu0, log_gamma = np.array(thetas.T)[:, :, None]
    half = 0.5 * np.exp(log_gamma)
    d = det - nu0
    eta = np.exp(log_eta) * half * half / (d * d + half * half)
    return n0 * _remaining_fraction(eta)


def test_forward_equals_the_one_expression_reference_bit_for_bit():
    """On the batch rows, 3000 drawn in-box rows and the box's 81 corners and
    midpoints: eta below, across and above _SERIES_SWITCH, and rows whose
    model is near float max or whose d^2 overflows, on the fit grid; on a
    grid scaled to 1e308, d itself overflows."""
    data = _ORACLE_SPECTRA["criterion5-seed0"]
    det = data.detunings_khz
    scale = np.array([float(np.max(data.atoms_total)), 1.0, 0.5 * (det[-1] - det[0]), 1.0])
    rng = np.random.default_rng(11)
    near = np.column_stack([rng.uniform(5e3, 1e4, 1500), rng.uniform(-8.0, 5.0, 1500),
                            rng.uniform(-10.0, 10.0, 1500), rng.uniform(1.0, 4.0, 1500)])
    signs = rng.choice([-1.0, 1.0], size=(1500, 2))
    wide = np.column_stack([signs[:, 0] * 10.0 ** rng.uniform(-300, 308, 1500),
                            rng.uniform(-60.0, 60.0, 1500),
                            signs[:, 1] * 10.0 ** rng.uniform(-300, 308, 1500),
                            rng.uniform(-60.0, 60.0, 1500)])
    big = np.finfo(float).max
    corners = np.array(list(itertools.product((9e3, -big, big), (-60.0, 0.0, 60.0),
                                              (-big, 0.0, big), (-60.0, 0.0, 60.0))))
    with np.errstate(over="ignore"):
        batch_rows = _rows_for_batches() * scale
    rows = np.concatenate([batch_rows[spectra._in_box(batch_rows)], near, wide, corners])
    assert spectra._in_box(rows).all()
    half = 0.5 * np.exp(rows[:, 3:])
    with np.errstate(over="ignore"):
        d2 = (det - rows[:, 2:3]) ** 2
        eta = np.exp(rows[:, 1:2]) * half * half / (d2 + half * half)
        assert np.isinf(d2).any() and (eta < _SERIES_SWITCH).any() and (eta > _SERIES_SWITCH).any()
        assert np.isinf(1e308 / 60.0 * det - rows[:, 2:3]).any()
        for grid in (det, 1e308 / 60.0 * det):
            got = spectra._forward(grid, rows)
            assert got.tobytes() == _forward_reference(grid, rows).tobytes()
            assert (np.abs(got) > 1e300).any()


# ---------------------------------------------- normalization and rate ratios

def test_normalize_spectrum_requires_convergence():
    bad = FitResult(n0=1.0, eta_res=1.0, nu0=0.0, gamma=1.0,
                    residual_rms=0.0, converged=False, covariance=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        normalize_spectrum(synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0), bad)


def test_normalize_spectrum_round_trip():
    data = synthesize_spectrum(LINE, PULSE, GRID_30, 0.0, 0)
    fit = fit_spectrum(data)
    norm = normalize_spectrum(data, fit)
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
        ratios.append(rate_from_eta(dressed.eta_res, PULSE) / rate_from_eta(bare.eta_res, PULSE))

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
    assert str(err.value).startswith(f"line {bad_line}:")
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
    assert str(err.value).startswith(f"line {bad_line}:")


def test_csv_empty_and_headers_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="ascii")
    with pytest.raises(SpectrumFormatError):
        read_spectrum_csv(empty)
    headers = tmp_path / "headers.csv"
    write_lines(headers, ["detuning_khz,atoms_total"])
    with pytest.raises(SpectrumFormatError):
        read_spectrum_csv(headers)


_CELLS = [1.0, 250.0] * 4 + [0.0, -1.0, math.nan, math.inf, -math.inf, 1e301]


@st.composite
def _tables(draw):
    """(has_components, has_stderr, rows): small tables whose cells are mostly
    valid, with zeros, negatives, non-finite values, 1e301 and repeated
    detunings mixed in."""
    has_components, has_stderr = draw(st.booleans()), draw(st.booleans())
    width = 1 + 3 * has_components + has_stderr
    rows = []
    for i in range(draw(st.integers(1, 4))):
        repeat = [rows[-1][0]] if rows else []
        det = draw(st.sampled_from([float(i)] * 6 + repeat + _CELLS))
        rows.append([det] + draw(st.lists(st.sampled_from(_CELLS), min_size=width,
                                          max_size=width)))
    return has_components, has_stderr, rows


def _first_bad_row(rows, has_stderr):
    """Row-by-row statement of the spectrum value rules."""
    prev = -math.inf
    for i, row in enumerate(rows):
        counts = row[1:len(row) - has_stderr]
        if (not all(map(math.isfinite, row)) or row[0] <= prev or min(counts) < 0
                or max(row[1:]) > 1e300 or (has_stderr and row[-1] <= 0)):
            return i
        prev = row[0]
    return None


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_csv_reader_and_spectrum_share_one_value_checker(tmp_path, table):
    """read_spectrum_csv rejects a table exactly when Spectrum does, for the
    same reason, naming line 2 + the first bad row."""
    has_components, has_stderr, rows = table
    cols = np.array(rows).T
    try:
        Spectrum(cols[0], cols[1], cols[2:5].T if has_components else None,
                 cols[-1] if has_stderr else None)
        spectrum_error = None
    except ValueError as exc:
        spectrum_error = str(exc)
    header = ["detuning_khz", "atoms_total"] + (
        ["atoms_m_minus1", "atoms_m0", "atoms_m_plus1"] if has_components else []) + (
        ["stderr"] if has_stderr else [])
    path = tmp_path / "table.csv"
    write_lines(path, [",".join(header)] + [",".join(map(repr, row)) for row in rows])
    try:
        read_spectrum_csv(path)
        reader_error = None
    except SpectrumFormatError as exc:
        reader_error = exc
    bad = _first_bad_row(rows, has_stderr)
    assert (spectrum_error is None) == (reader_error is None) == (bad is None)
    if bad is not None:
        assert str(reader_error).startswith(f"line {2 + bad}:")
        reason = str(reader_error).split(": ", 1)[1]
        assert spectrum_error == f"row {bad}: {reason}"
