"""Monte Carlo rate-ratio bands over dressing-parameter uncertainty."""
import dataclasses
import math

import numpy as np
import pytest

import ramanpa.uncertainty as uncertainty
from ramanpa.dressed_states import RamanParams, band_minima, find_band_minimum
from ramanpa.interference import rate_ratio, rate_ratio_no_interference
from ramanpa.uncertainty import (
    RatioBand,
    UncertaintySpec,
    _draw_samples,
    ratio_band_vs_delta,
    ratio_band_vs_omega,
    ratio_bands,
    write_ratio_band_csv,
)

ZERO = UncertaintySpec(omega_rel_sigma=0.0, delta_sigma=0.0, n_samples=100, seed=0)
NOMINAL_MC = UncertaintySpec(omega_rel_sigma=0.10, delta_sigma=0.5,
                             n_samples=2000, seed=0)


# ------------------------------------------------------------------ sampling

def test_spec_validation():
    with pytest.raises(ValueError):
        UncertaintySpec(omega_rel_sigma=-0.1)
    with pytest.raises(ValueError):
        UncertaintySpec(n_samples=50)
    with pytest.raises(ValueError):
        UncertaintySpec(seed=-1)
    assert ZERO.is_zero and not NOMINAL_MC.is_zero


@pytest.mark.parametrize("field", ["omega_rel_sigma", "delta_sigma", "epsilon_q_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite_sigma(field, value):
    with pytest.raises(ValueError, match="finite"):
        UncertaintySpec(**{field: value})


def test_spec_caps_sample_count():
    assert UncertaintySpec(n_samples=10**6).n_samples == 10**6
    with pytest.raises(ValueError, match="1000000"):
        UncertaintySpec(n_samples=10**6 + 1)


@pytest.mark.parametrize("field, cap", [("omega_rel_sigma", 100.0), ("delta_sigma", 1e4),
                                        ("epsilon_q_sigma", 1e4)])
def test_spec_caps_each_sigma_by_name(field, cap):
    assert getattr(UncertaintySpec(**{field: cap}), field) == cap
    for value in (np.nextafter(cap, np.inf), 1e300):
        with pytest.raises(ValueError, match=f"^{field} must be finite, >= 0 and <= {cap:g}$"):
            UncertaintySpec(**{field: value})


def draw(omega, delta, spec):
    out = np.empty((3, spec.n_samples))
    _draw_samples(np.random.default_rng(spec.seed), omega, delta, 0.65, spec, out)
    return out


def test_draw_samples_matches_hand_rolled_normals_in_order():
    spec = UncertaintySpec(omega_rel_sigma=0.5, delta_sigma=0.5, epsilon_q_sigma=0.05,
                           n_samples=100, seed=2)
    rng = np.random.default_rng(spec.seed)
    omegas = rng.normal(1.0, 0.5, 100)
    bad = omegas < 0
    assert bad.any()
    omegas[bad] = rng.normal(1.0, 0.5, int(bad.sum()))
    assert omegas.min() >= 0  # one redraw round suffices at this seed
    deltas = rng.normal(-1.0, 0.5, 100)
    assert deltas.min() < 0  # delta is never redrawn
    epsilons = rng.normal(0.65, 0.05, 100)
    assert epsilons.min() >= 0
    got = draw(1.0, -1.0, spec)
    assert np.array_equal(got, np.stack([omegas, deltas, epsilons]))


def test_draw_samples_deterministic():
    a = draw(5.4, 0.0, NOMINAL_MC)
    b = draw(5.4, 0.0, NOMINAL_MC)
    assert all(x.shape == (NOMINAL_MC.n_samples,) for x in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_draw_samples_mean_tracks_nominal():
    spec = UncertaintySpec(omega_rel_sigma=0.10, delta_sigma=0.5,
                           n_samples=10000, seed=3)
    omegas, deltas, epsilons = draw(5.4, -1.0, spec)
    assert abs(np.mean(omegas) / 5.4 - 1.0) < 0.01
    assert abs(np.mean(deltas) + 1.0) < 0.02
    assert np.all(epsilons == 0.65)


def test_draw_samples_redraws_negative_couplings():
    spec = UncertaintySpec(omega_rel_sigma=1.0, delta_sigma=0.0,
                           n_samples=5000, seed=1)
    omegas, _, _ = draw(0.5, 0.0, spec)
    assert omegas.min() >= 0.0


# ----------------------------------------------------------- zero-width band

def test_zero_sigma_band_equals_single_minimum_solve():
    omegas = [1.1, 5.4, 8.0, 12.0]
    band = ratio_band_vs_omega(omegas, 0.0, ZERO)
    for i, om in enumerate(omegas):
        state = find_band_minimum(RamanParams(omega_r=om, delta=0.0))
        assert band.mean[i] == rate_ratio(tuple(state.coeffs))
    assert np.all(band.std == 0.0)
    assert np.array_equal(band.lower, band.mean)
    assert np.array_equal(band.upper, band.mean)


def test_zero_sigma_frozen_endpoints():
    band = ratio_band_vs_omega([0.001, 12.0], 0.0, ZERO)
    assert band.mean[0] == pytest.approx(1.0, abs=1e-6)
    assert band.mean[1] == pytest.approx(0.06983504105806265, rel=1e-12)
    noint = ratio_band_vs_omega([12.0], 0.0, ZERO, interference=False)
    assert noint.mean[0] == pytest.approx(0.5349175205290313, rel=1e-12)


def test_zero_sigma_delta_sweep_is_symmetric():
    deltas = np.linspace(0.0, 3.0, 7)
    plus = ratio_band_vs_delta(deltas, 5.4, ZERO)
    minus = ratio_band_vs_delta(-deltas, 5.4, ZERO)
    assert np.max(np.abs(plus.mean - minus.mean)) < 1e-12


# -------------------------------------------------------------- MC bands

SWEEP = np.linspace(0.0, 12.0, 25)


def _sweep(spec):
    bands = ratio_bands(SWEEP, SWEEP, 0.3, spec, 0.65)
    return np.stack([getattr(b, f) for f in ("mean", "std", "nominal") for b in bands])


def test_band_nominal_curve_is_the_zero_width_band():
    spec = UncertaintySpec(n_samples=300, seed=4)
    zero = ratio_bands(SWEEP, SWEEP, 0.3, ZERO, 0.65)
    bands = ratio_bands(SWEEP, SWEEP, 0.3, spec, 0.65)
    for z, band in zip(zero, bands):
        assert np.array_equal(band.nominal, z.mean)
        assert np.array_equal(z.nominal, z.mean)
        assert np.all(z.std == 0.0)
    direct = band_minima(SWEEP, 0.3, 0.65)[2]
    assert np.array_equal(bands[0].nominal, [rate_ratio(c) for c in direct])
    assert np.array_equal(bands[1].nominal, [rate_ratio_no_interference(c) for c in direct])
    # each wrapper is one variant of the same solve
    by_delta = ratio_bands(SWEEP, 5.4, SWEEP, spec, 0.65)
    for k, interference in enumerate((True, False)):
        for got, want in ((ratio_band_vs_omega(SWEEP, 0.3, spec, interference, 0.65), bands[k]),
                          (ratio_band_vs_delta(SWEEP, 5.4, spec, interference, 0.65),
                           by_delta[k])):
            for field in dataclasses.fields(RatioBand):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="axis"):
            ratio_bands([0.0, bad], [1.0, 2.0], 0.3, ZERO)


@pytest.mark.parametrize("spec", [NOMINAL_MC, UncertaintySpec(n_samples=200, seed=9,
                                                              epsilon_q_sigma=0.05), ZERO])
def test_band_grouping_does_not_change_results(monkeypatch, spec):
    calls = []

    def counted(*args):
        calls.append(np.size(args[0]))
        return band_minima(*args)

    monkeypatch.setattr(uncertainty, "band_minima", counted)
    width = 1 if spec.is_zero else spec.n_samples + 1
    results = []
    # one solve; three whole blocks and half a fourth per solve; one block per solve
    for rows, solves in ((uncertainty._SOLVE_ROWS, 1), (3 * width + width // 2, 9), (1, 25)):
        monkeypatch.setattr(uncertainty, "_SOLVE_ROWS", rows)
        calls.clear()
        results.append(_sweep(spec))
        assert len(calls) == solves and sum(calls) == 25 * width
    for result in results[1:]:
        assert np.array_equal(result, results[0])


def test_band_envelope_invariants():
    band = ratio_band_vs_omega(np.linspace(0.5, 12.0, 9), 0.0, NOMINAL_MC)
    assert np.all(band.lower <= band.mean + 1e-15)
    assert np.all(band.mean <= band.upper + 1e-15)
    assert np.all(band.lower >= 0.0) and np.all(band.upper <= 1.05)
    assert np.all(band.std > 0.0)


def test_band_interference_below_no_interference():
    axis = np.linspace(1.0, 12.0, 6)
    full = ratio_band_vs_omega(axis, 0.0, NOMINAL_MC)
    noint = ratio_band_vs_omega(axis, 0.0, NOMINAL_MC, interference=False)
    assert full.variant == "with-interference"
    assert noint.variant == "without-interference"
    assert np.all(full.mean <= noint.mean + 1e-12)


def test_band_deterministic():
    axis = [2.0, 5.4, 9.0]
    a = ratio_band_vs_omega(axis, 0.0, NOMINAL_MC)
    b = ratio_band_vs_omega(axis, 0.0, NOMINAL_MC)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)


def test_band_mirrored_delta_sweep_symmetric_to_mc_error():
    """Per-point substreams reuse the same draws at equal indices, so the
    mirror asymmetry is set by the sampling noise alone."""
    deltas = np.linspace(0.0, 3.0, 7)
    plus = ratio_band_vs_delta(deltas, 5.4, NOMINAL_MC)
    minus = ratio_band_vs_delta(-deltas, 5.4, NOMINAL_MC)
    assert np.max(np.abs(plus.mean - minus.mean)) < 0.02


def test_band_strong_coupling_suppression_with_spread():
    band = ratio_band_vs_omega([5.4], 0.0, NOMINAL_MC)
    assert 0.2 < band.mean[0] < 0.35
    assert 0.0 < band.std[0] < 0.2


def test_band_rejects_empty_axis():
    with pytest.raises(ValueError):
        ratio_band_vs_omega([], 0.0, ZERO)


@pytest.mark.parametrize("omegas", [[-1.0, 5.0], [1.0, np.inf], [np.nan]])
def test_band_rejects_negative_or_nonfinite_coupling(omegas):
    for spec in (ZERO, NOMINAL_MC):
        with pytest.raises(ValueError):
            ratio_band_vs_omega(omegas, 0.0, spec)


@pytest.mark.parametrize("epsilon_q", [-1.0, math.nan, math.inf])
def test_band_rejects_negative_or_nonfinite_epsilon_q(epsilon_q):
    """A nominal epsilon_q far below 0 used to redraw its samples forever."""
    spec = UncertaintySpec(epsilon_q_sigma=0.05, n_samples=100)
    with pytest.raises(ValueError, match="epsilon_q"):
        ratio_band_vs_omega([5.0], 0.0, spec, epsilon_q=epsilon_q)


def test_band_dressed_minimum_ratio_ordering_per_draw():
    # same coefficients feed both variants, so the ordering survives averaging
    state = find_band_minimum(RamanParams(omega_r=7.0, delta=1.0))
    c = tuple(state.coeffs)
    assert rate_ratio(c) <= rate_ratio_no_interference(c) + 1e-12


# ------------------------------------------------------------------- CSV out

def test_write_ratio_band_csv(tmp_path):
    axis = [1.0, 5.4]
    full = ratio_band_vs_omega(axis, 0.0, ZERO)
    noint = ratio_band_vs_omega(axis, 0.0, ZERO, interference=False)
    path = tmp_path / "bands.csv"
    write_ratio_band_csv(path, [full, noint])
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "axis_value_Er,mean,lower,upper,variant"
    assert len(lines) == 1 + 2 * len(axis)
    assert sum(ln.endswith(",with-interference") for ln in lines[1:]) == 2
    assert sum(ln.endswith(",without-interference") for ln in lines[1:]) == 2
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(full.mean[0], rel=1e-10)
