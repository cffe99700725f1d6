"""Band-structure solver: Hamiltonian build, diagonalization, minima."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ramanpa.dressed_states as ds
from ramanpa.constants import EPSILON_Q_ER
from ramanpa.dressed_states import (
    DRESSING_LIMIT_ER,
    Q_WINDOW,
    SCAN_STEP,
    RamanParams,
    _apply_sign_convention,
    _hamiltonians,
    _lowest_eigenvalue,
    band_curve,
    band_minima,
    build_hamiltonian,
    coefficients_vs_delta,
    find_band_minimum,
)
from ramanpa.uncertainty import UncertaintySpec, ratio_band_vs_delta, ratio_band_vs_omega

# lowest eigenvalue of [[4,6,0],[6,-0.65,6],[0,6,4]] from the symmetric/
# antisymmetric 2x2 block reduction: 1.675 - sqrt(2.325^2 + 72)
LOW_12 = 0.5 * (4.0 - 0.65) - math.hypot(0.5 * (4.0 + 0.65), 6.0 * math.sqrt(2.0))

# find_band_minimum(omega_r=5.4, delta=+2.5), frozen from the grid-scan +
# derivative-bisection run cross-checked against a dense-grid eigh argmin
QSTAR_54_25 = -1.5413709072652129
E_54_25 = -3.7286419236177353
COEFFS_54_25 = (-0.8804781972628998, 0.4692565843139052, -0.06750112756629045)


def params(omega=0.0, delta=0.0, **kw):
    return RamanParams(omega_r=omega, delta=delta, **kw)


# ---------------------------------------------------------------- hamiltonian

def test_hamiltonian_decoupled_limit():
    h = build_hamiltonian(0.0, params(0.0, 0.0))
    assert np.array_equal(h, np.diag([4.0, -0.65, 4.0]))


def test_hamiltonian_direct_substitution():
    h = build_hamiltonian(0.0, params(12.0, 0.0))
    assert np.array_equal(h, np.array([[4.0, 6.0, 0.0],
                                       [6.0, -0.65, 6.0],
                                       [0.0, 6.0, 4.0]]))


def test_hamiltonian_q1_detuned():
    h = build_hamiltonian(1.0, params(0.0, 1.0, epsilon_q=0.0))
    assert np.array_equal(h, np.diag([8.0, 1.0, 2.0]))


def test_hamiltonian_rejects_negative_coupling():
    with pytest.raises(ValueError):
        params(-1.0, 0.0)


@pytest.mark.parametrize("field", ["omega_r", "delta", "epsilon_q", "recoil_energy_hz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_raman_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        RamanParams(**{"omega_r": 5.0, field: value})


@pytest.mark.parametrize("field", ["omega_r", "delta", "epsilon_q"])
def test_raman_params_reject_unresolvable_scale(field):
    RamanParams(**{"omega_r": 5.0, field: DRESSING_LIMIT_ER})
    with pytest.raises(ValueError, match="<= 1e\\+06"):
        RamanParams(**{"omega_r": 5.0, field: 2.0 * DRESSING_LIMIT_ER})
    if field == "delta":
        with pytest.raises(ValueError, match="<= 1e\\+06"):
            RamanParams(omega_r=5.0, delta=-1e200)


# ----------------------------------------------------------------- band curve

def test_band_curve_decoupled_parabolas():
    """With zero coupling the lowest band is the pointwise parabola minimum."""
    curve = band_curve(params(0.0, 0.0), -3.0, 3.0, 241)
    q = curve.q_grid
    expect = np.min(np.stack([(q + 2.0) ** 2, q * q - 0.65, (q - 2.0) ** 2]), axis=0)
    assert np.max(np.abs(curve.energies[:, 0] - expect)) < 1e-12


def test_band_curve_strong_coupling_minimum():
    curve = band_curve(params(12.0, 0.0), -3.0, 3.0, 1201)
    i = int(np.argmin(curve.energies[:, 0]))
    assert curve.q_grid[i] == pytest.approx(0.0, abs=0.01)
    assert np.min(curve.energies[:, 0]) == pytest.approx(LOW_12, abs=1e-6)


def test_band_curve_sorted_and_weights_normalized():
    curve = band_curve(params(5.4, 2.5), -3.0, 3.0, 101)
    assert np.all(np.diff(curve.energies, axis=1) >= 0)
    assert np.all(np.isfinite(curve.energies))
    sums = curve.spin_weights.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


@pytest.mark.parametrize("q_min, q_max, n_points", [
    (-1e200, 1e200, 5), (-3.0, 1001.0, 5), (math.nan, 3.0, 5), (1.0, 1.0, 5),
    (-3.0, 3.0, 1), (-3.0, 3.0, ds._MAX_BAND_POINTS + 1),
])
def test_band_curve_rejects_grid_before_allocating(q_min, q_max, n_points):
    """A grid past q^2 <= 1e6 E_r overflowed H(q); one past the point cap
    allocated n x 3 x 3 arrays. Each raises ValueError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"n_points <= {ds._MAX_BAND_POINTS}"):
            band_curve(params(5.4, 0.0), q_min, q_max, n_points)


# --------------------------------------------------------------- band minimum

def test_minimum_bare_state():
    state = find_band_minimum(params(0.0, 0.0))
    assert state.q == 0.0
    assert state.energy == -0.65
    assert state.coeffs == (0.0, 1.0, 0.0)


def test_minimum_strong_coupling():
    state = find_band_minimum(params(12.0, 0.0))
    assert state.q == pytest.approx(0.0, abs=1e-9)
    assert state.energy == pytest.approx(LOW_12, abs=1e-10)
    assert state.coeffs[0] == pytest.approx(-0.42887550520754025, abs=1e-8)
    assert state.coeffs[1] == pytest.approx(0.7950670424976463, abs=1e-8)
    assert state.coeffs[2] == pytest.approx(state.coeffs[0], abs=1e-10)


def test_minimum_infinite_coupling_limit():
    """Kinetic and quadratic-Zeeman terms become negligible at huge coupling."""
    state = find_band_minimum(params(1.0e5, 0.0))
    limit = (-0.5, math.sqrt(0.5), -0.5)
    assert state.q == pytest.approx(0.0, abs=1e-6)
    assert max(abs(c - l) for c, l in zip(state.coeffs, limit)) < 1e-4


def test_minimum_shifted_by_detuning():
    state = find_band_minimum(params(5.4, 2.5))
    assert state.q == pytest.approx(QSTAR_54_25, abs=1e-9)
    assert state.energy == pytest.approx(E_54_25, abs=1e-10)
    for got, want in zip(state.coeffs, COEFFS_54_25):
        assert got == pytest.approx(want, abs=1e-8)


def test_minimum_detuning_mirror():
    plus = find_band_minimum(params(5.4, 2.5))
    minus = find_band_minimum(params(5.4, -2.5))
    assert minus.q == pytest.approx(-plus.q, abs=1e-9)
    assert minus.energy == pytest.approx(plus.energy, abs=1e-10)
    for a, b in zip(minus.coeffs, reversed(plus.coeffs)):
        assert a == pytest.approx(b, abs=1e-9)


def test_minimum_coeffs_normalized_and_sign_fixed():
    for delta in (-2.5, -1.0, 0.0, 0.7, 2.5):
        state = find_band_minimum(params(5.4, delta))
        assert sum(c * c for c in state.coeffs) == pytest.approx(1.0, abs=1e-12)
        assert state.coeffs[1] >= 0.0


@pytest.mark.parametrize("omega, delta, eps", [
    (math.nan, 0.0, 0.65), (5.4, math.inf, 0.65), (5.4, 0.0, -math.inf),
    ([5.4, math.nan], 0.0, 0.65),
])
def test_band_minima_rejects_non_finite(omega, delta, eps):
    with pytest.raises(ValueError, match="finite"):
        band_minima(omega, delta, eps)


@pytest.mark.parametrize("omega, delta, eps", [
    (1e200, 0.0, 0.65), (5.4, -1e200, 0.65), (5.4, 0.0, 2e6), ([5.4, 2e6], 0.0, 0.65),
])
def test_band_minima_rejects_unresolvable_scale(omega, delta, eps):
    with pytest.raises(ValueError, match="<= 1e\\+06"):
        band_minima(omega, delta, eps)


def test_band_minima_at_the_dressing_limit():
    """At the bound the minimum is still resolved, with no overflow warning."""
    lim = DRESSING_LIMIT_ER
    omega = np.array([lim, 0.0, lim, 5.4])
    delta = np.array([0.0, lim, -lim, 3.0])
    eps = np.array([0.65, 0.65, 0.65, lim])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, e, c = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
        q_ref, _, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    assert q[0] == pytest.approx(0.0, abs=1e-12) and q[1] == pytest.approx(-2.0, abs=1e-12)
    vals = np.linalg.eigvalsh(_hamiltonians(q, omega, delta, eps))[:, 0]
    assert np.all(np.abs(e - vals) <= 1e-12 * np.abs(vals))
    dedq = 2.0 * (c[:, 0] ** 2 * (q + 2.0) + c[:, 1] ** 2 * q + c[:, 2] ** 2 * (q - 2.0))
    assert np.max(np.abs(dedq)) < 1e-8


def test_band_minima_broadcasts():
    omegas = np.array([0.0, 5.4, 12.0])
    qs, es, vecs = band_minima(omegas, 0.0)
    assert qs.shape == (3,) and es.shape == (3,) and vecs.shape == (3, 3)
    one = find_band_minimum(params(5.4, 0.0))
    assert qs[1] == one.q and es[1] == one.energy
    assert tuple(vecs[1]) == one.coeffs


# --------------------------------------------------- coefficients vs detuning

def test_coefficients_vs_delta_matches_single_calls():
    deltas = [-2.5, 0.0, 2.5]
    states = coefficients_vs_delta(params(5.4, 0.0), deltas)
    assert len(states) == 3
    for delta, state in zip(deltas, states):
        direct = find_band_minimum(params(5.4, delta))
        assert state.q == direct.q
        assert state.coeffs == direct.coeffs


def test_coefficients_equal_magnitude_at_zero_detuning():
    state = find_band_minimum(params(5.4, 0.0))
    assert abs(state.coeffs[0]) == pytest.approx(abs(state.coeffs[2]), abs=1e-10)


def test_polarization_grows_with_detuning():
    """Larger |delta| pushes the dressed state onto one edge component.

    Frozen dominant weights at omega_r = 5.4: the edge share rises
    monotonically and crosses 0.9 near |delta| = 5.
    """
    maxw = []
    for delta in (-2.0, -2.5, -3.0, -4.0, -5.0):
        state = coefficients_vs_delta(params(5.4, 0.0), [delta])[0]
        w = state.weights
        assert max(w) == max(w[0], w[2])  # dominant weight sits on an edge
        maxw.append(max(w))
    assert maxw == sorted(maxw)
    assert maxw[0] == pytest.approx(0.7044910578629864, abs=1e-8)
    assert maxw[1] == pytest.approx(0.7752418558553259, abs=1e-8)
    assert maxw[-1] > 0.9


# ------------------------------------------------------------------ invariants

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
coupling = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)
quasim = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=75, deadline=None)
@given(q=quasim, omega=coupling, delta=finite)
def test_spectrum_mirror_symmetry(q, omega, delta):
    """E(q; delta) = E(-q; -delta) band by band."""
    a = np.linalg.eigvalsh(build_hamiltonian(q, params(omega, delta)))
    b = np.linalg.eigvalsh(build_hamiltonian(-q, params(omega, -delta)))
    assert np.max(np.abs(a - b)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(omega=coupling, delta=st.floats(min_value=-4.0, max_value=4.0))
def test_minimum_really_is_a_minimum(omega, delta):
    state = find_band_minimum(params(omega, delta))
    p = params(omega, delta)
    for dq in (-2e-4, 2e-4):
        probe = np.linalg.eigvalsh(build_hamiltonian(state.q + dq, p))[0]
        assert probe >= state.energy - 1e-10


# ------------------------------------------------------ dense-grid oracle

def test_band_minima_mc_step_matches_dense_oracle():
    """Coarse scan plus Newton at the production step finds the dense-grid minima,
    on random rows and on the CLI's default nominal rows: the ratio-sweep omega
    axis (0..12, 25 points, delta 0), its delta axis (-2.5..2.5, 21 points,
    omega 8) and the coeffs default (omega 8, delta 0)."""
    rng = np.random.default_rng(1807)
    n = 20000
    cli_omega = np.concatenate([np.linspace(0.0, 12.0, 25), np.full(21, 8.0), [8.0]])
    cli_delta = np.concatenate([np.zeros(25), np.linspace(-2.5, 2.5, 21), [0.0]])
    omega = np.concatenate([rng.uniform(0.0, 15.0, n), cli_omega])
    delta = np.concatenate([rng.uniform(-4.0, 4.0, n), cli_delta])
    eps = np.concatenate([rng.uniform(0.0, 2.0, n), np.full(cli_omega.size, EPSILON_Q_ER)])
    q, _, c = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    q_ref, _, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    # Hellmann-Feynman: dE/dq = sum_m |C_m|^2 dH_mm/dq
    dedq = 2.0 * (c[:, 0] ** 2 * (q + 2.0) + c[:, 1] ** 2 * q + c[:, 2] ** 2 * (q - 2.0))
    assert np.max(np.abs(dedq)) < 1e-8


@pytest.mark.parametrize("n_rows, step", [(20000, SCAN_STEP), (2000, 1e-3)])
def test_band_minima_memory_is_bounded(n_rows, step):
    rng = np.random.default_rng(11)
    omega = rng.uniform(0.0, 15.0, n_rows)
    delta = rng.uniform(-4.0, 4.0, n_rows)
    tracemalloc.start()
    try:
        band_minima(omega, delta, 0.65, scan_step=step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _count_scan_blocks(monkeypatch):
    """Spy on _lowest_eigenvalue; the returned dict sums the rows and cells
    of every (grid x rows) scan block."""
    true_root = ds._lowest_eigenvalue
    count = {"rows": 0, "cells": 0}

    def root(q, omega, delta, epsilon_q, **kw):
        out = true_root(q, omega, delta, epsilon_q, **kw)
        if out.ndim == 2:  # the (grid x rows) scan block
            count["rows"] += out.shape[1]
            count["cells"] += out.size
        return out

    monkeypatch.setattr(ds, "_lowest_eigenvalue", root)
    return count


def test_band_minima_work_per_sample(monkeypatch):
    """A seeded Monte Carlo batch scans 41 cells per row and passes at most
    2.75 rows per sample to the Newton slope: wells start at their parabolic
    vertex and converged rows stop iterating."""
    true_slope = ds._slope
    count = _count_scan_blocks(monkeypatch)
    count["slope"] = 0

    def slope(q, omega, delta, epsilon_q):
        count["slope"] += np.size(q)
        return true_slope(q, omega, delta, epsilon_q)

    monkeypatch.setattr(ds, "_slope", slope)
    n = 20000
    ratio_band_vs_delta([0.0], 5.4, UncertaintySpec(n_samples=n, seed=7))
    # the point's nominal row is solved with its draws
    assert count["rows"] == n + 1
    assert count["cells"] == 41 * (n + 1)
    assert count["slope"] <= 2.75 * n


def test_every_caller_scans_at_the_production_step(monkeypatch):
    """Nominal solves and Monte Carlo samples share one scan: 41 cells per row."""
    zero = UncertaintySpec(omega_rel_sigma=0.0, delta_sigma=0.0, n_samples=100)
    callers = {
        "find_band_minimum": lambda: find_band_minimum(params(8.0, 0.5)),
        "coefficients_vs_delta": lambda: coefficients_vs_delta(
            params(8.0), np.linspace(-2.5, 2.5, 21)),
        "zero-width ratio_band_vs_omega": lambda: ratio_band_vs_omega(
            np.linspace(0.0, 12.0, 25), 0.0, zero),
        "Monte Carlo ratio_band_vs_delta": lambda: ratio_band_vs_delta(
            [-1.0, 1.0], 8.0, UncertaintySpec(n_samples=200, seed=3)),
    }
    count = _count_scan_blocks(monkeypatch)
    for name, call in callers.items():
        count["rows"] = count["cells"] = 0
        call()
        assert count["rows"] > 0, name
        assert count["cells"] == 41 * count["rows"], name


def test_band_is_monotone_outside_the_search_window():
    """The lowest eigenvalue falls strictly over [-3, -2] and rises strictly over
    [2, 3], so the default window loses no minimum of the wider one."""
    rng = np.random.default_rng(515)
    n = 400
    omega = rng.uniform(0.0, 15.0, n)
    omega[:60] = 0.0
    delta = rng.uniform(-4.0, 4.0, n)
    eps = rng.uniform(0.0, 2.0, n)

    def lowest(qs):
        return np.linalg.eigvalsh(_hamiltonians(
            qs[None, :], omega[:, None], delta[:, None], eps[:, None]))[..., 0]

    assert np.all(np.diff(lowest(np.linspace(-3.0, -2.0, 101)), axis=1) < 0.0)
    assert np.all(np.diff(lowest(np.linspace(2.0, 3.0, 101)), axis=1) > 0.0)
    assert Q_WINDOW == (-2.0, 2.0)
    for step in (SCAN_STEP, 1e-3):
        q, e, c = band_minima(omega, delta, eps, scan_step=step)
        q_w, e_w, c_w = band_minima(omega, delta, eps, scan_step=step, q_window=(-3.0, 3.0))
        assert np.max(np.abs(q - q_w)) < 1e-12
        assert np.max(np.abs(e - e_w)) < 1e-12
        assert np.max(np.abs(c - c_w)) < 1e-12


def test_closed_form_eigenvalue_matches_eigvalsh():
    """The scan's closed-form root against LAPACK on random (q, omega, delta, eps_q)."""
    rng = np.random.default_rng(2024)
    n_rows, n_q = 400, 150
    omega = rng.uniform(0.0, 15.0, n_rows)
    omega[:40] = 0.0
    delta = rng.uniform(-4.0, 4.0, n_rows)
    eps = rng.uniform(0.0, 2.0, n_rows)
    qs = rng.uniform(-3.0, 3.0, n_q)
    ref = np.linalg.eigvalsh(_hamiltonians(qs[None, :], omega[:, None], delta[:, None],
                                           eps[:, None]))[..., 0]
    tol = 1e-12 * np.maximum(1.0, np.abs(ref))
    # the (grid x rows) block of the scan and the flat rows of the refinement
    block = _lowest_eigenvalue(qs[:, None], omega, delta, eps)
    assert np.all(np.abs(block.T - ref) <= tol)
    q_flat = np.broadcast_to(qs, ref.shape).ravel()
    flat = _lowest_eigenvalue(q_flat, *(np.repeat(v, n_q) for v in (omega, delta, eps)))
    assert np.all(np.abs(flat - ref.ravel()) <= tol.ravel())


def test_slope_matches_eigvalsh_differences():
    """_slope's E' and E'' against central differences of the LAPACK lowest band,
    on random rows and on weak-coupling rows at the bare (-1, 0) and (0, +1)
    crossings, wherever the lowest gap is at least 1e-3 E_r. Each step is a
    small fraction of the gap, so the differences resolve the avoided crossing."""
    rng = np.random.default_rng(1961)
    n = 2000
    omega, delta = rng.uniform(0.0, 15.0, n), rng.uniform(-4.0, 4.0, n)
    eps, q = rng.uniform(0.0, 2.0, n), rng.uniform(-2.5, 2.5, n)
    omega[:200] = 0.0
    cross = slice(200, 1000)
    omega[cross] = rng.uniform(1e-3, 0.05, 800)
    side = rng.choice([-1.0, 1.0], 800)
    q[cross] = (side * (4.0 + eps[cross]) + delta[cross]) / 4.0 + rng.normal(0.0, 1e-3, 800)
    vals = np.linalg.eigvalsh(_hamiltonians(q, omega, delta, eps))
    gap = vals[:, 1] - vals[:, 0]
    keep = gap >= 1e-3
    assert np.sum(gap[keep] < 1e-2) > 50  # near-crossing rows really are in
    q, omega, delta, eps, gap = q[keep], omega[keep], delta[keep], eps[keep], gap[keep]

    def band(dq):
        return np.linalg.eigvalsh(_hamiltonians(q + dq, omega, delta, eps))[:, 0]

    slope, curvature = ds._slope(q, omega, delta, eps)
    h = 1e-4 * np.minimum(1.0, gap)
    ref = (band(h) - band(-h)) / (2.0 * h)
    assert np.all(np.abs(slope - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))
    h = 3e-4 * np.minimum(1.0, gap)
    ref = (band(h) - 2.0 * vals[keep, 0] + band(-h)) / (h * h)
    assert np.all(np.abs(curvature - ref) <= 2e-4 * np.maximum(1.0, np.abs(ref)))
    assert np.min(curvature) < -1e3  # the crossings bend the band sharply


def _multi_well_rows(n=600):
    """Weak-coupling rows near delta = 0, more than a quarter with several grid wells."""
    rng = np.random.default_rng(77)
    return rng.uniform(0.0, 2.0, n), rng.uniform(-0.7, 0.7, n), rng.uniform(0.0, 2.0, n)


def test_band_minima_multi_well_rows():
    """Rows with several grid wells pick the same global minimum at both steps.

    The energies are also checked against a dense eigvalsh grid, which shares
    no code with the scan: the refined minimum lies at or below every sample.
    """
    omega, delta, eps = _multi_well_rows()
    n = omega.size
    coarse = np.linspace(*Q_WINDOW, int(round((Q_WINDOW[1] - Q_WINDOW[0]) / SCAN_STEP)) + 1)
    energy = np.pad(_lowest_eigenvalue(coarse, omega[:, None], delta[:, None], eps[:, None]),
                    ((0, 0), (1, 1)), constant_values=np.inf)
    inner = energy[:, 1:-1]
    wells = ((inner <= energy[:, :-2]) & (inner <= energy[:, 2:])).sum(axis=1)
    assert np.sum(wells >= 2) > n // 4  # the multi-candidate path really runs

    q, e, _ = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    q_ref, e_ref, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    assert np.max(np.abs(e - e_ref)) < 1e-10

    dense = np.linspace(*Q_WINDOW, 3001)
    for rows in np.array_split(np.arange(n), 12):
        grid_min = np.linalg.eigvalsh(_hamiltonians(
            dense[None, :], omega[rows, None], delta[rows, None], eps[rows, None]))[..., 0]
        assert np.all(e[rows] <= grid_min.min(axis=1) + 1e-12)


# ------------------------------------------------------ wells that can win

def test_lowest_band_curvature_is_at_most_two():
    """E(q) - q^2 is the lowest eigenvalue of A + q diag(4, 0, -4), a minimum of
    functions affine in q, so E'' <= 2: the bound the well prune rests on."""
    rng = np.random.default_rng(5150)
    n = 300
    omega = rng.uniform(0.0, 15.0, n)
    omega[:60] = 0.0
    delta = rng.uniform(-4.0, 4.0, n)
    delta[60:120] = rng.uniform(-100.0, 100.0, 60)
    eps = rng.uniform(0.0, 2.0, n)
    h = 0.01
    qs = np.arange(-300, 301) * h
    for rows in np.array_split(np.arange(n), 6):
        e = np.linalg.eigvalsh(_hamiltonians(
            qs[None, :], omega[rows, None], delta[rows, None], eps[rows, None]))[..., 0]
        second = (e[:, 2:] - 2.0 * e[:, 1:-1] + e[:, :-2]) / (h * h)
        rounding = 64 * np.finfo(float).eps * np.abs(e).max(axis=1, keepdims=True) / (h * h)
        assert np.all(second <= 2.0 + rounding)
        assert np.min(second) < 1.0  # the rows really bend below the bare parabola


def test_band_minima_refines_only_wells_that_can_win(monkeypatch):
    """On the multi-well rows, wells more than step^2 above their row's grid
    minimum skip Newton: at most 2.5 slope rows per row (9.5 when every grid
    well is refined from its grid point)."""
    omega, delta, eps = _multi_well_rows()
    q_all, e_all, c_all = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    true_slope = ds._slope
    count = {"slope": 0}

    def slope(q, omega, delta, epsilon_q):
        count["slope"] += np.size(q)
        return true_slope(q, omega, delta, epsilon_q)

    monkeypatch.setattr(ds, "_slope", slope)
    q, e, c = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    assert count["slope"] <= 2.5 * omega.size
    assert np.array_equal(q, q_all) and np.array_equal(e, e_all) and np.array_equal(c, c_all)


def test_band_minima_rows_do_not_depend_on_their_batch():
    """Rows with omega and |delta| from 1e-3 to 1e3 E_r, some at delta = 0, give
    the same bits solved in one call, one at a time and in reverse order: a
    row's start, stop and winner read only that row."""
    rng = np.random.default_rng(2929)
    n = 120
    omega = 10.0 ** rng.uniform(-3.0, 3.0, n)
    delta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    delta[::6] = 0.0
    eps = rng.uniform(0.0, 2.0, n)
    together = band_minima(omega, delta, eps)
    alone = [np.concatenate(v)
             for v in zip(*(band_minima(*row) for row in zip(omega, delta, eps)))]
    reverse = [v[::-1] for v in band_minima(omega[::-1], delta[::-1], eps[::-1])]
    for got in (alone, reverse):
        for a, b in zip(together, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("step, top, dtype", [
    (SCAN_STEP, 999.0, np.float32), (SCAN_STEP, 1e5, np.float64), (1e-3, 1e5, np.float64),
])
def test_degenerate_wells_at_zero_detuning(step, top, dtype, monkeypatch):
    """At delta = 0 the band is even in q, so wells come in exactly degenerate
    mirror pairs (with eps_q = 0 and omega = 0 the wells at -2, 0 and 2 tie);
    on both scan dtypes the prune keeps every well that ties for the minimum,
    so q* >= 0 and the energy matches a dense eigvalsh grid."""
    rng = np.random.default_rng(606)
    omega = np.concatenate([np.zeros(4), np.linspace(0.0, 16.0, 97),
                            4.0 * step * rng.uniform(0.5, 2.0, 40),
                            10.0 ** rng.uniform(-3.0, np.log10(top), 99), [top]])
    eps = rng.uniform(0.0, 2.0, omega.size)
    eps[:4] = 0.0
    eps[101:141] = 0.0  # edge wells within about step^2 of the centre one
    seen = _scan_dtypes(monkeypatch)
    q, e, _ = band_minima(omega, 0.0, eps, scan_step=step)
    assert set(seen) == {np.dtype(dtype)}
    assert np.all(q >= 0.0)
    assert q[0] == 0.0
    dense = np.linspace(*Q_WINDOW, 4001)
    for rows in np.array_split(np.arange(omega.size), 8):
        vals = np.linalg.eigvalsh(_hamiltonians(
            dense[None, :], omega[rows, None], 0.0, eps[rows, None]))[..., 0]
        low = vals.min(axis=1)
        assert np.all(e[rows] <= low + 1e-12 * np.maximum(1.0, np.abs(low)))
        assert np.all(np.abs(q[rows]) <= np.abs(dense[np.argmin(vals, axis=1)]) + 1e-3)


# --------------------------------------------------------- eigh-free kernel

def _kernel_rows(n=3000):
    """Random rows, with a block at omega = 0 and a block at delta = 0."""
    rng = np.random.default_rng(4242)
    omega = rng.uniform(0.0, 15.0, n)
    delta = rng.uniform(-4.0, 4.0, n)
    eps = rng.uniform(0.0, 2.0, n)
    omega[: n // 6] = 0.0
    delta[n // 6: n // 3] = 0.0
    return omega, delta, eps


@pytest.mark.parametrize("step", [SCAN_STEP, 1e-3])
def test_band_minima_state_matches_eigh(step):
    """Closed-form vectors and Rayleigh energies against LAPACK at the returned q*."""
    omega, delta, eps = _kernel_rows()
    q, e, c = band_minima(omega, delta, eps, scan_step=step)
    vals, vecs = np.linalg.eigh(_hamiltonians(q, omega, delta, eps))
    assert np.max(np.abs(c - _apply_sign_convention(vecs[:, :, 0]))) < 1e-14
    assert np.all(np.abs(e - vals[:, 0]) <= 1e-12 * np.maximum(1.0, np.abs(vals[:, 0])))
    assert not np.any(np.signbit(c) & (c == 0.0))  # no -0.0 reaches the outputs
    assert np.all(c[:, 1] >= 0.0)


def test_band_minima_makes_no_linalg_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("band_minima called np.linalg")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    omega, delta, eps = _kernel_rows(300)
    q, e, c = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(c))
    assert find_band_minimum(params(0.0, 0.0)).coeffs == (0.0, 1.0, 0.0)


def _stacked_state(q, lam, omega, delta, eps):
    """The state at q* as band_minima built it with np.stack and argmax: the
    longest of the three cross products of rows of H - lam I, normalized, its
    Rayleigh energy and the sign rule. An oracle for the component form."""
    a, b, c = ds._diagonal(q, delta, eps)
    w = 0.5 * omega
    a_, b_, c_, w2 = a - lam, b - lam, c - lam, w * w
    cross = np.stack([np.stack([w * c_, -a_ * c_, a_ * w], axis=-1),  # r0 x r2
                      np.stack([w2, -a_ * w, a_ * b_ - w2], axis=-1),  # r0 x r1
                      np.stack([b_ * c_ - w2, -w * c_, w2], axis=-1)])  # r1 x r2
    norm2 = (cross * cross).sum(axis=-1)
    best = np.argmax(norm2, axis=0)
    pick = np.arange(q.size)
    vec = cross[best, pick] / np.sqrt(norm2[best, pick])[:, None]
    v0, v1, v2 = vec.T
    e = a * v0 * v0 + b * v1 * v1 + c * v2 * v2 + 2.0 * w * v1 * (v0 + v2)
    return e, _apply_sign_convention(vec) + 0.0, norm2


def _monte_carlo_rows(n=20000, seed=1234):
    """Rows drawn like a Monte Carlo point: omega, delta and eps_q about a nominal."""
    rng = np.random.default_rng(seed)
    omega = 6.0 * (1.0 + 0.05 * rng.standard_normal(n))
    delta = 0.7 + 0.1 * rng.standard_normal(n)
    eps = np.abs(EPSILON_Q_ER + 0.05 * rng.standard_normal(n))
    return omega, delta, eps


def _state_rows():
    omega_mc, delta_mc, eps_mc = _monte_carlo_rows()
    rng = np.random.default_rng(515)
    n = 3000
    return {
        "monte carlo": (omega_mc, delta_mc, eps_mc),
        # decoupled rows: H - lam I is diagonal and two cross products vanish
        "omega = 0": (np.zeros(n), rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 2.0, n)),
        # even bands with mirror-degenerate wells, and r0 x r1, r1 x r2 mirror images
        "delta = 0": (np.concatenate([rng.uniform(0.0, 16.0, n), np.linspace(0.0, 1.0, 101)]),
                      np.zeros(n + 101),
                      np.concatenate([rng.uniform(0.0, 2.0, n), np.zeros(101)])),
    }


@pytest.mark.parametrize("name", ["monte carlo", "omega = 0", "delta = 0"])
def test_state_matches_the_stacked_formula(name):
    """The component-wise state at q* (strict comparisons in the order r0 x r2,
    r0 x r1, r1 x r2) gives the stacked argmax formula's energy and
    coefficients bit for bit, at the returned q* and its closed-form root.
    Where lam is a diagonal entry exactly, two norms of an omega = 0 row are
    0; at delta = 0 and q* = 0, r0 x r1 and r1 x r2 are mirror images."""
    omega, delta, eps = _state_rows()[name]
    q, e, c = band_minima(omega, delta, eps)
    lam = _lowest_eigenvalue(q, omega, delta, eps)
    e_ref, c_ref, norm2 = _stacked_state(q, lam, omega, delta, eps)
    assert np.array_equal(e, e_ref)
    assert np.array_equal(c, c_ref)
    assert not np.any(np.signbit(c) & (c == 0.0))
    if name != "monte carlo":  # some rows have two norms that tie exactly
        n02, n01, n12 = norm2
        assert np.any((n02 == n01) | (n02 == n12) | (n01 == n12))


def _scratch_batches():
    """Four batches that take the scan scratch block through its cases."""
    rng = np.random.default_rng(77)
    n = 500
    return [
        # float32 scan, one chunk
        (rng.uniform(0.0, 15.0, n), rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 2.0, n)),
        # float64 scan: the row scale passes step^2 / _F32_SCAN_MARGIN = 1000
        (rng.uniform(0.0, 3e4, n), rng.uniform(-3e4, 3e4, n), rng.uniform(0.0, 2.0, n)),
        # seven chunks, the last one short
        _monte_carlo_rows(20000, seed=9),
        # one row
        (np.array([5.4]), np.array([-2.5]), np.array([EPSILON_Q_ER])),
    ]


def test_scan_scratch_does_not_leak_between_calls(monkeypatch):
    """Each batch gives the bits it gives alone, whichever batches were solved
    before it; a later call leaves earlier results as they were; and writing
    into returned arrays does not reach the next call."""
    batches = _scratch_batches()
    seen = _scan_dtypes(monkeypatch)
    alone = [[v.copy() for v in band_minima(*rows)] for rows in batches]
    assert set(seen) == {np.dtype(np.float32), np.dtype(np.float64)}
    for order in (batches, batches[::-1]):
        results = [band_minima(*rows) for rows in order]
        expected = alone if order is batches else alone[::-1]
        for got, want in zip(results, expected):  # checked after every call ran
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        for got in results:
            for a in got:
                a.fill(np.nan)
        for rows, want in zip(order, expected):
            for a, b in zip(band_minima(*rows), want):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("omega, delta, window", [
    (0.0, 0.0, (0.5, 1.5)), (0.0, 0.0, (-1.5, -0.5)), (5.4, 2.5, (-1.0, 1.0)),
    (5.4, -2.5, (-1.0, 1.0)), (1.0, 0.3, (-2.5, -1.0)), (1.0, 0.3, (-1.9, 2.1)),
    # a first-column well whose next grid point slopes down again stays on q_lo
    (0.31, -2.24, (0.5, 0.6)), (3.79, -1.06, (1.0, 1.1)), (0.17, 2.88, (-0.5, 0.0)),
    # a window narrower than half a step still scans both of its ends
    (5.4, 0.0, (-0.5, -0.46)),
])
def test_band_minima_window_edges(omega, delta, window):
    """A window that cuts the band returns the lowest point inside it, edges included."""
    q, e, _ = band_minima(omega, delta, 0.65, scan_step=SCAN_STEP, q_window=window)
    dense = np.linspace(*window, 2001)
    vals = np.linalg.eigvalsh(_hamiltonians(dense, omega, delta, 0.65))[:, 0]
    assert e[0] <= vals.min() + 1e-12
    assert abs(q[0] - dense[np.argmin(vals)]) < 1e-3


@pytest.mark.parametrize("scan_step, window", [
    (SCAN_STEP, (1.0, -1.0)), (SCAN_STEP, (0.5, 0.5)), (SCAN_STEP, (-math.inf, 2.0)),
    (SCAN_STEP, (-2.0, math.nan)), (0.0, Q_WINDOW), (-0.1, Q_WINDOW), (math.inf, Q_WINDOW),
    (math.nan, Q_WINDOW), (1e-9, Q_WINDOW),
])
def test_band_minima_rejects_bad_grid(scan_step, window):
    """The grid check runs before anything is allocated, so 1e-9 k_r never builds 4e9 points."""
    with pytest.raises(ValueError, match="scan_step"):
        band_minima(5.4, 0.0, 0.65, scan_step=scan_step, q_window=window)


def test_band_minima_refines_every_grid_well(monkeypatch):
    """Rows with more than four grid minima at step 1e-3 keep the dense-grid minimum.

    A physical row has at most three wells, so a ripple on every other grid point
    of the scan block turns each remaining column into a grid minimum; the
    refinement still sees the true band and must land on the same minimum.
    """
    rng = np.random.default_rng(99)
    n = 60
    omega = rng.uniform(0.0, 2.0, n)
    delta = rng.uniform(-0.7, 0.7, n)
    eps = rng.uniform(0.0, 2.0, n)
    q_ref, e_ref, _ = band_minima(omega, delta, eps, scan_step=1e-3)

    true_root = ds._lowest_eigenvalue
    wells = []

    def rippled(q, omega, delta, epsilon_q, **kw):
        out = true_root(q, omega, delta, epsilon_q, **kw)
        if out.ndim == 2:  # the (grid x rows) scan block
            out[1::2] += 0.05  # above any |dE/dq| * step of these rows
            inner = out[1:-1]
            wells.append(((inner <= out[:-2]) & (inner <= out[2:])).sum(axis=0))
        return out

    monkeypatch.setattr(ds, "_lowest_eigenvalue", rippled)
    q, e, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.concatenate(wells).min() > 4
    assert np.max(np.abs(q - q_ref)) < 1e-10
    assert np.max(np.abs(e - e_ref)) < 1e-10
    dense = np.linspace(*Q_WINDOW, 3001)
    grid_min = np.linalg.eigvalsh(_hamiltonians(
        dense[None, :], omega[:, None], delta[:, None], eps[:, None]))[..., 0].min(axis=1)
    assert np.all(e <= grid_min + 1e-12)


# ------------------------------------------------------- float32 coarse scan

def _structured_rows(bound):
    """The delta = 0 line, omega in [0, 1], an omega grid through critical
    coupling, and |delta| just below the float32 scan bound (all |v| < bound)."""
    rng = np.random.default_rng(31)
    top = min(15.0, 0.99 * bound)
    line = (np.linspace(0.0, top, 400), np.zeros(400))
    weak = (rng.uniform(0.0, 1.0, 400), rng.uniform(-min(4.0, top), min(4.0, top), 400))
    om, de = np.meshgrid(np.linspace(0.0, min(8.0, top), 41), np.linspace(-0.5, 0.5, 11))
    edge = (rng.uniform(0.0, top, 200), 0.99 * bound * rng.choice([-1.0, 1.0], 200))
    omega, delta = (np.concatenate(v) for v in zip(line, weak, (om.ravel(), de.ravel()), edge))
    return omega, delta, rng.uniform(0.0, 2.0, omega.size)


def _scan_dtypes(monkeypatch):
    """Record the dtype of every (grid x rows) scan block."""
    true_root = ds._lowest_eigenvalue
    seen = []

    def spy(q, omega, delta, epsilon_q, **kw):
        out = true_root(q, omega, delta, epsilon_q, **kw)
        if out.ndim == 2:
            seen.append(out.dtype)
        return out

    monkeypatch.setattr(ds, "_lowest_eigenvalue", spy)
    return seen


@pytest.mark.parametrize("step", [SCAN_STEP, 0.01])
def test_float32_scan_matches_dense_oracle(step, monkeypatch):
    """A float32 scan proposes the wells that float64 refines to the dense minima."""
    bound = step * step / ds._F32_SCAN_MARGIN
    omega, delta, eps = _structured_rows(bound)
    q_ref, e_ref, c_ref = band_minima(omega, delta, eps, scan_step=1e-3)
    seen = _scan_dtypes(monkeypatch)
    q, e, c = band_minima(omega, delta, eps, scan_step=step)
    assert set(seen) == {np.dtype(np.float32)}
    assert q.dtype == e.dtype == c.dtype == np.float64
    assert np.max(np.abs(q - q_ref)) < 1e-10
    assert np.max(np.abs(e - e_ref)) < 1e-10
    assert np.max(np.abs(c - c_ref)) < 1e-10


@pytest.mark.parametrize("step, scale, dtype", [
    (SCAN_STEP, 0.99, np.float32), (SCAN_STEP, 1.01, np.float64),
    (0.01, 0.99, np.float32), (0.01, 1.01, np.float64), (1e-3, 0.0, np.float64),
])
def test_scan_dtype_follows_the_guard(step, scale, dtype, monkeypatch):
    """Past step^2 / margin the chunk scans in float64, and still finds the minima."""
    bound = step * step / ds._F32_SCAN_MARGIN
    rng = np.random.default_rng(8)
    omega = rng.uniform(0.0, 5.0, 300)
    delta = rng.uniform(-4.0, 4.0, 300)
    delta[::3] = scale * bound * rng.choice([-1.0, 1.0], 100)
    q_ref, _, _ = band_minima(omega, delta, 0.65, scan_step=1e-3)
    seen = _scan_dtypes(monkeypatch)
    q, _, _ = band_minima(omega, delta, 0.65, scan_step=step)
    assert set(seen) == {np.dtype(dtype)}
    assert np.max(np.abs(q - q_ref)) < 1e-10


def test_chunk_with_a_dressing_limit_row_scans_in_float64(monkeypatch):
    """One row at DRESSING_LIMIT_ER sends its whole chunk to the float64 scan."""
    omega, delta, eps = _kernel_rows(500)
    omega[123] = DRESSING_LIMIT_ER
    q, e, c = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    q_ref, _, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    monkeypatch.setattr(ds, "_F32_SCAN_MARGIN", math.inf)  # float64 scan everywhere
    q64, e64, c64 = band_minima(omega, delta, eps, scan_step=SCAN_STEP)
    assert np.array_equal(q, q64) and np.array_equal(e, e64) and np.array_equal(c, c64)


def test_lowest_eigenvalue_follows_input_dtype():
    rng = np.random.default_rng(3)
    q = rng.uniform(-3.0, 3.0, 200)
    omega, delta, eps = rng.uniform(0.0, 15.0, 200), rng.uniform(-4.0, 4.0, 200), 0.65
    ref = _lowest_eigenvalue(q, omega, delta, eps)
    assert ref.dtype == np.float64
    lapack = np.linalg.eigvalsh(_hamiltonians(q, omega, delta, eps))[:, 0]
    assert np.all(np.abs(ref - lapack) <= 1e-12 * np.maximum(1.0, np.abs(lapack)))
    scalar = _lowest_eigenvalue(0.0, 12.0, 0.0, 0.65)
    assert scalar.dtype == np.float64 and scalar == pytest.approx(LOW_12, abs=1e-12)
    single = _lowest_eigenvalue(*(np.asarray(v, dtype=np.float32) for v in (q, omega, delta, eps)))
    assert single.dtype == np.float32
    assert np.all(np.abs(single - ref) <= 1e-5 * np.maximum(1.0, np.abs(ref)))
