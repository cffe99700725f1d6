"""Band-structure solver: Hamiltonian build, diagonalization, minima."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ramanpa.dressed_states as ds
from ramanpa.dressed_states import (
    DRESSING_LIMIT_ER,
    Q_WINDOW,
    RamanParams,
    _apply_sign_convention,
    _hamiltonians,
    _lowest_eigenvalue,
    band_curve,
    band_minima,
    build_hamiltonian,
    coefficients_vs_delta,
    eigensystem,
    find_band_minimum,
)
from ramanpa.uncertainty import _MC_SCAN_STEP

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


# ---------------------------------------------------------------- eigensystem

def test_eigensystem_diagonal():
    pairs = eigensystem(np.diag([4.0, -0.65, 4.0]))
    assert [p[0] for p in pairs] == [-0.65, 4.0, 4.0]
    for value, vector in pairs:
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12


def test_eigensystem_block_reduction_case():
    """Full 3x3 result equals the by-hand 2x2 block reduction."""
    h = np.array([[4.0, 6.0, 0.0], [6.0, -0.65, 6.0], [0.0, 6.0, 4.0]])
    pairs = eigensystem(h)
    assert pairs[0][0] == pytest.approx(LOW_12, abs=1e-12)
    assert pairs[0][0] == pytest.approx(-7.123046658207719, abs=1e-12)
    # ground vector (sign-fixed: first component positive)
    v = pairs[0][1]
    assert v[0] == pytest.approx(0.42887550520754025, abs=1e-9)
    assert v[1] == pytest.approx(-0.7950670424976463, abs=1e-9)
    assert v[2] == pytest.approx(v[0], abs=1e-12)
    # antisymmetric combination stays decoupled at eigenvalue 4
    assert pairs[1][0] == pytest.approx(4.0, abs=1e-12)


def test_eigensystem_identity():
    pairs = eigensystem(np.eye(3))
    assert all(p[0] == pytest.approx(1.0, abs=1e-14) for p in pairs)
    basis = np.stack([p[1] for p in pairs])
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_eigensystem_rejects_asymmetric():
    h = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        eigensystem(h)


def test_eigensystem_rejects_wrong_shape():
    with pytest.raises(ValueError):
        eigensystem(np.eye(4))


def test_eigensystem_residual_is_small():
    h = build_hamiltonian(0.7, params(5.4, 2.5))
    for value, vector in eigensystem(h):
        assert np.max(np.abs(h @ vector - value * vector)) < 1e-9


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


def test_minimum_scan_step_precondition():
    with pytest.raises(ValueError):
        find_band_minimum(params(5.4, 0.0), scan_step=0.1)


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
        q, e, c = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
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
def test_eigensystem_matches_numpy(q, omega, delta):
    h = build_hamiltonian(q, params(omega, delta))
    values = np.array([p[0] for p in eigensystem(h)])
    assert np.max(np.abs(values - np.linalg.eigvalsh(h))) < 1e-10


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


@settings(max_examples=50, deadline=None)
@given(q=quasim, omega=coupling, delta=finite)
def test_eigenvectors_orthonormal(q, omega, delta):
    pairs = eigensystem(build_hamiltonian(q, params(omega, delta)))
    basis = np.stack([p[1] for p in pairs])
    assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-9


# ------------------------------------------------------ dense-grid oracle

def test_band_minima_mc_step_matches_dense_oracle():
    """Coarse scan plus Newton at the Monte Carlo step finds the dense-grid minima."""
    rng = np.random.default_rng(1807)
    n = 20000
    omega = rng.uniform(0.0, 15.0, n)
    delta = rng.uniform(-4.0, 4.0, n)
    eps = rng.uniform(0.0, 2.0, n)
    q, _, c = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
    q_ref, _, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    # Hellmann-Feynman: dE/dq = sum_m |C_m|^2 dH_mm/dq
    dedq = 2.0 * (c[:, 0] ** 2 * (q + 2.0) + c[:, 1] ** 2 * q + c[:, 2] ** 2 * (q - 2.0))
    assert np.max(np.abs(dedq)) < 1e-8


@pytest.mark.parametrize("n_rows, step", [(20000, _MC_SCAN_STEP), (2000, 1e-3)])
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
    assert peak < 64e6


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
    # the (rows x grid) block of the scan and the flat rows of the refinement
    block = _lowest_eigenvalue(qs, omega[:, None], delta[:, None], eps[:, None])
    assert np.all(np.abs(block - ref) <= tol)
    q_flat = np.broadcast_to(qs, ref.shape).ravel()
    flat = _lowest_eigenvalue(q_flat, *(np.repeat(v, n_q) for v in (omega, delta, eps)))
    assert np.all(np.abs(flat - ref.ravel()) <= tol.ravel())


def test_band_minima_multi_well_rows():
    """Rows with several grid wells pick the same global minimum at both steps.

    The energies are also checked against a dense eigvalsh grid, which shares
    no code with the scan: the refined minimum lies at or below every sample.
    """
    rng = np.random.default_rng(77)
    n = 600
    omega = rng.uniform(0.0, 2.0, n)
    delta = rng.uniform(-0.7, 0.7, n)
    eps = rng.uniform(0.0, 2.0, n)
    coarse = np.linspace(*Q_WINDOW, int(round((Q_WINDOW[1] - Q_WINDOW[0]) / _MC_SCAN_STEP)) + 1)
    energy = np.pad(_lowest_eigenvalue(coarse, omega[:, None], delta[:, None], eps[:, None]),
                    ((0, 0), (1, 1)), constant_values=np.inf)
    inner = energy[:, 1:-1]
    wells = ((inner <= energy[:, :-2]) & (inner <= energy[:, 2:])).sum(axis=1)
    assert np.sum(wells >= 2) > n // 4  # the multi-candidate path really runs

    q, e, _ = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
    q_ref, e_ref, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    assert np.max(np.abs(e - e_ref)) < 1e-10

    dense = np.linspace(*Q_WINDOW, 3001)
    for rows in np.array_split(np.arange(n), 12):
        grid_min = np.linalg.eigvalsh(_hamiltonians(
            dense[None, :], omega[rows, None], delta[rows, None], eps[rows, None]))[..., 0]
        assert np.all(e[rows] <= grid_min.min(axis=1) + 1e-12)


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


@pytest.mark.parametrize("step", [_MC_SCAN_STEP, 1e-3])
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
    q, e, c = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(c))
    assert find_band_minimum(params(0.0, 0.0)).coeffs == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("omega, delta, window", [
    (0.0, 0.0, (0.5, 1.5)), (0.0, 0.0, (-1.5, -0.5)), (5.4, 2.5, (-1.0, 1.0)),
    (5.4, -2.5, (-1.0, 1.0)), (1.0, 0.3, (-2.5, -1.0)), (1.0, 0.3, (-1.9, 2.1)),
])
def test_band_minima_window_edges(omega, delta, window):
    """A window that cuts the band returns the lowest point inside it, edges included."""
    q, e, _ = band_minima(omega, delta, 0.65, scan_step=_MC_SCAN_STEP, q_window=window)
    dense = np.linspace(*window, 2001)
    vals = np.linalg.eigvalsh(_hamiltonians(dense, omega, delta, 0.65))[:, 0]
    assert e[0] <= vals.min() + 1e-12
    assert abs(q[0] - dense[np.argmin(vals)]) < 1e-3


def test_band_minima_refines_every_grid_well(monkeypatch):
    """Rows with more than four grid minima at step 1e-3 keep the dense-grid minimum.

    A physical row has at most three wells, so a ripple on every other column
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

    def rippled(q, omega, delta, epsilon_q):
        out = true_root(q, omega, delta, epsilon_q)
        if out.ndim == 2:  # the (rows x grid) scan block
            out[:, 1::2] += 0.05  # above any |dE/dq| * step of these rows
            inner = out[:, 1:-1]
            wells.append(((inner <= out[:, :-2]) & (inner <= out[:, 2:])).sum(axis=1))
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
    """Record the dtype of every (rows x grid) scan block."""
    true_root = ds._lowest_eigenvalue
    seen = []

    def spy(q, omega, delta, epsilon_q):
        out = true_root(q, omega, delta, epsilon_q)
        if out.ndim == 2:
            seen.append(out.dtype)
        return out

    monkeypatch.setattr(ds, "_lowest_eigenvalue", spy)
    return seen


@pytest.mark.parametrize("step", [_MC_SCAN_STEP, 0.01])
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
    (_MC_SCAN_STEP, 0.99, np.float32), (_MC_SCAN_STEP, 1.01, np.float64),
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
    q, e, c = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
    q_ref, _, _ = band_minima(omega, delta, eps, scan_step=1e-3)
    assert np.max(np.abs(q - q_ref)) < 1e-10
    monkeypatch.setattr(ds, "_F32_SCAN_MARGIN", math.inf)  # float64 scan everywhere
    q64, e64, c64 = band_minima(omega, delta, eps, scan_step=_MC_SCAN_STEP)
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
