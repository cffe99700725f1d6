"""Loss kinetics: pulse-strength model, shell oracle, mixture kinetics."""
import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanpa.constants import (
    ATOMIC_MASS_KG,
    EPSILON_Q_ER,
    PA_LINE_FWHM_KHZ,
    RB87_MASS_AMU,
    TRAP_OMEGA_BAR,
    er_to_khz,
)
from ramanpa.dressed_states import RamanParams, build_hamiltonian
from ramanpa.interference import bare_pair_singlet_weight
from ramanpa.pa_kinetics import (
    DEFAULT_CROSS_WEIGHT,
    LorentzianLine,
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
)

# frozen closed-form values, cross-checked against the shell oracle; the one
# below eta = 0.1 (series side) is the 50-digit value rounded to a double
FROZEN_FRACTION = {
    0.01: 0.9943235345818242,
    0.1: 0.9464093469664046,
    1.0: 0.6516213978965402,
    3.0: 0.39942333949842274,
    10.0: 0.17801852881994715,
    100.0: 0.023490117419883643,
}


# ------------------------------------------------------- remaining fraction

def test_fraction_no_pulse():
    assert remaining_fraction(0.0) == 1.0


def test_fraction_hand_value_at_unit_strength():
    # bracket evaluated by hand with asinh(1) = atanh(1/sqrt(2)) = 0.8813736
    hand = 7.5 * (1.0 + 1.0 / 3.0 - math.sqrt(2.0) * 0.8813736)
    assert remaining_fraction(1.0) == pytest.approx(hand, abs=2e-6)
    assert remaining_fraction(1.0) == pytest.approx(0.651625, abs=1e-5)


@pytest.mark.parametrize("eta", sorted(FROZEN_FRACTION))
def test_fraction_frozen_values(eta):
    assert remaining_fraction(eta) == pytest.approx(FROZEN_FRACTION[eta], rel=1e-12)


@pytest.mark.parametrize("eta", [1.2e-4, 1e-3, 1e-2, 0.099, 0.1, 0.3, 1.0, 1e130, 1e206,
                                 1e300])
def test_fraction_matches_50_digit_reference(eta):
    """Both sides of the series switch, and huge eta where eta^{-5/2}
    underflowed, agree with 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x = mp.mpf(eta)
        root = mp.sqrt(x)
        exact = 7.5 * x ** -2.5 * (root + x * root / 3 - mp.sqrt(1 + x) * mp.asinh(root))
        assert abs(remaining_fraction(eta) - exact) <= 1e-13 * exact


def test_fraction_asymptote():
    """(5/2)/eta from the surviving eta^{3/2} term; the approach is slow:
    the relative deviation is still 1.7% at eta = 500."""
    devs = []
    for eta in (500.0, 1000.0, 2000.0):
        f = remaining_fraction(eta)
        devs.append((2.5 / eta - f) / f)
    assert devs[0] < 0.02
    assert devs[1] < 0.01
    assert devs[2] < 0.006
    assert devs == sorted(devs, reverse=True)


def test_fraction_series_joins_closed_form():
    # the closed form cancels to ~1e-7 relative at the seam; the series side
    # is exact there, so the jump bounds the closed-form roundoff
    below = remaining_fraction(0.99999e-4)
    above = remaining_fraction(1.00001e-4)
    assert abs(below - above) < 5e-7
    assert below > above


def test_fraction_initial_slope():
    # leading series term: f = 1 - (4/7) eta + O(eta^2)
    eps = 1e-8
    slope = (1.0 - remaining_fraction(eps)) / eps
    assert slope == pytest.approx(4.0 / 7.0, rel=1e-6)


def test_fraction_array_input():
    etas = np.array([0.0, 0.5, 1.0, 2.0])
    out = remaining_fraction(etas)
    assert out.shape == etas.shape
    assert out[0] == 1.0
    assert np.all(np.diff(out) < 0)
    assert remaining_fraction(np.array([])).shape == (0,)


def test_fraction_rejects_negative():
    for eta in (-0.1, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            remaining_fraction(eta)


@settings(max_examples=100, deadline=None)
@given(eta=st.floats(min_value=0.0, max_value=1e4),
       step=st.floats(min_value=1e-6, max_value=10.0))
def test_fraction_strictly_decreasing(eta, step):
    assert remaining_fraction(eta + step) < remaining_fraction(eta)
    assert 0.0 < remaining_fraction(eta) <= 1.0


# ------------------------------------------------------------- shell oracle

def test_oracle_no_pulse_any_resolution():
    for n in (100, 1001, 33333):
        assert remaining_fraction_oracle(0.0, n) == 1.0


@pytest.mark.parametrize("eta", [1.0, 10.0])
def test_oracle_agrees_with_closed_form(eta):
    oracle = remaining_fraction_oracle(eta, 100000)
    closed = remaining_fraction(eta)
    assert abs(oracle - closed) / closed < 1e-6


def test_oracle_converges_with_resolution():
    errs = [abs(remaining_fraction_oracle(3.0, n) - remaining_fraction(3.0))
            for n in (100, 1000, 10000)]
    assert errs == sorted(errs, reverse=True)


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        remaining_fraction_oracle(1.0, 50)
    with pytest.raises(ValueError):
        remaining_fraction_oracle(-1.0, 1000)


# -------------------------------------------------------------- inverse map

def test_invert_round_trip():
    for frac in (0.9, 0.64, 0.21, 0.05):
        eta = invert_remaining_fraction(frac)
        assert remaining_fraction(eta) == pytest.approx(frac, abs=1e-10)


@pytest.mark.parametrize("frac", [1 - 1e-6, 0.79, 0.21, 1e-3, 1e-15, 1e-300])
def test_invert_round_trip_to_rounding(frac):
    eta = invert_remaining_fraction(frac)
    assert remaining_fraction(eta) == pytest.approx(frac, rel=1e-14)
    # no neighbouring float lands closer
    for other in (np.nextafter(eta, 0.0), np.nextafter(eta, math.inf)):
        assert abs(remaining_fraction(eta) - frac) <= abs(remaining_fraction(other) - frac)


def test_invert_rejects_fraction_whose_bracket_overflows():
    with pytest.raises(ValueError, match="too small"):
        invert_remaining_fraction(1e-310)  # 2.5 / fraction overflows


def test_invert_loads_no_scipy():
    code = ("import sys; from ramanpa.pa_kinetics import invert_remaining_fraction as inv; "
            "before = set(sys.modules); inv(0.21); "
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert res.stdout.strip() == "[]"


def test_invert_identity_edges():
    assert invert_remaining_fraction(1.0) == 0.0
    with pytest.raises(ValueError):
        invert_remaining_fraction(0.0)
    with pytest.raises(ValueError):
        invert_remaining_fraction(1.2)


# ------------------------------------------------------------ rate <-> eta

def test_eta_from_rate_zero():
    pulse = PulseParams(t_pa=5e-3, rho0=1e14, n0=1.5e4)
    assert eta_from_rate(0.0, pulse) == 0.0


def test_eta_from_rate_arithmetic():
    pulse = PulseParams(t_pa=5e-3, rho0=1e14, n0=1.5e4)
    assert eta_from_rate(1e-12, pulse) == pytest.approx(0.5, rel=1e-14)


def test_eta_from_rate_overflow_raises():
    # a configured k00 of 1e300 reached LorentzianLine as an infinite eta_res
    pulse = PulseParams(t_pa=5e-3, rho0=1e14, n0=1.5e4)
    with pytest.raises(ValueError, match="must be finite"):
        eta_from_rate(1e300, pulse)


def test_rate_eta_round_trip():
    pulse = PulseParams(t_pa=7e-3, rho0=3.2e13, n0=9.3e3)
    k = 2.7e-13
    assert rate_from_eta(eta_from_rate(k, pulse), pulse) == pytest.approx(k, rel=1e-14)


def test_pulse_validation():
    with pytest.raises(ValueError):
        PulseParams(t_pa=0.0, rho0=1e14, n0=1e4)
    with pytest.raises(ValueError):
        PulseParams(t_pa=1e-3, rho0=-1.0, n0=1e4)
    for field in ("t_pa", "rho0", "n0", "intensity"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                PulseParams(**{"t_pa": 1e-3, "rho0": 1e14, "n0": 1e4, field: value})
    # the exposure rho0 * t_pa bounds k_pa = eta / (rho0 t_pa) and its inverse
    PulseParams(t_pa=1e-45, rho0=1e-50, n0=1e4)
    for t_pa, rho0 in ((1e-160, 1e-160), (1e-3, 1e-98), (1e200, 1e14)):
        with pytest.raises(ValueError, match="rho0 \\* t_pa"):
            PulseParams(t_pa=t_pa, rho0=rho0, n0=1e4)


# --------------------------------------------------------------- lineshape

def test_lorentzian_peak_and_half_width():
    line = LorentzianLine(eta_res=1.0548, nu0=3.0, gamma=20.0)
    assert lorentzian_eta(3.0, line) == pytest.approx(1.0548, rel=1e-14)
    assert lorentzian_eta(3.0 + 10.0, line) == pytest.approx(0.5274, rel=1e-12)
    assert lorentzian_eta(3.0 - 10.0, line) == pytest.approx(0.5274, rel=1e-12)


def test_lorentzian_far_wing_vanishes():
    line = LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0)
    assert lorentzian_eta(1e9, line) < 1e-14


def test_lorentzian_array():
    line = LorentzianLine(eta_res=2.0, nu0=0.0, gamma=10.0)
    out = lorentzian_eta(np.array([-5.0, 0.0, 5.0]), line)
    assert out[1] == 2.0 and out[0] == out[2]


def test_lorentzian_validation():
    with pytest.raises(ValueError):
        LorentzianLine(eta_res=-0.1, nu0=0.0, gamma=20.0)
    with pytest.raises(ValueError):
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=0.0)


@pytest.mark.parametrize("field", ["eta_res", "nu0", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_lorentzian_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        LorentzianLine(**{"eta_res": 1.0, "nu0": 0.0, "gamma": 20.0, field: value})


# ------------------------------------------------------ Thomas-Fermi density

def test_thomas_fermi_hand_formula():
    """Independent arithmetic for N = 1.5e4, 2*pi*90 Hz mean trap, 100.4 a0,
    87 u, frozen once from the formula."""
    from scipy.constants import atomic_mass, hbar, physical_constants

    a0 = physical_constants["Bohr radius"][0]
    n, wbar, a_s, m = 1.5e4, 2.0 * math.pi * 90.0, 100.4 * a0, 87.0 * atomic_mass
    a_ho = math.sqrt(hbar / (m * wbar))
    rbar = a_ho * (15.0 * n * a_s / a_ho) ** 0.2
    oracle = 15.0 * n / (8.0 * math.pi * rbar**3) * 1e-6
    got = thomas_fermi_peak_density(n, wbar, a_s, m)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(93836050647045.64, rel=1e-9)


def test_thomas_fermi_atom_number_scaling():
    from scipy.constants import atomic_mass

    kw = dict(omega_bar=TRAP_OMEGA_BAR, scattering_length=5.3e-9,
              mass=87.0 * atomic_mass)
    one = thomas_fermi_peak_density(1.0e4, **kw)
    two = thomas_fermi_peak_density(2.0e4, **kw)
    assert two / one == pytest.approx(2.0 ** 0.4, rel=1e-12)


def test_thomas_fermi_scattering_length_scaling():
    from scipy.constants import atomic_mass

    kw = dict(n_atoms=1.5e4, omega_bar=TRAP_OMEGA_BAR, mass=87.0 * atomic_mass)
    soft = thomas_fermi_peak_density(scattering_length=5.3e-9, **kw)
    stiff = thomas_fermi_peak_density(scattering_length=1.06e-8, **kw)
    assert stiff / soft == pytest.approx(2.0 ** -0.6, rel=1e-12)


def test_thomas_fermi_validation():
    with pytest.raises(ValueError):
        thomas_fermi_peak_density(0.0, TRAP_OMEGA_BAR, 5.3e-9, 1e-25)


@pytest.mark.parametrize("omega_bar, mass_amu", [(2e300 * math.pi, RB87_MASS_AMU),
                                                 (2e-300 * math.pi, RB87_MASS_AMU),
                                                 (TRAP_OMEGA_BAR, 1e300)])
def test_thomas_fermi_density_past_the_float_range_is_value_error(omega_bar, mass_amu):
    # rbar**3 underflowed to 0 (ZeroDivisionError) or overflowed (OverflowError)
    with pytest.raises(ValueError, match="^Thomas-Fermi peak density must be finite and > 0$"):
        thomas_fermi_peak_density(15000.0, omega_bar, 5.3e-9, mass_amu * ATOMIC_MASS_KG)


# ---------------------------------------------------------- mixture dynamics

def run_mixture(counts, k00, t_pa=0.01, rho0=1.0e14, **kw):
    pulse = PulseParams(t_pa=t_pa, rho0=rho0, n0=float(sum(counts)))
    return simulate_mixture(MixtureState(counts=counts), k00, pulse,
                            dt=t_pa / 2000.0, **kw)


def test_mixture_no_rate_is_static():
    series = run_mixture((1200.0, 7000.0, 1100.0), 0.0)
    assert np.array_equal(series.counts[0], series.counts[-1])
    assert float(series.molecules_cumulative[-1]) == 0.0


def test_mixture_pure_m0_matches_closed_form():
    """Single-component kinetics must reproduce the integrated-profile law."""
    for eta in (0.5, 1.0, 3.0):
        rho0, t_pa = 1.0e14, 0.01
        k00 = eta / (t_pa * rho0)
        series = run_mixture((0.0, 8000.0, 0.0), k00, t_pa=t_pa, rho0=rho0)
        remaining = series.counts[-1][1] / 8000.0
        assert abs(remaining - remaining_fraction(eta)) / remaining_fraction(eta) < 0.005


def test_mixture_cross_channel_closed_form():
    """Shellwise conserved-difference solution of the edge-pair channel.

    With D = rho_+ - rho_- constant per shell, the exact solution is
    rho_-(t) = D rho_-(0) / (rho_+(0) e^{c k D t} - rho_-(0)); the solver's
    closed form, written as lo / (1 + hi expm1(c k D t) / D), must match it
    shell-summed to 1e-6.
    """
    counts = (1500.0, 5000.0, 800.0)
    k00, t_pa, rho0, cross, n_shells = 2.0e-12, 0.01, 1.0e14, 2.0, 400
    series = run_mixture(counts, k00, t_pa=t_pa, rho0=rho0,
                         cross_weight=cross, n_shells=n_shells)

    total = sum(counts)
    x = (np.arange(n_shells) + 0.5) / n_shells
    shape = 1.0 - x * x
    u = x * x
    fractions = np.array(counts) / total
    rp0 = fractions[2] * rho0 * shape
    rm0 = fractions[0] * rho0 * shape
    r00 = fractions[1] * rho0 * shape
    d = rp0 - rm0
    rm_t = d * rm0 / (rp0 * np.exp(cross * k00 * d * t_pa) - rm0)
    rp_t = rm_t + d
    r0_t = r00 / (1.0 + k00 * r00 * t_pa)

    for idx, (start, end) in ((0, (rm0, rm_t)), (1, (r00, r0_t)), (2, (rp0, rp_t))):
        expect = float(np.sum(u * end) / np.sum(u * start))
        got = series.counts[-1][idx] / counts[idx]
        assert abs(got - expect) < 1e-6


@pytest.mark.parametrize("counts", [
    (3.0, 5.0, 3.0), (1200.0, 7000.0, 1100.0), (1500.0, 5000.0, 1500.0),
    (2.0**-53, 0.7, 1.0 + 2.0**-52), (0.0, 5000.0, 1500.0),
], ids=["equal_3_5_3", "unequal", "equal", "unequal_fractional", "one_empty_edge"])
def test_mixture_start_row_is_the_given_counts(counts):
    """Row 0 holds the given counts bit for bit, and no event has happened yet.
    In the fractional case 2^-53 + ((1 + 2^-52) - 2^-53) rounds to 1, so the
    larger edge taken as the smaller plus the difference of the counts would
    miss its count."""
    series = run_mixture(counts, 3.0e-12, cross_weight=2.0)
    assert series.counts[0].tobytes() == np.array(counts).tobytes()
    assert series.events_00[0] == 0.0 and series.events_pm[0] == 0.0


def test_mixture_edge_difference_conserved():
    counts = (1200.0, 7000.0, 1100.0)
    series = run_mixture(counts, 3.0e-12)
    diff = series.counts[:, 0] - series.counts[:, 2]
    assert np.max(np.abs(diff - diff[0])) < 1e-9 * counts[1]


def test_mixture_event_bookkeeping():
    counts = (1200.0, 7000.0, 1100.0)
    series = run_mixture(counts, 3.0e-12)
    lost0 = counts[1] - series.counts[-1][1]
    lost_plus = counts[2] - series.counts[-1][2]
    assert float(series.events_00[-1]) == pytest.approx(lost0 / 2.0, rel=1e-9)
    assert float(series.events_pm[-1]) == pytest.approx(lost_plus, rel=1e-9)
    assert float(series.molecules_cumulative[-1]) == pytest.approx(
        lost0 / 2.0 + lost_plus, rel=1e-9)


def test_mixture_statistical_contrast_regression():
    """Edge losses on the zero-offset path, m0 channel calibrated to 79% loss.

    Frozen solver output for the observed composition with the bare
    cross weight 2, i.e. a (+1,-1) pair on the PA resonance: the cross channel
    then drives both edges past half. Pins the per-shell closed-form kinetics,
    not the default (detuned) cross weight.
    """
    counts = (1200.0, 7000.0, 1100.0)
    rho0, t_pa = 1.0e14, 0.01
    frac0 = counts[1] / sum(counts)
    k00 = invert_remaining_fraction(0.21) / (t_pa * frac0 * rho0)
    series = run_mixture(counts, k00, t_pa=t_pa, rho0=rho0, cross_weight=2.0)
    losses = 1.0 - series.counts[-1] / np.array(counts)
    assert losses[1] == pytest.approx(0.79, abs=2e-4)
    assert losses[0] == pytest.approx(0.5463015463705295, rel=1e-7)
    assert losses[2] == pytest.approx(0.595965323313305, rel=1e-7)
    assert float(series.molecules_cumulative[-1]) == pytest.approx(
        3420.551059502606, rel=1e-7)


def test_default_cross_weight_is_detuned_by_pair_offset():
    """In the bare spin-momentum basis the (+1,-1) pair |-1, q+2>|+1, q-2>
    sits 8 + 2 eps_q E_r above the (0,0) pair for every (q, delta); the
    default cross weight is the bare ratio times the PA Lorentzian there."""
    pair_offset = 8.0 + 2.0 * EPSILON_Q_ER
    for q in (-1.3, 0.0, 0.4, 2.0):
        for delta in (-2.5, 0.0, 1.7):
            h = np.diag(build_hamiltonian(q, RamanParams(omega_r=5.0, delta=delta)))
            assert (h[0] + h[2]) - 2.0 * h[1] == pytest.approx(pair_offset, abs=1e-12)

    bare = bare_pair_singlet_weight(-1, 1) / bare_pair_singlet_weight(0, 0)
    lorentz = 1.0 / (1.0 + (2.0 * er_to_khz(pair_offset) / PA_LINE_FWHM_KHZ) ** 2)
    default = inspect.signature(simulate_mixture).parameters["cross_weight"].default
    assert default == pytest.approx(bare * lorentz, rel=1e-12)
    assert default == pytest.approx(0.1573, abs=1e-4)


def shell_edge_fraction(lo0, hi0, c, t, n_shells=400):
    """Shell-summed remaining fraction of the smaller edge, lo/(1 + hi g)."""
    x = (np.arange(n_shells) + 0.5) / n_shells
    shape = 1.0 - x * x
    lo, hi = lo0 * shape, hi0 * shape
    d = hi - lo
    with np.errstate(over="ignore"):
        g = c * t if lo0 == hi0 else np.expm1(c * d * t) / d
        return float(np.sum(x * x * lo / (1.0 + hi * g)) / np.sum(x * x * lo))


@pytest.mark.parametrize("counts", [(1000.0, 1000.0, 1000.0), (1000.0, 1000.0, 1200.0)],
                         ids=["equal_edges", "unequal_edges"])
def test_mixture_stiff_rate_stays_exact(counts):
    # k00 * rho_center * dt ~ 17 per sample step: no step size to overshoot
    k00, rho0, t_pa = 1.0e-7, 1.0e14, 0.01
    series = run_mixture(counts, k00, t_pa=t_pa, rho0=rho0)
    assert not series.clamped
    assert np.all(np.isfinite(series.counts))
    assert np.all(series.counts >= 0.0)
    assert np.all(np.diff(series.counts, axis=0) <= 0.0)
    f = np.array(counts) / sum(counts)
    c = DEFAULT_CROSS_WEIGHT * k00
    for i in (1, 2, 100, 2000):
        t = series.times[i]
        m0 = remaining_fraction_oracle(k00 * f[1] * rho0 * t, 400)
        edge = shell_edge_fraction(f[0] * rho0, f[2] * rho0, c, t)
        assert series.counts[i][1] / counts[1] == pytest.approx(m0, rel=1e-12)
        assert series.counts[i][0] / counts[0] == pytest.approx(edge, rel=1e-9, abs=1e-15)


def test_mixture_equal_edges_follow_single_channel_law():
    """D = 0: each edge obeys rho/(1 + c k rho t) shell by shell."""
    counts, k00, rho0, t_pa = (1500.0, 5000.0, 1500.0), 3.0e-12, 1.0e14, 0.01
    series = run_mixture(counts, k00, t_pa=t_pa, rho0=rho0, cross_weight=2.0)
    f_edge = counts[0] / sum(counts)
    for i in (0, 700, 2000):
        eta = 2.0 * k00 * f_edge * rho0 * series.times[i]
        expect = remaining_fraction_oracle(eta, 400)
        assert series.counts[i][0] / counts[0] == pytest.approx(expect, rel=1e-12)
        assert series.counts[i][2] / counts[2] == pytest.approx(expect, rel=1e-12)
    assert series.counts[-1][0] < 0.9 * counts[0]


@pytest.mark.parametrize("counts", [(0.0, 5000.0, 1500.0), (1500.0, 5000.0, 0.0)],
                         ids=["minus_empty", "plus_empty"])
def test_mixture_one_empty_edge_loses_nothing(counts):
    series = run_mixture(counts, 3.0e-12, cross_weight=2.0)
    for m in (0, 2):
        assert series.counts[0][m] == pytest.approx(counts[m], rel=1e-12)
        assert np.all(series.counts[:, m] == series.counts[0][m])
    assert np.all(series.events_pm == 0.0)
    assert series.counts[-1][1] < 0.9 * counts[1]


def test_mixture_memory_is_bounded():
    """Outputs scale with the sample count; the shell work stays in blocks."""
    pulse = PulseParams(t_pa=0.01, rho0=1.0e14, n0=9300.0)
    tracemalloc.start()
    try:
        series = simulate_mixture(MixtureState(counts=(1200.0, 7000.0, 1100.0)),
                                  3.0e-12, pulse, dt=pulse.t_pa / 200000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.times.size >= 200001
    assert peak < 16e6


def test_mixture_counts_never_increase():
    series = run_mixture((1200.0, 7000.0, 1100.0), 4.0e-12)
    assert np.all(np.diff(series.counts, axis=0) <= 1e-12)


def test_mixture_timeline():
    t_pa = 0.004
    series = run_mixture((100.0, 200.0, 300.0), 1.0e-13, t_pa=t_pa)
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(t_pa, rel=1e-12)
    assert np.all(np.diff(series.times) > 0)
    assert series.counts.shape == (series.times.size, 3)


def test_mixture_dt_precondition():
    pulse = PulseParams(t_pa=0.01, rho0=1e14, n0=9300.0)
    with pytest.raises(ValueError):
        simulate_mixture(MixtureState(counts=(1.0, 2.0, 3.0)), 1e-12, pulse, dt=0.001)
    with pytest.raises(ValueError):
        simulate_mixture(MixtureState(counts=(1.0, 2.0, 3.0)), 1e-12, pulse, dt=0.0)
    # at most 10^6 sample intervals
    with pytest.raises(ValueError, match="10\\^6"):
        simulate_mixture(MixtureState(counts=(1.0, 2.0, 3.0)), 1e-12, pulse, dt=0.99e-8)
    series = simulate_mixture(MixtureState(counts=(1.0, 2.0, 3.0)), 1e-12, pulse,
                              dt=1e-8, n_shells=1)
    assert series.times.size == 10**6 + 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["k00", "dt", "cross_weight"])
def test_mixture_rejects_non_finite_arguments(arg, value):
    pulse = PulseParams(t_pa=0.01, rho0=1e14, n0=9300.0)
    kw = {"k00": 1e-12, "dt": 1e-5, "cross_weight": 2.0, arg: value}
    with pytest.raises(ValueError, match="finite"):
        simulate_mixture(MixtureState(counts=(1.0, 2.0, 3.0)), kw["k00"], pulse,
                         kw["dt"], cross_weight=kw["cross_weight"])


def test_mixture_state_validation():
    with pytest.raises(ValueError):
        MixtureState(counts=(-1.0, 2.0, 3.0))
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            MixtureState(counts=(1.0, value, 3.0))
    with pytest.raises(ValueError, match="n_total must be > 0"):
        MixtureState(counts=(0.0, 0.0, 0.0))
