"""Two-pathway interference algebra on dressed-state coefficients."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanpa.dressed_states import RamanParams, find_band_minimum
from ramanpa.interference import (
    _batch_ratios,
    bare_pair_singlet_weight,
    rate_ratio,
    rate_ratio_no_interference,
    singlet_amplitude,
)

SQRT_HALF = math.sqrt(0.5)
LIMIT_COEFFS = (-0.5, SQRT_HALF, -0.5)

# frozen suppression ratios at the band minimum, delta = 0
RATIO_AT = {
    0.01: 0.9999907504613205,
    1.1: 0.8993449100551109,
    5.4: 0.27047565437658294,
    8.0: 0.14451369279353032,
    12.0: 0.06983504105806265,
}
NOINT_AT = {
    1.1: 0.9496724550275555,
    8.0: 0.5722568463967652,
    12.0: 0.5349175205290313,
}


# --------------------------------------------------------------- amplitude

def test_singlet_amplitude_bare_pair():
    assert singlet_amplitude((0.0, 1.0, 0.0)) == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)


def test_singlet_amplitude_edge_pair():
    assert singlet_amplitude((SQRT_HALF, 0.0, SQRT_HALF)) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-15)


def test_singlet_amplitude_cancellation_limit():
    assert singlet_amplitude(LIMIT_COEFFS) == pytest.approx(0.0, abs=1e-15)


def test_ratios_reject_nan_amplitudes():
    for fn in (rate_ratio, rate_ratio_no_interference, singlet_amplitude):
        with pytest.raises(ValueError, match="normalized"):
            fn((math.nan, 1.0, 0.0))


def test_singlet_amplitude_rejects_unnormalized():
    with pytest.raises(ValueError):
        singlet_amplitude((1.0, 1.0, 0.0))


# -------------------------------------------------------------------- ratio

def test_ratio_bare_state():
    assert rate_ratio((0.0, 1.0, 0.0)) == 1.0


def test_ratio_cancels_exactly_in_the_coupling_limit():
    # the cross term cancels the two direct terms identically, not just
    # approximately; the three-term form must return exactly zero here
    assert rate_ratio(LIMIT_COEFFS) == 0.0


def test_ratio_polarized_state():
    assert rate_ratio((1.0, 0.0, 0.0)) == 0.0


def test_ratio_at_moderate_coupling():
    state = find_band_minimum(RamanParams(omega_r=8.0, delta=0.0))
    assert state.coeffs[1] == pytest.approx(0.8307073992527783, abs=1e-8)
    assert rate_ratio(state.coeffs) == pytest.approx(0.1445136927935306, rel=1e-9)


@pytest.mark.parametrize("omega", sorted(RATIO_AT))
def test_frozen_ratio_curve(omega):
    state = find_band_minimum(RamanParams(omega_r=omega, delta=0.0))
    assert rate_ratio(state.coeffs) == pytest.approx(RATIO_AT[omega], rel=1e-9)


# ------------------------------------------------------ without interference

def test_no_interference_bare_state():
    assert rate_ratio_no_interference((0.0, 1.0, 0.0)) == 1.0


def test_no_interference_coupling_limit():
    assert rate_ratio_no_interference(LIMIT_COEFFS) == pytest.approx(0.5, abs=1e-15)


def test_no_interference_polarized():
    assert rate_ratio_no_interference((1.0, 0.0, 0.0)) == 0.0


@pytest.mark.parametrize("omega", sorted(NOINT_AT))
def test_frozen_no_interference_curve(omega):
    state = find_band_minimum(RamanParams(omega_r=omega, delta=0.0))
    assert rate_ratio_no_interference(state.coeffs) == pytest.approx(
        NOINT_AT[omega], rel=1e-9)


# -------------------------------------------------------- bare pair weights

def test_pair_weight_zero_zero():
    assert bare_pair_singlet_weight(0, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_pair_weight_opposite_edges():
    assert bare_pair_singlet_weight(1, -1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert bare_pair_singlet_weight(-1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pair_weight_aligned_edges():
    assert bare_pair_singlet_weight(1, 1) == 0.0
    assert bare_pair_singlet_weight(-1, -1) == 0.0
    assert bare_pair_singlet_weight(0, 1) == 0.0


def test_pair_weight_rejects_bad_index():
    with pytest.raises(ValueError):
        bare_pair_singlet_weight(2, 0)


# ------------------------------------------------------------------ algebra

def normalized_triples():
    raw = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0,
                                allow_nan=False)] * 3)

    def norm(t):
        v = np.array(t)
        n = np.linalg.norm(v)
        return tuple(v / n) if n > 1e-3 else (0.0, 1.0, 0.0)

    return raw.map(norm)


@settings(max_examples=100, deadline=None)
@given(coeffs=normalized_triples())
def test_ratio_equals_three_times_amplitude_squared(coeffs):
    """The suppression factor is exactly 3|A_singlet|^2."""
    amp = singlet_amplitude(coeffs)
    assert rate_ratio(coeffs) == pytest.approx(3.0 * abs(amp) ** 2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(coeffs=normalized_triples())
def test_ratio_bounds(coeffs):
    r = rate_ratio(coeffs)
    rn = rate_ratio_no_interference(coeffs)
    assert 0.0 <= r <= 1.0
    assert 0.0 <= rn <= 1.0


@settings(max_examples=100, deadline=None)
@given(coeffs=normalized_triples(),
       phase=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_ratio_invariant_under_global_phase(coeffs, phase):
    rotated = tuple(c * complex(math.cos(phase), math.sin(phase)) for c in coeffs)
    assert rate_ratio(rotated) == pytest.approx(rate_ratio(coeffs), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(min_value=0.0, max_value=20.0),
       delta=st.floats(min_value=-4.0, max_value=4.0))
def test_interference_only_suppresses(omega, delta):
    """Dressed minima have a non-positive cross term: with <= without."""
    state = find_band_minimum(RamanParams(omega_r=omega, delta=delta))
    assert rate_ratio(state.coeffs) <= rate_ratio_no_interference(state.coeffs) + 1e-12


@settings(max_examples=60, deadline=None)
@given(coeffs=normalized_triples())
def test_no_interference_composes_from_pair_weights(coeffs):
    """Channel strengths normalize to the bare pair weights: the edge
    channel enters with weight (2/3)/(1/3) = 2 relative to the m0 channel."""
    cm, c0, cp = coeffs
    edge_over_bare = bare_pair_singlet_weight(1, -1) / bare_pair_singlet_weight(0, 0)
    expect = (c0 * c0) ** 2 + 2.0 * edge_over_bare * (cm * cp) ** 2
    assert rate_ratio_no_interference(coeffs) == pytest.approx(expect, abs=1e-12)


def _random_unit_rows(rng, n, complex_=False):
    v = rng.normal(size=(n, 3))
    if complex_:
        v = v + 1j * rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_ratio_kernel_real_input_is_bit_identical():
    """Scalar and batch ratios share one kernel; on real input it rounds like
    the plain real-arithmetic form c0^4 + 4 (cm cp)^2 - 4 c0^2 cm cp."""
    rows = _random_unit_rows(np.random.default_rng(31), 10_000)
    full, no_int = _batch_ratios(rows)
    for k, (cm, c0, cp) in enumerate(rows.tolist()):
        c0sq, pair = c0 * c0, cm * cp
        plain_no_int = c0sq * c0sq + 4.0 * (pair * pair)
        plain_full = plain_no_int - 4.0 * (c0sq * pair)
        assert full[k] == rate_ratio(rows[k]) == min(1.0, max(0.0, plain_full))
        assert no_int[k] == rate_ratio_no_interference(rows[k]) == min(1.0, max(0.0, plain_no_int))


def test_ratio_kernel_complex_input():
    rows = _random_unit_rows(np.random.default_rng(32), 2_000, complex_=True)
    cm, c0, cp = rows.T
    full, no_int = _batch_ratios(rows)
    assert np.allclose(full, np.abs(2.0 * cm * cp - c0 * c0) ** 2, rtol=0, atol=1e-14)
    assert np.allclose(no_int, np.abs(c0) ** 4 + 4.0 * np.abs(cm * cp) ** 2, rtol=0, atol=1e-14)
    # complex products may round differently in vector and scalar loops
    assert all(rate_ratio(r) == pytest.approx(f, abs=1e-15) for r, f in zip(rows[:200], full))
