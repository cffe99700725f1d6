"""Command line interface: outputs, determinism, exit codes."""
import ast
import filecmp
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ramanpa.cli as cli
import ramanpa.config as config_module
import ramanpa.dressed_states as dressed_states
import ramanpa.spectra as spectra
from ramanpa.config import DEFAULTS, RunConfig
from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.spectra import (
    FitResult,
    SpectrumFormatError,
    synthesize_spectrum,
    write_spectrum_csv,
)

RUN = [sys.executable, "-m", "ramanpa.cli"]


def run_cli(args, **kw):
    env = dict(os.environ)
    env.pop("RAMANPA_CONFIG", None)
    env.update(kw.pop("env", {}))
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          env=env, **kw)


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ------------------------------------------------------------------ commands

def test_bands_strong_coupling_single_minimum(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["bands", "--omega", "12", "--delta", "0",
                   "--out-dir", str(out), "--format", "csv,json,svg"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "bands.json").read_text())
    assert abs(payload["q_star_kr"]) < 1e-9
    assert payload["weights"][1] > 0.5  # m0-dominated at strong coupling
    assert (out / "bands.csv").exists() and (out / "bands.svg").exists()
    assert "band minimum" in res.stdout


def test_bands_zero_coupling_bare_state(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["bands", "--omega", "0", "--delta", "0",
                   "--out-dir", str(out), "--format", "json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "bands.json").read_text())
    assert abs(payload["q_star_kr"]) < 1e-9
    assert payload["energy_Er"] == pytest.approx(-0.65, abs=1e-9)
    assert payload["weights"][1] == pytest.approx(1.0, abs=1e-9)


def test_coeffs_detuning_polarizes_minimum(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["coeffs", "--omega", "5.4", "--delta-list=-2.5,-2,0,2,2.5",
                   "--out-dir", str(out), "--format", "csv"])
    assert res.returncode == 0, res.stderr
    rows = (out / "coeffs.csv").read_text().splitlines()
    assert rows[0] == ("delta_Er,q_star_kr,energy_Er,C_m-1,C_m0,C_m+1,"
                       "ratio,ratio_no_interference")
    table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert table.shape == (5, 8)
    # edge weight dominates off resonance, mirror-symmetric in delta:
    # delta < 0 favors m_f=+1, delta > 0 favors m_f=-1
    assert table[0, 5] ** 2 > 0.65
    assert table[-1, 3] ** 2 > 0.65
    assert table[0, 6] == pytest.approx(table[-1, 6], rel=1e-9)
    assert table[1, 6] == pytest.approx(table[-2, 6], rel=1e-9)


def test_ratio_sweep_outputs(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["ratio-sweep", "--axis", "omega", "--start", "1",
                   "--stop", "12", "--points", "3", "--samples", "150",
                   "--seed", "5", "--out-dir", str(out), "--format", "csv,json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "ratio_sweep.json").read_text())
    assert payload["n_samples"] == 150 and payload["seed"] == 5
    variants = [b["variant"] for b in payload["bands"]]
    assert variants == ["with-interference", "without-interference"]
    band_rows = (out / "ratio_band.csv").read_text().splitlines()
    assert band_rows[0] == "axis_value_Er,mean,lower,upper,variant"
    assert len(band_rows) == 1 + 2 * 3
    nominal = (out / "ratio_nominal.csv").read_text().splitlines()
    assert len(nominal) == 1 + 3


def test_simulate_superposition_scales_rate_by_ratio(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["simulate", "--mode", "superposition",
                   "--out-dir", str(out), "--format", "json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "simulate_superposition.json").read_text())
    # config nominals: full coupling, zero detuning
    assert payload["rate_ratio"] == pytest.approx(0.14451369279353032, rel=1e-9)
    assert payload["k_scaled_cm3_s"] == pytest.approx(
        payload["rate_ratio"] * payload["k00_cm3_s"], rel=1e-12)
    assert payload["eta_res"] == pytest.approx(
        payload["rate_ratio"] * payload["eta00_res"], rel=1e-12)


def test_simulate_has_no_mixture_mode(tmp_path, capsys):
    # mixture-sim writes the mixture files; --mode keeps one value
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--mode", "mixture", "--out-dir", str(out)])
    assert exc.value.code == 1
    assert "argument --mode: invalid choice: 'mixture'" in capsys.readouterr().err
    assert not out.exists()


def test_mixture_sim_matches_library(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["mixture-sim", "--counts=1200,7000,1100", "--k00", "8e-12",
                   "--t-pa", "10", "--dt", "0.01", "--out-dir", str(out),
                   "--format", "json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "mixture_summary.json").read_text())

    from ramanpa.pa_kinetics import MixtureState, simulate_mixture
    config = RunConfig()
    pulse = PulseParams(t_pa=0.010, rho0=config.pulse_params().rho0, n0=9300.0,
                        intensity=config.get("pulse.intensity_w_cm2"))
    series = simulate_mixture(
        MixtureState(counts=(1200.0, 7000.0, 1100.0)),
        8e-12, pulse, 0.01e-3,
        cross_weight=config.get("kinetics.cross_weight"),
        n_shells=config.get("kinetics.n_shells"))
    want = (1.0 - series.counts[-1] / series.counts[0]).tolist()
    assert payload["fractional_loss"] == pytest.approx(want, rel=1e-12)


def test_fit_recovers_synthesized_line(tmp_path):
    grid = np.sort(np.concatenate([np.linspace(-60, -50, 6),
                                   np.linspace(-6, 6, 16), [-20.0, 20.0],
                                   np.linspace(50, 60, 6)]))
    line = LorentzianLine(eta_res=0.8, nu0=1.5, gamma=20.0)
    pulse = PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0)
    spec_path = tmp_path / "spec.csv"
    write_spectrum_csv(spec_path, synthesize_spectrum(line, pulse, grid, 0.0, 0))
    out = tmp_path / "o"
    res = run_cli(["fit", str(spec_path), "--rho0", "1e14", "--t-pa", "5",
                   "--out-dir", str(out), "--format", "csv,json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "fit_result.json").read_text())
    assert payload["converged"] is True
    assert payload["eta_res"] == pytest.approx(0.8, rel=1e-3)
    assert payload["nu0_khz"] == pytest.approx(1.5, abs=0.01)
    assert payload["k_pa_cm3_s"] == pytest.approx(0.8 / (1e14 * 5e-3), rel=1e-3)
    assert (out / "spectrum_normalized.csv").exists()
    assert (out / "fit_result.txt").read_text().startswith("n0 = ")


# -------------------------------------------------------------- determinism

@pytest.mark.parametrize("args", [
    ["bands", "--omega", "5.4", "--delta", "-2", "--format", "csv,json,svg"],
    ["coeffs", "--omega", "5.4", "--delta-list=-2.5,0,2.5", "--format", "csv,json"],
    ["ratio-sweep", "--points", "3", "--samples", "120", "--format", "csv,json,svg"],
    ["simulate", "--mode", "superposition", "--noise", "0.03", "--seed", "7",
     "--format", "csv,json"],
    ["mixture-sim", "--counts=1200,7000,1100", "--t-pa", "10", "--dt", "0.05",
     "--format", "csv,json"],
])
def test_reruns_are_byte_identical(tmp_path, args):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(args + ["--out-dir", str(out)])
        assert res.returncode == 0, res.stderr
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert ta.keys() == tb.keys() and len(ta) > 0
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between reruns"


def test_seed_changes_monte_carlo_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["ratio-sweep", "--points", "2", "--samples", "120", "--format", "csv"]
    run_cli(base + ["--seed", "1", "--out-dir", str(a)])
    run_cli(base + ["--seed", "2", "--out-dir", str(b)])
    assert not filecmp.cmp(a / "ratio_band.csv", b / "ratio_band.csv",
                           shallow=False)


# ------------------------------------------------------------ config plumbing

def test_config_file_via_environment(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "fromenv"
    cfg.write_text(f"output.dir = {out}\nraman.omega_r = 12.0\n",
                   encoding="ascii")
    res = run_cli(["bands", "--format", "json"], env={"RAMANPA_CONFIG": str(cfg)})
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "bands.json").read_text())
    assert payload["omega_r_Er"] == 12.0


def test_missing_config_file_is_data_error(tmp_path):
    res = run_cli(["bands", "--config", str(tmp_path / "absent.cfg")])
    assert res.returncode == 2
    assert "error" in res.stderr


def test_unknown_config_key_is_data_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("raman.omega = 8.0\n", encoding="ascii")
    res = run_cli(["bands", "--config", str(cfg)])
    assert res.returncode == 2
    assert "raman.omega" in res.stderr


@pytest.mark.parametrize("line", ["atoms.n_total = -1", "trap.frequency_hz = 0",
                                  "pulse.t_pa_ms = 0", "line.gamma_khz = 0",
                                  "kinetics.k00_cm3_s = -1e-12", "uncertainty.seed = -1"])
def test_out_of_range_config_value_is_data_error(tmp_path, line):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "invalid configured value" in res.stderr
    assert not out.exists()


def test_configured_atom_count_past_its_bound_is_data_error(tmp_path):
    # exited 1 with "row 0: counts and stderr must be at most 1e300", a usage
    # error naming no key, once the synthesized counts passed Spectrum's bound
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("atoms.n_total = 1e305\npulse.rho0_cm3 = 1e14\n", encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert res.returncode == 2, res.stderr
    assert "invalid configured value: atoms.n_total" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_out_of_range_uncertainty_config_is_data_error(tmp_path):
    cfg = tmp_path / "range.cfg"
    cfg.write_text("uncertainty.delta_sigma = -0.5\n", encoding="ascii")
    res = run_cli(["ratio-sweep", "--config", str(cfg), "--points=3", "--samples=100",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("line", ["uncertainty.n_samples = 10", "uncertainty.seed = -1"])
def test_flags_replace_bad_configured_sampling_plan(tmp_path, line):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    base = ["ratio-sweep", "--config", str(cfg), "--points=2"]
    out = tmp_path / "o"
    res = run_cli(base + ["--samples=100", "--seed=5", "--format=json", "--out-dir", str(out)])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "ratio_sweep.json").read_text())
    assert payload["n_samples"] == 100 and payload["seed"] == 5
    # without the flags the configured value is checked: a data error
    res = run_cli(base + ["--out-dir", str(tmp_path / "p")])
    assert res.returncode == 2 and "Traceback" not in res.stderr


def _main_in_process(argv, monkeypatch, capsys):
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("line, verb", [
    pytest.param(line, verb, id=f"{line}-{verb}")
    for verb in ["bands", "coeffs", "simulate", "ratio-sweep"]
    for line in ["raman.omega_r = 1e200", "raman.omega_r = -1",
                 "raman.delta = -2e6", "raman.epsilon_q = -1"]
    # ratio-sweep sweeps omega_r, so it reads no configured one
    if not (verb == "ratio-sweep" and line.startswith("raman.omega_r"))])
def test_out_of_range_raman_config_is_data_error(tmp_path, monkeypatch, capsys, verb, line):
    cfg = tmp_path / "raman.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process([verb, "--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert "invalid configured value" in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["uncertainty.omega_rel_sigma = 1e6",
                                  "uncertainty.omega_rel_sigma = 1e300",
                                  "uncertainty.delta_sigma = 1e7",
                                  "uncertainty.epsilon_q_sigma = 1e7"])
def test_sigma_past_its_cap_is_data_error(tmp_path, monkeypatch, capsys, line):
    # each sigma once made a draw past the dressing bound: exit 1, naming no key
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process(["ratio-sweep", "--config", str(cfg), "--points", "2",
                                  "--samples", "100", "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    key = line.split()[0]
    assert f"invalid configured value: {key}: {key.split('.')[1]} must be" in err
    assert not out.exists()


def test_configured_nominal_near_the_dressing_bound_is_drawn_inside_it(tmp_path):
    # about half the draws about omega_r 999999 cross 1e6 E_r and are redrawn
    cfg = tmp_path / "near.cfg"
    cfg.write_text("raman.omega_r = 999999\n", encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["ratio-sweep", "--config", str(cfg), "--axis", "delta", "--points", "2",
                   "--samples", "100", "--out-dir", str(out), "--format", "json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "ratio_sweep.json").read_text())
    values = [v for band in payload["bands"] for key in ("mean", "lower", "upper")
              for v in band[key]] + payload["nominal_ratio"]
    assert np.all(np.isfinite(values))


def test_sweep_past_the_dressing_bound_exits_before_drawing(tmp_path):
    # a nominal past the bound would redraw (nearly) forever
    out = tmp_path / "o"
    res = run_cli(["ratio-sweep", "--axis", "omega", "--stop", "2e6", "--points", "2",
                   "--samples", "100", "--out-dir", str(out)], timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "1e+06" in res.stderr
    assert not out.exists()


def test_ratio_sweep_solves_bands_and_nominal_curves_in_one_call(tmp_path, monkeypatch,
                                                                 capsys):
    import ramanpa.uncertainty as uncertainty

    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return dressed_states.band_minima(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "band_minima", counted)
    code, err = _main_in_process(["ratio-sweep", "--format", "json",
                                  "--out-dir", str(tmp_path / "o")], monkeypatch, capsys)
    assert code == 0, err
    assert calls == [25 * 2001]  # 25 points x (nominal row + 2000 draws)
    assert not hasattr(cli, "band_minima") and not hasattr(cli, "_batch_ratios")


@pytest.mark.parametrize("verb", ["bands", "coeffs", "simulate"])
def test_flags_replace_bad_raman_config(tmp_path, monkeypatch, capsys, verb):
    cfg = tmp_path / "raman.cfg"
    cfg.write_text("raman.omega_r = -1\nraman.delta = 1e200\n", encoding="ascii")
    base = [verb, "--config", str(cfg), "--format", "json"]
    code, err = _main_in_process(base + ["--omega", "5.4", "--delta", "0.5",
                                         "--out-dir", str(tmp_path / "o")], monkeypatch, capsys)
    assert code == 0, err
    # a bad flag value is still a usage error, over a good configuration too
    code, err = _main_in_process([verb, "--omega", "-1", "--out-dir", str(tmp_path / "p")],
                                 monkeypatch, capsys)
    assert code == 1 and "invalid configured value" not in err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("argv, line", [
    (["mixture-sim"], "pulse.t_pa_ms = 0"),
    (["mixture-sim"], "kinetics.n_shells = 0"),
    (["mixture-sim"], "kinetics.cross_weight = -1"),
    (["mixture-sim"], "mixture.counts = -5,7000,1100"),
    (["mixture-sim"], "kinetics.k00_cm3_s = -1e-12"),
    (["mixture-sim"], "pulse.intensity_w_cm2 = -1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_out_of_range_mixture_config_is_data_error(tmp_path, monkeypatch, capsys, argv, line):
    cfg = tmp_path / "mix.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process(argv + ["--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert "invalid configured value" in err
    assert not out.exists()


@pytest.mark.parametrize("line, flags", [
    ("pulse.t_pa_ms = 0", ["--t-pa", "2"]),
    ("kinetics.n_shells = 0", ["--n-shells", "50"]),
    ("mixture.counts = 1,2", ["--counts", "100,7000,1100"]),
    # a value mixture-sim does not read needs no flag
    ("raman.omega_r = -1", []),
])
def test_mixture_flags_replace_bad_config(tmp_path, monkeypatch, capsys, line, flags):
    cfg = tmp_path / "mix.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    base = ["mixture-sim", "--config", str(cfg), "--format", "json"]
    code, err = _main_in_process(base + flags + ["--out-dir", str(tmp_path / "o")],
                                 monkeypatch, capsys)
    assert code == 0, err


@pytest.mark.parametrize("args", [
    ["bands", "--q-max=1e300"], ["bands", "--q-min=-1001", "--q-max=0"],
    ["simulate", "--seed=-1"], ["fit", "{spec}", "--rho0=1e-160", "--t-pa=1e-160"],
    ["ratio-sweep", "--points=2", "--samples=100", "--stop=inf"],
    ["mixture-sim", "--counts=1.75e308,0,0"], ["simulate", "--noise=1.75e308"],
    ["mixture-sim", "--k00=1e300"], ["mixture-sim", "--cross-weight=1e300", "--k00=1e-3"],
    ["mixture-sim", "--n-shells=100001"],
], ids=lambda v: " ".join(v))
def test_flag_past_a_numeric_bound_is_usage_error(tmp_path, monkeypatch, capsys, args):
    """Values that overflowed the band grid, the sweep axis, the plotted
    counts, the spectrum noise or the mixture loss rates, a negative seed, an
    exposure that made k_pa infinite and the shell cap: each exits 1 before
    any output."""
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0), np.linspace(-30, 30, 9), 0.0, 0))
    out = tmp_path / "o"
    code, err = _main_in_process([a.format(spec=spec) for a in args] + ["--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 1 and err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("args", [["--delta=5e-324"], ["--delta-list", "0,5e-324"]],
                         ids=" ".join)
def test_subnormal_detuning_plots_finite_axes(tmp_path, monkeypatch, capsys, args):
    out = tmp_path / "o"
    code, err = _main_in_process(["coeffs", *args, "--out-dir", str(out), "--format", "svg"],
                                 monkeypatch, capsys)
    assert code == 0, err
    assert not re.search(rb"\b(nan|inf)\b", (out / "coeffs.svg").read_bytes(), re.I)


@pytest.mark.parametrize("args, named", [
    (["ratio-sweep", "--axis", "omega", "--omega", "3"], "--omega"),
    (["ratio-sweep", "--axis", "omega", "--omega", "1e7"], "--omega"),
    (["ratio-sweep", "--axis", "delta", "--delta", "1"], "--delta"),
    (["ratio-sweep", "--axis", "delta", "--delta", "1e7"], "--delta"),
    (["coeffs", "--delta", "7", "--delta-list", "1,2"], "--delta"),
    (["coeffs", "--delta", "1e7", "--delta-list", "1,2"], "--delta"),
    (["coeffs", "--delta-list", "1,,2"], "--delta-list"),
    (["coeffs", "--delta-list", ""], "--delta-list"),
    (["coeffs", "--delta-list", "1,x"], "--delta-list"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_flag_the_run_does_not_read_or_cannot_parse_is_usage_error(tmp_path, monkeypatch,
                                                                   capsys, args, named):
    # the swept parameter's nominal, and --delta beside --delta-list, go unread
    out = tmp_path / "o"
    sizes = ["--points=2", "--samples=100"] if args[0] == "ratio-sweep" else []
    code, err = _main_in_process(args + sizes + ["--out-dir", str(out)], monkeypatch, capsys)
    assert code == 1, err
    assert err.startswith("error:") and named in err and "could not convert" not in err
    assert not out.exists()


def test_delta_list_parses_like_counts():
    # one parser: the same rule and message shape for both lists
    assert config_module._float_list("1, 2.5,-3e-1", "x") == (1.0, 2.5, -0.3)
    for raw in ("", "1,,2", "1,a"):
        with pytest.raises(ValueError, match=re.escape(f"non-numeric count in {raw!r}")):
            config_module._mixture({**DEFAULTS, "mixture.counts": raw})
        with pytest.raises(ValueError,
                           match=re.escape(f"non-numeric --delta-list value in {raw!r}")):
            cli.cmd_coeffs(cli._build_parser().parse_args(["coeffs", f"--delta-list={raw}"]),
                           RunConfig())


def test_bad_sampling_flag_is_usage_error(tmp_path):
    res = run_cli(["ratio-sweep", "--points=2", "--samples=10",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 1 and "Traceback" not in res.stderr


# ------------------------------------------------------------------ failures

def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]).returncode == 1


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run_cli(["bands", "--omega", "5", "--frequency", "2"]).returncode == 1
    # only ratio-sweep and simulate draw random numbers, so only they take --seed
    out = tmp_path / "o"
    for argv in (["bands"], ["coeffs"], ["fit", "s.csv"], ["mixture-sim"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out-dir", str(out), "--seed", "-5"])
        assert exc.value.code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        # the verb's own usage, which lists the flags it does take
        assert f"usage: ramanpa {argv[0]} " in err
        assert f"ramanpa {argv[0]}: error: unrecognized arguments: --seed -5" in err


@pytest.mark.parametrize("n_points", [cli._MAX_BAND_POINTS + 1, 10**12])
def test_bands_point_cap_rejects_before_allocating(tmp_path, monkeypatch, capsys, n_points):
    def must_not_run(*args, **kwargs):
        raise AssertionError("band_curve allocated its grid above the point cap")

    monkeypatch.setattr(dressed_states.np, "linspace", must_not_run)
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    code = cli.main(["bands", "--n-points", str(n_points), "--out-dir", str(out)])
    assert code == 1
    assert f"n_points <= {cli._MAX_BAND_POINTS}" in capsys.readouterr().err
    assert not out.exists()


def test_bands_point_cap_is_documented():
    res = run_cli(["bands", "--help"])
    assert str(cli._MAX_BAND_POINTS) in res.stdout


@pytest.mark.parametrize("args", [
    ["mixture-sim", "--dt", "1e-15"],
    ["ratio-sweep", "--points=2", "--samples", str(10**15)],
    ["ratio-sweep", "--points", str(10**15)],
])
def test_huge_sizes_exit_before_allocating(tmp_path, args):
    # each of these would ask numpy for more than 2^47 bytes
    out = tmp_path / "o"
    res = run_cli(args + ["--out-dir", str(out)])
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr and "error:" in res.stderr
    assert not out.exists()


def test_ratio_sweep_point_cap_rejects_before_solving(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ratio_bands called above the point cap")

    monkeypatch.setattr(cli, "ratio_bands", must_not_run)
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    code = cli.main(["ratio-sweep", "--points", str(cli._MAX_SWEEP_POINTS + 1),
                     "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert f"points <= {cli._MAX_SWEEP_POINTS}" in capsys.readouterr().err


def test_sample_cap_in_config_is_data_error(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("uncertainty.n_samples = 1000000000000000\n", encoding="ascii")
    res = run_cli(["ratio-sweep", "--config", str(cfg), "--points=2",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 2 and "Traceback" not in res.stderr


@pytest.mark.parametrize("verb, text", [("ratio-sweep", "1 to 100000"),
                                        ("ratio-sweep", "100 to 1000000"),
                                        ("mixture-sim", "t_pa/10^6"),
                                        ("mixture-sim", "1 to 100000")])
def test_size_caps_are_documented(verb, text):
    res = run_cli([verb, "--help"])
    assert text in " ".join(res.stdout.split())


def test_bad_geometry_is_usage_error(tmp_path):
    res = run_cli(["bands", "--q-min", "3", "--q-max", "-3",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 1
    assert "q_min" in res.stderr


@pytest.mark.parametrize("flags", [["--start=-5"], ["--stop=inf"],
                                   ["--axis=delta", "--omega=-1"]])
def test_ratio_sweep_bad_nominal_is_usage_error(tmp_path, flags):
    res = run_cli(["ratio-sweep", *flags, "--points=3", "--samples=100",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert "error:" in res.stderr


# {spec} is a valid spectrum CSV, {cfg} a config file setting pulse.t_pa_ms = nan
@pytest.mark.parametrize("args, code", [
    (["bands", "--omega", "nan"], 1),
    (["bands", "--q-max", "inf"], 1),
    (["coeffs", "--omega", "inf"], 1),
    (["coeffs", "--delta-list", "0,nan"], 1),
    (["mixture-sim", "--dt", "nan"], 1),
    (["mixture-sim", "--n-shells", "0"], 1),
    (["mixture-sim", "--k00", "inf"], 1),
    (["mixture-sim", "--counts=nan,7000,1100"], 1),
    (["mixture-sim", "--cross-weight", "nan"], 1),
    (["mixture-sim", "--t-pa", "nan"], 1),
    (["mixture-sim", "--config", "{cfg}"], 2),
    (["simulate", "--noise", "nan"], 1),
    (["fit", "{spec}", "--rho0", "nan"], 1),
    (["fit", "{spec}", "--t-pa", "inf"], 1),
    (["coeffs", "--omega", "5.4", "--delta-list", "-2.5,0"], 0),
    (["bands", "--delta", "-2"], 0),
    (["ratio-sweep", "--axis", "delta", "--start", "-1e-1", "--points", "3",
      "--samples", "100"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_non_finite_input_exits_cleanly(tmp_path, args, code):
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("pulse.t_pa_ms = nan\n", encoding="ascii")
    argv = [a.format(spec=spec, cfg=cfg) for a in args]
    out = tmp_path / "o"
    res = run_cli(argv + ["--out-dir", str(out), "--format", "csv,json,svg"])
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code:
        assert "error" in res.stderr
        if "{cfg}" in args:
            assert "line 1" in res.stderr
    for name, data in tree_bytes(out).items():
        assert not re.search(rb"\b(nan|inf|infinity)\b", data, re.I), name


@pytest.mark.parametrize("args", [
    ["coeffs", "--omega", "5.4", "--delta-list", "-2.5,0"],
    ["bands", "--omega", "5.4", "--delta", "-1e-3"],
])
def test_leading_minus_value_matches_equals_form(tmp_path, args):
    joined = args[:-2] + [f"{args[-2]}={args[-1]}"]
    trees = []
    for name, argv in (("split", args), ("joined", joined)):
        res = run_cli(argv + ["--out-dir", str(tmp_path / name),
                              "--format", "csv,json,svg"])
        assert res.returncode == 0, res.stderr
        trees.append((res.stdout, tree_bytes(tmp_path / name)))
    assert trees[0] == trees[1]


def test_malformed_spectrum_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("detuning_khz,atoms_total\n0.0,100.0\n0.0,90.0\n",
                   encoding="ascii")
    res = run_cli(["fit", str(bad), "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 2
    assert "line 3" in res.stderr


@pytest.mark.parametrize("count", ["inf", "nan"])
def test_non_finite_spectrum_is_data_error(tmp_path, count):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"detuning_khz,atoms_total\n0.0,100.0\n1.0,{count}\n"
                   "2.0,95.0\n3.0,99.0\n4.0,100.0\n", encoding="ascii")
    res = run_cli(["fit", str(bad), "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 2
    assert "line 3" in res.stderr
    assert "non-finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("error, code", [
    (FloatingPointError, 3), (np.linalg.LinAlgError, 3), (SpectrumFormatError, 2),
    (ValueError, 1), (ArithmeticError, None), (ZeroDivisionError, None),
], ids=["FloatingPointError", "LinAlgError", "SpectrumFormatError", "ValueError",
        "ArithmeticError", "ZeroDivisionError"])
def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys, error, code):
    """main's table, both sides: the numeric failures exit 3 (LinAlgError,
    a ValueError, included), a spectrum fault 2, any other ValueError 1; any
    other ArithmeticError is a bug and stays a traceback (code None)."""
    def boom(data):
        raise error("synthetic blow-up")

    monkeypatch.setattr(cli, "fit_spectrum", boom)
    spec = tmp_path / "s.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    argv = ["fit", str(spec), "--out-dir", str(out), "--format", "json"]
    if code is None:
        with pytest.raises(error, match="synthetic blow-up"):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
        assert capsys.readouterr().err == "error: synthetic blow-up\n"
    assert not out.exists()


def test_non_converged_fit_still_reports(tmp_path, monkeypatch, capsys):
    def stuck(data):
        return FitResult(n0=9000.0, eta_res=1.0, nu0=0.0, gamma=20.0,
                         residual_rms=1.0, converged=False,
                         covariance=np.zeros((4, 4)))

    monkeypatch.setattr(cli, "fit_spectrum", stuck)
    spec = tmp_path / "s.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    code = cli.main(["fit", str(spec), "--out-dir", str(out), "--format", "csv"])
    assert code == 0
    assert "did not converge" in capsys.readouterr().err
    assert "converged = False" in (out / "fit_result.txt").read_text()
    assert not (out / "spectrum_normalized.csv").exists()


def test_edge_spike_fit_is_not_converged(tmp_path, monkeypatch, capsys):
    # a zero count at the grid edge captures a line far narrower than the
    # 10 kHz spacing, away from the real dip at 0 kHz
    spec = tmp_path / "s.csv"
    rows = zip(range(-30, 31, 10), (8600, 8200, 7000, 5000, 7000, 8200, 0))
    spec.write_text("detuning_khz,atoms_total,stderr\n"
                    + "".join(f"{d},{a},90\n" for d, a in rows), encoding="ascii")
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    code = cli.main(["fit", str(spec), "--out-dir", str(out), "--format", "csv,json"])
    assert code == 0
    assert "did not converge" in capsys.readouterr().err
    assert json.loads((out / "fit_result.json").read_text())["converged"] is False
    assert not (out / "spectrum_normalized.csv").exists()


def test_flat_zero_spectrum_fit_converges_without_a_warning(tmp_path, monkeypatch, capsys):
    # n0 = 0 leaves nothing to normalize, but the fit converged: no warning
    spec = tmp_path / "s.csv"
    spec.write_text("detuning_khz,atoms_total\n"
                    + "".join(f"{d},0\n" for d in range(-30, 31, 10)), encoding="ascii")
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    code = cli.main(["fit", str(spec), "--out-dir", str(out), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "converged = True" in (out / "fit_result.txt").read_text()
    assert not (out / "spectrum_normalized.csv").exists()


@pytest.mark.parametrize("field, value", [("nu0", "nan"), ("eta_res", "nan"), ("gamma", "inf")])
def test_fit_svg_with_non_finite_line_is_flat(tmp_path, monkeypatch, capsys, field, value):
    def broken(data):
        values = dict(n0=9000.0, eta_res=1.0, nu0=0.0, gamma=20.0)
        values[field] = float(value)
        return FitResult(**values, residual_rms=1.0, converged=True,
                         covariance=np.zeros((4, 4)))

    drawn = []
    real_plot = cli.render_plot

    def recording_plot(*args, **kwargs):
        drawn.append(kwargs["series"])
        return real_plot(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_spectrum", broken)
    monkeypatch.setattr(cli, "render_plot", recording_plot)
    spec = tmp_path / "s.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    out = tmp_path / "o"
    code = cli.main(["fit", str(spec), "--out-dir", str(out), "--format", "svg"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "fit.svg").exists()
    (model,) = drawn[0]
    assert np.all(model.y == 9000.0)  # the flat model


@pytest.mark.parametrize("args", [
    ["bands", "--omega", "1e200"],
    ["bands", "--delta", "1e200"],
    ["bands", "--delta=-2e6"],
    ["coeffs", "--delta-list", "0,1e200"],
    ["ratio-sweep", "--stop", "1e200", "--points", "3", "--samples", "100"],
], ids=" ".join)
def test_unresolvable_dressing_is_usage_error(tmp_path, args):
    out = tmp_path / "o"
    res = run_cli(args + ["--out-dir", str(out), "--format", "json"])
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "1e+06" in res.stderr and "Warning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("verb", ["bands", "coeffs", "ratio-sweep", "simulate"])
def test_dressing_limit_is_documented(verb):
    text = " ".join(run_cli([verb, "--help"]).stdout.split())
    assert "--omega OMEGA Raman coupling in E_r, 0 to 1e+06" in text
    assert "--delta DELTA detuning in E_r, |delta| <= 1e+06" in text


# {spec} is a spectrum CSV whose fit converges
VERB_ARGV = {
    "bands": ["bands", "--omega", "8"],
    "coeffs": ["coeffs", "--omega", "5.4", "--delta-list=-1,0,1"],
    "ratio-sweep": ["ratio-sweep", "--points=2", "--samples=100"],
    "fit": ["fit", "{spec}"],
    "simulate": ["simulate", "--noise", "0.03", "--seed", "7"],
    "mixture-sim": ["mixture-sim", "--counts=1200,7000,1100", "--t-pa", "10", "--dt", "0.05"],
}
# the files each verb writes per format; fit_result.txt is written under every
# format, spectrum_normalized.csv only for a converged fit
OUTPUTS = {
    "bands": {"csv": {"bands.csv"}, "json": {"bands.json"}, "svg": {"bands.svg"}},
    "coeffs": {"csv": {"coeffs.csv"}, "json": {"coeffs.json"}, "svg": {"coeffs.svg"}},
    "ratio-sweep": {"csv": {"ratio_band.csv", "ratio_nominal.csv"},
                    "json": {"ratio_sweep.json"}, "svg": {"ratio_sweep.svg"}},
    "fit": {"csv": {"fit_result.txt", "spectrum_normalized.csv"},
            "json": {"fit_result.txt", "fit_result.json"},
            "svg": {"fit_result.txt", "fit.svg"}},
    "simulate": {"csv": {"spectrum_superposition.csv"},
                 "json": {"simulate_superposition.json"},
                 "svg": {"spectrum_superposition.svg"}},
    "mixture-sim": {"csv": {"mixture_timeseries.csv"}, "json": {"mixture_summary.json"},
                    "svg": {"mixture_timeseries.svg"}},
}


def _verb_argv(verb, tmp_path):
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=0.8, nu0=1.5, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0), np.linspace(-60, 60, 30), 0.0, 0))
    return [a.format(spec=spec) for a in VERB_ARGV[verb]]


def _benchmark_expected():
    """EXPECTED of benchmarks/workloads.py, read as a literal: tests import no benchmark code."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["EXPECTED"]]
    return ast.literal_eval(value)


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
@pytest.mark.parametrize("verb", list(OUTPUTS))
def test_format_filter_limits_outputs(tmp_path, monkeypatch, capsys, verb, fmt):
    assert set().union(*OUTPUTS[verb].values()) == set(_benchmark_expected()[verb])
    out = tmp_path / "o"
    code, err = _main_in_process(_verb_argv(verb, tmp_path) + ["--out-dir", str(out),
                                                               "--format", fmt],
                                 monkeypatch, capsys)
    assert code == 0, err
    assert set(os.listdir(out)) == OUTPUTS[verb][fmt]


@pytest.mark.parametrize("verb", list(OUTPUTS))
def test_no_plot_is_rendered_without_svg(tmp_path, monkeypatch, capsys, verb):
    def must_not_run(*args, **kwargs):
        raise AssertionError("render_plot called without svg in --format")

    monkeypatch.setattr(cli, "render_plot", must_not_run)
    out = tmp_path / "o"
    code, err = _main_in_process(_verb_argv(verb, tmp_path) + ["--out-dir", str(out),
                                                               "--format", "csv,json"],
                                 monkeypatch, capsys)
    assert code == 0, err
    assert not any(name.endswith(".svg") for name in os.listdir(out))


# ------------------------------------------------ config rule, every verb

@pytest.mark.parametrize("argv", [
    ["bands"], ["coeffs"], ["ratio-sweep", "--points=2", "--samples=100"],
    ["fit", "{spec}"], ["simulate"], ["mixture-sim"],
], ids=" ".join)
def test_bad_configured_formats_is_data_error(tmp_path, monkeypatch, capsys, argv):
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0), np.linspace(-30, 30, 9), 0.0, 0))
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("output.formats = xml\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process([a.format(spec=spec) for a in argv]
                                 + ["--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert "invalid configured value" in err and "Traceback" not in err
    assert not out.exists()


def test_nul_in_the_out_dir_is_a_config_or_usage_error(tmp_path, monkeypatch, capsys):
    # os.makedirs raises ValueError on a NUL byte, which once escaped as a traceback
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"output.dir = " + str(tmp_path / "o").encode() + b"\0x\n")
    monkeypatch.chdir(tmp_path)
    code, err = _main_in_process(["bands", "--config", str(cfg)], monkeypatch, capsys)
    assert code == 2, err
    assert err.startswith("error: invalid configured value") and "output.dir" in err
    code, err = _main_in_process(["bands", "--out-dir", str(tmp_path / "o") + "\0x"],
                                 monkeypatch, capsys)
    assert code == 1, err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["nul.cfg"]
    # a flag replaces the configured value; an empty one does not
    code, err = _main_in_process(["bands", "--config", str(cfg), "--out-dir", ""],
                                 monkeypatch, capsys)
    assert code == 2, err
    code, err = _main_in_process(["bands", "--config", str(cfg), "--out-dir",
                                  str(tmp_path / "p"), "--format", "json"],
                                 monkeypatch, capsys)
    assert code == 0, err
    assert os.listdir(tmp_path / "p") == ["bands.json"]


def test_empty_configured_out_dir_is_data_error_before_the_solve(tmp_path, monkeypatch,
                                                                 capsys):
    # os.makedirs("") once failed with ENOENT after the verb had solved
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("output.dir =\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    solved = []
    monkeypatch.setattr(cli, "cmd_bands", lambda *a: solved.append(a) or ([], "solved"))
    code, err = _main_in_process(["bands", "--config", str(cfg)], monkeypatch, capsys)
    assert code == 2, err
    assert err.startswith("error: invalid configured value") and "output.dir" in err
    assert "Traceback" not in err
    assert not solved
    assert os.listdir(tmp_path) == ["empty.cfg"]
    # the stand-in verb does run once a flag gives the directory
    code, err = _main_in_process(["bands", "--config", str(cfg), "--out-dir", "o"],
                                 monkeypatch, capsys)
    assert code == 0, err
    assert len(solved) == 1 and os.path.isdir(tmp_path / "o")


def _write_spectrum(path):
    write_spectrum_csv(path, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0), np.linspace(-30, 30, 9), 0.0, 0))
    return str(path)


@pytest.mark.parametrize("line", ["pulse.t_pa_ms = 0", "pulse.intensity_w_cm2 = -1"])
def test_fit_configured_pulse_is_data_error(tmp_path, monkeypatch, capsys, line):
    spec = _write_spectrum(tmp_path / "spec.csv")
    cfg = tmp_path / "pulse.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process(["fit", str(spec), "--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert "invalid configured value" in err
    assert not out.exists()


@pytest.mark.parametrize("column", ["atoms_total", "stderr"])
def test_huge_spectrum_counts_are_data_error(tmp_path, column):
    """30 finite rows near 1.9e304 overflowed the fit's covariance: now exit 2."""
    det = np.linspace(-60.0, 60.0, 30)
    counts = 1.9e304 * (1.0 - 0.5 / (1.0 + (det / 10.0) ** 2))
    errs = 0.03 * counts if column == "stderr" else np.full(30, 100.0)
    if column == "stderr":
        counts = counts / 1e10
    rows = [f"{d:.12g},{c:.12g},{e:.12g}" for d, c, e in zip(det, counts, errs)]
    bad = tmp_path / "huge.csv"
    bad.write_text("detuning_khz,atoms_total,stderr\n" + "\n".join(rows) + "\n",
                   encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["fit", str(bad), "--out-dir", str(out), "--format", "csv,json,svg"])
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: line 2:") and "1e300" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not out.exists()


def test_fit_covariance_overflow_is_numeric_error(tmp_path):
    """30 rows scaled to 1e160 counts overflow the fit's covariance: exit 3, no file."""
    det = np.linspace(-60.0, 60.0, 30)
    spec = tmp_path / "big.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=1e160), det, 0.03, 0))
    out = tmp_path / "o"
    res = run_cli(["fit", str(spec), "--out-dir", str(out), "--format", "csv,json,svg"])
    assert res.returncode == 3, res.stderr
    assert "covariance is not finite" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("center, half", [(0.0, 1e30), (1e200, 1e190)],
                         ids=["+-1e30", "1e200+-1e190"])
def test_fit_span_past_the_log_gamma_box_is_data_error(tmp_path, center, half):
    """A 9-point spectrum this wide printed a TypeError traceback: exit 2, no out dir."""
    spec = tmp_path / "wide.csv"
    det = center + np.linspace(-half, half, 9)
    counts = [9000, 8900, 8500, 7000, 5000, 7000, 8500, 8900, 9000]
    spec.write_text("detuning_khz,atoms_total\n" + "".join(
        f"{float(d)!r},{c}\n" for d, c in zip(det, counts)), encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["fit", str(spec), "--out-dir", str(out)],
                  env={"PYTHONWARNINGS": "error"})
    assert res.returncode == 2, res.stderr
    assert res.stderr == "error: half the detuning span must be at most e^60 (about 1.1e26) kHz\n"
    assert not out.exists()


def test_fit_of_four_points_is_data_error(tmp_path):
    spec = tmp_path / "short.csv"
    spec.write_text("detuning_khz,atoms_total\n0,9000\n1,5000\n2,7000\n3,9000\n",
                    encoding="ascii")
    out = tmp_path / "o"
    res = run_cli(["fit", str(spec), "--out-dir", str(out)])
    assert res.returncode == 2, res.stderr
    assert res.stderr == "error: need 5 to 100000 points to fit, got 4\n"
    assert not out.exists()


def test_fit_past_the_point_cap_is_data_error_before_any_model_row(
        tmp_path, monkeypatch, capsys):
    """The fit costs about 1.7 KB and 0.3 ms per point, so a 10^6-row file
    would need about 1.6 GiB; the cap stops it before the first model row."""
    def no_model_rows(det, thetas):
        raise AssertionError("model rows allocated past the point cap")

    monkeypatch.setattr(spectra, "_forward", no_model_rows)
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    n = 100_001
    spec = tmp_path / "long.csv"
    spec.write_text("detuning_khz,atoms_total\n" + "".join(
        f"{k},{9000 - k % 7}\n" for k in range(n)), encoding="ascii")
    out = tmp_path / "o"
    assert cli.main(["fit", str(spec), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: need 5 to 100000 points to fit, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, raw, line", [
    (["fit", "{path}"], b"\xef\xbb\xbfdetuning_khz,atoms_total\n0,1\n", 1),
    (["fit", "{path}"], b"detuning_khz,atoms_total\n0,1\n1,\xc3\xa9\n", 3),
    (["bands", "--config", "{path}"], b"raman.omega_r = 8\nraman.delta = \xff\n", 2),
], ids=["spectrum-bom", "spectrum-utf8", "config-latin1"])
def test_undecodable_input_file_is_data_error(tmp_path, monkeypatch, capsys, argv, raw, line):
    path = tmp_path / "input"
    path.write_bytes(raw)
    out = tmp_path / "o"
    code, err = _main_in_process([a.format(path=path) for a in argv] + ["--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert err.startswith(f"error: line {line}: ")
    assert not out.exists()


# ------------------------------------------- extreme configured values

# each verb as run by default, then with flags, a swept axis or a list in
# place of configured values; a fit form's spectrum path follows
FORMS = {
    "bands": ["bands"],
    "coeffs": ["coeffs"],
    "ratio-sweep": ["ratio-sweep", "--points", "2", "--samples", "100"],
    "fit": ["fit"],
    "simulate": ["simulate"],
    "mixture-sim": ["mixture-sim"],
    "ratio-sweep --axis omega": ["ratio-sweep", "--axis", "omega", "--points", "2",
                                 "--samples", "100"],
    "ratio-sweep --axis delta": ["ratio-sweep", "--axis", "delta", "--points", "2",
                                 "--samples", "100"],
    "coeffs --delta-list=0,1": ["coeffs", "--delta-list=0,1"],
    "fit --rho0 1e14": ["fit", "--rho0", "1e14"],
    "bands --omega 1 --delta 0": ["bands", "--omega", "1", "--delta", "0"],
}
NUMERIC_KEYS = sorted(k for k, v in DEFAULTS.items() if not isinstance(v, str))
_RAMAN = {"raman.omega_r", "raman.delta", "raman.epsilon_q", "raman.recoil_energy_hz"}
_PULSE = {"trap.frequency_hz", "atoms.mass_amu", "atoms.scattering_length_a0",
          "atoms.n_total", "pulse.t_pa_ms", "pulse.intensity_w_cm2", "pulse.rho0_cm3"}
# --samples replaces uncertainty.n_samples
_SAMPLING = {"uncertainty.omega_rel_sigma", "uncertainty.delta_sigma",
             "uncertainty.epsilon_q_sigma", "uncertainty.seed"}
# each form and the numeric config keys it reads
READERS = {
    "bands": _RAMAN,
    "coeffs": _RAMAN,
    "ratio-sweep": _RAMAN - {"raman.omega_r"} | _SAMPLING,
    "fit": _PULSE,
    "simulate": _RAMAN | _PULSE | {"kinetics.k00_cm3_s", "line.nu0_khz", "line.gamma_khz",
                                   "uncertainty.seed"},
    "mixture-sim": _PULSE | {"kinetics.k00_cm3_s", "kinetics.cross_weight",
                             "kinetics.n_shells"},
    "ratio-sweep --axis omega": _RAMAN - {"raman.omega_r"} | _SAMPLING,
    "ratio-sweep --axis delta": _RAMAN - {"raman.delta"} | _SAMPLING,
    "coeffs --delta-list=0,1": _RAMAN - {"raman.delta"},
    "fit --rho0 1e14": {"pulse.t_pa_ms", "pulse.intensity_w_cm2"},
    "bands --omega 1 --delta 0": _RAMAN - {"raman.omega_r", "raman.delta"},
}


def _form_argv(tmp_path, form):
    """FORMS[form], with a spectrum to fit for a fit form."""
    spectrum = [_write_spectrum(tmp_path / "spec.csv")] if form.startswith("fit") else []
    return FORMS[form] + spectrum


def _run_configured(tmp_path, form, line):
    """Exit code of main on FORMS[form] with a one-line config, warnings raised."""
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    argv = _form_argv(tmp_path, form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                                "--format", "csv,json,svg"])


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_extreme_configured_value_exits_cleanly(tmp_path, monkeypatch, capsys, key):
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    # no form reads uncertainty.n_samples, as each sweep passes --samples; the
    # ratio-sweep form still parses it
    forms = [form for form in FORMS if key in READERS[form]] or ["ratio-sweep"]
    for value in ("1e300", "-1e300", "1e-300"):
        for form in forms:
            code = _run_configured(tmp_path, form, f"{key} = {value}")
            err = capsys.readouterr().err
            assert code in (0, 2), (form, key, value, err)
            assert code == 0 or key in err, (form, key, value, err)


@pytest.mark.parametrize("form, line", [
    *((form, line) for line in ("trap.frequency_hz = 1e300", "trap.frequency_hz = 1e-300",
                                "atoms.mass_amu = 1e300")
      for form in ("fit", "simulate", "mixture-sim")),
    *(("simulate", f"line.nu0_khz = {v}") for v in ("1e20", "1e300", "-1e300")),
    *(("simulate", f"line.gamma_khz = {v}") for v in ("1e300", "1e-300")),
    # each value alone passes, but eta_res * (gamma/2)^2 overflowed in the
    # Lorentzian: exit 1, "eta must be finite and >= 0"
    ("simulate", "line.gamma_khz = 1e100\nkinetics.k00_cm3_s = 1e200"),
])
def test_extreme_trap_atom_or_line_value_is_data_error_naming_its_key(tmp_path, monkeypatch,
                                                                      capsys, form, line):
    # the trap and atom values raised ZeroDivisionError from the Thomas-Fermi
    # density; the line values exited 1 naming no key, gamma after RuntimeWarnings
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    code = _run_configured(tmp_path, form, line)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: invalid configured value: ") and line.split()[0] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("form", FORMS)
def test_unread_configured_value_is_neither_checked_nor_used(tmp_path, monkeypatch, form):
    """A configured value that the form does not read, at -1e300 (-1 for an
    integer key), leaves the run's exit code and files as with no config."""
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    argv = _form_argv(tmp_path, form) + ["--format", "csv"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    want = tree_bytes(tmp_path / "default")
    cfg = tmp_path / "unread.cfg"
    for key in sorted(set(NUMERIC_KEYS) - READERS[form]):
        value = -1 if isinstance(DEFAULTS[key], int) else -1e300
        cfg.write_text(f"{key} = {value}\n", encoding="ascii")
        out = tmp_path / key
        assert cli.main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 0, key
        assert tree_bytes(out) == want, key


def test_given_rho0_is_checked_before_the_trap(tmp_path, monkeypatch, capsys):
    # a given density never falls back to the trap, so a bad one is the flag's
    # fault, whatever the trap config holds
    cfg = tmp_path / "trap.cfg"
    cfg.write_text("trap.frequency_hz = -1\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process(["fit", _write_spectrum(tmp_path / "spec.csv"), "--rho0", "0",
                                  "--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 1 and err == "error: rho0 must be > 0\n"
    assert not out.exists()
