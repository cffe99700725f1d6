"""Command line interface: outputs, determinism, exit codes."""
import filecmp
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ramanpa.cli as cli
from ramanpa.config import RunConfig
from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.spectra import FitResult, synthesize_spectrum, write_spectrum_csv

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


def test_simulate_mixture_mode_writes_kinetics_outputs(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["simulate", "--mode", "mixture",
                   "--out-dir", str(out), "--format", "csv,json"])
    assert res.returncode == 0, res.stderr
    assert (out / "mixture_timeseries.csv").exists()
    assert (out / "mixture_summary.json").exists()


def test_mixture_sim_matches_library(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["mixture-sim", "--counts=1200,7000,1100", "--k00", "8e-12",
                   "--t-pa", "10", "--dt", "0.01", "--out-dir", str(out),
                   "--format", "json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "mixture_summary.json").read_text())

    from ramanpa.pa_kinetics import MixtureState, simulate_mixture
    config = RunConfig()
    pulse = PulseParams(t_pa=0.010, rho0=config.peak_density(), n0=9300.0,
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


@pytest.mark.parametrize("verb", ["bands", "coeffs", "simulate", "ratio-sweep"])
@pytest.mark.parametrize("line", ["raman.omega_r = 1e200", "raman.omega_r = -1",
                                  "raman.delta = -2e6", "raman.epsilon_q = -1"])
def test_out_of_range_raman_config_is_data_error(tmp_path, monkeypatch, capsys, verb, line):
    cfg = tmp_path / "raman.cfg"
    cfg.write_text(line + "\n", encoding="ascii")
    out = tmp_path / "o"
    code, err = _main_in_process([verb, "--config", str(cfg), "--out-dir", str(out)],
                                 monkeypatch, capsys)
    assert code == 2, err
    assert "invalid configured value" in err
    assert not out.exists()


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
    (["simulate", "--mode", "mixture"], "kinetics.n_shells = 0"),
    (["simulate", "--mode", "mixture"], "kinetics.k00_cm3_s = -1e-12"),
    (["simulate", "--mode", "mixture"], "pulse.intensity_w_cm2 = -1"),
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


def test_bad_sampling_flag_is_usage_error(tmp_path):
    res = run_cli(["ratio-sweep", "--points=2", "--samples=10",
                   "--out-dir", str(tmp_path / "o")])
    assert res.returncode == 1 and "Traceback" not in res.stderr


# ------------------------------------------------------------------ failures

def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]).returncode == 1


def test_unknown_flag_is_usage_error():
    assert run_cli(["bands", "--omega", "5", "--frequency", "2"]).returncode == 1


@pytest.mark.parametrize("n_points", [cli._MAX_BAND_POINTS + 1, 10**12])
def test_bands_point_cap_rejects_before_allocating(tmp_path, monkeypatch, capsys, n_points):
    def must_not_run(*args, **kwargs):
        raise AssertionError("band_curve called above the point cap")

    monkeypatch.setattr(cli, "band_curve", must_not_run)
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
        raise AssertionError("_band called above the point cap")

    monkeypatch.setattr(cli, "_band", must_not_run)
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


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    def boom(data):
        raise ArithmeticError("synthetic blow-up")

    monkeypatch.setattr(cli, "fit_spectrum", boom)
    spec = tmp_path / "s.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    monkeypatch.delenv("RAMANPA_CONFIG", raising=False)
    code = cli.main(["fit", str(spec), "--out-dir", str(tmp_path / "o"),
                     "--format", "json"])
    assert code == 3


def test_non_converged_fit_still_reports(tmp_path, monkeypatch, capsys):
    def stuck(data):
        return FitResult(n0=9000.0, eta_res=1.0, nu0=0.0, gamma=20.0,
                         k_pa=float("nan"), residual_rms=1.0, converged=False,
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


@pytest.mark.parametrize("field, value", [("nu0", "nan"), ("eta_res", "nan"), ("gamma", "inf")])
def test_fit_svg_with_non_finite_line_is_flat(tmp_path, monkeypatch, capsys, field, value):
    def broken(data):
        values = dict(n0=9000.0, eta_res=1.0, nu0=0.0, gamma=20.0)
        values[field] = float(value)
        return FitResult(**values, k_pa=1e-12, residual_rms=1.0, converged=True,
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


def test_dressing_limit_is_documented():
    text = " ".join(run_cli(["bands", "--help"]).stdout.split())
    assert "0 to 1e+06" in text and "|delta| <= 1e+06" in text


def test_format_filter_limits_outputs(tmp_path):
    out = tmp_path / "o"
    res = run_cli(["bands", "--omega", "8", "--out-dir", str(out),
                   "--format", "csv"])
    assert res.returncode == 0, res.stderr
    names = set(os.listdir(out))
    assert names == {"bands.csv"}


# ------------------------------------------------ config rule, every verb

@pytest.mark.parametrize("argv", [
    ["bands"], ["coeffs"], ["ratio-sweep", "--points=2", "--samples=100"],
    ["fit", "{spec}"], ["simulate"], ["simulate", "--mode", "mixture"], ["mixture-sim"],
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


@pytest.mark.parametrize("line", ["pulse.t_pa_ms = 0", "pulse.intensity_w_cm2 = -1"])
def test_fit_configured_pulse_is_data_error(tmp_path, monkeypatch, capsys, line):
    spec = tmp_path / "spec.csv"
    write_spectrum_csv(spec, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0), np.linspace(-30, 30, 9), 0.0, 0))
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
    assert not any(out.iterdir())


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
