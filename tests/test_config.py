"""Run configuration: one rule from config values and flags to parameters."""
import pytest

from ramanpa.config import DEFAULTS, ConfigError, RunConfig
from ramanpa.dressed_states import RamanParams
from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.uncertainty import UncertaintySpec


def test_defaults_build_every_view():
    """The defaults stand in for flag values, so each must pass its own checks."""
    config = RunConfig()
    assert isinstance(config.raman_params(), RamanParams)
    pulse = config.pulse_params()
    assert isinstance(pulse, PulseParams) and pulse.rho0 > 0
    eta00 = config.eta00(pulse)
    assert eta00 > 0
    assert isinstance(config.lorentzian(eta_res=eta00), LorentzianLine)
    assert isinstance(config.uncertainty_spec(), UncertaintySpec)
    assert config.seed() == DEFAULTS["uncertainty.seed"]
    assert config.formats() == ("csv", "svg")
    mixture = config.mixture_args()
    assert mixture["dt"] == pytest.approx(mixture["pulse"].t_pa / 1000.0)
    assert mixture["initial"].counts == (1200.0, 7000.0, 1100.0)


def test_flag_replaces_bad_configured_value():
    config = RunConfig({"raman.omega_r": -1.0, "pulse.t_pa_ms": 0.0})
    with pytest.raises(ConfigError, match="invalid configured value"):
        config.raman_params()
    assert config.raman_params(omega_r=5.4).omega_r == 5.4
    assert config.pulse_params(t_pa_ms=2.0).t_pa == pytest.approx(2e-3)
    with pytest.raises(ConfigError):
        config.mixture_args(counts="1,2,3")


@pytest.mark.parametrize("call", [
    lambda c: c.raman_params(delta=2e6),
    lambda c: c.pulse_params(t_pa_ms=0.0),
    lambda c: c.uncertainty_spec(n_samples=10),
    lambda c: c.seed(-1),
    lambda c: c.formats("csv,xml"),
    lambda c: c.mixture_args(counts="1,2"),
    lambda c: c.mixture_args(dt_ms=1e9),  # --dt has no config key
], ids=["delta", "t_pa", "n_samples", "seed", "formats", "counts", "dt"])
def test_bad_flag_is_plain_value_error(call):
    with pytest.raises(ValueError) as info:
        call(RunConfig())
    assert not isinstance(info.value, ConfigError)


@pytest.mark.parametrize("rho0", [0.0, -1.0, float("nan")])
def test_given_density_never_means_derive_from_trap(rho0):
    with pytest.raises(ValueError, match="rho0 must be > 0") as info:
        RunConfig().pulse_params(rho0=rho0)
    assert not isinstance(info.value, ConfigError)


def test_views_read_only_the_values_they_use():
    # a given density leaves the trap unread
    pulse = RunConfig({"trap.frequency_hz": 0.0}).pulse_params(rho0=1e14)
    assert pulse.rho0 == 1e14
    with pytest.raises(ConfigError):
        RunConfig({"trap.frequency_hz": 0.0}).pulse_params()
    # the seed alone is checked where no sampling plan is used
    assert RunConfig({"uncertainty.n_samples": 5}).seed() == 0


@pytest.mark.parametrize("raw, line", [
    (b"raman.omega_r = 8\nraman.delta = \xff\n", 2),
    (b"raman.omega_r = 8\r\n# caf\xe9\r\n", 2),
    (b"\x80raman.omega_r = 8\n", 1),
    (b"raman.omega_r = 8\rraman.delta = 0\r\xff\r", 3),
])
def test_non_utf8_file_names_the_line(tmp_path, raw, line):
    path = tmp_path / "bad.cfg"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=f"^line {line}: .*not UTF-8"):
        RunConfig.from_file(path)


def test_crlf_and_cr_line_ends_parse(tmp_path):
    path = tmp_path / "crlf.cfg"
    path.write_bytes(b"raman.omega_r = 5\r\nraman.delta = 1  # E_r\rbogus\n")
    with pytest.raises(ConfigError, match="^line 3: "):
        RunConfig.from_file(path)
    path.write_bytes(b"raman.omega_r = 5\r\nraman.delta = 1  # E_r\r")
    assert RunConfig.from_file(path).raman_params() == RamanParams(omega_r=5.0, delta=1.0)


def test_atom_count_is_bounded_where_it_is_read():
    at_bound = RunConfig({"atoms.n_total": 1e290, "pulse.rho0_cm3": 1e14})
    assert at_bound.pulse_params().n0 == 1e290
    with pytest.raises(ConfigError, match="atoms.n_total must be > 0 and at most 1e290"):
        RunConfig({"atoms.n_total": 1e291}).pulse_params()
    # a given n0 and a configured density leave the atom count unread
    config = RunConfig({"atoms.n_total": 1e305, "pulse.rho0_cm3": 1e14})
    assert config.pulse_params(n0=9000.0).n0 == 9000.0
