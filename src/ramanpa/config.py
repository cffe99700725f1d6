"""Run configuration: defaults, flat dotted-key files, typed accessors.

A config file is plain text, one `key = value` per line, `#` comments allowed.
Keys mirror the defaults below; unknown keys are rejected so typos fail loudly.
The RAMANPA_CONFIG environment variable supplies a default file path.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field

from .constants import (
    ATOMIC_MASS_KG,
    BOHR_RADIUS_M,
    EPSILON_Q_ER,
    MS,
    PA_LINE_FWHM_KHZ,
    RB87_MASS_AMU,
    RECOIL_ENERGY_HZ,
    SCATTERING_LENGTH_A0,
)
from .dressed_states import RamanParams
from .pa_kinetics import (
    DEFAULT_CROSS_WEIGHT,
    LorentzianLine,
    MixtureState,
    PulseParams,
    check_mixture_args,
    eta_from_rate,
    thomas_fermi_peak_density,
)
from .tables import read_text
from .uncertainty import UncertaintySpec

__all__ = ["RunConfig", "ConfigError", "ENV_CONFIG", "DEFAULTS"]

ENV_CONFIG = "RAMANPA_CONFIG"

# key -> default; value type doubles as the parse type
DEFAULTS: dict[str, float | int | str] = {
    "raman.omega_r": 8.0,              # Raman coupling, E_r
    "raman.delta": 0.0,                # two-photon detuning, E_r
    "raman.epsilon_q": EPSILON_Q_ER,   # quadratic Zeeman shift, E_r
    "raman.recoil_energy_hz": RECOIL_ENERGY_HZ,
    "trap.frequency_hz": 90.0,         # geometric-mean trap frequency
    "atoms.mass_amu": RB87_MASS_AMU,
    "atoms.scattering_length_a0": SCATTERING_LENGTH_A0,
    "atoms.n_total": 15000.0,
    "pulse.t_pa_ms": 5.0,
    "pulse.intensity_w_cm2": 0.0,      # metadata only
    "pulse.rho0_cm3": 0.0,             # 0 means: derive from the trap
    "kinetics.k00_cm3_s": 2e-12,       # reference bare-state PA rate
    # (+1,-1)/(0,0) channel strength: bare ratio 2 damped by the pair offset
    "kinetics.cross_weight": DEFAULT_CROSS_WEIGHT,
    "kinetics.n_shells": 400,
    "line.nu0_khz": 0.0,
    "line.gamma_khz": PA_LINE_FWHM_KHZ,
    "mixture.counts": "1200,7000,1100",
    "uncertainty.omega_rel_sigma": 0.10,
    "uncertainty.delta_sigma": 0.5,
    "uncertainty.epsilon_q_sigma": 0.0,
    "uncertainty.n_samples": 2000,
    "uncertainty.seed": 0,
    "output.dir": "out",
    "output.formats": "csv,svg",
}


class ConfigError(ValueError):
    """Raised for unreadable or ill-formed configuration input."""


class _Reads(dict):
    """Merged values that remember which keys a view read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _parse_value(key: str, raw: str, line: int):
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, str):
            return raw
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line}: cannot parse {key} value {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: {key} value {raw!r} is not finite")
    return value


@dataclass
class RunConfig:
    """Immutable-by-convention bag of run settings with typed accessors."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(DEFAULTS)
        merged.update(self.values)
        self.values = merged

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = read_text(path, "utf-8", ConfigError, "config file is not UTF-8 text")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values = {}
        for no, line in enumerate(io.StringIO(text, newline=None), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {no}: expected 'key = value', got {body!r}")
            key, raw = body.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"line {no}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw, no)
        return cls(values=values)

    @classmethod
    def from_environment(cls, explicit_path=None) -> "RunConfig":
        """Explicit path wins; else the RAMANPA_CONFIG variable; else defaults."""
        path = explicit_path or os.environ.get(ENV_CONFIG)
        return cls.from_file(path) if path else cls()

    def get(self, key: str):
        return self.values[key]

    def _build(self, view, flags=None):
        """view(values) with each given flag in place of its configured value.

        flags maps config keys to flag values, None meaning not given. If the
        build fails, the configured values are checked alone, DEFAULTS standing
        in for each given flag (None for a flag with no config key): a failure
        there raises ConfigError (exit 2), naming the keys the view read whose
        values differ from DEFAULTS unless the message names one already; else
        the flags' ValueError stands (exit 1). A successful build reads only the
        values it uses, so a verb never rejects a configured value that a flag
        replaces.
        """
        given = {k: v for k, v in (flags or {}).items() if v is not None}
        try:
            return view({**self.values, **given})
        except ValueError:
            configured = _Reads({**self.values, **{k: DEFAULTS.get(k) for k in given}})
            try:
                view(configured)
            except ValueError as exc:
                message = str(exc)
                keys = sorted(k for k in configured.read
                              if configured.get(k) != DEFAULTS.get(k))
                if keys and not any(k in message for k in keys):
                    message = f"{', '.join(keys)}: {message}"
                raise ConfigError(f"invalid configured value: {message}") from None
            raise

    # typed views: each raises ConfigError for a bad configured value and a
    # plain ValueError for a bad argument that replaces one

    def raman_params(self, omega_r=None, delta=None) -> RamanParams:
        return self._build(_raman, {"raman.omega_r": omega_r, "raman.delta": delta})

    def pulse_params(self, n0=None, t_pa_ms=None, rho0=None) -> PulseParams:
        """Configured pulse; n0 replaces atoms.n_total in it (not in the density)."""
        # a configured rho0 <= 0 means: derive from the trap; a given one is bad
        if rho0 is not None and not rho0 > 0:
            raise ValueError("rho0 must be > 0")
        return self._build(lambda v: _pulse(v, n0),
                           {"pulse.t_pa_ms": t_pa_ms, "pulse.rho0_cm3": rho0})

    def lorentzian(self, eta_res: float) -> LorentzianLine:
        return self._build(lambda v: _line(v, eta_res))

    def eta00(self, pulse: PulseParams) -> float:
        """eta of the configured (0,0) rate kinetics.k00_cm3_s over pulse."""
        return self._build(lambda v: eta_from_rate(v["kinetics.k00_cm3_s"], pulse))

    def uncertainty_spec(self, seed=None, n_samples=None) -> UncertaintySpec:
        return self._build(_uncertainty, {"uncertainty.seed": seed,
                                          "uncertainty.n_samples": n_samples})

    def seed(self, seed=None) -> int:
        return self._build(_seed, {"uncertainty.seed": seed})

    def formats(self, formats=None) -> tuple[str, ...]:
        """Output formats from a comma list such as "csv,svg"."""
        return self._build(_formats, {"output.formats": formats})

    def out_dir(self, out_dir=None) -> str:
        return self._build(_out_dir, {"output.dir": out_dir})

    def mixture_args(self, counts=None, k00=None, t_pa_ms=None, dt_ms=None,
                     cross_weight=None, n_shells=None) -> dict:
        """simulate_mixture's keyword arguments from the configured kinetics.

        counts is a comma list like mixture.counts; dt_ms, which has no config
        key, defaults to t_pa_ms / 1000.
        """
        return self._build(_mixture, {
            "mixture.counts": counts, "kinetics.k00_cm3_s": k00,
            "pulse.t_pa_ms": t_pa_ms, "dt_ms": dt_ms,
            "kinetics.cross_weight": cross_weight, "kinetics.n_shells": n_shells})


# views: plain functions of the merged values, raising ValueError ----------

def _raman(v) -> RamanParams:
    return RamanParams(omega_r=float(v["raman.omega_r"]), delta=float(v["raman.delta"]),
                       epsilon_q=v["raman.epsilon_q"],
                       recoil_energy_hz=v["raman.recoil_energy_hz"])


def _n_total(v) -> float:
    # counts synthesized from n_total, times (1 + noise g) with noise <= 1, stay
    # far below Spectrum's 1e300 bound
    n_total = v["atoms.n_total"]
    if not 0 < n_total <= 1e290:
        raise ValueError("atoms.n_total must be > 0 and at most 1e290")
    return n_total


def _peak_density(v) -> float:
    explicit = v["pulse.rho0_cm3"]
    if explicit > 0:
        return explicit
    return thomas_fermi_peak_density(
        n_atoms=_n_total(v), omega_bar=2.0 * math.pi * v["trap.frequency_hz"],
        scattering_length=v["atoms.scattering_length_a0"] * BOHR_RADIUS_M,
        mass=v["atoms.mass_amu"] * ATOMIC_MASS_KG)


def _line(v, eta_res: float) -> LorentzianLine:
    # simulate samples the line at nu0 + (-3 ... 3) gamma: the bounds keep the
    # Lorentzian's squares finite and normal and points 0.2 gamma apart distinct
    nu0, gamma = v["line.nu0_khz"], v["line.gamma_khz"]
    if not 1e-100 <= gamma <= 1e100:
        raise ValueError("line.gamma_khz must be between 1e-100 and 1e100")
    if not abs(nu0) <= 1e12 * gamma:
        raise ValueError("line.nu0_khz must be at most 1e12 x line.gamma_khz in magnitude")
    if not math.isfinite(eta_res * (0.5 * gamma) * (0.5 * gamma)):  # as lorentzian_eta
        raise ValueError("line.gamma_khz too large for kinetics.k00_cm3_s: "
                         "eta_res * (gamma / 2)^2 must be finite")
    return LorentzianLine(eta_res=eta_res, nu0=nu0, gamma=gamma)


def _pulse(v, n0=None) -> PulseParams:
    return PulseParams(t_pa=v["pulse.t_pa_ms"] * MS, rho0=_peak_density(v),
                       n0=_n_total(v) if n0 is None else float(n0),
                       intensity=v["pulse.intensity_w_cm2"])


def _uncertainty(v) -> UncertaintySpec:
    return UncertaintySpec(
        omega_rel_sigma=v["uncertainty.omega_rel_sigma"],
        delta_sigma=v["uncertainty.delta_sigma"],
        epsilon_q_sigma=v["uncertainty.epsilon_q_sigma"],
        n_samples=int(v["uncertainty.n_samples"]), seed=int(v["uncertainty.seed"]))


def _seed(v) -> int:
    if v["uncertainty.seed"] < 0:
        raise ValueError("seed must be >= 0")
    return v["uncertainty.seed"]


def _formats(v) -> tuple[str, ...]:
    raw = v["output.formats"]
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not parts or not set(parts) <= {"csv", "json", "svg"}:
        raise ValueError(f"formats must be a comma list of csv, json and svg, got {raw!r}")
    return parts


def _out_dir(v) -> str:
    if not v["output.dir"]:  # os.makedirs raises FileNotFoundError on it
        raise ValueError("output.dir must not be empty")
    if "\0" in v["output.dir"]:  # os.makedirs raises ValueError on it
        raise ValueError("output.dir and --out-dir must not contain a NUL byte")
    return v["output.dir"]


def _float_list(raw: str, item: str) -> tuple[float, ...]:
    """The numbers of a comma list; ValueError naming item for an empty or bad field."""
    try:
        return tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise ValueError(f"non-numeric {item} in {raw!r}") from None


def _mixture(v) -> dict:
    initial = MixtureState(counts=_float_list(v["mixture.counts"], "count"))  # checks all three
    pulse = _pulse(v, n0=max(sum(initial.counts), 1.0))
    dt = pulse.t_pa / 1000.0 if v.get("dt_ms") is None else v["dt_ms"] * MS
    k00, cross_weight = v["kinetics.k00_cm3_s"], v["kinetics.cross_weight"]
    n_shells = v["kinetics.n_shells"]
    check_mixture_args(k00, pulse, dt, cross_weight, n_shells)
    return dict(initial=initial, k00=k00, pulse=pulse, dt=dt,
                cross_weight=cross_weight, n_shells=n_shells)
