"""Run configuration: defaults, flat dotted-key files, typed accessors.

A config file is plain text, one `key = value` per line, `#` comments allowed.
Keys mirror the defaults below; unknown keys are rejected so typos fail loudly.
The RAMANPA_CONFIG environment variable supplies a default file path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

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
    PulseParams,
    eta_from_rate,
    thomas_fermi_peak_density,
)
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


def _parse_value(key: str, raw: str, line_no: int):
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
            f"line {line_no}: cannot parse {key} value {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} value {raw!r} is not finite")
    return value


def _configured(make, **values):
    """make(**values) on configured values; a ValueError it raises is a ConfigError."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid configured value: {exc}") from None


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
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values = {}
        for no, line in enumerate(lines, start=1):
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

    # typed views -----------------------------------------------------------

    def raman_params(self, omega_r=None, delta=None) -> RamanParams:
        return RamanParams(
            omega_r=self.values["raman.omega_r"] if omega_r is None else float(omega_r),
            delta=self.values["raman.delta"] if delta is None else float(delta),
            epsilon_q=self.values["raman.epsilon_q"],
            recoil_energy_hz=self.values["raman.recoil_energy_hz"],
        )

    @property
    def omega_bar(self) -> float:
        return 2.0 * math.pi * self.values["trap.frequency_hz"]

    @property
    def mass_kg(self) -> float:
        return self.values["atoms.mass_amu"] * ATOMIC_MASS_KG

    @property
    def scattering_length_m(self) -> float:
        return self.values["atoms.scattering_length_a0"] * BOHR_RADIUS_M

    # the views below raise ConfigError (exit 2) for out-of-range config values

    def peak_density(self) -> float:
        """Configured peak density, or the Thomas-Fermi value when unset."""
        explicit = self.values["pulse.rho0_cm3"]
        if explicit > 0:
            return explicit
        return _configured(
            thomas_fermi_peak_density, n_atoms=self.values["atoms.n_total"],
            omega_bar=self.omega_bar, scattering_length=self.scattering_length_m,
            mass=self.mass_kg)

    def pulse_params(self, n0=None) -> PulseParams:
        return _configured(
            PulseParams,
            t_pa=self.values["pulse.t_pa_ms"] * MS,
            rho0=self.peak_density(),
            n0=self.values["atoms.n_total"] if n0 is None else float(n0),
            intensity=self.values["pulse.intensity_w_cm2"],
        )

    def lorentzian(self, eta_res: float) -> LorentzianLine:
        return _configured(LorentzianLine, eta_res=eta_res,
                           nu0=self.values["line.nu0_khz"],
                           gamma=self.values["line.gamma_khz"])

    def eta00(self, pulse: PulseParams) -> float:
        """eta of the configured (0,0) rate kinetics.k00_cm3_s over pulse."""
        return _configured(eta_from_rate, k_pa=self.values["kinetics.k00_cm3_s"], pulse=pulse)

    def uncertainty_spec(self, seed=None, n_samples=None) -> UncertaintySpec:
        """Configured sampling plan; a seed or n_samples given replaces its value.

        A bad configured value that no override replaces raises ConfigError;
        a bad override raises a plain ValueError.
        """
        overrides = {k: int(v) for k, v in (("seed", seed), ("n_samples", n_samples))
                     if v is not None}
        spec = _configured(UncertaintySpec, **{
            key: self.values[f"uncertainty.{key}"] for key in (
                "omega_rel_sigma", "delta_sigma", "epsilon_q_sigma", "n_samples", "seed")
            if key not in overrides})
        return replace(spec, **overrides)

    def mixture_counts(self) -> tuple[float, float, float]:
        raw = str(self.values["mixture.counts"]).split(",")
        if len(raw) != 3:
            raise ConfigError("mixture.counts must hold three comma-separated numbers")
        try:
            counts = tuple(float(v) for v in raw)
        except ValueError:
            raise ConfigError(f"mixture.counts has non-numeric entry: {raw!r}") from None
        if not all(map(math.isfinite, counts)):
            raise ConfigError(f"mixture.counts has non-finite entry: {raw!r}")
        return counts
