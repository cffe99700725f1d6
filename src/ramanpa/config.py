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
    MixtureState,
    PulseParams,
    check_mixture_args,
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

    @property
    def omega_bar(self) -> float:
        return 2.0 * math.pi * self.values["trap.frequency_hz"]

    @property
    def mass_kg(self) -> float:
        return self.values["atoms.mass_amu"] * ATOMIC_MASS_KG

    @property
    def scattering_length_m(self) -> float:
        return self.values["atoms.scattering_length_a0"] * BOHR_RADIUS_M

    # the views below raise ConfigError (exit 2) for out-of-range config values;
    # where an argument replaces a configured value, a bad argument raises a
    # plain ValueError

    def raman_params(self, omega_r=None, delta=None) -> RamanParams:
        """Configured dressing; an omega_r or delta given replaces its value."""
        overrides = {k: float(v) for k, v in (("omega_r", omega_r), ("delta", delta))
                     if v is not None}
        # 0 stands in for a replaced value while the configured ones are checked
        params = _configured(RamanParams, **{
            key: 0.0 if key in overrides else self.values[f"raman.{key}"]
            for key in ("omega_r", "delta", "epsilon_q", "recoil_energy_hz")})
        return replace(params, **overrides)

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
        """Configured sampling plan; a seed or n_samples given replaces its value."""
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

    def mixture_args(self, **given) -> dict:
        """simulate_mixture's keyword arguments from the configured kinetics.

        given may hold counts, k00, t_pa_ms, dt_ms, cross_weight and n_shells;
        each one that is not None replaces its configured value. dt_ms defaults
        to t_pa_ms / 1000.
        """
        given = {k: v for k, v in given.items() if v is not None}
        fixed = dict(omega_bar=self.omega_bar, rho0=self.peak_density(),
                     intensity=self.values["pulse.intensity_w_cm2"])
        # defaults stand in for the given values while the configured ones are checked
        defaults = RunConfig()._kinetics()
        _configured(_mixture_args, **fixed, **self._kinetics(**{k: defaults[k] for k in given}))
        return _mixture_args(**fixed, **self._kinetics(**given))

    def _kinetics(self, **given) -> dict:
        values = dict(k00=self.values["kinetics.k00_cm3_s"],
                      t_pa_ms=self.values["pulse.t_pa_ms"], dt_ms=None,
                      cross_weight=self.values["kinetics.cross_weight"],
                      n_shells=self.values["kinetics.n_shells"])
        values.update(given)
        if "counts" not in given:
            values["counts"] = self.mixture_counts()
        return values


def _mixture_args(*, omega_bar, rho0, intensity, counts, k00, t_pa_ms, dt_ms,
                  cross_weight, n_shells) -> dict:
    initial = MixtureState(counts=counts, omega_bar=omega_bar)
    pulse = PulseParams(t_pa=t_pa_ms * MS, rho0=rho0, n0=max(sum(counts), 1.0),
                        intensity=intensity)
    dt = pulse.t_pa / 1000.0 if dt_ms is None else dt_ms * MS
    check_mixture_args(k00, pulse, dt, cross_weight, n_shells)
    return dict(initial=initial, k00=k00, pulse=pulse, dt=dt,
                cross_weight=cross_weight, n_shells=n_shells)
