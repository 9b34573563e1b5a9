"""Run configuration: strict JSON schema, presets, dotted-key overrides.

A RunConfig is pure data. Parsing rejects unknown keys at every level and
round-trips exactly: from_dict(cfg.to_dict()) == cfg. Pump strength is given
as exactly one of pump_fraction (of the critical amplitude), eps (equal
pumps), or the eps1/eps2 pair.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .criteria import DUAN_PAIRINGS, OBJECTIVES
from .errors import ConfigError
from .model import SystemParams
from .sde import SdeConfig, _config_jsonable

SCHEMA = "opodimer-run/1"

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

# Keys of each theta policy and stability mode; _MODE_KEYS names the selector.
THETA_POLICIES = {"fixed": ("policy", "degrees"),
                  "optimize": ("policy", "objective", "at_omega")}
STABILITY_MODES = {"coupling-grid": ("mode", "J_a", "J_b", "track_detuning"),
                   "pump-scan": ("mode", "pump_fractions")}
_MODE_KEYS = {"theta": ("policy", THETA_POLICIES),
              "stability": ("mode", STABILITY_MODES)}

_PUMP_KEYS = ("pump_fraction", "eps", "eps1", "eps2")
_RATE_KEYS = tuple(f.name for f in fields(SystemParams)
                   if f.name not in ("eps1", "eps2"))


def _section(d, where: str) -> dict:
    """The check every config section passes first: it must be an object."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    return d


def _parse(d: dict, parsers: dict, where: str) -> dict:
    """Parsed values of the keys of d that parsers names; each parser takes
    (value, dotted path) and raises ConfigError."""
    return {k: parse(d[k], f"{where}.{k}" if where else k)
            for k, parse in parsers.items() if k in d}


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(_section(d, where)) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _as_float(v, where: str) -> float:
    # JSON admits NaN, Infinity and integers past the float range; the
    # comparison is False for each of them
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return v


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be a boolean, got {v!r}")
    return v


def _as_floats(v, where: str) -> tuple:
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{where} must be a non-empty list")
    return tuple(_as_float(x, f"{where}[{i}]") for i, x in enumerate(v))


def _one_of(v, options: tuple, where: str):
    if v not in options:
        raise ConfigError(f"{where} must be one of {options}, got {v!r}")
    return v


def _as_complex(v, where: str):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"{where} must be a number or [re, im], got {v!r}")
        return complex(_as_float(v[0], where + "[0]"), _as_float(v[1], where + "[1]"))
    return complex(_as_float(v, where))


def _complex_jsonable(z: complex):
    return z.real if z.imag == 0.0 else [z.real, z.imag]


@dataclass(frozen=True)
class ParamsSpec:
    """SystemParams as configured. The pump is a fraction of the critical
    amplitude when pump_fraction is set, else the amplitudes eps1, eps2.
    The SystemParams are built (and so validated) once, on construction."""

    kappa: float = 0.01
    gamma_a: float = 1.0
    gamma_b: float = 1.0
    J_a: float = 0.0
    J_b: float = 0.0
    Delta_a: float = 0.0
    Delta_b: float = 0.0
    pump_fraction: float = None
    eps1: complex = 0j
    eps2: complex = 0j
    _params: SystemParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        common = {k: getattr(self, k) for k in _RATE_KEYS}
        if self.pump_fraction is not None:
            p = SystemParams.symmetric(pump_fraction=self.pump_fraction, **common)
        else:
            p = SystemParams(eps1=self.eps1, eps2=self.eps2, **common)
        object.__setattr__(self, "_params", p)

    @classmethod
    def from_dict(cls, d: dict, where: str = "params") -> "ParamsSpec":
        _reject_unknown(d, _RATE_KEYS + _PUMP_KEYS, where)
        kw = _parse(d, dict.fromkeys(_RATE_KEYS, _as_float), where)
        if ("pump_fraction" in d) + ("eps" in d) + ("eps1" in d or "eps2" in d) > 1:
            raise ConfigError(
                f"{where}: give exactly one of pump_fraction, eps, or eps1/eps2")
        if "pump_fraction" in d:
            kw["pump_fraction"] = _as_float(d["pump_fraction"],
                                            f"{where}.pump_fraction")
        elif "eps" in d:
            kw["eps1"] = kw["eps2"] = _as_complex(d["eps"], f"{where}.eps")
        elif "eps1" in d or "eps2" in d:
            if not ("eps1" in d and "eps2" in d):
                raise ConfigError(f"{where}: eps1 and eps2 must be given together")
            kw.update(eps1=_as_complex(d["eps1"], f"{where}.eps1"),
                      eps2=_as_complex(d["eps2"], f"{where}.eps2"))
        try:
            return cls(**kw)
        except ValueError as exc:  # a rate out of SystemParams' range
            raise ConfigError(f"{where}: {exc}") from None

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _RATE_KEYS}
        if self.pump_fraction is not None:
            d["pump_fraction"] = self.pump_fraction
        elif self.eps1 == self.eps2:
            d["eps"] = _complex_jsonable(self.eps1)
        else:
            d["eps1"] = _complex_jsonable(self.eps1)
            d["eps2"] = _complex_jsonable(self.eps2)
        return d

    def to_params(self) -> SystemParams:
        return self._params

    def patched(self, patch: dict, where: str) -> "ParamsSpec":
        """New spec with a subset of keys replaced; setting any pump key
        replaces the whole pump specification."""
        d = self.to_dict()
        if any(k in _section(patch, where) for k in _PUMP_KEYS):
            for k in _PUMP_KEYS:
                d.pop(k, None)
        d.update(patch)
        return ParamsSpec.from_dict(d, where)


@dataclass(frozen=True)
class SweepSpec:
    omega_start: float = -20.0
    omega_stop: float = 20.0
    omega_points: int = 401

    @classmethod
    def from_dict(cls, d: dict, where: str = "sweep") -> "SweepSpec":
        parsers = {"omega_start": _as_float, "omega_stop": _as_float,
                   "omega_points": _as_int}
        _reject_unknown(d, parsers, where)
        kw = _parse(d, parsers, where)
        if kw.get("omega_points", 1) < 1:
            raise ConfigError(f"{where}.omega_points must be >= 1, "
                              f"got {kw['omega_points']}")
        return cls(**kw)

    def to_dict(self) -> dict:
        return {"omega_start": self.omega_start, "omega_stop": self.omega_stop,
                "omega_points": self.omega_points}

    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_start, self.omega_stop, self.omega_points)


@dataclass(frozen=True)
class ThetaSpec:
    policy: str = "fixed"
    degrees: float = 0.0
    objective: str = "squeezing"
    at_omega: float = 0.0

    @classmethod
    def from_dict(cls, d: dict, where: str = "theta") -> "ThetaSpec":
        policy = _one_of(_section(d, where).get("policy", "fixed"),
                         tuple(THETA_POLICIES), f"{where}.policy")
        _reject_unknown(d, THETA_POLICIES[policy], f'{where} (policy "{policy}")')
        if policy == "fixed":
            return cls(policy="fixed",
                       degrees=_as_float(d.get("degrees", 0.0), f"{where}.degrees"))
        objective = _one_of(d.get("objective", "squeezing"), OBJECTIVES,
                            f"{where}.objective")
        return cls(policy="optimize", degrees=0.0, objective=objective,
                   at_omega=_as_float(d.get("at_omega", 0.0), f"{where}.at_omega"))

    def to_dict(self) -> dict:
        if self.policy == "fixed":
            return {"policy": "fixed", "degrees": self.degrees}
        return {"policy": "optimize", "objective": self.objective,
                "at_omega": self.at_omega}


@dataclass(frozen=True)
class VariantSpec:
    label: str = None
    params_patch: tuple = ()
    theta: ThetaSpec = None

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "VariantSpec":
        _reject_unknown(d, ("label", "params", "theta"), where)
        label = d.get("label")
        if label is not None and not isinstance(label, str):
            raise ConfigError(f"{where}.label must be a string, got {label!r}")
        patch = d.get("params", {})
        _reject_unknown(patch, _RATE_KEYS + _PUMP_KEYS, f"{where}.params")
        theta = ThetaSpec.from_dict(d["theta"], f"{where}.theta") \
            if "theta" in d else None
        return cls(label=label, params_patch=tuple(sorted(patch.items())),
                   theta=theta)

    def to_dict(self) -> dict:
        d = {}
        if self.label is not None:
            d["label"] = self.label
        if self.params_patch:
            d["params"] = dict(self.params_patch)
        if self.theta is not None:
            d["theta"] = self.theta.to_dict()
        return d


def _vary_from_list(v, where: str = "vary") -> tuple:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {v!r}")
    return tuple(VariantSpec.from_dict(x, f"{where}[{i}]") for i, x in enumerate(v))


@dataclass(frozen=True)
class StabilitySpec:
    mode: str = "coupling-grid"
    J_a: tuple = (0.0, 1.0, 2.0, 5.0, 10.0)
    J_b: tuple = (0.0, 1.0, 2.0, 5.0, 10.0)
    track_detuning: bool = False
    pump_fractions: tuple = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

    @classmethod
    def from_dict(cls, d: dict, where: str = "stability") -> "StabilitySpec":
        mode = _one_of(_section(d, where).get("mode", "coupling-grid"),
                       tuple(STABILITY_MODES), f"{where}.mode")
        _reject_unknown(d, STABILITY_MODES[mode], f'{where} (mode "{mode}")')
        return cls(mode=mode, **_parse(d, {
            "J_a": _as_floats, "J_b": _as_floats, "track_detuning": _as_bool,
            "pump_fractions": _as_floats}, where))

    def to_dict(self) -> dict:
        if self.mode == "coupling-grid":
            return {"mode": self.mode, "J_a": list(self.J_a),
                    "J_b": list(self.J_b),
                    "track_detuning": self.track_detuning}
        return {"mode": self.mode, "pump_fractions": list(self.pump_fractions)}


# The configurable SdeConfig fields; seed and record are set per command, and
# SdeConfig itself checks ranges and the stepper name.
_SDE_PARSERS = {"dt": _as_float, "t_transient": _as_float,
                "t_measure": _as_float, "n_traj": _as_int,
                "stepper": lambda v, where: v, "record_stride": _as_int}


def _sde_from_dict(d: dict, where: str = "sde") -> SdeConfig:
    _reject_unknown(d, _SDE_PARSERS, where)
    return SdeConfig(**_parse(d, _SDE_PARSERS, where))


@dataclass(frozen=True)
class VerifySpec:
    omegas: tuple = (0.0, 0.5, 1.5, 3.0, 8.0)

    @classmethod
    def from_dict(cls, d: dict, where: str = "verify") -> "VerifySpec":
        parsers = {"omegas": _as_floats}
        _reject_unknown(d, parsers, where)
        return cls(**_parse(d, parsers, where))

    def to_dict(self) -> dict:
        return {"omegas": list(self.omegas)}


@dataclass(frozen=True)
class RunConfig:
    params: ParamsSpec = field(default_factory=ParamsSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    vary: tuple = ()
    theta: ThetaSpec = field(default_factory=ThetaSpec)
    duan_pairing: str = "xminus_yplus"
    epr_infer_from: int = 1
    combined: bool = False
    stability: StabilitySpec = field(default_factory=StabilitySpec)
    sde: SdeConfig = field(default_factory=SdeConfig)
    verify: VerifySpec = field(default_factory=VerifySpec)
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        parsers = {
            "params": ParamsSpec.from_dict, "sweep": SweepSpec.from_dict,
            "vary": _vary_from_list, "theta": ThetaSpec.from_dict,
            "duan_pairing": lambda v, where: _one_of(v, DUAN_PAIRINGS, where),
            "epr_infer_from": lambda v, where: _one_of(_as_int(v, where),
                                                       (1, 2), where),
            "combined": _as_bool, "stability": StabilitySpec.from_dict,
            "sde": _sde_from_dict, "verify": VerifySpec.from_dict,
            "seed": _as_int}
        _reject_unknown(d, ("schema", *parsers), "run config")
        schema = d.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
        return cls(**_parse(d, parsers, ""))

    def to_dict(self) -> dict:
        d = {"schema": SCHEMA, "params": self.params.to_dict(),
             "sweep": self.sweep.to_dict()}
        if self.vary:
            d["vary"] = [v.to_dict() for v in self.vary]
        d.update({"theta": self.theta.to_dict(),
                  "duan_pairing": self.duan_pairing,
                  "epr_infer_from": self.epr_infer_from,
                  "combined": self.combined,
                  "stability": self.stability.to_dict(),
                  "sde": {k: v for k, v in _config_jsonable(self.sde).items()
                          if k in _SDE_PARSERS},
                  "verify": self.verify.to_dict(),
                  "seed": self.seed})
        return d

    def variants(self) -> list:
        """Expanded (label, ParamsSpec, ThetaSpec) rows; a single implicit
        variant when vary is empty."""
        if not self.vary:
            return [(None, self.params, self.theta)]
        out = []
        for i, v in enumerate(self.vary):
            label = v.label
            if label is None:
                label = ",".join(f"{k}={val:g}" for k, val in v.params_patch) \
                    or f"v{i + 1}"
            out.append((label,
                        self.params.patched(dict(v.params_patch), f"vary[{i}]"),
                        v.theta if v.theta is not None else self.theta))
        return out


def load_config_file(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # also integers past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def load_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")
    ref = resources.files("opodimer").joinpath("presets", f"{name}.json")
    return RunConfig.from_dict(json.loads(ref.read_text(encoding="utf-8")))


def apply_overrides(cfg: RunConfig, assignments) -> RunConfig:
    """Apply dotted-key overrides like params.J_a=2 or sde.n_traj=256.

    Values parse as JSON with a bare-string fallback. Setting any pump key
    displaces the previous pump specification; setting theta.policy or
    stability.mode drops the keys only the previous one accepts. The result
    is validated again in full, so unknown paths are rejected with the same
    messages as file input.
    """
    d = cfg.to_dict()
    for a in assignments:
        key, sep, raw = a.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {a!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        parts = key.split(".")
        cur = d
        for part in parts[:-1]:
            nxt = cur.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {a!r}: {part} is not an object")
            cur = nxt
        leaf = parts[-1]
        if parts[:-1] == ["params"] and leaf in _PUMP_KEYS:
            keep = {"eps1", "eps2"} if leaf in ("eps1", "eps2") else {leaf}
            for k in _PUMP_KEYS:
                if k not in keep:
                    cur.pop(k, None)
        selector, modes = _MODE_KEYS.get(parts[0], (None, {}))
        if parts[1:] == [selector]:
            # str(): a malformed value must reach the validator, not fail here
            for k in (set(modes.get(str(cur.get(leaf)), ()))
                      - set(modes.get(str(value), ()))):
                cur.pop(k, None)
        cur[leaf] = value
    return RunConfig.from_dict(d)
