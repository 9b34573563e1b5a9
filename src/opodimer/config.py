"""Run configuration: strict JSON schema, presets, dotted-key overrides.

A RunConfig is pure data. Parsing rejects unknown keys at every level and
round-trips exactly: from_dict(cfg.to_dict()) == cfg. Pump strength is given
as exactly one of pump_fraction (of the critical amplitude), eps (equal
pumps), or the eps1/eps2 pair.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from .criteria import DUAN_PAIRINGS, OBJECTIVES
from .errors import ConfigError
from .model import SystemParams
from .sde import SdeConfig, _as_count

SCHEMA = "opodimer-run/1"

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

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


def _as_points(v, where: str) -> int:
    # one complex 8x8 matrix per point is stacked; numpy cannot even index
    # a stack past sys.maxsize bytes
    n, most = _as_int(v, where), sys.maxsize // (8 * 8 * 16)
    if not 1 <= n <= most:
        raise ConfigError(f"{where} must be between 1 and {most}, got {n}")
    return n


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


def _jsonable(v):
    """A config value as JSON writes it; a complex number with an imaginary
    part becomes [re, im]."""
    if isinstance(v, complex):
        return v.real if v.imag == 0.0 else [v.real, v.imag]
    return list(v) if isinstance(v, tuple) else v.value if isinstance(v, Enum) else v


def _drop_displaced_pump(d: dict, keys) -> None:
    """Remove from d the pump keys that setting keys displaces: any pump key
    replaces the pump specification, but eps1 and eps2 keep each other."""
    keys = set(keys)
    if keys & {"eps1", "eps2"}:
        keys |= {"eps1", "eps2"}
    if keys & set(_PUMP_KEYS):
        for k in set(_PUMP_KEYS) - keys:
            d.pop(k, None)


@dataclass(frozen=True)
class ParamsSpec:
    """The params section: the SystemParams it runs, built (and so
    validated) when the section is parsed, and the pump_fraction they were
    built from, or None when the pump is given as amplitudes."""

    system: SystemParams = field(default_factory=SystemParams)
    pump_fraction: float = None

    @classmethod
    def from_dict(cls, d: dict, where: str = "params") -> "ParamsSpec":
        _reject_unknown(d, _RATE_KEYS + _PUMP_KEYS, where)
        if ("pump_fraction" in d) + ("eps" in d) + ("eps1" in d or "eps2" in d) > 1:
            raise ConfigError(
                f"{where}: give exactly one of pump_fraction, eps, or eps1/eps2")
        if ("eps1" in d) != ("eps2" in d):
            raise ConfigError(f"{where}: eps1 and eps2 must be given together")
        kw = _parse(d, {**dict.fromkeys(_RATE_KEYS + ("pump_fraction",), _as_float),
                        **dict.fromkeys(("eps", "eps1", "eps2"), _as_complex)}, where)
        fraction, eps = kw.pop("pump_fraction", None), kw.pop("eps", None)
        try:  # SystemParams.symmetric maps eps to equal pumps
            system = (SystemParams.symmetric(eps=eps, pump_fraction=fraction, **kw)
                      if "eps1" not in kw else SystemParams(**kw))
        except ValueError as exc:  # a rate out of SystemParams' range
            raise ConfigError(f"{where}: {exc}") from None
        return cls(system, fraction)

    def to_dict(self) -> dict:
        p = self.system
        d = {k: getattr(p, k) for k in _RATE_KEYS}
        if self.pump_fraction is not None:
            d["pump_fraction"] = self.pump_fraction
        elif p.equal_pumps:
            d["eps"] = _jsonable(p.eps1)
        else:
            d.update(eps1=_jsonable(p.eps1), eps2=_jsonable(p.eps2))
        return d

    def patched(self, patch: dict, where: str) -> "ParamsSpec":
        """New spec with a subset of keys replaced; pump keys displace the
        previous pump specification as _drop_displaced_pump says."""
        d = self.to_dict()
        _drop_displaced_pump(d, _section(patch, where))
        d.update(patch)
        return ParamsSpec.from_dict(d, where)


@dataclass(frozen=True)
class SweepSpec:
    omega_start: float = -20.0
    omega_stop: float = 20.0
    omega_points: int = 401

    def __post_init__(self):
        if not math.isfinite(self.omega_stop - self.omega_start):
            raise ConfigError(
                "sweep.omega_stop - sweep.omega_start overflows a float")

    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_start, self.omega_stop, self.omega_points)


@dataclass(frozen=True)
class ThetaSpec:
    policy: str = "fixed"
    degrees: float = 0.0
    objective: str = "squeezing"
    at_omega: float = 0.0


@dataclass(frozen=True)
class VariantSpec:
    label: str = None
    params_patch: tuple = ()  # as given; RunConfig checks it against params
    theta: ThetaSpec = None

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "VariantSpec":
        _reject_unknown(d, ("label", "params", "theta"), where)
        label = d.get("label")
        # the label is the last field of an ASCII CSV row, where a quote
        # would open a quoted field, and part of a comment line
        if label is not None and (not isinstance(label, str) or not label.isascii()
                                  or not label.isprintable()
                                  or any(c in label for c in ',"')):
            raise ConfigError(f"{where}.label must be a string of printable ASCII "
                              f"without commas or double quotes, got {label!r}")
        patch = _section(d.get("params", {}), f"{where}.params")
        theta = _SECTIONS["theta"].load(d["theta"], f"{where}.theta") \
            if "theta" in d else None
        return cls(label=label, params_patch=tuple(sorted(patch.items())),
                   theta=theta)

    def to_dict(self) -> dict:
        d = {"label": self.label, "params": dict(self.params_patch),
             "theta": self.theta and _SECTIONS["theta"].dump(self.theta)}
        return {k: v for k, v in d.items() if v not in (None, {})}


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


@dataclass(frozen=True)
class VerifySpec:
    omegas: tuple = (0.0, 0.5, 1.5, 3.0, 8.0)


@dataclass(frozen=True)
class _Section:
    """How one config section loads and dumps: its dataclass and the parser
    of each key; for a section with modes, the key that selects the mode
    and the keys each mode takes besides it. Keys left out keep the
    dataclass defaults."""

    cls: type
    parsers: dict
    selector: str = None
    modes: dict = None

    def _keys(self, mode) -> tuple:
        return (self.selector, *self.modes[mode]) if self.selector else tuple(self.parsers)

    def load(self, d, where: str):
        kw, label = {}, where
        if self.selector:
            kw[self.selector] = mode = _one_of(
                _section(d, where).get(self.selector, getattr(self.cls, self.selector)),
                tuple(self.modes), f"{where}.{self.selector}")
            label = f'{where} ({self.selector} "{mode}")'
        _reject_unknown(d, self._keys(kw.get(self.selector)), label)
        return self.cls(**kw, **_parse(d, self.parsers, where))

    def dump(self, spec) -> dict:
        keys = self._keys(getattr(spec, self.selector) if self.selector else None)
        return {k: _jsonable(getattr(spec, k)) for k in keys}


_SECTIONS = {
    "sweep": _Section(SweepSpec, {"omega_start": _as_float, "omega_stop": _as_float,
                                  "omega_points": _as_points}),
    "theta": _Section(
        ThetaSpec, {"degrees": _as_float,
                    "objective": lambda v, where: _one_of(v, OBJECTIVES, where),
                    "at_omega": _as_float},
        "policy", {"fixed": ("degrees",), "optimize": ("objective", "at_omega")}),
    "stability": _Section(
        StabilitySpec, {"J_a": _as_floats, "J_b": _as_floats,
                        "track_detuning": _as_bool, "pump_fractions": _as_floats},
        "mode", {"coupling-grid": ("J_a", "J_b", "track_detuning"),
                 "pump-scan": ("pump_fractions",)}),
    # seed and record are set per command; SdeConfig itself checks ranges
    # and the stepper name
    "sde": _Section(SdeConfig, {"dt": _as_float, "t_transient": _as_float,
                                "t_measure": _as_float, "n_traj": _as_int,
                                "stepper": lambda v, where: v,
                                "record_stride": _as_int}),
    "verify": _Section(VerifySpec, {"omegas": _as_floats}),
}

# the top-level keys that hold plain values
_SCALARS = {"duan_pairing": lambda v, where: _one_of(v, DUAN_PAIRINGS, where),
            "epr_infer_from": lambda v, where: _one_of(_as_int(v, where), (1, 2), where),
            "combined": _as_bool, "seed": lambda v, where: _as_count(v, 0, where)}


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
    _variants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # expanding the variants here checks each vary entry against params
        # when the config is built, not when a command first asks for them
        rows = []
        for i, v in enumerate(self.vary):
            spec = self.params.patched(dict(v.params_patch), f"vary[{i}].params")
            # the patch passed the check above: numbers and [re, im] pairs
            label = v.label if v.label is not None else ";".join(
                f"{k}={complex(*x) if isinstance(x, (list, tuple)) else x:g}"
                for k, x in v.params_patch) or f"v{i + 1}"
            rows.append((label, spec, v.theta if v.theta is not None else self.theta))
        object.__setattr__(self, "_variants",
                           tuple(rows) or ((None, self.params, self.theta),))

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        parsers = {"params": ParamsSpec.from_dict, "vary": _vary_from_list,
                   **{name: section.load for name, section in _SECTIONS.items()},
                   **_SCALARS}
        _reject_unknown(d, ("schema", *parsers), "run config")
        schema = d.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
        return cls(**_parse(d, parsers, ""))

    def to_dict(self) -> dict:
        d = {"schema": SCHEMA, "params": self.params.to_dict(),
             **{name: section.dump(getattr(self, name))
                for name, section in _SECTIONS.items()},
             **{k: getattr(self, k) for k in _SCALARS}}
        if self.vary:
            d["vary"] = [v.to_dict() for v in self.vary]
        return d

    def variants(self) -> list:
        """Expanded (label, ParamsSpec, ThetaSpec) rows; a single implicit
        variant when vary is empty."""
        return list(self._variants)


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
        if parts[:-1] == ["params"]:
            _drop_displaced_pump(cur, [leaf])
        section = _SECTIONS.get(parts[0])
        if section is not None and parts[1:] == [section.selector]:
            # str(): a malformed value must reach the validator, not fail here
            for k in (set(section.modes.get(str(cur.get(leaf)), ()))
                      - set(section.modes.get(str(value), ()))):
                cur.pop(k, None)
        cur[leaf] = value
    return RunConfig.from_dict(d)
