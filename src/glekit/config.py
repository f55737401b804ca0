"""Experiment configuration: schema-checked dataclasses and run manifests."""

from __future__ import annotations

import dataclasses
import inspect
import json
import typing
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ValidationError
from .poly import DEFAULT_TERM_CAP
from .systems import BUILTIN_SYSTEMS, PolySystem, displacement_index, load_system, momentum_index
from .volterra import TimeGrid


def _read(cls, section: str, data):
    """Dataclass ``cls`` built from the JSON object ``data``.

    Keys and value types come from the fields of ``cls``: a ``float`` field
    also takes an int, and only a ``bool`` field takes a bool.  A field whose
    type is itself a dataclass is a nested section, read the same way (from
    ``{}`` when absent).  Range checks live in each ``__post_init__``.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{section} must be a JSON object, not {data!r}")
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValidationError(f"unknown keys in {section}: {sorted(unknown)}")
    kwargs = {}
    for name, hint in types.items():
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _read(hint, name, data.get(name, {}))
        elif name in data:
            value = data[name]
            if not _accepts(hint, value):
                raise ValidationError(f"{section}.{name} must be "
                                      f"{getattr(hint, '__name__', hint)}, not {value!r}")
            kwargs[name] = value
    return cls(**kwargs)


def _accepts(hint, value) -> bool:
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


@dataclass
class SystemConfig:
    """A builtin system or a system file.  The chain keys are the builder's
    arguments: a key left unset takes the builder's default, and a key the
    builder does not take is an error."""

    name: str | None = None           # builtin name
    file: str | None = None           # or a system-definition file
    n_sites: int | None = None
    alpha1: float | None = None
    beta1: float | None = None
    mass: float | None = None

    def __post_init__(self):
        if (self.name is None) == (self.file is None):
            raise ValidationError("system needs exactly one of 'name' or 'file'")
        if self.name is not None and self.name not in BUILTIN_SYSTEMS:
            raise ValidationError(
                f"unknown system {self.name!r}; choose from {sorted(BUILTIN_SYSTEMS)}")

    def build(self) -> PolySystem:
        builder = self._load if self.file is not None else BUILTIN_SYSTEMS[self.name]
        keys = {f.name: _rational(getattr(self, f.name))
                for f in dataclasses.fields(self)
                if f.name not in ("name", "file") and getattr(self, f.name) is not None}
        signature = inspect.signature(builder)
        unknown = sorted(set(keys) - set(signature.parameters))
        if unknown:
            raise ValidationError(f"system {self.name or self.file} does not take {unknown}")
        try:
            signature.bind(**keys)
        except TypeError as exc:
            raise ValidationError(f"system {self.name or self.file}: {exc}") from None
        return builder(**keys)

    def _load(self) -> PolySystem:
        try:
            return load_system(self.file)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"cannot read system {self.file}: {exc!r}") from exc


def _rational(x):
    """Exact value for round decimal inputs; leaves genuine floats alone."""
    if isinstance(x, int):
        return x
    f = Fraction(x).limit_denominator(10**6)
    return f if float(f) == x else x


@dataclass
class ObservableConfig:
    """The observed variable x, by exactly one address: ``var``, its index in
    the system, or a chain ``field`` ("r" or "p") with its ``site``.  The
    observable is x**power."""

    field: str | None = None
    site: int | None = None
    var: int | None = None
    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise ValidationError("observable power must be >= 1")
        by_var = self.var is not None
        if (self.field is None, self.site is None) != (by_var, by_var):
            given = [k for k in ("field", "site", "var") if getattr(self, k) is not None]
            raise ValidationError("observable needs exactly one address, 'var' or "
                                  f"'field' with 'site', not {given}")
        if self.var is None and self.field not in ("r", "p"):
            raise ValidationError("observable field must be 'r' or 'p'")

    def variable_index(self, system: PolySystem) -> int:
        if self.var is not None:
            if not 0 <= self.var < system.dimension:
                raise ValidationError(f"observable var {self.var} is outside the "
                                      f"system's {system.dimension} variables")
            return self.var
        if not system.is_chain:
            raise ValidationError("field/site observables need a chain system")
        if not 0 <= self.site < system.params["n_sites"]:
            raise ValidationError("observable site outside the chain")
        index = displacement_index if self.field == "r" else momentum_index
        return index(system, self.site)


@dataclass
class KernelConfig:
    basis: str = "faber"
    order: int = 10
    # None: estimate from the gamma growth; "consistency": scan orders/deltas
    # for the best consecutive-order agreement (asymptotic-series regimes)
    delta: float | str | None = None
    term_cap: int = DEFAULT_TERM_CAP

    def __post_init__(self):
        if self.basis not in ("faber", "dyson"):
            raise ValidationError("kernel basis must be 'faber' or 'dyson'")
        if self.basis == "dyson" and self.delta == "consistency":
            raise ValidationError("kernel.delta 'consistency' scans Faber kernels only, "
                                  "so it needs kernel.basis 'faber', not 'dyson'")
        if isinstance(self.delta, str) and self.delta != "consistency":
            raise ValidationError("kernel delta must be a number, null or 'consistency'")
        if self.order < 0:
            raise ValidationError("kernel order must be >= 0")
        if self.term_cap < 1:
            raise ValidationError("kernel term_cap must be >= 1")


@dataclass
class MCConfig:
    n_samples: int = 2000
    seed: int = 0
    sim_dt: float = 1e-3

    def __post_init__(self):
        if not self.sim_dt > 0:
            raise ValidationError("mc sim_dt must be positive")
        if self.seed < 0:
            raise ValidationError("mc seed must be >= 0")


@dataclass
class KLConfig:
    iters: int = 10
    n_samples: int = 20000
    seed: int = 0
    export_xi: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("kl seed must be >= 0")


@dataclass
class ExperimentConfig:
    system: SystemConfig              # required: a builtin name or a file
    observable: ObservableConfig      # required: the observed variable
    kernel: KernelConfig = field(default_factory=KernelConfig)
    grid: TimeGrid = field(default_factory=TimeGrid)
    mc: MCConfig = field(default_factory=MCConfig)
    kl: KLConfig = field(default_factory=KLConfig)
    gamma: float = 1.0                # inverse temperature of the Gibbs measure
    output_dir: str = "out"

    def __post_init__(self):
        if not 0 < self.gamma < float("inf"):  # NaN fails too
            raise ValidationError("gamma must be positive and finite")

    @classmethod
    def load(cls, path, overrides: list[str] | None = None) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config {path} must hold a JSON object")
        for ov in overrides or []:
            data = _apply_override(data, ov)
        return _read(cls, "config", data)

    def manifest(self, command: str, extra: dict | None = None) -> dict:
        m = {"tool": "glekit", "version": __version__, "command": command,
             "config": dataclasses.asdict(self)}
        m.update(extra or {})
        return m


def _apply_override(data: dict, override: str) -> dict:
    """Apply a dotted-path ``--set section.key=value`` override."""
    if "=" not in override:
        raise ValidationError(f"override {override!r} is not key=value")
    key, raw = override.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError(f"cannot override {key} through scalar {part!r}")
    node[parts[-1]] = value
    return data


def write_manifest(path, manifest: dict) -> None:
    import datetime

    doc = dict(manifest)
    doc["written_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
