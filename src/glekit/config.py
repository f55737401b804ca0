"""Experiment configuration: schema-checked dataclasses and run manifests."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ValidationError
from .systems import BUILTIN_SYSTEMS, PolySystem, load_system


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {section}: {sorted(unknown)}")


@dataclass
class SystemConfig:
    name: str | None = None           # builtin name
    file: str | None = None           # or a system-definition file
    n_sites: int = 16
    alpha1: float = 1.0
    beta1: float = 0.0
    mass: float = 1.0

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        _check_keys("system", d, {"name", "file", "n_sites", "alpha1", "beta1", "mass"})
        cfg = cls(**d)
        if (cfg.name is None) == (cfg.file is None):
            raise ValidationError("system needs exactly one of 'name' or 'file'")
        if cfg.name is not None and cfg.name not in BUILTIN_SYSTEMS:
            raise ValidationError(
                f"unknown system {cfg.name!r}; choose from {sorted(BUILTIN_SYSTEMS)}")
        return cfg

    def build(self) -> PolySystem:
        if self.file is not None:
            return load_system(self.file)
        if self.name == "kraichnan_orszag":
            return BUILTIN_SYSTEMS[self.name]()
        kwargs = {"n_sites": self.n_sites, "alpha1": _rational(self.alpha1),
                  "mass": _rational(self.mass)}
        if self.name == "fpu_chain":
            kwargs["beta1"] = _rational(self.beta1)
        return BUILTIN_SYSTEMS[self.name](**kwargs)


def _rational(x):
    """Exact value for round decimal inputs; leaves genuine floats alone."""
    if isinstance(x, int):
        return x
    f = Fraction(x).limit_denominator(10**6)
    return f if float(f) == x else x


@dataclass
class ObservableConfig:
    field: str = "p"                  # chain field, or "var" with index
    site: int = 0
    var: int | None = None            # direct variable index (non-chain systems)
    power: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "ObservableConfig":
        _check_keys("observable", d, {"field", "site", "var", "power"})
        cfg = cls(**d)
        if cfg.power < 1:
            raise ValidationError("observable power must be >= 1")
        if cfg.var is None and cfg.field not in ("r", "p"):
            raise ValidationError("observable field must be 'r' or 'p'")
        return cfg

    def variable_index(self, system: PolySystem) -> int:
        if self.var is not None:
            if not 0 <= self.var < system.dimension:
                raise ValidationError("observable variable outside the system")
            return self.var
        if "n_sites" not in system.params:
            raise ValidationError("field/site observables need a chain system")
        n = system.params["n_sites"]
        j = self.site % n
        return j if self.field == "r" else n + j


@dataclass
class KernelConfig:
    basis: str = "faber"
    order: int = 10
    # None: estimate from the gamma growth; "consistency": scan orders/deltas
    # for the best consecutive-order agreement (asymptotic-series regimes)
    delta: float | str | None = None
    c0: float = 0.0
    c1: float = -0.25
    skew: bool = True
    term_cap: int = 10_000_000

    @classmethod
    def from_dict(cls, d: dict) -> "KernelConfig":
        _check_keys("kernel", d,
                    {"basis", "order", "delta", "c0", "c1", "skew", "term_cap"})
        cfg = cls(**d)
        if cfg.basis not in ("faber", "dyson"):
            raise ValidationError("kernel basis must be 'faber' or 'dyson'")
        if isinstance(cfg.delta, str) and cfg.delta != "consistency":
            raise ValidationError("kernel delta must be a number, null or 'consistency'")
        if cfg.order < 0:
            raise ValidationError("kernel order must be >= 0")
        return cfg


@dataclass
class GridConfig:
    horizon: float = 10.0
    dt: float = 1e-2

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        _check_keys("grid", d, {"horizon", "dt"})
        return cls(**d)


@dataclass
class MCConfig:
    n_samples: int = 2000
    seed: int = 0
    sim_dt: float = 1e-3

    @classmethod
    def from_dict(cls, d: dict) -> "MCConfig":
        _check_keys("mc", d, {"n_samples", "seed", "sim_dt"})
        return cls(**d)


@dataclass
class KLConfig:
    kmax: int | None = None
    iters: int = 10
    n_samples: int = 20000
    seed: int = 0
    energy_floor: float = 1e-8
    export_xi: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "KLConfig":
        _check_keys("kl", d, {"kmax", "iters", "n_samples", "seed",
                              "energy_floor", "export_xi"})
        return cls(**d)


@dataclass
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    observable: ObservableConfig = field(default_factory=ObservableConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    mc: MCConfig = field(default_factory=MCConfig)
    kl: KLConfig = field(default_factory=KLConfig)
    gamma: float = 1.0                # inverse temperature of the Gibbs measure
    output_dir: str = "out"
    threads: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys("config", d, {"system", "observable", "kernel", "grid",
                                  "mc", "kl", "gamma", "output_dir", "threads"})
        cfg = cls(
            system=SystemConfig.from_dict(d.get("system", {})),
            observable=ObservableConfig.from_dict(d.get("observable", {})),
            kernel=KernelConfig.from_dict(d.get("kernel", {})),
            grid=GridConfig.from_dict(d.get("grid", {})),
            mc=MCConfig.from_dict(d.get("mc", {})),
            kl=KLConfig.from_dict(d.get("kl", {})),
            gamma=d.get("gamma", 1.0),
            output_dir=d.get("output_dir", "out"),
            threads=d.get("threads", default_threads()),
        )
        if cfg.gamma <= 0:
            raise ValidationError("gamma must be positive")
        if cfg.threads < 1:
            raise ValidationError("threads must be >= 1")
        return cfg

    @classmethod
    def load(cls, path, overrides: list[str] | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        for ov in overrides or []:
            data = _apply_override(data, ov)
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def manifest(self, command: str, extra: dict | None = None) -> dict:
        m = {"tool": "glekit", "version": __version__, "command": command,
             "config": self.to_dict()}
        m.update(extra or {})
        return m


def default_threads() -> int:
    env = os.environ.get("GLEKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"GLEKIT_THREADS={env!r} is not an integer") from None
    return 1


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
            raise ValidationError(f"cannot override through scalar {part!r}")
    node[parts[-1]] = value
    return data


def write_manifest(path, manifest: dict) -> None:
    import datetime

    doc = dict(manifest)
    doc["written_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_manifest_default)
        fh.write("\n")


def _manifest_default(obj):
    from .io import _json_default
    return _json_default(obj)
