"""Declarative run configuration with full defaulting.

One JSON document drives every command; omitted sections fall back to the
defaults below. Loading checks each value's type against its field's
default, then builds the library objects the sections feed, so each range
check runs at load time in the module that owns it. A run manifest embeds
the resolved configuration, so a manifest file is itself an accepted
config source.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .admittance import ControllerParams, simulation_steps
from .errors import InvalidInputError
from .gp import HeteroConfig, OptConfig
from .io import FORMAT_MANIFEST, canonical_sha256, read_json
from .policy import LearnConfig, strength_vector
from .se3 import DistanceWeights
from .synthetic import DoorSet


@dataclass(frozen=True)
class AlignmentSection:
    rotation_weight: float = 0.5
    translation_weight: float = 0.5
    measure: str = "tci"


@dataclass(frozen=True)
class PolicySection:
    grid_size: int = 100
    hetero_iterations: int = 3
    smoothing_window: int = 5
    opt_starts: int = 8
    opt_max_iter: int = 60
    length_scale_bounds: tuple | None = None
    signal_std_bounds: tuple | None = None
    noise_std_bounds: tuple | None = None
    position_strength: float = 1e-4
    rotation_strength: float = 1e-4


@dataclass(frozen=True)
class SimulationSection:
    dt: float = 1e-3
    horizon: float = 2.0
    integrator: str = "semi_implicit"
    shared_sigma: bool = False


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    alignment: AlignmentSection = AlignmentSection()
    policy: PolicySection = PolicySection()
    controller: ControllerParams = ControllerParams()
    simulation: SimulationSection = SimulationSection()
    data: DoorSet = DoorSet()

    def to_dict(self) -> dict:
        return asdict(self)


def _is_number(value) -> bool:
    """A finite JSON number; bool is an int subclass and is refused."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _typed(value, default, where):
    """``value`` checked against the type of the field's default.

    A section takes an object, built field by field. A tuple, or the None
    of optional bounds, takes a list of finite numbers and becomes a tuple
    of floats.
    """
    if is_dataclass(default):
        return _build(type(default), value, where)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    elif isinstance(default, float):
        ok, kind = _is_number(value), "a finite number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif value is None and default is None:
        return None
    elif isinstance(value, (list, tuple)) and all(map(_is_number, value)):
        return tuple(float(v) for v in value)
    else:
        ok, kind = False, "a list of finite numbers"
    if not ok:
        raise InvalidInputError(f"{where} must be {kind}, got {value!r}")
    return value


def _build(cls, payload, where):
    """Dataclass ``cls`` from a JSON object; omitted fields keep defaults."""
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(payload) - set(defaults))
    if unknown:
        raise InvalidInputError(f"unknown {where} fields: {unknown}")
    return cls(**{key: _typed(value, defaults[key], f"{where}.{key}")
                  for key, value in payload.items()})


def config_from_dict(payload: dict) -> RunConfig:
    config = _build(RunConfig, payload, "config")
    if config.seed < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    # Build what the sections feed: each range check runs where it lives.
    learn_config(config)
    via_strength(config)
    sim = config.simulation
    simulation_steps(sim.dt, sim.horizon, sim.integrator)
    return config


def read_config_payload(path) -> dict:
    """Raw config dict from a config file or from a run manifest."""
    payload = read_json(path)
    if isinstance(payload, dict) and payload.get("format") == FORMAT_MANIFEST:
        payload, digest = payload.get("config"), payload.get("config_sha256")
        if isinstance(payload, dict) and digest != canonical_sha256(payload):
            raise InvalidInputError(f"{path}: manifest config_sha256 does "
                                    "not match its config")
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{path}: config must be a JSON object")
    return payload


def load_config(path) -> RunConfig:
    """Load a config file; a run manifest is accepted in place of one."""
    return config_from_dict(read_config_payload(path))


def save_config(path, config: RunConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2,
                                     sort_keys=True) + "\n")


def config_sha256(config: RunConfig) -> str:
    return canonical_sha256(config.to_dict())


def apply_overrides(payload: dict, assignments) -> dict:
    """Apply 'section.field=value' command-line overrides onto a config dict.

    Values parse as JSON when possible, otherwise as literal strings.
    """
    out = json.loads(json.dumps(payload))
    for raw in assignments:
        if "=" not in raw:
            raise InvalidInputError(f"override {raw!r} is not KEY=VALUE")
        key, text = raw.split("=", 1)
        try:
            value = json.loads(text)
        except (ValueError, RecursionError):
            value = text
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise InvalidInputError(f"override {raw!r} descends into a "
                                        "non-object field")
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# Bridges into the module-level option types
# ---------------------------------------------------------------------------

def distance_weights(config: RunConfig) -> DistanceWeights:
    return DistanceWeights(config.alignment.rotation_weight,
                           config.alignment.translation_weight)


def learn_config(config: RunConfig) -> LearnConfig:
    p = config.policy
    opt = OptConfig(n_starts=p.opt_starts, seed=config.seed,
                    max_iter=p.opt_max_iter,
                    length_scale_bounds=p.length_scale_bounds,
                    signal_std_bounds=p.signal_std_bounds,
                    noise_std_bounds=p.noise_std_bounds)
    hetero = HeteroConfig(iterations=p.hetero_iterations,
                          smoothing_window=p.smoothing_window, opt=opt)
    return LearnConfig(weights=distance_weights(config),
                       measure=config.alignment.measure,
                       grid_size=p.grid_size, hetero=hetero)


def via_strength(config: RunConfig) -> np.ndarray:
    p = config.policy
    return strength_vector([p.position_strength] * 3 + [p.rotation_strength] * 3)
