"""Configuration: episode/termination settings, training hyperparameters,
the aggregate config object, JSON round-tripping and hashing.

A config file is a JSON object with sections `world`, `proxemics`, `spawn`,
`reward_weights`, `episode`, `train` and optionally `sha_controller`.
Missing sections or keys fall back to the defaults below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import ProxemicsConfig, WorldConfig
from .groups import GroupSpawnSpec, ShaGains
from .rewards import MAX_WEIGHT, RewardWeights


class ConfigError(ValueError):
    """Invalid or unreadable configuration."""


@dataclass(slots=True)
class EpisodeConfig:
    """Episode horizon, success criterion, and the reward/spawn settings."""

    max_steps: int = 500
    success_band: float = 0.3            # |distance-to-o  -  s| tolerance, m
    success_angle: float = math.pi / 6.0  # facing tolerance toward o, rad
    success_hold: int = 10               # consecutive steps before success
    weights: RewardWeights = field(default_factory=RewardWeights)
    spawn: GroupSpawnSpec = field(default_factory=GroupSpawnSpec)

    def validate(self) -> None:
        if not (self.max_steps > self.success_hold > 0):
            raise ValueError(
                f"need max_steps > success_hold > 0, got "
                f"{self.max_steps}, {self.success_hold}"
            )
        if self.success_band <= 0.0 or self.success_angle <= 0.0:
            raise ValueError("success_band and success_angle must be positive")
        self.weights.validate()


@dataclass(slots=True)
class TrainConfig:
    """Hyperparameters for both trainers. CEM is the default algorithm;
    the PPO fields are ignored when algo == "cem" and vice versa."""

    algo: str = "cem"
    master_seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    episodes_per_eval: int = 2
    eval_episodes: int = 50

    # cross-entropy method
    iterations: int = 200
    population: int = 64
    elite_fraction: float = 0.125
    warm_start: bool = True     # start the search mean at a behavior-cloned baseline
    init_noise: float = 0.05
    noise_decay: float = 0.98

    # proximal policy optimization
    clip_ratio: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 4
    minibatch: int = 64
    step_size: float = 3e-4
    rollout_episodes: int = 8
    log_std_init: float = -1.0

    def validate(self) -> None:
        if self.algo not in ("cem", "ppo"):
            raise ValueError(f"algo must be 'cem' or 'ppo', got {self.algo!r}")
        if not (0.0 < self.elite_fraction < 1.0):
            raise ValueError("elite_fraction must lie in (0, 1)")
        if self.clip_ratio <= 0.0:
            raise ValueError("clip_ratio must be positive")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")
        if self.population < 2 or self.episodes_per_eval < 1:
            raise ValueError("population >= 2 and episodes_per_eval >= 1 required")
        for name in ("iterations", "master_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, low, high in (("init_noise", 0.0, MAX_WEIGHT),
                                ("noise_decay", 0.0, 1.0),
                                ("gae_lambda", 0.0, 1.0),
                                ("log_std_init", -20.0, 20.0)):
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must lie in [{low:g}, {high:g}], "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError(f"step_size must lie in (0, 1], got {self.step_size}")
        for name in ("eval_episodes", "rollout_episodes", "minibatch", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(
                f"hidden_sizes entries must be at least 1, got {list(self.hidden_sizes)}")


@dataclass(slots=True)
class FullConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    proxemics: ProxemicsConfig = field(default_factory=ProxemicsConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sha_gains: ShaGains = field(default_factory=ShaGains)

    def validate(self) -> "FullConfig":
        try:
            self.world.validate()
            self.proxemics.validate()
            self.episode.validate()
            self.train.validate()
            self.sha_gains.validate()
            self.episode.spawn.validate(self.world, self.proxemics)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return self


def default_config() -> FullConfig:
    return FullConfig()


_EPISODE_KEYS = ("max_steps", "success_band", "success_angle", "success_hold")

# section -> (the config object it sets, its settable keys; None for all fields)
_SECTIONS = {
    "world": (lambda c: c.world, None),
    "proxemics": (lambda c: c.proxemics, None),
    "spawn": (lambda c: c.episode.spawn, None),
    "reward_weights": (lambda c: c.episode.weights, None),
    "episode": (lambda c: c.episode, _EPISODE_KEYS),
    "train": (lambda c: c.train, None),
    "sha_controller": (lambda c: c.sha_gains, None),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# type of a field's default -> (what a value must be, test of a JSON value)
_FIELD_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a finite number",
            lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers",
            lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def _keys(obj, keys) -> tuple[str, ...]:
    """A section's keys: `keys`, or else every field of its object."""
    return keys or tuple(f.name for f in dataclasses.fields(obj))


def _apply(obj, section, name: str, keys) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    valid = _keys(obj, keys)
    for key, value in section.items():
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in config section {name!r}")
        default = getattr(obj, key)
        expected, matches = _FIELD_TYPES[type(default)]
        if not matches(value):
            raise ConfigError(f"{name}.{key} must be {expected}, got {value!r}")
        setattr(obj, key, tuple(value) if isinstance(default, tuple) else value)


def config_from_dict(data: dict) -> FullConfig:
    cfg = FullConfig()
    for name, section in data.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown config section {name!r}")
        get, keys = _SECTIONS[name]
        _apply(get(cfg), section, name, keys)
    return cfg.validate()


def config_to_dict(cfg: FullConfig) -> dict:
    doc = {}
    for name, (get, keys) in _SECTIONS.items():
        obj = get(cfg)
        values = {k: getattr(obj, k) for k in _keys(obj, keys)}
        doc[name] = {k: list(v) if isinstance(v, tuple) else v
                     for k, v in values.items()}
    return doc


def load_config(path: str | Path) -> FullConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_dict(data)


def dump_json(doc, path: str | Path | None = None) -> str:
    """`doc` as JSON text, indented, keys sorted, with a trailing newline,
    also written to `path` when one is given. A NaN or an infinity in `doc`
    is a ConfigError naming the file, and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise ConfigError(f"cannot write {path or 'standard output'}: {e}") from e
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def save_config(cfg: FullConfig, path: str | Path) -> None:
    dump_json(config_to_dict(cfg), path)


def config_hash(cfg: FullConfig) -> str:
    """Stable hash of the full configuration, embedded in every artifact."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
