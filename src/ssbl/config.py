"""Configuration: episode/termination settings, training hyperparameters,
the aggregate config object and every key's admissible range, JSON
round-tripping and hashing.

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
from typing import NamedTuple

from .geometry import ProxemicsConfig, WorldConfig
from .groups import GroupSpawnSpec, ShaGains
from .rewards import RewardWeights


class ConfigError(ValueError):
    """Invalid or unreadable configuration."""


@dataclass(slots=True)
class EpisodeConfig:
    """Episode horizon and success criterion: the `episode` section."""

    max_steps: int = 500
    success_band: float = 0.3            # |distance-to-o  -  s| tolerance, m
    success_angle: float = math.pi / 6.0  # facing tolerance toward o, rad
    success_hold: int = 10               # consecutive steps before success


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


@dataclass(slots=True)
class FullConfig:
    """The whole configuration, shaped as the config file: one field per
    section, named as the section, each holding that section's keys."""

    world: WorldConfig = field(default_factory=WorldConfig)
    proxemics: ProxemicsConfig = field(default_factory=ProxemicsConfig)
    spawn: GroupSpawnSpec = field(default_factory=GroupSpawnSpec)
    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sha_controller: ShaGains = field(default_factory=ShaGains)

    def validate(self) -> "FullConfig":
        """ConfigError for the first number outside its range in BOUNDS, else
        for the first cross-field rule broken."""
        for name, bounds in BOUNDS.items():
            for key, bound in bounds.items():
                value = getattr(getattr(self, name), key)
                if not all(map(bound.admits,
                               value if isinstance(value, tuple) else (value,))):
                    raise ConfigError(f"{name}.{key} must lie in {bound}, got {value}")
        p, s, e, t = self.proxemics, self.spawn, self.episode, self.train
        half = self.world.floor_side / 2.0
        rows = t.rollout_episodes * e.max_steps   # the most an iteration gathers
        for holds, key, need, got in (
                (p.d_personal < p.d_social < p.d_public, "proxemics.d_social",
                 f"must lie in (d_personal, d_public) = ({p.d_personal}, "
                 f"{p.d_public})", p.d_social),
                (p.s_min < p.d_public, "proxemics.s_min",
                 f"must lie below d_public = {p.d_public}", p.s_min),
                (s.robot_min_dist > p.d_social, "spawn.robot_min_dist",
                 f"must exceed proxemics.d_social = {p.d_social}", s.robot_min_dist),
                (s.center_region + s.separation / 2.0 < half,
                 "spawn.center_region + separation / 2",
                 f"must lie below world.floor_side / 2 = {half}",
                 s.center_region + s.separation / 2.0),
                (e.max_steps > e.success_hold, "episode.max_steps",
                 f"must exceed success_hold = {e.success_hold}", e.max_steps),
                (t.algo in ("cem", "ppo"), "train.algo", "must be 'cem' or 'ppo'",
                 repr(t.algo)),
                (self.reward_weights.sign_r1 in (1.0, -1.0), "reward_weights.sign_r1",
                 "must be 1 or -1", self.reward_weights.sign_r1),
                (s.rng_seed == 0, "spawn.rng_seed", "must be 0 (episodes are "
                 "seeded from --seed and train.master_seed)", s.rng_seed),
                (t.algo != "ppo" or t.minibatch <= rows, "train.minibatch",
                 f"must lie in [1, rollout_episodes * max_steps = {rows}] for PPO",
                 t.minibatch)):
            if not holds:
                raise ConfigError(f"{key} {need}, got {got}")
        return self


def default_config() -> FullConfig:
    return FullConfig()


class Bound(NamedTuple):
    """The interval `ends[0]low, high ends[1]`, "(" or ")" marking an open
    end; with `no_minus_zero`, -0.0 counts as below 0."""

    low: float
    high: float = math.inf
    ends: str = "[]"
    no_minus_zero: bool = False

    def admits(self, v) -> bool:
        return ((v > self.low if self.ends[0] == "(" else v >= self.low)
                and (v < self.high if self.ends[1] == ")" else v <= self.high)
                and not (self.no_minus_zero and math.copysign(1.0, v) < 0.0))

    def __str__(self) -> str:
        text = f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"
        return text + ", not -0.0" if self.no_minus_zero else text


# Largest accepted weight, gain, speed and floor side (the defaults are at most
# 10): the largest reward product, w_e * w4 * success_bonus, is then at most
# 1e18, far from overflow; larger sizes overflowed the state or the returns.
MAX_WEIGHT = 1e6
MAX_SHAS = 64   # largest group: 20 episodes of 64 SHAs take seconds to evaluate

_WEIGHT = Bound(0.0, MAX_WEIGHT)
_SIZE = Bound(0.0, MAX_WEIGHT, "(]")
_FRACTION = Bound(0.0, 1.0, "(]")
_POSITIVE = Bound(0.0, ends="()")
_COUNT = Bound(1, ends="[)")

# section -> key -> the interval a number (or each entry of a list) must lie in;
# the numeric keys left out are bounded by the rules of FullConfig.validate
BOUNDS = {
    "world": {"floor_side": _SIZE, "dt": _FRACTION, "v_max": _SIZE,
              "a_max": _SIZE, "omega_max": _SIZE, "damping": _FRACTION},
    "proxemics": {"d_personal": _POSITIVE, "s_min": _POSITIVE},
    "spawn": {"n_shas": Bound(2, MAX_SHAS),
              "separation": Bound(0.0, ends="[)", no_minus_zero=True),
              "center_region": Bound(0.0, ends="[)", no_minus_zero=True)},
    "reward_weights": {**dict.fromkeys(("w_e", "w_a", "w1", "w2", "w3", "w4", "w5"),
                                       _WEIGHT),
                       "success_bonus": Bound(-MAX_WEIGHT, MAX_WEIGHT)},
    "episode": {"success_band": _POSITIVE, "success_angle": _POSITIVE,
                "success_hold": _COUNT},
    "train": {"master_seed": Bound(0, ends="[)"), "hidden_sizes": _COUNT,
              "episodes_per_eval": _COUNT, "eval_episodes": _COUNT,
              "iterations": Bound(0, ends="[)"), "population": Bound(2, ends="[)"),
              "elite_fraction": Bound(0.0, 1.0, "()"), "init_noise": _WEIGHT,
              "noise_decay": Bound(0.0, 1.0), "clip_ratio": _POSITIVE,
              "discount": _FRACTION, "gae_lambda": Bound(0.0, 1.0), "epochs": _COUNT,
              "minibatch": _COUNT, "step_size": _FRACTION, "rollout_episodes": _COUNT,
              "log_std_init": Bound(-20.0, 20.0)},
    "sha_controller": dict.fromkeys(("gain_f", "k_turn", "f_dead", "w_de", "w_dc"),
                                    _WEIGHT),
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


def _apply(obj, section, name: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    for key, value in section.items():
        if key not in obj.__dataclass_fields__:
            raise ConfigError(f"unknown key {key!r} in config section {name!r}")
        default = getattr(obj, key)
        expected, matches = _FIELD_TYPES[type(default)]
        if not matches(value):
            raise ConfigError(f"{name}.{key} must be {expected}, got {value!r}")
        try:   # an integer given for a float key is stored as a float
            setattr(obj, key, type(default)(value))
        except OverflowError:
            raise ConfigError(f"{name}.{key} must be {expected}, got an integer "
                              f"beyond float range") from None


def config_from_dict(data: dict) -> FullConfig:
    cfg = FullConfig()
    for name, section in data.items():
        if name not in FullConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config section {name!r}")
        _apply(getattr(cfg, name), section, name)
    return cfg.validate()


def config_to_dict(cfg: FullConfig) -> dict:
    return {name: {k: list(v) if isinstance(v, tuple) else v for k, v in section.items()}
            for name, section in dataclasses.asdict(cfg).items()}


def load_config(path: str | Path) -> FullConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:   # bad JSON or UTF-8, or an integer json cannot convert
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
