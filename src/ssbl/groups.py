"""Simulated human agents: the force-driven controller that holds the group
formation, and episode spawning into position and heading arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS_DIR, ProxemicsConfig, WorldConfig, wrap_angle
from .rewards import MAX_WEIGHT


class SpawnError(RuntimeError):
    """Spawn constraints could not be satisfied."""


MAX_SHAS = 64   # largest group: 20 episodes of 64 SHAs take seconds to evaluate


@dataclass(slots=True)
class GroupSpawnSpec:
    """Initial-configuration parameters for one episode."""

    n_shas: int = 2
    separation: float = 2.0        # diameter of the circle the SHAs stand on
    center_region: float = 1.5     # half-side of the spawn box for the group center
    robot_min_dist: float = 4.0    # minimum robot distance from the group centroid
    rng_seed: int = 0

    def validate(self, world: WorldConfig, prox: ProxemicsConfig) -> None:
        if not 2 <= self.n_shas <= MAX_SHAS:
            raise ValueError(f"n_shas must lie in [2, {MAX_SHAS}], got {self.n_shas}")
        if self.robot_min_dist <= prox.d_social:
            raise ValueError(
                f"robot_min_dist ({self.robot_min_dist}) must exceed "
                f"d_social ({prox.d_social})"
            )
        for name in ("separation", "center_region"):
            if math.copysign(1.0, getattr(self, name)) < 0.0:  # -0.0 included
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.rng_seed != 0:
            raise ValueError(
                f"spawn.rng_seed must be 0, got {self.rng_seed}: episodes are "
                "seeded from --seed and train.master_seed")
        half = world.floor_side / 2.0
        if self.center_region + self.separation / 2.0 >= half:
            raise ValueError("group spawn region does not fit inside the floor")


@dataclass(slots=True)
class ShaGains:
    """Gains of the force-following controller driving each SHA."""

    gain_f: float = 1.0    # force -> acceleration
    k_turn: float = 2.0    # heading error -> turn rate
    f_dead: float = 0.05   # force deadband; below it the agent holds position
    w_de: float = 0.5      # orientation blend weight for the social direction
    w_dc: float = 0.5      # orientation blend weight for the public direction

    def validate(self) -> None:
        """Refuse a negative gain or weight, which steers SHAs away from the
        field, and any above MAX_WEIGHT."""
        for name in ("gain_f", "k_turn", "f_dead", "w_de", "w_dc"):
            v = getattr(self, name)
            if not 0.0 <= v <= MAX_WEIGHT:
                raise ValueError(f"sha_controller {name} must lie in "
                                 f"[0, {MAX_WEIGHT:g}], got {v}")


DEFAULT_GAINS = ShaGains()


def _unit(v: np.ndarray) -> np.ndarray:
    """v (..., 2) over its norm, or (0, 0) where the norm is at or below
    EPS_DIR."""
    n = np.hypot(v[..., 0], v[..., 1])[..., None]
    ok = n > EPS_DIR
    return np.where(ok, v / np.where(ok, n, 1.0), 0.0)


def field_turn(d_e: np.ndarray, d_c: np.ndarray, heading: np.ndarray,
               gains: ShaGains, limit: float) -> np.ndarray:
    """Turn commands toward the blend of the normalized social and public
    orientation vectors (..., 2), clipped to [-limit, limit]; 0 (hold
    heading) where the blend vanishes."""
    blend = gains.w_de * _unit(d_e) + gains.w_dc * _unit(d_c)
    bx, by = blend[..., 0], blend[..., 1]
    err = wrap_angle(np.arctan2(by, bx) - heading)
    return np.where(np.hypot(bx, by) > EPS_DIR,
                    np.clip(gains.k_turn * err, -limit, limit), 0.0)


def sha_commands(force: np.ndarray, d_e: np.ndarray, d_c: np.ndarray,
                 heading: np.ndarray, world: WorldConfig,
                 gains: ShaGains = DEFAULT_GAINS) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (..., 2) and turn rates (...) of SHAs under the
    conversation field at their positions (`forces.field_at`).

    Acceleration follows the combined force (deadbanded, clipped to a_max);
    the turn rate is `field_turn` clipped to omega_max.
    """
    f_norm = np.hypot(force[..., 0], force[..., 1])[..., None]
    accel = gains.gain_f * force
    a_norm = np.hypot(accel[..., 0], accel[..., 1])[..., None]
    # the factor is exactly 1 where the acceleration is within a_max
    accel = accel * (world.a_max / np.maximum(a_norm, world.a_max))
    accel = np.where(f_norm < gains.f_dead, 0.0, accel)
    return accel, field_turn(d_e, d_c, heading, gains, world.omega_max)


def _ray_to_wall(x: float, y: float, angle: float, side: float) -> float:
    """Distance from (x, y) to the floor boundary along the given direction."""
    c, s = math.cos(angle), math.sin(angle)
    best = math.hypot(side, side)  # diagonal bound
    if c > EPS_DIR:
        best = min(best, (side - x) / c)
    elif c < -EPS_DIR:
        best = min(best, -x / c)
    if s > EPS_DIR:
        best = min(best, (side - y) / s)
    elif s < -EPS_DIR:
        best = min(best, -y / s)
    return best


MAX_SPAWN_TRIES = 1000


def spawn_episode(spec: GroupSpawnSpec, world: WorldConfig,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Spawn the group and the robot for one episode from `seed`.

    SHAs stand on a circle of diameter `separation` around a group center
    drawn uniformly from the center-region box, all facing the centroid.
    The robot is placed at a uniform distance in [robot_min_dist, wall bound]
    from the centroid with a uniform heading. Returns positions (N, 2) and
    headings (N,), the robot as agent 0; every agent starts at rest.
    """
    rng = np.random.default_rng(seed)
    side = world.floor_side
    half = side / 2.0
    pos, heading = np.empty((spec.n_shas + 1, 2)), np.empty(spec.n_shas + 1)

    cx = half + rng.uniform(-spec.center_region, spec.center_region)
    cy = half + rng.uniform(-spec.center_region, spec.center_region)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    radius = spec.separation / 2.0
    for k in range(spec.n_shas):
        ang = phase + 2.0 * math.pi * k / spec.n_shas
        x, y = cx + radius * math.cos(ang), cy + radius * math.sin(ang)
        if not (0.0 <= x <= side and 0.0 <= y <= side):
            raise SpawnError("group circle does not fit inside the floor")
        pos[k + 1] = x, y
        heading[k + 1] = wrap_angle(math.atan2(cy - y, cx - x))

    for _ in range(MAX_SPAWN_TRIES):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        reach = _ray_to_wall(cx, cy, ang, side)
        if reach <= spec.robot_min_dist:
            continue
        dist = rng.uniform(spec.robot_min_dist, reach)
        pos[0] = cx + dist * math.cos(ang), cy + dist * math.sin(ang)
        heading[0] = wrap_angle(rng.uniform(-math.pi, math.pi))
        return pos, heading
    raise SpawnError(
        f"could not place robot at distance >= {spec.robot_min_dist} "
        f"within {MAX_SPAWN_TRIES} tries"
    )
