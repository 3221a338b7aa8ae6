"""Simulated human agents: the force-driven controller that holds the group
formation, and episode spawning into position and heading arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS_DIR, WorldConfig, wrap_angle


class SpawnError(RuntimeError):
    """Spawn constraints could not be satisfied."""


@dataclass(slots=True)
class GroupSpawnSpec:
    """Initial-configuration parameters for one episode."""

    n_shas: int = 2
    separation: float = 2.0        # diameter of the circle the SHAs stand on
    center_region: float = 1.5     # half-side of the spawn box for the group center
    robot_min_dist: float = 4.0    # minimum robot distance from the group centroid
    rng_seed: int = 0


@dataclass(slots=True)
class ShaGains:
    """Gains of the force-following controller driving each SHA."""

    gain_f: float = 1.0    # force -> acceleration
    k_turn: float = 2.0    # heading error -> turn rate
    f_dead: float = 0.05   # force deadband; below it the agent holds position
    w_de: float = 0.5      # orientation blend weight for the social direction
    w_dc: float = 0.5      # orientation blend weight for the public direction


DEFAULT_GAINS = ShaGains()


def _unit(v: np.ndarray, weight: float) -> np.ndarray:
    """weight times v (..., 2) over its norm, or (0, 0) where the norm is at
    or below EPS_DIR; a new array."""
    n = np.hypot(v[..., 0], v[..., 1])[..., None]
    ok = n > EPS_DIR
    np.copyto(n, 1.0, where=~ok)
    u = np.divide(v, n)
    np.copyto(u, 0.0, where=~ok)
    u *= weight
    return u


def field_turn(d_e: np.ndarray, d_c: np.ndarray, heading: np.ndarray,
               gains: ShaGains, limit: float) -> np.ndarray:
    """Turn commands toward the blend of the normalized social and public
    orientation vectors (..., 2), clipped to [-limit, limit]; 0 (hold
    heading) where the blend vanishes."""
    blend = _unit(d_e, gains.w_de)
    blend += _unit(d_c, gains.w_dc)
    bx, by = blend[..., 0], blend[..., 1]
    turn = wrap_angle(np.arctan2(by, bx) - heading)
    turn *= gains.k_turn
    np.clip(turn, -limit, limit, out=turn)
    np.copyto(turn, 0.0, where=~(np.hypot(bx, by) > EPS_DIR))
    return turn


def sha_commands(force: np.ndarray, d_e: np.ndarray, d_c: np.ndarray,
                 heading: np.ndarray, world: WorldConfig,
                 gains: ShaGains = DEFAULT_GAINS) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (..., 2) and turn rates (...) of SHAs under the
    conversation field at their positions (`forces.field_at`).

    Acceleration follows the combined force (deadbanded, clipped to a_max);
    the turn rate is `field_turn` clipped to omega_max.
    """
    accel = gains.gain_f * force
    scale = np.hypot(accel[..., 0], accel[..., 1])[..., None]
    # the factor is exactly 1 where the acceleration is within a_max
    np.maximum(scale, world.a_max, out=scale)
    np.divide(world.a_max, scale, out=scale)
    accel *= scale
    np.copyto(accel, 0.0,
              where=np.hypot(force[..., 0], force[..., 1])[..., None] < gains.f_dead)
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
