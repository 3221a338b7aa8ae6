"""Planar vectors, agent state, proxemics/world configuration and the shared
physics integrator.

All quantities are SI: meters, seconds, radians. Headings live in (-pi, pi].
The simulator holds agents as arrays from spawn on, and the integrator works
on them. `Vec2`, `AgentState` and `Role` describe a single agent for the
one-point views `forces.combined_force` and `forces.estimate_ospace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this norm a direction is undefined and every direction-dependent
# quantity evaluates to the zero vector.
EPS_DIR = 1e-9


class SimulationFault(RuntimeError):
    """Simulation state is corrupt (non-finite position/velocity/command)."""


class Vec2(NamedTuple):
    """Immutable 2D vector. Arithmetic returns new vectors."""

    x: float
    y: float

    def __add__(self, other):
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float):
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other) -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        """Unit vector, or (0, 0) when the norm is at or below EPS_DIR."""
        n = math.hypot(self.x, self.y)
        if n <= EPS_DIR:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / n, self.y / n)

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def heading(self) -> float:
        return math.atan2(self.y, self.x)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


ZERO2 = Vec2(0.0, 0.0)


def wrap_angle(a):
    """Wrap angles (a float or an array) to (-pi, pi]."""
    r = np.mod(a, TWO_PI)
    return r - TWO_PI * (r > math.pi)


class Role(Enum):
    SHA = "sha"
    ROBOT = "robot"


@dataclass(slots=True)
class AgentState:
    """Pose and velocity of one agent. Treated as an immutable value:
    the integrator returns a new state instead of mutating."""

    id: int
    role: Role
    position: Vec2
    velocity: Vec2
    heading: float  # radians in (-pi, pi]

    def speed(self) -> float:
        return self.velocity.norm()


@dataclass(slots=True)
class ProxemicsConfig:
    """Interpersonal zone radii (personal < social < public) plus the floor
    radius used when estimating a shared conversation space."""

    d_personal: float = 1.2
    d_social: float = 3.6
    d_public: float = 7.6
    s_min: float = 0.5


@dataclass(slots=True)
class WorldConfig:
    """Square floor with four walls and the integrator constants."""

    floor_side: float = 10.0
    dt: float = 0.1
    v_max: float = 1.0
    a_max: float = 1.0
    omega_max: float = math.pi / 2.0
    damping: float = 0.95


def advance(pos: np.ndarray, vel: np.ndarray, heading: np.ndarray,
            accel: np.ndarray, turn_rate: np.ndarray, world: WorldConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance agents (positions and velocities (..., 2), headings (...)) by
    one tick of semi-implicit Euler; returns new arrays.

    v' = clamp(damping * (v + a*dt), v_max); p' = p + v'*dt, clamped to the
    walls with the velocity component into the wall zeroed; heading wrapped.
    """
    if not (np.isfinite(accel).all() and np.isfinite(turn_rate).all()
            and np.isfinite(pos).all() and np.isfinite(vel).all()
            and np.isfinite(heading).all()):
        raise SimulationFault("non-finite state or command")
    a_norm = np.hypot(accel[..., 0], accel[..., 1])
    if (a_norm > world.a_max * (1.0 + 1e-9) + 1e-12).any():
        raise ValueError(f"|accel|={a_norm.max()} exceeds a_max={world.a_max}")
    if (np.abs(turn_rate) > world.omega_max * (1.0 + 1e-9) + 1e-12).any():
        raise ValueError(f"|turn_rate|={np.abs(turn_rate).max()} exceeds "
                         f"omega_max={world.omega_max}")

    dt = world.dt
    v = vel + accel * dt
    v *= world.damping
    speed = np.hypot(v[..., 0], v[..., 1])
    # renormalize at most a few times so rounding can never leave speed above
    # cap; the factor is exactly 1 for agents already within it
    for _ in range(4):
        if not (speed > world.v_max).any():
            break
        v *= (world.v_max / np.maximum(speed, world.v_max))[..., None]
        speed = np.hypot(v[..., 0], v[..., 1])

    side = world.floor_side
    p = pos + v * dt
    np.copyto(v, 0.0, where=((p < 0.0) & (v < 0.0)) | ((p > side) & (v > 0.0)))
    return np.clip(p, 0.0, side, out=p), v, wrap_angle(heading + turn_rate * dt)


def wall_distances(p: np.ndarray, world: WorldConfig) -> np.ndarray:
    """Distances (left, right, bottom, top) from points (..., 2) to the four
    walls, as (..., 4). Points outside the floor are clamped onto it first."""
    side = world.floor_side
    out = np.empty((*p.shape[:-1], 4))
    np.clip(p, 0.0, side, out=out[..., ::2])
    np.subtract(side, out[..., ::2], out=out[..., 1::2])
    return out
