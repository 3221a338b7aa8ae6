"""Per-step reward increments and their weighted combination.

Five components accumulate over an episode:

  r1  work done by the conversation field along the robot's path
      (midpoint-rule line integral)
  r2  time credited while the field's work rate on the robot is >= 0
  r3  time penalty, -dt every step
  r4  one-shot bonus on successful joining
  r5  negative work done by the field along each SHA's path (disturbance)

Total per step:  w_e*(w1*r1 + w2*r2 + w3*r3 + w4*r4) + w_a*w5*r5.

The increments take floats or arrays; the environment passes one entry per
episode of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Largest accepted weight and |success_bonus| (the defaults are at most 10): the
# largest product, w_e * w4 * success_bonus, is then at most 1e18, far from overflow.
MAX_WEIGHT = 1e6


@dataclass(slots=True)
class RewardWeights:
    """Component weights plus the egoism/altruism split.

    `sign_r1` flips the field-work sign convention for r1 (and therefore the
    r2 work-rate test); the default rewards moving with the field.
    """

    w_e: float = 1.0
    w_a: float = 1.0
    w1: float = 1.0
    w2: float = 0.1
    w3: float = 0.1
    w4: float = 1.0
    w5: float = 0.5
    success_bonus: float = 10.0
    sign_r1: float = 1.0

    def validate(self) -> None:
        for name in ("w_e", "w_a", "w1", "w2", "w3", "w4", "w5", "success_bonus"):
            v = getattr(self, name)
            low = -MAX_WEIGHT if name == "success_bonus" else 0.0
            if not low <= v <= MAX_WEIGHT:
                raise ValueError(f"reward weight {name} must lie in "
                                 f"[{low:g}, {MAX_WEIGHT:g}], got {v}")
        if self.sign_r1 not in (1.0, -1.0):
            raise ValueError(f"sign_r1 must be +1 or -1, got {self.sign_r1}")


@dataclass(slots=True)
class RewardBreakdown:
    r1: float | np.ndarray = 0.0
    r2: float | np.ndarray = 0.0
    r3: float | np.ndarray = 0.0
    r4: float | np.ndarray = 0.0
    r5: float | np.ndarray = 0.0
    total: float | np.ndarray = 0.0


def group_forming_increment(field_at: Callable[[np.ndarray], np.ndarray],
                            u_prev: np.ndarray, u_next: np.ndarray) -> np.ndarray:
    """Midpoint-rule increment of the field line integral along each step
    from u_prev to u_next (..., 2): field((u_prev+u_next)/2) . (u_next - u_prev).
    `field_at` maps the midpoints (..., 2) to the field there."""
    f = field_at((u_prev + u_next) * 0.5)
    du = u_next - u_prev
    return f[..., 0] * du[..., 0] + f[..., 1] * du[..., 1]


def non_increasing_increment(work_rate, dt: float):
    """dt while the field's work rate is non-negative, else 0."""
    return np.where(work_rate >= 0.0, dt, 0.0)


def time_penalty_increment(dt: float) -> float:
    return -dt


def success_bonus(success, bonus: float = 10.0):
    return np.where(success, bonus, 0.0)


def sha_disturbance_increment(work: np.ndarray) -> np.ndarray:
    """-sum over SHAs (last axis) of the field's work along each SHA's step
    (`group_forming_increment` of its path)."""
    return -np.sum(work, axis=-1)


def total_reward(b: RewardBreakdown, w: RewardWeights):
    return (w.w_e * (w.w1 * b.r1 + w.w2 * b.r2 + w.w3 * b.r3 + w.w4 * b.r4)
            + w.w_a * w.w5 * b.r5)
