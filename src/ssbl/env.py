"""Episodic environment: a batch of episodes stepped in lockstep, egocentric
vector observations, success detection and termination.

The state is held as arrays with one lane per episode (positions and
velocities (B, N, 2), headings (B, N); the robot is agent 0), and every lane
is computed from its own entries alone, so an episode steps to the same
bytes at any batch size. Tick order, for every lane still running: (1) SHA
commands and the robot command are computed from the pre-tick state, (2) all
agents integrate, (3) the o-space is re-estimated from the new SHA positions,
(4) reward increments are computed from the tick's displacements against the
pre-tick field, (5) success and termination are evaluated on the post-tick
state. Finished lanes keep their state.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import EpisodeConfig
from .forces import ForceBreakdown, field_at, neighbours_of, ospace_of
from .geometry import (ProxemicsConfig, WorldConfig, advance, wall_distances,
                       wrap_angle)
from .groups import ShaGains, sha_commands, spawn_episode
from .rewards import (RewardBreakdown, group_forming_increment,
                      non_increasing_increment, sha_disturbance_increment,
                      success_bonus, time_penalty_increment, total_reward)

AGENT_BLOCK = 6  # [x, y, vx, vy, cos(theta), sin(theta)] per agent
N_WALLS = 4


class EpisodeDoneError(RuntimeError):
    """step() was called on finished or never-reset episodes."""


def observation_length(n_shas: int) -> int:
    return AGENT_BLOCK * (1 + n_shas) + N_WALLS


def encode_observation(pos: np.ndarray, vel: np.ndarray, heading: np.ndarray,
                       world: WorldConfig) -> np.ndarray:
    """Fixed-layout observations (B, L) in each robot's egocentric frame.
    Layout: robot block, SHA blocks in id order, then the four wall
    distances (left, right, bottom, top; world frame). Positions are
    relative to the robot and rotated by -heading; velocities are world
    velocities rotated into the same frame; per-agent angles are headings
    relative to the robot's.
    """
    h0 = heading[:, :1]
    c = np.cos(-h0)
    s = np.sin(-h0)
    rx = pos[..., 0] - pos[:, :1, 0]
    ry = pos[..., 1] - pos[:, :1, 1]
    vx, vy = vel[..., 0], vel[..., 1]
    rel_h = wrap_angle(heading - h0)
    blocks = np.stack([c * rx - s * ry, s * rx + c * ry,
                       c * vx - s * vy, s * vx + c * vy,
                       np.cos(rel_h), np.sin(rel_h)], axis=-1)
    return np.concatenate([blocks.reshape(len(pos), -1),
                           wall_distances(pos[:, 0], world)], axis=1)


def success_instant(pos: np.ndarray, heading: np.ndarray, center: np.ndarray,
                    radius: np.ndarray, band: float, angle: float) -> np.ndarray:
    """True where a robot (positions (..., 2), headings (...)) stands on its
    o-space ring facing the center (never at the center itself)."""
    to_center = center - pos
    tx, ty = to_center[..., 0], to_center[..., 1]
    dist = np.hypot(tx, ty)
    err = wrap_angle(np.arctan2(ty, tx) - heading)
    return (np.abs(dist - radius) <= band) & (dist > 1e-9) & (np.abs(err) <= angle)


def derive_episode_seed(seed) -> int:
    """Collapse arbitrary seed material to the 64-bit spawn seed."""
    ss = np.random.SeedSequence(seed)
    return int(ss.generate_state(1, np.uint64)[0])


class ApproachEnv:
    """Robot-joins-a-group environment around the conversation force field.
    `field` holds the field at every agent of the current state, from all
    the others; the SHA commands and the baseline robot read it."""

    def __init__(self, world: WorldConfig, prox: ProxemicsConfig,
                 episode: EpisodeConfig, sha_gains: ShaGains | None = None):
        self.world = world
        self.prox = prox
        self.episode = episode
        self.sha_gains = sha_gains if sha_gains is not None else ShaGains()
        self.done = np.ones(0, dtype=bool)

    # -- episode control ---------------------------------------------------

    def reset(self, seeds) -> np.ndarray:
        """Spawn one episode per entry of `seeds` (each an int or a sequence
        of ints); returns their observations (B, L)."""
        self.seeds = list(seeds)
        spawned = [spawn_episode(replace(self.episode.spawn,
                                         rng_seed=derive_episode_seed(s)),
                                 self.world)
                   for s in self.seeds]
        self.pos = np.array([[a.position for a in ags] for ags in spawned])
        self.vel = np.array([[a.velocity for a in ags] for ags in spawned])
        self.heading = np.array([[a.heading for a in ags] for ags in spawned])
        self.center, self.radius = ospace_of(self.pos[:, 1:], self.prox.s_min)
        b = len(self.seeds)
        self.t = np.zeros(b, dtype=np.int64)
        self.hold = np.zeros(b, dtype=np.int64)
        self.done = np.zeros(b, dtype=bool)
        self.success = np.zeros(b, dtype=bool)
        self.field = self._field(self.pos, self.pos)
        return self.observe()

    def observe(self) -> np.ndarray:
        return encode_observation(self.pos, self.vel, self.heading, self.world)

    def _field(self, points: np.ndarray, agents: np.ndarray) -> ForceBreakdown:
        """The field at agent i's point (B, N, 2) from the other `agents`."""
        return field_at(points, neighbours_of(agents), self.prox,
                        self.center, self.radius)

    def step(self, actions: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, RewardBreakdown]:
        """Advance the running lanes under robot actions (B, 2) = [a_fwd,
        a_turn], clamped to [-1, 1]. Returns observations (B, L), reward
        totals (B,), the done mask and the reward breakdown; the rewards of
        lanes that were already done are 0."""
        if self.done.all():
            raise EpisodeDoneError("step() called on finished episodes; call reset()")
        running = ~self.done
        world = self.world
        weights = self.episode.weights
        dt = world.dt
        act = np.where(running[:, None], np.clip(actions, -1.0, 1.0), 0.0)
        pos, vel, heading = self.pos, self.vel, self.heading

        # (1) commands from the pre-tick state
        accel = np.empty_like(pos)
        turn = np.empty_like(heading)
        thrust = act[:, 0] * world.a_max
        accel[:, 0, 0] = np.cos(heading[:, 0]) * thrust
        accel[:, 0, 1] = np.sin(heading[:, 0]) * thrust
        turn[:, 0] = act[:, 1] * world.omega_max
        f = self.field
        accel[:, 1:], turn[:, 1:] = sha_commands(
            f.combined[:, 1:], f.d_e[:, 1:], f.d_c[:, 1:], heading[:, 1:],
            world, self.sha_gains)

        # (2) integrate everyone; finished lanes keep their state
        new_pos, new_vel, new_heading = advance(pos, vel, heading, accel, turn, world)
        keep = running[:, None]
        new_pos = np.where(keep[..., None], new_pos, pos)
        new_vel = np.where(keep[..., None], new_vel, vel)
        new_heading = np.where(keep, new_heading, heading)

        # (4) against the pre-tick field: the work along the robot's step (r1)
        # and along each SHA's (r5)
        work = group_forming_increment(
            lambda mid: self._field(mid, pos).combined, pos, new_pos)
        r1 = weights.sign_r1 * work[:, 0]
        r2 = non_increasing_increment(r1 / dt, dt)
        r3 = time_penalty_increment(dt)
        r5 = sha_disturbance_increment(work[:, 1:])

        # (3) o-space follows the group; (5) success and termination
        self.pos, self.vel, self.heading = new_pos, new_vel, new_heading
        self.center, self.radius = ospace_of(new_pos[:, 1:], self.prox.s_min)
        self.t = self.t + running
        on_ring = success_instant(new_pos[:, 0], new_heading[:, 0], self.center,
                                  self.radius, self.episode.success_band,
                                  self.episode.success_angle)
        self.hold = np.where(running, np.where(on_ring, self.hold + 1, 0), self.hold)
        self.success = self.hold >= self.episode.success_hold
        self.done = self.success | (self.t >= self.episode.max_steps)

        r4 = success_bonus(self.success, weights.success_bonus)
        breakdown = RewardBreakdown(*(np.where(running, r, 0.0)
                                      for r in (r1, r2, r3, r4, r5)))
        breakdown.total = total_reward(breakdown, weights)

        self.field = self._field(new_pos, new_pos)
        return self.observe(), breakdown.total, self.done, breakdown
