"""Episodic environment: a batch of episodes stepped in lockstep, egocentric
vector observations, success detection and termination.

`reset` and `step` return no observations: `observe()` encodes those of the
held lanes when a policy asks for them, so a policy that reads none (the
field-following baseline, the random one) costs no encoding.

The state is held as arrays with one lane per episode (positions and
velocities (B, N, 2), headings (B, N); the robot is agent 0), and every lane
is computed from its own entries alone, so an episode steps to the same
bytes at any batch size. Tick order, for every lane: (1) SHA commands and
the robot command are computed from the pre-tick state, (2) all agents
integrate, (3) the o-space is re-estimated from the new SHA positions,
(4) reward increments are computed from the tick's displacements against the
pre-tick field, (5) success and termination are evaluated on the post-tick
state. A batch holds running episodes only: `step` refuses a batch that
holds a finished lane, and `keep` drops lanes from every per-lane array,
`lane` (each lane's index in the batch) included, so a tick costs only the
episodes still running. Every held lane is therefore at the same tick, and
`t` is one int for the batch: 0 after `reset`, the ticks stepped since."""

from __future__ import annotations

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
    b, n = heading.shape
    out = np.empty((b, observation_length(n - 1)))
    blocks = out[:, :AGENT_BLOCK * n].reshape(b, n, AGENT_BLOCK)
    h0 = heading[:, :1]
    c = np.cos(-h0)[..., None]
    s = np.sin(-h0)[..., None]
    # x and y of the position relative to the robot and of the velocity,
    # (B, N, 2) each, rotated together into blocks 0, 2 and 1, 3
    rel = np.empty((b, n, 4))
    np.subtract(pos, pos[:, :1], out=rel[..., :2])
    rel[..., 2:] = vel
    x, y = rel[..., ::2], rel[..., 1::2]
    np.subtract(c * x, s * y, out=blocks[..., 0:4:2])
    np.add(s * x, c * y, out=blocks[..., 1:4:2])
    rel_h = wrap_angle(heading - h0)
    np.cos(rel_h, out=blocks[..., 4])
    np.sin(rel_h, out=blocks[..., 5])
    out[:, AGENT_BLOCK * n:] = wall_distances(pos[:, 0], world)
    return out


def success_instant(pos: np.ndarray, heading: np.ndarray, center: np.ndarray,
                    radius: np.ndarray, band: float, angle: float) -> np.ndarray:
    """True where a robot (positions (..., 2), headings (...)) stands on its
    o-space ring facing the center (never at the center itself)."""
    to_center = center - pos
    tx, ty = to_center[..., 0], to_center[..., 1]
    dist = np.hypot(tx, ty)
    err = wrap_angle(np.arctan2(ty, tx) - heading)
    return (np.abs(dist - radius) <= band) & (dist > 1e-9) & (np.abs(err) <= angle)


def _take(f: ForceBreakdown, index) -> ForceBreakdown:
    """Every array of a field indexed along its leading axis."""
    return ForceBreakdown(*(getattr(f, k)[index] for k in ForceBreakdown.__slots__))


def derive_episode_seed(seed) -> int:
    """Collapse arbitrary seed material to the 64-bit spawn seed."""
    ss = np.random.SeedSequence(seed)
    return int(ss.generate_state(1, np.uint64)[0])


class ApproachEnv:
    """Robot-joins-a-group environment around the conversation force field.
    `field` holds the field at every agent of the current state, from all
    the others; the SHA commands and the baseline robot read it."""

    def __init__(self, world: WorldConfig, prox: ProxemicsConfig,
                 episode: EpisodeConfig, sha_gains: ShaGains):
        self.world = world
        self.prox = prox
        self.episode = episode
        self.sha_gains = sha_gains
        self.done = np.ones(0, dtype=bool)

    # -- episode control ---------------------------------------------------

    def reset(self, seeds) -> None:
        """Spawn one episode per entry of `seeds` (each an int or a sequence
        of ints, collapsed by `derive_episode_seed`) straight into the lane
        arrays, every agent at rest."""
        pos, heading = zip(*(spawn_episode(self.episode.spawn, self.world,
                                           derive_episode_seed(s))
                             for s in seeds))
        self.pos, self.heading = np.stack(pos), np.stack(heading)
        self.vel = np.zeros_like(self.pos)
        self.center, self.radius = ospace_of(self.pos[:, 1:], self.prox.s_min)
        self.lane = np.arange(len(self.pos))
        b = len(self.lane)
        self.t = 0
        self.hold = np.zeros(b, dtype=np.int64)
        self.done = np.zeros(b, dtype=bool)
        self.success = np.zeros(b, dtype=bool)
        self.field = field_at(self.pos, neighbours_of(self.pos), self.prox,
                              self.center, self.radius)

    def observe(self) -> np.ndarray:
        """The observations (B, L) of the held lanes, encoded on each call."""
        return encode_observation(self.pos, self.vel, self.heading, self.world)

    def keep(self, mask: np.ndarray) -> None:
        """Hold only the lanes where `mask` (B,) is true, in their order."""
        for name in ("lane", "pos", "vel", "heading", "center", "radius",
                     "hold", "done", "success"):
            setattr(self, name, getattr(self, name)[mask])
        self.field = _take(self.field, mask)

    def step(self, actions: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, RewardBreakdown]:
        """Advance every held lane under robot actions (B, 2) = [a_fwd,
        a_turn], clamped to [-1, 1]. Returns the reward totals (B,), the done
        mask and the reward breakdown."""
        if not self.done.size or self.done.any():
            raise EpisodeDoneError("step() called on finished or never-reset "
                                   "episodes; call reset() or keep() the running ones")
        world = self.world
        weights = self.episode.weights
        dt = world.dt
        act = np.clip(actions, -1.0, 1.0)
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

        # (2) integrate everyone; (3) the o-space follows the group. Index 0
        # of `center` and `radius` is the pre-tick o-space, 1 the new one.
        new_pos, new_vel, new_heading = advance(pos, vel, heading, accel, turn, world)
        center = np.empty((2, *self.center.shape))
        radius = np.empty((2, *self.radius.shape))
        center[0], radius[0] = self.center, self.radius
        center[1], radius[1] = ospace_of(new_pos[:, 1:], self.prox.s_min)

        # (4) one field evaluation for the tick, at the midpoints that
        # `group_forming_increment` hands over against the pre-tick agents
        # and o-space, for the work along the robot's step (r1) and along
        # each SHA's (r5), and at the new positions against the new agents
        # and o-space, the field the next tick reads. `at` holds the
        # pre-tick, new and midpoint positions: the agents of the two
        # evaluations are at[:2], their points at[2:0:-1].
        at = np.empty((3, *pos.shape))
        at[0], at[1] = pos, new_pos
        neighbours = neighbours_of(at[:2])
        both = None

        def field_at_midpoints(mid: np.ndarray) -> np.ndarray:
            nonlocal both
            at[2] = mid
            both = field_at(at[2:0:-1], neighbours, self.prox, center, radius)
            return both.combined[0]

        work = group_forming_increment(field_at_midpoints, pos, new_pos)
        r1 = weights.sign_r1 * work[:, 0]
        r2 = non_increasing_increment(r1 / dt, dt)
        r3 = np.full(len(r1), time_penalty_increment(dt))
        r5 = sha_disturbance_increment(work[:, 1:])

        # (5) success and termination
        self.pos, self.vel, self.heading = new_pos, new_vel, new_heading
        self.center, self.radius = center[1], radius[1]
        self.field = _take(both, 1)
        self.t += 1
        on_ring = success_instant(new_pos[:, 0], new_heading[:, 0], center[1],
                                  radius[1], self.episode.success_band,
                                  self.episode.success_angle)
        self.hold = np.where(on_ring, self.hold + 1, 0)
        self.success = self.hold >= self.episode.success_hold
        self.done = self.success | (self.t >= self.episode.max_steps)

        r4 = success_bonus(self.success, weights.success_bonus)
        breakdown = RewardBreakdown(r1, r2, r3, r4, r5)
        breakdown.total = total_reward(breakdown, weights)
        return breakdown.total, self.done, breakdown
