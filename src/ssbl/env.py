"""Episodic environment: reset/step interface, egocentric vector
observations, success detection and termination.

Tick order: (1) SHA commands and the robot command are computed from the
pre-tick state, (2) all agents integrate in id order, (3) the o-space is
re-estimated from the new SHA positions, (4) reward increments are computed
from the tick's displacements against the pre-tick field, (5) success and
termination are evaluated on the post-tick state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import EpisodeConfig
from .forces import OSpace, combined_force, estimate_ospace
from .geometry import (AgentState, ProxemicsConfig, Vec2, WorldConfig,
                       integrate, wall_distances, wrap_angle)
from .groups import ShaGains, sha_policy, spawn_episode
from .rewards import (RewardBreakdown, group_forming_increment,
                      non_increasing_increment, sha_disturbance_increment,
                      success_bonus, time_penalty_increment, total_reward)

AGENT_BLOCK = 6  # [x, y, vx, vy, cos(theta), sin(theta)] per agent
N_WALLS = 4


class EpisodeDoneError(RuntimeError):
    """step() was called on a finished or never-reset episode."""


@dataclass(slots=True)
class Action:
    """Bounded continuous control: forward acceleration and turn rate,
    both normalized to [-1, 1]. Values are clamped on entry to step()."""

    a_fwd: float
    a_turn: float

    def clamped(self) -> "Action":
        return Action(max(-1.0, min(1.0, self.a_fwd)),
                      max(-1.0, min(1.0, self.a_turn)))


def observation_length(n_shas: int) -> int:
    return AGENT_BLOCK * (1 + n_shas) + N_WALLS


def encode_observation(agents: list[AgentState], world: WorldConfig) -> np.ndarray:
    """Fixed-layout observation in the robot's egocentric frame.

    Layout: robot block, SHA blocks in id order, then the four wall
    distances (left, right, bottom, top; world frame). Positions are
    relative to the robot and rotated by -heading; velocities are world
    velocities rotated into the same frame; per-agent angles are headings
    relative to the robot's.
    """
    robot = agents[0]
    c = math.cos(-robot.heading)
    s = math.sin(-robot.heading)
    out = np.empty(observation_length(len(agents) - 1))
    i = 0
    for a in agents:
        rx = a.position.x - robot.position.x
        ry = a.position.y - robot.position.y
        rel_h = wrap_angle(a.heading - robot.heading)
        out[i] = c * rx - s * ry
        out[i + 1] = s * rx + c * ry
        out[i + 2] = c * a.velocity.x - s * a.velocity.y
        out[i + 3] = s * a.velocity.x + c * a.velocity.y
        out[i + 4] = math.cos(rel_h)
        out[i + 5] = math.sin(rel_h)
        i += AGENT_BLOCK
    out[i:i + N_WALLS] = wall_distances(robot.position, world)
    return out


def success_instant(robot: AgentState, ospace: OSpace, band: float,
                    angle: float) -> bool:
    """True when the robot stands on the o-space ring facing its center."""
    to_center = ospace.center - robot.position
    dist = to_center.norm()
    if abs(dist - ospace.radius) > band:
        return False
    if dist <= 1e-9:  # at the very center: no facing direction
        return False
    err = wrap_angle(to_center.heading() - robot.heading)
    return abs(err) <= angle


def derive_episode_seed(seed) -> int:
    """Collapse arbitrary seed material to the 64-bit spawn seed."""
    ss = np.random.SeedSequence(seed)
    return int(ss.generate_state(1, np.uint64)[0])


class ApproachEnv:
    """Robot-joins-a-group environment around the conversation force field."""

    def __init__(self, world: WorldConfig, prox: ProxemicsConfig,
                 episode: EpisodeConfig, sha_gains: ShaGains | None = None):
        self.world = world
        self.prox = prox
        self.episode = episode
        self.sha_gains = sha_gains if sha_gains is not None else ShaGains()

        self.agents: list[AgentState] = []
        self.ospace: OSpace | None = None
        self.t = 0
        self.done = True
        self.success = False
        self._hold = 0
        self.seed = None

    # -- episode control ---------------------------------------------------

    def reset(self, seed) -> np.ndarray:
        """Spawn a fresh episode. `seed` may be an int or a sequence of ints."""
        self.seed = seed
        spec = replace(self.episode.spawn, rng_seed=derive_episode_seed(seed))
        self.agents = spawn_episode(spec, self.world)
        self.ospace = estimate_ospace(self.agents[1:], self.prox.s_min)
        self.t = 0
        self.done = False
        self.success = False
        self._hold = 0
        return encode_observation(self.agents, self.world)

    @property
    def robot(self) -> AgentState:
        return self.agents[0]

    @property
    def shas(self) -> list[AgentState]:
        return self.agents[1:]

    def step(self, action: Action) -> tuple[np.ndarray, float, bool, RewardBreakdown]:
        if self.done:
            raise EpisodeDoneError("step() called on a finished episode; call reset()")
        action = action.clamped()
        world = self.world
        weights = self.episode.weights
        dt = world.dt

        pre = self.agents
        pre_ospace = self.ospace

        # (1) commands from the pre-tick state
        robot = pre[0]
        accel_r = robot.heading_unit() * (action.a_fwd * world.a_max)
        turn_r = action.a_turn * world.omega_max
        commands = [(accel_r, turn_r)]
        for sha in pre[1:]:
            commands.append(sha_policy(sha, pre, self.prox, pre_ospace, world,
                                       self.sha_gains))

        # (2) integrate everyone in id order
        post = [integrate(a, acc, tr, world)
                for a, (acc, tr) in zip(pre, commands)]

        # (3) o-space follows the group
        new_ospace = estimate_ospace(post[1:], self.prox.s_min)

        # (4) reward increments against the pre-tick field
        pre_shas = pre[1:]
        r1 = weights.sign_r1 * group_forming_increment(
            lambda u: combined_force(u, pre_shas, self.prox, pre_ospace).combined,
            robot.position, post[0].position)
        r2 = non_increasing_increment(r1 / dt, dt)
        r3 = time_penalty_increment(dt)
        per_sha = []
        for j, sha in enumerate(pre_shas):
            disp = post[j + 1].position - sha.position
            others = [pre[0]] + [s for s in pre_shas if s.id != sha.id]
            mid = Vec2((sha.position.x + post[j + 1].position.x) * 0.5,
                       (sha.position.y + post[j + 1].position.y) * 0.5)
            field = combined_force(mid, others, self.prox, pre_ospace).combined
            per_sha.append((field, disp))
        r5 = sha_disturbance_increment(per_sha)

        # (5) success and termination on the post-tick state
        self.agents = post
        self.ospace = new_ospace
        self.t += 1
        if success_instant(post[0], new_ospace, self.episode.success_band,
                           self.episode.success_angle):
            self._hold += 1
        else:
            self._hold = 0
        self.success = self._hold >= self.episode.success_hold
        self.done = self.success or self.t >= self.episode.max_steps

        r4 = success_bonus(self.success, weights.success_bonus)
        breakdown = RewardBreakdown(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5)
        breakdown.total = total_reward(breakdown, weights)

        obs = encode_observation(post, world)
        return obs, breakdown.total, self.done, breakdown
