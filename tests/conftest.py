"""Shared helpers for stepping SHA-only groups outside the full environment,
through the same array code the environment steps with, and the step-record
oracle that trajectory files are checked against."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ssbl.forces import field_at, neighbours_of, ospace_of
from ssbl.geometry import (AgentState, ProxemicsConfig, Role, Vec2,
                           WorldConfig, advance)
from ssbl.groups import DEFAULT_GAINS, sha_commands
from ssbl.trajlog import REWARD_KEYS


def as_arrays(agents):
    """Positions, velocities (1, N, 2) and headings (1, N) of agents."""
    return (np.array([[a.position for a in agents]]),
            np.array([[a.velocity for a in agents]]),
            np.array([[a.heading for a in agents]]))


def agents_of(pos, heading, vel=None):
    """The agents of one state: positions (N, 2), headings (N,) and
    velocities (N, 2), at rest when omitted; the robot is agent 0."""
    vel = np.zeros_like(pos) if vel is None else vel
    return [AgentState(id=i, role=Role.ROBOT if i == 0 else Role.SHA,
                       position=Vec2(*p), velocity=Vec2(*v), heading=h)
            for i, (p, v, h) in enumerate(zip(pos.tolist(), vel.tolist(),
                                              heading.tolist()))]


def lane_agents(env, lane):
    """The agents of one lane of an ApproachEnv's current state."""
    return agents_of(env.pos[lane], env.heading[lane], env.vel[lane])


def point_field(p, others, prox, ospace):
    """forces.field_at at one point p from a list of agents, under an
    OSpace; every vector of the result is (1, 2)."""
    neighbours = np.array([a.position for a in others]).reshape(len(others), 1, 2)
    return field_at(np.array([p]), neighbours, prox, np.array(ospace.center),
                    np.array(ospace.radius))


def group_tick(pos, vel, heading, is_sha, prox, world, gains=DEFAULT_GAINS):
    """Positions, velocities (B, N, 2) and headings (B, N) after one tick in
    which every agent follows the SHA controller, in the field of the
    o-space of the agents where is_sha (N,); each lane of B from its own
    entries alone."""
    center, radius = ospace_of(pos[:, is_sha], prox.s_min)
    f = field_at(pos, neighbours_of(pos), prox, center, radius)
    accel, turn = sha_commands(f.combined, f.d_e, f.d_c, heading, world, gains)
    return advance(pos, vel, heading, accel, turn, world)


def step_group_once(agents, prox, world, gains=DEFAULT_GAINS):
    """One tick for the SHAs; non-SHA agents stay frozen in place."""
    is_sha = np.array([a.role is Role.SHA for a in agents])
    new_pos, new_vel, new_heading = group_tick(*as_arrays(agents), is_sha, prox,
                                               world, gains)
    return [replace(a, position=Vec2(*p), velocity=Vec2(*v), heading=h)
            if sha else a
            for a, sha, p, v, h in zip(agents, is_sha, new_pos[0].tolist(),
                                       new_vel[0].tolist(),
                                       new_heading[0].tolist())]


def run_group(agents, prox, world, steps, gains=DEFAULT_GAINS):
    """Step the group `steps` times, returning the trajectory of states."""
    traj = [agents]
    for _ in range(steps):
        agents = step_group_once(agents, prox, world, gains)
        traj.append(agents)
    return traj


def stub_env(n, t=0, obs=None):
    """What a policy's `act` reads of an ApproachEnv besides its state: the
    lanes, every lane of a whole batch of n, the tick t, and `observe()`,
    which returns obs (n, L)."""
    return SimpleNamespace(lane=np.arange(n), t=t, observe=lambda: obs)


def batch_actions(policy, obs):
    """A policy's actions at tick 0 for the rows of obs (B, L), each a lane
    of a whole batch of B episodes begun with seeds 0 .. B - 1."""
    policy.begin_episode(range(len(obs)))
    return policy.act(stub_env(len(obs), obs=obs))


def episode_records(track, success):
    """The step records of one episode from its track (`training.rollout`),
    as dicts: each tick's post-step agents, from the states after the
    initial one, its action, clamped as the env applied it, and its reward
    components. The episode is done on its last tick, and successful there
    if `success`. `json.dumps` of a record with compact separators is the
    line `trajlog.write_trajectory` writes for it."""
    success = bool(success)
    n_steps = len(track["action"])
    states = zip(*(track[k][1:].tolist() for k in ("pos", "vel", "heading")))
    actions = np.clip(track["action"], -1.0, 1.0).tolist()
    rewards = zip(*(track[k].tolist() for k in REWARD_KEYS))
    return [{"t": t + 1,
             "agents": [{"id": i, "role": "sha" if i else "robot",
                         "x": p[0], "y": p[1], "vx": v[0], "vy": v[1], "theta": h}
                        for i, (p, v, h) in enumerate(zip(*state))],
             "action": action,
             "reward": dict(zip(REWARD_KEYS, reward)),
             "done": t == n_steps - 1,
             "success": success and t == n_steps - 1}
            for t, (state, action, reward) in enumerate(zip(states, actions, rewards))]


@pytest.fixture
def world():
    return WorldConfig()


@pytest.fixture
def prox():
    return ProxemicsConfig()
