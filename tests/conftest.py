"""Shared helpers for stepping SHA-only groups outside the full environment,
through the same array code the environment steps with."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ssbl.forces import field_at, neighbours_of, ospace_of
from ssbl.geometry import (AgentState, ProxemicsConfig, Role, Vec2,
                           WorldConfig, advance)
from ssbl.groups import DEFAULT_GAINS, sha_commands


def as_arrays(agents):
    """Positions, velocities (1, N, 2) and headings (1, N) of agents."""
    return (np.array([[a.position for a in agents]]),
            np.array([[a.velocity for a in agents]]),
            np.array([[a.heading for a in agents]]))


def lane_agents(env, lane):
    """The agents of one lane of an ApproachEnv's current state."""
    return [AgentState(id=i, role=Role.ROBOT if i == 0 else Role.SHA,
                       position=Vec2(*p), velocity=Vec2(*v), heading=h)
            for i, (p, v, h) in enumerate(zip(env.pos[lane].tolist(),
                                              env.vel[lane].tolist(),
                                              env.heading[lane].tolist()))]


def point_field(p, others, prox, ospace):
    """forces.field_at at one point p from a list of agents, under an
    OSpace; every vector of the result is (1, 2)."""
    neighbours = np.array([a.position for a in others]).reshape(len(others), 1, 2)
    return field_at(np.array([p]), neighbours, prox, np.array(ospace.center),
                    np.array(ospace.radius))


def step_group_once(agents, prox, world, gains=DEFAULT_GAINS):
    """One tick for the SHAs; non-SHA agents stay frozen in place."""
    pos, vel, heading = as_arrays(agents)
    is_sha = np.array([a.role is Role.SHA for a in agents])
    center, radius = ospace_of(pos[:, is_sha], prox.s_min)
    f = field_at(pos, neighbours_of(pos), prox, center, radius)
    accel, turn = sha_commands(f.combined, f.d_e, f.d_c, heading, world, gains)
    new_pos, new_vel, new_heading = advance(pos, vel, heading, accel, turn, world)
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


@pytest.fixture
def world():
    return WorldConfig()


@pytest.fixture
def prox():
    return ProxemicsConfig()
