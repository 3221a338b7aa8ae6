import math
from dataclasses import replace

import numpy as np
import pytest

from ssbl.config import ConfigError, config_from_dict
from ssbl.geometry import (AgentState, Role, SimulationFault, Vec2,
                           WorldConfig, advance, wall_distances, wrap_angle)


def agent(pos=(5.0, 5.0), vel=(0.0, 0.0), heading=0.0):
    return AgentState(id=0, role=Role.ROBOT, position=Vec2(*pos),
                      velocity=Vec2(*vel), heading=heading)


def integrate(a, accel, turn_rate, world):
    """One agent through the array integrator."""
    pos, vel, heading = advance(np.array([a.position]), np.array([a.velocity]),
                                np.array([a.heading]), np.array([accel]),
                                np.array([turn_rate]), world)
    return replace(a, position=Vec2(*pos[0].tolist()),
                   velocity=Vec2(*vel[0].tolist()), heading=float(heading[0]))


def walls(p, world):
    return tuple(wall_distances(np.array(p), world).tolist())


def test_vec2_basics():
    a, b = Vec2(1.0, 2.0), Vec2(3.0, -1.0)
    assert a + b == Vec2(4.0, 1.0)
    assert a - b == Vec2(-2.0, 3.0)
    assert 2.0 * a == Vec2(2.0, 4.0)
    assert a.dot(b) == 1.0
    assert Vec2(3.0, 4.0).norm() == 5.0
    assert Vec2(0.0, 0.0).normalized() == Vec2(0.0, 0.0)
    assert Vec2(1e-12, 0.0).normalized() == Vec2(0.0, 0.0)
    r = Vec2(1.0, 0.0).rotated(math.pi / 2)
    assert abs(r.x) < 1e-15 and abs(r.y - 1.0) < 1e-15


def test_wrap_angle_range():
    for a in np.linspace(-25.0, 25.0, 1001):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0


def test_integrate_zero_dynamics():
    w = WorldConfig()
    out = integrate(agent(), Vec2(0.0, 0.0), 0.0, w)
    assert out.position == Vec2(5.0, 5.0)
    assert out.velocity == Vec2(0.0, 0.0)


def test_integrate_hand_derived():
    w = WorldConfig(damping=1.0)
    out = integrate(agent(), Vec2(1.0, 0.0), 0.0, w)
    assert out.velocity == Vec2(0.1, 0.0)
    assert out.position == Vec2(5.0 + 0.1 * 0.1, 5.0)


def test_wall_clamp_zeroes_outward_velocity():
    w = WorldConfig()
    near_wall = agent(pos=(0.02, 5.0), vel=(-1.0, 0.0), heading=math.pi)
    out = integrate(near_wall, Vec2(-1.0, 0.0), 0.0, w)
    assert out.position.x == 0.0
    assert out.velocity.x == 0.0
    # tangential component survives
    sliding = agent(pos=(0.02, 5.0), vel=(-0.5, 0.5))
    out = integrate(sliding, Vec2(0.0, 0.0), 0.0, w)
    assert out.position.x == 0.0
    assert out.velocity.x == 0.0
    assert out.velocity.y > 0.0


def test_speed_cap_holds_everywhere():
    w = WorldConfig()
    rng = np.random.default_rng(3)
    a = agent(vel=(0.9, 0.3))
    for _ in range(500):
        acc = Vec2(*(rng.uniform(-1.0, 1.0, 2) / math.sqrt(2.0)))
        turn = float(rng.uniform(-w.omega_max, w.omega_max))
        a = integrate(a, acc, turn, w)
        assert a.speed() <= w.v_max
        assert 0.0 <= a.position.x <= w.floor_side
        assert 0.0 <= a.position.y <= w.floor_side
        assert -math.pi < a.heading <= math.pi


def test_integrate_is_deterministic():
    w = WorldConfig()
    a1 = integrate(agent(vel=(0.2, -0.1)), Vec2(0.3, 0.4), 0.7, w)
    a2 = integrate(agent(vel=(0.2, -0.1)), Vec2(0.3, 0.4), 0.7, w)
    assert a1 == a2


def test_non_finite_input_faults():
    w = WorldConfig()
    with pytest.raises(SimulationFault):
        integrate(agent(), Vec2(math.nan, 0.0), 0.0, w)
    with pytest.raises(SimulationFault):
        integrate(agent(pos=(math.inf, 1.0)), Vec2(0.0, 0.0), 0.0, w)


def test_precondition_violations_raise():
    w = WorldConfig()
    with pytest.raises(ValueError):
        integrate(agent(), Vec2(2.0, 0.0), 0.0, w)
    with pytest.raises(ValueError):
        integrate(agent(), Vec2(0.0, 0.0), 10.0, w)


def test_wall_distances_center_and_corner():
    w = WorldConfig(floor_side=10.0)
    assert walls(Vec2(5.0, 5.0), w) == (5.0, 5.0, 5.0, 5.0)
    assert walls(Vec2(1.0, 1.0), w) == (1.0, 9.0, 1.0, 9.0)


def test_wall_distances_pairs_sum_to_side():
    w = WorldConfig(floor_side=10.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = Vec2(*rng.uniform(0.0, 10.0, 2))
        left, right, bottom, top = walls(p, w)
        assert left + right == pytest.approx(10.0, abs=1e-12)
        assert bottom + top == pytest.approx(10.0, abs=1e-12)
        assert min(left, right, bottom, top) >= 0.0


def test_wall_distances_clamps_outside_points():
    w = WorldConfig(floor_side=10.0)
    assert walls(Vec2(-1.0, 5.0), w) == (0.0, 10.0, 5.0, 5.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"world": {"dt": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"world": {"damping": 1.5}})
    config_from_dict({"world": {}})
