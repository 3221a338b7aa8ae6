import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import as_arrays, episode_records, lane_agents, point_field
from ssbl.config import ConfigError, config_from_dict, default_config
from ssbl.env import (ApproachEnv, EpisodeDoneError, encode_observation,
                      observation_length, success_instant)
from ssbl.forces import OSpace, estimate_ospace, field_at, neighbours_of
from ssbl.geometry import (AgentState, Role, Vec2, WorldConfig, wrap_angle)
from ssbl.groups import GroupSpawnSpec
from ssbl.rewards import RewardWeights, group_forming_increment
from ssbl.training import make_env, rollout
from ssbl.policies import RandomPolicy, SffmPolicy


def fresh_env(**episode_kwargs) -> ApproachEnv:
    cfg = default_config()
    for key, value in episode_kwargs.items():
        setattr(cfg.episode, key, value)
    return make_env(cfg.validate())


def act(a_fwd, a_turn):
    """One lane's action."""
    return np.array([[a_fwd, a_turn]])


def robot(env):
    return lane_agents(env, 0)[0]


def isolated_env(weights=None) -> ApproachEnv:
    """Robot spawned far outside every proxemic zone of the group."""
    cfg = default_config()
    cfg.world = WorldConfig(floor_side=30.0)
    cfg.episode.spawn = GroupSpawnSpec(robot_min_dist=12.0, center_region=1.0)
    if weights is not None:
        cfg.episode.weights = weights
    return make_env(cfg.validate())


# -- reset ----------------------------------------------------------------------


def test_reset_is_deterministic():
    env1, env2 = fresh_env(), fresh_env()
    env1.reset([123])
    env2.reset([123])
    o1, o2 = env1.observe(), env2.observe()
    assert np.array_equal(o1, o2)
    assert lane_agents(env1, 0) == lane_agents(env2, 0)
    env1.reset([124])
    assert not np.array_equal(o1, env1.observe())


def test_observation_length_two_shas():
    env = fresh_env()
    env.reset([0])
    assert env.observe().shape == (1, 22)
    assert observation_length(2) == 22
    assert observation_length(3) == 28


def test_reset_respects_min_robot_distance():
    env = fresh_env()
    env.reset(range(20))
    for lane in range(20):
        agents = lane_agents(env, lane)
        centroid = estimate_ospace(agents[1:], env.prox.s_min).center
        assert (agents[0].position - centroid).norm() >= env.episode.spawn.robot_min_dist


# -- step ------------------------------------------------------------------------


def test_zero_action_isolated_robot_reward_formula():
    w = RewardWeights(w2=0.3, w3=0.1)
    env = isolated_env(weights=w)
    env.reset([5])
    start = robot(env).position
    r, _, bd = env.step(act(0.0, 0.0))
    assert robot(env).position == start
    assert bd.r1[0] == 0.0 and bd.r5[0] == 0.0 and bd.r4[0] == 0.0
    assert r[0] == w.w_e * (w.w2 * 0.1 - w.w3 * 0.1)


def test_cumulative_reward_is_sum_of_step_totals():
    env = fresh_env()
    env.reset([3])
    policy_rng = np.random.default_rng(0)
    total = 0.0
    history = []
    done = False
    while not done:
        a = act(*policy_rng.uniform(-1.0, 1.0, 2))
        r, (done,), bd = env.step(a)
        total += r[0]
        history.append(bd.total[0])
    assert total == sum(history)


def test_episode_ends_by_max_steps():
    env = fresh_env(max_steps=40)
    env.reset([1])
    for t in range(40):
        _, (done,), _ = env.step(act(0.0, 0.0))
        assert done == (t == 39) or done  # done may come early only via success
    assert env.t == 40
    assert env.done[0]


def test_step_after_done_raises():
    env = fresh_env(max_steps=12)
    env.reset([2])
    done = False
    while not done:
        _, (done,), _ = env.step(act(0.0, 0.0))
    with pytest.raises(EpisodeDoneError):
        env.step(act(0.0, 0.0))


def test_step_on_a_batch_holding_a_finished_lane_raises():
    env = fresh_env()
    env.reset([[9, 0], [9, 1]])
    policy = SffmPolicy()
    while not env.done.any():
        _, done, _ = env.step(policy.act(env))
    assert not done.all()
    with pytest.raises(EpisodeDoneError):
        env.step(policy.act(env))
    env.keep(~done)
    env.step(policy.act(env))


def test_r1_and_r5_are_the_field_work_at_the_handed_midpoints():
    """r1 and r5 of a tick are `group_forming_increment` along each agent's
    step, with the field taken at the midpoint the function hands over,
    from the other agents before the tick and the o-space before it."""
    env = fresh_env()
    env.reset([[4, 0], [4, 1]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        before = [lane_agents(env, b) for b in range(2)]
        ospaces = [OSpace(Vec2(*env.center[b].tolist()), float(env.radius[b]))
                   for b in range(2)]
        _, done, bd = env.step(rng.uniform(-1.0, 1.0, (2, 2)))
        for b, (agents, ospace) in enumerate(zip(before, ospaces)):
            work = [group_forming_increment(
                lambda mid: point_field(mid, agents[:i] + agents[i + 1:], env.prox,
                                        ospace).combined[0],
                np.array(a.position), np.array(p.position))
                for i, (a, p) in enumerate(zip(agents, lane_agents(env, b)))]
            assert bd.r1[b] == env.episode.weights.sign_r1 * work[0]
            assert bd.r5[b] == -np.sum(work[1:])
        assert not done.any()


def test_actions_clamped_on_entry():
    env = fresh_env()
    env.reset([9])
    env.step(act(5.0, -7.0))  # must not violate integrator preconditions
    assert robot(env).speed() <= env.world.v_max


# -- success --------------------------------------------------------------------


def on_ring(robot, ospace, band, angle):
    """success_instant of one robot under one OSpace."""
    return bool(success_instant(np.array(robot.position), np.array(robot.heading),
                                np.array(ospace.center), np.array(ospace.radius),
                                band, angle))


def test_success_instant_geometry():
    ospace = OSpace(Vec2(5.0, 5.0), 1.0)
    on_ring_facing = AgentState(0, Role.ROBOT, Vec2(5.0, 4.0),
                                Vec2(0.0, 0.0), math.pi / 2.0)
    assert on_ring(on_ring_facing, ospace, 0.3, math.pi / 6.0)
    facing_away = replace(on_ring_facing, heading=-math.pi / 2.0)
    assert not on_ring(facing_away, ospace, 0.3, math.pi / 6.0)
    off_ring = replace(on_ring_facing, position=Vec2(5.0, 2.0))
    assert not on_ring(off_ring, ospace, 0.3, math.pi / 6.0)
    inside = replace(on_ring_facing, position=Vec2(5.0, 4.95))
    assert not on_ring(inside, ospace, 0.3, math.pi / 6.0)


def _move_robot(env, pos, vel=None, heading=None):
    """Put lane 0's robot somewhere else, then refresh the field the env
    keeps for the current state."""
    env.pos[0, 0] = pos
    if vel is not None:
        env.vel[0, 0] = vel
    if heading is not None:
        env.heading[0, 0] = heading
    env.field = field_at(env.pos, neighbours_of(env.pos), env.prox,
                         env.center, env.radius)


def _teleport_robot_to_ring(env):
    center = Vec2(*env.center[0].tolist())
    pos = Vec2(center.x, center.y - float(env.radius[0]))
    _move_robot(env, pos, (0.0, 0.0), (center - pos).heading())


def test_success_requires_consecutive_hold():
    env = fresh_env(success_hold=3)
    env.reset([11])
    _teleport_robot_to_ring(env)
    steps = 0
    done = False
    while not done:
        _, (done,), bd = env.step(act(0.0, 0.0))
        steps += 1
    assert env.success[0]
    assert steps == 3
    assert bd.r4[0] == env.episode.weights.success_bonus


def test_hold_counter_resets_on_bad_step():
    env = fresh_env(success_hold=4)
    env.reset([11])
    _teleport_robot_to_ring(env)
    env.step(act(0.0, 0.0))
    env.step(act(0.0, 0.0))
    assert env.hold[0] == 2
    # yank the robot off the ring for one step
    _move_robot(env, (1.0, 1.0))
    env.step(act(0.0, 0.0))
    assert env.hold[0] == 0
    assert not env.success[0]


# -- observation encoding ----------------------------------------------------------


def encode(agents, world):
    """The observation of one lane holding these agents."""
    return encode_observation(*as_arrays(agents), world)[0]


def test_sha_ahead_encodes_to_unit_x():
    world = WorldConfig()
    for heading in (0.0, 1.1, -2.4):
        robot = AgentState(0, Role.ROBOT, Vec2(5.0, 5.0), Vec2(0.0, 0.0), heading)
        ahead = Vec2(5.0 + math.cos(heading), 5.0 + math.sin(heading))
        sha = AgentState(1, Role.SHA, ahead, Vec2(0.0, 0.0), 0.0)
        obs = encode([robot, sha], world)
        assert abs(obs[6] - 1.0) < 1e-12   # SHA block x
        assert abs(obs[7]) < 1e-12         # SHA block y


def test_robot_block_is_origin_and_identity_heading():
    world = WorldConfig()
    robot = AgentState(0, Role.ROBOT, Vec2(2.0, 7.0), Vec2(0.3, -0.2), 0.9)
    sha = AgentState(1, Role.SHA, Vec2(3.0, 7.0), Vec2(0.0, 0.0), 0.0)
    obs = encode([robot, sha], world)
    assert obs[0] == 0.0 and obs[1] == 0.0
    assert abs(obs[4] - 1.0) < 1e-15 and abs(obs[5]) < 1e-15
    # velocity is the world velocity rotated into the ego frame
    expect = robot.velocity.rotated(-robot.heading)
    assert abs(obs[2] - expect.x) < 1e-12
    assert abs(obs[3] - expect.y) < 1e-12


def test_rigid_world_rotation_leaves_ego_blocks_unchanged():
    world = WorldConfig()
    rng = np.random.default_rng(14)
    center = Vec2(5.0, 5.0)
    for _ in range(25):
        agents = [AgentState(i, Role.ROBOT if i == 0 else Role.SHA,
                             Vec2(*rng.uniform(2.0, 8.0, 2)),
                             Vec2(*rng.uniform(-0.5, 0.5, 2)),
                             float(rng.uniform(-math.pi, math.pi)))
                  for i in range(3)]
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        rotated = [replace(a,
                           position=(a.position - center).rotated(ang) + center,
                           velocity=a.velocity.rotated(ang),
                           heading=wrap_angle(a.heading + ang))
                   for a in agents]
        o1 = encode(agents, world)
        o2 = encode(rotated, world)
        np.testing.assert_allclose(o1[:-4], o2[:-4], atol=1e-9)


# -- replay and offline recompute ----------------------------------------------------


class ReplayPolicy:
    """Plays a fixed action list, one action per tick."""

    def __init__(self, actions):
        self.actions = actions

    def begin_episode(self, seeds) -> None:
        self._next = iter(self.actions)

    def act(self, env):
        return np.array([next(self._next)])


def test_replay_reproduces_log_bit_exactly():
    rng = np.random.default_rng(2)
    actions = [[float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
               for _ in range(default_config().episode.max_steps)]
    (res1,) = rollout(fresh_env(), ReplayPolicy(actions), [[7, 3]], record=True)
    records = episode_records(res1.track, res1.success)
    log1 = [json.dumps(rec) for rec in records]
    assert [rec["action"] for rec in records] == actions[:res1.steps]

    (res2,) = rollout(fresh_env(), ReplayPolicy(actions), [[7, 3]], record=True)
    log2 = [json.dumps(rec) for rec in episode_records(res2.track, res2.success)]
    assert log1 == log2


def test_random_policy_rollout_is_deterministic():
    env = fresh_env()
    (r1,) = rollout(env, RandomPolicy(), [[5, 0]])
    (r2,) = rollout(env, RandomPolicy(), [[5, 0]])
    assert r1.ret == r2.ret and r1.steps == r2.steps


def test_r2_bounded_and_r3_exact_over_episode():
    env = fresh_env(max_steps=80)
    env.reset([6])
    rng = np.random.default_rng(1)
    r2_sum = r3_sum = 0.0
    steps = 0
    done = False
    while not done:
        _, (done,), bd = env.step(act(*rng.uniform(-1.0, 1.0, 2)))
        assert bd.r2[0] in (0.0, env.world.dt)
        r2_sum += bd.r2[0]
        r3_sum += bd.r3[0]
        steps += 1
    assert 0.0 <= r2_sum <= steps * env.world.dt + 1e-12
    assert abs(r3_sum - (-steps * env.world.dt)) < 1e-9


def test_episode_config_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"episode": {"max_steps": 5, "success_hold": 10}})
    with pytest.raises(ConfigError):
        config_from_dict({"episode": {"success_band": 0.0}})
    config_from_dict({"episode": {}})
