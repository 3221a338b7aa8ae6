import math

import numpy as np
import pytest

from ssbl.config import default_config
from ssbl.forces import ForceBreakdown, combined_force, estimate_ospace
from ssbl.geometry import AgentState, ProxemicsConfig, Role, Vec2, WorldConfig
from ssbl.groups import DEFAULT_GAINS, field_turn, sha_policy
from ssbl.policies import (OBS_SCALE, NetworkPolicy, PolicyParams,
                           RandomPolicy, SffmPolicy, load_checkpoint,
                           make_policy, param_count, policy_forward,
                           save_checkpoint, sffm_baseline_policy, zero_params)
from ssbl.training import make_env, mlp_forward, rollout


def random_params(layer_sizes, seed=0, scale=0.6):
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, scale, param_count(layer_sizes)).astype(np.float32)
    return PolicyParams(tuple(layer_sizes), flat)


def reference_forward(params, obs):
    """Straightforward loop-based reimplementation used as an oracle."""
    values = [v * OBS_SCALE for v in obs.tolist()]
    flat = params.flat_params.astype(np.float64).tolist()
    idx = 0
    for din, dout in zip(params.layer_sizes[:-1], params.layer_sizes[1:]):
        rows = []
        for _ in range(dout):
            rows.append(flat[idx:idx + din])
            idx += din
        biases = flat[idx:idx + dout]
        idx += dout
        values = [math.tanh(b + sum(w * x for w, x in zip(row, values)))
                  for row, b in zip(rows, biases)]
    return np.array(values)


def test_zero_params_give_zero_action():
    params = zero_params((22, 8, 2))
    out = policy_forward(params, np.ones(22))
    assert np.array_equal(out, np.zeros(2))


def test_outputs_always_bounded():
    params = random_params((10, 16, 2), seed=1, scale=5.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        out = policy_forward(params, rng.uniform(-20.0, 20.0, 10))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_forward_matches_loop_reimplementation():
    """policy_forward agrees with a plain-Python oracle, and bit for bit with
    the batched mlp_forward the trainers use."""
    rng = np.random.default_rng(3)
    for seed in range(10):
        sizes = (22, 64, 64, 2) if seed % 2 else (7, 9, 5, 2)
        params = random_params(sizes, seed=seed)
        obs = rng.uniform(-5.0, 5.0, sizes[0])
        fast = policy_forward(params, obs)
        slow = reference_forward(params, obs)
        np.testing.assert_allclose(fast, slow, atol=1e-12, rtol=0.0)
        batched, _ = mlp_forward(params.flat_params.astype(np.float64), sizes,
                                 obs * OBS_SCALE)
        assert np.array_equal(fast, batched)


def test_dimension_mismatch_raises():
    params = zero_params((22, 8, 2))
    with pytest.raises(ValueError):
        policy_forward(params, np.zeros(21))


def test_param_count_validation():
    with pytest.raises(ValueError):
        PolicyParams((4, 3, 2), np.zeros(5, np.float32))
    with pytest.raises(ValueError):
        PolicyParams((4, 3, 2), np.full(param_count((4, 3, 2)), np.nan,
                                        np.float32))


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    params = random_params((22, 64, 64, 2), seed=11)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path, config_hash="abc123", seed=99)
    loaded, meta = load_checkpoint(path)
    assert loaded.layer_sizes == params.layer_sizes
    assert meta == {"config_hash": "abc123", "seed": 99}
    assert np.array_equal(loaded.flat_params, params.flat_params)
    obs = np.random.default_rng(4).uniform(-3.0, 3.0, 22)
    out_a = policy_forward(params, obs)
    out_b = policy_forward(loaded, obs)
    assert np.array_equal(out_a, out_b)
    # saving the loaded params reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2, config_hash="abc123", seed=99)
    assert path.read_bytes() == path2.read_bytes()


# -- force-field baseline ------------------------------------------------------


def robot_at(heading=0.0):
    return AgentState(0, Role.ROBOT, Vec2(5.0, 5.0), Vec2(0.0, 0.0), heading)


def breakdown(combined=Vec2(0.0, 0.0), d_e=Vec2(0.0, 0.0), d_c=Vec2(0.0, 0.0)):
    return ForceBreakdown(repulsion=Vec2(0.0, 0.0), equality=Vec2(0.0, 0.0),
                          cohesion=Vec2(0.0, 0.0), d_e=d_e, d_c=d_c,
                          combined=combined)


def test_baseline_aligned_force_drives_forward():
    bd = breakdown(combined=Vec2(0.5, 0.0), d_e=Vec2(1.0, 0.0),
                   d_c=Vec2(1.0, 0.0))
    action = sffm_baseline_policy(robot_at(heading=0.0), bd)
    assert action.a_fwd > 0.0
    assert abs(action.a_turn) < 1e-12


def test_baseline_zero_breakdown_is_idle():
    action = sffm_baseline_policy(robot_at(), breakdown())
    assert action.a_fwd == 0.0 and action.a_turn == 0.0


def test_baseline_outputs_clamped():
    bd = breakdown(combined=Vec2(50.0, 0.0), d_e=Vec2(0.0, 1.0))
    action = sffm_baseline_policy(robot_at(), bd)
    assert -1.0 <= action.a_fwd <= 1.0
    assert -1.0 <= action.a_turn <= 1.0


def test_sha_and_baseline_turn_through_one_controller():
    """The SHA turn rate and the baseline's a_turn are field_turn of the same
    breakdown and heading, clipped to omega_max and to 1."""
    world, prox = WorldConfig(), ProxemicsConfig()
    rng = np.random.default_rng(8)
    clipped = unclipped = 0
    for _ in range(200):
        agents = [AgentState(i, Role.SHA, Vec2(*rng.uniform(3.0, 7.0, 2)),
                             Vec2(0.0, 0.0), rng.uniform(-math.pi, math.pi))
                  for i in (1, 2, 3)]
        ospace = estimate_ospace(agents, prox.s_min)
        sha = agents[0]
        bd = combined_force(sha.position, agents[1:], prox, ospace)
        _, turn = sha_policy(sha, agents, prox, ospace, world)
        assert turn == field_turn(bd, sha.heading, DEFAULT_GAINS,
                                  world.omega_max)
        a_turn = sffm_baseline_policy(robot_at(sha.heading), bd).a_turn
        assert a_turn == field_turn(bd, sha.heading, DEFAULT_GAINS, 1.0)
        clipped += abs(turn) == world.omega_max and abs(a_turn) == 1.0
        unclipped += abs(turn) < 1.0 and turn == a_turn
    assert clipped > 0 and unclipped > 0


def test_baseline_joins_dyad():
    env = make_env(default_config().validate())
    joined = 0
    for seed in range(20):
        res = rollout(env, SffmPolicy(), [100, seed])
        joined += res.success
    assert joined >= 18


# -- random policy --------------------------------------------------------------


def test_random_policy_is_seeded_per_episode():
    env = make_env(default_config().validate())
    a = rollout(env, RandomPolicy(), [1, 2])
    b = rollout(env, RandomPolicy(), [1, 2])
    c = rollout(env, RandomPolicy(), [1, 3])
    assert a.ret == b.ret
    assert a.ret != c.ret


def test_random_policy_outputs_in_range():
    pol = RandomPolicy()
    pol.begin_episode([0, 0])
    for _ in range(100):
        act = pol.act(None, None)
        assert -1.0 <= act.a_fwd <= 1.0
        assert -1.0 <= act.a_turn <= 1.0


def test_make_policy_dispatch(tmp_path):
    assert isinstance(make_policy("sffm"), SffmPolicy)
    assert isinstance(make_policy("random"), RandomPolicy)
    params = zero_params((22, 4, 2))
    path = tmp_path / "p.json"
    save_checkpoint(params, path)
    assert isinstance(make_policy(str(path)), NetworkPolicy)
    with pytest.raises(OSError):
        make_policy(str(tmp_path / "missing.json"))
