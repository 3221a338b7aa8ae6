import logging
import math

import numpy as np
import pytest

import ssbl.env
from conftest import batch_actions, point_field, stub_env
from ssbl.config import ConfigError, config_hash, default_config
from ssbl.forces import estimate_ospace
from ssbl.geometry import AgentState, ProxemicsConfig, Role, Vec2, WorldConfig
from ssbl.groups import DEFAULT_GAINS, field_turn, sha_commands
from ssbl.policies import (OBS_SCALE, NetworkPolicy, PolicyParams,
                           RandomPolicy, SffmPolicy, load_checkpoint,
                           make_policy, param_count,
                           save_checkpoint, sffm_baseline_policy, zero_params)
from ssbl.training import make_env, mlp_forward, rollout


def random_params(layer_sizes, seed=0, scale=0.6):
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, scale, param_count(layer_sizes)).astype(np.float32)
    return PolicyParams(tuple(layer_sizes), flat)


def policy_forward(params, obs):
    """One observation through NetworkPolicy's batched forward."""
    return batch_actions(NetworkPolicy(params), obs[None])[0]


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
    """The policy forward agrees with a plain-Python oracle and with the
    mlp_forward the trainers use, and bit for bit with the same row inside
    a batch."""
    rng = np.random.default_rng(3)
    for seed in range(10):
        sizes = (22, 64, 64, 2) if seed % 2 else (7, 9, 5, 2)
        params = random_params(sizes, seed=seed)
        obs = rng.uniform(-5.0, 5.0, sizes[0])
        fast = policy_forward(params, obs)
        slow = reference_forward(params, obs)
        np.testing.assert_allclose(fast, slow, atol=1e-12, rtol=0.0)
        trainer, _ = mlp_forward(params.flat_params.astype(np.float64), sizes,
                                 obs * OBS_SCALE)
        np.testing.assert_allclose(fast, trainer, atol=1e-12, rtol=0.0)
        batch = np.vstack([rng.uniform(-5.0, 5.0, (3, sizes[0])), obs])
        batched = batch_actions(NetworkPolicy(params), batch)
        assert np.array_equal(fast, batched[3])


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
    for sizes in ((4.0, 3.0, 2.0), (4, True, 2)):   # a JSON float or bool size
        with pytest.raises(ValueError, match="each an integer"):
            PolicyParams(sizes, np.zeros(int(param_count(sizes)), np.float32))


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


def baseline(heading=0.0, combined=(0.0, 0.0), d_e=(0.0, 0.0), d_c=(0.0, 0.0)):
    """sffm_baseline_policy of one robot: (a_fwd, a_turn)."""
    a_fwd, a_turn = sffm_baseline_policy(np.array([heading]), np.array([combined]),
                                         np.array([d_e]), np.array([d_c]))[0]
    return a_fwd, a_turn


def test_baseline_aligned_force_drives_forward():
    a_fwd, a_turn = baseline(heading=0.0, combined=(0.5, 0.0), d_e=(1.0, 0.0),
                             d_c=(1.0, 0.0))
    assert a_fwd > 0.0
    assert abs(a_turn) < 1e-12


def test_baseline_zero_breakdown_is_idle():
    a_fwd, a_turn = baseline()
    assert a_fwd == 0.0 and a_turn == 0.0


def test_baseline_outputs_clamped():
    a_fwd, a_turn = baseline(combined=(50.0, 0.0), d_e=(0.0, 1.0))
    assert -1.0 <= a_fwd <= 1.0
    assert -1.0 <= a_turn <= 1.0


def test_sha_and_baseline_turn_through_one_controller():
    """The SHA turn rate and the baseline's a_turn are field_turn of the same
    field and heading, clipped to omega_max and to 1."""
    world, prox = WorldConfig(), ProxemicsConfig()
    rng = np.random.default_rng(8)
    clipped = unclipped = 0
    for _ in range(200):
        agents = [AgentState(i, Role.SHA, Vec2(*rng.uniform(3.0, 7.0, 2)),
                             Vec2(0.0, 0.0), rng.uniform(-math.pi, math.pi))
                  for i in (1, 2, 3)]
        ospace = estimate_ospace(agents, prox.s_min)
        sha = agents[0]
        f = point_field(sha.position, agents[1:], prox, ospace)
        heading = np.array([sha.heading])
        turn = sha_commands(f.combined, f.d_e, f.d_c, heading, world)[1][0]
        assert turn == field_turn(f.d_e, f.d_c, heading, DEFAULT_GAINS,
                                  world.omega_max)[0]
        a_turn = sffm_baseline_policy(heading, f.combined, f.d_e, f.d_c)[0, 1]
        assert a_turn == field_turn(f.d_e, f.d_c, heading, DEFAULT_GAINS, 1.0)[0]
        clipped += abs(turn) == world.omega_max and abs(a_turn) == 1.0
        unclipped += abs(turn) < 1.0 and turn == a_turn
    assert clipped > 0 and unclipped > 0


def test_baseline_joins_dyad():
    env = make_env(default_config().validate())
    results = rollout(env, SffmPolicy(), [[100, seed] for seed in range(20)])
    joined = sum(res.success for res in results)
    assert joined >= 18


# -- random policy --------------------------------------------------------------


def test_random_policy_is_seeded_per_episode():
    env = make_env(default_config().validate())
    a, b, c = rollout(env, RandomPolicy(), [[1, 2], [1, 2], [1, 3]])
    assert a.ret == b.ret
    assert a.ret != c.ret


@pytest.mark.parametrize("make, per_tick", [
    (SffmPolicy, 0), (RandomPolicy, 0),
    (lambda: NetworkPolicy(random_params((22, 8, 2))), 1)])
def test_observations_are_encoded_only_for_a_policy_that_reads_them(
        monkeypatch, make, per_tick):
    """A rollout encodes the batch's observations once per tick for the
    network and never for sffm or random."""
    calls = []
    encode = ssbl.env.encode_observation
    monkeypatch.setattr(ssbl.env, "encode_observation",
                        lambda *args: calls.append(len(args[0])) or encode(*args))
    env = make_env(default_config().validate())
    results = rollout(env, make(), [[2, i] for i in range(6)])
    ticks = max(r.steps for r in results)
    assert len(calls) == per_tick * ticks
    # the held lanes of each tick, every one encoded once
    assert sum(calls) == per_tick * sum(r.steps for r in results)


def test_random_policy_outputs_in_range():
    pol = RandomPolicy()
    pol.begin_episode([[0, 0]])
    for t in range(100):
        (a_fwd, a_turn), = pol.act(stub_env(1, t))
        assert -1.0 <= a_fwd <= 1.0
        assert -1.0 <= a_turn <= 1.0


def test_make_policy_dispatch(tmp_path, caplog):
    cfg = default_config().validate()
    assert isinstance(make_policy("sffm", cfg), SffmPolicy)
    assert isinstance(make_policy("random"), RandomPolicy)
    params = zero_params((22, 4, 2))
    path = tmp_path / "p.json"
    save_checkpoint(params, path)
    with caplog.at_level(logging.WARNING):
        assert isinstance(make_policy(str(path), cfg), NetworkPolicy)
        save_checkpoint(params, path, config_hash=config_hash(cfg))
        make_policy(str(path), cfg)
    assert caplog.records == []    # no hash, or the run's own hash
    save_checkpoint(params, path, config_hash="0123456789abcdef")
    with caplog.at_level(logging.WARNING):
        assert isinstance(make_policy(str(path), cfg), NetworkPolicy)
    assert len(caplog.records) == 1
    assert "0123456789abcdef" in caplog.text
    make_policy(str(path))           # checked against the default config
    cfg.spawn.n_shas = 3
    with pytest.raises(ConfigError, match="input width 22"):
        make_policy(str(path), cfg)
    with pytest.raises(OSError):
        make_policy(str(tmp_path / "missing.json"), cfg)
