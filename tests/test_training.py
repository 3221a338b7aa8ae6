import json

import numpy as np
import pytest

from ssbl.config import default_config
from ssbl.policies import param_count, save_checkpoint
from ssbl.training import (Adam, compute_gae, distill_baseline, ewma,
                           gaussian_logp, mlp_forward, ppo_gradient_check,
                           ppo_policy_gradient, ppo_surrogate,
                           relative_performance, train, train_cem, train_ppo)


def tiny_config(algo="cem"):
    cfg = default_config()
    cfg.episode.max_steps = 60
    cfg.train.algo = algo
    cfg.train.hidden_sizes = (8,)
    cfg.train.population = 4
    cfg.train.iterations = 2
    cfg.train.episodes_per_eval = 1
    cfg.train.eval_episodes = 2
    cfg.train.rollout_episodes = 2
    cfg.train.epochs = 1
    cfg.train.warm_start = False
    return cfg.validate()


# -- relative performance ---------------------------------------------------------


def test_relative_performance_endpoints():
    assert relative_performance(-0.256, -0.256, -1.684) == 100.0
    assert relative_performance(-1.684, -0.256, -1.684) == 0.0


def test_relative_performance_midpoint():
    assert relative_performance(0.5, 1.0, 0.0) == 50.0
    assert relative_performance(-1.0, 1.0, 0.0) == -100.0


def test_relative_performance_degenerate_anchors():
    with pytest.raises(ValueError):
        relative_performance(0.3, 1.0, 1.0)


# -- ewma --------------------------------------------------------------------------


def test_ewma_smoothing():
    assert ewma([]) == []
    assert ewma([2.0]) == [2.0]
    out = ewma([0.0, 1.0, 1.0], alpha=0.5)
    assert out == [0.0, 0.5, 0.75]


# -- CEM ---------------------------------------------------------------------------


def test_cem_zero_iterations_returns_initial_mean():
    cfg = tiny_config()
    cfg.train.iterations = 0
    params, report = train_cem(cfg.train, cfg)
    assert np.array_equal(params.flat_params,
                          np.zeros(param_count(params.layer_sizes), np.float32))
    assert report.iterations == []


def test_cem_warm_start_mean_is_the_distilled_baseline():
    cfg = tiny_config()
    cfg.train.warm_start = True
    cfg.train.iterations = 0
    params, _ = train_cem(cfg.train, cfg)
    flat = distill_baseline(params.layer_sizes, cfg, cfg.train.master_seed)
    assert np.array_equal(params.flat_params, flat.astype(np.float32))


def test_cem_is_deterministic(tmp_path):
    cfg = tiny_config()
    outs = []
    for run in range(2):
        params, report = train_cem(cfg.train, cfg)
        path = tmp_path / f"ckpt{run}.json"
        save_checkpoint(params, path, config_hash="h", seed=cfg.train.master_seed)
        doc = report.to_dict()
        doc.pop("wall_clock_s")
        outs.append((path.read_bytes(), json.dumps(doc, sort_keys=True)))
    assert outs[0] == outs[1]


def test_cem_report_shape():
    cfg = tiny_config()
    params, report = train_cem(cfg.train, cfg)
    assert len(report.iterations) == 2
    for it in report.iterations:
        assert {"iteration", "mean_return", "max_return", "elite_mean",
                "elite_mean_smoothed"} <= set(it)
    assert report.eval_episodes == 2
    assert np.isfinite(report.relative_percent)
    assert params.layer_sizes == (22, 8, 2)


def test_train_dispatch_rejects_unknown_algo():
    cfg = tiny_config()
    cfg.train.algo = "sgd"
    with pytest.raises(ValueError):
        train(cfg.train, cfg)


# -- GAE ---------------------------------------------------------------------------


def test_gae_hand_case():
    rewards = np.array([1.0, 1.0])
    values = np.array([0.5, 0.4, 0.0])
    adv, targets = compute_gae(rewards, values, gamma=0.9, lam=0.8)
    d0 = 1.0 + 0.9 * 0.4 - 0.5
    d1 = 1.0 + 0.0 - 0.4
    assert abs(adv[1] - d1) < 1e-15
    assert abs(adv[0] - (d0 + 0.9 * 0.8 * d1)) < 1e-15
    np.testing.assert_allclose(targets, adv + values[:2])


def test_gae_truncation_bootstraps_the_final_value():
    # an episode cut at the horizon: the trailing value is V(s_T), not 0
    rewards = np.array([1.0, 1.0])
    values = np.array([0.5, 0.4, 0.3])
    adv, targets = compute_gae(rewards, values, gamma=0.9, lam=0.8)
    d0 = 1.0 + 0.9 * 0.4 - 0.5
    d1 = 1.0 + 0.9 * 0.3 - 0.4
    assert abs(adv[1] - d1) < 1e-15
    assert abs(adv[0] - (d0 + 0.9 * 0.8 * d1)) < 1e-15
    np.testing.assert_allclose(targets, adv + values[:2])


def test_gae_zero_lambda_is_td_error():
    rewards = np.array([0.5, -0.25, 2.0])
    values = np.array([1.0, 0.3, -0.2, 0.0])
    adv, _ = compute_gae(rewards, values, gamma=0.95, lam=0.0)
    expected = rewards + 0.95 * values[1:] - values[:-1]
    np.testing.assert_allclose(adv, expected)


# -- PPO objective and gradients ----------------------------------------------------


def random_batch(seed=0, n=32):
    rng = np.random.default_rng(seed)
    logp_new = rng.normal(-2.0, 0.5, n)
    logp_old = logp_new + rng.normal(0.0, 0.2, n)
    adv = rng.standard_normal(n)
    return logp_new, logp_old, adv


def test_infinite_clip_degenerates_to_unclipped():
    logp_new, logp_old, adv = random_batch()
    ratio = np.exp(logp_new - logp_old)
    unclipped = float(np.mean(ratio * adv))
    assert abs(ppo_surrogate(logp_new, logp_old, adv, 1e12) - unclipped) < 1e-12
    # and a tight clip does change the objective
    assert abs(ppo_surrogate(logp_new, logp_old, adv, 0.01) - unclipped) > 1e-6


def test_ppo_gradient_check_passes():
    assert ppo_gradient_check(seed=0) < 1e-4


def test_zero_advantage_batch_gives_zero_update():
    rng = np.random.default_rng(7)
    layer_sizes = (5, 6, 2)
    flat = rng.normal(0.0, 0.3, param_count(layer_sizes))
    log_std = np.array([-0.5, -0.7])
    obs = rng.normal(0.0, 1.0, (16, 5))
    mean, _ = mlp_forward(flat, layer_sizes, obs * 0.1)
    act = mean + 0.2 * rng.standard_normal((16, 2))
    logp_old = gaussian_logp(act, mean, log_std)

    loss, g_flat, g_std = ppo_policy_gradient(
        flat, log_std, layer_sizes, obs, act, logp_old,
        np.zeros(16), clip_ratio=0.2)
    assert loss == 0.0
    assert np.array_equal(g_flat, np.zeros_like(flat))
    assert np.array_equal(g_std, np.zeros(2))

    opt = Adam(flat.size, lr=1e-3)
    updated = opt.step(flat.copy(), g_flat)
    np.testing.assert_array_equal(updated, flat)


def test_gaussian_logp_matches_scipy_free_formula():
    rng = np.random.default_rng(8)
    act = rng.normal(0.0, 1.0, (4, 2))
    mean = rng.normal(0.0, 1.0, (4, 2))
    log_std = np.array([0.1, -0.3])
    lp = gaussian_logp(act, mean, log_std)
    std = np.exp(log_std)
    ref = (-0.5 * ((act - mean) / std) ** 2 - np.log(std)
           - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    np.testing.assert_allclose(lp, ref, atol=1e-12)


def test_ppo_smoke_train_runs_and_is_deterministic():
    cfg = tiny_config(algo="ppo")
    cfg.train.iterations = 1
    p1, r1 = train_ppo(cfg.train, cfg)
    p2, r2 = train_ppo(cfg.train, cfg)
    assert np.array_equal(p1.flat_params, p2.flat_params)
    assert len(r1.iterations) == 1
    assert np.isfinite(r1.final_return)
