import json

import numpy as np
import pytest

from ssbl import training
from ssbl.config import default_config
from ssbl.policies import (OBS_SCALE, SffmPolicy, param_count, save_checkpoint,
                           unpack_layers)
from ssbl.training import (Adam, MinibatchFit, _GaussianPolicy, _init_mlp,
                           compute_gae, distill_baseline, ewma, gaussian_logp,
                           make_env, mlp_forward,
                           ppo_gradient_check, ppo_policy_gradient,
                           ppo_surrogate, relative_performance, rollout, train,
                           train_cem, train_ppo)


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


def test_gradient_check_catches_a_fault_in_the_training_fit(monkeypatch):
    """The gate checks the backward pass that PPO trains with: a 1 % error
    in the fit's network gradient must fail it."""
    backward = MinibatchFit.backward

    def faulty(self):
        backward(self)
        self.grad[:-2] *= 1.01

    monkeypatch.setattr(MinibatchFit, "backward", faulty)
    assert ppo_gradient_check(seed=0) >= 1e-4


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


def test_behaviour_policy_does_not_see_later_updates_of_the_trainer():
    """PPO's behaviour policy is built from views into the trainer's packed
    buffer, which Adam then updates in place: the policy must keep the
    weights it was built with."""
    sizes = (22, 64, 64, 2)
    rng = np.random.default_rng(11)
    fit = MinibatchFit(np.concatenate([_init_mlp(rng, sizes), np.full(2, -0.5)]),
                       sizes, lr=1e-2, batch=64)
    flat, log_std = fit.flat, fit.params[-2:]
    obs = rng.normal(0.0, 3.0, (4, 22))

    def actions(policy):
        policy.begin_episode(range(4))
        return policy.act(obs, None).tobytes()

    def behaviour():
        return _GaussianPolicy(flat, sizes, log_std, [[9, k] for k in range(4)])

    policy = behaviour()
    before = actions(policy)
    assert Adam(fit.params.size, 1e-2).step(
        fit.params, rng.normal(size=fit.params.size)) is fit.params
    assert actions(policy) == before
    assert actions(behaviour()) != before     # the buffer did change


# -- the in-place fit against the allocating code it replaced ---------------------


def reference_backward(flat, layer_sizes, acts, dout, squash_output=True):
    """mlp_backward as it was: a zeroed gradient, accumulated into."""
    layers = unpack_layers(flat, layer_sizes)
    grad = np.zeros_like(flat)
    glayers = unpack_layers(grad, layer_sizes)
    g = dout
    last = len(layers) - 1
    for li in range(last, -1, -1):
        w, _ = layers[li]
        gw, gb = glayers[li]
        if li < last or squash_output:
            g = g * (1.0 - acts[li + 1] ** 2)
        gw += g.T @ acts[li]
        gb += g.sum(axis=0)
        if li:
            g = g @ w
    return grad


class ReferenceAdam:
    """Adam.step as it was: new moment and parameter arrays every step."""

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grad):
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1.0 - 0.9 ** self.t)
        vhat = self.v / (1.0 - 0.999 ** self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + 1e-8)


def reference_distill(layer_sizes, cfg, master_seed):
    """distill_baseline as it was, on the same data; also returns the row
    count."""
    results = rollout(make_env(cfg), SffmPolicy(),
                      [[master_seed, 6, i] for i in range(training.DISTILL_EPISODES)],
                      record=True)
    X = np.concatenate([r.observations(cfg.world) for r in results]) * OBS_SCALE
    Y = np.concatenate([r.track["action"] for r in results])
    rng = np.random.default_rng([master_seed, 7])
    flat = _init_mlp(rng, layer_sizes)
    opt = ReferenceAdam(flat.size, training.DISTILL_LR)
    n, batch = X.shape[0], training.DISTILL_BATCH
    for epoch in range(training.DISTILL_EPOCHS):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            out, acts = mlp_forward(flat, layer_sizes, X[idx])
            dout = 2.0 * (out - Y[idx]) / idx.size
            flat = opt.step(flat, reference_backward(flat, layer_sizes, acts, dout))
    return flat, n


def check_distill_matches_reference(cfg, seed):
    sizes = (22, *cfg.train.hidden_sizes, 2)
    expected, rows = reference_distill(sizes, cfg, seed)
    assert rows % training.DISTILL_BATCH, "the last minibatch should be partial"
    assert distill_baseline(sizes, cfg, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [2, 4])
def test_distill_matches_the_allocating_fit(seed):
    check_distill_matches_reference(tiny_config(), seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [2, 4])
def test_distill_matches_the_allocating_fit_at_the_standard_net(seed):
    cfg = default_config().validate()
    assert tuple(cfg.train.hidden_sizes) == (64, 64)
    check_distill_matches_reference(cfg, seed)


def test_adam_in_place_matches_the_allocating_formula():
    rng = np.random.default_rng(3)
    n = 96
    params = rng.normal(0.0, 0.5, n)
    params[:6] = -0.0
    expected = params.copy()
    opt, ref = Adam(n, 3e-3), ReferenceAdam(n, 3e-3)
    for step in range(30):
        g = rng.normal(0.0, 1.0, n)
        g[rng.random(n) < 0.2] = 0.0
        g[rng.random(n) < 0.2] = -0.0
        if step % 4 == 0:
            g[:24] = -0.0        # stretches that stay zero for a while
        assert opt.step(params, g) is params
        expected = ref.step(expected, g)
        assert params.tobytes() == expected.tobytes(), step
        assert opt.m.tobytes() == ref.m.tobytes()
        assert opt.v.tobytes() == ref.v.tobytes()


def test_backward_into_a_reused_buffer_matches_a_fresh_one():
    """Minibatches of 256 rows and of several shorter remainders, through the
    fit's one set of buffers, against a fresh fit made at each row count:
    stale rows or stale gradient entries would change the bytes."""
    sizes = (22, 64, 64, 2)
    rng = np.random.default_rng(5)
    flat = _init_mlp(rng, sizes)
    X = rng.normal(0.0, 0.5, (700, 22))
    Y = rng.uniform(-1.0, 1.0, (700, 2))
    fit = MinibatchFit(flat.copy(), sizes, lr=1e-3, batch=256)
    buffers = fit._acts + fit._deltas
    for rows in (256, 100, 256, 10, 29, 255, 1, 256):
        idx = rng.permutation(700)[:rows]
        out, acts = mlp_forward(flat, sizes, X[idx])
        dout = 2.0 * (out - Y[idx]) / rows
        fresh = MinibatchFit(flat.copy(), sizes, lr=1e-3, batch=rows)
        fresh_out, fresh_dout = fresh.forward(X, idx)
        assert fresh_out.tobytes() == out.tobytes()
        fresh_dout[...] = dout
        fresh.backward()
        # equal to the old accumulated gradient, up to the sign of zero
        np.testing.assert_array_equal(fresh.grad,
                                      reference_backward(flat, sizes, acts, dout))

        fit_out, fit_dout = fit.forward(X, idx)
        assert fit_out.tobytes() == out.tobytes()
        fit_dout[...] = dout
        fit.backward()
        assert fit.grad.tobytes() == fresh.grad.tobytes()
        # every minibatch size runs in the buffers made at construction
        assert all(a is b for a, b in zip(fit._acts + fit._deltas, buffers))
        assert all(b.shape[0] == 256 for b in buffers)
        assert np.shares_memory(fit_out, buffers[len(sizes) - 1])
        assert np.shares_memory(fit_dout, buffers[-1])


def test_forward_without_buffers_returns_new_arrays():
    sizes = (22, 64, 64, 2)
    rng = np.random.default_rng(6)
    flat = _init_mlp(rng, sizes)
    X = rng.normal(0.0, 0.5, (32, 22))
    out1, acts1 = mlp_forward(flat, sizes, X)
    out2, acts2 = mlp_forward(flat, sizes, X)
    assert out1.tobytes() == out2.tobytes()
    assert not np.shares_memory(out1, out2)
    for a, b in zip(acts1[1:], acts2[1:]):
        assert not np.shares_memory(a, b)
