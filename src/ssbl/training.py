"""Policy optimization: cross-entropy method (default) and PPO-clip with
hand-rolled backprop, plus rollout/evaluation utilities and the
relative-performance normalization used in reports.

Seed streams are derived from the master seed so that training, evaluation
and exploration never share randomness:

  [master, 1, iteration, episode]   CEM training episodes
  [master, 2, index]                held-out evaluation episodes
  [master, 3, iteration, episode]   PPO rollout episodes
  [master, 4, iteration, episode]   PPO exploration noise
  [master, 5, iteration, epoch]     PPO minibatch shuffling
  [master, 6, episode]              baseline-imitation episodes (warm start)
  [master, 7]                       imitation fitting (init and shuffling)
  [master, 10]                      CEM parameter sampling
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import FullConfig, TrainConfig
from .env import Action, ApproachEnv, observation_length
from .fdcheck import central_diff_grad, max_rel_err
from .policies import (OBS_SCALE, NetworkPolicy, PolicyParams, RandomPolicy,
                       SffmPolicy, mlp_forward, param_count, unpack_layers)

log = logging.getLogger(__name__)


class GradientCheckError(RuntimeError):
    """Analytic gradients disagree with finite differences."""


def make_env(cfg: FullConfig) -> ApproachEnv:
    return ApproachEnv(cfg.world, cfg.proxemics, cfg.episode, cfg.sha_gains)


# -- rollouts and evaluation --------------------------------------------------


@dataclass(slots=True)
class RolloutResult:
    seed: object
    ret: float
    steps: int
    success: bool
    initial_agents: list = field(default_factory=list)
    transitions: list = field(default_factory=list)


def rollout(env: ApproachEnv, policy, seed, record: bool = False) -> RolloutResult:
    env.record = record
    obs = env.reset(seed)
    policy.begin_episode(seed)
    ret = 0.0
    steps = 0
    while True:
        action = policy.act(obs, env)
        obs, r, done, _ = env.step(action)
        ret += r
        steps += 1
        if done:
            break
    env.record = False
    return RolloutResult(seed=seed, ret=ret, steps=steps, success=env.success,
                         initial_agents=env.initial_agents,
                         transitions=env.episode_log if record else [])


def eval_seeds(master_seed: int, n: int) -> list[list[int]]:
    """Held-out evaluation seed material, disjoint from training streams."""
    return [[int(master_seed), 2, i] for i in range(n)]


def evaluate_policy(env: ApproachEnv, policy, seeds,
                    record: bool = False) -> list[RolloutResult]:
    return [rollout(env, policy, s, record=record) for s in seeds]


def mean_return(results: list[RolloutResult]) -> float:
    return float(np.mean([r.ret for r in results]))


def relative_performance(r_model: float, r_baseline: float,
                         r_random: float) -> float:
    """Percent scale on which the random anchor is 0% and the baseline 100%."""
    denom = r_baseline - r_random
    if abs(denom) < 1e-12:
        raise ValueError("degenerate anchors: baseline and random returns equal")
    return 100.0 * ((r_model - r_random) / denom)


def ewma(values, alpha: float = 0.1) -> list[float]:
    """Exponentially weighted running average used to smooth learning curves."""
    out: list[float] = []
    s = None
    for v in values:
        s = v if s is None else s + alpha * (v - s)
        out.append(s)
    return out


@dataclass(slots=True)
class TrainReport:
    algo: str
    master_seed: int
    layer_sizes: list[int]
    iterations: list[dict]
    final_return: float
    baseline_return: float
    random_return: float
    relative_percent: float
    eval_episodes: int
    wall_clock_s: float
    curve_nondecreasing_frac: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _nondecreasing_frac(xs: list[float]) -> float:
    if len(xs) < 2:
        return 1.0
    ups = sum(1 for a, b in zip(xs, xs[1:]) if b >= a - 1e-12)
    return ups / (len(xs) - 1)


def _finalize_report(algo, cfg, env, layer_sizes, finalists, iter_log,
                     t_start) -> tuple[PolicyParams, TrainReport]:
    """Pick the finalist with the best held-out return and assemble the
    report with baseline/random anchors on the same seeds."""
    seeds = eval_seeds(cfg.master_seed, cfg.eval_episodes)
    scored = []
    for params in finalists:
        results = evaluate_policy(env, NetworkPolicy(params), seeds)
        scored.append((mean_return(results), params))
    best_return, best_params = max(scored, key=lambda rp: rp[0])

    baseline = mean_return(evaluate_policy(env, SffmPolicy(), seeds))
    random_r = mean_return(evaluate_policy(env, RandomPolicy(), seeds))
    rel = relative_performance(best_return, baseline, random_r)

    smooth = ewma([it["elite_mean"] for it in iter_log]) if iter_log else []
    for it, s in zip(iter_log, smooth):
        it["elite_mean_smoothed"] = s

    report = TrainReport(
        algo=algo,
        master_seed=cfg.master_seed,
        layer_sizes=list(layer_sizes),
        iterations=iter_log,
        final_return=best_return,
        baseline_return=baseline,
        random_return=random_r,
        relative_percent=rel,
        eval_episodes=cfg.eval_episodes,
        wall_clock_s=time.perf_counter() - t_start,
        curve_nondecreasing_frac=_nondecreasing_frac(smooth),
    )
    return best_params, report


# -- baseline distillation and the cross-entropy method -------------------------


def distill_baseline(layer_sizes, full_cfg: FullConfig, master_seed: int,
                     episodes: int = 60, epochs: int = 400,
                     batch: int = 256, lr: float = 3e-3) -> np.ndarray:
    """Behavior-clone the force-field baseline into a network (MSE on its
    actions over states it visits). Used to warm-start the policy search so
    refinement begins from a competent, non-intrusive controller instead of
    from scratch."""
    env = make_env(full_cfg)
    policy = SffmPolicy()
    xs, ys = [], []
    for i in range(episodes):
        obs = env.reset([master_seed, 6, i])
        while True:
            action = policy.act(obs, env)
            xs.append(obs)
            ys.append((action.a_fwd, action.a_turn))
            obs, _, done, _ = env.step(action)
            if done:
                break
    X = np.asarray(xs) * OBS_SCALE
    Y = np.asarray(ys)

    rng = np.random.default_rng([master_seed, 7])
    flat = _init_mlp(rng, layer_sizes)
    opt = Adam(flat.size, lr)
    n = X.shape[0]
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            out, acts = mlp_forward(flat, layer_sizes, X[idx])
            dout = 2.0 * (out - Y[idx]) / idx.size
            grad = mlp_backward(flat, layer_sizes, acts, dout)
            flat = opt.step(flat, grad)
    return flat


def train_cem(cfg: TrainConfig, full_cfg: FullConfig) -> tuple[PolicyParams, TrainReport]:
    """Diagonal-Gaussian CEM over flat policy parameters.

    The sampling mean starts from a behavior-cloned baseline controller
    (unless warm_start is off), then each iteration draws a population
    around the running mean, scores every candidate on that iteration's
    shared episode seeds, and refits mean and sigma to the elite fraction
    (plus decaying exploration noise).
    """
    t_start = time.perf_counter()
    env = make_env(full_cfg)
    n_obs = observation_length(full_cfg.episode.spawn.n_shas)
    layer_sizes = (n_obs, *cfg.hidden_sizes, 2)
    n_params = param_count(layer_sizes)

    rng = np.random.default_rng([cfg.master_seed, 10])
    if cfg.warm_start:
        mu = distill_baseline(layer_sizes, full_cfg, cfg.master_seed)
    else:
        mu = np.zeros(n_params)
    sigma = np.full(n_params, cfg.init_noise)

    init_params = PolicyParams(layer_sizes, mu.astype(np.float32))
    best_params = init_params
    best_train_return = -math.inf
    iter_log: list[dict] = []
    n_elite = max(1, int(cfg.population * cfg.elite_fraction))

    for t in range(cfg.iterations):
        noise = rng.standard_normal((cfg.population, n_params))
        thetas = (mu + sigma * noise).astype(np.float32)
        seeds = [[cfg.master_seed, 1, t, e] for e in range(cfg.episodes_per_eval)]

        returns = np.empty(cfg.population)
        for i in range(cfg.population):
            policy = NetworkPolicy(PolicyParams(layer_sizes, thetas[i]))
            rets = [rollout(env, policy, s).ret for s in seeds]
            r = float(np.mean(rets))
            if not math.isfinite(r):
                log.warning("CEM iteration %d: candidate %d returned %r, discarded",
                            t, i, r)
                r = -math.inf
            returns[i] = r

        order = np.argsort(-returns, kind="stable")
        elite = thetas[order[:n_elite]].astype(np.float64)
        mu = elite.mean(axis=0)
        extra = cfg.init_noise * (cfg.noise_decay ** (t + 1))
        sigma = np.sqrt(elite.var(axis=0) + extra * extra)

        if returns[order[0]] > best_train_return:
            best_train_return = float(returns[order[0]])
            best_params = PolicyParams(layer_sizes, thetas[order[0]].copy())

        finite = returns[np.isfinite(returns)]
        iter_log.append({
            "iteration": t,
            "mean_return": float(finite.mean()) if finite.size else float("nan"),
            "max_return": float(returns[order[0]]),
            "elite_mean": float(returns[order[:n_elite]].mean()),
        })

    # the initial mean competes too: refinement must beat its own start on
    # the held-out seeds to displace it
    finalists = [init_params]
    if cfg.iterations > 0:
        finalists.append(PolicyParams(layer_sizes, mu.astype(np.float32)))
        finalists.append(best_params)
    params, report = _finalize_report("cem", cfg, env, layer_sizes, finalists,
                                      iter_log, t_start)
    return params, report


# -- MLP backward for distillation and PPO ------------------------------------


def mlp_backward(flat: np.ndarray, layer_sizes, acts, dout: np.ndarray,
                 squash_output: bool = True) -> np.ndarray:
    """Gradient of sum(output * dout) w.r.t. the flat parameter vector."""
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
        g = g @ w
    return grad


# -- PPO-clip -------------------------------------------------------------------


LOG_2PI = math.log(2.0 * math.pi)


def gaussian_logp(act: np.ndarray, mean: np.ndarray,
                  log_std: np.ndarray) -> np.ndarray:
    std = np.exp(log_std)
    z = (act - mean) / std
    return (-0.5 * z * z - log_std - 0.5 * LOG_2PI).sum(axis=1)


def ppo_surrogate(logp_new: np.ndarray, logp_old: np.ndarray,
                  adv: np.ndarray, clip_ratio: float) -> float:
    """Clipped surrogate objective (to be maximized)."""
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    return float(np.mean(np.minimum(ratio * adv, clipped * adv)))


def ppo_policy_gradient(flat: np.ndarray, log_std: np.ndarray, layer_sizes,
                        obs: np.ndarray, act: np.ndarray,
                        logp_old: np.ndarray, adv: np.ndarray,
                        clip_ratio: float):
    """Loss (negative surrogate) plus its gradients w.r.t. the policy
    parameters and the log-std vector."""
    mean, acts = mlp_forward(flat, layer_sizes, obs * OBS_SCALE)
    logp_new = gaussian_logp(act, mean, log_std)
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    unclipped_term = ratio * adv
    use_unclipped = unclipped_term <= clipped * adv
    loss = -float(np.mean(np.minimum(unclipped_term, clipped * adv)))

    B = obs.shape[0]
    dlogp = np.where(use_unclipped, -unclipped_term / B, 0.0)
    std = np.exp(log_std)
    dmean = dlogp[:, None] * (act - mean) / (std * std)
    grad_flat = mlp_backward(flat, layer_sizes, acts, dmean)
    z2 = ((act - mean) / std) ** 2
    grad_log_std = (dlogp[:, None] * (z2 - 1.0)).sum(axis=0)
    return loss, grad_flat, grad_log_std


def compute_gae(rewards: np.ndarray, values: np.ndarray, gamma: float,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and value targets for one finished episode.

    `values` has one extra trailing entry for the state after the last step;
    it is 0 for terminal episodes by convention here (episodes end either in
    success or at the horizon, both treated as terminal).
    """
    T = rewards.shape[0]
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + gamma * values[t + 1] - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values[:-1]


class Adam:
    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1.0 - 0.9 ** self.t)
        vhat = self.v / (1.0 - 0.999 ** self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + 1e-8)


def ppo_gradient_check(seed: int = 0, trials: int = 5,
                       clip_ratio: float = 0.2) -> float:
    """Max relative error between analytic policy gradients and central
    finite differences on random small nets and batches."""
    rng = np.random.default_rng([seed, 99])
    worst = 0.0
    layer_sizes = (4, 8, 2)
    n = param_count(layer_sizes)
    for _ in range(trials):
        flat = rng.normal(0.0, 0.4, n)
        log_std = rng.normal(-0.5, 0.1, 2)
        obs = rng.normal(0.0, 2.0, (12, 4))
        mean, _ = mlp_forward(flat, layer_sizes, obs * OBS_SCALE)
        act = mean + np.exp(log_std) * rng.standard_normal((12, 2))
        logp_old = gaussian_logp(act, mean, log_std) + rng.normal(0.0, 0.05, 12)
        adv = rng.standard_normal(12)

        _, g_flat, g_std = ppo_policy_gradient(
            flat, log_std, layer_sizes, obs, act, logp_old, adv, clip_ratio)

        def loss_flat(p):
            m, _ = mlp_forward(p, layer_sizes, obs * OBS_SCALE)
            return -ppo_surrogate(gaussian_logp(act, m, log_std),
                                  logp_old, adv, clip_ratio)

        def loss_std(ls):
            return -ppo_surrogate(gaussian_logp(act, mean, ls),
                                  logp_old, adv, clip_ratio)

        worst = max(worst, max_rel_err(g_flat, central_diff_grad(loss_flat, flat)))
        worst = max(worst, max_rel_err(g_std, central_diff_grad(loss_std, log_std)))
    return worst


def train_ppo(cfg: TrainConfig, full_cfg: FullConfig) -> tuple[PolicyParams, TrainReport]:
    """PPO with the clipped surrogate and generalized advantage estimation.

    Gradients are verified against finite differences before any training
    step; failure aborts with a diagnostic.
    """
    err = ppo_gradient_check(seed=cfg.master_seed)
    if err >= 1e-4:
        raise GradientCheckError(
            f"policy gradient check failed: max relative error {err:.3e} >= 1e-4")

    t_start = time.perf_counter()
    env = make_env(full_cfg)
    n_obs = observation_length(full_cfg.episode.spawn.n_shas)
    layer_sizes = (n_obs, *cfg.hidden_sizes, 2)
    value_sizes = (n_obs, *cfg.hidden_sizes, 1)

    init_rng = np.random.default_rng([cfg.master_seed, 20])
    flat = _init_mlp(init_rng, layer_sizes)
    vflat = _init_mlp(init_rng, value_sizes)
    log_std = np.full(2, cfg.log_std_init)

    opt_pi = Adam(flat.size + 2, cfg.step_size)
    opt_v = Adam(vflat.size, cfg.step_size)
    iter_log: list[dict] = []

    for it in range(cfg.iterations):
        obs_l, act_l, logp_l, adv_l, ret_l, ep_returns = [], [], [], [], [], []
        for ep in range(cfg.rollout_episodes):
            seed = [cfg.master_seed, 3, it, ep]
            noise_rng = np.random.default_rng([cfg.master_seed, 4, it, ep])
            obs = env.reset(seed)
            o_ep, a_ep, r_ep = [], [], []
            ep_ret = 0.0
            while True:
                mean, _ = mlp_forward(flat, layer_sizes, obs[None, :] * OBS_SCALE)
                a = mean[0] + np.exp(log_std) * noise_rng.standard_normal(2)
                o_ep.append(obs)
                a_ep.append(a)
                obs, r, done, _ = env.step(Action(float(a[0]), float(a[1])))
                r_ep.append(r)
                ep_ret += r
                if done:
                    break
            o_ep = np.asarray(o_ep)
            a_ep = np.asarray(a_ep)
            mean, _ = mlp_forward(flat, layer_sizes, o_ep * OBS_SCALE)
            logp = gaussian_logp(a_ep, mean, log_std)
            v, _ = mlp_forward(vflat, value_sizes, o_ep * OBS_SCALE,
                               squash_output=False)
            values = np.append(v[:, 0], 0.0)
            adv, ret = compute_gae(np.asarray(r_ep), values,
                                   cfg.discount, cfg.gae_lambda)
            obs_l.append(o_ep)
            act_l.append(a_ep)
            logp_l.append(logp)
            adv_l.append(adv)
            ret_l.append(ret)
            ep_returns.append(ep_ret)

        obs_b = np.concatenate(obs_l)
        act_b = np.concatenate(act_l)
        logp_b = np.concatenate(logp_l)
        adv_b = np.concatenate(adv_l)
        ret_b = np.concatenate(ret_l)
        if adv_b.std() > 1e-8:
            adv_b = (adv_b - adv_b.mean()) / adv_b.std()

        n = obs_b.shape[0]
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng(
                [cfg.master_seed, 5, it, epoch]).permutation(n)
            for start in range(0, n, cfg.minibatch):
                idx = perm[start:start + cfg.minibatch]
                _, g_flat, g_std = ppo_policy_gradient(
                    flat, log_std, layer_sizes, obs_b[idx], act_b[idx],
                    logp_b[idx], adv_b[idx], cfg.clip_ratio)
                packed = opt_pi.step(np.concatenate([flat, log_std]),
                                     np.concatenate([g_flat, g_std]))
                flat, log_std = packed[:-2], packed[-2:]

                v, vacts = mlp_forward(vflat, value_sizes,
                                       obs_b[idx] * OBS_SCALE,
                                       squash_output=False)
                dv = 2.0 * (v[:, 0] - ret_b[idx])[:, None] / idx.size
                gv = mlp_backward(vflat, value_sizes, vacts, dv,
                                  squash_output=False)
                vflat = opt_v.step(vflat, gv)

        iter_log.append({
            "iteration": it,
            "mean_return": float(np.mean(ep_returns)),
            "max_return": float(np.max(ep_returns)),
            "elite_mean": float(np.mean(ep_returns)),
        })

    finalists = [PolicyParams(layer_sizes, flat.astype(np.float32))]
    params, report = _finalize_report("ppo", cfg, env, layer_sizes, finalists,
                                      iter_log, t_start)
    return params, report


def _init_mlp(rng: np.random.Generator, layer_sizes) -> np.ndarray:
    """Xavier-style init, biases zero."""
    chunks = []
    for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = math.sqrt(2.0 / (din + dout))
        chunks.append(rng.normal(0.0, scale, din * dout))
        chunks.append(np.zeros(dout))
    return np.concatenate(chunks)


def train(cfg: TrainConfig, full_cfg: FullConfig) -> tuple[PolicyParams, TrainReport]:
    if cfg.algo == "cem":
        return train_cem(cfg, full_cfg)
    if cfg.algo == "ppo":
        return train_ppo(cfg, full_cfg)
    raise ValueError(f"unknown algorithm {cfg.algo!r}")
