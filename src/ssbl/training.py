"""Policy optimization: cross-entropy method (default) and PPO-clip with
hand-rolled backprop, plus rollout/evaluation utilities and the
relative-performance normalization used in reports.

`rollout` is the one loop that steps the environment. A recorded rollout
hands each tick to a recorder: `record=True` keeps every episode's track
(distillation, PPO, `metrics.live_stats`), and `trajlog.TrajectoryWriter`
writes `simulate`'s files while the batch steps and keeps no track.

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
  [master, 20]                      PPO network initialization
  [seed, 99]                        PPO's gradient check (seed = master)
  [seed, episode]                   `simulate`, `eval`, `compare` episodes (--seed)
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, FullConfig, TrainConfig
from .env import ApproachEnv, encode_observation, observation_length
from .fdcheck import central_diff_grad, max_rel_err
from .geometry import SimulationFault
from .policies import (OBS_SCALE, LaneNoise, NetworkPolicy, PolicyParams,
                       RandomPolicy, SffmPolicy, mlp_forward, param_count,
                       population_layers, run_layers, unpack_layers)
from .trajlog import REWARD_KEYS

log = logging.getLogger(__name__)


class GradientCheckError(RuntimeError):
    """Analytic gradients disagree with finite differences."""


def make_env(cfg: FullConfig) -> ApproachEnv:
    """The environment of the whole configuration `cfg`."""
    return ApproachEnv(cfg)


# Largest CEM draw, population × parameters (368 k at the default config), and
# largest PPO policy net (5 762 parameters at the default config).
MAX_CEM_DRAW = 2 ** 24


def check_run_size(cfg: FullConfig) -> None:
    """ConfigError for a CEM run that would draw more than MAX_CEM_DRAW values,
    or a PPO run whose policy net has more parameters than that."""
    t = cfg.train
    n_params = param_count((observation_length(cfg.spawn.n_shas), *t.hidden_sizes, 2))
    if t.algo == "cem" and t.population * n_params > MAX_CEM_DRAW:
        raise ConfigError(f"train.population times the network's parameters is "
                          f"{t.population * n_params} values per CEM draw, "
                          f"above {MAX_CEM_DRAW}")
    if t.algo == "ppo" and n_params > MAX_CEM_DRAW:
        raise ConfigError(f"train.hidden_sizes give the PPO policy net {n_params} "
                          f"parameters, above {MAX_CEM_DRAW}")


# -- rollouts and evaluation --------------------------------------------------


# a recorded rollout keeps, per episode, the states it passed through (the
# initial one first: one row more than it has ticks) and, per tick, the
# action as the policy gave it and the reward components
STATES = ("pos", "vel", "heading")
STEPS = ("action", *REWARD_KEYS)


@dataclass(slots=True)
class RolloutResult:
    """One episode of a rollout. One of a rollout with `record=True` also
    keeps its `track`, one array per STATES and STEPS name, from which
    `trajlog.write_trajectory` cuts its step records and `observations` its
    observations."""

    seed: object
    ret: float
    steps: int
    success: bool
    track: dict | None = None

    def observations(self, world) -> np.ndarray:
        """The observations (steps + 1, L) of the states the episode passed
        through: the ones the policy acted on, then the one it ended in."""
        return encode_observation(*(self.track[k] for k in STATES), world)


def _per_lane(rows, counts) -> list[tuple]:
    """Rows (lane, *columns) gathered tick by tick, regrouped into one block
    of consecutive rows per lane, counts[b] rows for lane b."""
    lane, *columns = map(np.concatenate, zip(*rows))
    order = np.argsort(lane, kind="stable")
    return list(zip(*(np.split(c[order], np.cumsum(counts)[:-1]) for c in columns)))


class _Tracks:
    """The recorder of `rollout(..., record=True)`: it keeps every tick of
    every lane, and `tracks` regroups them into one track per episode."""

    def reset(self, env: ApproachEnv, seeds) -> None:
        self.states = [(env.lane, env.pos, env.vel, env.heading)]
        self.ticks = []

    def step(self, env: ApproachEnv, action: np.ndarray, breakdown) -> None:
        self.states.append((env.lane, env.pos, env.vel, env.heading))
        self.ticks.append((env.lane, action, *(getattr(breakdown, k) for k in REWARD_KEYS)))

    def tracks(self, steps: np.ndarray) -> list[dict]:
        return [dict(zip(STATES + STEPS, s + a)) for s, a in
                zip(_per_lane(self.states, steps + 1), _per_lane(self.ticks, steps))]


def _fault(env: ApproachEnv, action, seeds) -> SimulationFault:
    """The SimulationFault of a step that refused a non-finite state or
    command, naming the tick it would have been (the `t` of its step
    records) and the seeds of the lanes whose action or state is not finite;
    of every held lane when none is (a command of the SHAs)."""
    arrays = (np.asarray(action, dtype=float), env.pos, env.vel, env.heading)
    bad = ~np.logical_and.reduce([np.isfinite(a).reshape(len(env.lane), -1).all(axis=1)
                                  for a in arrays])
    lanes = env.lane[bad] if bad.any() else env.lane
    return SimulationFault(f"non-finite state or command at tick {env.t + 1} in "
                           f"the episode(s) of seed {', '.join(str(seeds[b]) for b in lanes)}")


def rollout(env: ApproachEnv, policy, seeds, record=False) -> list[RolloutResult]:
    """Run one episode per seed, all in one lockstep batch. This is the one
    loop that steps the environment. After a tick in which some episodes end
    and others go on, the env drops the ended ones (`keep`), so every tick
    steps running episodes only; `env.lane` says which seeds those are, for
    the policy and for scattering the results back by seed index.

    `record` hands each tick to a recorder: with True, each result keeps
    its episode's track; any other recorder (`trajlog.TrajectoryWriter`)
    has `reset(env, seeds)` called after the env's reset and `step(env,
    action, breakdown)` after each step, before the ended episodes are
    dropped. A SimulationFault names the tick and the seeds it came from."""
    seeds = list(seeds)
    recorder = _Tracks() if record is True else record or None
    env.reset(seeds)
    policy.begin_episode(seeds)
    if recorder is not None:
        recorder.reset(env, seeds)
    n = len(seeds)
    ret = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    success = np.zeros(n, dtype=bool)
    while True:
        action = policy.act(env)
        try:
            reward, done, bd = env.step(action)
        except SimulationFault as e:
            raise _fault(env, action, seeds) from e
        lane = env.lane
        ret[lane] += reward
        if recorder is not None:
            recorder.step(env, action, bd)
        if done.any():
            steps[lane[done]] = env.t
            success[lane[done]] = env.success[done]
            if done.all():
                break
            env.keep(~done)
    tracks = recorder.tracks(steps) if record is True else [None] * n
    return [RolloutResult(seed, float(ret[b]), int(steps[b]), bool(success[b]),
                          tracks[b])
            for b, seed in enumerate(seeds)]


def eval_seeds(master_seed: int, n: int) -> list[list[int]]:
    """Held-out evaluation seed material, disjoint from training streams."""
    return [[int(master_seed), 2, i] for i in range(n)]


def evaluate_policy(env: ApproachEnv, policy, seeds) -> list[RolloutResult]:
    return rollout(env, policy, seeds)


def mean_return(results: list[RolloutResult]) -> float:
    return float(np.mean([r.ret for r in results]))


def relative_performance(r_model: float, r_baseline: float,
                         r_random: float) -> float:
    """Percent scale on which the random anchor is 0% and the baseline 100%."""
    denom = r_baseline - r_random
    if abs(denom) < 1e-12:
        raise ConfigError("degenerate anchors: baseline and random returns equal")
    return 100.0 * ((r_model - r_random) / denom)


def ewma(values, alpha: float = 0.1) -> list[float]:
    """Exponentially weighted running average used to smooth learning curves."""
    return list(itertools.accumulate(values, lambda s, v: s + alpha * (v - s)))


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
    n = len(seeds)
    results = evaluate_policy(env, NetworkPolicy(finalists), seeds * len(finalists))
    scored = [(mean_return(results[k * n:(k + 1) * n]), params)
              for k, params in enumerate(finalists)]
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


# the warm start: sffm episodes imitated, then epochs of shuffled minibatches
DISTILL_EPISODES = 60
DISTILL_EPOCHS = 400
DISTILL_BATCH = 256
DISTILL_LR = 3e-3


def distill_baseline(layer_sizes, full_cfg: FullConfig,
                     master_seed: int) -> np.ndarray:
    """Behavior-clone the force-field baseline into a network (MSE on its
    actions over states it visits). Used to warm-start the policy search so
    refinement begins from a competent, non-intrusive controller instead of
    from scratch."""
    results = rollout(make_env(full_cfg), SffmPolicy(),
                      [[master_seed, 6, i] for i in range(DISTILL_EPISODES)],
                      record=True)
    X = np.concatenate([r.observations(full_cfg.world)[:-1] for r in results]) * OBS_SCALE
    Y = np.concatenate([r.track["action"] for r in results])

    rng = np.random.default_rng([master_seed, 7])
    fit = MinibatchFit(_init_mlp(rng, layer_sizes), layer_sizes, DISTILL_LR,
                       DISTILL_BATCH)
    n = X.shape[0]
    for epoch in range(DISTILL_EPOCHS):
        perm = rng.permutation(n)
        for start in range(0, n, DISTILL_BATCH):
            fit.mse_step(X, Y, perm[start:start + DISTILL_BATCH])
    return fit.params


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
    n_obs = observation_length(full_cfg.spawn.n_shas)
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
        # mu + sigma * z with no temporary beside z: the same products and sums
        z = rng.standard_normal((cfg.population, n_params))
        z *= sigma
        z += mu
        thetas = z.astype(np.float32)
        del z
        seeds = [[cfg.master_seed, 1, t, e] for e in range(cfg.episodes_per_eval)]

        # the whole population in one batch: candidate i drives lanes
        # i * E .. i * E + E - 1, one per episode seed
        policy = NetworkPolicy([PolicyParams(layer_sizes, th) for th in thetas])
        rets = np.array([r.ret for r in rollout(env, policy, seeds * cfg.population)])
        returns = np.array([float(np.mean(r)) for r in rets.reshape(cfg.population, -1)])
        for i in np.flatnonzero(~np.isfinite(returns)):
            log.warning("CEM iteration %d: candidate %d returned %r, discarded",
                        t, i, returns[i])
            returns[i] = -math.inf
        del policy

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
    return _finalize_report("cem", cfg, env, layer_sizes, finalists, iter_log,
                            t_start)


# -- fitting a tanh MLP in place: distillation and PPO ---------------------------


class Adam:
    """Adam with the usual constants. step() updates the parameters and both
    moments in place, with two scratch vectors and no allocation, and
    returns `params`."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= 0.9                                # m = 0.9*m + 0.1*g
        m += np.multiply(0.1, grad, out=a)
        v *= 0.999                              # v = 0.999*v + (0.001*g)*g
        np.multiply(0.001, grad, out=a)
        a *= grad
        v += a
        np.divide(m, 1.0 - 0.9 ** self.t, out=a)        # mhat
        a *= self.lr
        np.divide(v, 1.0 - 0.999 ** self.t, out=b)      # vhat
        np.sqrt(b, out=b)
        b += 1e-8
        a /= b
        params -= a          # params - (lr*mhat) / (sqrt(vhat) + 1e-8)
        return params


class MinibatchFit:
    """Adam on a tanh MLP over minibatches of rows, in place. `params` holds
    the network's flat vector (`flat`, a view), then any extra parameters
    (PPO's log-std); `grad` has the same layout. The (W, b) views are
    unpacked once, and one set of activation and delta buffers is allocated
    at `batch` rows, the largest minibatch; a shorter one uses their leading
    rows. A step allocates no array."""

    def __init__(self, params: np.ndarray, layer_sizes, lr: float, batch: int,
                 squash_output: bool = True):
        n = param_count(layer_sizes)
        self.params = params
        self.flat = params[:n]
        self.grad = np.empty_like(params)
        self.squash_output = squash_output
        self._layers = unpack_layers(self.flat, layer_sizes)
        self._glayers = unpack_layers(self.grad[:n], layer_sizes)
        self._opt = Adam(params.size, lr)
        self._acts = [np.empty((batch, k)) for k in layer_sizes]
        self._deltas = [np.empty((batch, k)) for k in layer_sizes[1:]]
        self._current = None

    def forward(self, X: np.ndarray, idx: np.ndarray):
        """The network's output for the rows X[idx], and the buffer in which
        to put the loss gradient w.r.t. that output before backward()."""
        rows = idx.size
        self._current = acts, deltas = ([a[:rows] for a in self._acts],
                                        [d[:rows] for d in self._deltas])
        np.take(X, idx, axis=0, out=acts[0], mode="clip")   # "raise" would buffer
        out, _ = run_layers(self._layers, acts[0], self.squash_output, out=acts[1:])
        return out, deltas[-1]

    def backward(self) -> None:
        """The network's part of `grad`, from the last forward() and the
        loss gradient put in its buffer: the gradient of sum(output * that
        buffer). Overwrites every buffer but the input rows."""
        acts, deltas = self._current
        g = deltas[-1]
        last = len(self._layers) - 1
        for li in range(last, -1, -1):
            gw, gb = self._glayers[li]
            if li < last or self.squash_output:
                a = acts[li + 1]     # through the tanh: g * (1 - a*a)
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                g *= a
            np.matmul(g.T, acts[li], out=gw)
            np.sum(g, axis=0, out=gb)
            if li:   # the gradient w.r.t. the input itself is never needed
                g = np.matmul(g, self._layers[li][0], out=deltas[li - 1])

    def step(self) -> None:
        self._opt.step(self.params, self.grad)

    def mse_step(self, X: np.ndarray, Y: np.ndarray, idx: np.ndarray) -> None:
        """One Adam step on the mean squared error of the rows X[idx] against
        the targets Y[idx] (rows, output width)."""
        out, dout = self.forward(X, idx)
        np.take(Y, idx, axis=0, out=dout, mode="clip")
        np.subtract(out, dout, out=dout)        # 2 * (out - Y) / rows
        dout *= 2.0
        dout /= idx.size
        self.backward()
        self.step()


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


def _surrogate_gradient(mean: np.ndarray, act: np.ndarray, log_std: np.ndarray,
                        logp_old: np.ndarray, adv: np.ndarray,
                        clip_ratio: float):
    """Loss (negative surrogate) plus its gradients w.r.t. the mean action
    and the log-std vector."""
    logp_new = gaussian_logp(act, mean, log_std)
    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    unclipped_term = ratio * adv
    use_unclipped = unclipped_term <= clipped * adv
    loss = -float(np.mean(np.minimum(unclipped_term, clipped * adv)))

    B = act.shape[0]
    dlogp = np.where(use_unclipped, -unclipped_term / B, 0.0)
    std = np.exp(log_std)
    dmean = dlogp[:, None] * (act - mean) / (std * std)
    z2 = ((act - mean) / std) ** 2
    grad_log_std = (dlogp[:, None] * (z2 - 1.0)).sum(axis=0)
    return loss, dmean, grad_log_std


def _policy_gradient(pi: MinibatchFit, X: np.ndarray, idx: np.ndarray,
                     act: np.ndarray, logp_old: np.ndarray, adv: np.ndarray,
                     clip_ratio: float) -> float:
    """The loss (negative surrogate) on the rows X[idx] of the policy fit
    `pi`, whose last two parameters are the log-std; its gradient is left
    in pi.grad."""
    mean, dmean = pi.forward(X, idx)
    loss, dmean[...], pi.grad[-2:] = _surrogate_gradient(
        mean, act[idx], pi.params[-2:], logp_old[idx], adv[idx], clip_ratio)
    pi.backward()
    return loss


def ppo_policy_gradient(flat: np.ndarray, log_std: np.ndarray, layer_sizes,
                        obs: np.ndarray, act: np.ndarray,
                        logp_old: np.ndarray, adv: np.ndarray,
                        clip_ratio: float):
    """Loss (negative surrogate) plus its gradients w.r.t. the policy
    parameters and the log-std vector, through the fit PPO trains with."""
    pi = MinibatchFit(np.concatenate([flat, log_std]), layer_sizes, 0.0, len(obs))
    loss = _policy_gradient(pi, obs * OBS_SCALE, np.arange(len(obs)), act,
                            logp_old, adv, clip_ratio)
    return loss, pi.grad[:-2], pi.grad[-2:]


def compute_gae(rewards: np.ndarray, values: np.ndarray, gamma: float,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and value targets for one finished episode.

    `values` has one extra trailing entry for the state after the last step:
    0 when the episode ended in success (a true terminal state), and that
    state's value estimate when the episode was cut at the horizon, since
    the task would have gone on from there (Pardo et al., "Time Limits in
    Reinforcement Learning", arXiv:1712.00378).
    """
    T = rewards.shape[0]
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + gamma * values[t + 1] - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values[:-1]


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


class _GaussianPolicy(NetworkPolicy):
    """PPO's behaviour policy: the network's mean action (float64 weights)
    plus Gaussian noise with std exp(log_std), one generator per episode.
    It keeps copies of `flat` and `log_std`, so later in-place updates of
    the trainer's buffer do not reach it."""

    def __init__(self, flat: np.ndarray, layer_sizes, log_std: np.ndarray,
                 noise_seeds):
        self._population = population_layers(flat[None].copy(), layer_sizes)
        self._std = np.exp(log_std)
        self._noise_seeds = noise_seeds
        self._noise = LaneNoise(lambda rng, shape: rng.standard_normal(shape))

    def begin_episode(self, seeds) -> None:
        super().begin_episode(seeds)
        self._noise.begin_episode(self._noise_seeds)

    def act(self, env: ApproachEnv) -> np.ndarray:
        noise = self._noise.next(env.lane, env.t)
        return super().act(env) + self._std * noise


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
    n_obs = observation_length(full_cfg.spawn.n_shas)
    layer_sizes = (n_obs, *cfg.hidden_sizes, 2)
    value_sizes = (n_obs, *cfg.hidden_sizes, 1)

    init_rng = np.random.default_rng([cfg.master_seed, 20])
    # the policy's parameters and log-std packed in one buffer; flat and
    # log_std are views into it, updated in place
    pi = MinibatchFit(np.concatenate([_init_mlp(init_rng, layer_sizes),
                                      np.full(2, cfg.log_std_init)]),
                      layer_sizes, cfg.step_size, cfg.minibatch)
    vf = MinibatchFit(_init_mlp(init_rng, value_sizes), value_sizes,
                      cfg.step_size, cfg.minibatch, squash_output=False)
    flat, log_std = pi.flat, pi.params[-2:]
    iter_log: list[dict] = []

    for it in range(cfg.iterations):
        episodes = range(cfg.rollout_episodes)
        behaviour = _GaussianPolicy(
            flat, layer_sizes, log_std,
            [[cfg.master_seed, 4, it, ep] for ep in episodes])
        results = rollout(env, behaviour,
                          [[cfg.master_seed, 3, it, ep] for ep in episodes],
                          record=True)
        ep_returns = [res.ret for res in results]
        obs = [res.observations(full_cfg.world) for res in results]
        obs_b = np.concatenate([o[:-1] for o in obs])
        act_b = np.concatenate([res.track["action"] for res in results])
        x_b = obs_b * OBS_SCALE
        mean, _ = mlp_forward(flat, layer_sizes, x_b)
        logp_b = gaussian_logp(act_b, mean, log_std)
        # values of every visited state, then of the states the episodes ended in
        v, _ = mlp_forward(vf.flat, value_sizes,
                           np.concatenate([obs_b, *(o[-1:] for o in obs)]) * OBS_SCALE,
                           squash_output=False)
        n = obs_b.shape[0]
        ends = np.cumsum([res.steps for res in results])[:-1]
        gae = [compute_gae(res.track["total"],
                           # success is terminal; an episode cut at the
                           # horizon bootstraps from the state it was cut in
                           np.append(v_ep, 0.0 if res.success else v_end),
                           cfg.discount, cfg.gae_lambda)
               for res, v_ep, v_end in zip(results, np.split(v[:n, 0], ends), v[n:, 0])]
        adv_b, ret_b = (np.concatenate(x) for x in zip(*gae))
        if adv_b.std() > 1e-8:
            adv_b = (adv_b - adv_b.mean()) / adv_b.std()

        for epoch in range(cfg.epochs):
            perm = np.random.default_rng(
                [cfg.master_seed, 5, it, epoch]).permutation(n)
            for start in range(0, n, cfg.minibatch):
                idx = perm[start:start + cfg.minibatch]
                _policy_gradient(pi, x_b, idx, act_b, logp_b, adv_b,
                                 cfg.clip_ratio)
                pi.step()
                vf.mse_step(x_b, ret_b[:, None], idx)

        iter_log.append({
            "iteration": it,
            "mean_return": float(np.mean(ep_returns)),
            "max_return": float(np.max(ep_returns)),
            "elite_mean": float(np.mean(ep_returns)),
        })

    finalists = [PolicyParams(layer_sizes, flat.astype(np.float32))]
    return _finalize_report("ppo", cfg, env, layer_sizes, finalists, iter_log,
                            t_start)


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
