"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them; pytest -v reports the same per test).

Most criteria run in seconds; the training criterion performs the full
standard CEM run and takes several minutes on a desktop CPU.

Known honest failures: three rows of the reference-score table carry
published percentages that were computed from unrounded returns, so they
cannot be reproduced from the printed three-decimal returns within the
asserted tolerance (the recomputed values differ by 0.024-0.058 points).
Those three parametrized cases fail by construction and are kept failing
as a faithful record rather than loosened; see notes in the repository.
"""

import math

import numpy as np
import pytest

from conftest import group_tick
from ssbl.cli import main
from ssbl.config import default_config
from ssbl.forces import OSpace, combined_force
from ssbl.geometry import AgentState, ProxemicsConfig, Role, Vec2
from ssbl.groups import GroupSpawnSpec, spawn_episode
from ssbl.metrics import aggregate_stats, live_stats
from ssbl.policies import NetworkPolicy, RandomPolicy, SffmPolicy
from ssbl.rewards import group_forming_increment
from ssbl.spatial_features import (expected_coordinates, gradient_check, presence,
                       spatial_softmax)
from ssbl.training import (Adam, eval_seeds, gaussian_logp, make_env,
                           mlp_forward, ppo_gradient_check,
                           ppo_policy_gradient, relative_performance, rollout,
                           train_cem)
from ssbl.policies import param_count

PROX = ProxemicsConfig()


def _pass(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def sha(i, x, y):
    return AgentState(id=i, role=Role.SHA, position=Vec2(x, y),
                      velocity=Vec2(0.0, 0.0), heading=0.0)


# -- criterion 1: reference-score normalization ---------------------------------

REFERENCE_SCORES = [
    # (label, return, published percent, tolerance in percentage points)
    ("vector_lstm_baseline", -0.256, 100.00, 1e-9),
    ("cam_spatial_ff", -0.869, 57.06, 0.02),
    ("cam_spatial_lstm", -0.804, 61.63, 0.02),
    ("cam_conv_ff", -0.810, 61.18, 0.02),      # inconsistent source row
    ("cam_conv_lstm", -1.091, 41.51, 0.02),
    ("camspeed_spatial_lstm", -0.544, 79.80, 0.01),  # inconsistent source row
    ("camspeed_conv_lstm", -0.709, 68.22, 0.02),  # inconsistent source row
    ("random_policy", -1.684, 0.00, 1e-9),
]


@pytest.mark.parametrize("label,reward,percent,tol",
                         REFERENCE_SCORES, ids=[r[0] for r in REFERENCE_SCORES])
def test_c01_reference_table_normalization(label, reward, percent, tol):
    computed = relative_performance(reward, -0.256, -1.684)
    assert computed == pytest.approx(percent, abs=tol), (
        f"{label}: recomputed {computed:.4f}% vs published {percent:.2f}%"
    )
    _pass(f"reference normalization row {label}")


def test_c01_normalization_formula_self_consistency():
    # the formula itself, checked against an independent rearrangement
    rng = np.random.default_rng(0)
    for _ in range(100):
        b, r = rng.normal(0.0, 2.0, 2)
        if abs(b - r) < 1e-6:
            continue
        m = rng.normal(0.0, 2.0)
        pct = relative_performance(m, b, r)
        assert abs((r + (b - r) * pct / 100.0) - m) < 1e-9
    _pass("normalization formula self-consistency")


# -- criterion 2: force-law hand values ------------------------------------------


def test_c02_force_law_suite():
    origin = Vec2(0.0, 0.0)
    ospace = OSpace(Vec2(0.0, 0.0), 1.5)
    f_r = combined_force(origin, [sha(1, 0.5, 0.0)], PROX, ospace).repulsion
    assert abs(f_r.x - (-0.49)) < 1e-9 and abs(f_r.y) < 1e-9

    f_e = combined_force(origin, [sha(1, 2.0, 0.0), sha(2, 0.0, 2.0)], PROX,
                         ospace).equality
    assert abs(f_e.x - (-0.2583)) < 1e-4 and abs(f_e.y - (-0.2583)) < 1e-4
    # brute-force oracle: direct centroid / mean-distance arithmetic
    pts = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    cx = sum(p[0] for p in pts) / 3.0
    cy = sum(p[1] for p in pts) / 3.0
    m = sum(math.hypot(p[0] - cx, p[1] - cy) for p in pts) / 3.0
    coeff = 1.0 - m / math.hypot(cx, cy)
    assert abs(f_e.x - coeff * cx) < 1e-9 and abs(f_e.y - coeff * cy) < 1e-9

    f_c = combined_force(Vec2(3.0, 0.0), [sha(1, 1.0, 0.0)], PROX,
                         ospace).cohesion
    assert abs(f_c.x - (-0.75)) < 1e-9 and abs(f_c.y) < 1e-9
    _pass("force-law hand-derived values")


# -- criterion 3: equality vanishes on regular polygons ----------------------------


def test_c03_regular_polygon_equality_vanishing():
    for n in range(2, 7):
        radius = 1.2
        members = [sha(i, radius * math.cos(2 * math.pi * i / n),
                       radius * math.sin(2 * math.pi * i / n))
                   for i in range(n)]
        for subject in members:
            others = [a for a in members if a.id != subject.id]
            f_e = combined_force(subject.position, others, PROX,
                                 OSpace(Vec2(0.0, 0.0), radius)).equality
            assert f_e.norm() < 1e-9, f"n={n}, member {subject.id}"
    _pass("regular-polygon equality vanishing (n=2..6)")


# -- criterion 4: line-integral quadrature convergence ------------------------------


def test_c04_quadrature_convergence():
    def field(u):
        r2 = u[..., 0] ** 2 + u[..., 1] ** 2
        return np.stack([-u[..., 0] / r2, -u[..., 1] / r2], axis=-1)  # radial pull, magnitude 1/r

    def integral(n):
        start, end = np.array([3.0, 0.0]), np.array([1.0, 0.0])
        total = 0.0
        for i in range(n):
            a = start + (end - start) * (i / n)
            b = start + (end - start) * ((i + 1) / n)
            total += group_forming_increment(field, a, b)
        return total

    fine = integral(10_000)
    assert abs(integral(20) - fine) / abs(fine) < 1e-3
    exact = math.log(3.0)
    errors = [abs(integral(n) - exact) for n in (20, 40, 80, 160)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.9, f"observed orders {orders}"
    _pass(f"quadrature convergence (orders {['%.2f' % o for o in orders]})")


# -- criterion 5: spatial-feature suite ----------------------------------------------


def test_c05_spatial_feature_suite():
    rng = np.random.default_rng(1)
    probs = spatial_softmax(rng.normal(0.0, 2.0, (16, 16, 4)))
    np.testing.assert_allclose(probs.sum(axis=(0, 1)), 1.0, atol=1e-6)

    uniform = spatial_softmax(np.zeros((9, 9, 1)))
    x, y = expected_coordinates(uniform[:, :, 0])
    assert abs(x - 4.0) < 1e-12 and abs(y - 4.0) < 1e-12

    point = np.zeros((8, 8))
    point[3, 5] = 1.0
    assert abs(presence(point, 3.0, 5.0, 1.0) - 1.0) < 1e-12

    report = gradient_check(seed=0, trials=20, shape=(8, 8, 3))
    assert report["max_rel_err"] < 1e-4
    assert report["passed"]
    _pass(f"spatial-feature suite (grad err {report['max_rel_err']:.2e})")


# -- criterion 6: dyad stability -----------------------------------------------------


def test_c06_dyad_stability_100_seeds():
    """The dyads of seeds 0-99 (each spawn's SHAs, without the robot) step
    200 ticks as one batch of 100 lanes, every lane from its own entries."""
    cfg = default_config().validate()
    world, prox = cfg.world, cfg.proxemics
    pos, heading = (np.stack(x)[:, 1:] for x in zip(
        *(spawn_episode(GroupSpawnSpec(), world, seed) for seed in range(100))))
    vel = np.zeros_like(pos)
    settled = np.zeros(100, dtype=bool)
    for _ in range(200):
        new_pos, vel, heading = group_tick(pos, vel, heading, np.ones(2, bool), prox,
                                           world, cfg.sha_gains)
        step = new_pos - pos
        settled |= np.hypot(step[..., 0], step[..., 1]).max(axis=1) < 1e-3
        pos = new_pos
    for seed in range(100):
        assert settled[seed], f"seed {seed} never settled"
        dist = math.hypot(*(pos[seed, 0] - pos[seed, 1]).tolist())
        assert prox.d_personal <= dist <= prox.d_social, f"seed {seed}: {dist}"
    _pass("dyad stability over 100 seeds")


# -- criterion 7: baseline beats random ------------------------------------------------


def test_c07_baseline_ordering_100_paired_seeds():
    cfg = default_config().validate()
    env = make_env(cfg)
    seeds = [[0, i] for i in range(100)]
    rb = rollout(env, SffmPolicy(), seeds)
    base = [r.ret for r in rb]
    rand = [r.ret for r in rollout(env, RandomPolicy(), seeds)]
    successes = sum(r.success for r in rb)
    diffs = np.array(base) - np.array(rand)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    margin = diffs.mean() / se
    assert margin >= 5.0, f"paired margin only {margin:.1f} standard errors"
    assert successes >= 90, f"baseline success rate {successes}/100"
    _pass(f"baseline ordering (margin {margin:.1f} SE, success {successes}/100)")


# -- criterion 9: determinism ------------------------------------------------------------


def test_c09_simulate_and_train_are_deterministic(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        rc = main(["simulate", "--policy", "sffm", "--seed", "21",
                   "--episodes", "2", "--out", str(out)])
        assert rc == 0
        outs.append(b"".join(sorted(p.read_bytes() for p in out.iterdir())))
    assert outs[0] == outs[1]

    from ssbl.config import save_config
    cfg = default_config()
    cfg.episode.max_steps = 60
    cfg.train.population = 4
    cfg.train.hidden_sizes = (8,)
    cfg.train.eval_episodes = 2
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    ckpts = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        rc = main(["train", "--algo", "cem", "--iters", "2", "--seed", "77",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        ckpts.append((out / "checkpoint.json").read_bytes())
    assert ckpts[0] == ckpts[1]
    _pass("byte-identical simulate and train reruns")


# -- criterion 10: PPO gate -----------------------------------------------------------


def test_c10_ppo_gradient_gate():
    err = ppo_gradient_check(seed=0)
    assert err < 1e-4, f"finite-difference mismatch {err:.3e}"

    rng = np.random.default_rng(3)
    layer_sizes = (6, 8, 2)
    flat = rng.normal(0.0, 0.3, param_count(layer_sizes))
    log_std = np.array([-0.4, -0.6])
    obs = rng.normal(0.0, 1.5, (24, 6))
    mean, _ = mlp_forward(flat, layer_sizes, obs * 0.1)
    act = mean + 0.3 * rng.standard_normal((24, 2))
    logp_old = gaussian_logp(act, mean, log_std)
    _, g_flat, g_std = ppo_policy_gradient(flat, log_std, layer_sizes, obs,
                                           act, logp_old, np.zeros(24), 0.2)
    assert not g_flat.any() and not g_std.any()
    stepped = Adam(flat.size, 1e-3).step(flat.copy(), g_flat)
    np.testing.assert_array_equal(stepped, flat)
    _pass(f"PPO gate (grad err {err:.2e}, zero-advantage update is zero)")


# -- criterion 8: training (slow; kept last) ----------------------------------------------


@pytest.mark.slow
def test_c08_cem_training_standard_config():
    cfg = default_config().validate()
    params, report = train_cem(cfg.train, cfg)
    assert report.relative_percent >= 50.0, (
        f"relative performance {report.relative_percent:.1f}% < 50%"
    )

    env = make_env(cfg)
    seeds = eval_seeds(cfg.train.master_seed, cfg.train.eval_episodes)
    learned = aggregate_stats(live_stats(env, NetworkPolicy(params), seeds,
                                         cfg.proxemics))
    baseline = aggregate_stats(live_stats(env, SffmPolicy(), seeds,
                                          cfg.proxemics))
    assert learned.personal_violation_steps <= baseline.personal_violation_steps, (
        f"learned violates personal space more than the baseline "
        f"({learned.personal_violation_steps:.2f} vs "
        f"{baseline.personal_violation_steps:.2f} steps/episode)"
    )
    assert learned.sha_total_displacement <= baseline.sha_total_displacement, (
        f"learned displaces the group more than the baseline "
        f"({learned.sha_total_displacement:.3f} vs "
        f"{baseline.sha_total_displacement:.3f} m/episode)"
    )
    _pass(f"training (rel {report.relative_percent:.1f}%, "
          f"violations {learned.personal_violation_steps:.2f} vs "
          f"{baseline.personal_violation_steps:.2f}, "
          f"displacement {learned.sha_total_displacement:.3f} vs "
          f"{baseline.sha_total_displacement:.3f})")
