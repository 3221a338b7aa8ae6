"""The "any batch size" half of the determinism contract: an episode, a
forward pass or a CEM candidate gives the same bytes alone and inside any
batch or population."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import batch_actions, episode_records
from ssbl.config import default_config
from ssbl.policies import (NOISE_BLOCK, RANDOM_POLICY_STREAM, LaneNoise,
                           NetworkPolicy, PolicyParams, RandomPolicy, SffmPolicy,
                           load_checkpoint)
from ssbl.training import _GaussianPolicy, make_env, rollout

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "checkpoint.json"
SEEDS = [[9, i] for i in range(1024)]


def policies():
    return {"sffm": SffmPolicy, "random": RandomPolicy,
            "checkpoint": lambda: NetworkPolicy(load_checkpoint(CHECKPOINT)[0])}


def lines(res):
    return [json.dumps(rec) for rec in episode_records(res.track, res.success)]


def alone(name, k):
    (res,) = rollout(make_env(default_config().validate()), policies()[name](),
                     [SEEDS[k]], record=True)
    return res


def check_batch(name, batch, record=True):
    """Episodes 0, batch // 2 and batch - 1 of a batch against each run
    alone: their return, length and success, and with `record` (all but the
    random policy's 1024 episodes) their step records."""
    env = make_env(default_config().validate())
    results = rollout(env, policies()[name](), SEEDS[:batch], record=record)
    for k in {0, batch // 2, batch - 1}:
        single = alone(name, k)
        assert ((results[k].ret, results[k].steps, results[k].success)
                == (single.ret, single.steps, single.success))
        if record:
            assert lines(results[k]) == lines(single), (batch, k)


@pytest.mark.parametrize("name", ["sffm", "random", "checkpoint"])
def test_episode_records_do_not_depend_on_the_batch(name):
    for batch in (2, 7):
        check_batch(name, batch)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["sffm", "random", "checkpoint"])
def test_episode_in_large_batches(name):
    for batch in (64, 128):
        check_batch(name, batch)
    check_batch(name, 1024, record=name != "random")


def easy_config():
    """Success anywhere within 3.5 m of the o-space ring, facing any way:
    random episodes end at scattered ticks."""
    cfg = default_config()
    cfg.episode.success_band, cfg.episode.success_angle = 3.5, math.pi
    cfg.episode.success_hold, cfg.episode.max_steps = 1, 150
    return cfg.validate()


def gaussian(lanes):
    base = load_checkpoint(CHECKPOINT)[0]
    return _GaussianPolicy(base.flat_params.astype(np.float64), base.layer_sizes,
                           np.full(2, -1.0), [[5, k] for k in lanes])


@pytest.mark.parametrize("name", ["random", "gaussian"])
def test_generators_stay_with_their_episodes(name):
    """Per-episode generators (random actions, PPO's exploration noise)
    follow their lanes when the episodes of other lanes end and are dropped:
    an episode alone and inside a batch of 32 gives the same records."""
    cfg = easy_config() if name == "random" else default_config().validate()
    make = gaussian if name == "gaussian" else lambda lanes: RandomPolicy()
    together = rollout(make_env(cfg), make(range(32)), SEEDS[:32], record=True)
    assert len({r.steps for r in together}) > 2
    for k in range(32):
        (single,) = rollout(make_env(cfg), make([k]), [SEEDS[k]], record=True)
        assert lines(together[k]) == lines(single), k


@pytest.mark.parametrize("draw, args", [("uniform", (-1.0, 1.0)),
                                        ("standard_normal", ())])
def test_lane_noise_is_each_lanes_per_tick_draws(draw, args):
    """LaneNoise draws a block of ticks per lane in one call; every lane
    still gets what its generator gives drawn two values a tick, across
    block ends and after other lanes leave the lane index mid-block."""
    seeds = [[4, k] for k in range(5)]
    noise = LaneNoise(lambda rng, shape: getattr(rng, draw)(*args, shape))
    noise.begin_episode(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    lane = np.arange(len(seeds))
    for tick in range(2 * NOISE_BLOCK + 3):
        if tick in (7, NOISE_BLOCK, NOISE_BLOCK + 1):
            mask = np.arange(len(rngs)) != tick % len(rngs)
            lane = lane[mask]
            rngs = [rng for rng, k in zip(rngs, mask) if k]
        want = np.array([getattr(rng, draw)(*args, 2) for rng in rngs])
        assert noise.next(lane, tick).tobytes() == want.tobytes(), tick


# lanes whose random episodes end at ticks 378, 528, 663, 1036 and 1200
REFILL_SEEDS = [[7, 13], [9, 7], [7, 0], [9, 12], [7, 1]]


def test_random_episodes_across_noise_refills():
    """Over 1200 ticks, with success anywhere within 1 m of the ring facing
    it within 1.5 rad, lanes of one batch end before, between and after
    LaneNoise's refills at ticks 512 and 1024. Every lane acts on its own
    generator's per-tick draws and gives the records of its run alone."""
    cfg = default_config()
    cfg.episode.success_band, cfg.episode.success_angle = 1.0, 1.5
    cfg.episode.success_hold, cfg.episode.max_steps = 1, 1200
    cfg.validate()
    together = rollout(make_env(cfg), RandomPolicy(), REFILL_SEEDS, record=True)
    assert {r.steps // NOISE_BLOCK for r in together} == {0, 1, 2}
    assert max(r.steps for r in together) == 1200
    for seed, res in zip(REFILL_SEEDS, together):
        rng = np.random.default_rng([RANDOM_POLICY_STREAM, *seed])
        want = np.array([rng.uniform(-1.0, 1.0, 2) for _ in range(res.steps)])
        assert res.track["action"].tobytes() == want.tobytes(), seed
        (single,) = rollout(make_env(cfg), RandomPolicy(), [seed], record=True)
        assert lines(res) == lines(single), seed


def random_population(size, seed=0):
    base = load_checkpoint(CHECKPOINT)[0]
    rng = np.random.default_rng(seed)
    return [PolicyParams(base.layer_sizes,
                         base.flat_params + rng.normal(0.0, 0.05, base.flat_params.size))
            for _ in range(size)]


def test_forward_rows_do_not_depend_on_batch_or_population():
    population = random_population(64)
    obs = np.random.default_rng(1).uniform(-5.0, 5.0, (64 * 16, 22))
    whole = batch_actions(NetworkPolicy(population), obs).reshape(64, 16, 2)
    for p in (0, 31, 63):
        rows = obs.reshape(64, 16, 22)[p]
        for batch in (1, 2, 7, 16):
            got = batch_actions(NetworkPolicy(population[p]), rows[:batch])
            assert got.tobytes() == whole[p, :batch].tobytes()
        alone = batch_actions(NetworkPolicy(population[p]), rows[3:4])
        assert alone.tobytes() == whole[p, 3].tobytes()
    single = population[0]
    big = np.random.default_rng(2).uniform(-5.0, 5.0, (1024, 22))
    full = batch_actions(NetworkPolicy(single), big)
    for batch in (1, 2, 7, 64, 128):
        for k in (0, batch - 1):
            part = batch_actions(NetworkPolicy(single), big[k:k + batch])
            assert part[0].tobytes() == full[k].tobytes()


def test_finished_episodes_are_not_stepped():
    """On a batch whose episodes end at different ticks, the rows passed to
    env.step sum to the episodes' steps: no finished lane is ever stepped."""
    env = make_env(default_config().validate())
    rows = []
    step = env.step
    env.step = lambda actions: rows.append(len(actions)) or step(actions)
    results = rollout(env, SffmPolicy(), SEEDS[:16])
    assert len({r.steps for r in results}) > 8
    assert sum(rows) == sum(r.steps for r in results)


def returns(results):
    return np.array([r.ret for r in results]).tobytes()


def test_cem_candidate_return_does_not_depend_on_population_size():
    """train_cem's scoring: candidate i drives its block of lanes, one per
    episode seed, inside the whole population's batch. The episodes end at
    scattered ticks, so the population drops finished lanes and, halving by
    halving, the weights of finished candidates; every candidate still
    scores byte-identically to itself alone, and so does a rerun."""
    env = make_env(default_config().validate())
    population = random_population(64, seed=3)
    seeds = [[0, 1, 0, e] for e in range(2)]
    policy = NetworkPolicy(population)
    together = rollout(env, policy, seeds * 64)
    assert len({r.steps for r in together}) > 32
    assert len(policy._layers[0][0]) < 64 // 4    # gathered at least twice
    assert returns(rollout(env, policy, seeds * 64)) == returns(together)
    for i in range(64):
        own = rollout(env, NetworkPolicy(population[i]), seeds)
        assert returns(own) == returns(together[2 * i:2 * i + 2]), i
    for i in (0, 17, 62):
        few = rollout(env, NetworkPolicy(population[i:i + 2]), seeds * 2)
        assert returns(few) == returns(together[2 * i:2 * i + 4])
