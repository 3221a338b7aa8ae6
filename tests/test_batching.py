"""The "any batch size" half of the determinism contract: an episode, a
forward pass or a CEM candidate gives the same bytes alone and inside any
batch or population."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import lane_agents
from ssbl.config import default_config
from ssbl.policies import (NetworkPolicy, PolicyParams, RandomPolicy,
                           SffmPolicy, load_checkpoint)
from ssbl.training import make_env, rollout

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "checkpoint.json"
SEEDS = [[9, i] for i in range(1024)]


def policies():
    return {"sffm": SffmPolicy, "random": RandomPolicy,
            "checkpoint": lambda: NetworkPolicy(load_checkpoint(CHECKPOINT)[0])}


def lines(res):
    return [json.dumps(rec) for rec in res.records]


def alone(name, k):
    (res,) = rollout(make_env(default_config().validate()), policies()[name](),
                     [SEEDS[k]], record=True)
    return res


def check_batch(name, batch, record=True):
    """Episodes 0, batch // 2 and batch - 1 of a batch against each run
    alone: their step records, or without `record` (the random policy's
    1024 full-horizon episodes) their return and final state."""
    env = make_env(default_config().validate())
    results = rollout(env, policies()[name](), SEEDS[:batch], record=record)
    for k in {0, batch // 2, batch - 1}:
        single = alone(name, k)
        assert (results[k].ret, results[k].steps) == (single.ret, single.steps)
        if record:
            assert lines(results[k]) == lines(single), (batch, k)
        else:
            env1 = make_env(default_config().validate())
            rollout(env1, policies()[name](), [SEEDS[k]])
            assert lane_agents(env, k) == lane_agents(env1, 0)


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


def random_population(size, seed=0):
    base = load_checkpoint(CHECKPOINT)[0]
    rng = np.random.default_rng(seed)
    return [PolicyParams(base.layer_sizes,
                         base.flat_params + rng.normal(0.0, 0.05, base.flat_params.size))
            for _ in range(size)]


def test_forward_rows_do_not_depend_on_batch_or_population():
    population = random_population(64)
    obs = np.random.default_rng(1).uniform(-5.0, 5.0, (64 * 16, 22))
    whole = NetworkPolicy(population).act(obs, None).reshape(64, 16, 2)
    for p in (0, 31, 63):
        rows = obs.reshape(64, 16, 22)[p]
        for batch in (1, 2, 7, 16):
            got = NetworkPolicy(population[p]).act(rows[:batch], None)
            assert got.tobytes() == whole[p, :batch].tobytes()
        alone = NetworkPolicy(population[p]).act(rows[3:4], None)
        assert alone.tobytes() == whole[p, 3].tobytes()
    single = population[0]
    big = np.random.default_rng(2).uniform(-5.0, 5.0, (1024, 22))
    full = NetworkPolicy(single).act(big, None)
    for batch in (1, 2, 7, 64, 128):
        for k in (0, batch - 1):
            part = NetworkPolicy(single).act(big[k:k + batch], None)
            assert part[0].tobytes() == full[k].tobytes()


def test_cem_candidate_return_does_not_depend_on_population_size():
    """train_cem's scoring: candidate i drives its block of lanes, one per
    episode seed, inside the whole population's batch."""
    env = make_env(default_config().validate())
    population = random_population(64, seed=3)
    seeds = [[0, 1, 0, e] for e in range(2)]
    together = rollout(env, NetworkPolicy(population), seeds * 64)
    for i in (0, 17, 63):
        own = rollout(env, NetworkPolicy(population[i]), seeds)
        assert [r.ret for r in own] == [r.ret for r in together[2 * i:2 * i + 2]]
        few = rollout(env, NetworkPolicy(population[i:i + 2]), seeds * 2)
        assert [r.ret for r in few[:2]] == [r.ret for r in own]
