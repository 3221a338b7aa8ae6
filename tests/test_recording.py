"""Recorded rollouts: `trajlog.TrajectoryWriter`, which `simulate` hands
`training.rollout` to write the files while the batch steps, writes the
bytes `write_trajectory` writes for the whole track; its memory does not
grow with episode length; a run that stops leaves no file behind; and a
non-finite state or command names the tick and the seed it came from."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from ssbl import cli
from ssbl.cli import main
from ssbl.config import config_to_dict, default_config
from ssbl.geometry import SimulationFault
from ssbl.policies import SffmPolicy
from ssbl.trajlog import BLOCK_TICKS, TrajectoryWriter, write_trajectory
from ssbl.training import make_env, rollout


class NanAt:
    """A policy that stands still, except that the action for `tick` (the
    `t` of the step record it would give) of the episode of seed index
    `episode` is NaN."""

    def __init__(self, episode: int, tick: int):
        self.episode, self.tick = episode, tick

    def begin_episode(self, seeds) -> None:
        pass

    def act(self, env) -> np.ndarray:
        action = np.zeros((len(env.lane), 2))
        if env.t + 1 == self.tick:
            action[env.lane == self.episode] = np.nan
        return action


class HalfStill(SffmPolicy):
    """The baseline in the episodes of odd seed index; the robots of the
    others stand still until the horizon."""

    def act(self, env) -> np.ndarray:
        action = super().act(env)
        action[env.lane % 2 == 0] = 0.0
        return action


def test_writer_files_equal_the_whole_tracks_written(tmp_path):
    """Episodes that end inside the first block, inside the second, and at
    the horizon, which is the end of the second block: each file the writer
    appends block by block holds the bytes write_trajectory writes for the
    episode's track."""
    cfg = default_config()
    cfg.episode.max_steps = 2 * BLOCK_TICKS
    cfg.validate()
    seeds = [[3, i] for i in range(8)]
    out = tmp_path / "streamed"
    out.mkdir()
    with TrajectoryWriter(out, "0123456789abcdef") as writer:
        streamed = rollout(make_env(cfg), HalfStill(), seeds, record=writer)
    whole = rollout(make_env(cfg), HalfStill(), seeds, record=True)
    steps = sorted(res.steps for res in whole)
    assert steps[0] < BLOCK_TICKS < steps[3] < steps[4] == 2 * BLOCK_TICKS, steps
    for path, res, again in zip(writer.paths, whole, streamed):
        assert (again.ret, again.steps, again.success, again.track) == (
            res.ret, res.steps, res.success, None)
        write_trajectory(tmp_path / "whole.jsonl", "0123456789abcdef", res.seed,
                         res.track, res.success)
        assert path.read_bytes() == (tmp_path / "whole.jsonl").read_bytes(), path.name


def traced_peak(tmp_path, max_steps: int) -> int:
    """The traced peak of memory (bytes) of `simulate --policy random
    --episodes 8` at episode.max_steps = max_steps."""
    doc = config_to_dict(default_config())
    doc["episode"]["max_steps"] = max_steps
    config = tmp_path / f"steps{max_steps}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["simulate", "--policy", "random", "--episodes", "8",
            "--config", str(config), "--out", str(tmp_path / f"runs{max_steps}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_episode_length(tmp_path):
    """A recording that kept every tick until the batch ended traced about
    0.6 MB at 100 steps and 3.8 MB at 800; the writer holds a block of
    ticks per episode, so the two peaks lie within 1.5x of each other."""
    traced_peak(tmp_path, 20)       # the first run's one-time allocations
    short, long = traced_peak(tmp_path, 100), traced_peak(tmp_path, 800)
    assert long <= 1.5 * short, (short, long)


def test_a_fault_names_the_tick_and_the_seed():
    seeds = [[5, i] for i in range(4)]
    with pytest.raises(SimulationFault, match=r"at tick 3 in the episode\(s\) of "
                                              r"seed \[5, 2\]$"):
        rollout(make_env(default_config().validate()), NanAt(2, 3), seeds)


@pytest.mark.parametrize("tick", [3, BLOCK_TICKS + 3])
def test_a_stopped_simulate_leaves_no_file(tmp_path, monkeypatch, capsys, tick):
    """At tick 3 only the headers are written, after BLOCK_TICKS + 3 ticks
    one block of every episode as well; either way the files and the
    manifest of an earlier run into the same directory are gone."""
    out = tmp_path / "runs"
    assert main(["simulate", "--policy", "sffm", "--episodes", "2",
                 "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "make_policy", lambda spec, cfg: NanAt(1, tick))
    assert main(["simulate", "--policy", "random", "--episodes", "4", "--seed", "7",
                 "--out", str(out)]) == 2
    assert f"at tick {tick} in the episode(s) of seed [7, 1]" in capsys.readouterr().err
    assert list(out.iterdir()) == []
