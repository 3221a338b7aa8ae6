"""Objective social-appropriateness metrics over trajectory logs, and the
paired baseline-vs-policy comparison. `episode_stats` is the one reduction of
an episode, from the arrays `trajlog.read_trajectory` parses from a file or
from a live rollout's track."""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import FullConfig, config_hash, dump_json
from .forces import ospace_of
from .geometry import ProxemicsConfig
from .policies import RandomPolicy, SffmPolicy, make_policy
from .trajlog import read_trajectory
from .training import (evaluate_policy, make_env, mean_return,
                       relative_performance, rollout)


@dataclass(slots=True)
class SocialMetrics:
    """Per-episode means over an evaluation batch (success_rate is the
    fraction of successful episodes)."""

    success_rate: float
    mean_return: float
    time_to_join: float
    path_length: float
    personal_violation_steps: float
    sha_total_displacement: float
    final_formation_error: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def episode_stats(pos: np.ndarray, totals: list[float], success: bool,
                  prox: ProxemicsConfig) -> dict:
    """Metrics of one episode from the positions of the states it passed
    through (T + 1, N, 2), its per-step reward totals and whether it
    succeeded: the one reduction of files (`compute_metrics`) and of live
    rollouts (`live_stats`)."""
    step = np.diff(pos, axis=0)
    moved = np.hypot(step[..., 0], step[..., 1])           # (T, N)
    to_robot = pos[1:, 1:] - pos[1:, :1]
    near = np.hypot(to_robot[..., 0], to_robot[..., 1]) <= prox.d_personal
    center, radius = ospace_of(pos[-1, 1:], prox.s_min)
    off = pos[-1] - center
    return {
        "return": sum(totals),
        "steps": len(totals),
        "success": success,
        "time_to_join": len(totals),
        "path_length": float(moved[:, 0].sum()),
        "personal_violation_steps": int(near.any(axis=1).sum()),
        "sha_total_displacement": float(moved[:, 1:].sum()),
        "final_formation_error":
            float(np.abs(np.hypot(off[:, 0], off[:, 1]) - radius).max()),
    }


# the SocialMetrics fields whose per-episode stat has another name
_STAT_OF = {"success_rate": "success", "mean_return": "return"}


def aggregate_stats(stats: list[dict]) -> SocialMetrics:
    """The mean of every per-episode stat over `stats` (`episode_stats`)."""
    if not stats:
        raise ValueError("no episodes to aggregate")
    return SocialMetrics(**{
        f.name: float(np.mean([s[_STAT_OF.get(f.name, f.name)] for s in stats]))
        for f in dataclasses.fields(SocialMetrics)})


def compute_metrics(paths: list[str | Path],
                    prox: ProxemicsConfig) -> SocialMetrics:
    """Aggregate metrics over trajectory files written by `simulate`. A file
    that does not hold one episode is a TrajectoryFormatError naming it
    (`trajlog.read_trajectory`)."""
    return aggregate_stats([episode_stats(*read_trajectory(path)[1:], prox)
                            for path in paths])


def live_stats(env, policy, seeds, prox: ProxemicsConfig) -> list[dict]:
    """episode_stats per seed of one recorded rollout of all seeds, from
    the same positions and rewards its trajectory files would hold."""
    return [episode_stats(res.track["pos"], res.track["total"].tolist(),
                          res.success, prox)
            for res in rollout(env, policy, seeds, record=True)]


# -- paired comparison ---------------------------------------------------------


@dataclass(slots=True)
class CompareReport:
    policy_a: str
    policy_b: str
    metrics: dict            # policy name -> SocialMetrics dict
    relative_percent: dict   # policy name -> percent vs (sffm, random) anchors
    paired_deltas: list[dict]
    config_hash: str
    master_seed: int
    episodes: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_compare(policy_a: str, policy_b: str, episodes: int, cfg: FullConfig,
                master_seed: int, out_dir: str | Path) -> CompareReport:
    """Evaluate two policies on one shared seed list, anchor the relative
    scale with the force-field baseline and the random policy on the same
    seeds, and write report.json plus a per-episode CSV."""
    out_dir = Path(out_dir)
    env = make_env(cfg)
    prox = cfg.proxemics
    seeds = [[int(master_seed), i] for i in range(episodes)]

    evaluated: dict[str, list[dict]] = {}
    for spec in (policy_a, policy_b):
        if spec not in evaluated:
            evaluated[spec] = live_stats(env, make_policy(spec, cfg), seeds, prox)

    metrics = {spec: aggregate_stats(stats) for spec, stats in evaluated.items()}
    anchors = {name: metrics[name].mean_return if name in metrics
               else mean_return(evaluate_policy(env, policy, seeds))
               for name, policy in (("sffm", SffmPolicy()), ("random", RandomPolicy()))}
    rel = {spec: relative_performance(m.mean_return, anchors["sffm"], anchors["random"])
           for spec, m in metrics.items()}

    deltas = [{"episode": i, "seed": seed,
               "return_a": sa["return"], "return_b": sb["return"],
               "delta_return": sb["return"] - sa["return"],
               "success_a": sa["success"], "success_b": sb["success"]}
              for i, (seed, sa, sb) in enumerate(zip(seeds, evaluated[policy_a],
                                                     evaluated[policy_b]))]

    report = CompareReport(
        policy_a=policy_a,
        policy_b=policy_b,
        metrics={spec: m.to_dict() for spec, m in metrics.items()},
        relative_percent=rel,
        paired_deltas=deltas,
        config_hash=config_hash(cfg),
        master_seed=int(master_seed),
        episodes=episodes,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(report.to_dict(), out_dir / "report.json")

    with open(out_dir / "compare.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, ["episode", "policy", *evaluated[policy_a][0]])
        writer.writeheader()
        for name in (policy_a, policy_b):
            writer.writerows({"episode": i, "policy": name, **s,
                              "success": int(s["success"])}
                             for i, s in enumerate(evaluated[name]))
    return report
