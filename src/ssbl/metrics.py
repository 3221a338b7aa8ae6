"""Objective social-appropriateness metrics over trajectory logs, and the
paired baseline-vs-policy comparison."""

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


def episode_stats(initial_agents: list[dict], records: list[dict],
                  prox: ProxemicsConfig) -> dict:
    """Metrics of one episode from its header agents and step records."""
    if not records:
        raise ValueError("episode has no step records")
    pos = np.array([[(a["x"], a["y"]) for a in agents] for agents in
                    [initial_agents] + [rec["agents"] for rec in records]])
    return _stats(pos, [rec["reward"]["total"] for rec in records],
                  bool(records[-1]["success"]), prox)


def _stats(pos: np.ndarray, totals: list[float], success: bool,
           prox: ProxemicsConfig) -> dict:
    """Metrics of one episode from the positions of the states it passed
    through (T + 1, N, 2) and its per-step reward totals."""
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


def aggregate_stats(stats: list[dict]) -> SocialMetrics:
    if not stats:
        raise ValueError("no episodes to aggregate")

    def mean(key):
        return float(np.mean([s[key] for s in stats]))

    return SocialMetrics(
        success_rate=float(np.mean([1.0 if s["success"] else 0.0 for s in stats])),
        mean_return=mean("return"),
        time_to_join=mean("time_to_join"),
        path_length=mean("path_length"),
        personal_violation_steps=mean("personal_violation_steps"),
        sha_total_displacement=mean("sha_total_displacement"),
        final_formation_error=mean("final_formation_error"),
    )


def compute_metrics(paths: list[str | Path],
                    prox: ProxemicsConfig) -> SocialMetrics:
    """Aggregate metrics over trajectory files written by `simulate`."""
    stats = []
    for path in paths:
        header, records = read_trajectory(path)
        stats.append(episode_stats(header["agents"], records, prox))
    return aggregate_stats(stats)


def live_stats(env, policy, seeds, prox: ProxemicsConfig) -> list[dict]:
    """episode_stats per seed of one recorded rollout of all seeds, from
    the same positions and rewards its trajectory files would hold."""
    return [_stats(res.track["pos"], res.track["total"].tolist(), res.success, prox)
            for res in rollout(env, policy, seeds, record=True)]


def _mean_return(stats: list[dict]) -> float:
    return float(np.mean([s["return"] for s in stats]))


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
    out_dir.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg)
    prox = cfg.proxemics
    seeds = [[int(master_seed), i] for i in range(episodes)]

    evaluated: dict[str, list[dict]] = {}
    for spec in (policy_a, policy_b):
        if spec not in evaluated:
            evaluated[spec] = live_stats(env, make_policy(spec, cfg), seeds, prox)

    anchors = {}
    for name, policy in (("sffm", SffmPolicy()), ("random", RandomPolicy())):
        if name in evaluated:
            anchors[name] = _mean_return(evaluated[name])
        else:
            anchors[name] = mean_return(evaluate_policy(env, policy, seeds))

    stats_a = evaluated[policy_a]
    stats_b = evaluated[policy_b]
    rel = {spec: relative_performance(_mean_return(evaluated[spec]),
                                      anchors["sffm"], anchors["random"])
           for spec in (policy_a, policy_b)}

    deltas = []
    for i, (sa, sb) in enumerate(zip(stats_a, stats_b)):
        deltas.append({
            "episode": i,
            "seed": seeds[i],
            "return_a": sa["return"],
            "return_b": sb["return"],
            "delta_return": sb["return"] - sa["return"],
            "success_a": sa["success"],
            "success_b": sb["success"],
        })

    report = CompareReport(
        policy_a=policy_a,
        policy_b=policy_b,
        metrics={policy_a: aggregate_stats(stats_a).to_dict(),
                 policy_b: aggregate_stats(stats_b).to_dict()},
        relative_percent=rel,
        paired_deltas=deltas,
        config_hash=config_hash(cfg),
        master_seed=int(master_seed),
        episodes=episodes,
    )

    dump_json(report.to_dict(), out_dir / "report.json")

    csv_fields = ["episode", "policy", "return", "steps", "success",
                  "time_to_join", "path_length", "personal_violation_steps",
                  "sha_total_displacement", "final_formation_error"]
    with open(out_dir / "compare.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_fields)
        for name, stats in ((policy_a, stats_a), (policy_b, stats_b)):
            for i, s in enumerate(stats):
                writer.writerow([i, name, s["return"], s["steps"],
                                 int(s["success"]), s["time_to_join"],
                                 s["path_length"], s["personal_violation_steps"],
                                 s["sha_total_displacement"],
                                 s["final_formation_error"]])
    return report
