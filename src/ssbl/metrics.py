"""Objective social-appropriateness metrics over trajectory logs, and the
paired baseline-vs-policy comparison."""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import FullConfig, config_hash
from .forces import estimate_ospace
from .geometry import AgentState, ProxemicsConfig, Role, Vec2
from .policies import RandomPolicy, SffmPolicy, check_input_width, make_policy
from .trajlog import agent_to_obj, read_trajectory
from .training import make_env, relative_performance, rollout


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


def _agent_pos(obj: dict) -> Vec2:
    return Vec2(obj["x"], obj["y"])


def episode_stats(initial_agents: list[dict], records: list[dict],
                  prox: ProxemicsConfig) -> dict:
    """Metrics of one episode from its header agents and step records."""
    if not records:
        raise ValueError("episode has no step records")
    robot_path = [_agent_pos(initial_agents[0])]
    sha_prev = [_agent_pos(a) for a in initial_agents[1:]]
    total = 0.0
    violations = 0
    sha_disp = 0.0
    for rec in records:
        agents = rec["agents"]
        robot = _agent_pos(agents[0])
        robot_path.append(robot)
        total += rec["reward"]["total"]
        near = False
        for j, a in enumerate(agents[1:]):
            pos = _agent_pos(a)
            sha_disp += (pos - sha_prev[j]).norm()
            if (pos - robot).norm() <= prox.d_personal:
                near = True
            sha_prev[j] = pos
        violations += 1 if near else 0

    last = records[-1]
    success = bool(last["success"])
    finals = [AgentState(id=a["id"], role=Role(a["role"]), position=_agent_pos(a),
                         velocity=Vec2(a["vx"], a["vy"]), heading=a["theta"])
              for a in last["agents"]]
    ospace = estimate_ospace(finals[1:], prox.s_min)
    formation_err = max(abs((a.position - ospace.center).norm() - ospace.radius)
                        for a in finals)
    return {
        "return": total,
        "steps": len(records),
        "success": success,
        "time_to_join": last["t"] if success else len(records),
        "path_length": sum((b - a).norm()
                           for a, b in zip(robot_path, robot_path[1:])),
        "personal_violation_steps": violations,
        "sha_total_displacement": sha_disp,
        "final_formation_error": formation_err,
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
    """episode_stats of a recorded rollout per seed, scored in memory from
    the records a trajectory file would hold."""
    stats = []
    for seed in seeds:
        res = rollout(env, policy, seed, record=True)
        agents = [agent_to_obj(a) for a in res.initial_agents]
        stats.append(episode_stats(agents, res.records, prox))
    return stats


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
            policy = make_policy(spec)
            check_input_width(policy, cfg.episode.spawn.n_shas)
            evaluated[spec] = live_stats(env, policy, seeds, prox)

    anchors = {}
    for name, policy in (("sffm", SffmPolicy()), ("random", RandomPolicy())):
        if name in evaluated:
            anchors[name] = _mean_return(evaluated[name])
        else:
            anchors[name] = _mean_return(live_stats(env, policy, seeds, prox))

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

    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

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
