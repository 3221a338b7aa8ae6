"""Output checks for the ssbl benchmark, computed apart from the package.

Nothing here imports ssbl. The force laws are re-derived from the formulas in
the `ssbl.forces` docstring, trajectory files are parsed with the standard
json module, and reports are re-checked against their own numbers. Each
check returns a list of problems; an empty list means the output passed.
Configuration values arrive as the plain dict that `ssbl.config.config_to_dict`
produces, because they are inputs, not results.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EPS_DIR = 1e-9        # a norm at or below this makes a force zero (ssbl.forces)
FORCE_TOL = 1e-9      # r1 / r5 recomputed from the force laws
ARITH_TOL = 1e-12     # quantities the program computes with the same formula
SUM_TOL = 1e-9        # sums that may be accumulated in another order

COMPARE_CSV_FIELDS = ["episode", "policy", "return", "steps", "success",
                      "time_to_join", "path_length", "personal_violation_steps",
                      "sha_total_displacement", "final_formation_error"]
MEAN_FIELDS = ("time_to_join", "path_length", "personal_violation_steps",
               "sha_total_displacement", "final_formation_error")


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    r = np.mod(a, 2.0 * math.pi)
    return np.where(r > math.pi, r - 2.0 * math.pi, r)


# -- the conversation force field ---------------------------------------------


def ospace_of(shas: np.ndarray, s_min: float) -> tuple[np.ndarray, float]:
    """Centroid of the SHAs and their mean distance from it, floored at s_min."""
    center = shas.mean(axis=0)
    radius = float(np.hypot(*(shas - center).T).mean())
    return center, max(s_min, radius)


def field_at(p: np.ndarray, others: np.ndarray, center: np.ndarray,
             radius: float, prox: dict) -> np.ndarray:
    """Repulsion + equality + cohesion at position p from neighbors `others`."""
    off = others - p
    dist = np.hypot(off[:, 0], off[:, 1])
    personal = dist <= prox["d_personal"]
    social = dist <= prox["d_social"]
    public = dist <= prox["d_public"]
    force = np.zeros(2)
    if personal.any():
        push = off[personal].sum(axis=0)
        norm = math.hypot(*push)
        if norm > EPS_DIR:
            mag = (prox["d_personal"] - dist[personal].min()) ** 2
            force -= mag * push / norm
    n_social = int(social.sum())
    if n_social:
        centroid = (p + others[social].sum(axis=0)) / (n_social + 1)
        spread = (math.hypot(*(centroid - p))
                  + np.hypot(*(centroid - others[social]).T).sum()) / (n_social + 1)
        r = centroid - p
        norm = math.hypot(*r)
        if norm > EPS_DIR:
            force += (1.0 - spread / norm) * r
    if public.any():
        alpha = public.sum() / (n_social + 1)
        r = center - p
        norm = math.hypot(*r)
        if norm > EPS_DIR:
            force += alpha * (1.0 - radius / norm) * r
    return force


def reference_rewards(pre: np.ndarray, post: np.ndarray, cfg: dict) -> tuple[float, float]:
    """r1 and r5 of one tick from the pre- and post-tick positions (N, 2),
    robot first: the pre-tick field at each agent's midpoint, dotted with its
    displacement."""
    prox = cfg["proxemics"]
    center, radius = ospace_of(pre[1:], prox["s_min"])
    disp = post - pre
    mid = (pre + post) * 0.5
    r1 = float(field_at(mid[0], pre[1:], center, radius, prox) @ disp[0])
    r5 = 0.0
    for j in range(1, len(pre)):
        others = np.delete(pre, j, axis=0)
        r5 -= float(field_at(mid[j], others, center, radius, prox) @ disp[j])
    return cfg["reward_weights"]["sign_r1"] * r1, r5


# -- trajectory files -------------------------------------------------------------


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0], lines[1:]


def _agent_rows(agents: list[dict]) -> np.ndarray:
    return np.array([[a["x"], a["y"], a["vx"], a["vy"], a["theta"]] for a in agents])


def check_trajectory(path: str | Path, entry: dict, cfg: dict,
                     sample: np.random.Generator,
                     n_force_samples: int) -> tuple[list[str], dict]:
    """Check one episode file against the physics, the reward definitions
    and its manifest entry. Returns (problems, the episode's metrics
    recomputed from the file)."""
    world, prox = cfg["world"], cfg["proxemics"]
    w, episode = cfg["reward_weights"], cfg["episode"]
    dt, side = world["dt"], world["floor_side"]
    name = Path(path).name
    header, records = read_jsonl(path)
    problems: list[str] = []

    def bad(msg):
        problems.append(f"{name}: {msg}")

    if not records:
        bad("no step records")
        return problems, {}
    ids = [(a["id"], a["role"]) for a in header["agents"]]
    expected_ids = [(0, "robot")] + [(i, "sha") for i in range(1, len(ids))]
    if ids != expected_ids:
        bad(f"header agents {ids}, expected {expected_ids}")
    for rec in records:
        if [(a["id"], a["role"]) for a in rec["agents"]] != ids:
            bad(f"t={rec['t']}: agent ids or roles changed")
            return problems, {}

    T = len(records)
    states = np.stack([_agent_rows(header["agents"])]
                      + [_agent_rows(r["agents"]) for r in records])  # (T+1, N, 5)
    pos, vel, heading = states[:, :, 0:2], states[:, :, 2:4], states[:, :, 4]
    reward = {k: np.array([r["reward"][k] for r in records])
              for k in ("r1", "r2", "r3", "r4", "r5", "total")}
    action = np.array([r["action"] for r in records])
    done = [r["done"] for r in records]
    success = [r["success"] for r in records]

    # bookkeeping
    if [r["t"] for r in records] != list(range(1, T + 1)):
        bad("step indices are not 1..T")
    if T != entry["steps"]:
        bad(f"{T} records, manifest says {entry['steps']} steps")
    if done != [False] * (T - 1) + [True]:
        bad("done must be set on the last record only")
    if success[:-1] != [False] * (T - 1) or success[-1] != entry["success"]:
        bad("success flags disagree with the manifest")
    if not success[-1] and T != episode["max_steps"]:
        bad(f"unsuccessful episode ended after {T} of {episode['max_steps']} steps")

    # kinematics
    if not ((pos >= 0.0) & (pos <= side)).all():
        bad("an agent left the floor")
    speed = np.hypot(vel[..., 0], vel[..., 1])
    if (speed > world["v_max"] * (1.0 + ARITH_TOL)).any():
        bad(f"speed {speed.max()} exceeds v_max {world['v_max']}")
    turn = np.abs(wrap_angle(heading[1:] - heading[:-1]))
    if (turn > world["omega_max"] * dt * (1.0 + 1e-9) + ARITH_TOL).any():
        bad(f"heading change {turn.max()} exceeds omega_max*dt")
    if (np.abs(heading) > math.pi).any():
        bad("heading outside (-pi, pi]")
    free = (pos[1:] > 0.0) & (pos[1:] < side)
    drift = np.abs(pos[1:] - (pos[:-1] + vel[1:] * dt))
    if (drift[free] > ARITH_TOL * (1.0 + np.abs(pos[1:][free]))).any():
        bad(f"position != previous position + velocity*dt (off by {drift[free].max()})")
    if (np.abs(action) > 1.0).any():
        bad("action outside [-1, 1]")

    # rewards
    if (reward["r3"] != -dt).any():
        bad("r3 != -dt")
    if (reward["r2"] != np.where(reward["r1"] >= 0.0, dt, 0.0)).any():
        bad("r2 != dt exactly when r1 >= 0")
    r4 = np.zeros(T)
    if success[-1]:
        r4[-1] = w["success_bonus"]
    if (reward["r4"] != r4).any():
        bad("r4 is not the bonus on the success step alone")
    total = (w["w_e"] * (w["w1"] * reward["r1"] + w["w2"] * reward["r2"]
                         + w["w3"] * reward["r3"] + w["w4"] * reward["r4"])
             + w["w_a"] * w["w5"] * reward["r5"])
    off = np.abs(total - reward["total"])
    if (off > ARITH_TOL * (1.0 + np.abs(total))).any():
        bad(f"total != weighted sum of r1..r5 (off by {off.max()})")
    ret = 0.0
    for r in reward["total"]:
        ret += float(r)
    if not close(ret, entry["return"], SUM_TOL):
        bad(f"step totals sum to {ret}, manifest return is {entry['return']}")

    # r1 and r5 from the force laws on sampled ticks
    for i in sample.choice(T, size=min(n_force_samples, T), replace=False):
        r1, r5 = reference_rewards(pos[i], pos[i + 1], cfg)
        if abs(r1 - reward["r1"][i]) > FORCE_TOL or abs(r5 - reward["r5"][i]) > FORCE_TOL:
            bad(f"t={i + 1}: r1, r5 = {reward['r1'][i]}, {reward['r5'][i]}; "
                f"force laws give {r1}, {r5}")

    robot = pos[:, 0]
    to_shas = np.moveaxis(pos[1:, 1:] - robot[1:, None], -1, 0)     # (2, T, N-1)
    sha_steps = np.moveaxis(np.diff(pos[:, 1:], axis=0), -1, 0)     # (2, T, N-1)
    center, radius = ospace_of(pos[-1, 1:], prox["s_min"])
    stats = {
        "return": ret,
        "success": bool(success[-1]),
        "time_to_join": records[-1]["t"] if success[-1] else T,
        "path_length": float(np.hypot(*np.diff(robot, axis=0).T).sum()),
        "personal_violation_steps":
            int((np.hypot(*to_shas) <= prox["d_personal"]).any(axis=1).sum()),
        "sha_total_displacement": float(np.hypot(*sha_steps).sum()),
        "final_formation_error":
            float(np.abs(np.hypot(*(pos[-1] - center).T) - radius).max()),
    }
    return problems, stats


def check_simulate_output(out_dir: Path, episodes: int, seed: int, cfg: dict,
                          sample: np.random.Generator, n_force_samples: int,
                          metrics: dict) -> dict[int | None, list[str]]:
    """Check a `ssbl simulate` output directory and the metrics
    `compute_metrics` returned for it. Problems are keyed by episode index,
    or None for problems of the whole directory."""
    problems: dict[int | None, list[str]] = {}
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    runs = manifest.get("runs", [])
    whole = [f"manifest: {k} is {manifest.get(k)!r}, expected {v!r}"
             for k, v in (("episodes", episodes), ("master_seed", seed),
                          ("policy", "random")) if manifest.get(k) != v]
    if [r.get("episode") for r in runs] != list(range(episodes)):
        whole.append("manifest runs are not episodes 0..n-1")
        runs = []
    stats = []
    for run in runs:
        found, st = check_trajectory(out_dir / run["file"], run, cfg, sample,
                                     n_force_samples)
        if found:
            problems[run["episode"]] = found
        stats.append(st)
    if stats and all(stats):
        expected = {"success_rate": float(np.mean([s["success"] for s in stats])),
                    "mean_return": float(np.mean([s["return"] for s in stats]))}
        for key in MEAN_FIELDS:
            expected[key] = float(np.mean([s[key] for s in stats]))
        for key, value in expected.items():
            if not close(metrics[key], value, SUM_TOL):
                whole.append(f"compute_metrics {key} = {metrics[key]}, "
                             f"the files give {value}")
    if whole:
        problems[None] = whole
    return problems


def same_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"{dir_a.name} and {dir_b.name} hold different files"]
    return [f"{name} differs between {dir_a.name} and {dir_b.name}"
            for name in names_a
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


# -- paired comparison ------------------------------------------------------------


def check_compare_output(out_dir: Path, episodes: int, seed: int,
                         policy_a: str, policy_b: str,
                         max_steps: int) -> list[str]:
    """Check a `ssbl compare` report and CSV against each other and against
    the method's properties."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    with open(out_dir / "compare.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != COMPARE_CSV_FIELDS:
        return [f"compare.csv header {rows[0]}"]
    rows = [dict(zip(COMPARE_CSV_FIELDS, r)) for r in rows[1:]]
    if len(rows) != 2 * episodes:
        problems.append(f"compare.csv has {len(rows)} rows, expected {2 * episodes}")
    if report["episodes"] != episodes or report["master_seed"] != seed:
        problems.append("report episodes or master_seed differ from the request")
    if report["relative_percent"].get(policy_a) != 100.0:
        problems.append(f"sffm scores {report['relative_percent'].get(policy_a)}% "
                        f"against itself, expected exactly 100%")

    by_policy = {policy_a: [], policy_b: []}
    for r in rows:
        by_policy.setdefault(r["policy"], []).append(r)
        n = int(r["steps"])
        if not 1 <= n <= max_steps:
            problems.append(f"{r['policy']} episode {r['episode']}: {n} steps")
        if r["success"] == "1" and float(r["time_to_join"]) != n:
            problems.append(f"{r['policy']} episode {r['episode']}: "
                            f"joined at {r['time_to_join']} but ran {n} steps")
    deltas = report["paired_deltas"]
    if len(deltas) != episodes:
        problems.append(f"{len(deltas)} paired deltas, expected {episodes}")
    for i, d in enumerate(deltas):
        if d["episode"] != i or d["seed"] != [seed, i]:
            problems.append(f"paired delta {i} has episode {d['episode']}, seed {d['seed']}")
        if d["delta_return"] != d["return_b"] - d["return_a"]:
            problems.append(f"episode {i}: delta_return != return_b - return_a")
        for key, policy in (("return_a", policy_a), ("return_b", policy_b)):
            listed = by_policy[policy]
            if i < len(listed) and float(listed[i]["return"]) != d[key]:
                problems.append(f"episode {i}: {key} differs from compare.csv")

    for policy, listed in by_policy.items():
        if policy not in report["metrics"] or len(listed) != episodes:
            problems.append(f"compare.csv lists {len(listed)} rows for {policy}")
            continue
        metrics = report["metrics"][policy]
        means = {"mean_return": np.mean([float(r["return"]) for r in listed]),
                 "success_rate": np.mean([float(r["success"]) for r in listed])}
        for key in MEAN_FIELDS:
            means[key] = np.mean([float(r[key]) for r in listed])
        for key, value in means.items():
            if not close(metrics[key], float(value), SUM_TOL):
                problems.append(f"{policy}: report {key} {metrics[key]}, "
                                f"compare.csv mean {value}")
    if report["metrics"].get(policy_a, {}).get("success_rate", 0.0) < 0.9:
        problems.append(f"sffm success rate "
                        f"{report['metrics'].get(policy_a, {}).get('success_rate')} < 0.9")
    return problems


# -- training -----------------------------------------------------------------------


def check_train_report(report: dict, iterations: int, rescored: float,
                       warm_start: float) -> list[str]:
    """Check a CEM report against its own numbers, the held-out re-score of
    the returned checkpoint and the warm start's held-out return."""
    problems = []
    log = report["iterations"]
    if [it["iteration"] for it in log] != list(range(iterations)):
        problems.append(f"iteration log holds {len(log)} entries, expected {iterations}")
    for it in log:
        if not (it["max_return"] >= it["elite_mean"] - ARITH_TOL
                and it["elite_mean"] >= it["mean_return"] - ARITH_TOL):
            problems.append(f"iteration {it['iteration']}: max {it['max_return']}, "
                            f"elite mean {it['elite_mean']}, mean {it['mean_return']} "
                            f"out of order")
    final, base, rand = (report["final_return"], report["baseline_return"],
                         report["random_return"])
    expected = 100.0 * (final - rand) / (base - rand)
    if not close(report["relative_percent"], expected, ARITH_TOL):
        problems.append(f"relative_percent {report['relative_percent']}, "
                        f"its own returns give {expected}")
    if report["relative_percent"] < 50.0:
        problems.append(f"relative_percent {report['relative_percent']} < 50")
    if not close(rescored, final, ARITH_TOL):
        problems.append(f"returned checkpoint scores {rescored} on the held-out "
                        f"seeds, report says {final}")
    if final < warm_start - ARITH_TOL * max(1.0, abs(warm_start)):
        problems.append(f"final return {final} is below the warm start's {warm_start}")
    return problems
