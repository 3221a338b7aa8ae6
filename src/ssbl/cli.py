"""Command-line entry point.

Subcommands: simulate | train | eval | compare | features-check.
Exit codes: 0 success, 1 property/assertion failure, 2 I/O or config error
(a negative --seed, an oversized group, CEM draw or PPO run, an unplaceable
spawn, a run driven to a non-finite state and a NaN or infinity bound for an
output included).
Every command steps all its episodes of one policy as one batch in this
process.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import spatial_features
from .config import (ConfigError, FullConfig, config_hash, default_config,
                     dump_json, load_config)
from .geometry import SimulationFault
from .groups import SpawnError
from .metrics import aggregate_stats, live_stats, run_compare
from .policies import make_policy, save_checkpoint
from .trajlog import write_trajectory
from .training import check_run_size, make_env, rollout, train

log = logging.getLogger("ssbl")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _load_cfg(args) -> FullConfig:
    cfg = load_config(args.config) if args.config else default_config()
    return cfg.validate()


def _check_episodes(n: int) -> None:
    if n < 1:
        raise ConfigError(f"--episodes must be at least 1, got {n}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    _check_episodes(args.episodes)
    policy = make_policy(args.policy, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    seeds = [[int(args.seed), i] for i in range(args.episodes)]
    results = rollout(make_env(cfg), policy, seeds, record=True)
    cfg_hash = config_hash(cfg)
    entries = []
    for i, res in enumerate(results):
        name = f"episode_{i:03d}.jsonl"
        write_trajectory(out_dir / name, cfg_hash, res.seed, res.track, res.success)
        entries.append({"file": name, "episode": i, "return": res.ret,
                        "steps": res.steps, "success": res.success})

    manifest = {
        "config_hash": cfg_hash,
        "master_seed": int(args.seed),
        "policy": args.policy,
        "episodes": args.episodes,
        "runs": entries,
    }
    dump_json(manifest, out_dir / "manifest.json")
    print(f"wrote {len(entries)} episodes to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.algo:
        cfg.train.algo = args.algo
    if args.iters is not None:
        cfg.train.iterations = args.iters
    if args.seed is not None:
        cfg.train.master_seed = int(args.seed)
    cfg.validate()
    check_run_size(cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, report = train(cfg.train, cfg)

    # the report first: one that holds a NaN or infinity leaves no checkpoint
    dump_json(report.to_dict(), out_dir / "report.json")
    ckpt = out_dir / "checkpoint.json"
    save_checkpoint(params, ckpt, config_hash=config_hash(cfg),
                    seed=cfg.train.master_seed)
    print(f"trained {report.algo} for {len(report.iterations)} iterations; "
          f"relative performance {report.relative_percent:.2f}% "
          f"(checkpoint: {ckpt})")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    _check_episodes(args.episodes)
    policy = make_policy(args.policy, cfg)
    seeds = [[int(args.seed), i] for i in range(args.episodes)]
    stats = live_stats(make_env(cfg), policy, seeds, cfg.proxemics)

    doc = {
        "policy": args.policy,
        "episodes": args.episodes,
        "master_seed": int(args.seed),
        "config_hash": config_hash(cfg),
        "metrics": aggregate_stats(stats).to_dict(),
        "per_episode": stats,
    }
    text = dump_json(doc, args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    _check_episodes(args.episodes)
    report = run_compare(args.policy_a, args.policy_b, args.episodes, cfg,
                         int(args.seed), args.out)
    for name, pct in report.relative_percent.items():
        print(f"{name}: {pct:.2f}% relative performance")
    return EXIT_OK


def cmd_features_check(args) -> int:
    rng = np.random.default_rng(int(args.seed))
    checks = {}

    grid = rng.normal(0.0, 2.0, (8, 8, 3))
    probs = spatial_features.spatial_softmax(grid)
    checks["softmax_sums_to_one"] = bool(
        np.allclose(probs.sum(axis=(0, 1)), 1.0, atol=1e-6))
    checks["softmax_nonnegative"] = bool((probs >= 0.0).all())

    uniform = spatial_features.spatial_softmax(np.zeros((5, 7, 1)))
    x, y = spatial_features.expected_coordinates(uniform[:, :, 0])
    checks["uniform_expectation_center"] = bool(
        abs(x - 2.0) < 1e-12 and abs(y - 3.0) < 1e-12)

    point = np.zeros((6, 6))
    point[2, 4] = 1.0
    checks["point_mass_presence_one"] = bool(
        abs(spatial_features.presence(point, 2.0, 4.0, k=1.0) - 1.0) < 1e-12)

    pts = [spatial_features.FeaturePoint(2.0, 3.0, 0.8)]
    dmap = spatial_features.delta_map(pts, 6, 6)
    checks["delta_peak_equals_rho"] = bool(abs(dmap[2, 3, 0] - 0.8) < 1e-12)

    grad_report = spatial_features.gradient_check(seed=int(args.seed))
    passed = all(checks.values()) and grad_report["passed"]
    doc = {"checks": checks, "gradient": grad_report, "passed": passed}

    text = dump_json(doc, args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    def common(p, seed_default=0):
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, default=seed_default, metavar="U64",
                       help="master seed, at least 0")

    parser = argparse.ArgumentParser(
        prog="ssbl", description="social-force simulation and behavior learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="roll out a policy and write JSONL trajectories")
    common(p)
    p.add_argument("--policy", required=True,
                   help="'sffm', 'random', or a checkpoint path")
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a policy")
    common(p, seed_default=None)
    p.add_argument("--algo", choices=("cem", "ppo"))
    p.add_argument("--iters", type=int, metavar="N",
                   help="override the configured iteration count")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval",
                       help="evaluate a policy, print or write metrics JSON")
    common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare",
                       help="paired evaluation of two policies on shared seeds")
    common(p)
    p.add_argument("--policy-a", required=True)
    p.add_argument("--policy-b", required=True)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("features-check",
                       help="run the spatial-feature property and gradient suite")
    common(p)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_features_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except (ConfigError, SpawnError, SimulationFault, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
