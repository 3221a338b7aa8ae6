"""Benchmark for ssbl: CEM training, recorded simulation and paired
evaluation, timed end to end and, in a traced run, layer by layer.

    python3 perfbench/run.py --workload cem_train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py              # every workload, one after another

Each workload drives the ssbl package under ./src only through its public
functions and CLI, in this process (closed loop: the next call starts when
the previous one returns). It repeats whole rounds until --seconds have
passed, and at least MIN_ROUNDS rounds, and checks every output with
perfbench/checks.py. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 one round runs untraced and then traced, and the metrics are the
per-layer ones (tracing.PER_LAYER). Run outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import PER_LAYER, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
CHECKPOINT = BENCH_DIR / "inputs" / "checkpoint.json"

WORKLOADS = ("cem_train", "simulate_io", "compare_eval")
END_TO_END = {"setup_s": "s", "round_s": "s", "env_steps_per_s": "steps/s",
              "peak_rss_mb": "MB"}
SETUP_REPEATS = 21


def import_ssbl():
    """Import the package from ./src of this checkout, never from elsewhere."""
    if not (SRC / "ssbl" / "__init__.py").is_file():
        raise SystemExit(f"error: no ssbl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ssbl
    if Path(ssbl.__file__).resolve().parent != (SRC / "ssbl").resolve():
        raise SystemExit(f"error: imported ssbl from {ssbl.__file__}, not {SRC}")
    from ssbl import cli, config, metrics, policies, training
    return cli, config, metrics, policies, training


cli = config = metrics = policies = training = None


def derive(seed: int, *keys: int) -> int:
    """Seed material for round `keys` of a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@contextlib.contextmanager
def env_var(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ssbl {argv[0]} exited with code {rc}")


def traced_if(tracer):
    return tracer.patch() if tracer is not None else contextlib.nullcontext()


@dataclass
class Round:
    """One whole round of a workload: `ops` operations whose program calls
    took `seconds`; `steps` env steps were stepped in `step_seconds`."""

    k: int
    ops: int
    seconds: float
    steps: int
    step_seconds: float
    out: dict = field(default_factory=dict)


# -- workloads ----------------------------------------------------------------------


class CemTrain:
    """train_cem at the standard config (population 64 x 2 episodes, 64-64,
    warm start) for ITERATIONS iterations; one training run per round, each
    with its own master seed. env steps/s comes from the held-out re-scoring
    of the returned checkpoint and of the warm start, which the checks need."""

    name = "cem_train"
    OPS = 1
    MIN_ROUNDS = 4   # every run medians the same number of training seeds
    ITERATIONS = 2

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def run(self, k: int, tracer=None) -> Round:
        cfg = config.default_config()
        cfg.train.iterations = self.ITERATIONS
        cfg.train.master_seed = derive(self.seed, k)
        cfg.validate()
        with traced_if(tracer):
            t0 = time.perf_counter()
            params, report = training.train_cem(cfg.train, cfg)
            train_s = time.perf_counter() - t0

        ckpt = self.work / f"cem-{k}.json"
        policies.save_checkpoint(params, ckpt, config_hash=config.config_hash(cfg),
                                 seed=cfg.train.master_seed)
        loaded, _ = policies.load_checkpoint(ckpt)
        warm = training.distill_baseline(loaded.layer_sizes, cfg, cfg.train.master_seed)
        env = training.make_env(cfg)
        seeds = training.eval_seeds(cfg.train.master_seed, cfg.train.eval_episodes)
        t0 = time.perf_counter()
        rescored = training.evaluate_policy(env, policies.NetworkPolicy(loaded), seeds)
        warm_scored = training.evaluate_policy(
            env, policies.NetworkPolicy(
                policies.PolicyParams(loaded.layer_sizes, warm.astype(np.float32))),
            seeds)
        score_s = time.perf_counter() - t0
        steps = sum(r.steps for r in rescored + warm_scored)
        return Round(k, self.OPS, train_s, steps, score_s,
                     {"report": report.to_dict(), "ckpt": ckpt.read_bytes(),
                      "layer_sizes": loaded.layer_sizes,
                      "rescored": float(np.mean([r.ret for r in rescored])),
                      "warm_start": float(np.mean([r.ret for r in warm_scored]))})

    def check(self, rnd: Round) -> dict:
        out = rnd.out
        problems = checks.check_train_report(out["report"], self.ITERATIONS,
                                             out["rescored"], out["warm_start"])
        if tuple(out["layer_sizes"]) != (22, 64, 64, 2):
            problems.append(f"layer sizes {out['layer_sizes']}, expected 22-64-64-2")
        return {None: problems} if problems else {}

    def cleanup(self, rnd: Round) -> None:
        (self.work / f"cem-{rnd.k}.json").unlink(missing_ok=True)

    def traced_run(self, tally: "Tally", tracer: Tracer) -> dict:
        plain = tally.attempt(self, 0, keep=True)
        traced = tally.attempt(self, 0, tracer=tracer, keep=True)
        if plain and traced:
            for rnd in (plain, traced):
                del rnd.out["report"]["wall_clock_s"]
            if (traced.out["ckpt"], traced.out["report"]) != (plain.out["ckpt"],
                                                              plain.out["report"]):
                tally.flag(traced, {None: ["traced training differs from the untraced one"]})
        extra = layer_metrics(tracer, self.ITERATIONS)
        extra["trace.overhead_frac"] = ratio(traced, plain)
        return extra


class SimulateIO:
    """`ssbl simulate --policy random` with SSBL_THREADS=2 (EPISODES episodes
    of the full 500-step horizon, recorded to JSONL), then
    `metrics.compute_metrics` over the files it wrote."""

    name = "simulate_io"
    EPISODES = 32
    OPS = EPISODES
    MIN_ROUNDS = 1
    THREADS = 2
    FORCE_SAMPLES = 8   # ticks per episode whose r1/r5 are recomputed

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.cfg = config.default_config()

    def simulate(self, k: int, out: Path, threads: int) -> float:
        shutil.rmtree(out, ignore_errors=True)
        with env_var("SSBL_THREADS", str(threads)):
            t0 = time.perf_counter()
            run_cli(["simulate", "--policy", "random", "--episodes", str(self.EPISODES),
                     "--seed", str(derive(self.seed, k)), "--out", str(out)])
            return time.perf_counter() - t0

    def run(self, k: int, tracer=None, threads: int = THREADS, tag: str = "") -> Round:
        out = self.work / f"sim-{k}{tag}"
        with traced_if(tracer):
            sim_s = self.simulate(k, out, threads)
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            files = [out / r["file"] for r in manifest["runs"]]
            t0 = time.perf_counter()
            result = metrics.compute_metrics(files, self.cfg.proxemics)
            analyse_s = time.perf_counter() - t0
        steps = sum(r["steps"] for r in manifest["runs"])
        rnd = Round(k, self.OPS, sim_s + analyse_s, steps, sim_s,
                    {"dir": out, "metrics": result.to_dict(), "analyse_s": analyse_s})
        if k == 0 and tracer is None and not tag:
            # the determinism contract: the same files at any SSBL_THREADS
            rnd.out["rerun"] = self.work / "sim-0-threads1"
            self.simulate(0, rnd.out["rerun"], 1)
        return rnd

    def check(self, rnd: Round) -> dict:
        problems = checks.check_simulate_output(
            rnd.out["dir"], self.EPISODES, derive(self.seed, rnd.k),
            config.config_to_dict(self.cfg), np.random.default_rng([self.seed, rnd.k]),
            self.FORCE_SAMPLES, rnd.out["metrics"])
        if "rerun" in rnd.out:
            found = checks.same_files(rnd.out["dir"], rnd.out["rerun"])
            if found:
                problems.setdefault(None, []).extend(found)
        return problems

    def cleanup(self, rnd: Round) -> None:
        shutil.rmtree(rnd.out["dir"], ignore_errors=True)
        if "rerun" in rnd.out:
            shutil.rmtree(rnd.out["rerun"], ignore_errors=True)

    def traced_run(self, tally: "Tally", tracer: Tracer) -> dict:
        pooled, single = [], []
        order = [(self.THREADS, pooled), (1, single)]
        for rep in range(3):   # alternate, so that drift hits both sides alike
            for threads, rounds in (order if rep % 2 == 0 else order[::-1]):
                rnd = tally.attempt(self, 0, threads=threads, tag=f"-{threads}-{rep}",
                                    keep=True)
                if rnd:
                    rounds.append(rnd)
        traced = tally.attempt(self, 0, tracer=tracer, threads=1, tag="-traced", keep=True)
        extra = layer_metrics(tracer, 0)
        if pooled and single and traced:
            for rnd in (single[0], traced):
                found = checks.same_files(pooled[0].out["dir"], rnd.out["dir"])
                if found:
                    tally.flag(rnd, {None: found})
            sizes = sum(p.stat().st_size for p in pooled[0].out["dir"].glob("episode_*.jsonl"))
            extra["trajlog.bytes_per_step"] = sizes / pooled[0].steps
            extra["cli.pool_speedup"] = (statistics.median(r.step_seconds for r in single)
                                         / statistics.median(r.step_seconds for r in pooled))
            extra["metrics.compute_metrics.analyse_steps_per_s"] = statistics.median(
                r.steps / r.out["analyse_s"] for r in pooled + single)
            extra["trace.overhead_frac"] = traced.seconds / statistics.median(
                r.seconds for r in single)
        for rnd in pooled + single + [traced]:
            if rnd:
                self.cleanup(rnd)
        return extra


class CompareEval:
    """`ssbl compare --policy-a sffm --policy-b <checkpoint>` with EPISODES
    paired episodes; the checkpoint is the fixed input in perfbench/inputs."""

    name = "compare_eval"
    EPISODES = 20
    OPS = 2 * EPISODES
    MIN_ROUNDS = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.max_steps = config.default_config().episode.max_steps

    def run(self, k: int, tracer=None, tag: str = "") -> Round:
        out = self.work / f"cmp-{k}{tag}"
        with traced_if(tracer):
            t0 = time.perf_counter()
            run_cli(["compare", "--policy-a", "sffm", "--policy-b", str(CHECKPOINT),
                     "--episodes", str(self.EPISODES), "--seed", str(derive(self.seed, k)),
                     "--out", str(out)])
            seconds = time.perf_counter() - t0
        with open(out / "compare.csv", encoding="utf-8", newline="") as fh:
            steps = sum(int(row["steps"]) for row in csv.DictReader(fh))
        return Round(k, self.OPS, seconds, steps, seconds, {"dir": out})

    def check(self, rnd: Round) -> dict:
        problems = checks.check_compare_output(
            rnd.out["dir"], self.EPISODES, derive(self.seed, rnd.k), "sffm",
            str(CHECKPOINT), self.max_steps)
        return {None: problems} if problems else {}

    def cleanup(self, rnd: Round) -> None:
        shutil.rmtree(rnd.out["dir"], ignore_errors=True)

    def traced_run(self, tally: "Tally", tracer: Tracer) -> dict:
        plain = tally.attempt(self, 0, keep=True)
        traced = tally.attempt(self, 0, tracer=tracer, tag="-traced", keep=True)
        if plain and traced:
            found = checks.same_files(plain.out["dir"], traced.out["dir"])
            if found:
                tally.flag(traced, {None: found})
        extra = layer_metrics(tracer, 0)
        extra["trace.overhead_frac"] = ratio(traced, plain)
        for rnd in (plain, traced):
            if rnd:
                self.cleanup(rnd)
        return extra


def ratio(traced: Round | None, plain: Round | None) -> float:
    return traced.seconds / plain.seconds if traced and plain else 0.0


# -- running and tallying -------------------------------------------------------------


class Tally:
    """Operations attempted and failed. An operation fails when its program
    call raises or exits non-zero, or when its output fails a check; the
    latter also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def flag(self, rnd: Round, problems: dict) -> None:
        for found in problems.values():
            for msg in found:
                print(f"CHECK FAILED (round {rnd.k}): {msg}", file=sys.stderr)
        self.correct = False
        self.failed += rnd.ops if None in problems else len(problems)

    def attempt(self, workload, k: int, keep: bool = False, **kwargs) -> Round | None:
        """Run and check round k; None if the program failed."""
        try:
            rnd = workload.run(k, **kwargs)
        except Exception:
            traceback.print_exc()
            self.attempted += workload.OPS
            self.failed += workload.OPS
            return None
        self.attempted += rnd.ops
        try:
            problems = workload.check(rnd)
        except Exception as e:
            traceback.print_exc()
            problems = {None: [f"checking the output raised {e!r}"]}
        if problems:
            self.flag(rnd, problems)
        if not keep:
            workload.cleanup(rnd)
        return rnd


def setup_seconds(workload: str) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload,
             str(CHECKPOINT)], capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT_DIR / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = {"cem_train": CemTrain, "simulate_io": SimulateIO,
                "compare_eval": CompareEval}[name](seed, work)
    tally = Tally()
    try:
        if trace:
            tracer = Tracer()
            values = {n: 0.0 for n in PER_LAYER}
            values.update(workload.traced_run(tally, tracer))
            tracer.write(OUT_DIR / f"trace-{name}.npz")
            metrics_out = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}
        else:
            rounds = []
            deadline = time.perf_counter() + seconds
            while len(rounds) < workload.MIN_ROUNDS or time.perf_counter() < deadline:
                rounds.append(tally.attempt(workload, len(rounds)))
                if len(rounds) == 3 and not any(rounds):
                    break   # the program fails every time: no point in going on
            done = [r for r in rounds if r is not None]
            values = {
                "round_s": statistics.median(r.seconds for r in done) if done else 0.0,
                "env_steps_per_s": statistics.median(
                    r.steps / r.step_seconds for r in done) if done else 0.0,
                "peak_rss_mb": peak_rss_mb(),   # before the set-up probes start
            }
            values["setup_s"] = setup_seconds(name)
            metrics_out = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
            print(f"{name}: {len(rounds)} rounds", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics_out}


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{name}: exited with code {done.returncode}")
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    global cli, config, metrics, policies, training
    cli, config, metrics, policies, training = import_ssbl()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
