"""Span tracing of the ssbl layers, from outside the package.

`Tracer.patch()` swaps each traced public function for a wrapper, in every
loaded `ssbl.*` module that refers to it, and restores the originals on exit.
Each call records a span: name, start, end and the span that was open when it
began. Spans stay in memory (compact arrays) until `write()` saves them, and
`layer_metrics()` turns them into the per-layer metrics in PER_LAYER.
A function that a later version of the package no longer has is skipped;
its metrics then read 0, as do those of layers a workload never calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute path, work units per call) -- units feed the per-step metrics
TRACED = [
    ("ssbl.forces", "combined_force", None),
    ("ssbl.forces", "partition_neighbors", None),
    ("ssbl.forces", "repulsion_force", None),
    ("ssbl.forces", "equality_force", None),
    ("ssbl.forces", "cohesion_force", None),
    ("ssbl.forces", "estimate_ospace", None),
    ("ssbl.groups", "sha_policy", None),
    ("ssbl.groups", "spawn_episode", None),
    ("ssbl.geometry", "integrate", None),
    ("ssbl.rewards", "group_forming_increment", None),
    ("ssbl.env", "ApproachEnv.step", None),
    ("ssbl.env", "ApproachEnv.reset", None),
    ("ssbl.env", "encode_observation", None),
    ("ssbl.policies", "policy_forward", None),
    ("ssbl.policies", "SffmPolicy.act", None),
    ("ssbl.training", "rollout", None),
    ("ssbl.training", "distill_baseline", None),
    ("ssbl.training", "evaluate_policy", None),
    ("ssbl.training", "train_cem", None),
    ("ssbl.trajlog", "transition_to_record", None),
    ("ssbl.trajlog", "write_trajectory", lambda args, result: len(args[2])),
    ("ssbl.trajlog", "read_trajectory", lambda args, result: len(result[1])),
    ("ssbl.metrics", "episode_stats", lambda args, result: len(args[1])),
]

# combined_force is split by the span that called it
FORCE_CALLERS = {
    "groups.sha_policy": "sha_command",
    "rewards.group_forming_increment": "r1_midpoint",
    "env.ApproachEnv.step": "r5_midpoints",
    "policies.SffmPolicy.act": "sffm_robot",
}

PER_LAYER = {
    "forces.combined_force.calls": "count",
    "forces.combined_force.us_per_call": "us",
    "forces.calls_per_step": "calls/step",
    **{f"forces.combined_force.{caller}_{q}": unit
       for caller in FORCE_CALLERS.values()
       for q, unit in (("calls", "count"), ("ms", "ms"))},
    "forces.partition_neighbors.us_per_call": "us",
    "forces.repulsion_force.us_per_call": "us",
    "forces.equality_force.us_per_call": "us",
    "forces.cohesion_force.us_per_call": "us",
    "forces.estimate_ospace.us_per_call": "us",
    "groups.sha_policy.self_us_per_call": "us",
    "groups.spawn_episode.us_per_call": "us",
    "geometry.integrate.calls": "count",
    "geometry.integrate.us_per_call": "us",
    "rewards.group_forming_increment.self_us_per_call": "us",
    "env.ApproachEnv.step.calls": "count",
    "env.ApproachEnv.step.self_us_per_call": "us",
    "env.ApproachEnv.reset.us_per_call": "us",
    "env.encode_observation.us_per_call": "us",
    "policies.policy_forward.us_per_call": "us",
    "policies.SffmPolicy.act.self_us_per_call": "us",
    "training.rollout.calls": "count",
    "training.distill_baseline.total_s": "s",
    "training.evaluate_policy.total_s": "s",
    "training.train_cem.search_s_per_iter": "s",
    "trajlog.transition_to_record.us_per_call": "us",
    "trajlog.write_trajectory.us_per_step": "us/step",
    "trajlog.read_trajectory.us_per_step": "us/step",
    "trajlog.bytes_per_step": "B/step",
    "metrics.episode_stats.us_per_step": "us/step",
    "metrics.compute_metrics.analyse_steps_per_s": "steps/s",
    "cli.pool_speedup": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.units: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, units):
        name_id = len(self.names)
        self.names.append(name)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if units is not None:
                self.units[name] += units(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Trace every function in TRACED while the block runs."""
        restore = []
        modules = [m for n, m in sys.modules.items()
                   if (n == "ssbl" or n.startswith("ssbl.")) and m is not None]
        for module_name, path, units in TRACED:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name[5:]}.{path}", original, units)
            if owner_path:           # a method: patch the class
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:   # a function: patch every module that imported it
                if getattr(module, attr, None) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def write(self, path) -> None:
        """Save the spans: per-span name index, parent index (-1 at the
        root), start and end in perf_counter seconds, plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans. `iterations` is the number
    of CEM iterations run inside the traced train_cem calls."""
    spans = tracer.arrays()
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    n_names = len(tracer.names)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(name))
    self_time = duration - child_time
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=duration, minlength=n_names)
    self_total = np.bincount(name, weights=self_time, minlength=n_names)
    ids = {n: i for i, n in enumerate(tracer.names)}
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def count(n):
        return int(calls[ids[n]]) if n in ids else 0

    def seconds(n):
        return float(total[ids[n]]) if n in ids else 0.0

    def us_per_call(n):
        return seconds(n) / count(n) * 1e6 if count(n) else 0.0

    def self_us_per_call(n):
        return float(self_total[ids[n]]) / count(n) * 1e6 if count(n) else 0.0

    def us_per_unit(n):
        units = tracer.units[n]
        return seconds(n) / units * 1e6 if units else 0.0

    def children_of(n, child):
        if n not in ids or child not in ids:
            return 0.0
        sel = (name == ids[child]) & (parent_name == ids[n])
        return float(duration[sel].sum())

    steps = count("env.ApproachEnv.step")
    out = {
        "forces.combined_force.calls": count("forces.combined_force"),
        "forces.combined_force.us_per_call": us_per_call("forces.combined_force"),
        "forces.calls_per_step": count("forces.combined_force") / steps if steps else 0.0,
    }
    for caller, label in FORCE_CALLERS.items():
        if "forces.combined_force" in ids and caller in ids:
            sel = (name == ids["forces.combined_force"]) & (parent_name == ids[caller])
            n_calls, ms = int(sel.sum()), float(duration[sel].sum()) * 1e3
        else:
            n_calls, ms = 0, 0.0
        out[f"forces.combined_force.{label}_calls"] = n_calls
        out[f"forces.combined_force.{label}_ms"] = ms
    for n in ("partition_neighbors", "repulsion_force", "equality_force",
              "cohesion_force", "estimate_ospace"):
        out[f"forces.{n}.us_per_call"] = us_per_call(f"forces.{n}")
    search = (seconds("training.train_cem")
              - children_of("training.train_cem", "training.distill_baseline")
              - children_of("training.train_cem", "training.evaluate_policy"))
    out.update({
        "groups.sha_policy.self_us_per_call": self_us_per_call("groups.sha_policy"),
        "groups.spawn_episode.us_per_call": us_per_call("groups.spawn_episode"),
        "geometry.integrate.calls": count("geometry.integrate"),
        "geometry.integrate.us_per_call": us_per_call("geometry.integrate"),
        "rewards.group_forming_increment.self_us_per_call":
            self_us_per_call("rewards.group_forming_increment"),
        "env.ApproachEnv.step.calls": steps,
        "env.ApproachEnv.step.self_us_per_call": self_us_per_call("env.ApproachEnv.step"),
        "env.ApproachEnv.reset.us_per_call": us_per_call("env.ApproachEnv.reset"),
        "env.encode_observation.us_per_call": us_per_call("env.encode_observation"),
        "policies.policy_forward.us_per_call": us_per_call("policies.policy_forward"),
        "policies.SffmPolicy.act.self_us_per_call": self_us_per_call("policies.SffmPolicy.act"),
        "training.rollout.calls": count("training.rollout"),
        "training.distill_baseline.total_s": seconds("training.distill_baseline"),
        "training.evaluate_policy.total_s": seconds("training.evaluate_policy"),
        "training.train_cem.search_s_per_iter": search / iterations if iterations else 0.0,
        "trajlog.transition_to_record.us_per_call": us_per_call("trajlog.transition_to_record"),
        "trajlog.write_trajectory.us_per_step": us_per_unit("trajlog.write_trajectory"),
        "trajlog.read_trajectory.us_per_step": us_per_unit("trajlog.read_trajectory"),
        "metrics.episode_stats.us_per_step": us_per_unit("metrics.episode_stats"),
    })
    return out
