"""perfbench's trace mode over the calls of its simulate_io and compare_eval
workloads: every traced function still fits its work-unit function, so the
per-step metrics of reading and scoring trajectories are counted."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, layer_metrics  # noqa: E402

from ssbl import metrics  # noqa: E402
from ssbl.cli import main  # noqa: E402
from ssbl.config import default_config  # noqa: E402


def test_trace_mode_counts_the_steps_read_and_scored(tmp_path):
    runs, tracer = tmp_path / "runs", Tracer()
    with tracer.patch():
        assert main(["simulate", "--policy", "random", "--episodes", "2",
                     "--out", str(runs)]) == 0
        metrics.compute_metrics(sorted(runs.glob("episode_*.jsonl")),
                                default_config().proxemics)
        assert main(["eval", "--policy", "sffm", "--episodes", "2",
                     "--out", str(tmp_path / "eval.json")]) == 0
    layer = layer_metrics(tracer, 0)
    assert layer["trajlog.read_trajectory.us_per_step"] > 0
    assert layer["metrics.episode_stats.us_per_step"] > 0
