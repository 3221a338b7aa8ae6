"""The benchmark's own test: its checks pass on real ssbl outputs and catch
corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

from ssbl.cli import main  # noqa: E402
from ssbl.config import config_to_dict, default_config  # noqa: E402
from ssbl.forces import combined_force, estimate_ospace  # noqa: E402
from ssbl.geometry import AgentState, Role, Vec2  # noqa: E402
from ssbl.metrics import compute_metrics  # noqa: E402

CFG = config_to_dict(default_config())
EPISODES = 2
SEED = 5


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "runs"
    assert main(["simulate", "--policy", "random", "--episodes", str(EPISODES),
                 "--seed", str(SEED), "--out", str(out)]) == 0
    return out


@pytest.fixture
def sim_copy(sim_dir, tmp_path):
    return Path(shutil.copytree(sim_dir, tmp_path / "runs"))


def check_sim(out: Path, force_samples: int = 8) -> dict:
    files = sorted(out.glob("episode_*.jsonl"))
    metrics = compute_metrics(files, default_config().proxemics).to_dict()
    return checks.check_simulate_output(out, EPISODES, SEED, CFG,
                                        np.random.default_rng(0), force_samples, metrics)


def edit_record(path: Path, t: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[t])
    edit(rec)
    lines[t] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_simulate_output_passes(sim_dir):
    assert check_sim(sim_dir, force_samples=500) == {}


def test_changed_reward_is_caught(sim_copy):
    def bump(rec):
        rec["reward"]["r5"] += 1e-6
    edit_record(sim_copy / "episode_001.jsonl", 40, bump)
    problems = check_sim(sim_copy)
    assert list(problems) == [1]
    assert any("weighted sum" in p for p in problems[1])


def test_reward_consistent_with_total_but_not_the_force_laws_is_caught(sim_copy):
    delta = []

    def bump(rec):
        r1 = rec["reward"]["r1"]
        delta.append(1e-6 if r1 >= 0 else -1e-6)   # keeps the sign, so r2 holds
        rec["reward"]["r1"] = r1 + delta[0]
        rec["reward"]["total"] += delta[0]
    edit_record(sim_copy / "episode_000.jsonl", 7, bump)
    manifest = json.loads((sim_copy / "manifest.json").read_text())
    manifest["runs"][0]["return"] += delta[0]
    (sim_copy / "manifest.json").write_text(json.dumps(manifest))
    problems = check_sim(sim_copy, force_samples=500)
    assert list(problems) == [0]
    assert all("force laws" in p for p in problems[0])


def test_moved_agent_is_caught(sim_copy):
    def move(rec):
        rec["agents"][2]["x"] += 0.01
    edit_record(sim_copy / "episode_000.jsonl", 100, move)
    problems = check_sim(sim_copy)
    assert any("velocity*dt" in p for p in problems[0])


def test_changed_manifest_return_is_caught(sim_copy):
    manifest = json.loads((sim_copy / "manifest.json").read_text())
    manifest["runs"][0]["return"] += 1e-3
    (sim_copy / "manifest.json").write_text(json.dumps(manifest))
    assert 0 in check_sim(sim_copy)


def test_force_reference_matches_the_package():
    rng = np.random.default_rng(3)
    prox = CFG["proxemics"]
    for _ in range(300):
        pos = rng.uniform(0.0, 10.0, (rng.integers(3, 6), 2))
        agents = [AgentState(i, Role.ROBOT if i == 0 else Role.SHA, Vec2(*p),
                             Vec2(0.0, 0.0), 0.0) for i, p in enumerate(pos)]
        ospace = estimate_ospace(agents[1:], prox["s_min"])
        center, radius = checks.ospace_of(pos[1:], prox["s_min"])
        assert np.allclose(center, ospace.center, rtol=0, atol=1e-12)
        assert abs(radius - ospace.radius) <= 1e-12
        for j in range(len(agents)):
            others = agents[:j] + agents[j + 1:]
            want = combined_force(agents[j], others, default_config().proxemics,
                                  ospace).combined
            got = checks.field_at(pos[j], np.delete(pos, j, axis=0), center, radius, prox)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp") / "cmp"
    assert main(["compare", "--policy-a", "sffm", "--policy-b", str(run.CHECKPOINT),
                 "--episodes", "3", "--seed", str(SEED), "--out", str(out)]) == 0
    return out


def check_compare(out: Path) -> list[str]:
    return checks.check_compare_output(out, 3, SEED, "sffm", str(run.CHECKPOINT),
                                       CFG["episode"]["max_steps"])


def test_compare_output_passes_and_a_changed_return_is_caught(compare_dir, tmp_path):
    assert check_compare(compare_dir) == []
    out = Path(shutil.copytree(compare_dir, tmp_path / "cmp"))
    report = json.loads((out / "report.json").read_text())
    report["paired_deltas"][1]["return_b"] += 1e-3
    (out / "report.json").write_text(json.dumps(report))
    assert any("delta_return" in p for p in check_compare(out))


def test_dropped_compare_row_is_caught(compare_dir, tmp_path):
    out = Path(shutil.copytree(compare_dir, tmp_path / "cmp"))
    lines = (out / "compare.csv").read_text().splitlines()
    (out / "compare.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in check_compare(out))


def train_report(**changes) -> dict:
    report = {"iterations": [{"iteration": 0, "mean_return": 15.0, "max_return": 22.0,
                              "elite_mean": 20.0}],
              "final_return": 21.0, "baseline_return": 21.5, "random_return": -0.5}
    report["relative_percent"] = 100.0 * (21.0 + 0.5) / (21.5 + 0.5)
    report.update(changes)
    return report


def test_train_report_checks():
    assert checks.check_train_report(train_report(), 1, 21.0, 20.9) == []
    assert checks.check_train_report(train_report(relative_percent=99.0), 1, 21.0, 20.9)
    assert checks.check_train_report(train_report(), 2, 21.0, 20.9)       # log length
    assert checks.check_train_report(train_report(), 1, 21.1, 20.9)       # re-score
    assert checks.check_train_report(train_report(), 1, 21.0, 21.2)       # warm start
    bad_log = [{"iteration": 0, "mean_return": 21.0, "max_return": 22.0, "elite_mean": 20.0}]
    assert checks.check_train_report(train_report(iterations=bad_log), 1, 21.0, 20.9)


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
