import base64
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ssbl.cli import main
from ssbl.config import (config_from_dict, config_to_dict, default_config,
                         load_config, save_config, config_hash, ConfigError)
from ssbl.geometry import ProxemicsConfig
from ssbl.metrics import (aggregate_stats, compute_metrics, episode_stats,
                          run_compare)
from ssbl.policies import (load_checkpoint, param_count, save_checkpoint,
                           zero_params)
from ssbl.trajlog import TrajectoryFormatError, read_trajectory


def write_tiny_train_config(path: Path) -> Path:
    cfg = default_config()
    cfg.episode.max_steps = 60
    cfg.train.hidden_sizes = (8,)
    cfg.train.population = 4
    cfg.train.iterations = 1
    cfg.train.eval_episodes = 2
    save_config(cfg, path)
    return path


def write_isolated_config(path: Path) -> Path:
    cfg = default_config()
    cfg.world.floor_side = 30.0
    cfg.episode.spawn.robot_min_dist = 12.0
    cfg.episode.spawn.center_region = 1.0
    cfg.episode.max_steps = 50
    save_config(cfg, path)
    return path


# -- config round trip -------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = default_config()
    cfg.episode.weights.w5 = 0.7
    cfg.train.hidden_sizes = (16, 8)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)
    assert config_hash(loaded) == config_hash(cfg)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"world": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"mystery_section": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"proxemics": {"d_personal": 5.0}})  # breaks ordering


@pytest.mark.parametrize("doc", [
    {"train": {"population": True}},
    {"train": {"population": 8.0}},
    {"world": {"dt": False}},
    {"train": {"warm_start": 1}},
    {"train": {"algo": 1}},
    {"train": {"hidden_sizes": [8.0]}},
    {"train": {"hidden_sizes": 8}},
])
def test_config_rejects_mistyped_values(doc):
    with pytest.raises(ConfigError, match="must be"):
        config_from_dict(doc)


def test_config_takes_int_for_float():
    assert config_from_dict({"world": {"dt": 1}}).world.dt == 1


def test_config_hash_changes_with_content():
    a = default_config()
    b = default_config()
    b.episode.weights.w1 = 2.0
    assert config_hash(a) != config_hash(b)


# -- simulate -----------------------------------------------------------------------


def test_simulate_writes_episodes_and_manifest(tmp_path):
    out = tmp_path / "runs"
    rc = main(["simulate", "--policy", "sffm", "--seed", "7",
               "--episodes", "3", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("episode_*.jsonl"))
    assert files == ["episode_000.jsonl", "episode_001.jsonl", "episode_002.jsonl"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["episodes"] == 3
    assert manifest["policy"] == "sffm"
    assert len(manifest["runs"]) == 3
    header, records = read_trajectory(out / "episode_000.jsonl")
    assert header["config_hash"] == manifest["config_hash"]
    assert records[0]["t"] == 1


def test_simulate_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["simulate", "--policy", "random", "--seed", "9",
                   "--episodes", "2", "--out", str(out)])
        assert rc == 0
    for name in ("episode_000.jsonl", "episode_001.jsonl", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_bad_checkpoint_exits_2(tmp_path):
    rc = main(["simulate", "--policy", str(tmp_path / "nope.json"),
               "--seed", "1", "--episodes", "1", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_simulate_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"world": {"dt": -1}}')
    rc = main(["simulate", "--policy", "sffm", "--config", str(bad),
               "--seed", "1", "--episodes", "1", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("doc", [
    {"episode": {"max_steps": "500"}},
    {"world": {"dt": "0.1"}},
    {"episode": [1]},
    {"train": [1]},
    {"train": {"hidden_sizes": [0]}},
], ids=["episode-str", "world-str", "episode-list", "train-list",
        "hidden-zero"])
def test_bad_config_value_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "eval.json"
    rc = main(["eval", "--policy", "sffm", "--config", str(bad),
               "--episodes", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_parallel_matches_sequential(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    main(["simulate", "--policy", "random", "--seed", "3",
          "--episodes", "2", "--out", str(out1)])
    monkeypatch.setenv("SSBL_THREADS", "2")
    main(["simulate", "--policy", "random", "--seed", "3",
          "--episodes", "2", "--out", str(out2)])
    for name in ("episode_000.jsonl", "episode_001.jsonl", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


_POLICY_ARGS = {"simulate": ["--policy", "random"],
                "eval": ["--policy", "sffm"],
                "compare": ["--policy-a", "sffm", "--policy-b", "random"]}


@pytest.mark.parametrize("episodes", ["0", "-2"])
@pytest.mark.parametrize("command", sorted(_POLICY_ARGS))
def test_nonpositive_episodes_exit_2(tmp_path, capsys, command, episodes):
    out = tmp_path / "out"
    rc = main([command, *_POLICY_ARGS[command], "--episodes", episodes,
               "--out", str(out)])
    assert rc == 2
    assert "error: --episodes" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_not_an_object_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "list.json"
    ckpt.write_text("[1, 2]")
    rc = main(["eval", "--policy", str(ckpt), "--episodes", "1"])
    assert rc == 2
    assert "not a JSON object" in capsys.readouterr().err


def write_zero_checkpoint(path: Path, layer_sizes) -> Path:
    """Zero weights saved as a checkpoint file, bypassing PolicyParams's
    own checks so that invalid layer sizes reach the loader."""
    flat = np.zeros(param_count(layer_sizes), "<f4")
    path.write_text(json.dumps({
        "layer_sizes": list(layer_sizes), "activation": "tanh",
        "params_b64": base64.b64encode(flat.tobytes()).decode("ascii")}))
    return path


# (layer sizes, error) -- 22 inputs is the observation of n_shas=2
_BAD_CHECKPOINTS = [((22, 4, 2), "input width 22"),
                    ((22, 4, 1), "output width 1"),
                    ((22, 4, 3), "output width 3")]


@pytest.mark.parametrize("command,layer_sizes,message", [
    pytest.param(command, sizes, message,
                 id=command if sizes[-1] == 2 else f"{command}-output{sizes[-1]}")
    for command in sorted(_POLICY_ARGS) for sizes, message in _BAD_CHECKPOINTS])
def test_checkpoint_input_width_mismatch_exits_2(tmp_path, capsys, command,
                                                 layer_sizes, message):
    cfg = default_config()
    cfg.episode.spawn.n_shas = 3
    cfg_path = tmp_path / "three_shas.json"
    save_config(cfg, cfg_path)
    ckpt = write_zero_checkpoint(tmp_path / "ckpt.json", layer_sizes)
    policy = {"simulate": ["--policy", str(ckpt)],
              "eval": ["--policy", str(ckpt)],
              "compare": ["--policy-a", "sffm", "--policy-b", str(ckpt)]}
    out = tmp_path / "out"
    rc = main([command, *policy[command], "--config", str(cfg_path),
               "--episodes", "1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.is_file()
    assert not (out.is_dir() and any(out.iterdir()))


# -- train CLI ----------------------------------------------------------------------


def test_train_cli_writes_loadable_checkpoint(tmp_path):
    cfg_path = write_tiny_train_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    rc = main(["train", "--algo", "cem", "--iters", "1",
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    params, meta = load_checkpoint(out / "checkpoint.json")
    assert params.layer_sizes == (22, 8, 2)
    report = json.loads((out / "report.json").read_text())
    assert len(report["iterations"]) == 1


def test_train_cli_same_seed_identical_checkpoint(tmp_path):
    cfg_path = write_tiny_train_config(tmp_path / "cfg.json")
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["train", "--algo", "cem", "--iters", "1", "--seed", "5",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        blobs.append((out / "checkpoint.json").read_bytes())
    assert blobs[0] == blobs[1]


# -- metrics ------------------------------------------------------------------------


def test_metrics_on_isolated_zero_policy(tmp_path):
    cfg_path = write_isolated_config(tmp_path / "iso.json")
    ckpt = tmp_path / "zero.json"
    save_checkpoint(zero_params((22, 4, 2)), ckpt)
    out = tmp_path / "runs"
    rc = main(["simulate", "--policy", str(ckpt), "--config", str(cfg_path),
               "--seed", "2", "--episodes", "2", "--out", str(out)])
    assert rc == 0
    files = sorted(out.glob("episode_*.jsonl"))
    metrics = compute_metrics(files, ProxemicsConfig())
    assert metrics.personal_violation_steps == 0.0
    assert metrics.sha_total_displacement == 0.0
    assert metrics.path_length == 0.0
    assert metrics.success_rate == 0.0
    # recomputing from the same files is bit-identical
    again = compute_metrics(files, ProxemicsConfig())
    assert metrics.to_dict() == again.to_dict()


def test_metrics_of_no_episodes_raise():
    with pytest.raises(ValueError, match="no episodes to aggregate"):
        aggregate_stats([])
    with pytest.raises(ValueError, match="no episodes to aggregate"):
        compute_metrics([], ProxemicsConfig())


def test_malformed_trajectory_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"config_hash": "x", "seed": 0, "agents": []}\n'
                    '{"t": 1, "agents": [], "action": [0, 0], '
                    '"reward": {}, "done": false, "success": false}\n'
                    "this is not json\n")
    with pytest.raises(TrajectoryFormatError, match=":3:"):
        read_trajectory(path)


def test_trajectory_missing_field_detected(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"config_hash": "x", "seed": 0, "agents": []}\n'
                    '{"t": 1, "agents": []}\n')
    with pytest.raises(TrajectoryFormatError, match=":2:"):
        read_trajectory(path)


# -- compare ------------------------------------------------------------------------


def test_compare_sffm_with_itself(tmp_path):
    cfg = default_config().validate()
    report = run_compare("sffm", "sffm", 4, cfg, 11, tmp_path / "cmp")
    assert all(d["delta_return"] == 0.0 for d in report.paired_deltas)
    assert report.relative_percent["sffm"] == 100.0
    assert (tmp_path / "cmp" / "report.json").exists()
    assert (tmp_path / "cmp" / "compare.csv").exists()


def test_compare_anchors_by_construction(tmp_path):
    cfg = default_config().validate()
    report = run_compare("sffm", "random", 4, cfg, 13, tmp_path / "cmp")
    assert report.relative_percent["sffm"] == 100.0
    assert report.relative_percent["random"] == 0.0
    csv_text = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert csv_text[0].startswith("episode,policy,return")
    assert len(csv_text) == 1 + 2 * 4


def test_compare_cli(tmp_path):
    rc = main(["compare", "--policy-a", "sffm", "--policy-b", "random",
               "--episodes", "2", "--seed", "3", "--out", str(tmp_path / "c")])
    assert rc == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["episodes"] == 2
    assert set(report["metrics"]) == {"sffm", "random"}


# -- eval and features-check ----------------------------------------------------------


def test_eval_cli_writes_metrics(tmp_path):
    out = tmp_path / "eval.json"
    rc = main(["eval", "--policy", "sffm", "--episodes", "2",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["episodes"] == 2
    assert "success_rate" in doc["metrics"]
    assert len(doc["per_episode"]) == 2
    # the same policy and seeds in a comparison give the same episode stats
    run_compare("sffm", "random", 2, default_config().validate(), 4,
                tmp_path / "cmp")
    with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["policy"] == "sffm"]
    assert len(rows) == 2
    for row, stats in zip(rows, doc["per_episode"]):
        for key, value in stats.items():
            assert float(row[key]) == float(value), key


@pytest.mark.parametrize("policy", ["sffm", "random"])
def test_eval_per_episode_equals_simulate_files(tmp_path, policy):
    """Live metrics and metrics of the written trajectory files match bit
    for bit."""
    out = tmp_path / "eval.json"
    assert main(["eval", "--policy", policy, "--episodes", "3",
                 "--seed", "6", "--out", str(out)]) == 0
    runs = tmp_path / "runs"
    assert main(["simulate", "--policy", policy, "--episodes", "3",
                 "--seed", "6", "--out", str(runs)]) == 0
    prox = default_config().proxemics
    from_files = [episode_stats(header["agents"], records, prox)
                  for header, records in map(read_trajectory,
                                             sorted(runs.glob("episode_*.jsonl")))]
    assert json.loads(out.read_text())["per_episode"] == from_files


def test_features_check_cli(tmp_path):
    out = tmp_path / "features.json"
    rc = main(["features-check", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["gradient"]["max_rel_err"] < 1e-4
    assert all(doc["checks"].values())
