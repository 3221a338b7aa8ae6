import base64
import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import episode_header, episode_records
from ssbl.cli import main
from ssbl.config import (config_from_dict, config_to_dict, default_config,
                         load_config, save_config, config_hash, ConfigError)
from ssbl.geometry import ProxemicsConfig
from ssbl.metrics import (aggregate_stats, compute_metrics, episode_stats,
                          run_compare)
from ssbl.policies import (load_checkpoint, param_count, save_checkpoint,
                           zero_params)
from ssbl.trajlog import (REWARD_KEYS, TrajectoryFormatError, read_trajectory,
                          write_trajectory)

# JSON text that `json` cannot parse into a value: an integer of 5 001 digits,
# beyond Python's int-string limit, and arrays nested beyond the recursion limit
BEYOND_INT_LIMIT = b"1" + b"0" * 5000
TOO_DEEP = b"[" * 100_000


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
    cfg.spawn.robot_min_dist = 12.0
    cfg.spawn.center_region = 1.0
    cfg.episode.max_steps = 50
    save_config(cfg, path)
    return path


# -- config round trip -------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = default_config()
    cfg.reward_weights.w5 = 0.7
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
    """An integer given for a float key is stored as that float, so both
    spellings hash alike; one beyond float range is refused, naming the key."""
    cfg = config_from_dict({"world": {"dt": 1}})
    assert type(cfg.world.dt) is float and cfg.world.dt == 1.0
    assert config_hash(cfg) == config_hash(config_from_dict({"world": {"dt": 1.0}}))
    with pytest.raises(ConfigError, match=r"episode\.success_band must be a finite"):
        config_from_dict({"episode": {"success_band": 10**400}})


def test_config_hash_changes_with_content():
    a = default_config()
    b = default_config()
    b.reward_weights.w1 = 2.0
    assert config_hash(a) != config_hash(b)


def test_default_config_hash_is_pinned():
    """Every artifact embeds this hash: a change of a default, a key or the
    canonical form changes it, and with it every checkpoint's match."""
    assert config_hash(default_config()) == "f0b054dc0a31579e"


# every key off its default and inside its range, float keys as JSON floats;
# spawn.rng_seed has only its default, 0
NON_DEFAULT_DOC = {
    "world": {"floor_side": 12.0, "dt": 0.05, "v_max": 1.25, "a_max": 0.75,
              "omega_max": 1.25, "damping": 0.9},
    "proxemics": {"d_personal": 1.0, "d_social": 3.0, "d_public": 7.0, "s_min": 0.75},
    "spawn": {"n_shas": 3, "separation": 2.5, "center_region": 1.25,
              "robot_min_dist": 4.5, "rng_seed": 0},
    "reward_weights": {"w_e": 1.5, "w_a": 0.5, "w1": 2.0, "w2": 0.25, "w3": 0.125,
                       "w4": 1.5, "w5": 0.75, "success_bonus": 5.0, "sign_r1": -1.0},
    "episode": {"max_steps": 400, "success_band": 0.25, "success_angle": 0.5,
                "success_hold": 8},
    "train": {"algo": "ppo", "master_seed": 7, "hidden_sizes": [32, 16],
              "episodes_per_eval": 3, "eval_episodes": 40, "iterations": 150,
              "population": 48, "elite_fraction": 0.25, "warm_start": False,
              "init_noise": 0.1, "noise_decay": 0.95, "clip_ratio": 0.3,
              "discount": 0.98, "gae_lambda": 0.9, "epochs": 5, "minibatch": 32,
              "step_size": 0.001, "rollout_episodes": 6, "log_std_init": -0.5},
    "sha_controller": {"gain_f": 1.5, "k_turn": 2.5, "f_dead": 0.1, "w_de": 0.25,
                       "w_dc": 0.75},
}


def test_non_default_config_round_trips_and_hash_is_pinned():
    """Every key set off its default comes back in its own section with its
    own JSON type, and the hash of the document is pinned, so a key that the
    config object drops, moves or retypes changes one or the other."""
    defaults = config_to_dict(default_config())
    assert {(n, k) for n, s in NON_DEFAULT_DOC.items() for k in s} == {
        (n, k) for n, s in defaults.items() for k in s}
    assert [(n, k) for n, s in NON_DEFAULT_DOC.items() for k, v in s.items()
            if v == defaults[n][k]] == [("spawn", "rng_seed")]
    cfg = config_from_dict(NON_DEFAULT_DOC)
    assert (json.dumps(config_to_dict(cfg), sort_keys=True)
            == json.dumps(NON_DEFAULT_DOC, sort_keys=True))
    assert config_hash(cfg) == "34c505c285c71c55"


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
    header, pos, totals, success = read_trajectory(out / "episode_000.jsonl")
    assert header["config_hash"] == manifest["config_hash"]
    n_agents = 1 + default_config().spawn.n_shas
    assert pos.shape == (manifest["runs"][0]["steps"] + 1, n_agents, 2)
    assert (len(totals), success) == (manifest["runs"][0]["steps"],
                                      manifest["runs"][0]["success"])


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


@pytest.mark.parametrize("text", [b'{"world": {"dt": ' + BEYOND_INT_LIMIT + b"}}",
                                  b'{"world": {"dt": \xff}}',
                                  b'{"world": ' + TOO_DEEP],
                         ids=["int-beyond-4300-digits", "not-utf8", "nested-too-deep"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    out = tmp_path / "eval.json"
    rc = main(["eval", "--policy", "sffm", "--config", str(bad),
               "--episodes", "1", "--out", str(out)])
    assert rc == 2
    assert f"error: config {bad} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"episode": {"max_steps": "500"}},
    {"world": {"dt": "0.1"}},
    {"episode": [1]},
    {"train": [1]},
    {"train": {"hidden_sizes": [0]}},
    {"world": {"dt": math.nan}},
    {"episode": {"success_band": math.inf}},
    {"proxemics": {"s_min": -math.inf}},
    {"train": {"iterations": -3}},
    {"train": {"eval_episodes": 0}},
    {"train": {"rollout_episodes": 0}},
    {"train": {"minibatch": 0}},
    {"episode": {"success_band": 10**400}},
], ids=["episode-str", "world-str", "episode-list", "train-list",
        "hidden-zero", "world-nan", "episode-inf", "proxemics-minus-inf",
        "iterations-negative", "eval-episodes-zero", "rollout-episodes-zero",
        "minibatch-zero", "episode-int-beyond-float"])
def test_bad_config_value_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "eval.json"
    rc = main(["eval", "--policy", "sffm", "--config", str(bad),
               "--episodes", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_train_negative_iters_exits_2(tmp_path, capsys):
    rc = main(["train", "--iters", "-3", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "train.iterations must lie in [0, inf), got -3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


# a spawn that cannot be placed, rewards that would overflow, a spawn seed that
# would be overwritten, an o-space floor that drives the field non-finite, a
# negative spawn box (found by test_any_config_runs_or_exits_2; -0.0 too), a
# group too large to allocate, a tick that overflowed the state and the returns
# (found when that test drew `simulate` and `compare` too)
BAD_CONFIGS = {"unplaceable-spawn": {"spawn": {"robot_min_dist": 9.0}},
               "overflowing-reward": {"reward_weights": {"w4": 1e308,
                                                         "success_bonus": 1e308}},
               "spawn-rng-seed": {"spawn": {"rng_seed": 5}},
               "runaway-s-min": {"proxemics": {"s_min": 1e308}},
               "negative-center-region": {"spawn": {"center_region": -0.0}},
               "negative-sha-gain": {"sha_controller": {"k_turn": -2.0}},
               "runaway-sha-gain": {"sha_controller": {"gain_f": -1.7e308}},
               "oversized-sha-weight": {"sha_controller": {"w_dc": 1e7}},
               "oversized-group": {"spawn": {"n_shas": 100000}},
               "huge-dt": {"world": {"dt": 7.363836819349929e+306}}}


@pytest.mark.parametrize("bad", sorted(BAD_CONFIGS))
@pytest.mark.parametrize("command", sorted(_POLICY_ARGS))
def test_bad_config_exits_2_and_writes_no_non_finite(tmp_path, capsys, command, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS[bad]))
    policies = {**_POLICY_ARGS, "simulate": ["--policy", "sffm"]}[command]
    rc = main([command, *policies, "--episodes", "2",
               "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    for text in [captured.out] + [p.read_text() for p in tmp_path.rglob("*")
                                  if p.is_file()]:
        assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("command", sorted(_POLICY_ARGS))
def test_oversized_group_exits_2_and_writes_nothing(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS["oversized-group"]))
    rc = main([command, *_POLICY_ARGS[command], "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: spawn.n_shas must lie in [2, 64]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_with_equal_anchors_exits_2(tmp_path, capsys):
    """On a 20 m floor the robot of seed [0, 0] starts 9.7 m from the group,
    beyond the field's reach (d_public, 7.6 m): sffm and random both return
    0, and the relative scale is undefined (found by
    test_any_config_runs_or_exits_2)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"world": {"floor_side": 20.0}}))
    rc = main(["compare", *_POLICY_ARGS["compare"], "--episodes", "1",
               "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: degenerate anchors" in capsys.readouterr().err


# the integers that size an episode, from ranges that keep each example quick
_SIZE_KEYS = {"n_shas": st.integers(0, 4), "max_steps": st.integers(0, 30),
              "success_hold": st.integers(0, 12)}
_WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(),
                                         max_size=1))


def _values_like(key, default):
    """Values of the JSON type of a config key's default."""
    if key in _SIZE_KEYS:
        return _SIZE_KEYS[key]
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, str):
        return st.sampled_from(["cem", "ppo", ""])
    return st.lists(st.integers(-2, 1 << 62), max_size=3)


_CONFIG_KEYS = [(name, key, default)
                for name, section in config_to_dict(default_config()).items()
                for key, default in section.items()]


@st.composite
def config_docs(draw):
    """One or two config keys, each set to a value of its type or, now and
    then, of a wrong JSON type."""
    doc = {}
    for name, key, default in draw(st.lists(st.sampled_from(_CONFIG_KEYS),
                                            min_size=1, max_size=2,
                                            unique_by=lambda k: k[:2])):
        wrong = draw(st.integers(0, 7)) == 7
        doc.setdefault(name, {})[key] = draw(
            _WRONG_TYPES if wrong else _values_like(key, default))
    return doc


def assert_runs_or_exits_2(argv):
    """The CLI on `argv`, quietly: exit 0, or exit 2 with an error line."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ")


@pytest.mark.slow
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(doc=config_docs(), command=st.sampled_from(sorted(_POLICY_ARGS)))
def test_any_config_runs_or_exits_2(tmp_path_factory, doc, command):
    tmp = tmp_path_factory.mktemp("cfg")
    (tmp / "cfg.json").write_text(json.dumps(doc))
    assert_runs_or_exits_2([command, *_POLICY_ARGS[command], "--episodes", "1",
                            "--config", str(tmp / "cfg.json"),
                            "--out", str(tmp / "out")])


# the train keys that size a run, from ranges that keep each example quick
_TRAIN_SIZE_KEYS = {"population": st.integers(0, 4),
                    "episodes_per_eval": st.integers(0, 2),
                    "eval_episodes": st.integers(0, 2),
                    "rollout_episodes": st.integers(0, 2),
                    "minibatch": st.integers(0, 64), "epochs": st.integers(-1, 2),
                    "hidden_sizes": st.lists(st.integers(-1, 6), max_size=2)}
_TRAIN_KEYS = list(config_to_dict(default_config())["train"].items())


@st.composite
def train_docs(draw):
    """A small training run, CEM or PPO, with or without the warm start,
    and one or two `train` keys set to a value of their type."""
    train = {"algo": draw(st.sampled_from(["cem", "ppo"])),
             "warm_start": draw(st.booleans()), "population": 2,
             "eval_episodes": 1, "rollout_episodes": 1, "minibatch": 20,
             "hidden_sizes": [4]}
    for key, default in draw(st.lists(st.sampled_from(_TRAIN_KEYS), min_size=1,
                                      max_size=2, unique_by=lambda k: k[0])):
        train[key] = draw(_TRAIN_SIZE_KEYS.get(key, _values_like(key, default)))
    return {"episode": {"max_steps": 20}, "train": train}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=train_docs())
def test_any_train_config_runs_or_exits_2(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("train")
    (tmp / "cfg.json").write_text(json.dumps(doc))
    assert_runs_or_exits_2(["train", "--iters", "1", "--config",
                            str(tmp / "cfg.json"), "--out", str(tmp / "run")])


# settings that drove the trained parameters non-finite (huge CEM noise, a
# tiny PPO log-std, a huge step size, a negative GAE lambda), that train
# nothing (a zero step size, no epochs), a negative noise and a negative seed,
# and runs too large to allocate (a huge CEM population or network, a huge PPO
# minibatch or network)
BAD_TRAIN_CONFIGS = {
    "cem-huge-init-noise": {"warm_start": False, "init_noise": 1e200},
    "cem-huge-noise-decay": {"noise_decay": 1e300},
    "ppo-tiny-log-std": {"algo": "ppo", "log_std_init": -1000.0},
    "ppo-huge-step-size": {"algo": "ppo", "step_size": 1e300},
    "ppo-negative-gae-lambda": {"algo": "ppo", "gae_lambda": -5.0},
    "ppo-zero-step-size": {"algo": "ppo", "step_size": 0.0},
    "negative-init-noise": {"init_noise": -1.0},
    "no-epochs": {"algo": "ppo", "epochs": -1},
    "negative-master-seed": {"master_seed": -1},
    "cem-oversized-population": {"population": 100000000, "warm_start": False},
    "cem-oversized-network": {"hidden_sizes": [4096, 4096]},
    "ppo-oversized-minibatch": {"algo": "ppo", "minibatch": 10**12},
    "ppo-oversized-network": {"algo": "ppo", "hidden_sizes": [100000, 100000]}}


@pytest.mark.parametrize("bad", sorted(BAD_TRAIN_CONFIGS))
def test_bad_train_config_exits_2_and_writes_nothing(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episode": {"max_steps": 60},
                               "train": {"hidden_sizes": [8], "population": 4,
                                         "eval_episodes": 2,
                                         **BAD_TRAIN_CONFIGS[bad]}}))
    rc = main(["train", "--iters", "2", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["compare", "eval", "features-check",
                                     "simulate", "train"])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys, command):
    args = {**_POLICY_ARGS, "features-check": [], "train": []}[command]
    rc = main([command, *args, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: --seed must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_with_overflowing_reward_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BAD_CONFIGS["overflowing-reward"],
                               "episode": {"max_steps": 60},
                               "train": {"hidden_sizes": [8], "population": 4,
                                         "eval_episodes": 2}}))
    rc = main(["train", "--algo", "cem", "--iters", "1", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: reward_weights.w4 must lie in [0, 1e+06]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_checkpoint_not_an_object_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "list.json"
    ckpt.write_text("[1, 2]")
    rc = main(["eval", "--policy", str(ckpt), "--episodes", "1"])
    assert rc == 2
    assert "not a JSON object" in capsys.readouterr().err


def write_zero_checkpoint(path: Path, layer_sizes, edit=None) -> Path:
    """Zero weights saved as a checkpoint file, bypassing PolicyParams's
    own checks so that invalid layer sizes reach the loader; `edit`, if
    given, changes the file's bytes before they are written."""
    flat = np.zeros(int(param_count(layer_sizes)), "<f4")
    text = json.dumps({
        "layer_sizes": list(layer_sizes), "activation": "tanh",
        "params_b64": base64.b64encode(flat.tobytes()).decode("ascii")}).encode()
    path.write_bytes(edit(text) if edit else text)
    return path


# (layer sizes, edit of the file's bytes, error, test id suffix) -- 22 inputs is
# the observation of n_shas=2, 28 that of n_shas=3; {ckpt} stands for the file
_BAD_CHECKPOINTS = [
    ((22, 4, 2), None, "checkpoint {ckpt} input width 22", ""),
    ((22, 4, 1), None, "output width 1", "-output1"),
    ((22, 4, 3), None, "output width 3", "-output3"),
    ((22.0, 4.0, 2.0), None, "each an integer", "-float-sizes"),
    ((28, 4, 2),
     lambda text: text.replace(b"{", b'{"seed": ' + BEYOND_INT_LIMIT + b", ", 1),
     "error: checkpoint {ckpt} is not valid JSON", "-seed-beyond-4300-digits"),
    ((28, 4, 2), lambda text: text.replace(b'"tanh"', b'"\xff"'),
     "error: checkpoint {ckpt} is not valid JSON", "-not-utf8"),
    ((28, 4, 2), lambda text: text.replace(b'"tanh"', b'"relu"'),
     "error: invalid checkpoint {ckpt}: activation 'relu' is not 'tanh'",
     "-activation-relu")]


@pytest.mark.parametrize("command,layer_sizes,edit,message", [
    pytest.param(command, sizes, edit, message, id=command + suffix)
    for command in sorted(_POLICY_ARGS)
    for sizes, edit, message, suffix in _BAD_CHECKPOINTS])
def test_checkpoint_input_width_mismatch_exits_2(tmp_path, capsys, command,
                                                 layer_sizes, edit, message):
    """A checkpoint that does not fit the run's config, or that the loader
    refuses, exits 2 naming the fault, and nothing is written."""
    cfg = default_config()
    cfg.spawn.n_shas = 3
    cfg_path = tmp_path / "three_shas.json"
    save_config(cfg, cfg_path)
    ckpt = write_zero_checkpoint(tmp_path / "ckpt.json", layer_sizes, edit)
    policy = {"simulate": ["--policy", str(ckpt)],
              "eval": ["--policy", str(ckpt)],
              "compare": ["--policy-a", "sffm", "--policy-b", str(ckpt)]}
    out = tmp_path / "out"
    rc = main([command, *policy[command], "--config", str(cfg_path),
               "--episodes", "1", "--out", str(out)])
    assert rc == 2
    assert message.format(ckpt=ckpt) in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """The bytes of a valid checkpoint of the default config."""
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(zero_params((22, 4, 2)), path)
    return path.read_bytes()


def damaged(data, text: bytes) -> bytes:
    """`text` truncated, with one byte flipped or with bytes inserted."""
    at = data.draw(st.integers(0, len(text) - 1), label="at")
    damage = data.draw(st.sampled_from(["truncate", "flip", "insert"]), label="damage")
    if damage == "truncate":
        text = text[:at]
    elif damage == "flip":
        mask = data.draw(st.integers(1, 255), label="mask")
        text = text[:at] + bytes([text[at] ^ mask]) + text[at + 1:]
    else:
        text = text[:at] + data.draw(st.binary(min_size=1, max_size=8),
                                     label="inserted") + text[at:]
    return text


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_damaged_checkpoint_runs_or_exits_2(checkpoint_bytes, tmp_path_factory,
                                                data):
    """A valid checkpoint, damaged: eval runs, or exits 2 with an error line,
    never a traceback."""
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    path.write_bytes(damaged(data, checkpoint_bytes))
    assert_runs_or_exits_2(["eval", "--policy", str(path), "--episodes", "1"])


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


def test_aggregate_stats_is_the_mean_of_each_stat():
    stats = [{"return": -3.0, "steps": 10, "success": True, "time_to_join": 10,
              "path_length": 2.0, "personal_violation_steps": 1,
              "sha_total_displacement": 0.5, "final_formation_error": 0.25},
             {"return": 1.0, "steps": 20, "success": False, "time_to_join": 20,
              "path_length": 4.0, "personal_violation_steps": 4,
              "sha_total_displacement": 1.5, "final_formation_error": 0.75}]
    assert aggregate_stats(stats).to_dict() == {
        "success_rate": 0.5, "mean_return": -1.0, "time_to_join": 15.0,
        "path_length": 3.0, "personal_violation_steps": 2.5,
        "sha_total_displacement": 1.0, "final_formation_error": 0.5}


def test_malformed_trajectory_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    write_trajectory(path, "x", 0, small_track(), False)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["this is not json"]) + "\n")
    with pytest.raises(TrajectoryFormatError, match=":3:"):
        read_trajectory(path)


def test_trajectory_missing_field_detected(tmp_path):
    path = tmp_path / "missing.jsonl"
    write_trajectory(path, "x", 0, small_track(), False)
    header = path.read_text().splitlines()[0]
    path.write_text(header + '\n{"t": 1, "agents": []}\n')
    with pytest.raises(TrajectoryFormatError, match=":2:"):
        read_trajectory(path)


def small_track():
    """A track of 2 ticks and 3 agents, every value 0.5."""
    return {"pos": np.full((3, 3, 2), 0.5), "vel": np.full((3, 3, 2), 0.5),
            "heading": np.full((3, 3), 0.5), "action": np.full((2, 2), 0.5),
            **{k: np.full(2, 0.5) for k in REWARD_KEYS}}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["header", "r1"])
def test_refused_trajectory_leaves_no_file(tmp_path, value, where):
    path = tmp_path / "episode_000.jsonl"
    track = small_track()
    if where == "header":
        track["vel"][0, 2, 1] = value     # vy of the last agent's initial state
    else:
        track["r1"][1] = value            # r1 of the second record
    with pytest.raises(ConfigError, match="cannot write"):
        write_trajectory(path, "x", 0, track, False)
    assert not path.exists()


def record_edit(edit):
    """The line edit that parses a record, applies `edit` to it and writes
    it back."""
    def edit_line(line: bytes) -> bytes:
        record = json.loads(line)
        edit(record)
        return json.dumps(record).encode()
    return edit_line


# the cause is None where the reader refuses the parsed line itself
@pytest.mark.parametrize("edit,cause", [
    (record_edit(lambda rec: rec["agents"].pop()), type(None)),   # fewer agents
    (record_edit(lambda rec: rec["agents"][1].pop("x")), KeyError),
    (record_edit(lambda rec: rec["reward"].update(total="0.5")), type(None)),
    (record_edit(lambda rec: rec["reward"].update(total=True)), type(None)),
    (record_edit(lambda rec: rec.update(success="false")), type(None)),   # last record
    (lambda line: line.replace(b'"t":2', b'"t":' + BEYOND_INT_LIMIT), ValueError),
    (lambda line: line.replace(b'"t":2', b'"t":\xff'), UnicodeDecodeError),
    (lambda line: line.replace(b'"t":2', b'"t":' + TOO_DEEP), RecursionError),
    (record_edit(lambda rec: rec["agents"].clear()), type(None)),
    (record_edit(lambda rec: rec.update(agents=rec["agents"][:1])), type(None)),
    (record_edit(lambda rec: rec["reward"].update(total=math.nan)), type(None)),
    (record_edit(lambda rec: rec["agents"][1].update(x=True)), type(None)),
], ids=["fewer-agents", "agent-without-x", "string-total", "bool-total",
        "string-success", "int-beyond-4300-digits", "not-utf8", "nested-too-deep",
        "no-agents", "one-agent", "nan-total", "bool-x"])
def test_malformed_records_are_format_errors_naming_the_file(tmp_path, edit, cause):
    path = tmp_path / "episode_000.jsonl"
    write_trajectory(path, "x", [0, 0], small_track(), False)
    lines = path.read_bytes().splitlines()
    lines[2] = edit(lines[2])       # the second step record
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TrajectoryFormatError, match="episode_000.jsonl:3:") as err:
        compute_metrics([path], ProxemicsConfig())
    assert type(err.value.__cause__) is cause


@pytest.mark.parametrize("n_agents", [0, 1, 2])
def test_files_of_fewer_than_3_agents_are_format_errors(tmp_path, n_agents):
    """Written whole, such files are refused at their header, with no
    warning from the o-space of too few SHAs."""
    path = tmp_path / "episode_000.jsonl"
    track = {k: v[:, :n_agents] if k in ("pos", "vel", "heading") else v
             for k, v in small_track().items()}
    write_trajectory(path, "x", 0, track, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrajectoryFormatError, match="episode_000.jsonl:1:"):
            compute_metrics([path], ProxemicsConfig())


# floats whose JSON text is easy to get wrong, and any other finite float
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
                     1e16, -1e16, 1e15, 2.0, -3.0, 1.0, 0.1, 1e-7]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tracks(draw):
    """A track of an episode (`training.rollout`) of 1-6 ticks and 2-4 SHAs,
    every value drawn from _EDGE_FLOATS."""
    n_steps, n_agents = draw(st.integers(1, 6)), 1 + draw(st.integers(2, 4))
    values = lambda *shape: draw(arrays(np.float64, shape, elements=_EDGE_FLOATS))
    track = {"pos": values(n_steps + 1, n_agents, 2),
             "vel": values(n_steps + 1, n_agents, 2),
             "heading": values(n_steps + 1, n_agents),
             "action": values(n_steps, 2)}
    track.update((k, values(n_steps)) for k in ("r1", "r2", "r3", "r4", "r5", "total"))
    return track


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(track=tracks(), success=st.booleans(),
       seed=st.one_of(st.integers(0, 2**64 - 1),
                      st.lists(st.integers(0, 2**32), max_size=3)))
def test_template_lines_equal_json_of_the_records(tmp_path_factory, track, success, seed):
    """write_trajectory's templates write, for the header and every step
    record, the line `json` writes for the oracle's dict."""
    path = tmp_path_factory.mktemp("tpl") / "episode_000.jsonl"
    write_trajectory(path, "0123456789abcdef", seed, track, success)
    dump = lambda doc: json.dumps(doc, separators=(",", ":"))
    want = [dump(episode_header("0123456789abcdef", seed, track))]
    want += [dump(rec) for rec in episode_records(track, success)]
    assert path.read_text(encoding="utf-8").splitlines() == want


def test_non_object_lines_are_format_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("5\n")
    with pytest.raises(TrajectoryFormatError, match=":1: not a JSON object"):
        read_trajectory(path)
    write_trajectory(path, "x", 0, small_track(), False)
    path.write_text(path.read_text().splitlines()[0] + "\n7\n")
    with pytest.raises(TrajectoryFormatError, match=":2: not a JSON object"):
        read_trajectory(path)


def test_header_is_the_first_non_blank_line(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--policy", "sffm", "--episodes", "1",
                 "--out", str(out)]) == 0
    path = out / "episode_000.jsonl"
    header, pos, totals, success = read_trajectory(path)
    path.write_text("\n" + path.read_text())
    again = read_trajectory(path)
    assert (again[0], again[2], again[3]) == (header, totals, success)
    assert np.array_equal(again[1], pos)


@pytest.fixture(scope="module")
def trajectory_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("traj")
    assert main(["simulate", "--policy", "random", "--episodes", "1",
                 "--out", str(out)]) == 0
    return (out / "episode_000.jsonl").read_text().splitlines()


json_values = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=5), st.lists(st.integers(), max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupt_line_is_reported_with_its_number(trajectory_lines, tmp_path_factory, data):
    lines = list(trajectory_lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if data.draw(st.booleans(), label="truncate"):
        lines[i] = lines[i][:data.draw(st.integers(1, len(lines[i]) - 1), label="cut")]
    else:
        lines[i] = json.dumps(data.draw(json_values, label="value"))
    path = tmp_path_factory.mktemp("bad") / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=f":{i + 1}: "):
        read_trajectory(path)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_damaged_trajectory_is_scored_or_a_format_error(trajectory_lines,
                                                            tmp_path_factory, data):
    """A file written by simulate, damaged: compute_metrics returns, or
    raises TrajectoryFormatError; no other exception and no RuntimeWarning."""
    path = tmp_path_factory.mktemp("traj") / "episode_000.jsonl"
    path.write_bytes(damaged(data, ("\n".join(trajectory_lines) + "\n").encode()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.suppress(TrajectoryFormatError):
            compute_metrics([path], ProxemicsConfig())


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
    from_files = [episode_stats(*read_trajectory(path)[1:], prox)
                  for path in sorted(runs.glob("episode_*.jsonl"))]
    assert json.loads(out.read_text())["per_episode"] == from_files


def test_features_check_cli(tmp_path):
    out = tmp_path / "features.json"
    rc = main(["features-check", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["gradient"]["max_rel_err"] < 1e-4
    assert all(doc["checks"].values())
