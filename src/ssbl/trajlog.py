"""Trajectory serialization: one JSONL file per episode.

The first line is a header with the config hash, seed material and the
initial agent states; every following line is one step record:

  {"t": int, "agents": [{"id", "role", "x", "y", "vx", "vy", "theta"}, ...],
   "action": [a_fwd, a_turn], "reward": {"r1".."r5", "total"},
   "done": bool, "success": bool}

`training.rollout(..., record=True)` keeps each episode's per-tick state
arrays, its track. `write_trajectory` lays the track out as one float table
in file order and fills `%`-format templates with the `tolist()` values:
one per-agent template writes the header's initial agents and every step's
agents, the keys stand in record order, and every float is written by `%r`,
which is `float.__repr__`, the text `json` writes for it. So no dict is
built, and `json` encodes only the config hash and the seed. Floats
round-trip exactly through JSON, so the positions and rewards that
`read_trajectory`, the one reader of the layout, parses from a file match
the in-memory run bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import ConfigError


class TrajectoryFormatError(ConfigError):
    """Malformed trajectory file; the message names the file (and line)."""


REWARD_KEYS = ("r1", "r2", "r3", "r4", "r5", "total")
_HEADER_KEYS = ("config_hash", "agents")
_STEP_KEYS = ("t", "agents", "action", "reward", "done", "success")


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_trajectory(path: str | Path, config_hash: str, seed,
                     track: dict[str, np.ndarray], success: bool) -> None:
    """Write an episode's header and one step record per tick of its track
    (`training.rollout`), one JSON object a line. The episode is done on its
    last step, and successful there if `success`. A NaN or an infinity is a
    ConfigError naming the file, and nothing is written."""
    n_states, n_agents = track["heading"].shape
    states = np.concatenate([track["pos"], track["vel"], track["heading"][..., None]],
                            axis=2).reshape(n_states, 5 * n_agents)
    steps = np.column_stack([states[1:], np.clip(track["action"], -1.0, 1.0),
                             *(track[k] for k in REWARD_KEYS)])
    if not (np.isfinite(states[0]).all() and np.isfinite(steps).all()):
        raise ConfigError(f"cannot write {path}: Out of range float values "
                          "are not JSON compliant")
    if isinstance(seed, (list, tuple)):
        seed = [int(s) for s in seed]
    # the agent objects of one state, filled with its row: x, y, vx, vy and
    # theta per agent, the robot first
    agents = ",".join(f'{{"id":{i},"role":"{"sha" if i else "robot"}",'
                      '"x":%r,"y":%r,"vx":%r,"vy":%r,"theta":%r}'
                      for i in range(n_agents))
    # the hash and seed are joined to the filled template, never formatted
    lines = [f'{{"config_hash":{_ENCODER.encode(config_hash)},'
             f'"seed":{_ENCODER.encode(seed)},"agents":['
             + agents % tuple(states[0].tolist()) + "]}\n"]
    reward = ",".join(f'"{k}":%r' for k in REWARD_KEYS)
    step = f'{{"t":%d,"agents":[{agents}],"action":[%r,%r],"reward":{{{reward}}},"done":'
    running = step + 'false,"success":false}\n'
    last = step + ('true,"success":true}\n' if success else 'true,"success":false}\n')
    rows = steps.tolist()
    lines += [running % (t, *row) for t, row in enumerate(rows[:-1], start=1)]
    lines.append(last % (len(rows), *rows[-1]))
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_trajectory(path: str | Path) -> tuple[dict, np.ndarray, list, bool]:
    """Parse a trajectory file into (header, pos, totals, success): the agent
    positions (steps + 1, N, 2) of the header (the first non-blank line) and
    of each record, the reward totals and the last record's success. What the
    writer cannot write is a TrajectoryFormatError naming `file:line` (the
    file alone if it has no step record): a line that is not UTF-8 JSON of an
    object with every key, fewer than 3 agents or another count than the
    header, an x, y or total that is a bool or not a finite number, a
    success that is not a bool."""
    header, pos, totals, success = None, [], [], None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as e:   # as in config.read_json
                raise TrajectoryFormatError(f"{where}: invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise TrajectoryFormatError(f"{where}: not a JSON object")
            missing = {*(_STEP_KEYS if header else _HEADER_KEYS)} - obj.keys()
            if missing:
                raise TrajectoryFormatError(f"{where}: missing {sorted(missing)}")
            try:    # xy: x and y of each agent in turn
                xy = [v for a in obj["agents"] for v in (a["x"], a["y"])]
                total = obj["reward"]["total"] if header else 0.0
                finite = all(type(v) in (int, float) and math.isfinite(v)
                             for v in [total, *xy])
            except (KeyError, TypeError, OverflowError) as e:   # too large an int
                raise TrajectoryFormatError(f"{where}: bad agent or reward: {e!r}") from e
            if len(xy) < 6 or (pos and len(xy) != len(pos[0])):
                raise TrajectoryFormatError(
                    f"{where}: {len(xy) // 2} agents, not 3 or more as in the header")
            if not finite:
                raise TrajectoryFormatError(f"{where}: x, y or total not a finite number")
            pos.append(xy)
            if header is None:
                header = obj
            elif type(success := obj["success"]) is bool:
                totals.append(total)
            else:
                raise TrajectoryFormatError(f"{where}: success is not true or false")
    if not totals:
        raise TrajectoryFormatError(f"{path}: no step record")
    return header, np.array(pos, dtype=float).reshape(len(pos), -1, 2), totals, success
