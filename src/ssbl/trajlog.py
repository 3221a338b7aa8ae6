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
round-trip exactly through JSON, so anything recomputed from a parsed file
matches the in-memory run bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import ConfigError


class TrajectoryFormatError(ValueError):
    """Malformed trajectory file; the message carries the line number."""


REWARD_KEYS = ("r1", "r2", "r3", "r4", "r5", "total")


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


def read_trajectory(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a trajectory file into (header, step records). The header is
    the first non-blank line; every line must be a JSON object."""
    records = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: not a JSON object")
            if header is None:
                if "config_hash" not in obj or "agents" not in obj:
                    raise TrajectoryFormatError(
                        f"{path}:{lineno}: missing header fields")
                header = obj
            else:
                for key in ("t", "agents", "action", "reward", "done", "success"):
                    if key not in obj:
                        raise TrajectoryFormatError(
                            f"{path}:{lineno}: step record missing {key!r}")
                records.append(obj)
    if header is None:
        raise TrajectoryFormatError(f"{path}: empty trajectory file")
    return header, records
