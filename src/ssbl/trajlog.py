"""Trajectory serialization: one JSONL file per episode.

The first line is a header with the config hash, seed material and the
initial agent states; every following line is one step record:

  {"t": int, "agents": [{"id", "role", "x", "y", "vx", "vy", "theta"}, ...],
   "action": [a_fwd, a_turn], "reward": {"r1".."r5", "total"},
   "done": bool, "success": bool}

`training.rollout(..., record=True)` keeps each episode's per-tick state
arrays, its track. `step_table` cuts the step records from it as one float
table in file order, and `write_trajectory` fills one `%`-format template
per row with the `tolist()` values: the keys stand in the template in record
order and every float is written by `%r`, which is `float.__repr__`, the
text `json` writes for it. So no dict is built per step, and `json` encodes
only the header. Floats round-trip exactly through JSON, so anything
recomputed from a parsed file matches the in-memory run bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import ConfigError


class TrajectoryFormatError(ValueError):
    """Malformed trajectory file; the message carries the line number."""


_ROBOT, _SHA = "robot", "sha"  # the "role" of agent 0 and of the others


def _agents(pos: list, vel: list, heading: list) -> list[dict]:
    """Agent objects of one state, from its positions, velocities and
    headings as lists, the robot first."""
    return [{"id": i, "role": _SHA if i else _ROBOT,
             "x": p[0], "y": p[1], "vx": v[0], "vy": v[1], "theta": h}
            for i, (p, v, h) in enumerate(zip(pos, vel, heading))]


REWARD_KEYS = ("r1", "r2", "r3", "r4", "r5", "total")


def make_header(config_hash: str, seed, track: dict[str, np.ndarray]) -> dict:
    """The header of an episode, with the initial agents of its track."""
    if isinstance(seed, (list, tuple)):
        seed = [int(s) for s in seed]
    return {
        "config_hash": config_hash,
        "seed": seed,
        "agents": _agents(*(track[k][0].tolist() for k in ("pos", "vel", "heading"))),
    }


def step_table(track: dict[str, np.ndarray]) -> np.ndarray:
    """An episode's step records as a (T, 5N + 8) table in file order: per
    tick, the post-step x, y, vx, vy and theta of every agent (from the
    states after the initial one of the track's positions and velocities
    (T + 1, N, 2) and headings (T + 1, N)), the action (T, 2), clamped as
    the env applied it, and the reward components (T,)."""
    agents = np.concatenate([track["pos"][1:], track["vel"][1:],
                             track["heading"][1:, :, None]], axis=2)
    return np.column_stack([agents.reshape(len(agents), -1),
                            np.clip(track["action"], -1.0, 1.0),
                            *(track[k] for k in REWARD_KEYS)])


def _step_template(n_agents: int, done: bool, success: bool) -> str:
    """The %-format of one step record: `t` then the 5N + 8 floats of a
    step-table row. `%r` is `float.__repr__`, the text `json` writes for a
    finite float, so a filled template is the encoder's line byte for byte."""
    agents = ",".join(f'{{"id":{i},"role":"{_SHA if i else _ROBOT}",'
                      '"x":%r,"y":%r,"vx":%r,"vy":%r,"theta":%r}'
                      for i in range(n_agents))
    reward = ",".join(f'"{k}":%r' for k in REWARD_KEYS)
    return (f'{{"t":%d,"agents":[{agents}],"action":[%r,%r],"reward":{{{reward}}},'
            f'"done":{json.dumps(done)},"success":{json.dumps(success)}}}\n')


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def write_trajectory(path: str | Path, header: dict, steps: np.ndarray,
                     success: bool) -> None:
    """Write the header and one step record per row of the step table
    `steps` (`step_table`), one JSON object a line. The episode is done on
    its last step, and successful there if `success`. A NaN or an infinity
    is a ConfigError naming the file, and nothing is written."""
    if not np.isfinite(steps).all():
        raise ConfigError(f"cannot write {path}: Out of range float values "
                          "are not JSON compliant")
    try:
        lines = [_ENCODER.encode(header) + "\n"]
    except ValueError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    n_agents = (steps.shape[1] - 2 - len(REWARD_KEYS)) // 5
    step = _step_template(n_agents, False, False)
    rows = steps.tolist()
    lines += [step % (t, *row) for t, row in enumerate(rows[:-1], start=1)]
    last = _step_template(n_agents, True, bool(success))
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
