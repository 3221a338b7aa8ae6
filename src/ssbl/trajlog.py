"""Trajectory serialization: one JSONL file per episode.

The first line is a header with the config hash, seed material and the
initial agent states; every following line is one step record:

  {"t": int, "agents": [{"id", "role", "x", "y", "vx", "vy", "theta"}, ...],
   "action": [a_fwd, a_turn], "reward": {"r1".."r5", "total"},
   "done": bool, "success": bool}

`training.rollout(..., record=True)` keeps the per-tick state arrays and
`episode_records` cuts one episode's step records from them. Floats
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


_ROBOT, _SHA = "robot", "sha"  # the "role" of agent 0 and of the others


def _agents(pos: list, vel: list, heading: list) -> list[dict]:
    """Agent objects of one state, from its positions, velocities and
    headings as lists, the robot first."""
    return [{"id": i, "role": _SHA if i else _ROBOT,
             "x": p[0], "y": p[1], "vx": v[0], "vy": v[1], "theta": h}
            for i, (p, v, h) in enumerate(zip(pos, vel, heading))]


REWARD_KEYS = ("r1", "r2", "r3", "r4", "r5", "total")


def episode_records(track: dict[str, np.ndarray], success: bool) -> list[dict]:
    """The step records of one episode from its track (`training.rollout`):
    each tick's post-step agents, from the states after the initial one
    (positions and velocities (T + 1, N, 2), headings (T + 1, N)), its
    action (T, 2), clamped as the env applied it, and its reward components
    (T,). The episode is done on its last tick, and successful there if
    `success`."""
    success = bool(success)
    n_steps = len(track["action"])
    states = zip(*(track[k][1:].tolist() for k in ("pos", "vel", "heading")))
    actions = np.clip(track["action"], -1.0, 1.0).tolist()
    rewards = zip(*(track[k].tolist() for k in REWARD_KEYS))
    return [{"t": t + 1,
             "agents": _agents(*state),
             "action": action,
             "reward": dict(zip(REWARD_KEYS, reward)),
             "done": t == n_steps - 1,
             "success": success and t == n_steps - 1}
            for t, (state, action, reward) in enumerate(zip(states, actions, rewards))]


def make_header(config_hash: str, seed, track: dict[str, np.ndarray]) -> dict:
    """The header of an episode, with the initial agents of its track."""
    if isinstance(seed, (list, tuple)):
        seed = [int(s) for s in seed]
    return {
        "config_hash": config_hash,
        "seed": seed,
        "agents": _agents(*(track[k][0].tolist() for k in ("pos", "vel", "heading"))),
    }


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def write_trajectory(path: str | Path, header: dict,
                     records: list[dict]) -> None:
    """Write the header and step records, one JSON object a line. A NaN or
    an infinity is a ConfigError naming the file, and nothing is written."""
    try:
        text = "".join(_ENCODER.encode(doc) + "\n" for doc in [header, *records])
    except ValueError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    Path(path).write_text(text, encoding="utf-8")


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
