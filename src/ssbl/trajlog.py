"""Trajectory serialization: one JSONL file per episode.

The first line is a header with the config hash, seed material and the
initial agent states; every following line is one step record:

  {"t": int, "agents": [{"id", "role", "x", "y", "vx", "vy", "theta"}, ...],
   "action": [a_fwd, a_turn], "reward": {"r1".."r5", "total"},
   "done": bool, "success": bool}

`training.rollout(..., record=True)` builds the step records. Floats
round-trip exactly through JSON, so anything recomputed from a parsed file
matches the in-memory run bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from .env import Action
from .geometry import AgentState
from .rewards import RewardBreakdown


class TrajectoryFormatError(ValueError):
    """Malformed trajectory file; the message carries the line number."""


def agent_to_obj(a: AgentState) -> dict:
    return {
        "id": a.id,
        "role": a.role.value,
        "x": a.position.x,
        "y": a.position.y,
        "vx": a.velocity.x,
        "vy": a.velocity.y,
        "theta": a.heading,
    }


def transition_to_record(t: int, agents: list[AgentState], action: Action,
                         bd: RewardBreakdown, done: bool, success: bool) -> dict:
    """The step record of one tick: post-step agents plus the clamped action
    and reward that produced them."""
    return {
        "t": t,
        "agents": [agent_to_obj(a) for a in agents],
        "action": [action.a_fwd, action.a_turn],
        "reward": {
            "r1": bd.r1,
            "r2": bd.r2,
            "r3": bd.r3,
            "r4": bd.r4,
            "r5": bd.r5,
            "total": bd.total,
        },
        "done": done,
        "success": success,
    }


def make_header(config_hash: str, seed, initial_agents: list[AgentState]) -> dict:
    if isinstance(seed, (list, tuple)):
        seed = [int(s) for s in seed]
    return {
        "config_hash": config_hash,
        "seed": seed,
        "agents": [agent_to_obj(a) for a in initial_agents],
    }


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_trajectory(path: str | Path, header: dict,
                     records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for rec in records:
            fh.write(_dumps(rec) + "\n")


def read_trajectory(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a trajectory file into (header, step records)."""
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
            if lineno == 1:
                if "config_hash" not in obj or "agents" not in obj:
                    raise TrajectoryFormatError(
                        f"{path}:1: missing header fields")
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
