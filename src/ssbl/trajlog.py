"""Trajectory serialization: one JSONL file per episode.

The first line is a header with the config hash, seed material and the
initial agent states; every following line is one step record:

  {"t": int, "agents": [{"id", "role", "x", "y", "vx", "vy", "theta"}, ...],
   "action": [a_fwd, a_turn], "reward": {"r1".."r5", "total"},
   "done": bool, "success": bool}

Every line is written from float rows in file order (`_state_rows`,
`_step_rows`): `_Lines` fills `%`-format templates with their `tolist()`
values. One per-agent template writes the header's initial agents and every
step's agents, the keys stand in record order, and every float is written
by `%r`, which is `float.__repr__`, the text `json` writes for it. So no
dict is built, and `json` encodes only the config hash and the seed. Two
writers share the templates: `TrajectoryWriter`, the recorder `simulate`
hands `training.rollout`, writes the files while the batch steps, and
`write_trajectory` writes one episode whole from the track of a rollout
with `record=True`. Floats round-trip exactly through JSON, so the
positions and rewards that `read_trajectory`, the one reader of the layout,
parses from a file match the in-memory run bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import MAX_WEIGHT, ConfigError


class TrajectoryFormatError(ConfigError):
    """Malformed trajectory file; the message names the file (and line)."""


REWARD_KEYS = ("r1", "r2", "r3", "r4", "r5", "total")
_HEADER_KEYS = ("config_hash", "agents")
_STEP_KEYS = ("t", "agents", "action", "reward", "done", "success")

# the ticks of each episode a TrajectoryWriter holds before it appends them
# to the episode's file: 64 ticks of 32 episodes of 4 agents are 459 kB
BLOCK_TICKS = 64

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _check_finite(path, rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise ConfigError(f"cannot write {path}: Out of range float values "
                          "are not JSON compliant")


def _state_rows(pos, vel, heading) -> np.ndarray:
    """The rows (S, 5N) of S states of N agents: x, y, vx, vy and theta per
    agent, the robot first."""
    return np.concatenate([pos, vel, heading[..., None]],
                          axis=2).reshape(len(heading), 5 * heading.shape[1])


def _step_rows(states, action, rewards) -> np.ndarray:
    """The rows of steps: the state row after each step, its action as the
    env applied it (clamped to [-1, 1]) and its reward components."""
    return np.column_stack([states, np.clip(action, -1.0, 1.0), *rewards])


class _Lines:
    """The text of the lines of an episode of `n_agents` agents, from its
    rows as lists."""

    def __init__(self, n_agents: int):
        # the agent objects of one state, filled with its row: x, y, vx, vy
        # and theta per agent, the robot first
        self.agents = ",".join(f'{{"id":{i},"role":"{"sha" if i else "robot"}",'
                               '"x":%r,"y":%r,"vx":%r,"vy":%r,"theta":%r}'
                               for i in range(n_agents))
        reward = ",".join(f'"{k}":%r' for k in REWARD_KEYS)
        step = (f'{{"t":%d,"agents":[{self.agents}],"action":[%r,%r],'
                f'"reward":{{{reward}}},"done":')
        self.running = step + 'false,"success":false}\n'
        self.failed = step + 'true,"success":false}\n'
        self.succeeded = step + 'true,"success":true}\n'

    def header(self, config_hash: str, seed, state: list) -> str:
        """The header line of an episode that begins in the state row `state`."""
        if isinstance(seed, (list, tuple)):
            seed = [int(s) for s in seed]
        # the hash and seed are joined to the filled template, never formatted
        return (f'{{"config_hash":{_ENCODER.encode(config_hash)},'
                f'"seed":{_ENCODER.encode(seed)},"agents":['
                + self.agents % tuple(state) + "]}\n")

    def steps(self, t: int, rows: list, success: bool | None) -> str:
        """The step lines of the step rows `rows`, the first at tick t. Unless
        `success` is None, the last one ends the episode, successful there if
        `success`."""
        n = len(rows) if success is None else len(rows) - 1
        lines = [self.running % (t + i, *row) for i, row in enumerate(rows[:n])]
        if success is not None:
            lines.append((self.succeeded if success else self.failed) % (t + n, *rows[n]))
        return "".join(lines)


def write_trajectory(path: str | Path, config_hash: str, seed,
                     track: dict[str, np.ndarray], success: bool) -> None:
    """Write an episode whole from its track (`training.rollout` with
    `record=True`): the header and one step record per tick, one JSON object
    a line. The episode is done on its last step, and successful there if
    `success`. A NaN or an infinity is a ConfigError naming the file, and
    nothing is written."""
    states = _state_rows(track["pos"], track["vel"], track["heading"])
    steps = _step_rows(states[1:], track["action"], [track[k] for k in REWARD_KEYS])
    _check_finite(path, states[0])
    _check_finite(path, steps)
    lines = _Lines(track["heading"].shape[1])
    Path(path).write_text(lines.header(config_hash, seed, states[0].tolist())
                          + lines.steps(1, steps.tolist(), bool(success)),
                          encoding="utf-8")


class TrajectoryWriter:
    """A recorder for `training.rollout` that writes episode i of the rollout
    to `out_dir / episode_{i:03d}.jsonl` while the batch steps, the bytes
    `write_trajectory` writes for its track. `reset` writes every header.
    `step` copies the tick's step rows of the held lanes into a block of
    BLOCK_TICKS ticks per episode, and appends an episode's rows to its file
    when the block is full or the episode ends, one episode at a time, each
    file open only while it is written. So the memory is set by the batch,
    not by episode length. A NaN or an infinity is a ConfigError naming the
    file. Used as a context, the writer removes every file it began when the
    block ends in an exception, so a stopped run leaves no episode file."""

    def __init__(self, out_dir: str | Path, config_hash: str):
        self.out_dir, self.config_hash = Path(out_dir), config_hash
        self.paths: list[Path] = []     # the files begun, in episode order

    def __enter__(self) -> TrajectoryWriter:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is not None:
            for path in self.paths:
                path.unlink(missing_ok=True)

    def reset(self, env, seeds) -> None:
        states = _state_rows(env.pos, env.vel, env.heading)
        self._lines = _Lines(env.heading.shape[1])
        self._block = np.empty((BLOCK_TICKS, len(states),
                                states.shape[1] + 2 + len(REWARD_KEYS)))
        for i, (seed, state) in enumerate(zip(seeds, states)):
            path = self.out_dir / f"episode_{i:03d}.jsonl"
            _check_finite(path, state)
            self.paths.append(path)
            path.write_text(self._lines.header(self.config_hash, seed, state.tolist()),
                            encoding="utf-8")

    def step(self, env, action, breakdown) -> None:
        lane = env.lane
        k = (env.t - 1) % BLOCK_TICKS           # the tick's row of the block
        self._block[k, lane] = _step_rows(_state_rows(env.pos, env.vel, env.heading),
                                          action, [getattr(breakdown, key)
                                                   for key in REWARD_KEYS])
        ended = env.done
        for i in np.flatnonzero(ended | (k == BLOCK_TICKS - 1)):
            path, rows = self.paths[lane[i]], self._block[:k + 1, lane[i]]
            _check_finite(path, rows)
            text = self._lines.steps(env.t - k, rows.tolist(),
                                     bool(env.success[i]) if ended[i] else None)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(text)


def read_trajectory(path: str | Path) -> tuple[dict, np.ndarray, list, bool]:
    """Parse a trajectory file into (header, pos, totals, success): the agent
    positions (steps + 1, N, 2) of the header (the first non-blank line) and
    of each record, the reward totals and the last record's success. What the
    writer cannot write is a TrajectoryFormatError naming `file:line` (the
    file alone if it has no step record): a line that is not UTF-8 JSON of an
    object with every key, fewer than 3 agents or another count than the
    header, an x, y or total that is a bool or not a finite number, an x or
    y beyond ±config.MAX_WEIGHT (the largest floor side, which no agent
    leaves), a success that is not a bool."""
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
            if max(map(abs, xy)) > MAX_WEIGHT:
                raise TrajectoryFormatError(
                    f"{where}: x or y beyond ±{MAX_WEIGHT:g}, the largest floor side")
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
