"""Policies: the feed-forward network, the force-following baseline and the
uniform-random reference, plus checkpoint I/O.

Network parameters are canonically float32 (that is what checkpoints store);
forward passes run in float64 on cached upcast weights. `mlp_forward` is the
one tanh MLP: the policy and the trainers both run it.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError
from .env import Action, ApproachEnv, observation_length
from .forces import ForceBreakdown, combined_force
from .geometry import AgentState
from .groups import DEFAULT_GAINS, ShaGains, field_turn

# Inputs are meters / meters-per-second on a ~10 m floor; this keeps the
# first-layer preactivations in the responsive range of tanh.
OBS_SCALE = 0.1

ACTIVATION = "tanh"


def param_count(layer_sizes: tuple[int, ...]) -> int:
    return sum((din + 1) * dout
               for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]))


def unpack_layers(flat: np.ndarray, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into a flat vector laid out per layer as W row-major,
    then b."""
    layers = []
    i = 0
    for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = flat[i:i + din * dout].reshape(dout, din)
        i += din * dout
        layers.append((w, flat[i:i + dout]))
        i += dout
    return layers


def _run_layers(layers, X: np.ndarray, squash_output: bool = True):
    acts = [X]
    h = X
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        z = h @ w.T + b
        h = np.tanh(z) if (li < last or squash_output) else z
        acts.append(h)
    return h, acts


def mlp_forward(flat: np.ndarray, layer_sizes, X: np.ndarray,
                squash_output: bool = True):
    """Batched tanh MLP. Returns (output, activation cache)."""
    return _run_layers(unpack_layers(flat, layer_sizes), X, squash_output)


@dataclass(slots=True, eq=False)
class PolicyParams:
    """Flat float32 parameter vector for a tanh MLP with the given sizes
    (input ... hidden ... output=2). Layout: per layer, W row-major then b."""

    layer_sizes: tuple[int, ...]
    flat_params: np.ndarray
    activation: str = ACTIVATION
    _layers: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or min(sizes) < 1:
            raise ValueError(f"layer sizes {sizes} need an input and an output "
                             f"layer, each at least 1 wide")
        if sizes[-1] != 2:
            raise ValueError(f"output width {sizes[-1]} is not 2 (a_fwd, a_turn)")
        expected = param_count(sizes)
        self.flat_params = np.asarray(self.flat_params, dtype=np.float32)
        if self.flat_params.shape != (expected,):
            raise ValueError(
                f"flat_params has {self.flat_params.size} values, "
                f"layer sizes {self.layer_sizes} need {expected}"
            )
        if not np.all(np.isfinite(self.flat_params)):
            raise ValueError("flat_params contains non-finite values")
        if self.activation != ACTIVATION:
            raise ValueError(f"unsupported activation {self.activation!r}")

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) pairs upcast to float64, cached per params object."""
        if self._layers is None:
            self._layers = unpack_layers(self.flat_params.astype(np.float64),
                                         self.layer_sizes)
        return self._layers


def zero_params(layer_sizes: tuple[int, ...]) -> PolicyParams:
    return PolicyParams(tuple(layer_sizes),
                        np.zeros(param_count(tuple(layer_sizes)), np.float32))


def policy_forward(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; every layer is tanh, so outputs lie in
    [-1, 1]^2."""
    if obs.shape != (params.layer_sizes[0],):
        raise ValueError(
            f"observation length {obs.shape} does not match input layer "
            f"{params.layer_sizes[0]}"
        )
    return _run_layers(params.layers(), obs * OBS_SCALE)[0]


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(params: PolicyParams, path: str | Path,
                    config_hash: str = "", seed: int = 0) -> None:
    doc = {
        "layer_sizes": list(params.layer_sizes),
        "activation": params.activation,
        "config_hash": config_hash,
        "seed": int(seed),
        "params_b64": base64.b64encode(
            params.flat_params.astype("<f4").tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"invalid checkpoint {path}: not a JSON object")
    try:
        raw = base64.b64decode(doc["params_b64"])
        flat = np.frombuffer(raw, dtype="<f4").copy()
        params = PolicyParams(tuple(doc["layer_sizes"]), flat,
                              activation=doc.get("activation", ACTIVATION))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid checkpoint {path}: {e}") from e
    meta = {"config_hash": doc.get("config_hash", ""), "seed": doc.get("seed", 0)}
    return params, meta


# -- the three policy kinds --------------------------------------------------


def sffm_baseline_policy(robot: AgentState, breakdown: ForceBreakdown,
                         gains: ShaGains = DEFAULT_GAINS) -> Action:
    """Robot directly controlled by the conversation field: thrust along the
    heading proportional to the force component, turn as an SHA would, with
    the turn command clipped to [-1, 1]. The SHA force deadband is unused."""
    f = breakdown.combined
    a_fwd = max(-1.0, min(1.0, gains.gain_f * f.dot(robot.heading_unit())))
    return Action(a_fwd, field_turn(breakdown, robot.heading, gains, 1.0))


class NetworkPolicy:
    """Deterministic policy backed by PolicyParams."""

    def __init__(self, params: PolicyParams):
        self.params = params

    def begin_episode(self, seed) -> None:
        pass

    def act(self, obs: np.ndarray, env: ApproachEnv) -> Action:
        out = policy_forward(self.params, obs)
        return Action(float(out[0]), float(out[1]))


class SffmPolicy:
    """The force-field baseline, recomputing the robot's field each tick. It
    always uses the default controller gains, whatever the SHAs use."""

    def begin_episode(self, seed) -> None:
        pass

    def act(self, obs: np.ndarray, env: ApproachEnv) -> Action:
        robot = env.robot
        bd = combined_force(robot, env.shas, env.prox, env.ospace)
        return sffm_baseline_policy(robot, bd)


RANDOM_POLICY_STREAM = 0x5EED


class RandomPolicy:
    """Uniform actions in [-1, 1]^2, seeded per episode."""

    def __init__(self):
        self._rng = None

    def begin_episode(self, seed) -> None:
        material = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        self._rng = np.random.default_rng([RANDOM_POLICY_STREAM] + [int(s) for s in material])

    def act(self, obs: np.ndarray, env: ApproachEnv) -> Action:
        return Action(float(self._rng.uniform(-1.0, 1.0)),
                      float(self._rng.uniform(-1.0, 1.0)))


def make_policy(spec: str):
    """Resolve a CLI policy spec: 'sffm', 'random', or a checkpoint path."""
    if spec == "sffm":
        return SffmPolicy()
    if spec == "random":
        return RandomPolicy()
    params, _ = load_checkpoint(spec)
    return NetworkPolicy(params)


def check_input_width(policy, n_shas: int) -> None:
    """Raise ConfigError when a network policy's input layer does not take
    the observations of an episode with n_shas SHAs."""
    if isinstance(policy, NetworkPolicy):
        width = policy.params.layer_sizes[0]
        if width != observation_length(n_shas):
            raise ConfigError(
                f"checkpoint input width {width} does not match the "
                f"{observation_length(n_shas)}-value observation of "
                f"n_shas={n_shas}")
