"""Policies: the feed-forward network, the force-following baseline and the
uniform-random reference, plus checkpoint I/O.

Network parameters are canonically float32 (that is what checkpoints store);
forward passes run in float64 on upcast weights. `run_layers` is the one
tanh MLP: policies run it through `einsum`, whose rows do not depend on the
batch around them; the trainers through faster BLAS matmul, whose rows do.
A policy's `begin_episode(seeds)` starts one episode per seed, and
`act(env)` gives the actions (B, 2) of the lanes `env.lane` names, at the
batch's tick `env.t`. A policy reads what it needs from the env: the network
its observations (B, L) through `env.observe()`, the baseline the field at
the robot; the random policy reads neither. So an observation is encoded
only for a policy that reads one.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, FullConfig, config_hash, default_config, read_json
from .env import ApproachEnv, observation_length
from .groups import DEFAULT_GAINS, ShaGains, field_turn

log = logging.getLogger(__name__)

# Inputs are meters / meters-per-second on a ~10 m floor; this keeps the
# first-layer preactivations in the responsive range of tanh.
OBS_SCALE = 0.1

ACTIVATION = "tanh"


def param_count(layer_sizes: tuple[int, ...]) -> int:
    return sum((din + 1) * dout
               for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]))


def unpack_layers(flat: np.ndarray, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into a flat vector laid out per layer as W row-major,
    then b; a stack of flat vectors (..., n) gives stacked views."""
    layers = []
    i = 0
    for din, dout in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = flat[..., i:i + din * dout].reshape(*flat.shape[:-1], dout, din)
        i += din * dout
        layers.append((w, flat[..., i:i + dout]))
        i += dout
    return layers


def run_layers(layers, X: np.ndarray, squash_output: bool = True,
               subscripts: str | None = None, out=None):
    """The tanh MLP: BLAS matmul, or `np.einsum(subscripts, W, h)`. Returns
    (output, activations). With `out`, one (rows, width) buffer per layer,
    each layer's matmul is written into its buffer and no array is
    allocated; without, every call returns new arrays."""
    acts = [X]
    h = X
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        if subscripts is None:
            h = np.matmul(h, w.T, out=None if out is None else out[li])
        else:
            h = np.einsum(subscripts, w, h)
        h += b
        if li < last or squash_output:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_forward(flat: np.ndarray, layer_sizes, X: np.ndarray,
                squash_output: bool = True):
    """Batched tanh MLP for the trainers. Returns (output, activation cache),
    new arrays on every call."""
    return run_layers(unpack_layers(flat, layer_sizes), X, squash_output)


def population_layers(flats, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Float64 (W (P, out, in), b (P, 1, out)) per layer for P networks,
    given as flat parameter rows (P, n)."""
    return [(np.ascontiguousarray(w, np.float64),
             np.ascontiguousarray(b[:, None, :], np.float64))
            for w, b in unpack_layers(np.asarray(flats), layer_sizes)]


@dataclass(slots=True, eq=False)
class PolicyParams:
    """Flat float32 parameter vector for a tanh MLP with the given sizes
    (input ... hidden ... output=2). Layout: per layer, W row-major then b."""

    layer_sizes: tuple[int, ...]
    flat_params: np.ndarray

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or not all(type(n) is int and n >= 1 for n in sizes):
            raise ValueError(f"layer sizes {sizes} need an input and an output "
                             f"layer, each an integer at least 1 wide")
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


def zero_params(layer_sizes: tuple[int, ...]) -> PolicyParams:
    return PolicyParams(tuple(layer_sizes),
                        np.zeros(param_count(tuple(layer_sizes)), np.float32))


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(params: PolicyParams, path: str | Path,
                    config_hash: str = "", seed: int = 0) -> None:
    doc = {
        "layer_sizes": list(params.layer_sizes),
        "activation": ACTIVATION,
        "config_hash": config_hash,
        "seed": int(seed),
        "params_b64": base64.b64encode(
            params.flat_params.astype("<f4").tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, dict]:
    doc = read_json(path, "checkpoint")
    try:
        if doc.get("activation", ACTIVATION) != ACTIVATION:
            raise ValueError(f"activation {doc['activation']!r} is not {ACTIVATION!r}")
        raw = base64.b64decode(doc["params_b64"])
        flat = np.frombuffer(raw, dtype="<f4").copy()
        params = PolicyParams(tuple(doc["layer_sizes"]), flat)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid checkpoint {path}: {e}") from e
    meta = {"config_hash": doc.get("config_hash", ""), "seed": doc.get("seed", 0)}
    return params, meta


# -- the three policy kinds --------------------------------------------------


def sffm_baseline_policy(heading: np.ndarray, force: np.ndarray,
                         d_e: np.ndarray, d_c: np.ndarray,
                         gains: ShaGains = DEFAULT_GAINS) -> np.ndarray:
    """Robots (headings (B,)) directly controlled by the field at them
    (vectors (B, 2)): thrust along the heading proportional to the force
    component, turn as an SHA would, with the turn command clipped to
    [-1, 1]. The SHA force deadband is unused."""
    along = force[..., 0] * np.cos(heading) + force[..., 1] * np.sin(heading)
    a_fwd = np.clip(gains.gain_f * along, -1.0, 1.0)
    return np.stack([a_fwd, field_turn(d_e, d_c, heading, gains, 1.0)], axis=-1)


class NetworkPolicy:
    """Deterministic policy backed by PolicyParams. A list of PolicyParams
    makes a population: with P networks, network k // (B / P) drives lane
    k of the B that `begin_episode` began, whichever of them `env.lane`
    holds. A lane's action depends only on its observation and its
    network's weights."""

    def __init__(self, params: PolicyParams | list[PolicyParams]):
        params = [params] if isinstance(params, PolicyParams) else params
        self._population = population_layers([p.flat_params for p in params],
                                             params[0].layer_sizes)

    def begin_episode(self, seeds) -> None:
        self._batch, self._placed = len(seeds), None
        self._layers = self._population
        self._held = np.arange(len(self._layers[0][0]))     # their networks

    def _place(self, lane: np.ndarray) -> None:
        """Each lane's network and its slot among that network's lanes, in
        a zeroed input buffer of networks by lanes, for `lane.size` lanes
        (`_placed`). Once at most half of the held networks have a lane,
        their weights are gathered and the rest dropped, so the copies of one
        episode add up to less than the population."""
        n_nets = len(self._population[0][0])
        net = lane // (self._batch // n_nets)
        # networks with a lane (np.unique would import numpy.ma, ~1 MB, on first use)
        live = np.flatnonzero(np.bincount(net, minlength=n_nets))
        if 2 * live.size <= self._held.size:
            self._layers = [(w[live], b[live]) for w, b in self._population]
            self._held = live
        self._net = np.searchsorted(self._held, net)
        self._slot = np.arange(net.size) - np.searchsorted(self._net, self._net)
        self._x = np.zeros((self._held.size, self._slot.max() + 1,
                            self._population[0][0].shape[-1]))
        self._placed = lane.size

    def act(self, env: ApproachEnv) -> np.ndarray:
        if env.lane.size != self._placed:
            self._place(env.lane)
        self._x[self._net, self._slot] = env.observe()
        out, _ = run_layers(self._layers, self._x * OBS_SCALE,
                            subscripts="poi,pbi->pbo")
        return out[self._net, self._slot]


class SffmPolicy:
    """The force-field baseline, reading the field at the robot from the
    env. It always uses the default controller gains, whatever the SHAs use."""

    def begin_episode(self, seeds) -> None:
        pass

    def act(self, env: ApproachEnv) -> np.ndarray:
        f = env.field
        return sffm_baseline_policy(env.heading[:, 0], f.combined[:, 0],
                                    f.d_e[:, 0], f.d_c[:, 0])


NOISE_BLOCK = 512   # ticks of noise a lane draws at once: bounded at any horizon


class LaneNoise:
    """Noise per tick from one generator per episode: `next(lane, t)` gives
    the rows (B, 2) of the lanes `lane` at tick `t`, which counts every tick
    from 0 (the env's `t`). At each multiple of NOISE_BLOCK every generator,
    a finished lane's too, draws its next NOISE_BLOCK ticks in one call,
    `draw(rng, (k, 2))`, and numpy gives one (k, 2) draw the bytes of k draws
    of 2, so a lane's noise is its per-tick draws at any batch size."""

    def __init__(self, draw):
        self._draw = draw

    def begin_episode(self, seeds) -> None:
        self._rngs = [np.random.default_rng(s) for s in seeds]

    def next(self, lane: np.ndarray, t: int) -> np.ndarray:
        if t % NOISE_BLOCK == 0:
            self._block = np.stack([self._draw(rng, (NOISE_BLOCK, 2))
                                    for rng in self._rngs])
        return self._block[lane, t % NOISE_BLOCK]


RANDOM_POLICY_STREAM = 0x5EED


class RandomPolicy:
    """Uniform actions in [-1, 1]^2 from one generator per episode, seeded
    by the episode's seed."""

    def __init__(self):
        self._noise = LaneNoise(lambda rng, shape: rng.uniform(-1.0, 1.0, shape))

    def begin_episode(self, seeds) -> None:
        material = [s if isinstance(s, (list, tuple)) else [s] for s in seeds]
        self._noise.begin_episode([[RANDOM_POLICY_STREAM] + [int(v) for v in m]
                                   for m in material])

    def act(self, env: ApproachEnv) -> np.ndarray:
        return self._noise.next(env.lane, env.t)


def make_policy(spec: str, cfg: FullConfig | None = None):
    """Resolve a CLI policy spec: 'sffm', 'random', or a checkpoint path.

    A checkpoint must take the observations of the run's config (default:
    the default config; ConfigError otherwise); one trained under another
    config is loaded with a warning.
    """
    if spec == "sffm":
        return SffmPolicy()
    if spec == "random":
        return RandomPolicy()
    params, meta = load_checkpoint(spec)
    cfg = cfg if cfg is not None else default_config()
    n_shas = cfg.spawn.n_shas
    width = params.layer_sizes[0]
    if width != observation_length(n_shas):
        raise ConfigError(f"checkpoint {spec} input width {width} does not match "
                          f"the {observation_length(n_shas)}-value observation "
                          f"of n_shas={n_shas}")
    if meta["config_hash"] and meta["config_hash"] != config_hash(cfg):
        log.warning("checkpoint %s was trained under config %s, this run "
                    "uses %s", spec, meta["config_hash"], config_hash(cfg))
    return NetworkPolicy(params)
