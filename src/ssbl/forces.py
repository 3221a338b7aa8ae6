"""Conversation force field: the repulsion, equality and cohesion forces at a
point, with their orientation vectors.

Conventions, with p the evaluated point and p_i the neighbor positions; the
caller leaves the agent standing at p (if any) out of the neighbors:

  repulsion   F_r = -(d_personal - d_min)^2 * unit(p_r),  p_r = sum(p_i - p)
              over personal-zone neighbors; d_min = distance to the closest.
  equality    F_e = (1 - m / |c - p|) (c - p) over social-zone neighbors,
              c the centroid of p and the neighbors, m the mean member
              distance from c;  d_e = sum(p_i - p).
  cohesion    F_c = alpha (1 - s / |o - p|) (o - p) with alpha =
              N_public / (N_social + 1) and (o, s) the shared o-space;
              d_c = sum(p_i - p) over public-zone neighbors.

A neighbor is in a zone when its distance from p is at most the zone radius;
the zones nest (personal within social within public).
Wherever a formula divides by a vector norm, a norm at or below EPS_DIR makes
the force evaluate to zero instead.

`field_at` is the one implementation: it evaluates the field at a batch of
points and is what the simulation steps with. `combined_force` is
`field_at` at a single point, with Vec2 results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .geometry import EPS_DIR, AgentState, ProxemicsConfig, Vec2


@dataclass(slots=True)
class OSpace:
    """Shared conversation space: center o and radius s."""

    center: Vec2
    radius: float


@dataclass(slots=True)
class ForceBreakdown:
    """The three forces, the two orientation vectors and their sum, as Vec2
    from `combined_force` or as (..., M, 2) arrays from `field_at`."""

    repulsion: Vec2
    equality: Vec2
    cohesion: Vec2
    d_e: Vec2
    d_c: Vec2
    combined: Vec2


def combined_force(p: Vec2 | AgentState, others: list[AgentState],
                   prox: ProxemicsConfig, ospace: OSpace) -> ForceBreakdown:
    """`field_at` at the one point `p` (an agent stands for its position)
    from the neighbors `others`, each vector of the result a Vec2."""
    if isinstance(p, AgentState):
        p = p.position
    neighbours = np.array([a.position for a in others]).reshape(-1, 1, 2)
    bd = field_at(np.array([p]), neighbours, prox, np.array(ospace.center),
                  np.array(ospace.radius))
    return ForceBreakdown(*(Vec2(*getattr(bd, f.name)[0].tolist())
                            for f in fields(ForceBreakdown)))


@functools.lru_cache(maxsize=None)
def _others(n: int) -> np.ndarray:
    """others[k, i]: the k-th agent other than agent i, in id order (one
    read-only array per group size, shared by every caller)."""
    others = np.array([[j for j in range(n) if j != i] for i in range(n)],
                      dtype=np.intp).reshape(n, n - 1).T
    others.flags.writeable = False
    return others


def neighbours_of(agents: np.ndarray) -> np.ndarray:
    """For agents (..., N, 2), the other agents of each, as `field_at` takes
    them: (N - 1, ..., N, 2)."""
    return np.moveaxis(agents[..., _others(agents.shape[-2]), :], -3, 0)


def _total(x: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Sum over the neighbour axis, in neighbour order from `start`."""
    return sum(x[1:], x[0] + start) if len(x) else np.full(x.shape[1:], start)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.hypot(v[..., :1], v[..., 1:])


def field_at(points: np.ndarray, neighbours: np.ndarray,
             prox: ProxemicsConfig, center: np.ndarray,
             radius: np.ndarray) -> ForceBreakdown:
    """The field at points (..., M, 2) from K neighbours each, given
    neighbour-major (K, ..., M, 2), under the o-space center (..., 2) and
    radius (...) of each batch row; the zones are masks. An entry depends on
    its own point, neighbours and o-space alone."""
    off = neighbours - points                              # (K, ..., M, 2)
    d = _norm(off)
    personal, social, public = (d <= r for r in (
        prox.d_personal, prox.d_social, prox.d_public))
    k1 = _total(social, 1.0)                               # N_social + 1

    push = _total(np.where(personal, off, 0.0))
    n = _norm(push)
    ok = n > EPS_DIR
    d_min = functools.reduce(np.minimum, np.where(personal, d, prox.d_personal),
                             prox.d_personal)
    f_r = np.where(ok, -(prox.d_personal - d_min) ** 2 * (push / np.where(ok, n, 1.0)),
                   0.0)

    d_e = _total(np.where(social, off, 0.0))
    e = d_e / k1                                           # centroid - p
    dist = _norm(e)
    m = (dist + _total(np.where(social, _norm(e - off), 0.0))) / k1
    ok = dist > EPS_DIR
    f_e = np.where(ok, (1.0 - m / np.where(ok, dist, 1.0)) * e, 0.0)

    alpha = _total(public) / k1
    q = np.asarray(center)[..., None, :] - points
    dist = _norm(q)
    ok = (alpha > 0.0) & (dist > EPS_DIR)
    r = np.asarray(radius)[..., None, None]
    f_c = np.where(ok, alpha * (1.0 - r / np.where(ok, dist, 1.0)) * q, 0.0)

    d_c = _total(np.where(public, off, 0.0))
    return ForceBreakdown(f_r, f_e, f_c, d_e, d_c, f_r + f_e + f_c)


def ospace_of(members: np.ndarray, s_min: float) -> tuple[np.ndarray, np.ndarray]:
    """O-space of groups (..., S, 2): centroid center (..., 2) and radius
    (...) = mean member distance from it, floored at s_min."""
    n = members.shape[-2]
    center = members.sum(axis=-2) / n
    off = members - center[..., None, :]
    radius = np.hypot(off[..., 0], off[..., 1]).sum(axis=-1) / n
    return center, np.maximum(s_min, radius)


def estimate_ospace(members: list[AgentState], s_min: float) -> OSpace:
    """`ospace_of` for a list of agents. Needs at least two members."""
    if len(members) < 2:
        raise ValueError(f"o-space needs at least 2 members, got {len(members)}")
    center, radius = ospace_of(np.array([a.position for a in members]), s_min)
    return OSpace(center=Vec2(float(center[0]), float(center[1])),
                  radius=float(radius))
