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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import EPS_DIR, AgentState, ProxemicsConfig, Vec2, ZERO2


@dataclass(slots=True)
class OSpace:
    """Shared conversation space: center o and radius s."""

    center: Vec2
    radius: float


@dataclass(slots=True)
class ForceBreakdown:
    repulsion: Vec2
    equality: Vec2
    cohesion: Vec2
    d_e: Vec2
    d_c: Vec2
    combined: Vec2


def combined_force(p: Vec2 | AgentState, others: list[AgentState],
                   prox: ProxemicsConfig, ospace: OSpace) -> ForceBreakdown:
    """Evaluate all three forces at point `p` (an agent stands for its
    position) in one pass over the neighbors `others`."""
    if isinstance(p, AgentState):
        p = p.position
    px, py = p
    d_personal, d_social, d_public = prox.d_personal, prox.d_social, prox.d_public
    n_personal = n_public = 0
    rx = ry = 0.0                  # personal offset sums
    d_min = math.inf
    cx, cy = px, py                # social centroid sums, p included
    dex = dey = 0.0
    dcx = dcy = 0.0
    social = []
    for a in others:
        ax, ay = a.position
        ox = ax - px
        oy = ay - py
        d = math.hypot(ox, oy)
        if d <= d_public:
            n_public += 1
            dcx += ox
            dcy += oy
            if d <= d_social:
                cx += ax
                cy += ay
                dex += ox
                dey += oy
                social.append((ax, ay))
                if d <= d_personal:
                    n_personal += 1
                    rx += ox
                    ry += oy
                    if d < d_min:
                        d_min = d

    f_rx = f_ry = 0.0
    if n_personal:
        n = math.hypot(rx, ry)
        if n > EPS_DIR:            # symmetric intruders cancel: no direction
            mag = (d_personal - d_min) ** 2
            f_rx, f_ry = -mag * (rx / n), -mag * (ry / n)

    f_ex = f_ey = 0.0
    d_e = d_c = ZERO2
    n_social = len(social)
    if n_social:
        cx /= n_social + 1
        cy /= n_social + 1
        ex, ey = cx - px, cy - py
        dist = math.hypot(ex, ey)
        m = dist
        for ax, ay in social:
            m += math.hypot(cx - ax, cy - ay)
        m /= n_social + 1
        d_e = Vec2(dex, dey)
        if dist > EPS_DIR:
            coeff = 1.0 - m / dist
            f_ex, f_ey = coeff * ex, coeff * ey

    f_cx = f_cy = 0.0
    if n_public:
        d_c = Vec2(dcx, dcy)
        alpha = n_public / (n_social + 1)
        o = ospace.center
        ox, oy = o.x - px, o.y - py
        dist = math.hypot(ox, oy)
        if dist > EPS_DIR:
            coeff = alpha * (1.0 - ospace.radius / dist)
            f_cx, f_cy = coeff * ox, coeff * oy

    return ForceBreakdown(
        repulsion=Vec2(f_rx, f_ry),
        equality=Vec2(f_ex, f_ey),
        cohesion=Vec2(f_cx, f_cy),
        d_e=d_e,
        d_c=d_c,
        combined=Vec2(f_rx + f_ex + f_cx, f_ry + f_ey + f_cy),
    )


def estimate_ospace(members: list[AgentState], s_min: float = 0.5) -> OSpace:
    """O-space of a group: centroid center, radius = mean member distance
    from it (floored at s_min). Needs at least two members."""
    if len(members) < 2:
        raise ValueError(f"o-space needs at least 2 members, got {len(members)}")
    cx = cy = 0.0
    for a in members:
        cx += a.position.x
        cy += a.position.y
    o = Vec2(cx / len(members), cy / len(members))
    mean_d = sum((a.position - o).norm() for a in members) / len(members)
    return OSpace(center=o, radius=max(s_min, mean_d))
