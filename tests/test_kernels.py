"""The stepping kernels against their earlier whole-array-per-component
forms, kept here as oracles: the same float operations in the same order, so
every result must have the same bytes (`tobytes()`), on hypothesis-drawn
batches of 1 and 37 lanes that reach the walls, the speed cap, the force
deadband, coincident agents and vanishing blends."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssbl.env import encode_observation
from ssbl.forces import field_at, neighbours_of, ospace_of
from ssbl.geometry import (EPS_DIR, ProxemicsConfig, SimulationFault,
                           WorldConfig, advance, wrap_angle)
from ssbl.groups import ShaGains, field_turn, sha_commands

WORLD = WorldConfig()
PROX = ProxemicsConfig()
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- the oracles ----------------------------------------------------------------


def oracle_advance(pos, vel, heading, accel, turn_rate, world):
    if not (np.isfinite(accel).all() and np.isfinite(turn_rate).all()
            and np.isfinite(pos).all() and np.isfinite(vel).all()
            and np.isfinite(heading).all()):
        raise SimulationFault("non-finite state or command")
    a_norm = np.hypot(accel[..., 0], accel[..., 1])
    if (a_norm > world.a_max * (1.0 + 1e-9) + 1e-12).any():
        raise ValueError(f"|accel|={a_norm.max()} exceeds a_max={world.a_max}")
    if (np.abs(turn_rate) > world.omega_max * (1.0 + 1e-9) + 1e-12).any():
        raise ValueError(f"|turn_rate|={np.abs(turn_rate).max()} exceeds "
                         f"omega_max={world.omega_max}")
    d = world.damping
    dt = world.dt
    vx = d * (vel[..., 0] + accel[..., 0] * dt)
    vy = d * (vel[..., 1] + accel[..., 1] * dt)
    speed = np.hypot(vx, vy)
    for _ in range(4):
        if not (speed > world.v_max).any():
            break
        f = world.v_max / np.maximum(speed, world.v_max)
        vx = vx * f
        vy = vy * f
        speed = np.hypot(vx, vy)
    side = world.floor_side
    px = pos[..., 0] + vx * dt
    py = pos[..., 1] + vy * dt
    vx = np.where(((px < 0.0) & (vx < 0.0)) | ((px > side) & (vx > 0.0)), 0.0, vx)
    vy = np.where(((py < 0.0) & (vy < 0.0)) | ((py > side) & (vy > 0.0)), 0.0, vy)
    return (np.stack([np.clip(px, 0.0, side), np.clip(py, 0.0, side)], axis=-1),
            np.stack([vx, vy], axis=-1), wrap_angle(heading + turn_rate * dt))


def oracle_neighbours_of(agents):
    n = agents.shape[-2]
    others = np.array([[j for j in range(n) if j != i] for i in range(n)],
                      dtype=np.intp).reshape(n, n - 1).T
    return np.moveaxis(agents[..., others, :], -3, 0)


def _total(x, start=0.0):
    return sum(x[1:], x[0] + start) if len(x) else np.full(x.shape[1:], start)


def _norm(v):
    return np.hypot(v[..., :1], v[..., 1:])


def oracle_field_at(points, neighbours, prox, center, radius):
    off = neighbours - points
    d = _norm(off)
    personal, social, public = (d <= r for r in (
        prox.d_personal, prox.d_social, prox.d_public))
    k1 = _total(social, 1.0)
    push = _total(np.where(personal, off, 0.0))
    n = _norm(push)
    ok = n > EPS_DIR
    d_min = functools.reduce(np.minimum, np.where(personal, d, prox.d_personal),
                             prox.d_personal)
    f_r = np.where(ok, -(prox.d_personal - d_min) ** 2 * (push / np.where(ok, n, 1.0)),
                   0.0)
    d_e = _total(np.where(social, off, 0.0))
    e = d_e / k1
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
    return f_r, f_e, f_c, d_e, d_c, f_r + f_e + f_c


def _unit(v):
    n = np.hypot(v[..., 0], v[..., 1])[..., None]
    ok = n > EPS_DIR
    return np.where(ok, v / np.where(ok, n, 1.0), 0.0)


def oracle_field_turn(d_e, d_c, heading, gains, limit):
    blend = gains.w_de * _unit(d_e) + gains.w_dc * _unit(d_c)
    bx, by = blend[..., 0], blend[..., 1]
    err = wrap_angle(np.arctan2(by, bx) - heading)
    return np.where(np.hypot(bx, by) > EPS_DIR,
                    np.clip(gains.k_turn * err, -limit, limit), 0.0)


def oracle_sha_commands(force, d_e, d_c, heading, world, gains):
    f_norm = np.hypot(force[..., 0], force[..., 1])[..., None]
    accel = gains.gain_f * force
    a_norm = np.hypot(accel[..., 0], accel[..., 1])[..., None]
    accel = accel * (world.a_max / np.maximum(a_norm, world.a_max))
    accel = np.where(f_norm < gains.f_dead, 0.0, accel)
    return accel, oracle_field_turn(d_e, d_c, heading, gains, world.omega_max)


def oracle_encode_observation(pos, vel, heading, world):
    h0 = heading[:, :1]
    c = np.cos(-h0)
    s = np.sin(-h0)
    rx = pos[..., 0] - pos[:, :1, 0]
    ry = pos[..., 1] - pos[:, :1, 1]
    vx, vy = vel[..., 0], vel[..., 1]
    rel_h = wrap_angle(heading - h0)
    blocks = np.stack([c * rx - s * ry, s * rx + c * ry,
                       c * vx - s * vy, s * vx + c * vy,
                       np.cos(rel_h), np.sin(rel_h)], axis=-1)
    side = world.floor_side
    x = np.clip(pos[:, 0, 0], 0.0, side)
    y = np.clip(pos[:, 0, 1], 0.0, side)
    walls = np.stack([x, side - x, y, side - y], axis=-1)
    return np.concatenate([blocks.reshape(len(pos), -1), walls], axis=1)


# -- drawn batches ----------------------------------------------------------------


def same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def values(shape, lo, hi, special):
    """Arrays of `shape` with entries in [lo, hi], often one of `special`."""
    return arrays(np.float64, shape,
                  elements=st.one_of(st.sampled_from(special), st.floats(lo, hi)))


lanes = st.sampled_from([1, 37])
agents = st.integers(2, 4)
SIDE = WORLD.floor_side
# on, just inside and just past each wall
AT_WALLS = [0.0, 1e-3, -1e-3, SIDE, SIDE - 1e-3, SIDE + 1e-3, 5.0]
SPEEDS = [0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 0.05, -0.05]
ANGLES = [0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]


@st.composite
def integrator_batches(draw):
    """Positions at and beside the walls, velocities below, at and above
    v_max (the speed cap), accelerations of norm up to a_max and turn rates
    up to omega_max."""
    shape = (draw(lanes), draw(agents))
    pos = draw(values(shape + (2,), -0.01, SIDE + 0.01, AT_WALLS))
    vel = draw(values(shape + (2,), -1.6, 1.6, SPEEDS))
    heading = draw(values(shape, -math.pi, math.pi, ANGLES))
    direction = draw(values(shape, -math.pi, math.pi, ANGLES))
    size = draw(values(shape, 0.0, WORLD.a_max, [0.0, WORLD.a_max]))
    accel = np.stack([np.cos(direction), np.sin(direction)], axis=-1) * size[..., None]
    turn = draw(values(shape, -WORLD.omega_max, WORLD.omega_max,
                       [0.0, WORLD.omega_max, -WORLD.omega_max]))
    return pos, vel, heading, accel, turn


@EXAMPLES
@given(integrator_batches())
def test_advance_matches_oracle(batch):
    same_bytes(advance(*batch, WORLD), oracle_advance(*batch, WORLD))


def test_advance_at_the_walls_and_the_speed_cap():
    """A velocity into a wall is zeroed once a step ends past it, not when
    it ends exactly on it, and a speed above the cap comes down to it."""
    side = SIDE
    v = WORLD.damping * -0.5          # the velocity after one tick from -0.5
    on_wall = -(v * WORLD.dt)         # from here that step ends exactly at 0.0
    pos = np.array([[[0.0, 5.0], [side, 5.0], [5.0, 0.0], [5.0, side],
                     [on_wall, on_wall], [5.0, 5.0]]])
    vel = np.array([[[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],
                     [-0.5, -0.5], [1.5, 1.5]]])
    args = (pos, vel, np.zeros((1, 6)), np.zeros((1, 6, 2)), np.zeros((1, 6)))
    new_pos, new_vel, _ = advance(*args, WORLD)
    same_bytes((new_pos, new_vel), oracle_advance(*args, WORLD)[:2])
    assert (new_vel[0, :4] == 0.0).all()
    assert (new_pos[0, 4] == 0.0).all() and (new_vel[0, 4] == v).all()
    assert np.hypot(*new_vel[0, 5]) <= WORLD.v_max


@pytest.mark.parametrize("kernel", [advance, oracle_advance])
@pytest.mark.parametrize("bad, error", [
    ({"pos": np.nan}, SimulationFault), ({"vel": np.inf}, SimulationFault),
    ({"heading": -np.inf}, SimulationFault), ({"accel": np.nan}, SimulationFault),
    ({"turn": np.inf}, SimulationFault), ({"accel": 0.8}, ValueError),
    ({"turn": 1.6}, ValueError)])
def test_advance_refuses_non_finite_and_over_limit_input(kernel, bad, error):
    args = {"pos": np.full((37, 3, 2), 5.0), "vel": np.zeros((37, 3, 2)),
            "heading": np.zeros((37, 3)), "accel": np.zeros((37, 3, 2)),
            "turn": np.zeros((37, 3))}
    (key, value), = bad.items()
    args[key][5, 1] = value          # |(0.8, 0.8)| > a_max; 1.6 > omega_max
    with pytest.raises(error):
        kernel(*args.values(), WORLD)


# near-coincident and coincident agents, and every zone boundary
SPOTS = [4.0, 4.0 + 1e-10, 5.0, 5.0 + PROX.d_personal, 5.0 + PROX.d_social,
         5.0 + PROX.d_public, 6.0]


@st.composite
def field_batches(draw):
    """One tick's field evaluation as the env makes it: agents before and
    after a step, the points at the step midpoints and after it, the
    o-space before and after."""
    shape = (draw(lanes), draw(agents), 2)
    pos = draw(values(shape, 0.0, SIDE, SPOTS))
    new_pos = draw(values(shape, 0.0, SIDE, SPOTS))
    at = np.stack([pos, new_pos, (pos + new_pos) * 0.5])
    center, radius = ospace_of(at[:2, :, 1:], PROX.s_min)
    return at, center, radius


@EXAMPLES
@given(field_batches())
def test_field_at_matches_oracle(batch):
    at, center, radius = batch
    neighbours = neighbours_of(at[:2])
    same_bytes([neighbours], [oracle_neighbours_of(np.stack([at[0], at[1]]))])
    f = field_at(at[2:0:-1], neighbours, PROX, center, radius)
    same_bytes([f.repulsion, f.equality, f.cohesion, f.d_e, f.d_c, f.combined],
               oracle_field_at(np.stack([at[2], at[1]]),
                               oracle_neighbours_of(np.stack([at[0], at[1]])),
                               PROX, center, radius))


def test_coincident_agents_feel_no_direction():
    """Agents at one spot: the offsets vanish, so do the norms (at most
    EPS_DIR), and the directional forces are zero in both forms."""
    pos = np.full((1, 3, 2), 5.0)
    f = field_at(pos, neighbours_of(pos), PROX, np.full((1, 2), 5.0), np.ones(1))
    want = oracle_field_at(pos, oracle_neighbours_of(pos), PROX,
                           np.full((1, 2), 5.0), np.ones(1))
    same_bytes([f.repulsion, f.equality, f.d_e, f.combined],
               [want[0], want[1], want[3], want[5]])
    assert not f.repulsion.any() and not f.equality.any()


gain_values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5])
gains = st.builds(ShaGains, gain_f=gain_values, k_turn=gain_values,
                  f_dead=st.sampled_from([0.0, 0.05, 0.3]), w_de=gain_values,
                  w_dc=gain_values)
# inside the deadband, at and below EPS_DIR, signed zeros and larger ones
SMALL = [0.0, -0.0, EPS_DIR, -EPS_DIR, 1e-10, -1e-10, 0.01, -0.01, 0.04, 0.3, -2.0]


@st.composite
def controller_batches(draw):
    """Fields with forces in and out of the deadband and orientation
    vectors at or below EPS_DIR, or opposite, so the blend vanishes."""
    shape = (draw(lanes), draw(agents))
    force = draw(values(shape + (2,), -3.0, 3.0, SMALL))
    d_e = draw(values(shape + (2,), -3.0, 3.0, SMALL))
    d_c = np.where(draw(arrays(bool, shape + (1,))), -d_e,
                   draw(values(shape + (2,), -3.0, 3.0, SMALL)))
    heading = draw(values(shape, -math.pi, math.pi, ANGLES))
    return force, d_e, d_c, heading


@EXAMPLES
@given(controller_batches(), gains)
def test_sha_commands_match_oracle(batch, g):
    same_bytes(sha_commands(*batch, WORLD, g), oracle_sha_commands(*batch, WORLD, g))


@EXAMPLES
@given(controller_batches(), gains, st.sampled_from([1.0, WORLD.omega_max]))
def test_field_turn_matches_oracle(batch, g, limit):
    _, d_e, d_c, heading = batch
    same_bytes([field_turn(d_e, d_c, heading, g, limit)],
               [oracle_field_turn(d_e, d_c, heading, g, limit)])


@st.composite
def observed_states(draw):
    """States (B, N) as the env holds them, or a track's states (T, N) as
    `RolloutResult.observations` passes them, given as views of all rows
    but the last of larger arrays."""
    rows = draw(st.sampled_from([1, 37]))
    shape = (rows + 1, draw(agents))
    pos = draw(values(shape + (2,), -0.01, SIDE + 0.01, AT_WALLS))
    vel = draw(values(shape + (2,), -1.0, 1.0, SPEEDS))
    heading = draw(values(shape, -math.pi, math.pi, ANGLES))
    return pos[:-1], vel[:-1], heading[:-1]


@EXAMPLES
@given(observed_states())
def test_encode_observation_matches_oracle(state):
    same_bytes([encode_observation(*state, WORLD)],
               [oracle_encode_observation(*state, WORLD)])
