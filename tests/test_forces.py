import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbl.forces import (ForceBreakdown, OSpace, combined_force,
                         estimate_ospace, field_at)
from ssbl.geometry import (EPS_DIR, ZERO2, AgentState, ProxemicsConfig, Role,
                           Vec2)

PROX = ProxemicsConfig()
# repulsion and equality do not depend on the o-space
ANY_OSPACE = OSpace(Vec2(0.0, 0.0), 1.0)


def sha(i, x, y):
    return AgentState(id=i, role=Role.SHA, position=Vec2(x, y),
                      velocity=Vec2(0.0, 0.0), heading=0.0)


def field(subject, others, ospace=ANY_OSPACE):
    return combined_force(subject.position, others, PROX, ospace)


def brute_equality(subject_pos, neighbor_pos):
    """Independent oracle: centroid/mean-distance arithmetic by direct loops."""
    pts = [subject_pos] + neighbor_pos
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    m = sum(math.hypot(p[0] - cx, p[1] - cy) for p in pts) / len(pts)
    rx, ry = cx - subject_pos[0], cy - subject_pos[1]
    dist = math.hypot(rx, ry)
    coeff = 1.0 - m / dist
    return coeff * rx, coeff * ry


# -- scalar reference: a zone partition, then one function per force -----------


@dataclasses.dataclass(slots=True)
class NeighborPartition:
    personal: list = dataclasses.field(default_factory=list)
    social: list = dataclasses.field(default_factory=list)
    public: list = dataclasses.field(default_factory=list)


def partition_neighbors(subject, others, prox):
    part = NeighborPartition()
    p = subject.position
    for a in others:
        if a.id == subject.id:
            continue
        d = (a.position - p).norm()
        if d <= prox.d_personal:
            part.personal.append(a)
        if d <= prox.d_social:
            part.social.append(a)
        if d <= prox.d_public:
            part.public.append(a)
    return part


def repulsion_force(subject, partition, prox):
    if not partition.personal:
        return ZERO2
    p = subject.position
    px = py = 0.0
    d_min = float("inf")
    for a in partition.personal:
        off = a.position - p
        px += off.x
        py += off.y
        d = off.norm()
        if d < d_min:
            d_min = d
    direction = Vec2(px, py).normalized()
    if direction == ZERO2:
        return ZERO2
    mag = (prox.d_personal - d_min) ** 2
    return Vec2(-mag * direction.x, -mag * direction.y)


def equality_force(subject, partition):
    social = partition.social
    if not social:
        return ZERO2, ZERO2
    p = subject.position
    n = len(social)
    cx, cy = p.x, p.y
    dex = dey = 0.0
    for a in social:
        cx += a.position.x
        cy += a.position.y
        dex += a.position.x - p.x
        dey += a.position.y - p.y
    c = Vec2(cx / (n + 1), cy / (n + 1))
    m = (c - p).norm()
    for a in social:
        m += (c - a.position).norm()
    m /= n + 1
    d_e = Vec2(dex, dey)
    r = c - p
    dist = r.norm()
    if dist <= EPS_DIR:
        return ZERO2, d_e
    coeff = 1.0 - m / dist
    return Vec2(coeff * r.x, coeff * r.y), d_e


def cohesion_force(subject, partition, ospace):
    public = partition.public
    if not public:
        return ZERO2, ZERO2
    p = subject.position
    dcx = dcy = 0.0
    for a in public:
        dcx += a.position.x - p.x
        dcy += a.position.y - p.y
    d_c = Vec2(dcx, dcy)
    alpha = len(public) / (len(partition.social) + 1)
    r = ospace.center - p
    dist = r.norm()
    if dist <= EPS_DIR:
        return ZERO2, d_c
    coeff = alpha * (1.0 - ospace.radius / dist)
    return Vec2(coeff * r.x, coeff * r.y), d_c


def reference_force(subject, others, prox, ospace):
    part = partition_neighbors(subject, others, prox)
    f_r = repulsion_force(subject, part, prox)
    f_e, d_e = equality_force(subject, part)
    f_c, d_c = cohesion_force(subject, part, ospace)
    return ForceBreakdown(
        repulsion=f_r, equality=f_e, cohesion=f_c, d_e=d_e, d_c=d_c,
        combined=Vec2(f_r.x + f_e.x + f_c.x, f_r.y + f_e.y + f_c.y))


# coordinates from a continuum, plus grid values that make agents coincide and
# put neighbors exactly on the zone radii
GRID = [0.0, 0.5, 1.2, 3.6, 5.0, 6.2, 7.6, 8.6]
coord = st.one_of(st.floats(-2.0, 12.0, allow_nan=False), st.sampled_from(GRID))
point = st.tuples(coord, coord)


# degenerate configurations: coincident agents, symmetric intruders, empty
# zones, the point at the centroid or the o-space center, neighbours on radii
DEGENERATE = [
    ((5.0, 5.0), [(5.0, 5.0), (5.0, 5.0)], (6.0, 5.0)),
    ((5.0, 5.0), [(5.5, 5.0), (5.5, 5.0)], (6.0, 5.0)),
    ((0.0, 0.0), [(0.5, 0.0), (-0.5, 0.0)], (1.0, 1.0)),
    ((0.0, 0.0), [(0.0, 0.5), (0.0, -0.5), (0.5, 0.0), (-0.5, 0.0)], (1.0, 1.0)),
    ((0.0, 0.0), [], (1.0, 0.0)),
    ((0.0, 0.0), [(9.0, 0.0)], (1.0, 0.0)),
    ((0.0, 0.0), [(5.0, 0.0), (0.0, -6.0)], (1.0, 0.0)),
    ((0.0, 0.0), [(2.0, 0.0)], (1.0, 0.0)),
    ((0.0, 0.0), [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], (3.0, 0.0)),
    ((1.0, 1.0), [(2.0, 1.0), (0.0, 1.0)], (1.0, 1.0)),
    ((0.0, 0.0), [(1.2, 0.0), (0.0, 3.6), (-7.6, 0.0)], (1.0, 0.0)),
    ((0.0, 0.0), [(1.2, 0.0)], (1.0, 0.0)),
    ((0.0, 0.0), [(0.0, 3.6)], (1.0, 0.0)),
    ((0.0, 0.0), [(-7.6, 0.0)], (1.0, 0.0)),
]
DEGENERATE_IDS = ["coincident-agents", "coincident-neighbors",
                  "symmetric-intruders", "four-symmetric-intruders",
                  "no-neighbors", "empty-zones", "public-only", "social-band",
                  "at-social-centroid", "at-ospace-center", "on-all-radii",
                  "on-personal-radius", "on-social-radius", "on-public-radius"]


# -- the array kernel against the scalar reference ----------------------------


def assert_kernel_matches(p, neighbors, ospace, prox=PROX):
    """field_at at one point equals reference_force, field by field, to 1e-12."""
    want = reference_force(sha(0, *p), [sha(i + 1, x, y) for i, (x, y)
                                        in enumerate(neighbors)], prox, ospace)
    got = field_at(np.array([p]), np.array(neighbors).reshape(-1, 1, 2), prox,
                   np.array(ospace.center), np.array(ospace.radius))
    for f in dataclasses.fields(ForceBreakdown):
        np.testing.assert_allclose(getattr(got, f.name)[0], getattr(want, f.name),
                                   rtol=0.0, atol=1e-12, err_msg=f.name)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=point, neighbors=st.lists(point, max_size=6), center=point,
       ospace_radius=st.floats(0.5, 3.0),
       radii=st.lists(st.floats(0.1, 9.0), min_size=3, max_size=3, unique=True))
def test_kernel_matches_combined_force(p, neighbors, center, ospace_radius, radii):
    prox = ProxemicsConfig(*sorted(radii))
    assert_kernel_matches(p, neighbors, OSpace(Vec2(*center), ospace_radius), prox)
    assert_kernel_matches(p, neighbors, OSpace(Vec2(*center), ospace_radius))


@pytest.mark.parametrize("p,neighbors,center", DEGENERATE, ids=DEGENERATE_IDS)
def test_kernel_matches_combined_force_degenerate(p, neighbors, center):
    assert_kernel_matches(p, neighbors, OSpace(Vec2(*center), 1.5))


def test_kernel_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 10.0, (1024, 3, 2))
    neighbours = rng.uniform(0.0, 10.0, (2, 1024, 3, 2))
    center, radius = rng.uniform(3.0, 7.0, (1024, 2)), rng.uniform(0.5, 2.0, 1024)
    whole = field_at(points, neighbours, PROX, center, radius)
    for b in (1, 2, 7, 64, 128):
        for k in (0, b - 1):
            part = field_at(points[k:b], neighbours[:, k:b], PROX, center[k:b],
                            radius[k:b])
            for f in dataclasses.fields(ForceBreakdown):
                got, want = getattr(part, f.name), getattr(whole, f.name)
                assert got[0].tobytes() == want[k].tobytes()


# -- zones --------------------------------------------------------------------


def test_partition_nesting_close_neighbor():
    bd = field(sha(0, 0, 0), [sha(1, 0.5, 0)])
    assert bd.repulsion != ZERO2
    assert bd.d_e == bd.d_c == Vec2(0.5, 0.0)


def test_partition_band_membership():
    bd = field(sha(0, 0, 0), [sha(1, 2.0, 0)])
    assert bd.repulsion == ZERO2
    assert bd.d_e == bd.d_c == Vec2(2.0, 0.0)


def test_partition_out_of_range():
    bd = field(sha(0, 0, 0), [sha(1, 8.0, 0)])
    assert bd.repulsion == bd.d_e == bd.d_c == ZERO2


def test_partition_zones_nest():
    rng = np.random.default_rng(11)
    subject = sha(0, 5.0, 5.0)
    others = [sha(i + 1, *rng.uniform(0.0, 10.0, 2)) for i in range(12)]
    zones = set()
    for a in others:
        bd = field(subject, [a])
        personal, social, public = (bd.repulsion != ZERO2, bd.d_e != ZERO2,
                                    bd.d_c != ZERO2)
        assert personal <= social <= public
        zones.add((personal, social, public))
    assert len(zones) > 1


# -- repulsion ----------------------------------------------------------------


def test_repulsion_empty_zone():
    assert field(sha(0, 0, 0), [sha(1, 2.0, 0)]).repulsion == Vec2(0.0, 0.0)


def test_repulsion_hand_value():
    f = field(sha(0, 0, 0), [sha(1, 0.5, 0)]).repulsion
    assert abs(f.x - (-0.49)) < 1e-9
    assert abs(f.y) < 1e-9


def test_repulsion_symmetric_intruders_cancel():
    bd = field(sha(0, 0, 0), [sha(1, 0.5, 0), sha(2, -0.5, 0)])
    assert bd.repulsion == Vec2(0.0, 0.0)


def test_repulsion_antiparallel_to_single_intruder():
    rng = np.random.default_rng(4)
    for _ in range(50):
        subject = sha(0, 5.0, 5.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = rng.uniform(0.1, PROX.d_personal - 1e-6)
        other = sha(1, 5.0 + d * math.cos(ang), 5.0 + d * math.sin(ang))
        f = field(subject, [other]).repulsion
        offset = other.position - subject.position
        cosang = f.dot(offset) / (f.norm() * offset.norm())
        assert abs(cosang + 1.0) < 1e-9  # anti-parallel


# -- equality -----------------------------------------------------------------


def test_equality_dyad_vanishes_at_any_separation():
    for d in (0.5, 1.7, 3.5):
        bd = field(sha(0, 0, 0), [sha(1, d, 0)])
        assert bd.equality.norm() < 1e-12
        assert bd.d_e == Vec2(d, 0.0)


def test_equality_hand_value_and_oracle():
    neighbors = [sha(1, 2.0, 0.0), sha(2, 0.0, 2.0)]
    bd = field(sha(0, 0, 0), neighbors)
    f = bd.equality
    assert abs(f.x - (-0.2583)) < 1e-4
    assert abs(f.y - (-0.2583)) < 1e-4
    ox, oy = brute_equality((0.0, 0.0), [(2.0, 0.0), (0.0, 2.0)])
    assert abs(f.x - ox) < 1e-9
    assert abs(f.y - oy) < 1e-9
    assert bd.d_e == Vec2(2.0, 2.0)


def test_equality_empty_social_zone():
    bd = field(sha(0, 0, 0), [sha(1, 5.0, 0)])
    assert bd.equality == Vec2(0.0, 0.0) and bd.d_e == Vec2(0.0, 0.0)


def test_equality_subject_at_centroid_guard():
    # four symmetric neighbors put the centroid exactly on the subject
    neighbors = [sha(1, 1, 0), sha(2, -1, 0), sha(3, 0, 1), sha(4, 0, -1)]
    assert field(sha(0, 0, 0), neighbors).equality == Vec2(0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equality_vanishes_on_regular_polygon(n):
    radius = 1.2  # keeps all members inside mutual social range
    members = [sha(i, radius * math.cos(2 * math.pi * i / n),
                   radius * math.sin(2 * math.pi * i / n)) for i in range(n)]
    for subject in members:
        others = [a for a in members if a.id != subject.id]
        assert field(subject, others).equality.norm() < 1e-9


# -- cohesion -----------------------------------------------------------------


def test_cohesion_zero_on_the_ring():
    bd = field(sha(0, 3.0, 0.0), [sha(1, 1.0, 0.0)], OSpace(Vec2(0.0, 0.0), 3.0))
    assert bd.cohesion.norm() < 1e-12


def test_cohesion_hand_value():
    # one public neighbor that is also social: N_a=1, N_s=1 -> alpha = 1/2
    bd = field(sha(0, 3.0, 0.0), [sha(1, 1.0, 0.0)], OSpace(Vec2(0.0, 0.0), 1.5))
    assert bd.d_e != ZERO2 and bd.d_c != ZERO2
    f = bd.cohesion
    assert abs(f.x - (-0.75)) < 1e-9
    assert abs(f.y) < 1e-9
    assert bd.d_c == Vec2(-2.0, 0.0)


def test_cohesion_empty_public_zone():
    bd = field(sha(0, 0, 0), [sha(1, 9.0, 0)], OSpace(Vec2(1.0, 0.0), 1.0))
    assert bd.cohesion == Vec2(0.0, 0.0) and bd.d_c == Vec2(0.0, 0.0)


def test_cohesion_sign_flips_across_ring():
    rng = np.random.default_rng(9)
    o = OSpace(Vec2(5.0, 5.0), 1.5)
    neighbor = sha(1, 5.5, 5.0)
    for _ in range(50):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.2, 6.0)
        if abs(r - o.radius) < 1e-3:
            continue
        subject = sha(0, 5.0 + r * math.cos(ang), 5.0 + r * math.sin(ang))
        bd = field(subject, [neighbor], o)
        if bd.d_c == ZERO2:  # neighbor outside the public zone
            continue
        f = bd.cohesion
        toward = (o.center - subject.position).normalized()
        if r > o.radius:
            assert f.dot(toward) > 0.0
        else:
            assert f.dot(toward) < 0.0


# -- combined -----------------------------------------------------------------


def test_combined_isolated_agent_is_zero():
    bd = combined_force(Vec2(0.0, 0.0), [sha(1, 9.0, 0)], PROX,
                        OSpace(Vec2(9.0, 0.0), 1.0))
    assert bd.combined == Vec2(0.0, 0.0)
    assert bd.repulsion == bd.equality == bd.cohesion == Vec2(0.0, 0.0)


def test_combined_stable_dyad_member():
    a, b = sha(0, 0.0, 0.0), sha(1, 2.0, 0.0)
    ospace = estimate_ospace([a, b], PROX.s_min)
    bd = combined_force(a.position, [b], PROX, ospace)
    assert bd.repulsion == Vec2(0.0, 0.0)
    assert bd.equality.norm() < 1e-12
    assert bd.combined == bd.cohesion


def test_combined_equals_sum_fuzz():
    rng = np.random.default_rng(21)
    for _ in range(100):
        subject = sha(0, *rng.uniform(0.0, 10.0, 2))
        others = [sha(i + 1, *rng.uniform(0.0, 10.0, 2)) for i in range(4)]
        ospace = OSpace(Vec2(*rng.uniform(0.0, 10.0, 2)), rng.uniform(0.5, 2.0))
        bd = combined_force(subject.position, others, PROX, ospace)
        total = bd.repulsion + bd.equality + bd.cohesion
        assert bd.combined == total
        assert bd.combined.is_finite()


def test_force_equivariance_under_rigid_motion():
    rng = np.random.default_rng(33)
    for _ in range(30):
        subject = sha(0, *rng.uniform(2.0, 8.0, 2))
        others = [sha(i + 1, *rng.uniform(2.0, 8.0, 2)) for i in range(3)]
        ospace = estimate_ospace(others, PROX.s_min)
        bd = combined_force(subject.position, others, PROX, ospace)

        ang = rng.uniform(0.0, 2.0 * math.pi)
        shift = Vec2(*rng.uniform(-3.0, 3.0, 2))
        move = lambda p: p.rotated(ang) + shift
        subject2 = sha(0, *move(subject.position))
        others2 = [sha(a.id, *move(a.position)) for a in others]
        bd2 = combined_force(subject2.position, others2, PROX,
                             OSpace(move(ospace.center), ospace.radius))

        for f, f2 in ((bd.repulsion, bd2.repulsion),
                      (bd.equality, bd2.equality),
                      (bd.cohesion, bd2.cohesion),
                      (bd.combined, bd2.combined)):
            expect = f.rotated(ang)
            assert abs(f2.x - expect.x) < 1e-9
            assert abs(f2.y - expect.y) < 1e-9


# -- o-space ------------------------------------------------------------------


def test_ospace_two_members():
    o = estimate_ospace([sha(0, 0, 0), sha(1, 2, 0)], PROX.s_min)
    assert o.center == Vec2(1.0, 0.0)
    assert o.radius == 1.0


def test_ospace_equilateral_triangle():
    side = 2.0
    pts = [(0.0, 0.0), (side, 0.0), (side / 2.0, side * math.sqrt(3) / 2.0)]
    members = [sha(i, x, y) for i, (x, y) in enumerate(pts)]
    o = estimate_ospace(members, PROX.s_min)
    # brute-force mean distance to the centroid
    cx = sum(x for x, _ in pts) / 3.0
    cy = sum(y for _, y in pts) / 3.0
    mean_d = sum(math.hypot(x - cx, y - cy) for x, y in pts) / 3.0
    assert abs(o.radius - mean_d) < 1e-12
    assert abs(o.radius - side / math.sqrt(3.0)) < 1e-12
    assert abs(o.center.x - cx) < 1e-12 and abs(o.center.y - cy) < 1e-12


def test_ospace_single_member_errors():
    with pytest.raises(ValueError):
        estimate_ospace([sha(0, 0, 0)], PROX.s_min)


def test_ospace_radius_floor():
    o = estimate_ospace([sha(0, 0, 0), sha(1, 0.2, 0)], s_min=0.5)
    assert o.radius == 0.5
