import math

import numpy as np
import pytest

from ssbl.geometry import Vec2
from ssbl.rewards import (MAX_WEIGHT, RewardBreakdown, RewardWeights,
                          group_forming_increment, non_increasing_increment,
                          sha_disturbance_increment, success_bonus,
                          time_penalty_increment, total_reward)


def path_integral(field, start, end, n):
    """Accumulate midpoint increments over n equal sub-steps of the segment."""
    start, end = np.array(start), np.array(end)
    total = 0.0
    for i in range(n):
        a = start + (end - start) * (i / n)
        b = start + (end - start) * ((i + 1) / n)
        total += group_forming_increment(field, a, b)
    return total


def radial_field(u):
    """Radial pull toward the origin with magnitude 1/r."""
    r2 = u[..., 0] ** 2 + u[..., 1] ** 2
    return np.stack([-u[..., 0] / r2, -u[..., 1] / r2], axis=-1)


def work_of(pairs):
    """Per-SHA field work from (force, displacement) pairs."""
    return np.array([f.dot(d) for f, d in pairs])


# -- r1 -------------------------------------------------------------------------


def test_constant_field_work():
    inc = group_forming_increment(lambda u: np.array([1.0, 0.0]),
                                  np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert inc == 1.0


def test_zero_displacement():
    inc = group_forming_increment(lambda u: np.array([3.0, -2.0]),
                                  np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert inc == 0.0


def test_radial_field_matches_fine_grid_oracle():
    # straight path (3,0) -> (1,0); analytic value of the line integral is ln 3
    coarse = path_integral(radial_field, Vec2(3.0, 0.0), Vec2(1.0, 0.0), 20)
    fine = path_integral(radial_field, Vec2(3.0, 0.0), Vec2(1.0, 0.0), 10_000)
    assert abs(fine - math.log(3.0)) < 1e-8
    assert abs(coarse - fine) / abs(fine) < 1e-3


def test_quadrature_second_order_convergence():
    exact = math.log(3.0)
    errors = []
    for n in (20, 40, 80, 160):
        approx = path_integral(radial_field,
                               Vec2(3.0, 0.0), Vec2(1.0, 0.0), n)
        errors.append(abs(approx - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 1.9


# -- r2, r3, r4 -------------------------------------------------------------------


def test_non_increasing_increment_cases():
    assert non_increasing_increment(0.0, 0.1) == 0.1   # stationary robot
    assert non_increasing_increment(2.5, 0.1) == 0.1   # with the field
    assert non_increasing_increment(-0.01, 0.1) == 0.0  # against the field


def test_time_penalty():
    assert time_penalty_increment(0.1) == -0.1
    total = sum(time_penalty_increment(0.1) for _ in range(500))
    assert abs(total - (-50.0)) < 1e-9
    assert sum(time_penalty_increment(0.1) for _ in range(501)) < total


def test_success_bonus():
    assert success_bonus(True, 10.0) == 10.0
    assert success_bonus(False, 10.0) == 0.0


# -- r5 ---------------------------------------------------------------------------


def test_sha_disturbance_cases():
    assert sha_disturbance_increment(work_of([])) == 0.0
    assert sha_disturbance_increment(
        work_of([(Vec2(1.0, 0.0), Vec2(0.0, 0.0))])) == 0.0
    one = sha_disturbance_increment(work_of([(Vec2(1.0, 0.0), Vec2(0.1, 0.0))]))
    assert abs(one - (-0.1)) < 1e-15
    two = sha_disturbance_increment(work_of([(Vec2(1.0, 0.0), Vec2(0.1, 0.0)),
                                             (Vec2(0.0, 2.0), Vec2(0.0, 0.05))]))
    assert abs(two - (one - 0.1)) < 1e-15  # sum of individual terms


# -- total -------------------------------------------------------------------------


def test_total_reward_arithmetic():
    w = RewardWeights(w_e=1, w_a=1, w1=1, w2=1, w3=1, w4=1, w5=1)
    b = RewardBreakdown(r1=1, r2=2, r3=-3, r4=10, r5=-0.5)
    assert total_reward(b, w) == 9.5


def test_zero_altruism_removes_r5():
    b = RewardBreakdown(r1=1, r2=2, r3=-3, r4=10, r5=-7.3)
    w0 = RewardWeights(w_a=0.0)
    w1 = RewardWeights(w_a=0.0)
    assert total_reward(b, w0) == total_reward(b, w1)
    b2 = RewardBreakdown(r1=1, r2=2, r3=-3, r4=10, r5=123.0)
    assert total_reward(b2, w0) == total_reward(b, w0)


def test_zero_egoism_leaves_only_r5():
    w = RewardWeights(w_e=0.0, w_a=1.0, w5=0.5)
    b = RewardBreakdown(r1=4, r2=2, r3=-3, r4=10, r5=-2.0)
    assert total_reward(b, w) == -1.0


def test_altruism_monotonicity_when_disturbing():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b = RewardBreakdown(*rng.uniform(-5.0, 5.0, 5))
        b.r5 = -abs(b.r5)
        lo = total_reward(b, RewardWeights(w_a=0.5))
        hi = total_reward(b, RewardWeights(w_a=2.0))
        assert hi <= lo


def test_breakdown_recompute_is_bit_exact():
    rng = np.random.default_rng(8)
    w = RewardWeights(w_e=0.9, w_a=1.3, w1=1.1, w2=0.2, w3=0.15, w4=2.0, w5=0.4)
    for _ in range(100):
        b = RewardBreakdown(*rng.uniform(-3.0, 3.0, 5))
        b.total = total_reward(b, w)
        assert total_reward(b, w) == b.total


def test_weight_validation():
    with pytest.raises(ValueError):
        RewardWeights(w2=-0.1).validate()
    with pytest.raises(ValueError):
        RewardWeights(sign_r1=0.5).validate()
    RewardWeights().validate()
    RewardWeights(sign_r1=-1.0).validate()


@pytest.mark.parametrize("name", ["w_e", "w_a", "w1", "w2", "w3", "w4", "w5",
                                  "success_bonus"])
def test_weights_above_the_bound_are_refused(name):
    RewardWeights(**{name: MAX_WEIGHT}).validate()
    with pytest.raises(ValueError, match=name):
        RewardWeights(**{name: 2.0 * MAX_WEIGHT}).validate()
    if name == "success_bonus":
        RewardWeights(success_bonus=-MAX_WEIGHT).validate()
        with pytest.raises(ValueError, match=name):
            RewardWeights(success_bonus=-2.0 * MAX_WEIGHT).validate()
