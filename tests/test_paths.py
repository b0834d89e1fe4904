"""Segments, norms, moduli, time changes, CSV round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    DomainError,
    Segment,
    SegmentKind,
    TimeChange,
    evaluate,
    evaluate_left,
    homeomorphism_norm,
    identity_time_change,
    modulus_of_continuity,
    segment_from_csv,
    segment_to_csv,
    sup_norm,
    uniform_distance,
)
from sdelab.paths import _ENDPOINT_ATOL, evaluate_many

CONT = SegmentKind.CONTINUOUS_LINEAR
STEP = SegmentKind.CADLAG_STEP


# -- construction ------------------------------------------------------------

def test_grid_must_be_strictly_increasing():
    with pytest.raises(DomainError):
        Segment(CONT, np.array([-1.0, -0.5, -0.5, 0.0]), np.zeros(4))


def test_grid_must_span_minus_tau_to_zero():
    with pytest.raises(DomainError):
        Segment(CONT, np.array([-1.0, -0.5]), np.zeros(2))
    with pytest.raises(DomainError):
        Segment(CONT, np.array([0.0, 1.0]), np.zeros(2))


def test_values_length_checked():
    with pytest.raises(DomainError):
        Segment(CONT, np.array([-1.0, 0.0]), np.zeros(3))


def test_nonfinite_values_rejected():
    with pytest.raises(DomainError):
        Segment(CONT, np.array([-1.0, 0.0]), np.array([0.0, np.inf]))


def test_continuous_kind_cannot_carry_jump_flags():
    with pytest.raises(DomainError):
        Segment(CONT, np.array([-1.0, 0.0]), np.zeros(2), np.array([False, True]))


def test_segments_are_immutable():
    seg = Segment.constant(1.0, 1.0)
    with pytest.raises((ValueError, RuntimeError)):
        seg.values[0] = 99.0


# -- evaluation --------------------------------------------------------------

def test_linear_interpolation_midpoint():
    seg = Segment(CONT, np.array([-1.0, 0.0]), np.array([0.0, 1.0]))
    assert evaluate(seg, -0.5) == pytest.approx(0.5)


def test_cadlag_right_continuity_at_jump():
    # jump at -0.5 from 0 to 1: evaluating at the epoch returns the post-jump value
    seg = Segment(STEP, np.array([-1.0, -0.5, 0.0]), np.array([0.0, 1.0, 1.0]),
                  np.array([False, True, False]))
    assert evaluate(seg, -0.5) == 1.0
    assert evaluate_left(seg, -0.5) == 0.0
    assert evaluate(seg, -0.51) == 0.0
    assert evaluate(seg, -0.49) == 1.0


def test_theta_zero_is_newest_value():
    seg = Segment(CONT, np.array([-2.0, -1.0, 0.0]), np.array([1.0, 5.0, -3.0]))
    assert evaluate(seg, 0.0) == -3.0
    np.testing.assert_array_equal(seg.zero(), np.array([-3.0]))


def test_evaluate_exact_at_grid_points():
    rng = np.random.default_rng(0)
    grid = np.array([-1.0, -0.77, -0.3, -0.1, 0.0])
    vals = rng.standard_normal((5, 2))
    for kind in (CONT, STEP):
        seg = Segment(kind, grid, vals)
        for th, v in zip(grid, vals):
            np.testing.assert_array_equal(evaluate(seg, th), v)


def test_evaluate_outside_window_is_domain_error():
    seg = Segment.constant(0.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(seg, -1.5)
    with pytest.raises(DomainError):
        evaluate(seg, 0.5)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", [CONT, STEP])
def test_evaluate_many_equals_scalar_evaluation_exactly(kind, dim):
    rng = np.random.default_rng(5)
    grid = np.array([-1.0, -0.77, -0.3, -0.1, 0.0])
    seg = Segment(kind, grid, rng.standard_normal((grid.size, dim)))
    mids = 0.5 * (grid[:-1] + grid[1:])
    # endpoints overshot by less than the tolerance are read at the endpoint
    near_ends = [-1.0 - 0.5 * _ENDPOINT_ATOL, 0.5 * _ENDPOINT_ATOL]
    thetas = np.concatenate([grid, mids, near_ends])
    right, left = evaluate_many(seg, thetas)
    assert right.shape == left.shape == (thetas.size, dim)
    for th, r, lft in zip(thetas, right, left):
        assert np.all(r == evaluate(seg, th))
        assert np.all(lft == evaluate_left(seg, th))
    for bad in (-1.0 - 10 * _ENDPOINT_ATOL, 10 * _ENDPOINT_ATOL, float("nan")):
        with pytest.raises(DomainError):
            evaluate(seg, bad)
        with pytest.raises(DomainError):
            evaluate_left(seg, bad)
        with pytest.raises(DomainError):
            evaluate_many(seg, np.append(thetas, bad))


# -- sup norm ----------------------------------------------------------------

def test_sup_norm_examples():
    assert sup_norm(Segment.constant(-3.0, 2.0)) == 3.0
    seg = Segment(CONT, np.array([-1.0, -0.5, 0.0]), np.array([1.0, -2.0, 0.5]))
    assert sup_norm(seg) == 2.0
    ramp = Segment(CONT, np.array([-1.0, 0.0]), np.array([-1.0, 0.0]))  # theta |-> theta
    assert sup_norm(ramp) == 1.0


def test_sup_norm_is_euclidean_across_components():
    seg = Segment(CONT, np.array([-1.0, 0.0]), np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert sup_norm(seg) == pytest.approx(5.0)


# -- modulus of continuity ---------------------------------------------------

def test_modulus_lipschitz_ramp():
    ramp = Segment.from_function(lambda th: th, 1.0, 11)
    assert modulus_of_continuity(ramp, 0.1) == pytest.approx(0.1)


def test_modulus_constant_is_zero():
    seg = Segment.constant(4.2, 1.0)
    for d in (0.01, 0.3, 1.0):
        assert modulus_of_continuity(seg, d) == 0.0


def test_modulus_step_sees_jump_at_any_delta():
    seg = Segment(STEP, np.array([-1.0, -0.5, 0.0]), np.array([0.0, 1.0, 1.0]),
                  np.array([False, True, False]))
    assert modulus_of_continuity(seg, 0.01) == pytest.approx(1.0)


def test_modulus_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        modulus_of_continuity(Segment.constant(0.0, 1.0), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.5), st.floats(0.5, 1.0))
def test_modulus_monotone_in_delta(seed, d_small, d_big):
    rng = np.random.default_rng(seed)
    seg = Segment(CONT, np.linspace(-1.0, 0.0, 9), rng.standard_normal(9))
    small = modulus_of_continuity(seg, d_small)
    big = modulus_of_continuity(seg, d_big)
    assert small <= big + 1e-12
    assert big <= 2.0 * sup_norm(seg) + 1e-12


def test_modulus_exact_on_piecewise_linear():
    # hat function: slope 2 up then 2 down; window 0.25 on one flank gives 0.5
    seg = Segment(CONT, np.array([-1.0, -0.5, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert modulus_of_continuity(seg, 0.25) == pytest.approx(0.5)
    # window longer than a flank saturates at the peak-to-valley swing
    assert modulus_of_continuity(seg, 1.0) == pytest.approx(1.0)


# -- time changes ------------------------------------------------------------

def test_identity_time_change_norm_zero():
    assert homeomorphism_norm(identity_time_change(1.0)) == 0.0


def test_single_breakpoint_log_slope():
    # -0.5 |-> -0.4 on [-1, 0]: slopes 1.2 and 0.8, norm = log 1.25
    tc = TimeChange(np.array([-1.0, -0.5, 0.0]), np.array([-1.0, -0.4, 0.0]))
    assert homeomorphism_norm(tc) == pytest.approx(math.log(1.25), abs=1e-12)
    assert abs(homeomorphism_norm(tc) - 0.22314) < 5e-6


def test_time_change_must_fix_endpoints():
    with pytest.raises(DomainError):
        TimeChange(np.array([-1.0, 0.0]), np.array([-0.9, 0.0]))


def test_time_change_must_increase():
    with pytest.raises(DomainError):
        TimeChange(np.array([-1.0, -0.5, 0.0]), np.array([-1.0, -1.2, 0.0]))


def test_time_change_inverse_round_trip():
    tc = TimeChange(np.array([-1.0, -0.3, 0.0]), np.array([-1.0, -0.6, 0.0]))
    inv = tc.inverse()
    ts = np.linspace(-1.0, 0.0, 23)
    np.testing.assert_allclose(inv(tc(ts)), ts, atol=1e-12)
    assert homeomorphism_norm(inv) == pytest.approx(homeomorphism_norm(tc))


# -- uniform distance --------------------------------------------------------

def test_uniform_distance_mixed_grids_exact():
    a = Segment(CONT, np.array([-1.0, 0.0]), np.array([0.0, 1.0]))
    # refinement of the same line: distance exactly zero despite different grids
    b = Segment(CONT, np.array([-1.0, -0.25, 0.0]), np.array([0.0, 0.75, 1.0]))
    assert uniform_distance(a, b) == 0.0
    # a - c is extremal at c's kink theta=-0.5: |0.5 - 1.0| = 0.5
    c = Segment(CONT, np.array([-1.0, -0.5, 0.0]), np.array([0.0, 1.0, 1.0]))
    assert uniform_distance(a, c) == pytest.approx(0.5)


def test_uniform_distance_sees_step_left_limits():
    a = Segment(STEP, np.array([-1.0, -0.5, 0.0]), np.array([0.0, 1.0, 1.0]),
                np.array([False, True, False]))
    b = Segment(STEP, np.array([-1.0, -0.4, 0.0]), np.array([0.0, 1.0, 1.0]),
                np.array([False, True, False]))
    # on [-0.5, -0.4) the two indicators disagree by exactly 1
    assert uniform_distance(a, b) == pytest.approx(1.0)


def test_uniform_distance_dimension_mismatch():
    with pytest.raises(DomainError):
        uniform_distance(Segment.constant([0.0, 0.0], 1.0), Segment.constant(0.0, 1.0))


# -- serialization -----------------------------------------------------------

@pytest.mark.parametrize("kind", [CONT, STEP])
def test_csv_round_trip_bitwise(tmp_path, kind):
    rng = np.random.default_rng(5)
    grid = np.sort(np.concatenate([[-1.0, 0.0], rng.uniform(-0.99, -0.01, 6)]))
    vals = rng.standard_normal((grid.size, 3))
    flags = None
    if kind is STEP:
        flags = rng.random(grid.size) < 0.5
        flags[0] = False
    seg = Segment(kind, grid, vals, flags)
    p = tmp_path / "seg.csv"
    segment_to_csv(seg, p)
    back = segment_from_csv(p, kind)
    np.testing.assert_array_equal(back.grid, seg.grid)
    np.testing.assert_array_equal(back.values, seg.values)
    np.testing.assert_array_equal(back.jump_flags, seg.jump_flags)


def test_csv_header_shape(tmp_path):
    seg = Segment.constant([1.0, 2.0], 1.0)
    p = tmp_path / "seg.csv"
    segment_to_csv(seg, p)
    header = p.read_text().splitlines()[0]
    assert header == "theta,v1,v2,jump"
