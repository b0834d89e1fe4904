"""Stepping engine: configuration, correctness on solvable models, jumps."""

import math

import numpy as np
import pytest

from sdelab import (
    DomainError,
    FixedPointError,
    ModelClass,
    ModelSpec,
    NoiseStream,
    PointConstant,
    Segment,
    SegmentKind,
    SimConfig,
    UniformSigns,
    evaluate,
    extract_segment,
    extract_segment_left,
    jump_linear,
    linear_retarded,
    neutral_linear,
    sample_poisson_measure,
    simulate,
    simulate_coupled,
)
from sdelab.engine import _UniformSegView, steps_per_window

from helpers import retarded_model

ONES = Segment.constant(np.array([1.0]), 1.0)


def zero_jump_drift_model(scale=0.3, intensity=2.0):
    """Jump model with zero drift: the path is a pure compound-Poisson walk."""
    return ModelSpec(
        model_class=ModelClass.JUMP,
        dim=1,
        brownian_dim=0,
        tau=1.0,
        drift=lambda t, seg: np.zeros(1),
        jump_coeff=lambda t, seg, z: np.array([scale * z]),
        jump_compensator=lambda t, seg: np.zeros(1),
        intensity=intensity,
        mark_law=UniformSigns(),
    )


# ---------------------------------------------------------------------------
# configuration and grid arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(step=0.0, horizon=1.0),
    dict(step=-0.1, horizon=1.0),
    dict(step=0.1, horizon=0.0),
    dict(step=0.1, horizon=1.0, ensemble=0),
    dict(step=0.1, horizon=1.0, divergence_guard=0.0),
    dict(step=0.1, horizon=1.0, fixed_point_tol=0.0),
    dict(step=0.1, horizon=1.0, fixed_point_max_iter=0),
    dict(step=0.1, horizon=1.0, segment_grid_points=1),
    dict(step=0.1, horizon=1.0, threads=0),
])
def test_sim_config_rejects_bad_values(bad):
    with pytest.raises(DomainError):
        SimConfig(**bad)


def test_sim_config_is_frozen():
    cfg = SimConfig(step=0.1, horizon=1.0)
    with pytest.raises(Exception):
        cfg.step = 0.2


def test_steps_per_window_exact_divisibility():
    assert steps_per_window(1.0, 0.1) == 10
    assert steps_per_window(2.0, 0.001) == 2000
    with pytest.raises(DomainError):
        steps_per_window(1.0, 0.3)
    with pytest.raises(DomainError):
        steps_per_window(0.05, 0.1)  # fewer than one step


def test_simulate_rejects_misaligned_horizon():
    model = linear_retarded(1.0, 0.0, 0.0, PointConstant(1.0), 1.0)
    with pytest.raises(DomainError):
        simulate(model, ONES, SimConfig(step=0.3, horizon=1.0))


def test_initial_segment_contract():
    model = linear_retarded(1.0, 0.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=1.0)
    with pytest.raises(DomainError):
        simulate(model, Segment.constant(np.array([1.0]), 2.0), cfg)  # wrong window
    with pytest.raises(DomainError):
        simulate(model, Segment.constant(np.array([1.0, 2.0]), 1.0), cfg)  # wrong dim
    step_seg = Segment(SegmentKind.CADLAG_STEP, np.array([-1.0, 0.0]),
                       np.array([[1.0], [1.0]]))
    with pytest.raises(DomainError):
        simulate(model, step_seg, cfg)  # step-kind initial for a continuous class


# ---------------------------------------------------------------------------
# deterministic reductions with known solutions
# ---------------------------------------------------------------------------

def test_constant_is_preserved_exactly():
    model = retarded_model(lambda t, seg: np.zeros(1), sigma=0.0)
    traj = simulate(model, Segment.constant(np.array([1.5]), 1.0),
                    SimConfig(step=0.1, horizon=3.0))
    assert np.all(traj.states == 1.5)
    assert not traj.diverged
    assert traj.horizon == pytest.approx(3.0)
    assert np.all(traj.drift_integral == 0.0)


def test_pure_delay_equation_method_of_steps():
    # dX = X(t-1) dt from a constant-one history: X(1) = 2, X(2) = 3.5
    model = retarded_model(lambda t, seg: seg.eval(-1.0), sigma=0.0)
    traj = simulate(model, ONES, SimConfig(step=1e-3, horizon=2.0))
    assert abs(traj.state_at(1.0)[0] - 2.0) < 5e-3
    assert abs(traj.state_at(2.0)[0] - 3.5) < 1e-2


def test_exponential_decay_matches_closed_form():
    model = retarded_model(lambda t, seg: -seg.eval(0.0), sigma=0.0)
    traj = simulate(model, ONES, SimConfig(step=1e-4, horizon=1.0))
    assert traj.state_at(1.0)[0] == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_linear_growth_and_interpolation():
    # drift 1, sigma 0, xi(theta) = theta: X(t) = t for every t, including
    # between grid nodes (the continuous kind interpolates linearly).
    model = retarded_model(lambda t, seg: np.ones(1), sigma=0.0)
    grid = np.array([-1.0, 0.0])
    xi = Segment(SegmentKind.CONTINUOUS_LINEAR, grid, grid[:, None].copy())
    traj = simulate(model, xi, SimConfig(step=0.1, horizon=2.0))
    assert traj.state_at(1.3)[0] == pytest.approx(1.3, abs=1e-12)
    assert traj.state_at(0.75)[0] == pytest.approx(0.75, abs=1e-12)
    assert traj.state_at(-0.5)[0] == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(DomainError):
        traj.state_at(2.5)
    # drift integral accumulates b*h exactly
    assert traj.drift_integral[-1, 0] == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_same_seed_same_path_bitwise():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=7)
    a = simulate(model, ONES, cfg, path_index=4)
    b = simulate(model, ONES, cfg, path_index=4)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_seed_and_path_index_matter():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=7)
    base = simulate(model, ONES, cfg, path_index=0)
    other_path = simulate(model, ONES, cfg, path_index=1)
    other_seed = simulate(model, ONES, SimConfig(step=0.05, horizon=2.0, master_seed=8))
    assert not np.array_equal(base.states, other_path.states)
    assert not np.array_equal(base.states, other_seed.states)


def test_jump_class_reproducibility():
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=4.0, master_seed=3)
    a = simulate(model, ONES, cfg, path_index=2)
    b = simulate(model, ONES, cfg, path_index=2)
    c = simulate(model, ONES, cfg, path_index=5)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_coupled_paths_share_the_noise():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=11)
    # identical initials under shared noise give bitwise-identical paths
    a, b = simulate_coupled(model, ONES, ONES, cfg, path_index=3)
    assert np.array_equal(a.states, b.states)
    # and each equals the standalone run with the same (seed, path) address
    solo = simulate(model, ONES, cfg, path_index=3)
    assert np.array_equal(a.states, solo.states)


def test_coupled_jump_paths_share_epochs_and_marks():
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=4.0, master_seed=5)
    eta = Segment.constant(np.array([-1.0]), 1.0)
    a, b = simulate_coupled(model, ONES, eta, cfg)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert not np.array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# Poisson machinery
# ---------------------------------------------------------------------------

def test_poisson_measure_count_moments():
    # counts over (0, 10] at intensity 5: mean 50, variance 50
    reps = 10_000
    counts = np.empty(reps)
    law = UniformSigns()
    for r in range(reps):
        epochs, marks = sample_poisson_measure(5.0, law, 10.0, NoiseStream(99, r))
        counts[r] = epochs.size
        assert epochs.size == marks.size
    se_mean = math.sqrt(50.0 / reps)
    assert abs(counts.mean() - 50.0) < 3 * se_mean
    se_var = counts.var(ddof=1) * math.sqrt(2.0 / (reps - 1))
    assert abs(counts.var(ddof=1) - 50.0) < 3 * se_var


def test_poisson_measure_epochs_sorted_in_range():
    epochs, marks = sample_poisson_measure(5.0, UniformSigns(), 10.0, NoiseStream(0, 0))
    assert np.all(np.diff(epochs) > 0)
    assert epochs[0] > 0.0 and epochs[-1] <= 10.0
    assert set(np.unique(marks)) <= {-1.0, 1.0}


def test_poisson_measure_edge_cases():
    empty_e, empty_m = sample_poisson_measure(0.0, UniformSigns(), 10.0, NoiseStream(0, 0))
    assert empty_e.size == 0 and empty_m.size == 0
    with pytest.raises(DomainError):
        sample_poisson_measure(-1.0, UniformSigns(), 10.0, NoiseStream(0, 0))


# ---------------------------------------------------------------------------
# jump-class mechanics
# ---------------------------------------------------------------------------

def test_jump_epochs_are_exact_grid_nodes():
    model = zero_jump_drift_model()
    cfg = SimConfig(step=0.1, horizon=5.0, master_seed=1)
    traj = simulate(model, ONES, cfg)
    jumps = traj.jump_times
    assert jumps.size > 0
    for e in jumps:
        assert e in traj.times  # inserted exactly, not rounded to the grid
    # with zero drift the path only moves at epochs, by exactly +-scale
    idx = {float(t): i for i, t in enumerate(traj.times)}
    for e in jumps:
        i = idx[float(e)]
        delta = traj.states[i, 0] - traj.states[i - 1, 0]
        assert abs(delta) == pytest.approx(0.3, abs=1e-12)
    flagged = set(np.round(jumps, 12))
    for i, t in enumerate(traj.times):
        if t > 0 and round(float(t), 12) not in flagged:
            assert traj.states[i, 0] == traj.states[i - 1, 0]


def test_compensated_increments_are_centered():
    # ensemble mean of X(t) - X(0) - integral of the raw drift is zero
    # within 3 standard errors at t in {1, 5, 10}
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.02, horizon=10.0, master_seed=17)
    n_paths = 400
    checkpoints = (1.0, 5.0, 10.0)
    devs = {t: [] for t in checkpoints}
    for p in range(n_paths):
        traj = simulate(model, ONES, cfg, path_index=p)
        assert not traj.diverged
        i0 = int(np.searchsorted(traj.times, 0.0))
        for t in checkpoints:
            i = int(np.argmin(np.abs(traj.times - t)))
            assert abs(traj.times[i] - t) < 1e-9
            devs[t].append(traj.states[i, 0] - traj.states[i0, 0]
                           - traj.drift_integral[i, 0])
    for t in checkpoints:
        d = np.asarray(devs[t])
        se = d.std(ddof=1) / math.sqrt(n_paths)
        assert abs(d.mean()) < 3 * se, f"t={t}: mean {d.mean():.4f}, se {se:.4f}"


def test_saturating_jump_reads_the_left_limit():
    model = jump_linear(3.0, 0.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0,
                        saturating=True)
    cfg = SimConfig(step=0.05, horizon=5.0, master_seed=2)
    xi = Segment.constant(np.array([2.0]), 1.0)
    traj = simulate(model, xi, cfg)
    jumps = traj.jump_times
    assert jumps.size > 0
    idx = {float(t): i for i, t in enumerate(traj.times)}
    for e in jumps:
        i = idx[float(e)]
        dt = traj.times[i] - traj.times[i - 1]
        # drift is -3x with symmetric marks (zero compensator), so the
        # pre-jump value is the Euler evolution of the previous node
        x_pre = traj.states[i - 1, 0] + (-3.0 * traj.states[i - 1, 0]) * dt
        gain = abs(traj.states[i, 0] - x_pre) / (1.0 + abs(x_pre))
        assert gain == pytest.approx(0.3, abs=1e-12)


def test_step_kind_initial_jump_flags_survive():
    model = zero_jump_drift_model()
    grid = np.array([-1.0, -0.4, 0.0])
    xi = Segment(SegmentKind.CADLAG_STEP, grid,
                 np.array([[0.0], [1.0], [1.0]]),
                 np.array([False, True, False]))
    traj = simulate(model, xi, SimConfig(step=0.1, horizon=2.0, master_seed=0))
    i = int(np.argmin(np.abs(traj.times + 0.4)))
    assert abs(traj.times[i] + 0.4) < 1e-12
    assert traj.jump_flags[i]
    assert traj.states[i, 0] == 1.0 and traj.states[i - 1, 0] == 0.0


# ---------------------------------------------------------------------------
# segment view with a rows axis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_segment_view_block_reads_equal_row_reads(dim):
    # h = 0.1, tau = 1: 10 history steps; the head sits past the window start
    rng = np.random.default_rng(7)
    block = rng.normal(size=(5, 16, dim))
    view = _UniformSegView(block, 0.1, 1.0, 10)
    rows = [_UniformSegView(block[r], 0.1, 1.0, 10) for r in range(5)]
    for head in (10, 13, 15):
        view.head = head
        for row in rows:
            row.head = head
        reads = [(lambda v: v.zero(), (5, dim)), (lambda v: v.sup_norm(), (5,))] + [
            (lambda v, th=th: v.eval(th), (5, dim))
            for th in (0.0, -0.3, -1.0, -0.27, -0.95)]
        for read, shape in reads:
            got = read(view)
            assert got.shape == shape
            assert np.array_equal(got, np.stack([read(row) for row in rows]))


# ---------------------------------------------------------------------------
# neutral fixed point
# ---------------------------------------------------------------------------

def test_neutral_fixed_point_iteration_budget():
    # contraction 0.25 at tolerance 1e-12 needs at most 22 sweeps
    model = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    cfg = SimConfig(step=0.01, horizon=5.0, master_seed=0)
    traj = simulate(model, ONES, cfg)
    assert not traj.diverged
    assert 1 <= traj.max_fixed_point_iters <= 22


def test_neutral_fixed_point_budget_exhaustion_raises():
    model = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    cfg = SimConfig(step=0.01, horizon=1.0, master_seed=0, fixed_point_max_iter=1)
    with pytest.raises(FixedPointError):
        simulate(model, ONES, cfg)


def test_neutral_point_lag_converges_in_two_sweeps():
    # for a strictly positive point lag the unknown newest value never feeds
    # back into G, so the first sweep lands and the second confirms
    model = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    traj = simulate(model, ONES, SimConfig(step=0.01, horizon=2.0))
    assert traj.max_fixed_point_iters <= 2


# ---------------------------------------------------------------------------
# divergence guard
# ---------------------------------------------------------------------------

def test_divergence_flags_and_truncates():
    model = retarded_model(lambda t, seg: 5.0 * seg.eval(0.0), sigma=0.0)
    cfg = SimConfig(step=0.01, horizon=5.0, divergence_guard=1e3)
    traj = simulate(model, ONES, cfg)  # exponential blow-up, no exception
    assert traj.diverged
    assert traj.diverged_at is not None
    assert traj.horizon == pytest.approx(traj.diverged_at)
    assert traj.horizon < 5.0
    assert np.all(np.isfinite(traj.states))
    assert np.abs(traj.states[:-1]).max() < 1e3


def test_divergence_on_nonfinite_state():
    model = retarded_model(
        lambda t, seg: np.array([np.inf]) if t > 0.5 else np.zeros(1), sigma=0.0)
    traj = simulate(model, ONES, SimConfig(step=0.1, horizon=2.0))
    assert traj.diverged and traj.diverged_at <= 0.7 + 1e-9


# ---------------------------------------------------------------------------
# segment extraction
# ---------------------------------------------------------------------------

def test_extract_segment_at_time_zero_recovers_initial():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    xi_grid = np.array([-1.0, 0.0])
    xi = Segment(SegmentKind.CONTINUOUS_LINEAR, xi_grid, np.array([[-1.0], [1.0]]))
    traj = simulate(model, xi, SimConfig(step=0.1, horizon=2.0))
    seg = extract_segment(traj, 0.0)
    assert seg.kind is SegmentKind.CONTINUOUS_LINEAR
    for th in np.linspace(-1.0, 0.0, 7):
        assert evaluate(seg, th)[0] == pytest.approx(evaluate(xi, th)[0], abs=1e-12)


def test_extract_segment_of_linear_path():
    model = retarded_model(lambda t, seg: np.ones(1), sigma=0.0)
    grid = np.array([-1.0, 0.0])
    xi = Segment(SegmentKind.CONTINUOUS_LINEAR, grid, grid[:, None].copy())
    traj = simulate(model, xi, SimConfig(step=0.1, horizon=3.0))
    seg = extract_segment(traj, 2.0)
    assert seg.grid[0] == -1.0 and seg.grid[-1] == 0.0
    for th in seg.grid:
        assert evaluate(seg, th)[0] == pytest.approx(2.0 + th, abs=1e-12)


def test_extract_segment_grid_override():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=2.0, segment_grid_points=6)
    traj = simulate(model, ONES, cfg)
    seg = extract_segment(traj, 1.0, cfg)
    assert seg.grid.size == 6
    # an override whose spacing is not a step multiple is rejected
    bad = SimConfig(step=0.1, horizon=2.0, segment_grid_points=7)
    with pytest.raises(DomainError):
        extract_segment(traj, 1.0, bad)


def test_extract_segment_left_at_a_jump():
    model = zero_jump_drift_model()
    traj = simulate(model, ONES, SimConfig(step=0.1, horizon=5.0, master_seed=1))
    jumps = traj.jump_times
    e = float(jumps[np.searchsorted(jumps, 1.0)])  # an epoch after t = 1
    post = extract_segment(traj, e)
    pre = extract_segment_left(traj, e)
    i = int(np.argmin(np.abs(traj.times - e)))
    assert evaluate(post, 0.0)[0] == pytest.approx(traj.states[i, 0], abs=1e-12)
    assert evaluate(pre, 0.0)[0] == pytest.approx(traj.states[i - 1, 0], abs=1e-12)
    assert post.jump_flags[-1] and post.kind is SegmentKind.CADLAG_STEP
    # interior epochs of the window carry their flags into the segment
    inner = jumps[(jumps > e - 1.0) & (jumps < e)]
    flagged = post.grid[post.jump_flags]
    for t_j in inner:
        assert np.any(np.abs(flagged - (t_j - e)) < 1e-9)


def test_extract_segment_out_of_range():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    traj = simulate(model, ONES, SimConfig(step=0.1, horizon=2.0))
    with pytest.raises(DomainError):
        extract_segment(traj, -0.5)
    with pytest.raises(DomainError):
        extract_segment(traj, 2.5)
