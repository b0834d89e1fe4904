"""Stepping engine: configuration, correctness on solvable models, jumps."""

import math
import time

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
    UniformInterval,
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
from sdelab import engine
from sdelab.engine import (
    _NODE_ATOL,
    _CadlagView,
    _UniformSegView,
    _jump_nodes,
    steps_per_window,
)

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
# the node table of a jump path
# ---------------------------------------------------------------------------

_ATOL = 1e-12


def _reference_jump_nodes(xi, tau, h, k_hist, n_steps, epochs):
    """List-insertion loop the node table replaced, with each epoch's node.

    The history branch tests the node at the insertion index itself (the
    replaced loop read ``hist_times[min(i, k_hist)]``, a stale bound once the
    list had grown).
    """
    hist_times = list(np.linspace(-tau, 0.0, k_hist + 1))
    hist_flags = [False] * (k_hist + 1)
    for t_j in xi.grid[xi.jump_flags]:
        if t_j <= -tau or t_j >= 0.0:
            continue
        i = int(np.searchsorted(hist_times, t_j))
        if abs(hist_times[i] - t_j) < _ATOL:
            hist_flags[i] = True
        elif i > 0 and abs(hist_times[i - 1] - t_j) < _ATOL:
            hist_flags[i - 1] = True
        else:
            hist_times.insert(i, float(t_j))
            hist_flags.insert(i, True)
    fwd_times = list(h * np.arange(1, n_steps + 1))
    fwd_flags = [False] * len(fwd_times)
    for e in epochs:
        i = int(np.searchsorted(fwd_times, e))
        if i < len(fwd_times) and abs(fwd_times[i] - e) < _ATOL:
            fwd_flags[i] = True
        elif i > 0 and abs(fwd_times[i - 1] - e) < _ATOL:
            fwd_flags[i - 1] = True
        else:
            fwd_times.insert(i, float(e))
            fwd_flags.insert(i, True)
    times = np.concatenate([hist_times, fwd_times])
    flags = np.array(hist_flags + fwd_flags, dtype=bool)
    nodes = []
    for e in epochs:
        i = int(np.searchsorted(times, e))
        if i < times.size and abs(times[i] - e) < _ATOL:
            nodes.append(i)
        elif i > 0 and abs(times[i - 1] - e) < _ATOL:
            nodes.append(i - 1)
    return times, flags, np.array(nodes, dtype=int)


def _reference_epochs(intensity, horizon, stream):
    """The sequential ``t += g`` epoch draw in blocks of 64 uniforms."""
    epochs = []
    t = 0.0
    start = 0
    while True:
        for g in -np.log(stream.epoch_uniforms(start, 64)) / intensity:
            t += g
            if t > horizon:
                return np.asarray(epochs)
            epochs.append(t)
        start += 64


def _near(rng, nodes, count, offsets):
    """``count`` times at random nodes, each moved by a random offset."""
    picks = rng.choice(nodes, size=count)
    return picks + rng.choice(offsets, size=count)


def _random_node_inputs(rng):
    tau = float(rng.choice([0.5, 1.0, 2.0]))
    h = float(rng.choice([0.01, 0.02, 0.025, 0.1]))
    k_hist = steps_per_window(tau, h, "tau")
    horizon = h * int(rng.integers(10, 400))
    n_steps = steps_per_window(horizon, h, "horizon")
    hist_grid = np.linspace(-tau, 0.0, k_hist + 1)
    # history jumps on, near and off the grid
    on_near = _near(rng, hist_grid[1:-1], int(rng.integers(0, 4)),
                    [0.0, 1e-14, -1e-14, 5e-13, -5e-13])
    off = rng.uniform(-tau, 0.0, size=int(rng.integers(0, 4)))
    jumps = np.unique(np.concatenate([on_near, off]))
    jumps = jumps[(jumps > -tau + 1e-6) & (jumps < -1e-6)]
    grid = np.concatenate([[-tau], jumps, [0.0]])
    flags = np.zeros(grid.size, dtype=bool)
    flags[1:-1] = True
    xi = Segment(SegmentKind.CADLAG_STEP, grid, rng.normal(size=(grid.size, 1)), flags)
    # epochs within 1e-14 and 5e-13 of a grid node land on it; 2e-12 off
    # stays a node of its own
    fwd_grid = h * np.arange(1, n_steps + 1)
    epochs = np.unique(np.concatenate([
        _near(rng, fwd_grid, int(rng.integers(0, 8)),
              [0.0, 1e-14, -1e-14, 5e-13, -5e-13, 2e-12, -2e-12]),
        rng.uniform(0.0, horizon, size=int(rng.integers(0, 100))),
    ]))
    epochs = epochs[(epochs > 0.0) & (epochs <= horizon)]
    return xi, tau, h, k_hist, n_steps, epochs


def test_node_table_equals_the_insertion_loop():
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        args = _random_node_inputs(rng)
        times, flags, i_zero, epoch_node = _jump_nodes(*args)
        ref_times, ref_flags, ref_nodes = _reference_jump_nodes(*args)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(epoch_node, ref_nodes)
        assert times[i_zero] == 0.0 and np.all(times[:i_zero] < 0.0)


def test_on_grid_history_jump_after_inserted_ones_is_not_duplicated():
    tau, h = 1.0, 0.01
    k_hist = steps_per_window(tau, h, "tau")
    on_grid = np.linspace(-tau, 0.0, k_hist + 1)[k_hist - 1]  # theta = -0.01
    grid = np.array([-tau, -0.505, -0.205, on_grid, 0.0])
    xi = Segment(SegmentKind.CADLAG_STEP, grid, np.arange(5.0)[:, None],
                 np.array([False, True, True, True, False]))
    times, flags, i_zero, _ = _jump_nodes(xi, tau, h, k_hist, 10, np.empty(0))
    assert np.all(np.diff(times) > 0)
    assert i_zero + 1 == 103
    assert np.array_equal(times[flags], [-0.505, -0.205, on_grid])


def test_two_epochs_on_one_node_apply_the_later_mark(monkeypatch):
    epochs = np.array([0.5 - 1e-14, 0.5 + 1e-14])
    monkeypatch.setattr(engine, "sample_poisson_measure",
                        lambda *args: (epochs, np.array([1.0, -1.0])))
    cfg = SimConfig(step=0.1, horizon=1.0)
    traj = simulate(zero_jump_drift_model(), ONES, cfg)
    assert traj.times.size == 21 and traj.jump_flags.sum() == 1
    i = int(np.flatnonzero(traj.jump_flags)[0])
    assert traj.states[i - 1, 0] == 1.0 and traj.states[i, 0] == 1.0 - 0.3


def test_epochs_equal_the_sequential_draw():
    rng = np.random.default_rng(7)
    law = UniformSigns()
    for _ in range(200):
        seed, path = (int(x) for x in rng.integers(0, 2**31, size=2))
        intensity = float(rng.choice([0.5, 2.0, 20.0])) * rng.uniform(0.5, 2.0)
        horizon = float(rng.uniform(0.1, 20.0))  # lambda T up to 800 crosses blocks
        epochs, marks = sample_poisson_measure(intensity, law, horizon,
                                               NoiseStream(seed, path))
        ref = _reference_epochs(intensity, horizon, NoiseStream(seed, path))
        assert epochs.size == ref.size == marks.size
        assert np.array_equal(epochs, ref)


# expected counts on both sides of 64 and of the doubled blocks' ends, 192 and 448
@pytest.mark.parametrize("lam_t", [0.3, 10.0, 63.5, 64.0, 64.5, 191.0, 193.0,
                                   447.0, 449.0, 5_000.0])
def test_doubling_blocks_keep_the_64_gap_epochs(lam_t):
    law = UniformInterval(-1.0, 2.0)
    for path in range(5):
        stream = NoiseStream(41, path)
        epochs, marks = sample_poisson_measure(lam_t / 10.0, law, 10.0, stream)
        ref = _reference_epochs(lam_t / 10.0, 10.0, stream)
        assert epochs.tobytes() == ref.tobytes()
        assert marks.tobytes() == law.from_uniform(stream.mark_uniforms(0, ref.size)).tobytes()


def test_poisson_epochs_draw_in_linear_time():
    # 4e5 epochs on one path; blocks of 64 took over a second here
    t0 = time.perf_counter()
    epochs, marks = sample_poisson_measure(4_000.0, UniformSigns(), 100.0, NoiseStream(5, 0))
    elapsed = time.perf_counter() - t0
    assert abs(epochs.size - 400_000) < 5 * math.sqrt(400_000) and marks.size == epochs.size
    assert elapsed < 0.5


def test_node_table_builds_in_linear_time():
    # lambda = 20 over T = 200: about 4 000 epochs on a 20 000-node grid
    t0 = time.perf_counter()
    epochs, _ = sample_poisson_measure(20.0, UniformSigns(), 200.0, NoiseStream(3, 0))
    xi = Segment.constant(np.array([0.0]), 1.0, kind=SegmentKind.CADLAG_STEP)
    times, _, _, epoch_node = _jump_nodes(xi, 1.0, 0.01, 100, 20_000, epochs)
    elapsed = time.perf_counter() - t0
    assert epochs.size > 3_500 and times.size == 101 + 20_000 + epochs.size
    assert elapsed < 0.5


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


@pytest.mark.parametrize("h, lag", [(0.01, 1.0), (0.02, 1.0), (0.025, 1.0), (0.01, 0.5),
                                    (0.02, 0.3)])
def test_cadlag_view_reads_the_node_at_the_lag(h, lag):
    tau = 1.0
    k_hist = steps_per_window(tau, h, "tau")

    def uniform(horizon):
        return np.concatenate([np.linspace(-tau, 0.0, k_hist + 1),
                               h * np.arange(1, steps_per_window(horizon, h, "horizon") + 1)])

    # two rows end to end: the uniform grid to t = 5, then a shorter grid
    # holding an epoch e, an epoch exactly at e - lag and one within
    # _NODE_ATOL after that
    e = 2.0 + 0.37 * h
    s = e - lag
    grid = uniform(5.0)
    row = np.sort(np.concatenate([uniform(3.0), [s, s + 0.5 * _NODE_ATOL, e]]))
    times = np.concatenate([grid, row])
    first = [0, grid.size, times.size]
    # distinct states, largest at the oldest node of each row, so a read names its node
    states = (times.size - np.arange(times.size, dtype=float))[:, None]
    fixed = _CadlagView(states, times, first, tau, (-lag,))
    searched = _CadlagView(states, times, first, tau, ())
    # fixed reads at -lag; any other offset goes through the search
    reads = ((fixed, -lag), (searched, -lag), (fixed, -lag - 0.25 * _NODE_ATOL))

    # per head from time 0 on: the last node of its row within _NODE_ATOL
    # of the lag and of the window start
    want = {}
    for a, b in ((0, grid.size), (grid.size, times.size)):
        for j in range(a + k_hist, b):
            past = times[a:j + 1]
            want[j] = (a + np.flatnonzero(past <= past[-1] - lag + _NODE_ATOL)[-1],
                       a + np.flatnonzero(past <= past[-1] - tau + _NODE_ATOL)[-1])
    back = steps_per_window(lag, h, "lag")
    assert all(want[j] == (j - back, j - k_hist) for j in range(k_hist, grid.size))
    j_e = grid.size + int(np.flatnonzero(row == e)[0])
    assert want[j_e][0] == grid.size + int(np.flatnonzero(row == s + 0.5 * _NODE_ATOL)[0])

    for j, (at_lag, oldest) in want.items():
        for view, theta in reads:
            view.head = j
            assert view.eval(theta)[0] == states[at_lag, 0]
        assert fixed.sup_norm() == states[oldest, 0]
    # one head per row reads (rows, n): the nodes each head reads alone
    for pair in zip(range(k_hist, grid.size), range(j_e - 5, times.size)):
        for view, theta in reads:
            view.head = np.array(pair)
            assert np.array_equal(view.eval(theta), states[[want[j][0] for j in pair]])
            assert np.array_equal(view.zero(), states[list(pair)])


def _jump_path():
    model = jump_linear(3.0, 1.0, 0.3, 5.0, UniformSigns(), PointConstant(1.0), 1.0)
    traj = simulate(model, ONES, SimConfig(step=0.01, horizon=3.0, master_seed=4))
    assert traj.jump_times.size > 5
    return traj


def _node_of_each_point(traj, t, seg):
    """The node each segment point sits on, or -1 where it sits on none."""
    pts = t + seg.grid
    j = np.abs(traj.times[None, :] - pts[:, None]).argmin(axis=1)
    return np.where(np.abs(traj.times[j] - pts) < 1e-9, j, -1)


def test_extract_segment_reads_each_node_state():
    traj = _jump_path()
    for t in traj.times[traj.times >= 0.0]:
        seg = extract_segment(traj, float(t))
        node = _node_of_each_point(traj, t, seg)
        on = node >= 0
        assert on.sum() >= 101
        assert np.array_equal(seg.values[on], traj.states[node[on]])


def test_extract_segment_left_reads_each_node_and_the_left_limit():
    traj = _jump_path()
    for t in traj.times[traj.times > 0.0]:
        seg = extract_segment_left(traj, float(t))
        node = _node_of_each_point(traj, t, seg)
        # the newest point is the left limit at t: the state of the node before
        assert seg.values[-1, 0] == traj.states[node[-1] - 1, 0]
        on = node[:-1] >= 0
        assert np.array_equal(seg.values[:-1][on], traj.states[node[:-1][on]])


def test_extract_segment_out_of_range():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    traj = simulate(model, ONES, SimConfig(step=0.1, horizon=2.0))
    with pytest.raises(DomainError):
        extract_segment(traj, -0.5)
    with pytest.raises(DomainError):
        extract_segment(traj, 2.5)
