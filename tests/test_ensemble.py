"""Ensemble runners: engine equivalence, observers, threading, divergence."""

import math

import numpy as np
import pytest

from sdelab import (
    DomainError,
    PointConstant,
    Segment,
    SimConfig,
    UniformSigns,
    jump_linear,
    linear_retarded,
    neutral_linear,
    simulate,
)
from sdelab.ensemble import (
    EnsembleOutcome,
    IntegralAccumulator,
    WindowRecorder,
    _run_generic,
    run_ensemble,
    supports_batch,
)

from helpers import retarded_model

ONES = Segment.constant(np.array([1.0]), 1.0)


def terminal_value(*wins):
    return wins[0][..., -1, 0]


def recorder(steps, n_paths):
    return WindowRecorder(steps, {"x": terminal_value}, n_paths)


# ---------------------------------------------------------------------------
# engine equivalence: vectorized kernel vs per-path fallback
# ---------------------------------------------------------------------------

def test_batch_kernel_matches_per_path_engine_retarded():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    assert supports_batch(model)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=13)
    steps = [0, 7, 30, 60]
    rec_b = recorder(steps, 6)
    out_b = run_ensemble(model, ONES, cfg, 6, rec_b)
    rec_g = recorder(steps, 6)
    out_g = _run_generic(model, ONES, cfg, 6, rec_g, 0, None)
    assert np.array_equal(rec_b.out["x"], rec_g.out["x"])  # bitwise
    assert out_b.n_diverged == out_g.n_diverged == 0


def test_batch_kernel_matches_per_path_engine_neutral():
    model = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    assert supports_batch(model)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=5)
    steps = [0, 10, 25, 40]
    rec_b = recorder(steps, 4)
    out_b = run_ensemble(model, ONES, cfg, 4, rec_b)
    rec_g = recorder(steps, 4)
    out_g = _run_generic(model, ONES, cfg, 4, rec_g, 0, None)
    assert np.array_equal(rec_b.out["x"], rec_g.out["x"])
    assert out_b.max_fixed_point_iters == out_g.max_fixed_point_iters


def test_batch_kernel_matches_engine_with_distributed_lag():
    from sdelab import Distributed
    lag = Distributed(atoms=(-1.0, -0.5), weights=(0.5, 0.5))
    model = linear_retarded(3.0, 1.0, 0.5, lag, 1.0)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=3)
    steps = [0, 20, 40]
    rec_b = recorder(steps, 3)
    run_ensemble(model, ONES, cfg, 3, rec_b)
    rec_g = recorder(steps, 3)
    _run_generic(model, ONES, cfg, 3, rec_g, 0, None)
    assert np.allclose(rec_b.out["x"], rec_g.out["x"], atol=1e-13, rtol=0)


def test_generic_models_take_the_fallback_route():
    model = retarded_model(lambda t, seg: -seg.eval(0.0), sigma=0.2)
    assert not supports_batch(model)
    cfg = SimConfig(step=0.1, horizon=1.0, master_seed=1)
    rec = recorder([10], 3)
    run_ensemble(model, ONES, cfg, 3, rec)
    assert np.all(np.isfinite(rec.out["x"]))


def test_jump_models_take_the_fallback_route():
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    assert not supports_batch(model)
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=1)
    rec = recorder([0, 20], 4)
    run_ensemble(model, ONES, cfg, 4, rec)
    # step 0 window ends at the initial value; step 20 is the t = 2 window
    assert np.all(rec.out["x"][:, 0] == 1.0)
    for p in range(4):
        traj = simulate(model, ONES, cfg, path_index=p)
        assert rec.out["x"][p, 1] == traj.state_at(2.0)[0]


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------

def test_window_recorder_matches_direct_simulation():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=21)
    steps = [0, 5, 10, 20]
    rec = recorder(steps, 2)
    run_ensemble(model, ONES, cfg, 2, rec)
    for p in range(2):
        traj = simulate(model, ONES, cfg, path_index=p)
        for col, k in enumerate(steps):
            assert rec.out["x"][p, col] == traj.state_at(k * cfg.step)[0]


def test_window_recorder_sees_the_full_window():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=1.0)
    shapes = []

    class Probe:
        def see_batch(self, step, *wins):
            shapes.append(wins[0].shape)

        def see_path(self, path, step, *wins):  # pragma: no cover
            shapes.append(wins[0].shape)

    run_ensemble(model, ONES, cfg, 3, Probe())
    # trailing window = tau/h + 1 nodes for every step, all paths at once
    assert all(s == (3, 11, 1) for s in shapes)
    assert len(shapes) == 11  # steps 0..10


def test_integral_accumulator_matches_manual_average():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=4.0, master_seed=9)
    acc = IntegralAccumulator(burn_steps=10, stride=2,
                              fn=lambda w: w[..., -1, 0] ** 2,
                              n_paths=2, n_records=15)
    run_ensemble(model, ONES, cfg, 2, acc)
    for p in range(2):
        traj = simulate(model, ONES, cfg, path_index=p)
        picks = [traj.state_at(k * 0.1)[0] ** 2
                 for k in range(11, 41) if (k - 10) % 2 == 0]
        assert acc.counts[p] == len(picks)
        assert acc.sums[p] == pytest.approx(sum(picks), rel=1e-12)
        assert acc.max_abs[p] == pytest.approx(max(abs(v) for v in picks), rel=1e-12)


def test_integral_accumulator_skips_burn_in():
    acc = IntegralAccumulator(burn_steps=5, stride=1, fn=lambda w: 1.0,
                              n_paths=1, n_records=10)
    for k in range(16):
        acc.see_path(0, k, np.zeros((2, 1)))
    assert acc.counts[0] == 10  # steps 6..15 inclusive


def test_coupled_observer_receives_both_windows():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=2)
    rec = WindowRecorder([20], {"gap": lambda wa, wb: np.abs(wa - wb).max(axis=(-2, -1))},
                         n_paths=3)
    run_ensemble(model, ONES, cfg, 3, rec, eta=ONES)
    # identical initials under synchronous coupling collapse to gap 0 exactly
    assert np.all(rec.out["gap"] == 0.0)

    eta = Segment.constant(np.array([2.0]), 1.0)
    rec2 = WindowRecorder([0, 20], {"gap": lambda wa, wb: np.abs(wa - wb).max(axis=(-2, -1))},
                          n_paths=3)
    run_ensemble(model, ONES, cfg, 3, rec2, eta=eta)
    gaps = rec2.out["gap"]
    assert np.all(gaps[:, 0] == 1.0)
    assert np.all(gaps[:, 1] < 1.0)  # dissipative pair contracts


# ---------------------------------------------------------------------------
# path offsets and threading
# ---------------------------------------------------------------------------

def test_path_offset_addresses_the_same_noise():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=31)
    rec = recorder([20], 2)
    run_ensemble(model, ONES, cfg, 2, rec, path_offset=5)
    for p in range(2):
        traj = simulate(model, ONES, cfg, path_index=5 + p)
        assert rec.out["x"][p, 0] == traj.state_at(2.0)[0]


def test_threads_do_not_change_results():
    model = retarded_model(lambda t, seg: -seg.eval(0.0) + 0.5 * seg.eval(-1.0),
                           sigma=0.3)
    steps = [0, 10, 20]
    outs = []
    for threads in (1, 4):
        cfg = SimConfig(step=0.1, horizon=2.0, master_seed=8, threads=threads)
        rec = recorder(steps, 8)
        run_ensemble(model, ONES, cfg, 8, rec)
        outs.append(rec.out["x"].copy())
    assert np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# divergence bookkeeping
# ---------------------------------------------------------------------------

def test_outcome_counts_divergers_generic():
    model = retarded_model(lambda t, seg: 5.0 * seg.eval(0.0), sigma=0.0)
    cfg = SimConfig(step=0.01, horizon=5.0, divergence_guard=1e3)
    rec = recorder([0], 3)
    out = run_ensemble(model, ONES, cfg, 3, rec)
    assert out.n_diverged == 3
    assert np.all(np.isfinite(out.first_bad_time))
    assert np.all(out.first_bad_time < 5.0)


def test_outcome_counts_divergers_batch():
    # unstable linear pair (a < b_lag) blows up deterministically from ones
    model = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=10.0, divergence_guard=1e3)
    rec = recorder([0], 4)
    out = run_ensemble(model, ONES, cfg, 4, rec)
    assert out.n_diverged == 4
    assert np.all(out.first_bad_time < 10.0)


@pytest.mark.parametrize("eta", [None, Segment.constant(np.array([0.5]), 1.0)],
                         ids=["single", "coupled"])
def test_diverged_paths_read_the_same_on_both_routes(eta):
    # one divergence rule: observers never see a path at or after its first
    # bad step (here t = 8.1, step 810), on either route
    model = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=10.0, divergence_guard=1e3)
    steps = [809, 810, 811, 1000]
    outs = []
    for run in (run_ensemble, _run_generic):
        rec = recorder(steps, 2)
        out = run(model, ONES, cfg, 2, rec, 0, eta)
        assert out.n_diverged == 2
        assert np.all(out.first_bad_time == 8.1)
        outs.append(rec.out["x"])
    assert np.array_equal(outs[0], outs[1], equal_nan=True)
    assert outs[0][0, 0] == pytest.approx(992.61, abs=0.01)
    assert np.all(np.isnan(outs[0][:, 1:]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_neutral_overflow_is_flagged_not_raised():
    # with no finite guard the state overflows inside the neutral solve; the
    # NaN residual ends the solve and the path is flagged on both routes
    model = neutral_linear(0.25, PointConstant(1.0), 0.5, 3.0, 0.0, 1.0)
    cfg = SimConfig(step=0.1, horizon=1000.0, divergence_guard=math.inf)
    traj = simulate(model, ONES, cfg)
    assert traj.diverged and not np.isfinite(traj.states[-1]).all()
    out = run_ensemble(model, ONES, cfg, 2, recorder([0], 2))
    assert np.all(out.first_bad_time == traj.diverged_at)


def test_batch_wider_than_4096_paths_matches_simulate():
    # above 4096 paths the kernel shortens its chunks (here to 1023 steps), so
    # the run crosses a chunk boundary and a buffer roll at full width
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=110.0, master_seed=17)
    n_paths = 4100
    steps = sorted(set(range(0, 1101, 50)) | {1022, 1023, 1024, 1025})
    rec = recorder(steps, n_paths)
    out = run_ensemble(model, ONES, cfg, n_paths, rec)
    assert out.n_diverged == 0
    for p in (0, 4096, n_paths - 1):
        traj = simulate(model, ONES, cfg, path_index=p)
        assert np.array_equal(rec.out["x"][p], traj.states[10 + np.array(steps), 0])


def test_run_ensemble_needs_a_path():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    with pytest.raises(DomainError):
        run_ensemble(model, ONES, SimConfig(step=0.1, horizon=1.0), 0, recorder([0], 1))


def test_outcome_starts_clean():
    out = EnsembleOutcome(5)
    assert out.n_diverged == 0
    assert np.all(np.isnan(out.first_bad_time))
