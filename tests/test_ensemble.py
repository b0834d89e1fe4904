"""Ensemble runners: engine equivalence, observers, threading, divergence."""

import math

import numpy as np
import pytest

from sdelab import (
    Distributed,
    DomainError,
    GaussianMarks,
    ModelClass,
    ModelSpec,
    NoiseStream,
    PointConstant,
    PointVariable,
    Segment,
    SegmentKind,
    SimConfig,
    UniformSigns,
    jump_linear,
    linear_retarded,
    neutral_linear,
    simulate,
)
from sdelab import engine, ensemble
from sdelab.engine import _node_index
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
STEP = SegmentKind.CADLAG_STEP
JUMP_ONES = Segment.constant(np.array([1.0]), 1.0, kind=STEP)
# history jumps off the step grid (h = 0.05), on it, and within 1e-13 of it
XI_JUMPS = Segment(STEP, np.array([-1.0, -0.503, -0.5, -0.2 + 1e-13, 0.0]),
                   np.array([[1.0], [2.0], [-0.5], [-1.0], [0.5]]),
                   np.array([False, True, True, True, False]))
ETA_JUMPS = Segment(STEP, np.array([-1.0, -0.7, -0.35, -0.1234, 0.0]),
                    np.array([[0.0], [1.0], [-2.0], [0.3], [0.3]]),
                    np.array([False, True, True, True, False]))


def terminal_value(*wins):
    return wins[0][..., -1, 0]


def recorder(steps, n_paths):
    return WindowRecorder(steps, {"x": terminal_value}, n_paths)


# ---------------------------------------------------------------------------
# engine equivalence: vectorized kernel vs per-path fallback
# ---------------------------------------------------------------------------

def every_state(n_steps, n_paths, dim):
    """Record every coordinate of the newest point at every step."""
    fns = {f"x{i}": (lambda *wins, i=i: wins[0][..., -1, i]) for i in range(dim)}
    return WindowRecorder(range(n_steps + 1), fns, n_paths)


def assert_routes_agree(model, xi, cfg, n_paths):
    """The batch kernel and the per-path route give bitwise-equal states."""
    assert supports_batch(model)
    n_steps = round(cfg.horizon / cfg.step)
    rec_b = every_state(n_steps, n_paths, model.dim)
    out_b = run_ensemble(model, xi, cfg, n_paths, rec_b)
    rec_g = every_state(n_steps, n_paths, model.dim)
    out_g = _run_generic(model, xi, cfg, n_paths, rec_g, 0, None)
    for name in rec_b.out:
        assert np.array_equal(rec_b.out[name], rec_g.out[name])  # bitwise
    assert out_b.n_diverged == out_g.n_diverged == 0
    assert out_b.max_fixed_point_iters == out_g.max_fixed_point_iters


# lags on and off the step grid (h = 0.05) for every delay kind
POINT_DELAYS = {
    "point-integer": PointConstant(1.0),
    "point-fractional": PointConstant(0.73),
}
DISTRIBUTED_DELAYS = {
    "distributed-integer": Distributed(atoms=(-1.0, -0.5), weights=(0.5, 0.5)),
    "distributed-fractional": Distributed(atoms=(-0.93, -0.31, 0.0),
                                          weights=(0.5, 0.3, 0.2)),
}
VARIABLE_DELAYS = {
    "variable-integer": PointVariable(lambda t: 1.0 if t < 1.0 else 0.5),
    "variable-fractional": PointVariable(lambda t: 0.6 + 0.3 * math.sin(t)),
}
RETARDED_DELAYS = {**POINT_DELAYS, **VARIABLE_DELAYS, **DISTRIBUTED_DELAYS}
# the neutral map takes a segment alone, so it has no time-variable lag
NEUTRAL_DELAYS = {**POINT_DELAYS, **DISTRIBUTED_DELAYS}


@pytest.mark.parametrize("delay", RETARDED_DELAYS.values(), ids=RETARDED_DELAYS.keys())
def test_batch_kernel_matches_per_path_engine_retarded(delay):
    model = linear_retarded(3.0, 1.0, 0.5, delay, 1.0)
    assert_routes_agree(model, ONES, SimConfig(step=0.05, horizon=3.0, master_seed=13), 6)


@pytest.mark.parametrize("delay", NEUTRAL_DELAYS.values(), ids=NEUTRAL_DELAYS.keys())
def test_batch_kernel_matches_per_path_engine_neutral(delay):
    model = neutral_linear(0.25, delay, 3.0, 0.5, 0.5, 1.0)
    assert_routes_agree(model, ONES, SimConfig(step=0.05, horizon=2.0, master_seed=5), 4)


@pytest.mark.parametrize("factory", [
    lambda sig: linear_retarded(3.0, 1.0, sig, PointConstant(0.73), 1.0, dim=2),
    lambda sig: neutral_linear(0.25, PointConstant(0.73), 3.0, 1.0, sig, 1.0, dim=2),
], ids=["retarded", "neutral"])
def test_batch_kernel_matches_per_path_engine_two_dimensional(factory):
    # a full (non-diagonal) diffusion matrix mixes both noise channels into
    # each coordinate; both routes must sum them in the same order
    model = factory(np.array([[0.5, 0.2], [-0.3, 0.4]]))
    xi = Segment.constant(np.array([1.0, -0.5]), 1.0)
    assert_routes_agree(model, xi, SimConfig(step=0.05, horizon=3.0, master_seed=13), 6)


@pytest.mark.parametrize("run", [run_ensemble, _run_generic], ids=["batch", "per-path"])
def test_variable_lag_leaving_the_window_raises_on_both_routes(run):
    # delta(t) = 0.5 + t passes tau = 1 after t = 0.5
    model = linear_retarded(3.0, 1.0, 0.5, PointVariable(lambda t: 0.5 + t), 1.0)
    cfg = SimConfig(step=0.05, horizon=2.0, master_seed=13)
    with pytest.raises(DomainError, match="outside"):
        run(model, ONES, cfg, 2, recorder([0], 2), 0, None)


def test_generic_models_take_the_fallback_route():
    model = retarded_model(lambda t, seg: -seg.eval(0.0), sigma=0.2)
    assert not supports_batch(model)
    cfg = SimConfig(step=0.1, horizon=1.0, master_seed=1)
    rec = recorder([10], 3)
    run_ensemble(model, ONES, cfg, 3, rec)
    assert np.all(np.isfinite(rec.out["x"]))


def test_jump_built_ins_take_the_batch_route(monkeypatch):
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    assert supports_batch(model)

    def per_path(*args):  # pragma: no cover - fails the test if reached
        raise AssertionError("took the per-path route")

    monkeypatch.setattr(ensemble, "_run_generic", per_path)
    monkeypatch.setattr(ensemble, "simulate", per_path)
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=1)
    rec = recorder([0, 20], 4)
    run_ensemble(model, JUMP_ONES, cfg, 4, rec)
    # step 0 window ends at the initial value; step 20 is the t = 2 window
    assert np.all(rec.out["x"][:, 0] == 1.0)
    for p in range(4):
        traj = simulate(model, JUMP_ONES, cfg, path_index=p)
        assert rec.out["x"][p, 1] == traj.state_at(2.0)[0]


def test_hand_rolled_jump_models_take_the_per_path_route(monkeypatch):
    # the same equation as a ModelSpec of its own: its closures take a scalar
    # mark, so its paths run one at a time through simulate
    built_in = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    model = ModelSpec(
        model_class=ModelClass.JUMP, dim=1, brownian_dim=0, tau=1.0,
        drift=built_in.drift, jump_coeff=lambda t, seg, z: np.array([0.3 * z]),
        jump_compensator=lambda t, seg: np.zeros(1),
        intensity=2.0, mark_law=UniformSigns())
    assert not supports_batch(model)
    calls = []
    monkeypatch.setattr(ensemble, "simulate",
                        lambda *args: calls.append(args[-1].path_index) or simulate(*args))
    cfg = SimConfig(step=0.1, horizon=2.0, master_seed=1)
    rec = recorder([0, 20], 4)
    run_ensemble(model, JUMP_ONES, cfg, 4, rec)
    assert calls == [0, 1, 2, 3]
    ref = recorder([0, 20], 4)
    run_ensemble(built_in, JUMP_ONES, cfg, 4, ref)
    assert np.array_equal(rec.out["x"], ref.out["x"])


# ---------------------------------------------------------------------------
# jump kernel: every window and outcome equal to simulate, path by path
# ---------------------------------------------------------------------------

class WindowLog:
    """Keep a copy of every window a runner shows, by (path, step), and the
    step and window shapes of every call.  A block call is expanded into its
    paths' windows."""

    def __init__(self):
        self.seen = {}
        self.calls = []

    def see_path(self, paths, step, *wins):
        self.calls.append((step, [w.shape for w in wins]))
        if isinstance(paths, int):
            self.seen[paths, step] = [w.copy() for w in wins]
            return
        ids = np.arange(paths.stop)[paths] if isinstance(paths, slice) else paths
        for i, p in enumerate(ids.tolist()):
            self.seen[p, step] = [w[i].copy() for w in wins]


def assert_padded(got, want):
    """``got`` is ``want`` exactly, left-padded by repeating its oldest node."""
    pad = got.shape[0] - want.shape[0]
    assert pad >= 0 and got.shape[1:] == want.shape[1:]
    assert np.array_equal(got[pad:], want)  # bitwise
    assert np.array_equal(got[:pad], np.broadcast_to(want[0], got[:pad].shape))


def simulated_windows(model, starts, cfg, n_paths, path_offset):
    """Each path's (or pair's) windows by step, and its first bad time, from
    ``simulate``: the window at step k holds the nodes from t - tau through
    t by the node rule, and the path is not shown from its first bad step on."""
    h, tau = cfg.step, model.tau
    seen, first_bad = {}, np.full(n_paths, np.nan)
    for p in range(n_paths):
        stream = NoiseStream(cfg.master_seed, path_offset + p)
        trajs = [simulate(model, seg, cfg, stream) for seg in starts]
        stop = min((tr.diverged_at for tr in trajs if tr.diverged), default=math.inf)
        first_bad[p] = stop if stop < math.inf else np.nan
        for k in range(round(cfg.horizon / h) + 1):
            t = k * h
            if t >= stop - 1e-12:
                break
            seen[p, k] = [tr.states[_node_index(tr.times, t - tau):_node_index(tr.times, t) + 1]
                          for tr in trajs]
    return seen, first_bad


def assert_jump_kernel_matches_simulate(model, starts, cfg, n_paths, path_offset=0):
    assert supports_batch(model)
    log = WindowLog()
    eta = starts[1] if len(starts) > 1 else None
    out = run_ensemble(model, starts[0], cfg, n_paths, log, path_offset, eta)
    seen, first_bad = simulated_windows(model, starts, cfg, n_paths, path_offset)
    assert log.seen.keys() == seen.keys()
    for key, wins in seen.items():
        got = log.seen[key]
        assert len(got) == len(wins)
        for g, w in zip(got, wins):
            assert_padded(g, w)
    assert np.array_equal(out.first_bad_time, first_bad, equal_nan=True)
    assert np.array_equal(out.diverged, ~np.isnan(first_bad))
    assert out.max_fixed_point_iters == 0
    return out, log


JUMP_STARTS = {"constant": [JUMP_ONES], "history-jumps": [XI_JUMPS]}


@pytest.mark.parametrize("starts", JUMP_STARTS.values(), ids=JUMP_STARTS.keys())
@pytest.mark.parametrize("delay", RETARDED_DELAYS.values(), ids=RETARDED_DELAYS.keys())
def test_jump_kernel_matches_simulate(delay, starts):
    model = jump_linear(3.0, 1.0, 0.3, 5.0, UniformSigns(), delay, 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=13)
    assert_jump_kernel_matches_simulate(model, starts, cfg, 5)


@pytest.mark.parametrize("intensity", [5.0, 60.0], ids=["lambda-5", "lambda-60"])
@pytest.mark.parametrize("delay", [PointConstant(0.73), VARIABLE_DELAYS["variable-fractional"]],
                         ids=["point-fractional", "variable-fractional"])
def test_jump_kernel_matches_simulate_coupled(delay, intensity):
    # xi and eta carry different history jumps, so the rows of a pair have
    # different node tables over the same epochs; at lambda = 60 a step
    # holds three epochs on average, so a row's head crosses several at once
    model = jump_linear(3.0, 1.0, 0.3, intensity, GaussianMarks(0.1, 1.0), delay, 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=21)
    assert_jump_kernel_matches_simulate(model, [XI_JUMPS, ETA_JUMPS], cfg, 5)
    if intensity == 60.0:
        epochs, _ = engine.sample_poisson_measure(intensity, model.mark_law, 3.0,
                                                  NoiseStream(21, 0))
        assert np.bincount(np.ceil(epochs / 0.05).astype(int)).max() >= 2


@pytest.mark.parametrize("dim", [1, 2])
def test_jump_kernel_matches_simulate_saturating(dim):
    model = jump_linear(3.0, 1.0, 0.3, 5.0, GaussianMarks(0.2, 1.0),
                        DISTRIBUTED_DELAYS["distributed-fractional"], 1.0, dim=dim,
                        saturating=True)
    xi = Segment.constant(np.linspace(1.0, -0.5, dim), 1.0, kind=STEP)
    eta = Segment.constant(np.linspace(-0.5, 2.0, dim), 1.0, kind=STEP)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=5)
    assert_jump_kernel_matches_simulate(model, [xi], cfg, 4, path_offset=7)
    assert_jump_kernel_matches_simulate(model, [xi, eta], cfg, 4)


def test_jump_kernel_matches_simulate_with_epochs_on_grid_nodes(monkeypatch):
    # every other epoch moved onto a grid node, or within 1e-14 or 2e-13 of
    # one, plus one just after t = 0 and two sharing the last node
    draw = engine.sample_poisson_measure

    def snapped(intensity, law, horizon, stream):
        epochs, marks = draw(intensity, law, horizon, stream)
        offsets = np.resize([0.0, 1e-14, -2e-13], epochs[::2].size)
        epochs[::2] = np.round(epochs[::2] / 0.05) * 0.05 + offsets
        epochs = np.concatenate([[3e-13], epochs, [horizon - 1e-14, horizon]])
        keep = (epochs > 0.0) & (epochs <= horizon)
        return np.sort(epochs[keep]), np.resize(marks, keep.sum())

    monkeypatch.setattr(engine, "sample_poisson_measure", snapped)
    monkeypatch.setattr(ensemble, "sample_poisson_measure", snapped)
    model = jump_linear(3.0, 1.0, 0.3, 5.0, GaussianMarks(0.2, 1.0), PointConstant(1.0), 1.0,
                        saturating=True)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=3)
    assert_jump_kernel_matches_simulate(model, [XI_JUMPS, ETA_JUMPS], cfg, 5)


def test_jump_kernel_stops_a_path_at_its_first_bad_node():
    # a < b_lag with saturating jumps blows up; the 50 guard is crossed mid-run
    model = jump_linear(0.5, 3.0, 0.3, 5.0, UniformSigns(), PointConstant(1.0), 1.0,
                        saturating=True)
    cfg = SimConfig(step=0.05, horizon=6.0, master_seed=2, divergence_guard=50.0)
    out, _ = assert_jump_kernel_matches_simulate(model, [JUMP_ONES], cfg, 6)
    assert out.n_diverged == 6 and np.all(out.first_bad_time < 6.0)
    # in each pair the eta row, started at 3, crosses first; some pairs
    # cross at an epoch node, between grid nodes
    eta = Segment.constant(np.array([3.0]), 1.0, kind=STEP)
    out, _ = assert_jump_kernel_matches_simulate(model, [XI_JUMPS, eta], cfg, 6)
    assert out.n_diverged == 6 and np.all(out.first_bad_time < 6.0)
    assert np.any(np.round(out.first_bad_time / 0.05) * 0.05 != out.first_bad_time)
    # the estimators' observers stop there too, on both routes
    for observer in (lambda: recorder(range(121), 6),
                     lambda: IntegralAccumulator(10, 1, terminal_value, 6, 110)):
        kept = []
        for run in (run_ensemble, _run_generic):
            obs = observer()
            run(model, XI_JUMPS, cfg, 6, obs, 0, eta)
            kept.append(obs.out["x"] if isinstance(obs, WindowRecorder)
                        else (obs.block_sums, obs.block_counts, obs.max_abs))
        if isinstance(kept[0], tuple):
            assert all(np.array_equal(a, b) for a, b in zip(*kept))
        else:
            assert np.array_equal(kept[0], kept[1], equal_nan=True)


def test_jump_kernel_shows_a_one_row_block_its_exact_window():
    # a block of one uncoupled path passes the path as an int and its window
    # unpadded, as the per-path route does
    model = jump_linear(3.0, 1.0, 0.3, 5.0, UniformSigns(), PointConstant(0.73), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=7)
    _, log = assert_jump_kernel_matches_simulate(model, [XI_JUMPS], cfg, 1, path_offset=3)
    seen, _ = simulated_windows(model, [XI_JUMPS], cfg, 1, 3)
    assert [step for step, _ in log.calls] == list(range(61))
    assert all(shapes == [seen[0, step][0].shape] for step, shapes in log.calls)


def test_jump_kernel_across_path_blocks(monkeypatch):
    # a pair holds about 200 nodes (2 rows of 81 grid nodes, epochs and
    # history jumps), so blocks of at most 450 nodes take two pairs each and
    # 7 pairs end on a short block
    model = jump_linear(3.0, 1.0, 0.3, 5.0, UniformSigns(), PointConstant(0.73), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, master_seed=17)
    monkeypatch.setattr(ensemble, "_CHUNK_PATH_STEPS", 450)
    blocks = []
    block = ensemble._jump_block

    def spy(model, cfg, n_steps, hist, tables, p0, observer, outcome):
        blocks.append((p0, len(tables), sum(tab[0].size for tab in tables)))
        block(model, cfg, n_steps, hist, tables, p0, observer, outcome)

    monkeypatch.setattr(ensemble, "_jump_block", spy)
    _, log = assert_jump_kernel_matches_simulate(model, [JUMP_ONES, XI_JUMPS], cfg, 7,
                                                 path_offset=2)
    assert [(p0, rows) for p0, rows, _ in blocks] == [(0, 4), (2, 4), (4, 4), (6, 2)]
    assert all(nodes <= 450 for *_, nodes in blocks)
    # one observer call per step and block; both rows of a pair are padded
    # to one width
    assert [step for step, _ in log.calls] == list(range(61)) * 4
    assert all(shape_x == shape_e for _, (shape_x, shape_e) in log.calls)


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


def test_window_recorder_keeps_one_column_per_distinct_step():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=1.0, master_seed=4)
    rec = recorder([7, 5, 5, 7], 2)
    run_ensemble(model, ONES, cfg, 2, rec)
    ref = recorder([5, 7], 2)
    run_ensemble(model, ONES, cfg, 2, ref)
    assert rec.record_steps.tolist() == [5, 7]
    assert np.array_equal(rec.out["x"], ref.out["x"]) and np.isfinite(rec.out["x"]).all()


def test_window_recorder_sees_the_full_window():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=1.0)
    shapes = []

    class Probe:
        def see_path(self, paths, step, *wins):
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


def test_integral_accumulator_stops_at_divergence_on_both_routes():
    # the probe diverges at step 810; past a 500-step burn-in both routes
    # record steps 501..809 and nothing after
    model = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=10.0, divergence_guard=1e3)
    accs = []
    for run in (run_ensemble, _run_generic):
        acc = IntegralAccumulator(burn_steps=500, stride=1, fn=terminal_value,
                                  n_paths=1, n_records=500)
        run(model, ONES, cfg, 1, acc, 0, None)
        accs.append(acc)
    batch, per_path = accs
    assert per_path.counts[0] == 309
    assert per_path.sums[0] == pytest.approx(111996.3, abs=0.01)
    assert np.array_equal(batch.block_counts, per_path.block_counts)
    assert np.array_equal(batch.block_sums, per_path.block_sums)
    assert np.array_equal(batch.max_abs, per_path.max_abs)


class FiniteProbe:
    """Fail on any non-finite window; count the windows shown."""

    def __init__(self):
        self.shown = 0

    def see_path(self, paths, step, *wins):
        for w in wins:
            assert np.isfinite(w).all(), f"non-finite window at step {step}"
        self.shown += 1


SATURATING_BLOWUP = jump_linear(0.5, 3.0, 0.3, 5.0, UniformSigns(), PointConstant(1.0), 1.0,
                                saturating=True)
DIVERGING = {
    "retarded": (linear_retarded(0.5, 3.0, 0.2, PointConstant(1.0), 1.0), ONES, None),
    "neutral": (neutral_linear(0.25, PointConstant(1.0), 0.5, 3.0, 0.2, 1.0), ONES, ONES),
    "jump": (SATURATING_BLOWUP, JUMP_ONES, None),
    "jump-coupled": (SATURATING_BLOWUP, XI_JUMPS, Segment.constant(np.array([3.0]), 1.0,
                                                                   kind=STEP)),
}


@pytest.mark.parametrize("run", [run_ensemble, _run_generic], ids=["batch", "per-path"])
@pytest.mark.parametrize("case", DIVERGING.values(), ids=DIVERGING.keys())
@pytest.mark.parametrize("n_paths", [1, 4])
def test_no_runner_shows_a_diverged_path(case, run, n_paths):
    model, xi, eta = case
    cfg = SimConfig(step=0.05, horizon=8.0, master_seed=2, divergence_guard=50.0)
    probe = FiniteProbe()
    out = run(model, xi, cfg, n_paths, probe, 0, eta)
    assert out.n_diverged == n_paths and probe.shown > 0


@pytest.mark.parametrize("eta", [None, Segment.constant(np.array([-1.0]), 1.0)],
                         ids=["single", "coupled"])
@pytest.mark.parametrize("model", [
    linear_retarded(3.0, 1.0, 2.0, PointConstant(1.0), 1.0),
    neutral_linear(0.25, PointConstant(0.73), 3.0, 0.5, 2.0, 1.0),
], ids=["retarded", "neutral"])
def test_paths_diverging_apart_read_the_same_on_both_routes(model, eta):
    # a low guard under strong noise: paths leave the continuous kernel's
    # block one by one, and the survivors step on bitwise as per path
    cfg = SimConfig(step=0.05, horizon=6.0, master_seed=4, divergence_guard=2.5)
    n_paths, n_steps = 12, 120
    runs = []
    for run in (run_ensemble, _run_generic):
        rec = every_state(n_steps, n_paths, 1)
        acc = IntegralAccumulator(20, 3, terminal_value, n_paths, 33)

        class Both:
            def see_path(self, paths, step, *wins):
                rec.see_path(paths, step, *wins)
                acc.see_path(paths, step, *wins)

        out = run(model, ONES, cfg, n_paths, Both(), 0, eta)
        runs.append((out, rec.out["x0"], acc.block_sums, acc.block_counts, acc.max_abs))
    (out_b, *got_b), (out_g, *got_g) = runs
    assert 0 < out_b.n_diverged < n_paths
    assert np.array_equal(out_b.first_bad_time, out_g.first_bad_time, equal_nan=True)
    assert all(np.array_equal(b, g, equal_nan=True) for b, g in zip(got_b, got_g))


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


# one model per route: the retarded, neutral and jump kernels, and the
# per-path route of a hand-rolled model
ROUTE_MODELS = {
    "retarded": linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0),
    "neutral": neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0),
    "jump": jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0),
    "per-path": retarded_model(lambda t, seg: -seg.eval(0.0), sigma=0.2),
}
BAD_STARTS = {
    "step-kind": JUMP_ONES,
    "other-window": Segment.constant(np.array([1.0]), 2.0),
    "other-dimension": Segment.constant(np.array([1.0, 1.0]), 1.0),
}


class NoCalls:
    def see_path(self, *args):  # pragma: no cover - fails the test if reached
        raise AssertionError("a path was shown before its start was checked")


@pytest.mark.parametrize("as_eta", [False, True], ids=["xi", "eta"])
@pytest.mark.parametrize("route, bad", [
    pytest.param(route, bad, id=f"{r}-{b}")
    for r, route in ROUTE_MODELS.items() for b, bad in BAD_STARTS.items()
    # a step-kind start is the jump class's own
    if not (r == "jump" and b == "step-kind")])
def test_run_ensemble_checks_the_initial_segments_on_every_route(route, bad, as_eta):
    xi, eta = (ONES, bad) if as_eta else (bad, None)
    cfg = SimConfig(step=0.1, horizon=1.0, master_seed=1)
    with pytest.raises(DomainError, match="initial segment"):
        run_ensemble(route, xi, cfg, 2, NoCalls(), eta=eta)


def test_outcome_starts_clean():
    out = EnsembleOutcome(5)
    assert out.n_diverged == 0
    assert np.all(np.isnan(out.first_bad_time))
