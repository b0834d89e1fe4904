"""Long-run estimators: time averages, mixing gaps, moments, tightness."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sdelab
from sdelab import (
    DivergenceError,
    DomainError,
    EstimationError,
    Functional,
    ModelClass,
    ModelSpec,
    PointConstant,
    Segment,
    SimConfig,
    UniformSigns,
    jump_linear,
    linear_retarded,
    mixing_check,
    moment_bound_check,
    neutral_linear,
    kurtz_diagnostic,
    tightness_diagnostic,
    time_average,
)
from sdelab.ergodics import (
    clipped_sup_norm,
    squared_value_at_zero,
    standard_battery,
    tanh_value_at_zero,
    value_at_zero,
)
from sdelab.paths import SegmentKind, evaluate

ONES = Segment.constant(np.array([1.0]), 1.0)
ZEROS = Segment.constant(np.array([0.0]), 1.0)
MINUS = Segment.constant(np.array([-1.0]), 1.0)
ONES_STEP = Segment.constant(np.array([1.0]), 1.0, kind=SegmentKind.CADLAG_STEP)


def constant_functional(c=1.0):
    return Functional(
        f"const_{c:g}",
        lambda seg: float(c),
        lipschitz_bound=0.0,
        bound=abs(c),
        window_fn=lambda w: np.full(np.asarray(w).shape[:-2], float(c)),
    )


def ou_model(sigma=1.0):
    return linear_retarded(1.0, 0.0, sigma, PointConstant(1.0), 1.0)


def jump_model():
    return jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)


# ---------------------------------------------------------------------------
# functional battery
# ---------------------------------------------------------------------------

def test_battery_composition():
    battery = standard_battery()
    names = [f.name for f in battery]
    assert names == ["value_at_zero", "tanh_value_at_zero",
                     "squared_value_at_zero", "sup_norm_clipped_10"]
    assert not battery[0].bounded
    assert battery[1].bounded and battery[1].bound == 1.0
    assert not battery[2].bounded
    assert battery[3].bounded and battery[3].bound == 10.0
    assert battery[2].lipschitz_bound is None  # squared map is not globally Lipschitz


def test_window_fn_matches_segment_map():
    rng = np.random.default_rng(0)
    win = rng.normal(size=(11, 1))
    grid = np.linspace(-1.0, 0.0, 11)
    seg = Segment(SegmentKind.CONTINUOUS_LINEAR, grid, win.copy())
    for f in standard_battery():
        assert f.window_fn(win) == pytest.approx(f.map(seg), abs=1e-12)
    batch = rng.normal(size=(5, 11, 1))
    for f in standard_battery():
        out = f.window_fn(batch)
        assert out.shape == (5,)


def test_clipped_sup_norm_clips():
    grid = np.linspace(-1.0, 0.0, 3)
    seg = Segment(SegmentKind.CONTINUOUS_LINEAR, grid,
                  np.array([[0.0], [50.0], [0.0]]))
    f = clipped_sup_norm(10.0)
    assert f.map(seg) == 10.0


def test_declared_bound_is_enforced():
    lying = Functional("too_tight", lambda seg: float(seg.eval(0.0)[0]),
                       lipschitz_bound=1.0, bound=0.25,
                       window_fn=lambda w: np.asarray(w)[..., -1, 0])
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=4.0, ensemble=4)
    with pytest.raises(EstimationError):
        time_average(model, ONES, lying, cfg, 1.0)


def test_non_finite_functional_values_are_refused():
    def nan_on_last_row(w):
        v = np.asarray(w)[..., -1, 0].copy()
        v[-1] = np.nan
        return v

    f = Functional("nan_on_one_path", lambda seg: float(seg.eval(0.0)[0]),
                   lipschitz_bound=1.0, window_fn=nan_on_last_row)
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.1, horizon=4.0, ensemble=8)
    with pytest.raises(EstimationError, match="nan"):
        time_average(model, ONES, f, cfg, 1.0)
    with pytest.raises(EstimationError, match="nan"):
        mixing_check(model, ONES, MINUS, f, cfg, eval_times=[1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# time averages
# ---------------------------------------------------------------------------

def test_time_average_of_constant_is_exact():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=10.0, ensemble=16, master_seed=1)
    est, se = time_average(model, ONES, constant_functional(1.0), cfg, 2.0)
    assert est == 1.0
    assert se == 0.0


def test_time_average_ou_stationary_second_moment():
    # stationary variance of the no-lag reduction is sigma^2/(2a) = 0.5
    cfg = SimConfig(step=0.02, horizon=80.0, ensemble=60, master_seed=3)
    est, se = time_average(ou_model(), ZEROS, squared_value_at_zero(), cfg, 10.0)
    assert se > 0.0
    assert abs(est - 0.5) <= 3.0 * se


def test_time_average_symmetric_jump_mean_zero():
    cfg = SimConfig(step=0.05, horizon=20.0, ensemble=40, master_seed=11)
    est, se = time_average(jump_model(), ONES, value_at_zero(), cfg, 10.0)
    assert se > 0.0
    assert abs(est) <= 3.0 * se


def test_time_average_validation():
    model = ou_model()
    cfg = SimConfig(step=0.05, horizon=10.0, ensemble=8)
    with pytest.raises(DomainError):
        time_average(model, ONES, value_at_zero(), cfg, 10.0)  # burn == horizon
    with pytest.raises(DomainError):
        time_average(model, ONES, value_at_zero(), cfg, -1.0)
    with pytest.raises(DomainError):
        # stride so coarse that fewer than two evaluations remain
        time_average(model, ONES, value_at_zero(), cfg, 9.9, eval_stride=1000)


def test_time_average_divergence_guard():
    unstable = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=30.0, ensemble=10, divergence_guard=1e3)
    with pytest.raises(DivergenceError):
        time_average(unstable, ONES, value_at_zero(), cfg, 5.0)


def test_map_only_functional_skips_diverged_batch_rows():
    # the batch route drops diverged paths from its block, so a functional
    # without window_fn never sees their rows and raises no DomainError
    unstable = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    map_only = Functional("x0", lambda seg: float(seg.eval(0.0)[0]))
    cfg = SimConfig(step=0.01, horizon=10.0, ensemble=3, divergence_guard=1e3)
    with pytest.raises(DivergenceError):
        time_average(unstable, ONES, map_only, cfg, 5.0)


@pytest.mark.parametrize("estimate", [
    lambda model, func, cfg: time_average(model, ONES_STEP, func, cfg, 1.0),
    lambda model, func, cfg: mixing_check(model, ONES_STEP, ONES_STEP, func, cfg),
], ids=["time_average", "mixing_check"])
def test_jump_map_only_functional_is_refused_up_front(monkeypatch, estimate):
    # at intensity 0 every jump window has the uniform length; the map is
    # still refused, before anything is simulated
    model = jump_linear(3.0, 1.0, 0.3, 0.0, UniformSigns(), PointConstant(1.0), 1.0)
    map_only = Functional("x0", lambda seg: float(seg.eval(0.0)[0]), lipschitz_bound=1.0)
    cfg = SimConfig(step=0.1, horizon=4.0, ensemble=4)

    def never(*args, **kwargs):  # pragma: no cover - fails the test if reached
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr(sdelab.ensemble, "run_ensemble", never)
    with pytest.raises(EstimationError, match="window_fn"):
        estimate(model, map_only, cfg)


def test_independent_runs_agree_across_battery():
    # two estimates with disjoint seeds and different initials agree to 3 SE
    eta = Segment.constant(np.array([-2.0]), 1.0)
    models = [
        linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0),
        neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0),
        jump_model(),
    ]
    for model in models:
        m = 40 if model.model_class is ModelClass.JUMP else 80
        cfg_a = SimConfig(step=0.05, horizon=40.0, ensemble=m, master_seed=101)
        cfg_b = SimConfig(step=0.05, horizon=40.0, ensemble=m, master_seed=202)
        for func in standard_battery():
            est_a, se_a = time_average(model, ONES, func, cfg_a, 20.0)
            est_b, se_b = time_average(model, eta, func, cfg_b, 20.0)
            comb = math.hypot(se_a, se_b)
            assert abs(est_a - est_b) <= 3.0 * comb, (
                f"{model.model_class}, {func.name}: {est_a} vs {est_b} (se {comb})")


# ---------------------------------------------------------------------------
# mixing gaps
# ---------------------------------------------------------------------------

def test_mixing_check_constant_functional_gaps_vanish():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=8.0, ensemble=120, master_seed=2)
    rep = mixing_check(model, ONES, MINUS, constant_functional(0.7), cfg,
                       pi_burn_in=4.0, pi_ensemble=8)
    # identically-zero gaps up to float accumulation in the two averages
    assert np.all(rep.gaps < 1e-12)
    assert rep.pi_hat == pytest.approx(0.7, abs=1e-12)
    assert rep.pi_hat_alt == pytest.approx(0.7, abs=1e-12)
    assert rep.pi_agree
    assert math.isnan(rep.fitted_rate) or abs(rep.fitted_rate) < 1e-9


def test_mixing_check_requires_lipschitz_declaration():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=8.0, ensemble=120)
    with pytest.raises(DomainError):
        mixing_check(model, ONES, MINUS, squared_value_at_zero(), cfg)


def test_mixing_check_gap_decay():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    # long burn keeps the invariant-side relaxation bias far below its SE
    cfg = SimConfig(step=0.05, horizon=40.0, ensemble=400, master_seed=6)
    rep = mixing_check(model, ONES, MINUS, tanh_value_at_zero(), cfg,
                       eval_times=[1.0, 2.0, 3.0, 6.0, 9.0],
                       pi_burn_in=20.0, pi_ensemble=150)
    assert rep.pi_agree
    assert rep.times[0] == pytest.approx(1.0)
    assert np.all(rep.p_se > 0.0)
    assert rep.gaps.shape == rep.times.shape
    # the early gap dwarfs the late ones for this strongly mixing pair
    assert rep.gaps[0] > rep.gaps[-1]
    assert rep.n_diverged == 0
    assert abs(rep.pi_hat) < 0.5  # stationary tanh mean is near 0


def test_mixing_check_eval_times_validation():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=4.0, ensemble=120)
    with pytest.raises(DomainError):
        mixing_check(model, ONES, MINUS, tanh_value_at_zero(), cfg,
                     eval_times=[2.0, 5.0])


def test_mixing_check_sorts_and_merges_eval_times():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.02, horizon=4.0, ensemble=200, master_seed=3)
    ref = mixing_check(model, ONES, MINUS, tanh_value_at_zero(), cfg,
                       eval_times=[1.0, 2.0, 3.0, 4.0])
    for times, cols in (([4.0, 3.0, 2.0, 1.0], 4), ([1.0, 2.0, 1.0], 2)):
        rep = mixing_check(model, ONES, MINUS, tanh_value_at_zero(), cfg,
                           eval_times=times)
        assert np.array_equal(rep.times, ref.times[:cols])
        assert np.array_equal(rep.p_hat, ref.p_hat[:cols])


def test_mixing_report_serialization(tmp_path):
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=6.0, ensemble=120, master_seed=4)
    rep = mixing_check(model, ONES, MINUS, tanh_value_at_zero(), cfg,
                       eval_times=[1.0, 3.0, 5.0], pi_burn_in=3.0, pi_ensemble=20)
    doc = json.loads(rep.to_json())
    assert doc["functional"] == "tanh_value_at_zero"
    assert len(doc["series"]) == 3
    assert {"t", "p_hat", "p_se", "gap"} <= set(doc["series"][0])
    out = tmp_path / "gaps.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,p_hat,p_se,gap"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------

def test_moment_check_zero_noise_zero_initial():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=8.0, ensemble=20, master_seed=0)
    rep = moment_bound_check(model, ZEROS, cfg)
    assert np.all(rep.moments == 0.0)
    assert rep.max_moment == 0.0
    assert rep.slope == 0.0
    assert rep.contains_zero


def test_moment_check_ou_is_flat():
    cfg = SimConfig(step=0.05, horizon=30.0, ensemble=100, master_seed=9)
    rep = moment_bound_check(ou_model(), ZEROS, cfg, 0.1)
    assert rep.power == pytest.approx(2.1)
    assert rep.contains_zero
    assert rep.slope_ci[0] <= 0.0 <= rep.slope_ci[1]
    assert rep.n_diverged == 0
    # stationary sup-window second moment is above the pointwise value 0.5
    assert 0.5 < rep.max_moment < 5.0


def test_moment_check_is_bitwise_equal_on_both_routes():
    # without its descriptor the same model runs path by path; both routes
    # raise the recorded sup table to the power in one array operation
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    hand_rolled = dataclasses.replace(model, descriptor=None)
    assert not sdelab.ensemble.supports_batch(hand_rolled)
    cfg = SimConfig(step=0.05, horizon=8.0, ensemble=20, master_seed=3)
    batch = moment_bound_check(model, ONES, cfg, 0.1)
    per_path = moment_bound_check(hand_rolled, ONES, cfg, 0.1)
    assert batch.to_json() == per_path.to_json()
    for field in ("times", "moments", "moment_ses"):
        assert np.array_equal(getattr(batch, field), getattr(per_path, field))


def test_moment_check_unstable_negative():
    unstable = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=10.0, ensemble=20, master_seed=0,
                    divergence_guard=1e30)
    rep = moment_bound_check(unstable, ONES, cfg)
    assert rep.slope > 0.0
    assert not rep.contains_zero


def test_import_does_not_load_scipy_stats():
    # the child imports the same sdelab as this interpreter, wherever it lives
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdelab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, sdelab; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    assert done.stdout.strip() == "False"


def test_moment_check_validation():
    cfg = SimConfig(step=0.05, horizon=10.0, ensemble=10)
    with pytest.raises(DomainError):
        moment_bound_check(ou_model(), ZEROS, cfg, -0.1)
    with pytest.raises(DomainError):
        moment_bound_check(ou_model(), ZEROS, cfg, burn_in=0.5)  # below tau
    # the trend needs two distinct steps: none, one, or three on one step
    for kw in ({"n_eval": 0}, {"n_eval": 1}, {"burn_in": 9.99, "n_eval": 3}):
        with pytest.raises(DomainError, match="evaluation time"):
            moment_bound_check(ou_model(), ZEROS, cfg, **kw)


def test_moment_report_serialization(tmp_path):
    cfg = SimConfig(step=0.05, horizon=10.0, ensemble=20, master_seed=1)
    rep = moment_bound_check(ou_model(), ZEROS, cfg, n_eval=5)
    doc = json.loads(rep.to_json())
    assert doc["power"] == pytest.approx(2.1)
    assert len(doc["series"]) == rep.times.size
    out = tmp_path / "moments.csv"
    rep.to_csv(out)
    assert out.read_text().startswith("t,moment,se\n")


# ---------------------------------------------------------------------------
# modulus tightness
# ---------------------------------------------------------------------------

def test_tightness_deterministic_lipschitz_paths():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=5.0, ensemble=10, master_seed=0)
    table = tightness_diagnostic(model, ONES, cfg, [0.2, 0.1, 0.05], 1.0)
    assert np.all(table.fractions == 0.0)
    assert table.deltas.tolist() == [0.2, 0.1, 0.05]


def test_tightness_monotone_in_delta():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=4.0, ensemble=100, master_seed=5)
    table = tightness_diagnostic(model, ONES, cfg, [0.1, 0.02, 0.001], 0.3)
    assert np.all(table.fractions >= 0.0) and np.all(table.fractions <= 1.0)
    assert np.all(np.diff(table.fractions, axis=0) <= 0.0)  # columnwise in delta
    # a tenth-of-window modulus trips often; a sub-step one almost never
    assert table.fractions[0].mean() > table.fractions[2].mean()
    assert table.fractions[2].mean() < 0.05


def test_tightness_validation():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=4.0, ensemble=10)
    with pytest.raises(DomainError):
        tightness_diagnostic(jump_model(), ONES, cfg, [0.1], 0.5)
    with pytest.raises(DomainError):
        tightness_diagnostic(model, ONES, cfg, [0.1, 0.2], 0.5)  # not decreasing
    with pytest.raises(DomainError):
        tightness_diagnostic(model, ONES, cfg, [0.1, -0.2], 0.5)
    with pytest.raises(DomainError):
        tightness_diagnostic(model, ONES, cfg, [], 0.5)
    with pytest.raises(DomainError):
        tightness_diagnostic(model, ONES, cfg, [0.1], 0.0)
    with pytest.raises(DomainError):
        tightness_diagnostic(model, ONES, cfg, [0.1], 0.5, burn_in=0.5)


def test_tightness_table_csv(tmp_path):
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=4.0, ensemble=20, master_seed=2)
    table = tightness_diagnostic(model, ONES, cfg, [0.2, 0.1], 0.5, n_eval=4)
    out = tmp_path / "tight.csv"
    table.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("delta,t=")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# jump-class displacement diagnostic
# ---------------------------------------------------------------------------

def test_kurtz_zero_activity_gives_zero_table():
    quiet = ModelSpec(
        model_class=ModelClass.JUMP,
        dim=1,
        brownian_dim=0,
        tau=1.0,
        drift=lambda t, seg: np.zeros(1),
        jump_coeff=lambda t, seg, z: np.zeros(1),
        jump_compensator=lambda t, seg: np.zeros(1),
        jump_second_moment=lambda t, seg: 0.0,
        intensity=0.0,
        mark_law=UniformSigns(),
    )
    cfg = SimConfig(step=0.1, horizon=4.0, ensemble=5, master_seed=0)
    table = kurtz_diagnostic(quiet, ONES, cfg, [0.5, 0.25])
    assert np.all(table.values == 0.0)


def test_kurtz_monotone_and_linear_in_eps():
    cfg = SimConfig(step=0.05, horizon=12.0, ensemble=60, master_seed=8)
    table = kurtz_diagnostic(jump_model(), ONES, cfg, [0.4, 0.2, 0.1, 0.05],
                             n_eval=4, tail_start=6.0)
    assert table.values.shape == (4, 4)
    assert np.all(table.values > 0.0)
    assert np.all(np.diff(table.values, axis=1) <= 0.0)  # rowwise in eps
    # the window-sup smooths less as eps shrinks, so linearity is a small-eps
    # statement: halving the finest pair halves the bound within 20%
    v = table.values.mean(axis=0)
    assert 0.8 <= v[2] / (2.0 * v[3]) <= 1.2


def test_kurtz_validation():
    cfg = SimConfig(step=0.05, horizon=4.0, ensemble=5)
    with pytest.raises(DomainError):
        kurtz_diagnostic(ou_model(), ONES, cfg, [0.5])
    with pytest.raises(DomainError):
        kurtz_diagnostic(jump_model(), ONES, cfg, [0.25, 0.5])  # not decreasing
    with pytest.raises(DomainError):
        kurtz_diagnostic(jump_model(), ONES, cfg, [1.5])  # above tau
    with pytest.raises(DomainError):
        kurtz_diagnostic(jump_model(), ONES, cfg, [])
    bare = ModelSpec(
        model_class=ModelClass.JUMP, dim=1, brownian_dim=0, tau=1.0,
        drift=lambda t, seg: np.zeros(1),
        jump_coeff=lambda t, seg, z: np.zeros(1),
        jump_compensator=lambda t, seg: np.zeros(1),
        intensity=0.0, mark_law=UniformSigns(),
    )
    with pytest.raises(EstimationError):
        kurtz_diagnostic(bare, ONES, cfg, [0.5])


def test_kurtz_table_csv(tmp_path):
    cfg = SimConfig(step=0.1, horizon=6.0, ensemble=10, master_seed=1)
    table = kurtz_diagnostic(jump_model(), ONES, cfg, [0.5, 0.25],
                             n_eval=3, tail_start=3.0)
    out = tmp_path / "kurtz.csv"
    table.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,eps=")
    assert len(lines) == 4
