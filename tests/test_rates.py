"""Analytic decay calculators and the coupled-pair rate estimator."""

import math

import mpmath
import numpy as np
import pytest

from sdelab import (
    DivergenceError,
    DomainError,
    PointConstant,
    RateReport,
    Segment,
    SimConfig,
    UniformSigns,
    halanay_rate,
    jump_linear,
    linear_retarded,
    mixing_rate_estimate,
    neutral_linear,
    neutral_mixing_exponent,
    razumikhin_bound_curve,
    razumikhin_gamma,
)
from sdelab.rates import analytic_mixing_rate

from helpers import retarded_model

ONES = Segment.constant(np.array([1.0]), 1.0)
MINUS = Segment.constant(np.array([-1.0]), 1.0)

# independent high-precision value of the positive root of r = 2 - e^r,
# frozen from mpmath.findroot at 50 digits
ROOT_2_1_1 = 0.4428544010020232


def mp_root(a, b, tau):
    """Independent oracle: high-precision bisection on r = a - b*exp(r*tau)."""
    with mpmath.workdps(50):
        f = lambda r: a - b * mpmath.e ** (r * tau) - r
        lo, hi = mpmath.mpf(0), mpmath.mpf(a - b)
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# sharp delay-inequality exponent
# ---------------------------------------------------------------------------

def test_halanay_frozen_oracle_value():
    assert halanay_rate(2.0, 1.0, 1.0) == pytest.approx(ROOT_2_1_1, abs=1e-10)
    assert halanay_rate(2.0, 1.0, 1.0) == pytest.approx(mp_root(2, 1, 1), abs=1e-10)


def test_halanay_zero_lag_is_exact():
    assert halanay_rate(2.0, 1.0, 0.0) == 1.0
    assert halanay_rate(7.5, 2.5, 0.0) == 5.0


def test_halanay_residual_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        b = rng.uniform(1e-3, 5.0)
        a = b + rng.uniform(1e-3, 10.0 - b) if b < 10 else b + 1e-3
        tau = rng.uniform(0.0, 5.0)
        lam = halanay_rate(a, b, tau)
        assert abs(lam - a + b * math.exp(lam * tau)) < 1e-10
        assert 0.0 < lam <= a - b


def test_halanay_monotonicity_sweep():
    a_grid = np.linspace(5.2, 10.0, 10)
    b_grid = np.linspace(0.1, 5.0, 10)
    tau_grid = np.linspace(0.0, 5.0, 10)
    table = np.array([[[halanay_rate(a, b, tau) for tau in tau_grid]
                       for b in b_grid] for a in a_grid])
    assert np.all(np.diff(table, axis=0) > 0)   # increasing in a
    assert np.all(np.diff(table, axis=1) < 0)   # decreasing in b
    assert np.all(np.diff(table, axis=2) < 0)   # decreasing in tau


def test_halanay_domain_errors():
    for a, b in [(1.0, 1.0), (1.0, 2.0), (1.0, 0.0), (2.0, -1.0)]:
        with pytest.raises(DomainError):
            halanay_rate(a, b, 1.0)
    with pytest.raises(DomainError):
        halanay_rate(2.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        halanay_rate(2.0, 1.0, math.inf)


# ---------------------------------------------------------------------------
# delayed second-moment certification exponent
# ---------------------------------------------------------------------------

def rz_oracle(kappa, lam, tau, q):
    """Independent bisection on the binding constraint
    q*(1 - kappa*e^(g*tau/2))^2 - e^(g*tau) = 0 over (0, lam)."""
    with mpmath.workdps(50):
        def f(g):
            e_half = kappa * mpmath.e ** (g * tau / 2)
            if e_half >= 1:
                return mpmath.mpf(-1)
            return q * (1 - e_half) ** 2 - mpmath.e ** (g * tau)
        lo, hi = mpmath.mpf(0), mpmath.mpf(lam)
        if f(hi) > 0:
            return float(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def test_razumikhin_example_against_oracle():
    got = razumikhin_gamma(0.25, 1.0, 1.0, 4.0)
    want = rz_oracle(0.25, 1.0, 1.0, 4.0)
    assert got == pytest.approx(want, abs=1e-6)
    assert got == pytest.approx(0.576, abs=1e-3)
    # the binding constraint is tight at the pre-margin supremum
    g = got + 1e-9
    assert math.exp(g) / (1 - 0.25 * math.exp(g / 2)) ** 2 == pytest.approx(4.0, abs=1e-6)


def test_razumikhin_closed_form_at_zero_contraction():
    # constraint reduces to e^(g*tau) < q: gamma = min(lam, log q / tau) - margin
    assert razumikhin_gamma(0.0, 0.5, 1.0, 2.0) == pytest.approx(0.5 - 1e-9, abs=1e-12)
    assert razumikhin_gamma(0.0, 5.0, 1.0, 2.0) == pytest.approx(math.log(2.0), abs=1e-6)


def test_razumikhin_certification():
    # the returned exponent is strictly feasible and cannot be pushed up
    from sdelab.rates import _razumikhin_feasible
    cases = [(0.25, 1.0, 1.0, 4.0), (0.1, 2.0, 0.5, 3.0),
             (0.3, 0.3, 2.0, 9.0), (0.0, 1.0, 1.0, 1.5)]
    for kappa, lam, tau, q in cases:
        g = razumikhin_gamma(kappa, lam, tau, q)
        assert 0.0 < g < lam
        assert kappa * math.exp(0.5 * g * tau) < 1.0
        assert _razumikhin_feasible(kappa, tau, q, g)
        bumped = g + 1e-3
        assert bumped >= lam or not _razumikhin_feasible(kappa, tau, q, bumped)


def test_razumikhin_domain_errors():
    with pytest.raises(DomainError):
        razumikhin_gamma(0.25, 1.0, 1.0, 1.7)  # q below 1/(1-kappa)^2 = 16/9... above it
    with pytest.raises(DomainError):
        razumikhin_gamma(0.5, 1.0, 1.0, 3.9)  # threshold 4 exactly
    with pytest.raises(DomainError):
        razumikhin_gamma(-0.1, 1.0, 1.0, 4.0)
    with pytest.raises(DomainError):
        razumikhin_gamma(1.0, 1.0, 1.0, 100.0)
    with pytest.raises(DomainError):
        razumikhin_gamma(0.25, 0.0, 1.0, 4.0)
    with pytest.raises(DomainError):
        razumikhin_gamma(0.25, 1.0, -1.0, 4.0)


# ---------------------------------------------------------------------------
# second-moment envelope curve
# ---------------------------------------------------------------------------

def test_bound_curve_zero_contraction_closed_form():
    t = np.linspace(0.0, 10.0, 21)
    got = razumikhin_bound_curve(0.2, 0.5, 0.0, 0.3, 1.0, 2.0, t)
    want = 0.2 / 0.5 + np.exp(-0.3 * t) * 4.0
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_bound_curve_limit_and_monotonicity():
    kappa, gamma, tau = 0.25, 0.5, 1.0
    floor = (0.4 / 1.0) / (1.0 - kappa * math.exp(0.5 * gamma * tau)) ** 2
    tail = razumikhin_bound_curve(0.4, 1.0, kappa, gamma, tau, 1.5, [200.0])
    assert tail[0] == pytest.approx(floor, rel=1e-9)
    # strictly decreasing while the exponential term is still resolvable
    t = np.linspace(0.0, 40.0, 100)
    curve = razumikhin_bound_curve(0.4, 1.0, kappa, gamma, tau, 1.5, t)
    assert np.all(np.diff(curve) < 0)
    assert np.all(curve > floor)


def test_bound_curve_domain_errors():
    t = [0.0, 1.0]
    with pytest.raises(DomainError):
        razumikhin_bound_curve(0.1, 1.0, 0.9, 3.0, 2.0, 1.0, t)  # denominator vanishes
    with pytest.raises(DomainError):
        razumikhin_bound_curve(0.1, 0.0, 0.25, 0.5, 1.0, 1.0, t)
    with pytest.raises(DomainError):
        razumikhin_bound_curve(0.1, 1.0, 0.25, -0.5, 1.0, 1.0, t)


# ---------------------------------------------------------------------------
# composed exponent for the drift-corrected state
# ---------------------------------------------------------------------------

def test_neutral_exponent_examples():
    # p = log 3 / 0.5 > 1, so the rate is gamma itself
    assert neutral_mixing_exponent(0.25, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)
    # p = log(11/9)/0.1 > 1 again, q = 0.45 e^0.1 / 0.55 < 1 admissible
    assert neutral_mixing_exponent(0.45, 0.1, 1.0) == pytest.approx(0.1, abs=1e-12)


def test_neutral_exponent_geometric_chain_guard():
    # near the contraction ceiling, any appreciable gamma*tau diverges the chain
    with pytest.raises(DomainError):
        neutral_mixing_exponent(0.4999, 0.5, 1.0)
    # and admissibility forces p > 1, so the returned rate is always gamma
    rng = np.random.default_rng(5)
    for _ in range(200):
        kappa = rng.uniform(0.01, 0.49)
        cap = math.log((1.0 - kappa) / kappa)
        gt = rng.uniform(0.01, 0.99) * cap
        tau = rng.uniform(0.1, 3.0)
        assert neutral_mixing_exponent(kappa, gt / tau, tau) == pytest.approx(gt / tau)


def test_neutral_exponent_domain_errors():
    for kappa in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            neutral_mixing_exponent(kappa, 0.1, 1.0)
    with pytest.raises(DomainError):
        neutral_mixing_exponent(0.25, 0.0, 1.0)
    with pytest.raises(DomainError):
        neutral_mixing_exponent(0.25, 0.1, 0.0)


# ---------------------------------------------------------------------------
# analytic rate attachment
# ---------------------------------------------------------------------------

def test_analytic_rate_retarded_branches():
    m = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    assert analytic_mixing_rate(m) == pytest.approx(halanay_rate(5.0, 1.0, 1.0))
    m0 = linear_retarded(3.0, 0.0, 0.5, PointConstant(1.0), 1.0)
    assert analytic_mixing_rate(m0) == 6.0  # no lag: squared distance decays at 2a
    unstable = linear_retarded(0.5, 3.0, 0.0, PointConstant(1.0), 1.0)
    assert analytic_mixing_rate(unstable) is None


def test_analytic_rate_jump_branches():
    m = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    assert analytic_mixing_rate(m) == pytest.approx(halanay_rate(5.0, 1.0, 1.0) / 2.0)
    m0 = jump_linear(3.0, 0.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    assert analytic_mixing_rate(m0) == 3.0
    sat = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0,
                      saturating=True)
    assert analytic_mixing_rate(sat) is None


def test_analytic_rate_neutral_and_generic():
    m = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    rate = analytic_mixing_rate(m)
    assert rate is not None and rate > 0.0
    hand = retarded_model(lambda t, seg: -seg.eval(0.0))
    assert analytic_mixing_rate(hand) is None


# ---------------------------------------------------------------------------
# empirical estimator
# ---------------------------------------------------------------------------

def test_estimator_equal_initials_report_coalescence():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, ensemble=100, master_seed=1)
    rep = mixing_rate_estimate(model, ONES, ONES, cfg, (1.0, 3.0))
    assert rep.fitted_rate == math.inf
    assert rep.n_points == 0
    assert "coalescence" in rep.note
    assert math.isnan(rep.r_squared)


def test_estimator_deterministic_contraction_beats_analytic():
    model = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.01, horizon=4.0, ensemble=100, master_seed=0)
    rep = mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 4.0))
    assert rep.analytic_rate == pytest.approx(halanay_rate(5.0, 1.0, 1.0))
    assert rep.fitted_rate >= rep.analytic_rate
    assert rep.r_squared > 0.9
    assert rep.n_diverged == 0


def test_estimator_stochastic_linear_pair():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.02, horizon=6.0, ensemble=150, master_seed=42)
    rep = mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 6.0))
    assert rep.fitted_rate > 0.0
    assert rep.r_squared > 0.5
    assert rep.n_pairs == 150
    assert rep.window == (1.0, 6.0)
    assert rep.times.size == rep.values.size == rep.n_points


def test_estimator_jump_first_power():
    model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=6.0, ensemble=100, master_seed=7)
    rep = mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 6.0))
    assert rep.analytic_rate == pytest.approx(halanay_rate(5.0, 1.0, 1.0) / 2.0)
    assert rep.fitted_rate > 0.0
    # additive jumps cancel in the pair difference, so the fit is clean
    assert rep.r_squared > 0.9


def test_estimator_two_point_window_reports_nan_not_inf():
    # inf is kept for exact coalescence; too few points to fit is not that
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, ensemble=100, master_seed=1)
    rep = mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 1.05))
    assert rep.n_points == 2
    assert np.all(rep.values > 0.0)
    assert math.isnan(rep.fitted_rate)
    assert "fewer than 3" in rep.note


def test_estimator_refuses_when_pairs_diverge():
    # a guard this tight stops about a fifth of the noisy pairs, not all
    model = linear_retarded(3.0, 1.0, 1.0, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, ensemble=100, master_seed=1,
                    divergence_guard=1.5)
    with pytest.raises(DivergenceError) as err:
        mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 3.0))
    assert 1 < err.value.n_diverged < 100


def test_estimator_window_validation():
    model = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    cfg = SimConfig(step=0.05, horizon=3.0, ensemble=100)
    with pytest.raises(DomainError):
        mixing_rate_estimate(model, ONES, MINUS, cfg, (0.5, 3.0))  # starts before tau
    with pytest.raises(DomainError):
        mixing_rate_estimate(model, ONES, MINUS, cfg, (1.0, 3.5))  # past horizon
    with pytest.raises(DomainError):
        mixing_rate_estimate(model, ONES, MINUS, cfg, (2.0, 2.0))  # empty
    small = SimConfig(step=0.05, horizon=3.0, ensemble=99)
    with pytest.raises(DomainError):
        mixing_rate_estimate(model, ONES, MINUS, small, (1.0, 3.0))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_serialization(tmp_path):
    rep = RateReport(0.5, -1.0, 0.99, (1.0, 8.0), 0.44, 7,
                     np.array([1.0, 2.0]), np.array([0.5, 0.25]), 200, 1, "ok")
    assert len(RateReport.CSV_HEADER.split(",")) == len(rep.to_csv_row().split(","))
    text = rep.to_text()
    assert "fitted_rate=0.5" in text and "note=ok" in text
    out = tmp_path / "curve.csv"
    rep.curve_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,mean_distance"
    assert len(lines) == 3
    t0, v0 = lines[1].split(",")
    assert float(t0) == 1.0 and float(v0) == 0.5


def test_report_none_analytic_serializes_empty():
    rep = RateReport(0.5, -1.0, 0.99, (1.0, 8.0), None, 7)
    row = rep.to_csv_row().split(",")
    assert row[5] == ""
    assert "analytic_rate=\n" in rep.to_text() or "analytic_rate=" in rep.to_text()
