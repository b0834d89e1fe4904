"""Decay-rate calculators and the coupled-pair empirical rate estimator.

The analytic side solves two scalar certification problems:

* the sharp exponent of a delay differential inequality
  ``u'(t) <= -a u(t) + b sup_{[t-tau,t]} u``, i.e. the positive root of
  ``lam = a - b exp(lam tau)``;
* the largest admissible decay exponent of a delayed second-moment bound
  under a contraction of strength ``kappa`` in the delayed state.

The empirical side fits an exponential to the ensemble-mean sup-distance of
synchronously coupled pairs and reports it next to the analytic value for
the built-in model families.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .engine import SimConfig, steps_per_window
from .models import (
    JumpLinearDescriptor,
    LinearRetardedDescriptor,
    ModelClass,
    NeutralLinearDescriptor,
)
from . import ensemble as _ens

__all__ = [
    "RateReport",
    "halanay_rate",
    "razumikhin_gamma",
    "razumikhin_bound_curve",
    "neutral_mixing_exponent",
    "mixing_rate_estimate",
    "analytic_mixing_rate",
]

_GAMMA_MARGIN = 1e-9
_BISECT_TOL = 1e-12


def halanay_rate(a: float, b: float, tau: float) -> float:
    """Sharp decay exponent for ``u' <= -a u + b sup`` over a lag window.

    Returns the unique positive root of ``lam = a - b*exp(lam*tau)``,
    located by bisection on ``[0, a-b]`` to absolute tolerance 1e-12.
    Requires ``a > b > 0`` and ``tau >= 0``; at ``tau == 0`` the root is
    exactly ``a - b``.
    """
    a = float(a)
    b = float(b)
    tau = float(tau)
    if not (a > b > 0.0):
        raise DomainError(f"decay certificate needs a > b > 0, got a={a!r}, b={b!r}")
    if tau < 0.0 or not math.isfinite(tau):
        raise DomainError(f"lag window must be finite and nonnegative, got {tau!r}")
    if tau == 0.0:
        return a - b
    lo, hi = 0.0, a - b
    # f(lo) = a - b > 0, f(hi) = b(1 - exp((a-b) tau)) <= 0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if a - b * math.exp(mid * tau) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _razumikhin_feasible(kappa: float, tau: float, q: float, gamma: float) -> bool:
    e_half = kappa * math.exp(0.5 * gamma * tau)
    if e_half >= 1.0:
        return False
    return math.exp(gamma * tau) < q * (1.0 - e_half) ** 2


def razumikhin_gamma(kappa: float, lam: float, tau: float, q: float) -> float:
    """Largest certified decay exponent below ``lam`` for the delayed
    second-moment comparison with contraction ``kappa`` and threshold ``q``.

    The admissible set is ``{gamma in (0, lam): kappa*e^{gamma*tau/2} < 1 and
    e^{gamma*tau} < q*(1 - kappa*e^{gamma*tau/2})^2}``; both constraints are
    strictly increasing in gamma, so the supremum is found by bisection and
    returned minus a safety margin of 1e-9.  ``kappa = 0`` is admitted and
    reduces to the closed form ``min(lam, log(q)/tau) - margin``.
    """
    kappa = float(kappa)
    lam = float(lam)
    tau = float(tau)
    q = float(q)
    if not (0.0 <= kappa < 1.0):
        raise DomainError(f"contraction strength must lie in [0, 1), got {kappa!r}")
    if lam <= 0.0:
        raise DomainError(f"reference exponent must be positive, got {lam!r}")
    if tau < 0.0:
        raise DomainError(f"lag window must be nonnegative, got {tau!r}")
    if q <= 1.0 / (1.0 - kappa) ** 2:
        raise DomainError(
            f"threshold q={q!r} is not above 1/(1-kappa)^2 = {1.0 / (1.0 - kappa) ** 2!r}")
    if _razumikhin_feasible(kappa, tau, q, lam):
        out = lam - _GAMMA_MARGIN
        return out if out > 0.0 else lam * (1.0 - _GAMMA_MARGIN)
    lo, hi = 0.0, lam
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _razumikhin_feasible(kappa, tau, q, mid):
            lo = mid
        else:
            hi = mid
    out = lo - _GAMMA_MARGIN
    if out <= 0.0:
        out = 0.5 * lo
    if out <= 0.0:
        raise DomainError(
            "no usable positive exponent: q is too close to its lower threshold")
    return out


def razumikhin_bound_curve(delta, lam, kappa, gamma, tau, xi_norm, t_grid):
    """Second-moment envelope ``(delta/lam + e^{-gamma t}(1+kappa)^2 xi^2) /
    (1 - kappa e^{gamma tau/2})^2`` evaluated on ``t_grid``.

    The pair (kappa, gamma, tau, and an implied threshold) must satisfy the
    same admissibility as :func:`razumikhin_gamma`'s output; here only the
    hard requirement ``kappa*e^{gamma*tau/2} < 1`` is checkable and enforced.
    """
    delta, lam = float(delta), float(lam)
    kappa, gamma, tau = float(kappa), float(gamma), float(tau)
    if lam <= 0.0 or gamma <= 0.0:
        raise DomainError("both exponents must be positive")
    e_half = kappa * math.exp(0.5 * gamma * tau)
    if e_half >= 1.0:
        raise DomainError(
            f"kappa*exp(gamma*tau/2) = {e_half!r} >= 1: envelope denominator vanishes")
    t = np.asarray(t_grid, dtype=float)
    num = delta / lam + np.exp(-gamma * t) * (1.0 + kappa) ** 2 * float(xi_norm) ** 2
    return num / (1.0 - e_half) ** 2


def neutral_mixing_exponent(kappa: float, gamma: float, tau: float) -> float:
    """Compose a decay exponent of the drift-corrected state ``x - G(x_t)``
    into one for the state itself, through the geometric delayed chain.

    With ``p = log((1-kappa)/kappa) / (gamma*tau)`` the composed exponent is
    ``min(p, 1)*gamma``, valid while ``q = kappa*e^{gamma*tau}/(1-kappa) < 1``.
    """
    kappa, gamma, tau = float(kappa), float(gamma), float(tau)
    if not (0.0 < kappa < 0.5):
        raise DomainError(f"contraction strength must lie in (0, 1/2), got {kappa!r}")
    if gamma <= 0.0 or tau <= 0.0:
        raise DomainError("gamma and tau must be positive")
    q = kappa * math.exp(gamma * tau) / (1.0 - kappa)
    if q >= 1.0:
        raise DomainError(
            f"geometric chain diverges: kappa*e^(gamma*tau)/(1-kappa) = {q!r} >= 1 "
            "(gamma too large for this kappa, tau)")
    p = math.log((1.0 - kappa) / kappa) / (gamma * tau)
    return min(p, 1.0) * gamma


# ---------------------------------------------------------------------------
# empirical rate from synchronous coupling
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RateReport:
    """Fitted exponential decay of the coupled-pair distance curve.

    ``fitted_rate`` is the magnitude of the log-linear slope (``inf`` when
    the pairs coalesce exactly and the curve is identically zero, ``nan``
    when fewer than 3 usable points remain to fit);
    ``analytic_rate`` is attached for recognized built-in families and is a
    lower envelope, not an asymptotic.  ``times``/``values`` carry the decay
    curve itself for CSV export.
    """

    fitted_rate: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    analytic_rate: float | None
    n_points: int
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_pairs: int = 0
    n_diverged: int = 0
    note: str = ""

    def to_text(self) -> str:
        lines = [
            f"fitted_rate={self.fitted_rate:.17g}",
            f"intercept={self.intercept:.17g}",
            f"r_squared={self.r_squared:.17g}",
            f"window_start={self.window[0]:.17g}",
            f"window_end={self.window[1]:.17g}",
            "analytic_rate=" + ("" if self.analytic_rate is None
                                else f"{self.analytic_rate:.17g}"),
            f"n_points={self.n_points}",
            f"n_pairs={self.n_pairs}",
            f"n_diverged={self.n_diverged}",
            f"note={self.note}",
        ]
        return "\n".join(lines) + "\n"

    CSV_HEADER = ("fitted_rate,intercept,r_squared,window_start,window_end,"
                  "analytic_rate,n_points,n_pairs,n_diverged")

    def to_csv_row(self) -> str:
        an = "" if self.analytic_rate is None else f"{self.analytic_rate:.17g}"
        return (f"{self.fitted_rate:.17g},{self.intercept:.17g},"
                f"{self.r_squared:.17g},{self.window[0]:.17g},"
                f"{self.window[1]:.17g},{an},{self.n_points},"
                f"{self.n_pairs},{self.n_diverged}")

    def curve_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,mean_distance\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.17g},{v:.17g}\n")


def analytic_mixing_rate(model) -> float | None:
    """Analytic decay exponent of the coupled-distance curve for built-in
    families (squared sup-distance for the continuous classes, first power
    for the jump class); ``None`` when no certificate applies."""
    desc = model.descriptor
    if isinstance(desc, NeutralLinearDescriptor):
        kappa, a, b = desc.kappa, desc.a, desc.b_lag
        a1 = 2.0 * a - (b + a * kappa)
        a2 = (b + a * kappa) - 2.0 * b * kappa
        if not (a1 > a2 > 0.0):
            return None
        try:
            lam_h = halanay_rate(a1, a2, model.tau)
            q = 2.0 / (1.0 - kappa) ** 2
            g = razumikhin_gamma(kappa, lam_h, model.tau, q)
            g_cap = math.log((1.0 - kappa) / kappa) / model.tau * (1.0 - 1e-9)
            return neutral_mixing_exponent(kappa, min(g, g_cap), model.tau)
        except DomainError:
            return None
    if isinstance(desc, LinearRetardedDescriptor):
        a, b = desc.a, desc.b_lag
        if b == 0.0:
            return 2.0 * a
        if not (2.0 * a - b > b > 0.0):
            return None
        return halanay_rate(2.0 * a - b, b, model.tau)
    if isinstance(desc, JumpLinearDescriptor) and not desc.saturating:
        a, b = desc.a, desc.b_lag
        if b == 0.0:
            return a
        if not (2.0 * a - b > b > 0.0):
            return None
        # first-power distance: half the squared-distance exponent
        return halanay_rate(2.0 * a - b, b, model.tau) / 2.0
    return None


def _log_linear_fit(t, y):
    """Least squares of log(y) on t; returns (slope, intercept, r_squared)."""
    ly = np.log(y)
    slope, intercept = np.polyfit(t, ly, 1)
    resid = ly - (slope * t + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-300 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def mixing_rate_estimate(model, xi, eta, cfg: SimConfig, window) -> RateReport:
    """Fit an exponential to the mean coupled sup-distance over ``window``.

    Simulates ``cfg.ensemble`` synchronously coupled pairs started from
    ``xi`` and ``eta``, records ``mean_pairs ||X_t(xi) - X_t(eta)||_sup^2``
    at the step-grid times inside ``window`` (first power for the jump
    class), and least-squares fits the log of the curve.  The window must
    start at or after the delay span ``tau``: before that the segment law is
    not even stochastically continuous for the jump class, and the decay
    statements do not apply.
    """
    t_start, t_end = float(window[0]), float(window[1])
    if t_start < model.tau - 1e-12:
        raise DomainError(
            f"fit window must start at or after tau={model.tau!r}, got {t_start!r}")
    if t_end > cfg.horizon + 1e-12:
        raise DomainError("fit window extends past the simulation horizon")
    if t_end <= t_start:
        raise DomainError("empty fit window")
    if cfg.ensemble < 100:
        raise DomainError(
            f"rate estimation needs at least 100 coupled pairs, got {cfg.ensemble}")

    h = cfg.step
    k_lo = steps_per_window(t_start, h, "window start")
    k_hi = steps_per_window(t_end, h, "window end")
    stride = max(1, -(-(k_hi - k_lo + 1) // 1024))
    record_steps = list(range(k_lo, k_hi + 1, stride))
    jump = model.model_class is ModelClass.JUMP

    def sup_dist(wa, wb):
        d = wa - wb
        sup = np.sqrt((d * d).sum(axis=-1)).max(axis=-1)
        return sup if jump else sup * sup

    n_pairs = cfg.ensemble
    rec = _ens.WindowRecorder(record_steps, {"d": sup_dist}, n_pairs)
    outcome = _ens.run_ensemble(model, xi, cfg, n_pairs, rec, eta=eta)
    _ens.refuse_divergence(outcome, "the coupling run")
    alive = ~outcome.diverged
    note = ""

    vals = rec.out["d"][alive]
    curve = np.nanmean(vals, axis=0)
    times = np.array(record_steps, dtype=float) * h

    finite = np.isfinite(curve)
    times, curve = times[finite], curve[finite]
    nz = curve > 0.0
    if not nz.any():
        # exact coalescence from the start (e.g. xi == eta under shared noise)
        return RateReport(math.inf, math.nan, math.nan, (t_start, t_end),
                          analytic_mixing_rate(model), 0, times, curve, n_pairs,
                          outcome.n_diverged, "exact coalescence everywhere")
    if not nz.all():
        first_zero = int(np.argmin(nz))
        if nz[:first_zero].all():
            warnings.warn(
                "coupled distance hit exact zero; truncating the fit window "
                f"at t={times[first_zero]:.6g}", stacklevel=2)
            note = "window truncated at exact coalescence"
            times, curve = times[:first_zero], curve[:first_zero]
        else:
            times, curve = times[nz], curve[nz]
            note = "zero-distance points dropped from fit"

    analytic = analytic_mixing_rate(model)
    if times.size == 0:
        return RateReport(math.inf, math.nan, math.nan, (t_start, t_end),
                          analytic, 0, times, curve, n_pairs,
                          outcome.n_diverged, note or "exact coalescence everywhere")
    if times.size < 3:
        return RateReport(math.nan, math.nan, math.nan, (t_start, t_end),
                          analytic, int(times.size), times, curve, n_pairs,
                          outcome.n_diverged, note or "fewer than 3 usable points")

    slope, intercept, r2 = _log_linear_fit(times, curve)
    return RateReport(-slope, intercept, r2, (t_start, t_end), analytic,
                      int(times.size), times, curve, n_pairs,
                      outcome.n_diverged, note)
