"""Invariant-measure estimation and long-run diagnostics.

The long-run law of a segment process is probed through a small battery of
functionals: time averages estimate the invariant expectation, an ensemble
at time t estimates the transition-kernel expectation, and the gap between
the two should shrink exponentially for mixing models.  Two further
diagnostics quantify the compactness ingredients behind that picture: the
fraction of segments with a large modulus of continuity (continuous
classes), and a conditional mean-square displacement bound over short
lookaheads (jump class).

Estimators exclude diverged paths and refuse to report when more than 1% of
an ensemble diverged, or when a functional evaluates to NaN or infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import stdtrit

from .errors import DomainError, EstimationError
from .engine import SimConfig, simulate, steps_per_window, _CadlagView, _node_index
from .models import ModelClass, delay_atoms
from .noise import NoiseStream, PATH_BLOCK_PI_A, PATH_BLOCK_PI_B
from .paths import Segment, SegmentKind
from .rates import _log_linear_fit
from . import ensemble as _ens

__all__ = [
    "Functional",
    "value_at_zero",
    "tanh_value_at_zero",
    "squared_value_at_zero",
    "clipped_sup_norm",
    "standard_battery",
    "time_average",
    "MixingReport",
    "mixing_check",
    "MomentReport",
    "moment_bound_check",
    "TightnessTable",
    "tightness_diagnostic",
    "KurtzTable",
    "kurtz_diagnostic",
]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """A real statistic of a segment.

    ``map`` evaluates one :class:`~sdelab.paths.Segment`.  ``window_fn``,
    when provided, is the vectorized equivalent acting on window value
    arrays of shape ``(..., W, n)`` (reducing the last two axes); estimators
    prefer it and fall back to wrapping ``map`` otherwise.  The jump class
    needs ``window_fn``: its windows are node values, left-padded by
    repeating the oldest node, so a jump ``window_fn`` must be invariant
    under repeating the oldest point, as sup and newest-point reductions
    are.  ``bound`` is a declared sup bound, asserted at runtime on every
    evaluated segment.
    """

    name: str
    map: object
    lipschitz_bound: float | None = None
    bound: float | None = None
    window_fn: object | None = None

    @property
    def bounded(self) -> bool:
        return self.bound is not None


def value_at_zero() -> Functional:
    return Functional(
        "value_at_zero",
        lambda seg: float(seg.eval(0.0)[0]),
        lipschitz_bound=1.0,
        window_fn=lambda w: np.asarray(w)[..., -1, 0],
    )


def tanh_value_at_zero() -> Functional:
    return Functional(
        "tanh_value_at_zero",
        lambda seg: math.tanh(float(seg.eval(0.0)[0])),
        lipschitz_bound=1.0,
        bound=1.0,
        window_fn=lambda w: np.tanh(np.asarray(w)[..., -1, 0]),
    )


def squared_value_at_zero() -> Functional:
    return Functional(
        "squared_value_at_zero",
        lambda seg: float((seg.eval(0.0) ** 2).sum()),
        window_fn=lambda w: (np.asarray(w)[..., -1, :] ** 2).sum(axis=-1),
    )


def clipped_sup_norm(clip: float = 10.0) -> Functional:
    def fn(w):
        w = np.asarray(w)
        sup = np.sqrt((w * w).sum(axis=-1)).max(axis=-1)
        return np.minimum(sup, clip)
    return Functional(
        f"sup_norm_clipped_{clip:g}",
        lambda seg: min(seg.sup_norm(), clip),
        lipschitz_bound=1.0,
        bound=clip,
        window_fn=fn,
    )


def standard_battery() -> tuple[Functional, ...]:
    return (value_at_zero(), tanh_value_at_zero(), squared_value_at_zero(),
            clipped_sup_norm(10.0))


def _as_window_fn(func: Functional, model, hist_steps: int):
    if func.window_fn is not None:
        return func.window_fn
    if model.model_class is ModelClass.JUMP:
        raise EstimationError(
            f"functional {func.name!r} has no window_fn and its map "
            "cannot be applied to non-uniform jump windows; provide "
            "window_fn for jump-class estimation")
    grid = np.linspace(-model.tau, 0.0, hist_steps + 1)

    def fn(win):
        win = np.asarray(win)
        if win.ndim == 2:
            return func.map(Segment(SegmentKind.CONTINUOUS_LINEAR, grid, win))
        return np.array([func.map(Segment(SegmentKind.CONTINUOUS_LINEAR, grid, w))
                         for w in win])

    return fn


def _assert_bound(func: Functional, observed_max: float):
    if not math.isfinite(observed_max):
        raise EstimationError(
            f"functional {func.name!r} evaluated to {observed_max!r}")
    if func.bound is not None and observed_max > func.bound + 1e-9:
        raise EstimationError(
            f"functional {func.name!r} declared bound {func.bound!r} but "
            f"evaluated to {observed_max!r}")


def _snap_times(times, h, n_steps, what):
    """The distinct steps nearest to ``times``, in ascending order."""
    steps = set()
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        k = int(round(t / h))
        if k < 0 or k > n_steps:
            raise DomainError(f"{what} time {t!r} outside the simulated horizon")
        steps.add(k)
    if not steps:
        raise DomainError(f"no {what} times")
    return sorted(steps)


def _even_steps(start, horizon, n_eval, h, n_steps):
    """The distinct steps nearest to ``n_eval`` even times from start to horizon."""
    if n_eval < 1:
        raise DomainError(f"n_eval={n_eval!r}: need at least one evaluation time")
    return _snap_times(np.linspace(start, horizon, n_eval), h, n_steps, "evaluation")


# ---------------------------------------------------------------------------
# time averages
# ---------------------------------------------------------------------------

def time_average(model, xi, func: Functional, cfg: SimConfig, burn_in: float,
                 *, eval_stride: int = 1, path_offset: int = 0):
    """Ergodic average of ``func`` over ``[burn_in, T]`` and its batch-means
    standard error.

    Each ensemble member contributes the mean of ``func`` over the strided
    step grid past ``burn_in``; members are averaged and the standard error
    comes from sqrt(M) ensemble batches (time blocks when fewer than four
    members survive).  Diverged paths are dropped; more than 1% of them
    raises :class:`~sdelab.errors.DivergenceError`.
    """
    h, horizon = cfg.step, cfg.horizon
    if not 0.0 <= burn_in < horizon:
        raise DomainError(f"burn_in must lie in [0, horizon), got {burn_in!r}")
    burn_steps = int(round(burn_in / h))
    n_steps = steps_per_window(horizon, h, "horizon")
    hist_steps = steps_per_window(model.tau, h, "tau")
    stride = max(1, int(eval_stride))
    n_records = (n_steps - burn_steps) // stride
    if n_records < 2:
        raise DomainError("fewer than two evaluation times past burn_in")

    fn = _as_window_fn(func, model, hist_steps)
    acc = _ens.IntegralAccumulator(burn_steps, stride, fn, cfg.ensemble, n_records)
    outcome = _ens.run_ensemble(model, xi, cfg, cfg.ensemble, acc,
                                path_offset=path_offset)
    _ens.refuse_divergence(outcome, "time averaging")

    alive = ~outcome.diverged
    _assert_bound(func, float(acc.max_abs[alive].max()))

    member_avgs = acc.sums[alive] / acc.counts[alive]
    estimate = float(member_avgs.mean())
    m_alive = member_avgs.size
    if m_alive >= 4:
        n_batches = max(2, int(round(math.sqrt(m_alive))))
        batch_means = np.array([b.mean() for b in np.array_split(member_avgs, n_batches)])
    else:
        # too few members: batch over time blocks pooled across the survivors
        counts = acc.block_counts[alive]
        used = counts.sum(axis=0) > 0
        batch_means = (acc.block_sums[alive].sum(axis=0)[used]
                       / counts.sum(axis=0)[used])
        n_batches = batch_means.size
    if n_batches >= 2:
        stderr = float(batch_means.std(ddof=1) / math.sqrt(n_batches))
    else:
        stderr = math.nan
    return estimate, stderr


# ---------------------------------------------------------------------------
# mixing of functionals
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MixingReport:
    """Transition-kernel expectations vs. the invariant estimate.

    ``gaps[i] = |p_hat[i] - pi_hat|`` uses the invariant estimate from the
    independently seeded, differently initialized run; ``pi_hat_alt`` is a
    second independent estimate whose agreement within three combined
    standard errors is recorded in ``pi_agree``.
    """

    functional_name: str
    times: np.ndarray
    p_hat: np.ndarray
    p_se: np.ndarray
    gaps: np.ndarray
    pi_hat: float
    pi_se: float
    pi_hat_alt: float
    pi_se_alt: float
    fitted_rate: float
    r_squared: float
    n_fit_points: int
    pi_agree: bool
    n_paths: int
    n_diverged: int
    note: str = ""

    def to_json(self) -> str:
        doc = {
            "functional": self.functional_name,
            "series": [{"t": float(t), "p_hat": float(p), "p_se": float(s),
                        "gap": float(g)}
                       for t, p, s, g in zip(self.times, self.p_hat,
                                             self.p_se, self.gaps)],
            "pi_hat": self.pi_hat, "pi_se": self.pi_se,
            "pi_hat_alt": self.pi_hat_alt, "pi_se_alt": self.pi_se_alt,
            "fitted_rate": self.fitted_rate, "r_squared": self.r_squared,
            "n_fit_points": self.n_fit_points, "pi_agree": self.pi_agree,
            "n_paths": self.n_paths, "n_diverged": self.n_diverged,
            "note": self.note,
        }
        return json.dumps(doc, indent=2, allow_nan=True)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,p_hat,p_se,gap\n")
            for t, p, s, g in zip(self.times, self.p_hat, self.p_se, self.gaps):
                fh.write(f"{t:.17g},{p:.17g},{s:.17g},{g:.17g}\n")


def mixing_check(model, xi, eta, func: Functional, cfg: SimConfig, *,
                 eval_times=None, pi_burn_in: float | None = None,
                 pi_ensemble: int | None = None) -> MixingReport:
    """Estimate |E_xi F(X_t) - pi(F)| on a time grid and fit its decay.

    The kernel side runs ``cfg.ensemble`` paths from ``xi``.  The invariant
    side is estimated twice by long-run time averages on disjoint
    counter-stream blocks: once started from ``eta``, once from ``xi``, so
    the two estimates share neither noise nor initial condition.  Gaps are
    measured against the ``eta``-started estimate.
    """
    if func.lipschitz_bound is None:
        raise DomainError(
            "mixing_check needs a Lipschitz functional (declare lipschitz_bound); "
            "the decay claim does not transfer numerically beyond that class")
    h, horizon, tau = cfg.step, cfg.horizon, model.tau
    n_steps = steps_per_window(horizon, h, "horizon")
    hist_steps = steps_per_window(tau, h, "tau")
    if eval_times is None:
        eval_times = np.linspace(tau, horizon, 25)
    record_steps = _snap_times(eval_times, h, n_steps, "evaluation")

    fn = _as_window_fn(func, model, hist_steps)
    rec = _ens.WindowRecorder(record_steps, {"f": fn}, cfg.ensemble)
    outcome = _ens.run_ensemble(model, xi, cfg, cfg.ensemble, rec)
    _ens.refuse_divergence(outcome, "kernel ensemble")
    alive = ~outcome.diverged
    vals = rec.out["f"][alive]
    if vals.shape[0] < 2:
        raise EstimationError("fewer than two usable kernel paths")
    _assert_bound(func, float(np.abs(vals).max()))
    p_hat = vals.mean(axis=0)
    p_se = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])

    m_pi = pi_ensemble if pi_ensemble is not None else max(4, cfg.ensemble // 8)
    # default burn of half the horizon: the invariant-side estimates carry a
    # systematic relaxation bias ~e^(-rate*burn) that no standard error sees,
    # so the default leans long; callers with a known rate can shorten it
    burn = pi_burn_in if pi_burn_in is not None else max(tau, horizon / 2.0)
    cfg_pi = replace(cfg, ensemble=m_pi)
    pi_hat, pi_se = time_average(model, eta, func, cfg_pi, burn,
                                 path_offset=PATH_BLOCK_PI_A)
    pi_alt, pi_se_alt = time_average(model, xi, func, cfg_pi, burn,
                                     path_offset=PATH_BLOCK_PI_B)
    comb = math.sqrt(pi_se ** 2 + pi_se_alt ** 2)
    pi_agree = abs(pi_hat - pi_alt) <= 3.0 * comb or comb == 0.0 and pi_hat == pi_alt

    times = np.array(record_steps, dtype=float) * h
    gaps = np.abs(p_hat - pi_hat)

    floor = 3.0 * np.sqrt(p_se ** 2 + pi_se ** 2)
    fit_mask = (times >= tau - 1e-12) & (gaps > floor) & (gaps > 0.0)
    note = ""
    if fit_mask.sum() >= 3:
        slope, _, r2 = _log_linear_fit(times[fit_mask], gaps[fit_mask])
        rate = -slope
        n_fit = int(fit_mask.sum())
    else:
        rate, r2, n_fit = math.nan, math.nan, int(fit_mask.sum())
        note = "too few gaps above the noise floor to fit a rate"

    return MixingReport(func.name, times, p_hat, p_se, gaps, pi_hat, pi_se,
                        pi_alt, pi_se_alt, rate, r2, n_fit, bool(pi_agree),
                        cfg.ensemble, outcome.n_diverged, note)


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MomentReport:
    """Sup-window moments on a coarse grid with a trend diagnostic.

    Boundedness is read off the 99% confidence interval of the mean
    per-path slope: a bounded moment family has a slope CI containing 0.
    """

    power: float
    times: np.ndarray
    moments: np.ndarray
    moment_ses: np.ndarray
    max_moment: float
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    contains_zero: bool
    n_paths: int
    n_diverged: int

    def to_json(self) -> str:
        doc = {
            "power": self.power,
            "series": [{"t": float(t), "moment": float(m), "se": float(s)}
                       for t, m, s in zip(self.times, self.moments, self.moment_ses)],
            "max_moment": self.max_moment,
            "slope": self.slope, "slope_se": self.slope_se,
            "slope_ci": list(self.slope_ci), "contains_zero": self.contains_zero,
            "n_paths": self.n_paths, "n_diverged": self.n_diverged,
        }
        return json.dumps(doc, indent=2, allow_nan=True)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,moment,se\n")
            for t, m, s in zip(self.times, self.moments, self.moment_ses):
                fh.write(f"{t:.17g},{m:.17g},{s:.17g}\n")


def moment_bound_check(model, xi, cfg: SimConfig, kappa_exp: float = 0.1, *,
                       burn_in: float | None = None, n_eval: int = 25) -> MomentReport:
    """Check that ``E ||X_t||_sup^(2+kappa_exp)`` stays bounded in time."""
    if kappa_exp < 0.0:
        raise DomainError(f"moment weight must be nonnegative, got {kappa_exp!r}")
    h, horizon, tau = cfg.step, cfg.horizon, model.tau
    # slope-reading logic assumes the relaxation transient is over; default
    # to the second half of the horizon (see the mixing-check burn note)
    burn = burn_in if burn_in is not None else max(tau, horizon / 2.0)
    if not tau <= burn < horizon:
        raise DomainError("burn_in must lie in [tau, horizon)")
    n_steps = steps_per_window(horizon, h, "horizon")
    record_steps = _even_steps(burn, horizon, n_eval, h, n_steps)
    if len(record_steps) < 2:
        raise DomainError("the moment trend needs two distinct evaluation times")
    p = 2.0 + kappa_exp

    def sup(w):
        return np.sqrt((w * w).sum(axis=-1)).max(axis=-1)

    rec = _ens.WindowRecorder(record_steps, {"sup": sup}, cfg.ensemble)
    outcome = _ens.run_ensemble(model, xi, cfg, cfg.ensemble, rec)
    _ens.refuse_divergence(outcome, "moment estimation")
    # one array power over the whole table, so every route rounds alike
    vals = rec.out["sup"][~outcome.diverged] ** p
    if vals.shape[0] < 3:
        raise EstimationError("fewer than three usable paths for the moment check")

    times = np.array(record_steps, dtype=float) * h
    moments = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])

    tc = times - times.mean()
    denom = float(tc @ tc)
    slopes = (vals - vals.mean(axis=1, keepdims=True)) @ tc / denom
    slope = float(slopes.mean())
    slope_se = float(slopes.std(ddof=1) / math.sqrt(slopes.size))
    tcrit = float(stdtrit(slopes.size - 1, 0.995))
    ci = (slope - tcrit * slope_se, slope + tcrit * slope_se)
    return MomentReport(p, times, moments, ses, float(moments.max()), slope,
                        slope_se, ci, ci[0] <= 0.0 <= ci[1], cfg.ensemble,
                        outcome.n_diverged)


# ---------------------------------------------------------------------------
# tightness of the modulus of continuity
# ---------------------------------------------------------------------------

def _uniform_window_modulus(win, h, delta):
    """Exact modulus of continuity of piecewise-linear paths sampled on a
    uniform grid with spacing ``h``, vectorized over leading axes."""
    win = np.asarray(win)
    w_count = win.shape[-2]
    lead = win.shape[:-2]
    best = np.zeros(lead)
    q = int(math.floor(delta / h + 1e-9))
    q = min(q, w_count - 1)
    for d in range(1, q + 1):
        diff = win[..., d:, :] - win[..., :-d, :]
        nrm = np.sqrt((diff * diff).sum(axis=-1)).max(axis=-1)
        np.maximum(best, nrm, out=best)
    r = delta - q * h
    if r > 1e-9 * max(1.0, delta) and q + 1 <= w_count - 1:
        w = r / h
        interp = (1.0 - w) * win[..., q:-1, :] + w * win[..., q + 1:, :]
        diff = win[..., :w_count - 1 - q, :] - interp
        nrm = np.sqrt((diff * diff).sum(axis=-1)).max(axis=-1)
        np.maximum(best, nrm, out=best)
    return best


@dataclass(eq=False)
class TightnessTable:
    """Fractions of segments with modulus of continuity >= eps, per (delta, t)."""

    deltas: np.ndarray
    times: np.ndarray
    fractions: np.ndarray  # shape (n_deltas, n_times)
    eps: float
    n_paths: int
    n_diverged: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("delta," + ",".join(f"t={t:.17g}" for t in self.times) + "\n")
            for d, row in zip(self.deltas, self.fractions):
                fh.write(f"{d:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def tightness_diagnostic(model, xi, cfg: SimConfig, delta_list, eps: float, *,
                         n_eval: int = 12, burn_in: float | None = None) -> TightnessTable:
    """Empirical tail of the modulus of continuity on a (delta, t) grid.

    Only meaningful for the continuous classes.  Because the modulus is
    monotone in delta pathwise, each column of the table is exactly
    nonincreasing as delta decreases.
    """
    if model.model_class is ModelClass.JUMP:
        raise DomainError("modulus tightness applies to the continuous classes; "
                          "use the jump-class displacement diagnostic instead")
    deltas = [float(d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise DomainError("delta_list must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("delta_list must be strictly decreasing")
    if eps <= 0:
        raise DomainError("eps must be positive")

    h, horizon, tau = cfg.step, cfg.horizon, model.tau
    start = burn_in if burn_in is not None else tau
    if not tau <= start < horizon:
        raise DomainError("burn_in must lie in [tau, horizon)")
    n_steps = steps_per_window(horizon, h, "horizon")
    record_steps = _even_steps(start, horizon, n_eval, h, n_steps)

    fns = {f"d{i}": (lambda w, d=d: _uniform_window_modulus(w, h, d))
           for i, d in enumerate(deltas)}
    rec = _ens.WindowRecorder(record_steps, fns, cfg.ensemble)
    outcome = _ens.run_ensemble(model, xi, cfg, cfg.ensemble, rec)
    _ens.refuse_divergence(outcome, "tightness diagnostic")
    alive = ~outcome.diverged

    times = np.array(record_steps, dtype=float) * h
    fractions = np.empty((len(deltas), times.size))
    for i in range(len(deltas)):
        vals = rec.out[f"d{i}"][alive]
        fractions[i] = (vals >= eps).mean(axis=0)
    return TightnessTable(np.array(deltas), times, fractions, float(eps),
                          cfg.ensemble, outcome.n_diverged)


# ---------------------------------------------------------------------------
# jump-class conditional displacement diagnostic
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class KurtzTable:
    """Mean short-lookahead conditional displacement bound, per (t, eps).

    Reported with unit front constant; an order-of-magnitude diagnostic for
    the compact-containment argument, not a certified bound.
    """

    times: np.ndarray
    eps_list: np.ndarray
    values: np.ndarray  # shape (n_times, n_eps)
    n_paths: int
    n_diverged: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(f"eps={e:.17g}" for e in self.eps_list) + "\n")
            for t, row in zip(self.times, self.values):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def kurtz_diagnostic(model, xi, cfg: SimConfig, eps_list, *,
                     n_eval: int = 6, tail_start: float | None = None) -> KurtzTable:
    """Tail behaviour of ``sup_theta`` integrated squared drift plus jump
    second moment over lookaheads of length eps, for the jump class.

    For each path the integrand ``g(s) = |b(s, X_s)|^2 + (jump second
    moment at (s, X_s))`` is evaluated at the trajectory's nodes, and
    ``gamma0(t, eps) = sup over theta in [-tau, -eps] of the integral of g
    over [t+theta, t+theta+eps]``; the table holds ensemble means.  Values
    are exactly nondecreasing in eps pathwise.
    """
    if model.model_class is not ModelClass.JUMP:
        raise DomainError("displacement diagnostic applies to the jump class")
    if model.jump_second_moment is None:
        raise EstimationError(
            "model does not expose a jump second-moment rate; supply "
            "jump_second_moment to use this diagnostic")
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0 or e > model.tau + 1e-12 for e in eps):
        raise DomainError("eps values must lie in (0, tau]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError("eps_list must be strictly decreasing")

    h, horizon, tau = cfg.step, cfg.horizon, model.tau
    t0 = tail_start if tail_start is not None else max(tau, horizon / 2.0)
    if not tau <= t0 <= horizon:
        raise DomainError("tail_start must lie in [tau, horizon]")
    n_steps = steps_per_window(horizon, h, "horizon")
    eval_steps = _even_steps(t0, horizon, n_eval, h, n_steps)
    eval_t = np.array(eval_steps, dtype=float) * h

    table = np.zeros((eval_t.size, len(eps)))
    outcome = _ens.EnsembleOutcome(cfg.ensemble)
    for p in range(cfg.ensemble):
        traj = simulate(model, xi, cfg, NoiseStream(cfg.master_seed, p))
        if traj.diverged:
            outcome.diverged[p] = True
            continue
        times, states = traj.times, traj.states
        view = _CadlagView(states, times, [0, times.size], tau, delay_atoms(model.delay))
        lo_t = eval_t[0] - tau - max(eps)
        i_lo = int(_node_index(times, lo_t, left=True))
        g = np.zeros(times.size)
        for i in range(i_lo, times.size):
            view.head = i
            b = model.drift(times[i], view)
            g[i] = float((np.asarray(b) ** 2).sum()) + float(
                model.jump_second_moment(times[i], view))
        cum = np.zeros(times.size)
        np.cumsum(g[:-1] * np.diff(times), out=cum[1:])

        def integral(s, e):
            return np.interp(e, times, cum) - np.interp(s, times, cum)

        for it, t in enumerate(eval_t):
            rel = times[_node_index(times, t - tau, left=True) + 1:
                        _node_index(times, t) + 1] - t
            for ie, e in enumerate(eps):
                shifted = rel - e
                starts = t + np.concatenate((
                    [-tau, -e], rel[(rel >= -tau) & (rel <= -e)],
                    shifted[(shifted >= -tau) & (shifted <= -e)]))
                table[it, ie] += float(np.max(integral(starts, starts + e)))
    _ens.refuse_divergence(outcome, "the displacement diagnostic")
    table /= cfg.ensemble - outcome.n_diverged
    return KurtzTable(eval_t, np.array(eps), table, cfg.ensemble, outcome.n_diverged)
