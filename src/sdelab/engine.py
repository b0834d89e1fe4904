"""Per-path simulation engine.

Euler-Maruyama stepping for the three model classes, on a uniform grid of
step ``h`` that exactly subdivides ``tau``.  For the jump class the Poisson
epochs are inserted as extra grid nodes so that jumps land at their exact
times rather than being binned into steps.  Neutral models evolve the
transformed state ``Y = X - G(X_t)`` and recover the newest point of ``X``
by a contraction fixed-point iteration.

Randomness comes exclusively from a :class:`~sdelab.noise.NoiseStream`, so a
trajectory is a pure function of ``(model, initial segment, config,
master_seed, path_index)`` and coupled runs consume identical noise by
sharing the stream.  Paths that leave the divergence guard are truncated and
flagged, never raised.

The guard predicate and the neutral newest-point solver below act on rows of
paths, so this per-path engine and the batch kernel in
:mod:`sdelab.ensemble` share them: one path is a block of one row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FixedPointError
from .models import ModelClass, ModelSpec
from .noise import NoiseStream
from .paths import Segment, SegmentKind, evaluate, evaluate_left

__all__ = [
    "SimConfig",
    "Trajectory",
    "simulate",
    "simulate_coupled",
    "sample_poisson_measure",
    "extract_segment",
    "extract_segment_left",
    "trajectory_to_csv",
    "steps_per_window",
]

_GRID_RTOL = 1e-9
_NODE_ATOL = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Discretization and reproducibility knobs shared by all runs.

    ``step`` must subdivide the model's window exactly; a configured segment
    grid must itself be step-aligned.  The divergence guard is a magnitude
    cap: paths crossing it are flagged and truncated, not raised.
    """

    step: float
    horizon: float
    master_seed: int = 0
    ensemble: int = 1
    segment_grid_points: int | None = None
    divergence_guard: float = 1e8
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 50
    threads: int = 1

    def __post_init__(self):
        if self.step <= 0:
            raise DomainError("step must be positive")
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        if self.ensemble < 1:
            raise DomainError("ensemble must be >= 1")
        if self.divergence_guard <= 0:
            raise DomainError("divergence guard must be positive")
        if self.fixed_point_tol <= 0 or self.fixed_point_max_iter < 1:
            raise DomainError("bad fixed-point settings")
        if self.segment_grid_points is not None and self.segment_grid_points < 2:
            raise DomainError("segment grid needs at least 2 points")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


def steps_per_window(span: float, step: float, what: str = "span") -> int:
    """Number of steps in ``span``, requiring exact divisibility."""
    ratio = span / step
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > _GRID_RTOL * max(1.0, ratio):
        raise DomainError(f"{what}={span!r} is not a positive multiple of step={step!r}")
    return k


@dataclass
class Trajectory:
    """A simulated path including its initial window.

    ``times`` runs from ``-tau`` to the horizon (or the truncation point);
    for the jump class it contains the exact jump epochs as extra nodes.
    ``drift_integral`` is the cumulative integral of the model drift b along
    the path (zero on the initial window), so ``X(t) - X(0) -
    drift_integral(t)`` is the driving martingale part.
    """

    model_class: ModelClass
    times: np.ndarray
    states: np.ndarray
    jump_flags: np.ndarray
    tau: float
    step: float
    diverged: bool = False
    diverged_at: float | None = None
    max_fixed_point_iters: int = 0
    drift_integral: np.ndarray | None = None

    @property
    def jump_times(self) -> np.ndarray:
        return self.times[self.jump_flags & (self.times > 0)]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def kind(self) -> SegmentKind:
        return (SegmentKind.CADLAG_STEP if self.model_class is ModelClass.JUMP
                else SegmentKind.CONTINUOUS_LINEAR)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> np.ndarray:
        """Path value at time ``t`` (interpolated by the class's discipline)."""
        return _path_value(self, t)


# ---------------------------------------------------------------------------
# segment views: cheap windows over the growing path used by coefficients
# ---------------------------------------------------------------------------

class _UniformSegView:
    """Segment protocol over a uniform-grid history array (continuous kinds)."""

    __slots__ = ("states", "head", "h", "tau", "hist_steps")

    def __init__(self, states, h, tau, hist_steps):
        self.states = states
        self.h = h
        self.tau = tau
        self.hist_steps = hist_steps
        self.head = hist_steps

    def zero(self):
        return self.states[self.head]

    def eval(self, theta):
        if theta == 0.0:
            return self.states[self.head]
        back = -theta / self.h
        r = round(back)
        if abs(back - r) < 1e-9 * max(1.0, back):
            return self.states[self.head - int(r)]
        i = int(math.floor(back))
        w = back - i
        lo = self.states[self.head - i - 1]
        hi = self.states[self.head - i]
        return w * lo + (1.0 - w) * hi

    def sup_norm(self):
        win = self.states[self.head - self.hist_steps:self.head + 1]
        if win.shape[1] == 1:
            return float(np.abs(win).max())
        return float(np.sqrt((win ** 2).sum(axis=1)).max())


class _CadlagSegView:
    """Segment protocol over a non-uniform cadlag node history (jump class)."""

    __slots__ = ("states", "times", "head", "tau")

    def __init__(self, states, times, tau):
        self.states = states
        self.times = times
        self.tau = tau
        self.head = 0

    def zero(self):
        return self.states[self.head]

    def eval(self, theta):
        if theta == 0.0:
            return self.states[self.head]
        t = self.times[self.head] + theta
        i = int(np.searchsorted(self.times[:self.head + 1], t, side="right")) - 1
        return self.states[max(i, 0)]

    def sup_norm(self):
        t0 = self.times[self.head] - self.tau
        i0 = int(np.searchsorted(self.times[:self.head + 1], t0, side="right")) - 1
        win = self.states[max(i0, 0):self.head + 1]
        if win.shape[1] == 1:
            return float(np.abs(win).max())
        return float(np.sqrt((win ** 2).sum(axis=1)).max())


# ---------------------------------------------------------------------------
# the stepping contract shared with the batch kernel
# ---------------------------------------------------------------------------

def _out_of_guard(x, guard):
    """Which state rows (last axis) are non-finite or reach the guard.

    Written as the negation of ``max |x| < guard`` so that a NaN or an
    infinite entry marks its row as out.
    """
    return ~(np.abs(x).max(axis=-1) < guard)


def _solve_newest(newest, y, g_of, done, cfg: SimConfig, t: float) -> int:
    """Solve ``x = y + G(x)`` for the newest point of each row of paths.

    ``newest`` (rows x n) holds the starting iterate and receives the
    solution in place; ``g_of()`` evaluates G on every row with the current
    newest points.  Rows flagged in ``done`` (diverged paths) are left as
    they are.  Each other row takes iterates until one moved by at most
    ``cfg.fixed_point_tol`` and keeps that iterate.  A row whose residual
    turns NaN (its iterate left the floats) stops too, keeping a non-finite
    iterate for the guard to flag.  Returns the number of sweeps; raises
    :class:`FixedPointError` after ``cfg.fixed_point_max_iter`` sweeps with
    a row still moving.
    """
    moving = ~done[:, None]
    it = 0
    while np.count_nonzero(moving):
        if it == cfg.fixed_point_max_iter:
            raise FixedPointError(
                f"neutral fixed point stalled at t={t:.6g}: "
                f"{np.count_nonzero(moving)} path(s) still moving after {it} "
                f"iterations (residual {float(res[moving].max()):.3g})")
        it += 1
        x_new = y + g_of()
        res = np.abs(x_new - newest).max(axis=-1, keepdims=True)
        np.copyto(newest, x_new, where=moving)
        moving &= res > cfg.fixed_point_tol
    return it


# ---------------------------------------------------------------------------
# poisson random measure
# ---------------------------------------------------------------------------

def sample_poisson_measure(intensity: float, mark_law, horizon: float,
                           stream: NoiseStream):
    """Epochs and marks of a compound Poisson measure on ``(0, horizon]``.

    Epoch gaps are inverse-exponential transforms of the stream's epoch
    channel; marks come one uniform each from the mark channel, so a shared
    stream reproduces the identical measure (the coupling construction).
    """
    if intensity < 0:
        raise DomainError("intensity must be >= 0")
    if intensity == 0.0:
        return np.empty(0), np.empty(0)
    epochs = []
    t = 0.0
    start = 0
    block = 64
    while True:
        u = stream.epoch_uniforms(start, block)
        gaps = -np.log(u) / intensity
        for g in gaps:
            t += g
            if t > horizon:
                break
            epochs.append(t)
        if t > horizon:
            break
        start += block
    epochs = np.asarray(epochs)
    marks = mark_law.from_uniform(stream.mark_uniforms(0, epochs.size)) if epochs.size else np.empty(0)
    return epochs, np.asarray(marks, dtype=float)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate(model: ModelSpec, xi: Segment, cfg: SimConfig,
             stream: NoiseStream | None = None, path_index: int = 0) -> Trajectory:
    """One path of the model from initial segment ``xi``.

    The trajectory is bitwise reproducible from ``(model, xi, cfg,
    master_seed, path_index)``.  Divergence (guard crossing or non-finite
    state) truncates and flags the result.
    """
    _check_initial(model, xi)
    if stream is None:
        stream = NoiseStream(cfg.master_seed, path_index)
    if model.model_class is ModelClass.RETARDED:
        return _simulate_continuous(model, xi, cfg, stream, neutral=False)
    if model.model_class is ModelClass.NEUTRAL:
        return _simulate_continuous(model, xi, cfg, stream, neutral=True)
    return _simulate_jump(model, xi, cfg, stream)


def simulate_coupled(model: ModelSpec, xi: Segment, eta: Segment, cfg: SimConfig,
                     stream: NoiseStream | None = None, path_index: int = 0):
    """Two paths from different initial segments driven by the same noise.

    Shares one stream: identical Brownian increments, identical jump epochs
    and marks (synchronous coupling).
    """
    if stream is None:
        stream = NoiseStream(cfg.master_seed, path_index)
    return simulate(model, xi, cfg, stream), simulate(model, eta, cfg, stream)


def _check_initial(model: ModelSpec, xi: Segment):
    if abs(xi.tau - model.tau) > _GRID_RTOL * max(1.0, model.tau):
        raise DomainError("initial segment window does not match the model's tau")
    if xi.dim != model.dim:
        raise DomainError("initial segment dimension does not match the model")
    if xi.kind is SegmentKind.CADLAG_STEP and model.model_class is not ModelClass.JUMP:
        raise DomainError("step-kind initial segments only make sense for the jump class")


def _history_on_grid(xi: Segment, k_hist: int, tau: float) -> np.ndarray:
    grid = np.linspace(-tau, 0.0, k_hist + 1)
    return np.stack([evaluate(xi, th) for th in grid])


def _simulate_continuous(model, xi, cfg, stream, neutral: bool) -> Trajectory:
    h = cfg.step
    tau = model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    n = model.dim
    m = model.brownian_dim
    if model.diffusion is None:
        raise DomainError("continuous classes need a diffusion map")

    states = np.empty((k_hist + n_steps + 1, n))
    states[:k_hist + 1] = _history_on_grid(xi, k_hist, tau)
    dint = np.zeros((k_hist + n_steps + 1, n))
    dw = stream.gaussian_block(0, n_steps, m) * math.sqrt(h)
    view = _UniformSegView(states, h, tau, k_hist)
    drift = model.drift
    diffusion = model.diffusion
    guard = cfg.divergence_guard

    max_iters = 0
    if neutral:
        g_map = model.neutral_map
        y = states[k_hist] - g_map(view)

        def g_of():
            return g_map(view)
        not_done = np.zeros(1, dtype=bool)

    end = k_hist + n_steps
    diverged = False
    diverged_at = None
    for k in range(n_steps):
        head = k_hist + k
        view.head = head
        t = k * h
        b = drift(t, view)
        sig = diffusion(t, view)
        incr = b * h + sig @ dw[k]
        dint[head + 1] = dint[head] + b * h
        if neutral:
            y = y + incr
            view.head = head + 1
            states[head + 1] = states[head]
            it = _solve_newest(states[head + 1:head + 2], y, g_of, not_done, cfg, t + h)
            if it > max_iters:
                max_iters = it
        else:
            states[head + 1] = states[head] + incr
        if _out_of_guard(states[head + 1], guard):
            diverged = True
            diverged_at = (k + 1) * h
            end = head + 1
            break

    times = np.linspace(-tau, 0.0, k_hist + 1)
    times = np.concatenate([times, h * np.arange(1, end - k_hist + 1)])
    return Trajectory(
        model_class=model.model_class,
        times=times,
        states=states[:end + 1],
        jump_flags=np.zeros(end + 1, dtype=bool),
        tau=tau, step=h,
        diverged=diverged, diverged_at=diverged_at,
        max_fixed_point_iters=max_iters,
        drift_integral=dint[:end + 1],
    )


def _jump_nodes(xi: Segment, tau: float, h: float, k_hist: int, n_steps: int, epochs):
    """History and forward node times with jump flags, epochs inserted exactly."""
    hist_times = list(np.linspace(-tau, 0.0, k_hist + 1))
    hist_flags = [False] * (k_hist + 1)
    if xi.jump_flags.any():
        for t_j in xi.grid[xi.jump_flags]:
            if t_j <= -tau or t_j >= 0.0:
                continue
            i = int(np.searchsorted(hist_times, t_j))
            if abs(hist_times[min(i, k_hist)] - t_j) < _NODE_ATOL:
                hist_flags[min(i, k_hist)] = True
            elif i > 0 and abs(hist_times[i - 1] - t_j) < _NODE_ATOL:
                hist_flags[i - 1] = True
            else:
                hist_times.insert(i, float(t_j))
                hist_flags.insert(i, True)
    fwd_times = list(h * np.arange(1, n_steps + 1))
    fwd_flags = [False] * len(fwd_times)
    for e in epochs:
        i = int(np.searchsorted(fwd_times, e))
        if i < len(fwd_times) and abs(fwd_times[i] - e) < _NODE_ATOL:
            fwd_flags[i] = True
        elif i > 0 and abs(fwd_times[i - 1] - e) < _NODE_ATOL:
            fwd_flags[i - 1] = True
        else:
            fwd_times.insert(i, float(e))
            fwd_flags.insert(i, True)
    times = np.concatenate([hist_times, fwd_times])
    flags = np.array(hist_flags + fwd_flags, dtype=bool)
    return times, flags


def _simulate_jump(model, xi, cfg, stream) -> Trajectory:
    h = cfg.step
    tau = model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    n = model.dim

    epochs, marks = sample_poisson_measure(model.intensity, model.mark_law,
                                           cfg.horizon, stream)
    times, flags = _jump_nodes(xi, tau, h, k_hist, n_steps, epochs)
    i_zero = int(np.searchsorted(times, 0.0))
    n_nodes = times.size

    states = np.empty((n_nodes, n))
    for i in range(i_zero + 1):
        states[i] = evaluate(xi, times[i])
    dint = np.zeros((n_nodes, n))

    view = _CadlagSegView(states, times, tau)
    drift = model.drift
    comp = model.jump_compensator
    jump_coeff = model.jump_coeff
    guard = cfg.divergence_guard

    epoch_idx = {}
    for j, e in enumerate(epochs):
        i = int(np.searchsorted(times, e))
        if i < n_nodes and abs(times[i] - e) < _NODE_ATOL:
            epoch_idx[i] = j
        elif i > 0 and abs(times[i - 1] - e) < _NODE_ATOL:
            epoch_idx[i - 1] = j

    end = n_nodes - 1
    diverged = False
    diverged_at = None
    for i in range(i_zero, n_nodes - 1):
        view.head = i
        t = float(times[i])
        dt = float(times[i + 1] - times[i])
        b = drift(t, view)
        applied = b - comp(t, view)
        x_pre = states[i] + applied * dt
        dint[i + 1] = dint[i] + b * dt
        states[i + 1] = x_pre
        j = epoch_idx.get(i + 1)
        if j is not None:
            view.head = i + 1  # newest point is the left limit at the epoch
            states[i + 1] = x_pre + jump_coeff(float(times[i + 1]), view, float(marks[j]))
        if _out_of_guard(states[i + 1], guard):
            diverged = True
            diverged_at = float(times[i + 1])
            end = i + 1
            break

    return Trajectory(
        model_class=ModelClass.JUMP,
        times=times[:end + 1],
        states=states[:end + 1],
        jump_flags=flags[:end + 1],
        tau=tau, step=h,
        diverged=diverged, diverged_at=diverged_at,
        drift_integral=dint[:end + 1],
    )


# ---------------------------------------------------------------------------
# segment extraction
# ---------------------------------------------------------------------------

def _path_value(traj: Trajectory, t: float, left: bool = False) -> np.ndarray:
    times = traj.times
    if t < times[0] - _NODE_ATOL or t > times[-1] + _NODE_ATOL:
        raise DomainError(f"time {t!r} outside the simulated range")
    t = min(max(t, float(times[0])), float(times[-1]))
    if traj.kind is SegmentKind.CADLAG_STEP:
        side = "left" if left else "right"
        i = int(np.searchsorted(times, t, side=side)) - 1
        return traj.states[max(i, 0)]
    i = int(np.searchsorted(times, t))
    if i < times.size and times[i] == t:
        return traj.states[i]
    t0, t1 = times[i - 1], times[i]
    w = (t - t0) / (t1 - t0)
    return (1 - w) * traj.states[i - 1] + w * traj.states[i]


def _extract(traj: Trajectory, t: float, cfg: SimConfig | None, left: bool) -> Segment:
    tau = traj.tau
    if t < -_NODE_ATOL or t > traj.horizon + _NODE_ATOL:
        raise DomainError(f"segment time {t!r} outside [0, horizon]")
    t = min(max(t, 0.0), traj.horizon)
    pts = cfg.segment_grid_points if (cfg and cfg.segment_grid_points) else None
    if pts is None:
        pts = steps_per_window(tau, traj.step, "tau") + 1
    else:
        delta = tau / (pts - 1)
        steps_per_window(delta, traj.step, "segment grid spacing")
    grid = np.linspace(-tau, 0.0, pts)

    if traj.kind is SegmentKind.CONTINUOUS_LINEAR:
        vals = np.stack([_path_value(traj, t + th) for th in grid])
        return Segment(SegmentKind.CONTINUOUS_LINEAR, grid, vals)

    # jump class: include the recorded nodes (epochs and carried flags) so the
    # segment is the exact window copy and jump flags survive extraction
    lo, hi = t - tau, t
    inside = (traj.times > lo + _NODE_ATOL) & (traj.times < hi - _NODE_ATOL)
    extra = traj.times[inside]
    extra_flags = traj.jump_flags[inside]
    thetas = np.concatenate([grid, extra - t])
    flags = np.concatenate([np.zeros(grid.size, dtype=bool), extra_flags])
    order = np.argsort(thetas, kind="stable")
    merged_t: list[float] = []
    merged_f: list[bool] = []
    for th, fl in zip(thetas[order], flags[order]):
        if merged_t and th - merged_t[-1] <= _NODE_ATOL:
            merged_f[-1] = merged_f[-1] or bool(fl)
        else:
            merged_t.append(float(th))
            merged_f.append(bool(fl))
    merged_t[0], merged_t[-1] = -tau, 0.0
    if traj.jump_flags.any() and not left:
        if np.any(np.abs(traj.times[traj.jump_flags] - t) < _NODE_ATOL):
            merged_f[-1] = True
    vals = np.stack([
        _path_value(traj, t + th, left=left and th == 0.0) for th in merged_t
    ])
    return Segment(SegmentKind.CADLAG_STEP, np.array(merged_t), vals,
                   np.array(merged_f, dtype=bool))


def extract_segment(traj: Trajectory, t: float, cfg: SimConfig | None = None) -> Segment:
    """The segment ``X_t`` on ``[-tau, 0]`` read off the trajectory."""
    return _extract(traj, t, cfg, left=False)


def extract_segment_left(traj: Trajectory, t: float, cfg: SimConfig | None = None) -> Segment:
    """Left-limit variant: the newest point is the pre-jump value at ``t``."""
    return _extract(traj, t, cfg, left=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path):
    """Write ``t,v1,...,vn,is_jump`` rows including the initial window."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"v{i + 1}" for i in range(traj.dim)] + ["is_jump"])
        for t, row, flag in zip(traj.times, traj.states, traj.jump_flags):
            w.writerow([f"{t:.17g}"] + [f"{x:.17g}" for x in row] + [int(flag)])
