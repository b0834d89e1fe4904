"""Per-path simulation engine.

Euler-Maruyama stepping for the three model classes, on a uniform grid of
step ``h`` that exactly subdivides ``tau``.  Neutral models evolve the
transformed state ``Y = X - G(X_t)`` and recover the newest point of ``X``
by a contraction fixed-point iteration.

A jump path lives on one node table: the uniform grid with the initial
segment's jumps and the Poisson epochs merged in by :func:`_insert_nodes`,
so jumps land at their exact times.  Every read of a jump path (delayed
drift reads, observer windows, extracted segments) finds its node by one
rule, :func:`_node_index`: the last node at or before the time (strictly
before, for a left limit), a node within ``_NODE_ATOL`` counting as at it.
Coefficient maps read jump paths through one view, :class:`_CadlagView`,
which finds the reads at the model's fixed delay offsets up front.

Randomness comes exclusively from a :class:`~sdelab.noise.NoiseStream`, so a
trajectory is a pure function of ``(model, initial segment, config,
master_seed, path_index)`` and coupled runs consume identical noise by
sharing the stream.  Paths that leave the divergence guard are truncated and
flagged, never raised.

The continuous classes advance by one Euler step, :func:`_euler_step`,
which calls the model's own coefficient maps on a segment view with a rows
axis.  This per-path engine steps one path's history with it and the batch
kernel in :mod:`sdelab.ensemble` steps a block of rows, so both routes run
the same arithmetic, along with the same guard predicate and neutral
newest-point solver.  A jump path advances node by node with
:func:`_jump_step`; the jump kernel takes the grid steps of a block of
paths together with the same arithmetic, one view head per row, and
finishes a path's steps that hold epochs with :func:`_jump_step` itself on
a single head.  The per-path route serves hand-rolled models, whose
coefficient maps read one path.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FixedPointError
from .models import ModelClass, ModelSpec, delay_atoms
from .noise import NoiseStream
from .paths import Segment, SegmentKind, evaluate_many

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
    ``threads`` selects nothing (every runner works in one thread); it is
    checked and recorded in run manifests, so configs that set it still run.
    ``segment_grid_points`` is for :func:`extract_segment` (and its left
    variant) only; no CLI task reads it, so experiment files cannot set it.
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
    """Segment protocol over a uniform-grid history (continuous kinds).

    ``states`` is one path's history ``(T, n)`` or a block of rows
    ``(rows, T, n)``; every read indexes the time axis ``states[..., i, :]``,
    so it returns ``(n,)`` for one path and ``(rows, n)`` for a block.
    """

    __slots__ = ("states", "head", "h", "tau", "hist_steps")

    def __init__(self, states, h, tau, hist_steps):
        self.states = states
        self.h = h
        self.tau = tau
        self.hist_steps = hist_steps
        self.head = hist_steps

    def zero(self):
        return self.states[..., self.head, :]

    def eval(self, theta):
        if theta == 0.0:
            return self.states[..., self.head, :]
        back = -theta / self.h
        r = round(back)
        if abs(back - r) < 1e-9 * max(1.0, back):
            return self.states[..., self.head - int(r), :]
        i = int(math.floor(back))
        w = back - i
        lo = self.states[..., self.head - i - 1, :]
        hi = self.states[..., self.head - i, :]
        return w * lo + (1.0 - w) * hi

    def sup_norm(self):
        win = self.states[..., self.head - self.hist_steps:self.head + 1, :]
        if win.shape[-1] == 1:
            return np.abs(win).max(axis=(-2, -1))
        return np.sqrt((win ** 2).sum(axis=-1)).max(axis=-1)


def _node_index(times, t, left=False):
    """The last node of ``times`` at or before ``t`` (strictly before it for
    the left limit); a node within ``_NODE_ATOL`` of ``t`` counts as at ``t``.

    ``t`` may be a scalar or an array.  Times before the first node read the
    first node.
    """
    if left:
        i = np.searchsorted(times, t - _NODE_ATOL, side="left")
    else:
        i = np.searchsorted(times, t + _NODE_ATOL, side="right")
    return np.maximum(i - 1, 0)


class _CadlagView:
    """Segment protocol over jump paths' node tables laid end to end.

    Row r holds the flat nodes ``first[r]`` up to ``first[r + 1]``, from the
    list ``first``.  ``head`` is one flat node, whose reads return ``(n,)``,
    or one node per row, whose reads return ``(rows, n)``.  A read at offset
    theta takes the :func:`_node_index` node of the head's time plus theta
    in the head's row, capped at the head: for each fixed offset of
    ``thetas`` (the model's delay atoms) and for ``-tau`` (the start of the
    window) found once per node here, for any other offset at read time.
    """

    __slots__ = ("states", "times", "first", "tau", "reads", "head")

    def __init__(self, states, times, first, tau, thetas):
        self.states = states
        self.times = times
        self.first = first
        self.tau = tau
        self.head = 0
        self.reads = {}
        for theta in (*thetas, -tau):
            if theta != 0.0 and theta not in self.reads:
                # int32 halves the table; 2**31 nodes would take 32 GiB of times and states
                read = self.reads[theta] = np.empty(times.size, np.int32)
                for a, b in zip(first[:-1], first[1:]):
                    read[a:b] = np.minimum(self._search(a, b, times[a:b] + theta), np.arange(a, b))

    def _search(self, a, b, t):
        """The flat :func:`_node_index` node(s) of time(s) t in row a:b, uncapped."""
        return a + _node_index(self.times[a:b], t)

    def _read(self, j, theta):
        """The flat node read at offset theta from the single head j."""
        r = bisect.bisect_right(self.first, j)
        return min(self._search(self.first[r - 1], self.first[r], self.times[j] + theta), j)

    def zero(self):
        return self.states[self.head]

    def eval(self, theta):
        if theta == 0.0:
            return self.states[self.head]
        read = self.reads.get(theta)
        if read is not None:
            return self.states[read[self.head]]
        if np.ndim(self.head) == 0:
            return self.states[self._read(self.head, theta)]
        first, x = self.first, (self.times[self.head] + theta).tolist()
        i = [self._search(a, b, t) for a, b, t in zip(first, first[1:], x)]
        return self.states[np.minimum(i, self.head)]

    def sup_norm(self):
        """Sup of the window ending at a single head (hand-rolled models)."""
        win = self.states[self.reads[-self.tau][self.head]:self.head + 1]
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


def _solve_newest(newest, y, g_of, cfg: SimConfig, t: float) -> int:
    """Solve ``x = y + G(x)`` for the newest point of each row of paths.

    ``newest`` (rows x n, or n for one path) holds the starting iterate and
    receives the solution in place; ``g_of()`` evaluates G on every row with
    the current newest points.  Every row is a live path: each takes
    iterates until one moved by at most ``cfg.fixed_point_tol`` and keeps
    that iterate.  A row whose residual turns NaN (its iterate left the
    floats) stops too, keeping a non-finite iterate for the guard to flag.
    Returns the number of sweeps; raises :class:`FixedPointError` after
    ``cfg.fixed_point_max_iter`` sweeps with a row still moving.
    """
    moving = np.ones(newest.shape[:-1] + (1,), dtype=bool)
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


def _euler_step(model, view, y, dw, t, h, cfg: SimConfig):
    """One Euler-Maruyama step from ``t`` for every row of ``view``.

    The model's drift and diffusion are called on the view at its head; the
    new point is written at ``head + 1`` and the head moves there.  ``dw``
    holds each row's Brownian increments, already scaled by ``sqrt(h)``.
    A neutral model (``y`` not None) adds the increment to its transformed
    state ``y`` in place and recovers the new point with
    :func:`_solve_newest`.  Callers step live paths only: a path leaves the
    view at its first step out of the guard.  Returns the drift and the
    number of fixed-point sweeps (0 for the retarded class).
    """
    head = view.head
    b = model.drift(t, view)
    incr = b * h + (model.diffusion(t, view) @ dw[..., None])[..., 0]
    states = view.states
    view.head = head + 1
    if y is None:
        states[..., head + 1, :] = states[..., head, :] + incr
        return b, 0
    y += incr
    newest = states[..., head + 1, :]
    newest[...] = states[..., head, :]
    return b, _solve_newest(newest, y, lambda: model.neutral_map(view), cfg, t + h)


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
    # blocks of 64, 128, 256, ... gaps until one crosses the horizon; np.cumsum
    # adds the gaps one at a time, as a sequential ``t += g`` does
    epochs = np.empty(0)
    start, size = 0, 64
    while epochs.size == start:
        gaps = -np.log(stream.epoch_uniforms(start, size)) / intensity
        ts = np.cumsum(np.concatenate(([epochs[-1] if start else 0.0], gaps)))[1:]
        epochs = np.concatenate([epochs, ts[ts <= horizon]])
        start += size
        size *= 2
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
    if model.model_class is ModelClass.JUMP:
        return _simulate_jump(model, xi, cfg, stream)
    return _simulate_continuous(model, xi, cfg, stream)


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
    return evaluate_many(xi, np.linspace(-tau, 0.0, k_hist + 1))[0]


def _simulate_continuous(model, xi, cfg, stream) -> Trajectory:
    h = cfg.step
    tau = model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    n = model.dim
    if model.diffusion is None:
        raise DomainError("continuous classes need a diffusion map")

    states = np.empty((k_hist + n_steps + 1, n))
    states[:k_hist + 1] = _history_on_grid(xi, k_hist, tau)
    dint = np.zeros((k_hist + n_steps + 1, n))
    dw = stream.gaussian_block(0, n_steps, model.brownian_dim) * math.sqrt(h)
    view = _UniformSegView(states, h, tau, k_hist)
    neutral = model.model_class is ModelClass.NEUTRAL
    y = view.zero() - model.neutral_map(view) if neutral else None
    guard = cfg.divergence_guard

    max_iters = 0
    end = k_hist + n_steps
    diverged = False
    diverged_at = None
    for k in range(n_steps):
        head = k_hist + k
        b, it = _euler_step(model, view, y, dw[k], k * h, h, cfg)
        dint[head + 1] = dint[head] + b * h
        if it > max_iters:
            max_iters = it
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


def _insert_nodes(base, extra):
    """Merge the sorted times ``extra`` into the sorted nodes ``base``.

    An extra time within ``_NODE_ATOL`` of a node of ``base`` lands on that
    node (the node at or after it is tried first, then the one before); any
    other extra time becomes a new node.  Returns the merged times and the
    node index of each extra time.
    """
    extra = np.asarray(extra, dtype=float)
    i = np.searchsorted(base, extra)
    on_right = i < base.size
    on_right[on_right] = np.abs(base[i[on_right]] - extra[on_right]) < _NODE_ATOL
    on_left = ~on_right & (i > 0)
    on_left[on_left] = np.abs(base[i[on_left] - 1] - extra[on_left]) < _NODE_ATOL
    new = ~(on_right | on_left)
    # every node moves up by the number of new nodes inserted before it
    node = i - on_left + np.cumsum(new) - new
    return np.insert(base, i[new], extra[new]), node


def _jump_nodes(xi: Segment, tau: float, h: float, k_hist: int, n_steps: int, epochs):
    """Node times and jump flags of a jump path, the node of time 0 and the
    node of each epoch: the window grid takes the interior jumps of ``xi``,
    the forward grid the epochs."""
    hist_jumps = xi.grid[xi.jump_flags]
    hist_jumps = hist_jumps[(hist_jumps > -tau) & (hist_jumps < 0.0)]
    hist, hist_node = _insert_nodes(np.linspace(-tau, 0.0, k_hist + 1), hist_jumps)
    fwd, epoch_node = _insert_nodes(h * np.arange(1, n_steps + 1), epochs)
    times = np.concatenate([hist, fwd])
    epoch_node += hist.size
    flags = np.zeros(times.size, dtype=bool)
    flags[hist_node] = True
    flags[epoch_node] = True
    return times, flags, hist.size - 1, epoch_node


def _node_marks(epoch_node, marks):
    """The mark of each epoch node, by node; of two epochs on one node the
    later mark wins."""
    return dict(zip(epoch_node.tolist(), marks.tolist()))


def _jump_at(model, view, i, times, node_mark):
    """Add the jump at epoch node ``i``, whose state holds the left limit."""
    view.head = i
    view.states[i] = view.states[i] + model.jump_coeff(float(times[i]), view,
                                                       float(node_mark[i]))


def _jump_step(model, view, i, times, flags, node_mark):
    """One step of a jump path from node ``i`` to node ``i + 1``: the
    compensated drift over the gap, then the jump if node ``i + 1`` is an
    epoch (forward nodes are flagged only at epochs).  Writes the new point
    into ``view.states`` and returns the drift's increment ``b * dt``."""
    states = view.states
    view.head = i
    t = float(times[i])
    dt = float(times[i + 1] - times[i])
    b = model.drift(t, view)
    states[i + 1] = states[i] + (b - model.jump_compensator(t, view)) * dt
    if flags[i + 1]:
        _jump_at(model, view, i + 1, times, node_mark)
    return b * dt


def _simulate_jump(model, xi, cfg, stream) -> Trajectory:
    h = cfg.step
    tau = model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    n = model.dim

    epochs, marks = sample_poisson_measure(model.intensity, model.mark_law,
                                           cfg.horizon, stream)
    times, flags, i_zero, epoch_node = _jump_nodes(xi, tau, h, k_hist, n_steps, epochs)
    n_nodes = times.size
    node_mark = _node_marks(epoch_node, marks)

    states = np.empty((n_nodes, n))
    states[:i_zero + 1] = evaluate_many(xi, times[:i_zero + 1])[0]
    dint = np.zeros((n_nodes, n))

    view = _CadlagView(states, times, [0, n_nodes], tau, delay_atoms(model.delay))
    guard = cfg.divergence_guard

    end = n_nodes - 1
    diverged = False
    diverged_at = None
    for i in range(i_zero, n_nodes - 1):
        dint[i + 1] = dint[i] + _jump_step(model, view, i, times, flags, node_mark)
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

def _path_value(traj: Trajectory, t: float) -> np.ndarray:
    times = traj.times
    if t < times[0] - _NODE_ATOL or t > times[-1] + _NODE_ATOL:
        raise DomainError(f"time {t!r} outside the simulated range")
    t = min(max(t, float(times[0])), float(times[-1]))
    if traj.kind is SegmentKind.CADLAG_STEP:
        return traj.states[_node_index(times, t)]
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

    # jump class: the nodes strictly inside the window (epochs and carried
    # flags) are merged into the grid, so the segment is the exact window
    # copy and jump flags survive extraction
    times = traj.times
    before_t = _node_index(times, t, left=True)
    inner = slice(_node_index(times, t - tau) + 1, before_t + 1)
    thetas, node = _insert_nodes(grid, times[inner] - t)
    flags = np.zeros(thetas.size, dtype=bool)
    flags[node[traj.jump_flags[inner]]] = True
    if not left:
        # the two lookups differ exactly when a node sits at t
        at_t = _node_index(times, t)
        flags[-1] = at_t != before_t and traj.jump_flags[at_t]
    idx = _node_index(times, t + thetas)
    if left:
        idx[-1] = before_t
    return Segment(SegmentKind.CADLAG_STEP, thetas, traj.states[idx], flags)


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
