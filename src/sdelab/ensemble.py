"""Ensemble kernels behind the rate and ergodicity estimators.

:func:`run_ensemble` checks the initial segments (window, dimension, kind)
once, as :func:`~sdelab.engine.simulate` does, and runs a model on the
kernel of its class: the continuous kernel (retarded and neutral classes)
steps on rolling window buffers; the jump kernel keeps one head per path
on its node table, steps every head one grid node at a time, and finishes
alone only the steps of a path that hold one of its epochs.
:func:`supports_batch` decides only how a kernel calls the coefficient
maps: a built-in family's maps read a block of rows, so its paths step
together; a hand-rolled model's maps read one path, so the continuous
kernel runs one path at a time and the jump kernel steps each row alone.
``cfg.threads`` selects nothing here.

Every path's noise is addressed by ``(master_seed, path_index, step,
channel)``, and the kernels advance every path by the steps
:func:`~sdelab.engine.simulate` takes (:func:`~sdelab.engine._euler_step`,
and :func:`~sdelab.engine._jump_step` through the one
:class:`~sdelab.engine._CadlagView` for the jump class), with its guard
predicate and neutral newest-point solver, so they reproduce its paths
bitwise.  One divergence rule holds: a path (or coupled pair) is diverged
from its first step out of the guard, and no kernel shows it to an
observer at or after that step.  :func:`refuse_divergence` is the one rule
by which estimators refuse an ensemble in which more than 1% of the paths
diverged.

Estimators talk to the kernels through observers: an observer is notified
with the trailing ``tau``-window of the state after every step and reduces it
immediately (record at chosen steps, accumulate time averages), so long
horizons never materialize full ensembles in memory.  Observers have one
entry point, ``see_path(paths, step, *wins)``, called once per step and
block: ``paths`` is one path (an int) with ``(W, n)`` windows, or a block
of live paths (a slice or an index array) with ``(rows, W, n)`` windows.
Coupled runs pass two windows, one per initial segment.  Jump windows
differ in length from path to path, so the jump kernel left-pads each to
the block's widest by repeating its oldest node, which leaves sup and
newest-point reductions unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError
from .models import (
    JumpLinearDescriptor,
    LinearRetardedDescriptor,
    ModelClass,
    NeutralLinearDescriptor,
    delay_atoms,
)
from .engine import (
    SimConfig,
    _CadlagView,
    _NODE_ATOL,
    _UniformSegView,
    _check_initial,
    _euler_step,
    _history_on_grid,
    _jump_at,
    _jump_nodes,
    _jump_step,
    _node_index,
    _node_marks,
    _out_of_guard,
    sample_poisson_measure,
    steps_per_window,
)
from .noise import NoiseStream
from .paths import Segment, evaluate_many

__all__ = [
    "WindowRecorder",
    "IntegralAccumulator",
    "EnsembleOutcome",
    "run_ensemble",
    "refuse_divergence",
    "supports_batch",
]

# a chunk holds at most _CHUNK_STEPS steps and _CHUNK_PATH_STEPS path-steps of
# noise, so wide ensembles take shorter chunks instead of more memory
_CHUNK_STEPS = 1024
_CHUNK_PATH_STEPS = 4096 * _CHUNK_STEPS
# an IntegralAccumulator keeps its sums in this many blocks of records
_N_BLOCKS = 16


class WindowRecorder:
    """Record window reductions at chosen step indices.

    ``fns`` maps a name to a callable taking the trailing window (shape
    ``(..., W, n)``, or two such windows for coupled runs) and returning a
    scalar per path.  A kernel calls ``see_path(paths, step, *wins)`` with
    one path (an int) and ``(W, n)`` windows, or with a block of paths (a
    slice or an index array) and ``(rows, W, n)`` windows.  Entries at and
    after a path's first diverged step stay NaN: no kernel shows them.
    """

    def __init__(self, record_steps, fns, n_paths):
        self.record_steps = np.unique(np.asarray(record_steps, dtype=int))
        self._col = {int(s): i for i, s in enumerate(self.record_steps)}
        self.fns = dict(fns)
        self.out = {name: np.full((n_paths, self.record_steps.size), np.nan)
                    for name in self.fns}

    def see_path(self, paths, step, *wins):
        col = self._col.get(step)
        if col is None:
            return
        for name, fn in self.fns.items():
            self.out[name][paths, col] = fn(*wins)


class IntegralAccumulator:
    """Accumulate a strided time average of one window reduction.

    Sums are kept per path and per contiguous time block (``_N_BLOCKS``
    blocks of the strided record sequence, or one per record if fewer),
    which is enough to batch-mean either over ensemble members or over time
    afterwards without storing series.  ``see_path`` takes ``paths`` and
    windows as :class:`WindowRecorder` does; kernels show live paths only,
    so every value shown is counted.
    """

    def __init__(self, burn_steps, stride, fn, n_paths, n_records):
        self.burn_steps = int(burn_steps)
        self.stride = max(1, int(stride))
        self.fn = fn
        n_blocks = max(1, min(_N_BLOCKS, int(n_records)))
        self.block_len = max(1, -(-int(n_records) // n_blocks))
        self.n_blocks = n_blocks
        self.block_sums = np.zeros((n_paths, n_blocks))
        self.block_counts = np.zeros((n_paths, n_blocks), dtype=int)
        self.max_abs = np.zeros(n_paths)

    def see_path(self, paths, step, *wins):
        if step <= self.burn_steps or (step - self.burn_steps) % self.stride:
            return
        v = np.asarray(self.fn(*wins))[()]  # one path's 0-d value as a fast scalar
        blk = min(((step - self.burn_steps) // self.stride - 1) // self.block_len,
                  self.n_blocks - 1)
        self.block_sums[paths, blk] += v
        self.block_counts[paths, blk] += 1
        self.max_abs[paths] = np.maximum(self.max_abs[paths], abs(v))

    @property
    def sums(self):
        return self.block_sums.sum(axis=1)

    @property
    def counts(self):
        return self.block_counts.sum(axis=1)


class EnsembleOutcome:
    """Bookkeeping of one ensemble run: who diverged, and when."""

    def __init__(self, n_paths):
        self.n_paths = n_paths
        self.diverged = np.zeros(n_paths, dtype=bool)
        self.first_bad_time = np.full(n_paths, np.nan)
        self.max_fixed_point_iters = 0

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())


def refuse_divergence(outcome: EnsembleOutcome, what: str) -> None:
    """Raise :class:`DivergenceError` if more than 1% of the paths diverged.

    Estimators drop diverged paths; past that share the survivors are too
    biased a sample to report on.
    """
    if outcome.n_diverged / outcome.n_paths > 0.01:
        raise DivergenceError(
            f"{outcome.n_diverged} of {outcome.n_paths} paths diverged "
            f"during {what}; estimates would be meaningless",
            n_diverged=outcome.n_diverged, n_total=outcome.n_paths)


def supports_batch(model) -> bool:
    """Whether the model's coefficient maps read a block of rows: true for
    the built-in families (by their descriptor).  ``run_ensemble`` then
    steps a block of paths per call of the maps; a hand-rolled model's maps
    read one path, and the kernels call them one path at a time."""
    return isinstance(model.descriptor, (LinearRetardedDescriptor, NeutralLinearDescriptor,
                                         JumpLinearDescriptor))


def run_ensemble(model, xi, cfg: SimConfig, n_paths: int, observer,
                 path_offset: int = 0, eta: Segment | None = None) -> EnsembleOutcome:
    """Run ``n_paths`` paths (or coupled pairs when ``eta`` is given),
    feeding every post-step window to ``observer``.  The initial segments
    are checked as :func:`~sdelab.engine.simulate` checks them."""
    if n_paths < 1:
        raise DomainError("need at least one path")
    starts = [xi] if eta is None else [xi, eta]
    for seg in starts:
        _check_initial(model, seg)
    outcome = EnsembleOutcome(n_paths)
    run = _run_jump if model.model_class is ModelClass.JUMP else _run_batch
    run(model, starts, cfg, observer, path_offset, outcome)
    return outcome


# ---------------------------------------------------------------------------
# continuous kernel (retarded and neutral classes)
# ---------------------------------------------------------------------------

def _run_batch(model, starts, cfg, observer, path_offset, outcome):
    if model.diffusion is None:
        raise DomainError("continuous classes need a diffusion map")
    k_hist = steps_per_window(model.tau, cfg.step, "tau")
    hist = [_history_on_grid(seg, k_hist, model.tau) for seg in starts]
    blocks = [np.arange(outcome.n_paths)] if supports_batch(model) else range(outcome.n_paths)
    for paths in blocks:
        _batch_block(model, cfg, k_hist, hist, paths, observer, path_offset, outcome)


def _batch_block(model, cfg, k_hist, hist, paths, observer, path_offset, outcome):
    """Step ``paths`` together from the grid histories ``hist``: an index
    array as a block of rows on ``(rows, T, n)`` buffers, an int as one path
    on ``(T, n)`` buffers, whose reads return ``(n,)`` as under
    :func:`~sdelab.engine.simulate`.  The buffers roll back to their last
    window every chunk of steps."""
    neutral = model.model_class is ModelClass.NEUTRAL
    h, m, guard = cfg.step, model.brownian_dim, cfg.divergence_guard
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    live = np.asarray(paths)  # the path of each row; 0-d for one path
    rows = paths if live.ndim == 0 else slice(0, live.size)  # live, as observers see it

    chunk = max(1, min(_CHUNK_STEPS, _CHUNK_PATH_STEPS // live.size))
    cap = k_hist + 1 + chunk
    bufs = [np.empty((*live.shape, cap, model.dim)) for _ in hist]
    for buf, x in zip(bufs, hist):
        buf[..., :k_hist + 1, :] = x
    views = [_UniformSegView(buf, h, model.tau, k_hist) for buf in bufs]
    head = k_hist

    def wins():
        return [buf[..., head - k_hist:head + 1, :] for buf in bufs]

    ys = [view.zero() - model.neutral_map(view) if neutral else None for view in views]

    observer.see_path(rows, 0, *wins())

    streams = [NoiseStream(cfg.master_seed, path_offset + p) for p in live.ravel().tolist()]

    for k0 in range(0, n_steps, chunk):
        span = min(chunk, n_steps - k0)
        # laid out step first, so that dw[j] holds step j's rows
        dw = np.empty((span, len(streams), m))
        for p, st in enumerate(streams):
            dw[:, p] = st.gaussian_block(k0, span, m)
        dw = dw.reshape(span, *live.shape, m)
        dw *= math.sqrt(h)
        for j in range(span):
            k = k0 + j
            if head + 1 >= cap:
                shift = head - k_hist
                for buf in bufs:
                    buf[..., :k_hist + 1, :] = buf[..., shift:head + 1, :]
                head = k_hist

            for view, y in zip(views, ys):
                view.head = head
                _, it = _euler_step(model, view, y, dw[j], k * h, h, cfg)
                outcome.max_fixed_point_iters = max(outcome.max_fixed_point_iters, it)

            head += 1
            bad = _out_of_guard(bufs[0][..., head, :], guard)
            for buf in bufs[1:]:
                bad |= _out_of_guard(buf[..., head, :], guard)
            if np.count_nonzero(bad):
                # a diverged path leaves the block: its rows, noise and stream
                outcome.first_bad_time[live[bad]] = (k + 1) * h
                outcome.diverged[live[bad]] = True
                keep = ~bad
                live = rows = live[keep]
                if not live.size:
                    return
                bufs = [buf[keep] for buf in bufs]
                for view, buf in zip(views, bufs):
                    view.states = buf
                ys = [None if y is None else y[keep] for y in ys]
                dw = dw[:, keep]
                streams = [st for st, ok in zip(streams, keep.tolist()) if ok]

            observer.see_path(rows, k + 1, *wins())


# ---------------------------------------------------------------------------
# jump kernel
# ---------------------------------------------------------------------------

def _run_jump(model, starts, cfg, observer, path_offset, outcome):
    h, tau = cfg.step, model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    n_paths = outcome.n_paths
    hist = None

    # a block holds whole paths, at most _CHUNK_PATH_STEPS nodes (or one path)
    block, size = [], 0
    for p in range(n_paths):
        # a coupled pair shares its stream, so both rows take the same epochs
        epochs, marks = sample_poisson_measure(
            model.intensity, model.mark_law, cfg.horizon,
            NoiseStream(cfg.master_seed, path_offset + p))
        tables = [(*_jump_nodes(seg, tau, h, k_hist, n_steps, epochs), marks) for seg in starts]
        if hist is None:  # the window nodes depend on the initial segment alone
            hist = [evaluate_many(seg, tab[0][:tab[2] + 1])[0]
                    for seg, tab in zip(starts, tables)]
        nodes = sum(tab[0].size for tab in tables)
        if block and size + nodes > _CHUNK_PATH_STEPS:
            _jump_block(model, cfg, n_steps, hist, block, p - len(block) // len(starts),
                        observer, outcome)
            block, size = [], 0
        block += tables
        size += nodes
    _jump_block(model, cfg, n_steps, hist, block, n_paths - len(block) // len(starts),
                observer, outcome)


def _jump_block(model, cfg, n_steps, hist, tables, p0, observer, outcome):
    """Run the paths ``p0, p0 + 1, ...`` of one block, one row per node
    table ``(times, flags, node of time 0, epoch nodes, marks)``, two rows
    per coupled pair.  The tables are laid end to end and the list emptied,
    so its per-row arrays are freed before the block steps.

    For a built-in model all rows step together from grid node to grid node
    with a scalar ``t``, reading through one :class:`engine._CadlagView`
    whose head ``cur`` holds each row's grid node.  A row with epoch nodes
    in a step takes its first sub-step with the block and finishes the step
    alone with :func:`engine._jump_step` on a single head, as
    :func:`engine._simulate_jump` does.  For a hand-rolled model every row
    takes every step alone, one head at a time.  Observers see the block's
    live paths one step late, once a divergence within the next step is
    known, in one call per step: a one-row block its exact window, a wider
    block every live row's window left-padded with its oldest node to the
    widest.
    """
    h, tau, guard = cfg.step, model.tau, cfg.divergence_guard
    n_starts = len(hist)
    n_rows = len(tables)
    first = np.cumsum([0] + [tab[0].size for tab in tables]).tolist()
    times = np.concatenate([tab[0] for tab in tables])
    flags = np.concatenate([tab[1] for tab in tables])
    marks = _node_marks(np.concatenate([a + tab[3] for a, tab in zip(first, tables)]),
                        np.concatenate([tab[4] for tab in tables]))
    states = np.empty((first[-1], model.dim))
    for r, (a, tab) in enumerate(zip(first, tables)):
        states[a:a + tab[2] + 1] = hist[r % n_starts]
    cur = np.add(first[:-1], [tab[2] for tab in tables])  # each row's flat grid node
    tables.clear()
    view = _CadlagView(states, times, first, tau, delay_atoms(model.delay))
    win_start = view.reads[-tau]
    # a window runs through its grid node; at t = 0 also through the forward
    # nodes in (0, _NODE_ATOL], which the node rule reads as at 0
    end_0 = np.array([a + _node_index(times[a:b], 0.0) + 1 for a, b in zip(first, first[1:])])

    # the rows with an epoch node in (k * h, (k + 1) * h], by step k: the
    # grid nodes hold h * k exactly, and an epoch merged onto one keeps it
    epoch_nodes = np.fromiter(marks, np.intp, len(marks))
    split = {}
    for k, r in np.unique([np.searchsorted(np.arange(n_steps + 1) * h, times[epoch_nodes]) - 1,
                           np.searchsorted(first, epoch_nodes, side="right") - 1],
                          axis=1).T.tolist():
        split.setdefault(k, []).append(r)

    dead = np.zeros(n_rows, dtype=bool)
    bad_time = np.full(n_rows, np.nan)
    stop = np.full(n_rows // n_starts, math.inf)  # observe a path while k * h < stop
    earliest = math.inf
    live = np.arange(n_rows // n_starts)
    paths, rows = p0 + live, np.arange(n_rows)

    def diverge(r, i):
        """Row r's first bad node is flat node i."""
        nonlocal earliest
        dead[r] = True
        bad_time[r] = times[i]
        states[i:first[r + 1]] = np.nan
        p = r // n_starts
        stop[p] = min(stop[p], bad_time[r] - _NODE_ATOL)
        earliest = min(earliest, stop[p])

    def walk(r, i, end):
        """Row r holds an unchecked state at flat node i: step it on node by
        node to its grid node at time ``end``, or to its first bad node;
        return the grid node."""
        if not dead[r]:
            while not _out_of_guard(states[i], guard):
                if times[i] == end:
                    return i
                _jump_step(model, view, i, times, flags, marks)
                i += 1
            diverge(r, i)
        while times[i] != end:
            i += 1
        return i

    def finish_row(r, k, applied):
        """Finish row r's step k, whose first sub-step the block took."""
        i = int(cur[r]) + 1
        if not dead[r]:
            # the block stepped the row by the grid spacing; redo the sub-step
            # to the row's own next node, which may be a nearer epoch
            states[i] = states[i - 1] + applied * float(times[i] - times[i - 1])
            if flags[i]:
                _jump_at(model, view, i, times, marks)
        return walk(r, i, (k + 1) * h)

    def observe(k):
        nonlocal earliest, live, paths, rows
        if k * h >= earliest:
            live = live[k * h < stop[live]]
            earliest = stop[live].min(initial=math.inf)
            paths = p0 + live
            rows = (n_starts * live[:, None] + np.arange(n_starts)).ravel()
        if not live.size:
            return
        if n_rows == 1:
            c = cur[0]
            observer.see_path(p0, k, states[win_start[c]:end_0[0] if k == 0 else c + 1])
            return
        end, start = (end_0 if k == 0 else cur + 1)[rows], win_start[cur[rows]]
        at = end[:, None] + np.arange(-int((end - start).max()), 0)
        wins = states[np.maximum(at, start[:, None])]
        observer.see_path(paths, k, *[wins[q::n_starts] for q in range(n_starts)])

    def block_step(k):
        """Step every row by the grid spacing at once; a row with an epoch
        node in the step finishes it alone.  Return the rows' grid nodes."""
        t = k * h
        view.head = cur
        applied = model.drift(t, view) - model.jump_compensator(t, view)
        new = states[cur] + applied * ((k + 1) * h - t)
        nxt = cur + 1
        states[nxt] = new
        bad = _out_of_guard(new, guard)
        split_rows = split.pop(k, None)
        if split_rows:
            bad[split_rows] = False
            nxt[split_rows] = [finish_row(r, k, applied[r]) for r in split_rows]
        for r in np.flatnonzero(bad & ~dead).tolist():
            diverge(r, cur[r] + 1)
        return nxt

    def rows_alone(k):
        """Step every row alone, node by node; return the rows' grid nodes."""
        nxt = cur + 1
        for r, i in enumerate(cur.tolist()):
            if not dead[r]:
                _jump_step(model, view, i, times, flags, marks)
            nxt[r] = walk(r, i + 1, (k + 1) * h)
        return nxt

    step = block_step if supports_batch(model) else rows_alone  # hand-rolled maps read one path
    for k in range(n_steps):
        nxt = step(k)
        observe(k)
        cur = nxt
    observe(n_steps)

    pair_bad = np.fmin.reduce(bad_time.reshape(-1, n_starts), axis=1)
    outcome.first_bad_time[p0:p0 + pair_bad.size] = pair_bad
    outcome.diverged[p0:p0 + pair_bad.size] = ~np.isnan(pair_bad)
