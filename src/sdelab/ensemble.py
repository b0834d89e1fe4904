"""Ensemble runners behind the rate and ergodicity estimators.

Two routes produce the same per-path numbers:

* a vectorized kernel that steps all paths of an ensemble simultaneously on a
  rolling window buffer -- available for the built-in linear families of the
  continuous classes, where the coefficient reads reduce to array gathers;
* a generic fallback that simulates paths one by one through
  :func:`sdelab.engine.simulate` -- used for hand-rolled coefficients and for
  the jump class (whose exact-epoch grids differ per path).  It runs them on
  ``cfg.threads`` threads.

Because every path's noise is addressed by ``(master_seed, path_index, step,
channel)``, the two routes consume identical randomness, and for the
one-dimensional built-ins they produce bitwise-identical states (the batch
arithmetic mirrors the per-path expressions operation for operation).  Both
routes step by one contract from :mod:`sdelab.engine`: one guard predicate,
one newest-point solver for the neutral class, and one divergence rule --
a path (or coupled pair) is diverged from its first step out of the guard,
and observers never see it at or after that step.  The batch kernel writes
NaN into the rows of diverged paths; the per-path route stops feeding them.
:func:`refuse_divergence` is the one rule by which estimators refuse an
ensemble in which more than 1% of the paths diverged.

Estimators talk to the runners through observers: an observer is notified
with the trailing ``tau``-window of the state after every step and reduces it
immediately (record at chosen steps, accumulate time averages), so long
horizons never materialize full ensembles in memory.  Coupled runs pass two
windows, one per initial segment.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DivergenceError, DomainError
from .models import (
    LinearRetardedDescriptor,
    ModelClass,
    NeutralLinearDescriptor,
    PointConstant,
    PointVariable,
)
from .engine import SimConfig, _out_of_guard, _solve_newest, simulate, steps_per_window
from .noise import NoiseStream
from .paths import Segment, evaluate

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


class WindowRecorder:
    """Record window reductions at chosen step indices.

    ``fns`` maps a name to a callable taking the trailing window (shape
    ``(..., W, n)``, or two such windows for coupled runs) and returning a
    scalar per path.  Entries at and after a path's first diverged step are
    NaN on both routes.
    """

    def __init__(self, record_steps, fns, n_paths):
        self.record_steps = np.asarray(sorted(record_steps), dtype=int)
        self._col = {int(s): i for i, s in enumerate(self.record_steps)}
        self.fns = dict(fns)
        self.out = {name: np.full((n_paths, self.record_steps.size), np.nan)
                    for name in self.fns}

    def see_batch(self, step, *wins):
        col = self._col.get(step)
        if col is None:
            return
        for name, fn in self.fns.items():
            self.out[name][:, col] = fn(*wins)

    def see_path(self, path, step, *wins):
        col = self._col.get(step)
        if col is None:
            return
        for name, fn in self.fns.items():
            self.out[name][path, col] = fn(*wins)


class IntegralAccumulator:
    """Accumulate a strided time average of one window reduction.

    Sums are kept per path and per contiguous time block (``n_blocks`` blocks
    of the strided record sequence), which is enough to batch-mean either
    over ensemble members or over time afterwards without storing series.
    """

    def __init__(self, burn_steps, stride, fn, n_paths, n_records, n_blocks=16):
        self.burn_steps = int(burn_steps)
        self.stride = max(1, int(stride))
        self.fn = fn
        n_blocks = max(1, min(int(n_blocks), max(1, int(n_records))))
        self.block_len = max(1, -(-int(n_records) // n_blocks))
        self.n_blocks = n_blocks
        self.block_sums = np.zeros((n_paths, n_blocks))
        self.block_counts = np.zeros((n_paths, n_blocks), dtype=int)
        self.max_abs = np.zeros(n_paths)

    def _record_index(self, step):
        if step <= self.burn_steps or (step - self.burn_steps) % self.stride:
            return None
        return (step - self.burn_steps) // self.stride - 1

    def _block(self, rec):
        return min(rec // self.block_len, self.n_blocks - 1)

    def see_batch(self, step, *wins):
        rec = self._record_index(step)
        if rec is None:
            return
        v = self.fn(*wins)
        blk = self._block(rec)
        self.block_sums[:, blk] += v
        self.block_counts[:, blk] += 1
        np.maximum(self.max_abs, np.abs(v), out=self.max_abs)

    def see_path(self, path, step, *wins):
        rec = self._record_index(step)
        if rec is None:
            return
        v = float(self.fn(*wins))
        blk = self._block(rec)
        self.block_sums[path, blk] += v
        self.block_counts[path, blk] += 1
        self.max_abs[path] = max(self.max_abs[path], abs(v))

    @property
    def sums(self):
        return self.block_sums.sum(axis=1)

    @property
    def counts(self):
        return self.block_counts.sum(axis=1)


class EnsembleOutcome:
    """Bookkeeping shared by both engines: who diverged, and when."""

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
    return isinstance(model.descriptor, (LinearRetardedDescriptor, NeutralLinearDescriptor))


def run_ensemble(model, xi, cfg: SimConfig, n_paths: int, observer,
                 path_offset: int = 0, eta: Segment | None = None) -> EnsembleOutcome:
    """Run ``n_paths`` paths (or coupled pairs when ``eta`` is given),
    feeding every post-step window to ``observer``."""
    if n_paths < 1:
        raise DomainError("need at least one path")
    if supports_batch(model):
        return _run_batch(model, xi, cfg, n_paths, observer, path_offset, eta)
    return _run_generic(model, xi, cfg, n_paths, observer, path_offset, eta)


# ---------------------------------------------------------------------------
# batch kernel (continuous built-ins)
# ---------------------------------------------------------------------------

def _read_back(buf, head, back):
    """Gather the value ``back`` steps behind ``head`` (fractional allowed).

    Mirrors the per-path segment view's interpolation expression exactly.
    """
    r = round(back)
    if abs(back - r) < 1e-9 * max(1.0, back):
        return buf[:, head - int(r)]
    i = int(math.floor(back))
    w = back - i
    lo = buf[:, head - i - 1]
    hi = buf[:, head - i]
    return w * lo + (1.0 - w) * hi


def _delayed_batch(buf, head, delay, t, h, tau):
    if isinstance(delay, PointConstant):
        return _read_back(buf, head, delay.lag / h)
    if isinstance(delay, PointVariable):
        d = float(delay.delta(t))
        if d < -1e-12 or d > tau + 1e-12:
            raise DomainError(f"variable delay {d!r} outside [0, tau] at t={t!r}")
        return _read_back(buf, head, min(max(d, 0.0), tau) / h)
    acc = delay.weights[0] * _read_back(buf, head, -delay.atoms[0] / h)
    for a, w in zip(delay.atoms[1:], delay.weights[1:]):
        acc = acc + w * _read_back(buf, head, -a / h)
    return acc


def _run_batch(model, xi, cfg, n_paths, observer, path_offset, eta):
    desc = model.descriptor
    neutral = isinstance(desc, NeutralLinearDescriptor)
    h = cfg.step
    tau = model.tau
    n = model.dim
    m = model.brownian_dim
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")

    chunk = max(1, min(_CHUNK_STEPS, _CHUNK_PATH_STEPS // n_paths))
    cap = k_hist + 1 + chunk
    grid = np.linspace(-tau, 0.0, k_hist + 1)

    def init_buf(seg):
        buf = np.empty((n_paths, cap, n))
        hist = np.stack([evaluate(seg, th) for th in grid])
        buf[:, :k_hist + 1] = hist[None, :, :]
        return buf

    bufs = [init_buf(seg) for seg in ([xi] if eta is None else [xi, eta])]
    head = k_hist

    sig = desc.sigma0
    a_coef, b_coef, delay = desc.a, desc.b_lag, desc.delay
    kappa = desc.kappa if neutral else 0.0
    guard = cfg.divergence_guard

    outcome = EnsembleOutcome(n_paths)
    diverged = outcome.diverged

    def wins():
        return [buf[:, head - k_hist:head + 1] for buf in bufs]

    if neutral:
        ys = [buf[:, head] - kappa * _delayed_batch(buf, head, delay, 0.0, h, tau)
              for buf in bufs]

    observer.see_batch(0, *wins())

    streams = [NoiseStream(cfg.master_seed, path_offset + p) for p in range(n_paths)]

    for k0 in range(0, n_steps, chunk):
        span = min(chunk, n_steps - k0)
        if m > 0:
            dw = np.empty((n_paths, span, m))
            for p, st in enumerate(streams):
                dw[p] = st.gaussian_block(k0, span, m)
            dw *= math.sqrt(h)
        for j in range(span):
            k = k0 + j
            if head + 1 >= cap:
                shift = head - k_hist
                for buf in bufs:
                    buf[:, :k_hist + 1] = buf[:, shift:head + 1]
                head = k_hist
            t = k * h

            for i, buf in enumerate(bufs):
                b = -a_coef * buf[:, head] + b_coef * _delayed_batch(buf, head, delay, t, h, tau)
                incr = b * h + dw[:, j] @ sig.T if m > 0 else b * h
                if neutral:
                    ys[i] = ys[i] + incr
                    buf[:, head + 1] = buf[:, head]
                    it = _solve_newest(
                        buf[:, head + 1], ys[i],
                        lambda: kappa * _delayed_batch(buf, head + 1, delay, 0.0, h, tau),
                        diverged, cfg, t + h)
                    outcome.max_fixed_point_iters = max(outcome.max_fixed_point_iters, it)
                else:
                    buf[:, head + 1] = buf[:, head] + incr

            bad = _out_of_guard(bufs[0][:, head + 1], guard)
            for buf in bufs[1:]:
                bad |= _out_of_guard(buf[:, head + 1], guard)
            new_bad = bad & ~diverged
            if new_bad.any():
                outcome.first_bad_time[new_bad] = (k + 1) * h
                diverged |= new_bad
            if diverged.any():
                for buf in bufs:
                    buf[diverged, head + 1] = np.nan

            head += 1
            observer.see_batch(k + 1, *wins())

    return outcome


# ---------------------------------------------------------------------------
# generic per-path fallback
# ---------------------------------------------------------------------------

def _cadlag_window(traj, t, tau):
    times = traj.times
    i1 = int(np.searchsorted(times, t + 1e-12, side="right")) - 1
    i0 = int(np.searchsorted(times, t - tau + 1e-12, side="right")) - 1
    return traj.states[max(i0, 0):i1 + 1]


def _run_generic(model, xi, cfg, n_paths, observer, path_offset, eta):
    outcome = EnsembleOutcome(n_paths)
    h = cfg.step
    tau = model.tau
    k_hist = steps_per_window(tau, h, "tau")
    n_steps = steps_per_window(cfg.horizon, h, "horizon")
    starts = [xi] if eta is None else [xi, eta]
    fp_iters = np.zeros(n_paths, dtype=int)

    if model.model_class is ModelClass.JUMP:
        def window(traj, k):
            return _cadlag_window(traj, k * h, tau)
    else:
        def window(traj, k):
            return traj.states[k:k + k_hist + 1]

    def work(p):
        stream = NoiseStream(cfg.master_seed, path_offset + p)
        trajs = [simulate(model, seg, cfg, stream) for seg in starts]
        bads = [traj.diverged_at for traj in trajs if traj.diverged]
        if bads:
            outcome.diverged[p] = True
            outcome.first_bad_time[p] = min(bads)
        fp_iters[p] = max(traj.max_fixed_point_iters for traj in trajs)
        # observers never see a path at or after its first bad step
        stop = min(bads, default=math.inf) - 1e-12
        for k in range(n_steps + 1):
            if k * h >= stop:
                break
            observer.see_path(p, k, *[window(traj, k) for traj in trajs])

    threads = max(1, cfg.threads)
    if threads == 1 or n_paths == 1:
        for p in range(n_paths):
            work(p)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, range(n_paths)))
    outcome.max_fixed_point_iters = int(fp_iters.max(initial=0))
    return outcome
