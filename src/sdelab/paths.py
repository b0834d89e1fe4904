"""Segment-space primitives.

A *segment* is the state of a delay equation: the restriction of a path to
the window ``[-tau, 0]``, with 0 the current instant.  Two interpolation
disciplines are supported, matching the two path spaces the theory runs in:

* ``ContinuousLinear`` -- continuous piecewise-linear values (retarded and
  neutral classes);
* ``CadlagStep`` -- right-continuous step values with left limits (jump
  class), with an explicit flag array marking genuine jump times.

The module also provides time changes of the window (increasing piecewise
linear homeomorphisms fixing both endpoints), the uniform and Skorohod-style
metrics on segments, and the exact modulus of continuity of one segment.
All values are vectors in R^n; norms are Euclidean.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "SegmentKind",
    "Segment",
    "TimeChange",
    "SearchParams",
    "DistanceBracket",
    "evaluate",
    "evaluate_left",
    "sup_norm",
    "uniform_distance",
    "modulus_of_continuity",
    "homeomorphism_norm",
    "identity_time_change",
    "skorohod_distance",
    "segment_to_csv",
    "segment_from_csv",
]

_ENDPOINT_ATOL = 1e-12


class SegmentKind(Enum):
    CONTINUOUS_LINEAR = "continuous-linear"
    CADLAG_STEP = "cadlag-step"


def _as_value_array(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2:
        raise DomainError("segment values must have shape (k,) or (k, n)")
    return vals


@dataclass(frozen=True)
class Segment:
    """A path restricted to ``[-tau, 0]``, sampled on a strictly increasing grid.

    ``grid[0] == -tau`` and ``grid[-1] == 0``; ``values[i]`` is the value at
    ``grid[i]`` (for the step kind, the right-continuous value).  ``jump_flags``
    marks grid points that are genuine jumps of the underlying path; it is
    only meaningful for the step kind and defaults to all-False.
    """

    kind: SegmentKind
    grid: np.ndarray
    values: np.ndarray
    jump_flags: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = _as_value_array(self.values)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("segment grid needs at least the two endpoints")
        if values.shape[0] != grid.size:
            raise DomainError("grid and values lengths differ")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("segment grid must be strictly increasing")
        if abs(grid[-1]) > _ENDPOINT_ATOL:
            raise DomainError(f"segment grid must end at 0, got {grid[-1]!r}")
        if grid[0] >= 0:
            raise DomainError("segment grid must start at -tau < 0")
        if not np.all(np.isfinite(values)):
            raise DomainError("segment values must be finite")
        grid = grid.copy()
        grid[-1] = 0.0
        flags = self.jump_flags
        if flags is None:
            flags = np.zeros(grid.size, dtype=bool)
        else:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != grid.shape:
                raise DomainError("jump_flags must match grid length")
            if self.kind is SegmentKind.CONTINUOUS_LINEAR and flags.any():
                raise DomainError("continuous segments cannot carry jump flags")
        for arr in (grid, values, flags):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jump_flags", flags)

    # -- structure -----------------------------------------------------------

    @property
    def tau(self) -> float:
        return -float(self.grid[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def constant(value, tau: float, kind: SegmentKind = SegmentKind.CONTINUOUS_LINEAR) -> "Segment":
        if tau <= 0:
            raise DomainError("tau must be positive")
        vals = np.atleast_1d(np.asarray(value, dtype=float))
        return Segment(kind, np.array([-tau, 0.0]), np.stack([vals, vals]))

    @staticmethod
    def from_function(fn, tau: float, n_points: int = 101,
                      kind: SegmentKind = SegmentKind.CONTINUOUS_LINEAR) -> "Segment":
        """Sample ``fn(theta)`` on a uniform grid over ``[-tau, 0]``."""
        if tau <= 0:
            raise DomainError("tau must be positive")
        if n_points < 2:
            raise DomainError("need at least 2 grid points")
        grid = np.linspace(-tau, 0.0, n_points)
        vals = np.stack([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid])
        return Segment(kind, grid, vals)

    # -- evaluation (method aliases of the module-level operations) -----------

    def eval(self, theta: float) -> np.ndarray:
        return evaluate(self, theta)

    def zero(self) -> np.ndarray:
        return self.values[-1]

    def sup_norm(self) -> float:
        return sup_norm(self)


def _locate(seg: Segment, theta: float) -> float:
    tau = seg.tau
    if not -tau - _ENDPOINT_ATOL <= theta <= _ENDPOINT_ATOL:  # NaN fails too
        raise DomainError(f"theta={theta!r} outside [-tau, 0] with tau={tau!r}")
    return min(0.0, max(float(theta), -tau))


def evaluate(seg: Segment, theta: float) -> np.ndarray:
    """Value of the segment at ``theta`` in ``[-tau, 0]``.

    Exact at grid points; between them, linear interpolation for the
    continuous kind and the previous value (right-continuity) for the step
    kind.
    """
    theta = _locate(seg, theta)
    grid = seg.grid
    i = int(np.searchsorted(grid, theta))
    if i < grid.size and grid[i] == theta:
        return seg.values[i]
    if seg.kind is SegmentKind.CADLAG_STEP:
        return seg.values[i - 1]
    g0, g1 = grid[i - 1], grid[i]
    w = (theta - g0) / (g1 - g0)
    return (1.0 - w) * seg.values[i - 1] + w * seg.values[i]


def evaluate_left(seg: Segment, theta: float) -> np.ndarray:
    """Left limit at ``theta`` (equals ``evaluate`` for continuous segments)."""
    theta = _locate(seg, theta)
    if seg.kind is SegmentKind.CONTINUOUS_LINEAR:
        return evaluate(seg, theta)
    grid = seg.grid
    i = int(np.searchsorted(grid, theta, side="left")) - 1
    if i < 0:
        return seg.values[0]
    return seg.values[i]


def evaluate_many(seg: Segment, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Right values and left limits at each theta, as two ``(m, n)`` arrays.

    Array form of ``evaluate`` and ``evaluate_left``: one ``searchsorted``
    serves both outputs, and the arithmetic is the scalar one, so row ``j``
    equals ``evaluate(seg, thetas[j])`` and ``evaluate_left(seg, thetas[j])``
    exactly.  For the continuous kind both outputs are the same array.
    Raises ``DomainError`` if any theta lies outside ``[-tau, 0]`` (or is
    NaN).
    """
    theta = np.asarray(thetas, dtype=float).ravel()
    tau = seg.tau
    outside = ~((theta >= -tau - _ENDPOINT_ATOL) & (theta <= _ENDPOINT_ATOL))
    if outside.any():
        raise DomainError(f"theta={theta[outside][0]!r} outside [-tau, 0] with tau={tau!r}")
    theta = np.minimum(0.0, np.maximum(theta, -tau))
    grid, vals = seg.grid, seg.values
    i = np.searchsorted(grid, theta)
    exact = grid[i] == theta
    if seg.kind is SegmentKind.CADLAG_STEP:
        return vals[np.where(exact, i, i - 1)], vals[np.maximum(i - 1, 0)]
    # only an exact hit can sit at i == 0; its interpolated row is discarded
    j = np.maximum(i, 1)
    g0, g1 = grid[j - 1], grid[j]
    w = ((theta - g0) / (g1 - g0))[:, None]
    right = np.where(exact[:, None], vals[i], (1.0 - w) * vals[j - 1] + w * vals[j])
    return right, right


def sup_norm(seg: Segment) -> float:
    """Uniform norm sup_theta |seg(theta)| (exact for both kinds)."""
    return float(np.sqrt((seg.values ** 2).sum(axis=1)).max())


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

def modulus_of_continuity(seg: Segment, delta: float) -> float:
    """sup of |seg(s) - seg(t)| over |s - t| <= delta.

    Exact for both kinds.  For the step kind this is a diagnostic quantity
    (a step segment is not continuous, so the modulus does not vanish with
    delta at its jumps).
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    if seg.kind is SegmentKind.CONTINUOUS_LINEAR:
        return _modulus_linear(seg, delta)
    return _modulus_step(seg, delta)


def _modulus_linear(seg: Segment, delta: float) -> float:
    grid = seg.grid
    cands = np.concatenate([grid, grid + delta, grid - delta])
    cands = np.unique(np.clip(cands, grid[0], 0.0))
    vals, _ = evaluate_many(seg, cands)
    # pairwise |f(u)-f(v)| over the band |u-v| <= delta; the optimum of a
    # piecewise-linear difference over the band polygon sits at these vertices
    tol = 1e-9 * max(delta, 1.0)
    best = 0.0
    block = 512
    for a in range(0, cands.size, block):
        ua = cands[a:a + block]
        fa = vals[a:a + block]
        dt = np.abs(ua[:, None] - cands[None, :])
        mask = dt <= delta + tol
        if not mask.any():
            continue
        dv = fa[:, None, :] - vals[None, :, :]
        dist = np.sqrt((dv ** 2).sum(axis=2))
        best = max(best, float(dist[mask].max()))
    return best


def _modulus_step(seg: Segment, delta: float) -> float:
    # interval i carries value values[i] on [grid[i], grid[i+1]) (the last is
    # the single point {0}); intervals i < j exchange values within delta iff
    # the gap grid[j] - right_end(i) is strictly below delta
    grid = seg.grid
    vals = seg.values
    k = grid.size
    rights = np.append(grid[1:], 0.0)
    best = 0.0
    for j in range(1, k):
        lo = grid[j] - delta
        i0 = int(np.searchsorted(rights[:j], lo, side="right"))
        if i0 >= j:
            continue
        dv = vals[i0:j] - vals[j]
        d = np.sqrt((dv ** 2).sum(axis=1)).max()
        if d > best:
            best = float(d)
    return best


# ---------------------------------------------------------------------------
# time changes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TimeChange:
    """Increasing piecewise-linear bijection of ``[-tau, 0]`` fixing endpoints."""

    breakpoints: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        im = np.asarray(self.images, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or im.shape != bp.shape:
            raise DomainError("breakpoints and images must be matching 1-d arrays")
        if not (np.all(np.diff(bp) > 0) and np.all(np.diff(im) > 0)):
            raise DomainError("time change must be strictly increasing")
        if abs(bp[0] - im[0]) > _ENDPOINT_ATOL or abs(bp[-1] - im[-1]) > _ENDPOINT_ATOL:
            raise DomainError("time change must fix both endpoints")
        bp = bp.copy()
        im = im.copy()
        im[0] = bp[0]
        im[-1] = bp[-1]
        for arr in (bp, im):
            arr.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "images", im)

    def __call__(self, t):
        return np.interp(t, self.breakpoints, self.images)

    def inverse(self) -> "TimeChange":
        return TimeChange(self.images, self.breakpoints)


@functools.lru_cache(maxsize=16)
def identity_time_change(tau: float) -> TimeChange:
    """The identity of ``[-tau, 0]``; one shared (immutable) instance per
    recent ``tau``."""
    return TimeChange(np.array([-tau, 0.0]), np.array([-tau, 0.0]))


def homeomorphism_norm(tc: TimeChange) -> float:
    """max over linear pieces of |log slope| (0 exactly for the identity)."""
    return float(_log_slope_norms(tc.breakpoints, tc.images))


def _log_slope_norms(breakpoints: np.ndarray, images: np.ndarray) -> np.ndarray:
    """``homeomorphism_norm`` of each warp, warps along the leading axes
    (broadcast), pieces along the last."""
    slopes = np.diff(images, axis=-1) / np.diff(breakpoints, axis=-1)
    return np.abs(np.log(slopes)).max(axis=-1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchParams:
    """Controls for the Skorohod distance search.

    ``max_match_points`` caps how many jump/kink points per segment enter the
    matching enumeration (the largest-magnitude ones are kept).  At
    ``max_match_points = m`` the search scores up to C(2m, m) candidate
    matchings (12 870 at m = 8, 184 756 at m = 10): time grows with that
    count, but the candidates are scored in row blocks of at most
    ``_WARP_BLOCK`` evaluation points, so temporary memory stays bounded
    (about 1.3 MiB at m = 8 for 41-point segments).  A positive
    ``resolution`` turns on local coordinate-descent refinement of the best
    matching's interior images on a grid of that spacing (two passes).
    ``lower_bound_levels`` is the number of warp norms r at which the lower
    bound is evaluated.  A value the search cannot honour (a negative or
    non-finite resolution, a negative or non-integer cap, fewer than one
    level) raises ``DomainError``.
    """

    resolution: float = 0.0
    max_match_points: int = 8
    lower_bound_levels: int = 24

    def __post_init__(self):
        if not (self.resolution >= 0 and math.isfinite(self.resolution)):
            raise DomainError(f"resolution must be finite and >= 0, got {self.resolution!r}")
        if not (isinstance(self.max_match_points, (int, np.integer)) and self.max_match_points >= 0):
            raise DomainError(f"max_match_points must be an integer >= 0, "
                              f"got {self.max_match_points!r}")
        if not (isinstance(self.lower_bound_levels, (int, np.integer))
                and self.lower_bound_levels >= 1):
            raise DomainError(f"lower_bound_levels must be an integer >= 1, "
                              f"got {self.lower_bound_levels!r}")


@dataclass(frozen=True, slots=True)
class DistanceBracket:
    """Bracket ``lower <= d_S <= upper <= sup-distance`` plus the best warp found."""

    lower: float
    upper: float
    sup_distance: float
    time_change: TimeChange
    n_candidates: int = 0


def _check_compatible(xi: Segment, eta: Segment):
    if abs(xi.tau - eta.tau) > 1e-9 * max(1.0, xi.tau):
        raise DomainError("segments live on different windows")
    if xi.dim != eta.dim:
        raise DomainError("segments have different dimensions")


def _clip(seg: Segment, thetas: np.ndarray) -> np.ndarray:
    """``thetas`` clipped to the segment's own window.

    Compatible segments may have windows up to ``1e-9 tau`` apart, more than
    ``evaluate_many`` forgives, so the metrics clip each segment's times.
    """
    return np.minimum(0.0, np.maximum(thetas, -seg.tau))


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis."""
    return np.sqrt((diff ** 2).sum(axis=-1))


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Row-wise ``np.interp(x[i], xp[i], fp[i])`` for x inside each row's
    ``[xp[i, 0], xp[i, -1]]``.

    The arithmetic is ``np.interp``'s: ``fp[j]`` where ``x == xp[j]``, else
    ``slope * (x - xp[j]) + fp[j]`` on the piece holding x, so every entry is
    bitwise the one ``np.interp`` gives.
    """
    j = (xp[:, None, 1:-1] <= x[:, :, None]).sum(axis=2)
    x0 = np.take_along_axis(xp, j, axis=1)
    x1 = np.take_along_axis(xp, j + 1, axis=1)
    f0 = np.take_along_axis(fp, j, axis=1)
    f1 = np.take_along_axis(fp, j + 1, axis=1)
    y = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    return np.where(x == x0, f0, np.where(x == x1, f1, y))


def _warped_distances(xi: Segment, eta: Segment, bp: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Exact sup_t |xi(t) - eta(lambda(t))| for each row's time change.

    Row i of the ``(m, k)`` arrays ``bp`` and ``im`` holds the breakpoints
    and images of one warp lambda.  Both one-sided limits are compared at
    every point where either composed function can change slope or jump,
    which is where the sup of a piecewise linear/constant difference lives.
    eta's own grid points and the images are compared where they are, not
    after a round trip through the warp and its inverse, which can land
    just below a jump of eta and miss it.
    """
    m = bp.shape[0]
    xi_grid = np.broadcast_to(xi.grid, (m, xi.grid.size))
    eta_grid = np.broadcast_to(eta.grid, (m, eta.grid.size))
    ts = np.concatenate([xi_grid, _interp_rows(eta_grid, im, bp), bp], axis=1)
    ss = np.concatenate([_interp_rows(xi_grid, bp, im), eta_grid, im], axis=1)
    xi_right, xi_left = evaluate_many(xi, _clip(xi, ts))
    eta_right, eta_left = evaluate_many(eta, _clip(eta, ss))
    gap = np.maximum(_norms(xi_right - eta_right), _norms(xi_left - eta_left))
    return gap.reshape(m, -1).max(axis=1)


def uniform_distance(xi: Segment, eta: Segment) -> float:
    """sup-norm distance, evaluated exactly on the merged grid."""
    _check_compatible(xi, eta)
    if (xi.kind is eta.kind and xi.grid.shape == eta.grid.shape
            and np.array_equal(xi.grid, eta.grid) and np.array_equal(xi.values, eta.values)):
        return 0.0
    ts = np.unique(np.concatenate([xi.grid, eta.grid]))
    xi_right, xi_left = evaluate_many(xi, _clip(xi, ts))
    eta_right, eta_left = evaluate_many(eta, _clip(eta, ts))
    return float(np.maximum(_norms(xi_right - eta_right), _norms(xi_left - eta_left)).max())


def _critical_points(seg: Segment, cap: int) -> np.ndarray:
    """Interior times where the segment jumps (step kind) or kinks (linear kind),
    ranked by magnitude and capped at ``cap``."""
    grid, vals = seg.grid, seg.values
    if grid.size <= 2:
        return np.empty(0)
    if seg.kind is SegmentKind.CADLAG_STEP:
        interior = slice(1, grid.size - 1)
        dv = np.sqrt(((vals[1:-1] - vals[0:-2]) ** 2).sum(axis=1))
        flagged = seg.jump_flags[interior]
        keep = flagged | (dv > 0)
        pts, weight = grid[interior][keep], np.where(flagged, np.inf, dv)[keep]
        weight = np.where(np.isfinite(weight), weight, dv[keep] + 1.0)
    else:
        slopes = (vals[1:] - vals[:-1]) / np.diff(grid)[:, None]
        kink = np.sqrt(((slopes[1:] - slopes[:-1]) ** 2).sum(axis=1))
        keep = kink > 1e-12 * max(1.0, float(np.abs(slopes).max()))
        pts, weight = grid[1:-1][keep], kink[keep]
    if pts.size > cap:
        order = np.argsort(weight)[::-1][:cap]
        pts = pts[np.sort(order)]
    return pts


# cap on (warps x evaluation points) per ``_warped_distances`` call: bounds
# the temporaries of a matching size with thousands of candidates
_WARP_BLOCK = 1 << 13
# coordinate-descent passes of the refinement at a positive resolution
_REFINE_PASSES = 2


def skorohod_distance(xi: Segment, eta: Segment, search: SearchParams | None = None) -> DistanceBracket:
    """Bracket the Skorohod distance between two segments.

    The upper bound is the best of ``max(homeomorphism_norm, warped sup
    distance)`` over the candidate family: the identity plus every
    order-preserving matching of the segments' jump/kink sets (optionally
    refined on a local grid).  The candidates of one matching size are
    scored together as arrays; a candidate whose warp norm alone reaches
    the best objective so far is not scored further.  Ties keep the earlier
    candidate, in the order of matching size, then the jump/kink
    combination of ``xi``, then that of ``eta``.  The lower bound combines
    the uniform distance modulo small time shifts with the fact that a warp
    of norm r displaces times by at most ``tau (e^r - 1)``.  ``lower <= d_S
    <= upper <= sup-distance`` always holds, and identical segments return
    (0, 0) exactly.
    """
    _check_compatible(xi, eta)
    if search is None:
        search = SearchParams()
    tau = max(xi.tau, eta.tau)
    sup_d = uniform_distance(xi, eta)
    if sup_d == 0.0:
        return DistanceBracket(0.0, 0.0, 0.0, identity_time_change(tau), 1)

    # candidates stay raw (breakpoints, images) arrays; only the kept one
    # becomes a TimeChange
    best_obj, best_hn, best_warp = sup_d, 0.0, None
    a_pts = _critical_points(xi, search.max_match_points)
    b_pts = _critical_points(eta, search.max_match_points)
    n_cand = 1
    for k in range(1, min(a_pts.size, b_pts.size) + 1):
        bps = _with_ends(a_pts, k, tau)
        ims = _with_ends(b_pts, k, tau)
        bps = bps[np.all(np.diff(bps, axis=1) > 0, axis=1)]
        ims = ims[np.all(np.diff(ims, axis=1) > 0, axis=1)]
        # row r of the flattened (len(bps), len(ims)) table is matching
        # (bps[r // len(ims)], ims[r % len(ims)])
        hns = _log_slope_norms(bps[:, None, :], ims[None, :, :]).ravel()
        n_cand += hns.size
        rows = np.flatnonzero(hns < best_obj)
        per_block = max(1, _WARP_BLOCK // (xi.grid.size + eta.grid.size + k + 2))
        for start in range(0, rows.size, per_block):
            r = rows[start:start + per_block]
            r = r[hns[r] < best_obj]
            if r.size == 0:
                continue
            bp, im = bps[r // len(ims)], ims[r % len(ims)]
            hn = hns[r]
            obj = np.maximum(hn, _warped_distances(xi, eta, bp, im))
            # first lexicographic minimum of (obj, hn) in the block
            first = obj == obj.min()
            i = np.flatnonzero(first & (hn == hn[first].min()))[0]
            if obj[i] < best_obj or (obj[i] == best_obj and hn[i] < best_hn):
                best_obj, best_hn, best_warp = float(obj[i]), float(hn[i]), (bp[i], im[i])

    if search.resolution > 0 and best_warp is not None:
        best_obj, best_hn, best_warp = _refine(xi, eta, best_warp, best_obj, best_hn, search)

    upper = min(best_obj, sup_d)
    lower = _lower_bound(xi, eta, tau, upper, search.lower_bound_levels)
    best_tc = identity_time_change(tau) if best_warp is None else TimeChange(*best_warp)
    return DistanceBracket(min(lower, upper), upper, sup_d, best_tc, n_cand)


def _with_ends(pts: np.ndarray, k: int, tau: float) -> np.ndarray:
    """Every k-subset of ``pts`` in order, as the rows ``[-tau, *subset, 0]``."""
    combos = np.array(list(itertools.combinations(range(pts.size), k)), dtype=int)
    rows = np.empty((combos.shape[0], k + 2))
    rows[:, 0] = -tau
    rows[:, 1:-1] = pts[combos]
    rows[:, -1] = 0.0
    return rows


def _refine(xi, eta, warp, best_obj, best_hn, search):
    bp, im = warp
    res = search.resolution
    for _ in range(_REFINE_PASSES):
        improved = False
        for i in range(1, im.size - 1):
            for step in (-res, res):
                trial = im.copy()
                trial[i] = im[i] + step
                if not (trial[i - 1] < trial[i] < trial[i + 1]):
                    continue
                hn = float(_log_slope_norms(bp, trial))
                if hn >= best_obj:
                    continue
                obj = max(hn, float(_warped_distances(xi, eta, bp[None], trial[None])[0]))
                if obj < best_obj or (obj == best_obj and hn < best_hn):
                    best_obj, best_hn, im = obj, hn, trial
                    improved = True
        if not improved:
            break
    return best_obj, best_hn, (bp, im)


# cap on (rows x table cells) and (rows x levels) per block of
# ``_lower_bound``: bounds the temporaries for long segments and many levels
# without changing any result
_WINDOW_BLOCK = 1 << 15


def _chord_dists(points: np.ndarray, eta: Segment, j: np.ndarray, lo, hi) -> np.ndarray:
    """|points - nearest point of eta's linear piece j clipped to [lo, hi]|,
    broadcast over the leading axes of ``points`` (values on the last) and of
    ``j``, ``lo`` and ``hi``.

    With ``lo = -inf`` and ``hi = inf`` the weights are exactly 0 and 1, as
    they are for a piece that lies wholly inside a finite window, so whole
    pieces measure bitwise as such a window measures them.
    """
    grid, vals = eta.grid, eta.values
    g0, g1 = grid[j], grid[j + 1]
    w0 = ((np.maximum(g0, lo) - g0) / (g1 - g0))[..., None]
    w1 = ((np.minimum(g1, hi) - g0) / (g1 - g0))[..., None]
    y0 = (1 - w0) * vals[j] + w0 * vals[j + 1]
    y1 = (1 - w1) * vals[j] + w1 * vals[j + 1]
    d = y1 - y0
    dd = (d ** 2).sum(axis=-1)
    dot = ((points - y0) * d).sum(axis=-1)
    # a degenerate chord (dd == 0) projects onto y0
    u = np.divide(dot, dd, out=np.zeros_like(dot), where=dd != 0.0)
    u = np.minimum(1.0, np.maximum(0.0, u))
    return _norms(points - (y0 + u[..., None] * d))


def _range_min(table: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """``min(table[j, first[l, j]:last[l, j] + 1])`` for every (l, j), inf
    where the range is empty.

    The nonempty ranges of one row must be nested, as the ranges of windows
    centred on one time are.  Then the largest of their starts lies in all
    of them, and each min is that of a suffix-min to its left and a
    prefix-min to its right.
    """
    rows, cells = table.shape
    nonempty = first <= last
    split = np.where(nonempty, first, 0).max(axis=0)[:, None]
    col = np.arange(cells)
    left = np.where(col <= split, table, math.inf)
    left = np.minimum.accumulate(left[:, ::-1], axis=1)[:, ::-1]
    right = np.minimum.accumulate(np.where(col >= split, table, math.inf), axis=1)
    row = np.arange(rows)
    out = np.minimum(left[row, np.minimum(first, cells - 1)], right[row, np.maximum(last, 0)])
    return np.where(nonempty, out, math.inf)


def _window_infs(points: np.ndarray, eta: Segment, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """inf over s in [lo[l, j], hi[l, j]] of |points[j] - eta(s)|, for every
    window (l, j) at once.  The windows are clipped to eta's window, and
    those of one point are nested (all centred on its time).

    Each infimum is taken over a closed, piece-aligned superset of its
    window: every whole step interval, or every linear piece clipped to the
    window, that meets the closed window.  So no entry exceeds the true
    infimum, which keeps the lower bound valid.  The distances to whole
    intervals and pieces do not depend on the window, so they are computed
    once for all windows; only the (at most two) pieces a window cuts are
    measured per window.
    """
    grid = eta.grid
    if eta.kind is SegmentKind.CADLAG_STEP:
        # interval i carries vals[i] on [grid[i], grid[i + 1]] (the last is
        # {0}); left limits at covered grid points are earlier interval
        # values, already included through the overlap test.  Only a window
        # left of eta's (windows may differ by 1e-9 tau) meets no interval;
        # it takes the first, which every wider window of its time covers
        first = np.searchsorted(grid[1:], lo)
        last = np.searchsorted(grid, hi, side="right") - 1
        empty = first > last
        if empty.any():
            nearest = np.minimum(np.searchsorted(grid, lo), grid.size - 1)
            first = np.where(empty, nearest, first)
            last = np.where(empty, nearest, last)
        return _range_min(_norms(eta.values[None, :, :] - points[:, None, :]), first, last)
    # linear kind: pieces wholly inside the window, then the piece cut at
    # each end (the same piece if the window lies inside it)
    g0, g1 = grid[:-1], grid[1:]
    whole = _chord_dists(points[:, None, :], eta, np.arange(g0.size), -math.inf, math.inf)
    first = np.searchsorted(g0, lo)
    last = np.searchsorted(g1, hi, side="right") - 1
    best = _range_min(whole, first, last)
    n = g0.size
    lo_cut, hi_cut = np.maximum(first - 1, 0), np.minimum(last + 1, n - 1)
    # a window left of eta's meets no piece, so its infimum stays inf
    for j, cut in ((lo_cut, first > 0), (hi_cut, (last + 1 < n) & (g0[hi_cut] <= hi))):
        best = np.minimum(best, np.where(cut, _chord_dists(points, eta, j, lo, hi), math.inf))
    return best


def _lower_bound(xi: Segment, eta: Segment, tau: float, upper: float, levels: int) -> float:
    """max over r of min(r, D(tau(e^r - 1))) where D(w) is the uniform
    distance modulo time shifts of size w, evaluated on a finite candidate
    set (any finite set gives a valid lower bound).

    Each level takes the max of the window infima over all candidate times.
    All levels are measured in one pass over the candidate times, so every
    distance that does not depend on the window is computed once per pair.
    A scan could stop once a level's running max reaches r, but the full
    max is then >= r too, so the level's term min(r, D) is r either way.
    """
    if upper <= 0:
        return 0.0
    mids = 0.5 * (xi.grid[:-1] + xi.grid[1:])
    ts = _clip(xi, np.unique(np.concatenate([xi.grid, eta.grid, mids])))
    # a warp of norm < r keeps lambda(t) within w of t, and the warped sup
    # dominates both the right-value and the left-limit difference at t, so
    # each window infimum is a certified floor on its own
    right, left = evaluate_many(xi, ts)
    points = np.concatenate([right, left])
    times = np.concatenate([ts, ts])
    rs = np.linspace(upper / levels, upper, levels).tolist()
    ws = np.array([tau * math.expm1(r) for r in rs])[:, None]
    rows = max(1, _WINDOW_BLOCK // max(eta.grid.size, levels))
    dmax = np.zeros(levels)
    for a in range(0, times.size, rows):
        t = times[a:a + rows]
        hi = np.minimum(t + ws, 0.0)
        lo = np.minimum(np.maximum(t - ws, -eta.tau), hi)
        dmax = np.maximum(dmax, _window_infs(points[a:a + rows], eta, lo, hi).max(axis=1))
    best = 0.0
    for r, d in zip(rs, dmax.tolist()):
        best = max(best, min(r, d))
    return best


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def segment_to_csv(seg: Segment, path):
    """Write ``theta,v1,...,vn,jump`` rows, thetas ascending."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["theta"] + [f"v{i + 1}" for i in range(seg.dim)] + ["jump"])
        for theta, row, flag in zip(seg.grid, seg.values, seg.jump_flags):
            w.writerow([f"{theta:.17g}"] + [f"{x:.17g}" for x in row] + [int(flag)])


def segment_from_csv(path, kind: SegmentKind) -> Segment:
    """Read a segment written by :func:`segment_to_csv`.  A bad header, row
    or cell raises :class:`DomainError` naming the file and the row."""
    grid, vals, flags = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["theta"] or header[-1:] != ["jump"]:
            raise DomainError(f"{path}: unexpected segment header: {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under a header of {len(header)}")
                grid.append(float(row[0]))
                vals.append([float(x) for x in row[1:-1]])
                flags.append(bool(int(row[-1])))
            except ValueError as exc:
                raise DomainError(f"{path}, row {reader.line_num}: {exc}") from None
    grid, vals, flags = np.array(grid), np.array(vals), np.array(flags, dtype=bool)
    if kind is SegmentKind.CONTINUOUS_LINEAR and flags.any():
        flags = np.zeros_like(flags)
    return Segment(kind, grid, vals, flags if kind is SegmentKind.CADLAG_STEP else None)
