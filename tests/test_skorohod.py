"""Skorohod bracket: oracle values, metric sandwich, exactness at zero, and
bitwise agreement with the per-candidate reference loop."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sdelab import (
    DomainError,
    SearchParams,
    Segment,
    SegmentKind,
    skorohod_distance,
    uniform_distance,
)
from sdelab.paths import (
    _REFINE_PASSES,
    _critical_points,
    _lower_bound,
    _norms,
    _warped_distances,
    evaluate_many,
    identity_time_change,
)

from helpers import indicator_step, random_step_segment

LOG_125 = math.log(1.25)
# tracemalloc peak of one bracket at the default search (measured: 1.3 MiB)
PEAK_MIB = 4
# tracemalloc peak of the lower bound of two 4 000-point step segments at 24
# levels (measured: 2.8 MiB; one unblocked (times x intervals) table of that
# pair would take 0.7 GiB)
LONG_PEAK_MIB = 6


def brute_force_indicator_distance(jump_a, jump_b, n=241):
    """Minimum warp objective over piecewise-linear time changes with <= 3
    pieces, for unit indicators jumping at ``jump_a`` / ``jump_b`` on [-1, 0].

    For single-jump indicators the warped sup distance is exactly 0 when the
    warp maps one jump onto the other and exactly 1 otherwise, so the
    objective of every candidate warp has a closed form and the search is an
    exhaustive scan over breakpoint/image grids.
    """
    grid = np.unique(np.concatenate([np.linspace(-0.995, -0.005, n), [jump_a, jump_b]]))
    best = 1.0  # identity warp leaves the jumps unmatched

    # two pieces: one interior breakpoint b mapped to c
    b = grid[:, None]
    c = grid[None, :]
    s1 = (c + 1.0) / (b + 1.0)
    s2 = c / b
    hn = np.maximum(np.abs(np.log(s1)), np.abs(np.log(s2)))
    tc_at = np.where(jump_a <= b, -1.0 + (jump_a + 1.0) * s1, c + (jump_a - b) * s2)
    obj = np.where(np.abs(tc_at - jump_b) <= 1e-12, hn, np.maximum(hn, 1.0))
    best = min(best, float(obj.min()))

    # three pieces: two interior breakpoints, coarser grids
    g = np.unique(np.concatenate([np.linspace(-0.98, -0.02, 33), [jump_a, jump_b]]))
    b1, b2, c1, c2 = [x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij")]
    keep = (b1 < b2) & (c1 < c2)
    b1, b2, c1, c2 = b1[keep], b2[keep], c1[keep], c2[keep]
    s1 = (c1 + 1.0) / (b1 + 1.0)
    s2 = (c2 - c1) / (b2 - b1)
    s3 = c2 / b2
    hn = np.maximum.reduce([np.abs(np.log(s1)), np.abs(np.log(s2)), np.abs(np.log(s3))])
    tc_at = np.where(jump_a <= b1, -1.0 + (jump_a + 1.0) * s1,
                     np.where(jump_a <= b2, c1 + (jump_a - b1) * s2,
                              c2 + (jump_a - b2) * s3))
    obj = np.where(np.abs(tc_at - jump_b) <= 1e-12, hn, np.maximum(hn, 1.0))
    best = min(best, float(obj.min()))
    return best


def test_identical_segments_zero_exactly():
    rng = np.random.default_rng(3)
    seg = random_step_segment(rng, max_jumps=4)
    br = skorohod_distance(seg, seg)
    assert br.lower == 0.0
    assert br.upper == 0.0
    assert br.sup_distance == 0.0


def test_shifted_indicator_matches_brute_force_oracle():
    oracle = brute_force_indicator_distance(-0.5, -0.4)
    # the oracle itself lands on the matched-jump warp value
    assert oracle == pytest.approx(LOG_125, abs=1e-9)

    br = skorohod_distance(indicator_step(-0.5), indicator_step(-0.4))
    assert br.upper == pytest.approx(oracle, abs=1e-3)
    assert br.lower <= oracle + 1e-12
    # matching the jumps beats staying put: identity costs the full jump height
    assert br.sup_distance == pytest.approx(1.0)
    assert br.upper < br.sup_distance


def test_shifted_indicator_lower_bound_is_informative():
    # a warp cheaper than log(1+gap/tau) cannot move -0.5 onto -0.4, which
    # pins the distance above ~log 1.1 up to the bound's grid granularity
    br = skorohod_distance(indicator_step(-0.5), indicator_step(-0.4))
    assert br.lower >= 0.08
    assert br.lower <= math.log(1.1) + 1e-12


def test_metric_sandwich_on_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = random_step_segment(rng)
        b = random_step_segment(rng)
        br = skorohod_distance(a, b)
        sup = uniform_distance(a, b)
        assert 0.0 <= br.lower <= br.upper + 1e-12
        assert br.upper <= sup + 1e-12
        assert br.sup_distance == pytest.approx(sup)


def test_sandwich_survives_a_cheap_search_budget():
    light = SearchParams(max_match_points=3, lower_bound_levels=4)
    rng = np.random.default_rng(13)
    for _ in range(150):
        a = random_step_segment(rng)
        b = random_step_segment(rng)
        br = skorohod_distance(a, b, light)
        assert 0.0 <= br.lower <= br.upper + 1e-12
        assert br.upper <= uniform_distance(a, b) + 1e-12


def test_upper_bound_symmetric_under_swap():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = random_step_segment(rng)
        b = random_step_segment(rng)
        ab = skorohod_distance(a, b).upper
        ba = skorohod_distance(b, a).upper
        assert ab == pytest.approx(ba, abs=1e-9)


def test_refinement_never_worsens_the_upper_bound():
    rng = np.random.default_rng(30)
    for _ in range(25):
        a = random_step_segment(rng, max_jumps=3)
        b = random_step_segment(rng, max_jumps=3)
        coarse = skorohod_distance(a, b).upper
        fine = skorohod_distance(a, b, SearchParams(resolution=0.02)).upper
        assert fine <= coarse + 1e-12


def test_continuous_pairs_are_supported_too():
    # steep ramps 0 -> 1 over shifted supports: matching the two kink pairs
    # aligns the ramps exactly, so the warp cost beats the sup distance of 1
    a = Segment(SegmentKind.CONTINUOUS_LINEAR,
                np.array([-1.0, -0.52, -0.48, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    b = Segment(SegmentKind.CONTINUOUS_LINEAR,
                np.array([-1.0, -0.42, -0.38, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    br = skorohod_distance(a, b)
    assert br.sup_distance == pytest.approx(1.0)
    assert br.upper <= uniform_distance(a, b) + 1e-12
    assert br.upper < 0.5  # warping wins by a wide margin
    # the two-kink matching is in the candidate family, so its cost caps the result
    two_kink = max(abs(math.log(0.58 / 0.48)), abs(math.log(0.38 / 0.48)))
    assert br.upper <= two_kink + 1e-12


def test_dimension_mismatch_rejected():
    a = Segment.constant([0.0, 0.0], 1.0, SegmentKind.CADLAG_STEP)
    b = Segment.constant(0.0, 1.0, SegmentKind.CADLAG_STEP)
    with pytest.raises(DomainError):
        skorohod_distance(a, b)


def test_window_mismatch_rejected():
    a = Segment.constant(0.0, 1.0, SegmentKind.CADLAG_STEP)
    b = Segment.constant(0.0, 2.0, SegmentKind.CADLAG_STEP)
    with pytest.raises(DomainError):
        skorohod_distance(a, b)


def test_warped_sup_compares_the_jumps_of_eta_where_they_are():
    # pulling eta's grid back through the kept warp and pushing it forward
    # again landed just below a jump of eta, so the warped sup missed it:
    # the bracket of (a, b) read [1.0045, 2.6391] against (b, a)'s
    # [2.7540, 2.7540]
    a = Segment(SegmentKind.CADLAG_STEP,
                np.array([-1.0, -0.6267743300961568, -0.4729462764226644,
                          -0.3477518831505403, -0.10100860461771854, 0.0]),
                np.array([-1.701302227654446, -0.8167022342887673, -1.6137478043727276,
                          -0.9515789265994581, -1.076747668401754, -1.6817283166732895]),
                np.r_[False, [True] * 4, False])
    b = Segment(SegmentKind.CADLAG_STEP,
                np.array([-1.0, -0.6713815533679871, -0.46146942611833797,
                          -0.38623895556064747, -0.18179492109445294,
                          -0.08145170146753256, 0.0]),
                np.array([0.3619345770212825, 1.9372610706110471, -0.696828678057547,
                          0.6866004061552533, 0.9760941436126793, 1.5623086405254978,
                          0.6397687393409592]),
                np.r_[False, [True] * 5, False])
    ab, ba = skorohod_distance(a, b), skorohod_distance(b, a)
    assert ab.lower <= ba.upper and ba.lower <= ab.upper
    assert ab.upper == pytest.approx(2.7539633048998144, abs=1e-12)
    # a warp on (a, b) and its inverse on (b, a) see the same sup
    bp, im = ab.time_change.breakpoints, ab.time_change.images
    assert _warped_distances(a, b, bp[None], im[None])[0] == pytest.approx(
        _warped_distances(b, a, im[None], bp[None])[0], abs=1e-12)


def test_windows_within_the_compatibility_tolerance_are_measured():
    # tau = 1 and tau = 1 + 5e-10 are compatible; each segment is evaluated
    # inside its own window, so the pair is measured instead of raising
    rng = np.random.default_rng(0x7A5)
    for _ in range(5):
        a = random_step_segment(rng)
        b = random_step_segment(rng, tau=1.0 + 5e-10)
        b1 = Segment(b.kind, np.concatenate([[-1.0], b.grid[1:]]), b.values, b.jump_flags)
        for xi, eta in ((a, b), (b, a)):
            sup = uniform_distance(xi, eta)
            br = skorohod_distance(xi, eta)
            assert 0.0 <= br.lower <= br.upper <= sup
            assert br.sup_distance == sup
        # a step segment holds its first value up to the window's start
        assert uniform_distance(a, b) == uniform_distance(a, b1)
        assert uniform_distance(b, a) == uniform_distance(b1, a)


# ---------------------------------------------------------------------------
# bitwise contract: the array scoring against the per-candidate loop
# ---------------------------------------------------------------------------

def _ref_log_slope_norm(bp, im):
    return float(np.abs(np.log(np.diff(im) / np.diff(bp))).max())


def _ref_warped_distance(xi, eta, bp, im):
    ts = np.concatenate([xi.grid, np.interp(eta.grid, im, bp), bp])
    ss = np.concatenate([np.interp(xi.grid, bp, im), eta.grid, im])
    ss = np.minimum(0.0, np.maximum(ss, -eta.tau))
    xi_right, xi_left = evaluate_many(xi, ts)
    eta_right, eta_left = evaluate_many(eta, ss)
    right = np.sqrt(((xi_right - eta_right) ** 2).sum(axis=1))
    left = np.sqrt(((xi_left - eta_left) ** 2).sum(axis=1))
    return float(np.maximum(right, left).max())


def reference_bracket(xi, eta, search):
    """The bracket as one candidate matching at a time, in enumeration order,
    with the same pruning, tie rule, refinement and lower bound."""
    tau = max(xi.tau, eta.tau)
    sup_d = uniform_distance(xi, eta)
    ident = (np.array([-tau, 0.0]), np.array([-tau, 0.0]))
    if sup_d == 0.0:
        return 0.0, 0.0, 0.0, 1, ident
    best_obj, best_hn, best = sup_d, 0.0, None
    a_pts = _critical_points(xi, search.max_match_points)
    b_pts = _critical_points(eta, search.max_match_points)
    n_cand = 1
    for k in range(1, min(a_pts.size, b_pts.size) + 1):
        for ia in itertools.combinations(range(a_pts.size), k):
            for ib in itertools.combinations(range(b_pts.size), k):
                bp = np.concatenate([[-tau], a_pts[list(ia)], [0.0]])
                im = np.concatenate([[-tau], b_pts[list(ib)], [0.0]])
                if not (np.all(np.diff(bp) > 0) and np.all(np.diff(im) > 0)):
                    continue
                n_cand += 1
                hn = _ref_log_slope_norm(bp, im)
                if hn >= best_obj:
                    continue
                obj = max(hn, _ref_warped_distance(xi, eta, bp, im))
                if obj < best_obj or (obj == best_obj and hn < best_hn):
                    best_obj, best_hn, best = obj, hn, (bp, im)
    if search.resolution > 0 and best is not None:
        bp, im = best
        for _ in range(_REFINE_PASSES):
            improved = False
            for i in range(1, im.size - 1):
                for step in (-search.resolution, search.resolution):
                    trial = im.copy()
                    trial[i] = im[i] + step
                    if not (trial[i - 1] < trial[i] < trial[i + 1]):
                        continue
                    hn = _ref_log_slope_norm(bp, trial)
                    if hn >= best_obj:
                        continue
                    obj = max(hn, _ref_warped_distance(xi, eta, bp, trial))
                    if obj < best_obj or (obj == best_obj and hn < best_hn):
                        best_obj, best_hn, im = obj, hn, trial
                        improved = True
            if not improved:
                break
        best = (bp, im)
    upper = min(best_obj, sup_d)
    lower = _lower_bound(xi, eta, tau, upper, search.lower_bound_levels)
    return min(lower, upper), upper, sup_d, n_cand, ident if best is None else best


def random_linear_segment(rng, dim, max_kinks, tau=1.0):
    """Continuous piecewise-linear segment with up to ``max_kinks`` interior
    grid points, values in [-2, 2]."""
    n = int(rng.integers(0, max_kinks + 1))
    interior = np.unique(rng.uniform(-0.98 * tau, -0.02 * tau, size=n))
    grid = np.concatenate([[-tau], interior, [0.0]])
    return Segment(SegmentKind.CONTINUOUS_LINEAR, grid,
                   rng.uniform(-2.0, 2.0, size=(grid.size, dim)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("search", [
    SearchParams(),
    SearchParams(max_match_points=3, lower_bound_levels=4),
    SearchParams(resolution=0.02),
], ids=["default", "light", "refined"])
def test_brackets_equal_the_per_candidate_loop_bitwise(dim, search):
    rng = np.random.default_rng([41, dim, search.max_match_points, int(search.resolution * 100)])
    pairs = [(random_step_segment(rng, dim=dim), random_step_segment(rng, dim=dim))
             for _ in range(30)]
    pairs += [(random_linear_segment(rng, dim, 5), random_linear_segment(rng, dim, 5))
              for _ in range(10)]
    # a shared jump time, so some candidate warps tie
    pairs.append((indicator_step(-0.5), Segment(
        SegmentKind.CADLAG_STEP, np.array([-1.0, -0.5, -0.25, 0.0]),
        np.array([0.0, 1.0, 1.0, 1.0]), np.array([False, True, True, False]))))
    for a, b in pairs:
        lower, upper, sup_d, n_cand, (bp, im) = reference_bracket(a, b, search)
        br = skorohod_distance(a, b, search)
        assert (br.lower, br.upper, br.sup_distance, br.n_candidates) == (lower, upper, sup_d, n_cand)
        assert br.time_change.breakpoints.tobytes() == bp.tobytes()
        assert br.time_change.images.tobytes() == im.tobytes()


def test_eight_kinks_a_side_stay_within_their_memory_bound():
    # max_match_points = 8 means up to C(16, 8) = 12 870 matchings; with b
    # lifted by 5 no warp norm comes near the sup gap, so none is pruned and
    # all of them are scored (unblocked, the temporaries would take ~60 MiB)
    rng = np.random.default_rng(8)
    grid = np.linspace(-1.0, 0.0, 41)
    a = Segment(SegmentKind.CONTINUOUS_LINEAR, grid, rng.uniform(-1, 1, (41, 2)))
    b = Segment(SegmentKind.CONTINUOUS_LINEAR, grid, rng.uniform(-1, 1, (41, 2)) + 5.0)
    tracemalloc.start()
    try:
        br = skorohod_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert br.n_candidates == 12_870
    assert peak < PEAK_MIB * 2**20


def test_bracket_numbers_are_python_floats():
    rng = np.random.default_rng(21)
    a, b = random_step_segment(rng), random_step_segment(rng)
    c, d = random_linear_segment(rng, 2, 4), random_linear_segment(rng, 2, 4)
    for x, y in ((a, b), (c, d), (a, a)):
        br = skorohod_distance(x, y)
        assert [type(v) for v in (br.lower, br.upper, br.sup_distance)] == [float] * 3


def test_brackets_share_one_read_only_identity_per_window():
    rng = np.random.default_rng(22)
    a = random_step_segment(rng)
    ident = skorohod_distance(a, a).time_change
    assert ident is identity_time_change(1.0)
    assert not (ident.breakpoints.flags.writeable or ident.images.flags.writeable)
    with pytest.raises(AttributeError):
        ident.breakpoints = np.array([-1.0, 0.0])
    # slotted records keep no per-instance dict
    assert not hasattr(ident, "__dict__")
    assert not hasattr(skorohod_distance(a, a), "__dict__")


@pytest.mark.parametrize("kwargs", [
    {"lower_bound_levels": 0},
    {"lower_bound_levels": -2},
    {"lower_bound_levels": 2.5},
    {"max_match_points": -1},
    {"max_match_points": 1.5},
    {"resolution": -0.5},
    {"resolution": math.nan},
    {"resolution": math.inf},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_search_params_refuse_values_they_cannot_honour(kwargs):
    with pytest.raises(DomainError):
        SearchParams(**kwargs)


def test_search_params_take_numpy_integers_and_zero_caps():
    params = SearchParams(max_match_points=np.int64(0), lower_bound_levels=np.int32(1))
    rng = np.random.default_rng(23)
    a, b = random_step_segment(rng), random_step_segment(rng)
    br = skorohod_distance(a, b, params)
    # a zero cap leaves the identity as the only candidate
    assert br.n_candidates == 1
    assert br.upper == br.sup_distance


# ---------------------------------------------------------------------------
# lower bound: the one-pass levels against the per-level window loop
# ---------------------------------------------------------------------------

def _ref_window_inf(points, eta, lo, hi):
    """inf over s in [lo[j], hi[j]] of |points[j] - eta(s)|, one window per
    row, every distance computed for this window alone."""
    lo = np.maximum(lo, -eta.tau)
    hi = np.minimum(hi, 0.0)
    lo = np.minimum(lo, hi)
    grid, vals = eta.grid, eta.values
    if eta.kind is SegmentKind.CADLAG_STEP:
        rights = np.append(grid[1:], 0.0)
        sel = (grid <= hi[:, None]) & (rights >= lo[:, None])
        empty = ~sel.any(axis=1)
        if empty.any():
            nearest = np.minimum(np.searchsorted(grid, lo[empty]), grid.size - 1)
            sel[np.flatnonzero(empty), nearest] = True
        dist = _norms(vals[None, :, :] - points[:, None, :])
        return np.where(sel, dist, math.inf).min(axis=1)
    g0, g1 = grid[:-1], grid[1:]
    meets = ~((g1 < lo[:, None]) | (g0 > hi[:, None]))
    w0 = ((np.maximum(g0, lo[:, None]) - g0) / (g1 - g0))[:, :, None]
    w1 = ((np.minimum(g1, hi[:, None]) - g0) / (g1 - g0))[:, :, None]
    y0 = (1 - w0) * vals[:-1] + w0 * vals[1:]
    y1 = (1 - w1) * vals[:-1] + w1 * vals[1:]
    d = y1 - y0
    dd = (d ** 2).sum(axis=2)
    u = np.divide(((points[:, None, :] - y0) * d).sum(axis=2), dd,
                  out=np.zeros_like(dd), where=dd != 0.0)
    u = np.minimum(1.0, np.maximum(0.0, u))
    dist = _norms(points[:, None, :] - (y0 + u[:, :, None] * d))
    return np.where(meets, dist, math.inf).min(axis=1)


def reference_lower_bound(xi, eta, tau, upper, levels):
    """The lower bound one level at a time."""
    if upper <= 0:
        return 0.0
    mids = 0.5 * (xi.grid[:-1] + xi.grid[1:])
    ts = np.unique(np.concatenate([xi.grid, eta.grid, mids]))
    ts = np.minimum(0.0, np.maximum(ts, -xi.tau))
    right, left = evaluate_many(xi, ts)
    points = np.concatenate([right, left])
    times = np.concatenate([ts, ts])
    best = 0.0
    for r in np.linspace(upper / levels, upper, levels):
        w = tau * math.expm1(r)
        best = max(best, min(r, float(_ref_window_inf(points, eta, times - w, times + w).max())))
    return best


def lower_bound_pairs():
    rng = np.random.default_rng(18)
    pairs = []
    for dim in (1, 2):
        pairs += [(random_step_segment(rng, dim=dim), random_step_segment(rng, dim=dim))
                  for _ in range(6)]
        pairs += [(random_linear_segment(rng, dim, 6), random_linear_segment(rng, dim, 6))
                  for _ in range(6)]
    # coarse grids, so candidate times and window ends land on grid points
    grid = np.array([-1.0, -0.75, -0.5, -0.25, 0.0])
    for kind in SegmentKind:
        pairs.append((Segment(kind, grid, rng.uniform(-1, 1, (5, 2))),
                      Segment(kind, grid[[0, 2, 4]], rng.uniform(-1, 1, (3, 2)))))
    return pairs


def mismatched_pairs():
    """Windows 1 + 5e-10 and 1, both kinds: the candidate times left of eta's
    window see no part of it while w < 5e-10.  The last two pairs are one
    constant on both windows, so what those windows return decides the
    bound."""
    rng = np.random.default_rng(19)
    wide, narrow = 1.0 + 5e-10, 1.0
    pairs = [(random_step_segment(rng, tau=wide), random_step_segment(rng, tau=narrow)),
             (random_linear_segment(rng, 1, 4, tau=wide),
              random_linear_segment(rng, 1, 4, tau=narrow))]
    for kind in SegmentKind:
        pairs.append((Segment.constant(0.3, wide, kind), Segment.constant(0.3, narrow, kind)))
    return pairs


@pytest.mark.parametrize("levels", [1, 4, 24])
@pytest.mark.parametrize("upper", [1e-12, 0.05, 0.7, 3.0])
def test_lower_bound_equals_the_per_level_loop_bitwise(levels, upper):
    for xi, eta in lower_bound_pairs() + mismatched_pairs():
        tau = max(xi.tau, eta.tau)
        assert _lower_bound(xi, eta, tau, upper, levels) == reference_lower_bound(
            xi, eta, tau, upper, levels)


def test_mismatched_windows_reach_the_empty_window_path():
    # the step kind falls back to eta's first interval there, and the linear
    # kind meets no piece (an infinite window infimum), so on one constant
    # the step kind scores 0 and the linear kind scores every level's r
    for xi, eta in mismatched_pairs():
        w = xi.tau * math.expm1(1e-12)
        assert -xi.tau + w < -eta.tau
        got = _lower_bound(xi, eta, xi.tau, 1e-12, 4)
        assert got == reference_lower_bound(xi, eta, xi.tau, 1e-12, 4)
    linear, step = mismatched_pairs()[2:]
    assert _lower_bound(*step, step[0].tau, 1e-12, 4) == 0.0
    assert _lower_bound(*linear, linear[0].tau, 1e-12, 4) == 1e-12


def test_lower_bound_of_long_segments_stays_within_its_memory_bound():
    rng = np.random.default_rng(4000)
    grids = [np.concatenate([[-1.0], np.sort(rng.uniform(-0.999, -0.001, 3998)), [0.0]])
             for _ in range(2)]
    a, b = (Segment(SegmentKind.CADLAG_STEP, g, rng.uniform(-1.0, 1.0, (4000, 1)))
            for g in grids)
    tracemalloc.start()
    try:
        lower = _lower_bound(a, b, 1.0, 1.0, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < lower <= 1.0
    assert peak < LONG_PEAK_MIB * 2**20
