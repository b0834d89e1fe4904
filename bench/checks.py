"""Reference computations for the benchmark's correctness checks.

Everything here is computed apart from sdelab, with numpy and mpmath only,
from the same plain inputs the benchmark hands the program (model
parameters, initial segments as arrays, step sizes).  Each ``check_*``
function returns a list of failure messages, empty when the program's
output passes.  ``Verifier.run`` runs a check on the real output and again
on a perturbed copy, and records a failure if the perturbed copy passes:
a check that cannot fail shows nothing.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# the two-sided level of a 4-sigma normal band; statistical checks use the
# Student-t quantile of this level for the standard error's degrees of freedom
LEVEL = math.erfc(4.0 / math.sqrt(2.0))


def se_multiple(dof: int) -> float:
    """Half-width, in standard errors, of a band of two-sided level LEVEL.

    Equals 4 for a normal standard error; wider when the standard error is
    itself estimated from ``dof`` degrees of freedom (5.5 at 15 dof).
    """
    if dof >= 10_000:
        return 4.0
    nu = mpmath.mpf(dof)

    def tail(t):  # two-sided tail probability of Student's t
        return mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t),
                              regularized=True)

    lo, hi = mpmath.mpf(4), mpmath.mpf(1000)
    for _ in range(80):
        mid = (lo + hi) / 2
        if tail(mid) > LEVEL:
            lo = mid
        else:
            hi = mid
    return float(hi)


# ---------------------------------------------------------------------------
# deterministic delay recursions
# ---------------------------------------------------------------------------

def delay_recursion(a, b, h, k_hist, n_steps, hist, kappa=0.0):
    """Euler recursion of ``d{D - kappa D(t-tau)} = (-a D + b D(t-tau)) dt``
    on the uniform grid, with ``k_hist`` steps per window.

    ``hist`` holds the ``k_hist + 1`` history values on ``[-tau, 0]``.  This
    is the coupled difference of two synchronously coupled linear paths
    (additive noise cancels), and also the mean of one linear path.
    """
    d = np.empty(k_hist + n_steps + 1)
    d[:k_hist + 1] = hist
    for k in range(n_steps):
        i = k_hist + k
        y = d[i] - kappa * d[i - k_hist] + h * (-a * d[i] + b * d[i - k_hist])
        d[i + 1] = y + kappa * d[i + 1 - k_hist]
    return d


def window_sup(d, k_hist, steps, power):
    """``sup over the window ending at step s of |D|``, raised to ``power``."""
    return np.array([np.abs(d[s:s + k_hist + 1]).max() ** power for s in steps])


def halanay_root(a, b, tau):
    """Positive root of ``lam = a - b exp(lam tau)``, by mpmath at 30 digits."""
    with mpmath.workdps(30):
        f = lambda lam: lam - a + b * mpmath.exp(lam * tau)  # noqa: E731
        return float(mpmath.findroot(f, (mpmath.mpf(0), mpmath.mpf(a - b)),
                                     solver="anderson"))


def ou_euler_variance(a, sigma, h):
    """Stationary variance of ``X' = (1 - a h) X + sigma sqrt(h) Z``."""
    return sigma * sigma * h / (1.0 - (1.0 - a * h) ** 2)


# ---------------------------------------------------------------------------
# segments as arrays: (kind, grid, values)
# ---------------------------------------------------------------------------

def _right_left(kind, grid, values, ts):
    ts = np.clip(ts, grid[0], grid[-1])
    if kind == "step":
        i_r = np.searchsorted(grid, ts, side="right") - 1
        i_l = np.maximum(np.searchsorted(grid, ts, side="left") - 1, 0)
        return values[i_r], values[i_l]
    right = np.stack([np.interp(ts, grid, values[:, j])
                      for j in range(values.shape[1])], axis=1)
    return right, right


def sup_distance(seg_a, seg_b):
    """Exact sup-distance of two piecewise segments: the larger of the
    right-value and left-limit differences over the merged breakpoints."""
    ts = np.union1d(seg_a[1], seg_b[1])
    ra, la = _right_left(*seg_a, ts)
    rb, lb = _right_left(*seg_b, ts)
    return float(max(np.sqrt(((ra - rb) ** 2).sum(axis=1)).max(),
                     np.sqrt(((la - lb) ** 2).sum(axis=1)).max()))


def indicator_distance(u, v):
    """Skorohod distance of the indicators ``1[theta >= u]`` and ``1[theta >= v]``
    on ``[-1, 0]``: the two-piece warp sending u to v, or the unit jump gap."""
    return min(1.0, max(abs(math.log((1.0 + v) / (1.0 + u))), abs(math.log(v / u))))


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_close(name, got, want, rtol=0.0, atol=0.0):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {got.flat[i]!r} vs reference {want.flat[i]!r} "
                f"(rtol {rtol:g}, atol {atol:g})"]
    return []


def check_within_se(name, est, ref, se, dof):
    est, ref, se = (np.atleast_1d(np.asarray(x, float)) for x in (est, ref, se))
    k = se_multiple(dof)
    bad = ~(np.abs(est - ref) <= k * se)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {est[i]!r} not within {k:.2f} SE ({se[i]:.3g}) of {ref[i]!r}"]
    return []


def shifted(est, se, dof):
    """``est`` moved by twice the check's half-width plus one SE: a value
    ``check_within_se`` must reject wherever ``est`` started in its band."""
    return np.asarray(est, float) + (2.0 * se_multiple(dof) + 1.0) * np.asarray(se, float)


def check_at_least(name, got, floor):
    got = np.asarray(got, float)
    if not np.all(got >= floor):
        return [f"{name}: min {got.min()!r} below {floor!r}"]
    return []


def check_nonincreasing(name, rows):
    """Each column of ``rows`` is nonincreasing down the rows."""
    rows = np.asarray(rows, float)
    if rows.shape[0] > 1 and not np.all(np.diff(rows, axis=0) <= 0.0):
        return [f"{name}: not nonincreasing down its rows"]
    return []


def check_in_unit_interval(name, x):
    x = np.asarray(x, float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        return [f"{name}: value outside [0, 1]"]
    return []


def check_order(name, lower, upper, sup):
    """``0 <= lower <= upper <= sup`` on every row."""
    if not np.all((lower >= 0) & (lower <= upper + 1e-12) & (upper <= sup + 1e-12)):
        return [f"{name}: some bracket violates 0 <= lower <= upper <= sup"]
    return []


def check_sandwich(name, rows):
    """Each row is (lower, exact value, upper)."""
    rows = np.asarray(rows)
    if not np.all((rows[:, 0] <= rows[:, 1] + 1e-12) & (rows[:, 1] <= rows[:, 2] + 1e-12)):
        return [f"{name}: exact value outside the bracket"]
    return []


def check_bitwise(name, a, b):
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"{name}: values differ"]
    return []


def check_true(name, cond):
    return [] if cond else [f"{name}: property does not hold"]


def check_razumikhin(name, gammas, sets):
    """Each gamma lies in (0, lam) and meets both admissibility constraints
    for its row (kappa, lam, tau, q) of ``sets``."""
    kappa, lam, tau, q = np.asarray(sets, float).T
    e_half = kappa * np.exp(0.5 * gammas * tau)
    ok = ((0.0 < gammas) & (gammas < lam) & (e_half < 1.0)
          & (np.exp(gammas * tau) < q * (1.0 - e_half) ** 2))
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        return [f"{name}: gamma={gammas[i]!r} not admissible for {tuple(sets[i])}"]
    return []


class Verifier:
    """Collects check results, each paired with its perturbation self-test."""

    def __init__(self):
        self.failures = []
        self.n_checks = 0

    def run(self, check, *args, perturbed):
        """Run ``check(*args)``; then ``check(*perturbed)`` must fail."""
        self.n_checks += 1
        self.failures += check(*args)
        if not check(*perturbed):
            self.failures.append(f"self-test: {args[0]} accepts a perturbed output")

    def within_se(self, name, est, ref, se, dof):
        """``check_within_se``, self-tested on the estimate moved out of its band."""
        self.run(check_within_se, name, est, ref, se, dof,
                 perturbed=(name, shifted(est, se, dof), ref, se, dof))

    @property
    def ok(self) -> bool:
        return not self.failures
