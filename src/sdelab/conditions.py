"""Sampled verification of the standing coefficient hypotheses.

A sampled checker cannot prove a universally quantified inequality; the
verdicts here mean "no violation found, constants fitted" versus
"counterexample found (stored for replay)", with an explicit Inconclusive
bucket when constants exist but not with the sign pattern the stability
theory needs.

Each check evaluates its inequality pathwise on sampled segment pairs
(expectations drop for deterministic coefficients) and fits the sharpest
constants by a small linear feasibility program:

* two-constant dissipation displays fit ``L <= -alpha1*A + alpha2*R`` by
  maximizing the gap ``alpha1 - alpha2`` over the sampled feasible region,
  then minimizing ``alpha2`` among gap maximizers, then backing off by a
  relative 1e-6 so every sampled inequality is strict;
* one-constant domination displays take the worst sampled ratio.

Fitted constants therefore certify the sampled set with a stated margin.
They are only as exact as the sample makes them: ``alpha2`` is the smallest
value on the sampled ridge of gap maximizers, which the sample need not pin
down, so on a linear model it can fall below the algebraic constant.

Each display's per-pair terms ``(L, A, R)`` live in one function, shared by
the check that fits its constants and by ``replay_witness``, so a witness
replays to exactly the sides the check stored.

The sampled pairs are measured on arrays: their uniform distances come from
one difference block over the sampler's shared grid, and a built-in jump
model (one carrying a ``JumpLinearDescriptor``) has its jump coefficient
evaluated on the whole mark column, once per side of a pair.  A hand-rolled
``jump_coeff`` takes a scalar mark, so it is called once per mark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ModelContractError
from .models import JumpLinearDescriptor, ModelClass, delay_atoms
from .paths import Segment, SegmentKind, uniform_distance

__all__ = [
    "VerdictStatus",
    "Witness",
    "Verdict",
    "SegmentPairSampler",
    "check_drift_dissipation",
    "check_diffusion_domination",
    "check_neutral_conditions",
    "check_jump_conditions",
    "replay_witness",
]

_FIT_MARGIN = 1e-6
_GROWTH_RATIO = 1.5


class VerdictStatus(Enum):
    PASS_WITH_CONSTANTS = "PassWithConstants"
    FAIL_WITH_WITNESS = "FailWithWitness"
    INCONCLUSIVE = "Inconclusive"


@dataclass(eq=False)
class Witness:
    """A replayable sample: the pair itself plus both sides of the display."""

    t: float
    phi: Segment
    psi: Segment
    lhs: float
    rhs: float


@dataclass(eq=False)
class Verdict:
    check: str
    status: VerdictStatus
    constants: dict
    margin: float
    trials: int
    witness: Witness | None = None
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status is VerdictStatus.PASS_WITH_CONSTANTS

    def summary_line(self) -> str:
        consts = " ".join(f"{k}={v:.6g}" for k, v in self.constants.items()
                          if isinstance(v, (int, float)))
        parts = [f"{self.check}: {self.status.value}"]
        if consts:
            parts.append(consts)
        parts.append(f"margin={self.margin:.3g} trials={self.trials}")
        if self.notes:
            parts.append("(" + "; ".join(self.notes) + ")")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        doc = {
            "check": self.check,
            "status": self.status.value,
            "constants": {k: v for k, v in self.constants.items()},
            "margin": self.margin,
            "trials": self.trials,
            "notes": list(self.notes),
        }
        if self.witness is not None:
            doc["witness"] = {"t": self.witness.t, "lhs": self.witness.lhs,
                              "rhs": self.witness.rhs}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# segment pair sampling
# ---------------------------------------------------------------------------

@dataclass
class SegmentPairSampler:
    """Deterministic stream of (t, phi, psi) stress pairs.

    Four value families are cycled: centered Gaussians, constants, single
    spikes (placed at the newest point, at a nominated node such as a delay
    atom, or at random), and sawtooth oscillations.  The grid always
    contains the nominated offsets so spikes can sit exactly on delay reads.
    Every pair lies on that one grid, with the sampler's one kind.

    With ``unbounded=True`` the trial budget is split into blocks of
    geometrically growing radius, which is what lets the ratio checks see
    superlinear coefficient growth.  A trial's radius then depends on ``n``
    as well (``block_of_trial(i, n)``), so only a bounded sampler's trial i
    depends on (seed, i) alone, and only there does enlarging ``n`` extend
    the sample rather than reshuffle it.  An unbounded trial keeps its
    ``t`` and its value family, with the radius set by its block.
    """

    tau: float
    dim: int = 1
    radius: float = 2.0
    n_grid: int = 33
    seed: int = 0
    kind: SegmentKind = SegmentKind.CONTINUOUS_LINEAR
    t_max: float = 10.0
    important_thetas: tuple = ()
    unbounded: bool = False
    n_radius_blocks: int = 4
    _grid: np.ndarray = field(init=False, repr=False)
    _nominated: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise DomainError("sampler needs tau > 0")
        if self.radius <= 0:
            raise DomainError("sampler needs radius > 0")
        pts = set(np.linspace(-self.tau, 0.0, max(int(self.n_grid), 3)))
        for th in self.important_thetas:
            th = float(th)
            if th < -self.tau - 1e-12 or th > 1e-12:
                raise DomainError(f"nominated offset {th!r} outside [-tau, 0]")
            pts.add(min(max(th, -self.tau), 0.0))
        grid = np.array(sorted(pts))
        grid[0], grid[-1] = -self.tau, 0.0
        self._grid = grid
        # spike sites: the newest point, then the node nearest each offset
        self._nominated = (grid.size - 1,) + tuple(
            int(np.argmin(np.abs(grid - th))) for th in self.important_thetas)

    def radius_for_trial(self, i: int, n: int) -> float:
        return self.radius * 2.0 ** self.block_of_trial(i, n)

    def block_of_trial(self, i: int, n: int) -> int:
        if not self.unbounded:
            return 0
        return min(i * self.n_radius_blocks // max(n, 1), self.n_radius_blocks - 1)

    def _values(self, rng, family: int, radius: float) -> np.ndarray:
        k = self._grid.size
        if family == 0:  # gaussian
            return 0.5 * radius * rng.standard_normal((k, self.dim))
        if family == 1:  # constant
            c = radius * (2.0 * rng.random(self.dim) - 1.0)
            return np.tile(c, (k, 1))
        if family == 2:  # single spike
            base = 0.25 * radius * (2.0 * rng.random(self.dim) - 1.0)
            vals = np.tile(base, (k, 1))
            choices = self._nominated + (int(rng.integers(0, k)),)
            at = choices[int(rng.integers(0, len(choices)))]
            vals[at] += radius * (2.0 * rng.random(self.dim) - 1.0)
            return vals
        period = int(rng.integers(2, 5))  # sawtooth
        amp = radius * (0.25 + 0.75 * rng.random())
        signs = (-1.0) ** (np.arange(k) // period)
        offset = 0.25 * radius * (2.0 * rng.random(self.dim) - 1.0)
        return signs[:, None] * amp + offset

    def _segment(self, rng, family: int, radius: float) -> Segment:
        return Segment(self.kind, self._grid, self._values(rng, family, radius))

    def draw(self, n: int):
        """Yield ``n`` trials (index, t, phi, psi), all on the sampler's grid."""
        for i in range(int(n)):
            rng = np.random.default_rng([self.seed, i])
            family = i % 4
            radius = self.radius_for_trial(i, n)
            t = float(self.t_max * rng.random())
            phi = self._segment(rng, family, radius)
            psi = self._segment(rng, family, radius)
            yield i, t, phi, psi

    @classmethod
    def for_model(cls, model, **kwargs) -> "SegmentPairSampler":
        kind = (SegmentKind.CADLAG_STEP if model.model_class is ModelClass.JUMP
                else SegmentKind.CONTINUOUS_LINEAR)
        kwargs.setdefault("kind", kind)
        kwargs.setdefault("dim", model.dim)
        kwargs.setdefault("important_thetas", delay_atoms(model.delay))
        return cls(tau=model.tau, **kwargs)


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------

def _fit_two_constants(L, A, R):
    """Fit ``L_i <= -a1*A_i + a2*R_i`` with maximal gap a1-a2, minimal a2.

    Returns (a1, a2, hard_index).  ``hard_index`` is None unless some sample
    with A = R = 0 has L > 0, which no real coefficient pair can satisfy at
    any constants; it is then that sample's index.
    """
    L = np.asarray(L, dtype=float)
    A = np.asarray(A, dtype=float)
    R = np.asarray(R, dtype=float)
    scale = max(1.0, float(np.abs(L).max(initial=0.0)),
                float(A.max(initial=0.0)), float(R.max(initial=0.0)))
    tol = 1e-12 * scale

    hard = (A <= tol) & (R <= tol) & (L > tol)
    if hard.any():
        return 0.0, 0.0, int(np.argmax(np.where(hard, L, -np.inf)))

    a2_lo = 0.0
    zero_a = (A <= tol) & (R > tol)
    if zero_a.any():
        a2_lo = max(0.0, float((L[zero_a] / R[zero_a]).max()))

    pos = A > tol
    if not pos.any():
        # alpha1 unconstrained; any gap achievable
        return _backed_off(max(1.0, 2.0 * a2_lo), a2_lo)

    La, Aa, Ra = L[pos], A[pos], R[pos]

    def g(a2):
        return float(((a2 * Ra - La) / Aa).min())

    ratios = np.where(Ra > tol, np.maximum(La, 0.0) / np.where(Ra > tol, Ra, 1.0), 0.0)
    a2_hi = max(1.0, 2.0 * a2_lo, 2.0 * float(ratios.max(initial=0.0)))

    # golden-section maximization of the concave gap(a2) = g(a2) - a2
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a2_lo, a2_hi
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = g(x1) - x1, g(x2) - x2
    for _ in range(200):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = g(x1) - x1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = g(x2) - x2
    a2_star = 0.5 * (lo + hi)
    gap_star = g(a2_star) - a2_star

    # smallest a2 attaining (essentially) the maximal gap: bisect the left
    # shoulder of the concave gap function
    target = gap_star - 1e-10 * max(1.0, abs(gap_star))
    lo, hi = a2_lo, a2_star
    if g(lo) - lo >= target:
        a2 = lo
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(mid) - mid >= target:
                hi = mid
            else:
                lo = mid
        a2 = hi
    return _backed_off(g(a2), a2)


def _backed_off(a1, a2):
    """Fitted constants backed off by a relative ``_FIT_MARGIN``, so every
    sampled inequality holds strictly; returns (a1, a2, None)."""
    back = _FIT_MARGIN * max(1.0, abs(a1), abs(a2))
    return a1 - back, a2 + back, None


def _fit_single_constant(L, R):
    """Smallest ``a3`` with ``L_i <= a3 * R_i`` plus headroom; worst index.

    A pair counts as identical (``R_i`` zero) within a tolerance taken from
    that pair's own ``|L_i|`` and ``R_i``, so large pairs elsewhere in the
    sample cannot make two distinct segments look identical.
    """
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(L), R))
    hard = (R <= tol) & (L > tol)
    if hard.any():
        return False, 0.0, int(np.argmax(np.where(hard, L, -np.inf)))
    mask = R > tol
    if not (L[mask] > tol[mask]).any():
        return True, 0.0, -1
    ratios = np.full(L.shape, -np.inf)
    ratios[mask] = L[mask] / R[mask]
    worst = int(np.argmax(ratios))
    return True, float(ratios[worst]), worst


# ---------------------------------------------------------------------------
# per-pair quantities
# ---------------------------------------------------------------------------

def _frob_sq(mat) -> float:
    a = np.asarray(mat, dtype=float)
    return float((a * a).sum())


def _pair_core(model, t, phi, psi):
    if phi.dim != model.dim or psi.dim != model.dim:
        raise DomainError(
            f"sampler produced dimension {phi.dim}/{psi.dim}, model has {model.dim}")
    d0 = np.asarray(phi.eval(0.0)) - np.asarray(psi.eval(0.0))
    db = np.asarray(model.drift(t, phi)) - np.asarray(model.drift(t, psi))
    return d0, db


def _diffusion_sq(model, t, phi, psi) -> float:
    """``||sigma(t, phi) - sigma(t, psi)||_F^2``."""
    return _frob_sq(np.asarray(model.diffusion(t, phi))
                    - np.asarray(model.diffusion(t, psi)))


def _mark_nodes(model, mark_samples: int, seed: int):
    """Mark atoms and weights for the jump integrals: the law's exact finite
    support when it has one, otherwise ``mark_samples`` deterministic draws
    (weights 1/m) whose Monte Carlo error the caller must inflate for."""
    supp = model.mark_law.support()
    if supp is not None:
        zs, ws = supp
        return np.asarray(zs, float), np.asarray(ws, float), True
    rng = np.random.default_rng([seed, 0x6d61726b])
    u = rng.random(int(mark_samples))
    return np.asarray(model.mark_law.from_uniform(u), float), \
        np.full(u.size, 1.0 / u.size), False


def _jump_delta_sq(model, t, phi, psi, zs, ws, exact):
    """(weighted mean of ||c(t,phi,z)-c(t,psi,z)||^2, 3*SE of that mean).

    A built-in jump coefficient reads the marks as a column, so each side is
    one call returning a ``(marks, dim)`` block; its row sums are the
    per-mark sums bit for bit.  A hand-rolled coefficient takes a scalar
    mark and is called once per mark.
    """
    if isinstance(model.descriptor, JumpLinearDescriptor):
        col = zs[:, None]
        dc = np.asarray(model.jump_coeff(t, phi, col)) - \
            np.asarray(model.jump_coeff(t, psi, col))
        vals = (dc * dc).sum(axis=1)
    else:
        vals = np.empty(zs.size)
        for j, z in enumerate(zs):
            dc = np.asarray(model.jump_coeff(t, phi, z)) - \
                np.asarray(model.jump_coeff(t, psi, z))
            vals[j] = float((dc * dc).sum())
    mean = float((vals * ws).sum())
    if exact or zs.size < 2:
        return mean, 0.0
    se = float(vals.std(ddof=1) / math.sqrt(zs.size))
    return mean, 3.0 * se


# ---------------------------------------------------------------------------
# display terms: each display's (L, A, R) on one pair, for check and replay;
# ``sup`` is the pair's uniform distance, which the caller has at hand
# ---------------------------------------------------------------------------

def _dissipation_terms(model, t, phi, psi, sup, p_exp):
    """(L, A, R) of the ``check_drift_dissipation`` display."""
    d0, db = _pair_core(model, t, phi, psi)
    nd0 = float(np.sqrt((d0 * d0).sum()))
    w = nd0 ** p_exp
    return (w * (2.0 * float(d0 @ db) + _diffusion_sq(model, t, phi, psi)),
            nd0 ** (2.0 + p_exp), w * sup * sup)


def _domination_terms(model, t, phi, psi, sup, p_exp):
    """(L, 0, R) of the ``check_diffusion_domination`` display; reads no drift."""
    sq = _diffusion_sq(model, t, phi, psi)
    return sq ** ((2.0 + p_exp) / 2.0), 0.0, sup ** (2.0 + p_exp)


def _neutral_terms(model, t, phi, psi, sup):
    """The neutral bundle's three displays: contraction ``(|dg|/sup, 0, sup)``,
    dissipation through the drift-corrected difference ``d0 - dg``, and
    diffusion domination."""
    d0, db = _pair_core(model, t, phi, psi)
    dg = np.asarray(model.neutral_map(phi)) - np.asarray(model.neutral_map(psi))
    sq = _diffusion_sq(model, t, phi, psi)
    return ((float(np.sqrt((dg * dg).sum())) / sup, 0.0, sup),
            (2.0 * float((d0 - dg) @ db) + sq, float((d0 * d0).sum()), sup * sup),
            (sq, 0.0, sup * sup))


def _jump_terms(model, t, phi, psi, sup, marks):
    """The jump bundle's dissipation and growth displays, whose mark term
    carries its 3-SE inflation, plus that inflation."""
    d0, db = _pair_core(model, t, phi, psi)
    dj_sq, dj_err = _jump_delta_sq(model, t, phi, psi, *marks)
    jump = model.intensity * (dj_sq + dj_err)
    return ((2.0 * float(d0 @ db) + jump, float((d0 * d0).sum()), sup * sup),
            (float((db * db).sum()) + jump, 0.0, sup * sup)), dj_err


def _sides(terms, c):
    """Both sides of a display at the verdict constants ``c``.

    The constants name the form: ``declared`` the contraction (whose ``L``
    is the pair's ratio ``|dg|/sup``), ``alpha3`` a ratio display (``inf``
    marks a pair fitted as identical, whose ``R`` counts as 0), otherwise
    the two-constant dissipation display.
    """
    L, A, R = terms
    if "declared" in c:
        return L * R, c["declared"] * R
    if "alpha3" in c:
        return L, c["alpha3"] * R if c["alpha3"] < math.inf else 0.0
    return L, -c["alpha1"] * A + c["alpha2"] * R


def _witness(rows, terms, k, c) -> Witness:
    _, t, phi, psi, _ = rows[k]
    lhs, rhs = _sides(terms[k], c)
    return Witness(t, phi, psi, float(lhs), float(rhs))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _gather(sampler, trials):
    """The sampled pairs that differ, as ``(i, t, phi, psi, sup)`` rows
    carrying their uniform distance ``sup``.

    All pairs share one grid and kind, so the sups come from one
    ``(trials, k, n)`` difference block.  On a shared grid both kinds reach
    the sup at grid points, and a step segment's left limits there repeat
    its right values one point earlier, so each sup equals
    ``uniform_distance(phi, psi)`` exactly.
    """
    draws = list(sampler.draw(trials))
    segs = [seg for _, _, phi, psi in draws for seg in (phi, psi)]
    if not segs:
        raise DomainError("sampler produced no usable (distinct) pairs")
    first = segs[0]
    if (len({(seg.kind, seg.values.shape) for seg in segs}) != 1
            or not (np.stack([seg.grid for seg in segs]) == first.grid).all()):
        raise DomainError("sampled pairs must share one grid and kind")
    values = np.stack([seg.values for seg in segs])
    diff = values[0::2] - values[1::2]
    sups = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=-1)
    rows = [(i, t, phi, psi, float(sup))
            for (i, t, phi, psi), sup in zip(draws, sups) if sup > 0.0]
    if not rows:
        raise DomainError("sampler produced no usable (distinct) pairs")
    return rows


def _two_constant_verdict(check_id, rows, terms, trials, extra_constants,
                          notes=()):
    L, A, R = terms.T
    all_small = (max(np.abs(L).max(initial=0.0), np.max(A, initial=0.0),
                     np.max(R, initial=0.0)) < 1e-14)
    if all_small:
        consts = {"alpha1": 1.0, "alpha2": 0.5, **extra_constants}
        return Verdict(check_id, VerdictStatus.PASS_WITH_CONSTANTS, consts,
                       margin=1.0, trials=trials,
                       notes=notes + ("all sampled differences vanish; "
                                      "constants reported by convention",))
    a1, a2, hard = _fit_two_constants(L, A, R)
    if hard is not None:
        consts = {"alpha1": a1, "alpha2": a2, **extra_constants}
        wit = _witness(rows, terms, hard, consts)
        return Verdict(check_id, VerdictStatus.FAIL_WITH_WITNESS, consts,
                       margin=float(wit.lhs - wit.rhs), trials=trials,
                       witness=wit,
                       notes=notes + ("a sample violates the display at any "
                                      "constants",))
    note_extra = ()
    if 0.0 <= a2 <= 1e-4 * max(1.0, a1) and a1 > 0.0:
        # the delayed term never binds; any small alpha2 works, pick alpha1/2
        a2 = 0.5 * a1
        note_extra = ("delayed term never binds; alpha2 set to alpha1/2",)
    consts = {"alpha1": float(a1), "alpha2": float(a2), **extra_constants}
    lhs, rhs = _sides(terms.T, consts)
    slack = rhs - lhs
    binding = int(np.argmin(slack))
    if a1 > 0.0 and a2 > 0.0 and a1 > a2:
        return Verdict(check_id, VerdictStatus.PASS_WITH_CONSTANTS, consts,
                       margin=float(slack[binding]), trials=trials, witness=None,
                       notes=notes + note_extra)
    return Verdict(check_id, VerdictStatus.INCONCLUSIVE, consts,
                   margin=float(slack[binding]), trials=trials,
                   witness=_witness(rows, terms, binding, consts),
                   notes=notes + ("no sampled-feasible constants with "
                                  "alpha1 > alpha2 > 0",))


def check_drift_dissipation(model, sampler: SegmentPairSampler | None = None,
                            p_exp: float = 0.0, trials: int = 400) -> Verdict:
    """One-sided drift/diffusion dissipation with a delayed sup term.

    Display checked pathwise on sampled pairs:
    ``|d0|^p (2<d0, db> + ||dsig||_F^2) <= -a1 |d0|^(2+p)
    + a2 |d0|^p sup_theta |dtheta|^2``.
    """
    if model.model_class is not ModelClass.RETARDED:
        raise ModelContractError(
            "drift dissipation in this form applies to the retarded class; "
            "use the neutral or jump condition bundles for those classes")
    if p_exp < 0:
        raise DomainError("moment weight must be nonnegative")
    sampler = sampler or SegmentPairSampler.for_model(model)
    rows = _gather(sampler, trials)
    terms = np.array([_dissipation_terms(model, *row[1:], p_exp) for row in rows])
    return _two_constant_verdict("drift-dissipation", rows, terms, trials,
                                 {"p_exp": p_exp})


def _ratio_verdict(check_id, rows, terms, sampler, trials, extra_constants,
                   notes=()):
    L, R = terms[:, 0], terms[:, 2]
    ok, a3, worst = _fit_single_constant(L, R)
    if not ok:
        consts = {"alpha3": math.inf, **extra_constants}
        wit = _witness(rows, terms, worst, consts)
        return Verdict(check_id, VerdictStatus.FAIL_WITH_WITNESS, consts,
                       margin=float(wit.lhs - wit.rhs), trials=trials, witness=wit,
                       notes=notes + ("coefficient differs on a pair with "
                                      "identical segments",))
    if sampler.unbounded:
        blocks = np.array([sampler.block_of_trial(i, trials) for i, *_ in rows])
        block_max = np.zeros(sampler.n_radius_blocks)
        block_arg = np.full(sampler.n_radius_blocks, -1, dtype=int)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(R > 0, L / np.where(R > 0, R, 1.0), 0.0)
        for b in range(sampler.n_radius_blocks):
            m = blocks == b
            if m.any():
                block_max[b] = float(ratio[m].max())
                block_arg[b] = int(np.flatnonzero(m)[int(np.argmax(ratio[m]))])
        bottom, top = block_max[0], block_max[-1]
        grew = (bottom > 0 and top > _GROWTH_RATIO * bottom) or \
               (bottom <= 1e-12 < top)
        if grew:
            consts = {"alpha3": float(bottom * (1.0 + _FIT_MARGIN)),
                      **extra_constants}
            wit = _witness(rows, terms, block_arg[-1], consts)
            return Verdict(check_id, VerdictStatus.FAIL_WITH_WITNESS, consts,
                           margin=float(wit.lhs - wit.rhs), trials=trials,
                           witness=wit,
                           notes=notes + (
                               f"ratio grows with radius ({bottom:.3g} -> "
                               f"{top:.3g}); no global constant",))
        notes = notes + (f"ratio stable across radii {sampler.radius:g}.."
                         f"{sampler.radius * 2 ** (sampler.n_radius_blocks - 1):g}",)
    else:
        notes = notes + (f"local to sampler radius {sampler.radius:g}",)
    if a3 <= 0.0:
        return Verdict(check_id, VerdictStatus.PASS_WITH_CONSTANTS,
                       {"alpha3": 1.0, **extra_constants}, margin=1.0,
                       trials=trials,
                       notes=notes + ("coefficient differences vanish on all "
                                      "samples; constant by convention",))
    consts = {"alpha3": float(a3 * (1.0 + _FIT_MARGIN)), **extra_constants}
    lhs, rhs = _sides(terms.T, consts)
    return Verdict(check_id, VerdictStatus.PASS_WITH_CONSTANTS, consts,
                   margin=float(np.min(rhs - lhs)), trials=trials, notes=notes)


def check_diffusion_domination(model, sampler: SegmentPairSampler | None = None,
                               p_exp: float = 0.0, trials: int = 400) -> Verdict:
    """Diffusion increment domination by the delayed sup:
    ``||dsig||_F^(2+p) <= a3 sup_theta |dtheta|^(2+p)``."""
    if model.model_class is not ModelClass.RETARDED:
        raise ModelContractError(
            "diffusion domination in this form applies to the retarded class")
    if p_exp < 0:
        raise DomainError("moment weight must be nonnegative")
    sampler = sampler or SegmentPairSampler.for_model(model)
    rows = _gather(sampler, trials)
    terms = np.array([_domination_terms(model, *row[1:], p_exp) for row in rows])
    return _ratio_verdict("diffusion-domination", rows, terms, sampler, trials,
                          {"p_exp": p_exp})


def check_neutral_conditions(model, sampler: SegmentPairSampler | None = None,
                             trials: int = 400) -> tuple:
    """The neutral-class condition bundle: the contraction of the neutral
    map, dissipation through the drift-corrected difference, diffusion
    domination, and the composite rate gate ``alpha1 > alpha2/(1-2k)^2``.

    Returns the four verdicts in that order.  A neutral map that is
    constant on every sample is a class-contract violation (the model is
    really retarded) and raises instead.
    """
    if model.model_class is not ModelClass.NEUTRAL:
        raise ModelContractError("neutral condition bundle needs a neutral model")
    sampler = sampler or SegmentPairSampler.for_model(model)
    rows = _gather(sampler, trials)
    terms = np.array([_neutral_terms(model, *row[1:]) for row in rows])

    worst = int(np.argmax(terms[:, 0, 0]))
    kappa_hat = float(terms[worst, 0, 0])
    if kappa_hat < 1e-14:
        raise ModelContractError(
            "neutral map is constant on every sampled pair (fitted contraction "
            "0); declare the model as retarded instead")

    # ModelSpec holds the declared constant below 1/2, so a fitted kappa that
    # is no contraction at all exceeds it too
    declared = model.neutral_contraction
    if kappa_hat > declared + 1e-9:
        consts = {"kappa": kappa_hat, "declared": declared}
        kap_verdict = Verdict(
            "neutral-contraction", VerdictStatus.FAIL_WITH_WITNESS, consts,
            margin=float(kappa_hat - declared), trials=trials,
            witness=_witness(rows, terms[:, 0], worst, consts),
            notes=("sampled contraction exceeds the declared constant",))
    else:
        kap_verdict = Verdict(
            "neutral-contraction", VerdictStatus.PASS_WITH_CONSTANTS,
            {"kappa": kappa_hat}, margin=float(1.0 - kappa_hat), trials=trials)

    drift_verdict = _two_constant_verdict(
        "neutral-drift-dissipation", rows, terms[:, 1], trials, {})
    diff_verdict = _ratio_verdict("neutral-diffusion-domination", rows,
                                  terms[:, 2], sampler, trials, {})

    a1 = drift_verdict.constants.get("alpha1", 0.0)
    a2 = drift_verdict.constants.get("alpha2", 0.0)
    gate_consts = {"kappa": kappa_hat, "alpha1": a1, "alpha2": a2}
    if kappa_hat >= 0.5 - 1e-12:
        gate = Verdict("neutral-rate-gate", VerdictStatus.FAIL_WITH_WITNESS,
                       gate_consts, margin=float(0.5 - kappa_hat), trials=trials,
                       notes=("violated: kappa < 1/2 required for the decay "
                              "gate, fitted kappa = %.6g" % kappa_hat,))
    else:
        threshold = a2 / (1.0 - 2.0 * kappa_hat) ** 2
        gate_consts["threshold"] = threshold
        if a1 > threshold + _FIT_MARGIN * max(1.0, abs(threshold)):
            gate = Verdict("neutral-rate-gate", VerdictStatus.PASS_WITH_CONSTANTS,
                           gate_consts, margin=float(a1 - threshold),
                           trials=trials)
        else:
            gate = Verdict("neutral-rate-gate", VerdictStatus.FAIL_WITH_WITNESS,
                           gate_consts, margin=float(a1 - threshold),
                           trials=trials,
                           notes=("violated: alpha1 <= alpha2/(1-2*kappa)^2 "
                                  "= %.6g" % threshold,))
    return kap_verdict, drift_verdict, diff_verdict, gate


def check_jump_conditions(model, sampler: SegmentPairSampler | None = None,
                          trials: int = 400, mark_samples: int = 256) -> tuple:
    """The jump-class condition bundle: drift-plus-jump dissipation and the
    joint growth domination, with mark integrals taken exactly on finitely
    supported laws and by deterministic Monte Carlo otherwise (margins then
    inflated by three mark standard errors).

    Returns (dissipation verdict, growth verdict).
    """
    if model.model_class is not ModelClass.JUMP:
        raise ModelContractError("jump condition bundle needs a jump model")
    if mark_samples < 1:
        raise DomainError(f"mark_samples must be >= 1, got {mark_samples!r}")
    sampler = sampler or SegmentPairSampler.for_model(model)
    rows = _gather(sampler, trials)
    marks = _mark_nodes(model, mark_samples, sampler.seed)
    pair_terms, errs = zip(*(_jump_terms(model, *row[1:], marks) for row in rows))
    terms = np.array(pair_terms)

    exact = marks[2]
    if exact:
        notes = ("mark integrals exact (finitely supported law)",)
    else:
        notes = (f"mark integrals by deterministic Monte Carlo over "
                 f"{int(mark_samples)} draws"
                 + ("; margins inflated by 3 mark SEs" if max(errs) > 0 else ""),)
    extra = {"intensity": model.intensity, "mark_samples": int(mark_samples),
             "mark_seed": int(sampler.seed), "marks_exact": exact}
    diss = _two_constant_verdict("jump-drift-dissipation", rows, terms[:, 0],
                                 trials, extra, notes=notes)
    growth = _ratio_verdict("jump-growth-domination", rows, terms[:, 1],
                            sampler, trials, extra, notes=notes)
    return diss, growth


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------

def _jump_displays(model, pair, c):
    marks = _mark_nodes(model, c["mark_samples"], c["mark_seed"])
    return _jump_terms(model, *pair, marks)[0]


# check id -> terms of its display on a witness pair ``(t, phi, psi, sup)``,
# given the verdict constants
_DISPLAYS = {
    "drift-dissipation": lambda m, w, c: _dissipation_terms(m, *w, c["p_exp"]),
    "diffusion-domination": lambda m, w, c: _domination_terms(m, *w, c["p_exp"]),
    "neutral-contraction": lambda m, w, c: _neutral_terms(m, *w)[0],
    "neutral-drift-dissipation": lambda m, w, c: _neutral_terms(m, *w)[1],
    "neutral-diffusion-domination": lambda m, w, c: _neutral_terms(m, *w)[2],
    "jump-drift-dissipation": lambda m, w, c: _jump_displays(m, w, c)[0],
    "jump-growth-domination": lambda m, w, c: _jump_displays(m, w, c)[1],
}


def replay_witness(model, verdict: Verdict) -> dict:
    """Recompute both sides of a verdict's display on its stored witness.

    Returns ``{"lhs", "rhs", "violation", "violated"}``.  The sides are
    evaluated by the same terms and formula as the check, so they equal the
    stored ``witness.lhs`` and ``witness.rhs`` exactly, and a
    FailWithWitness verdict replays as violated.
    """
    wit = verdict.witness
    if wit is None:
        raise DomainError(f"verdict {verdict.check!r} carries no witness")
    display = _DISPLAYS.get(verdict.check)
    if display is None:
        raise DomainError(f"unknown check id {verdict.check!r}")
    pair = (wit.t, wit.phi, wit.psi, uniform_distance(wit.phi, wit.psi))
    lhs, rhs = _sides(display(model, pair, verdict.constants), verdict.constants)
    violation = lhs - rhs
    return {"lhs": float(lhs), "rhs": float(rhs),
            "violation": float(violation),
            "violated": bool(violation > 1e-12 * max(1.0, abs(lhs), abs(rhs)))}
