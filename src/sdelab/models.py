"""Model specifications for the three delay-equation classes.

A ``ModelSpec`` bundles the coefficient maps of one equation:

* retarded:  dX = b(t, X_t) dt + sigma(t, X_t) dW
* neutral:   d{X - G(X_t)} = b(X_t) dt + sigma(X_t) dW, with G a contraction
* jump:      dX = b(t, X_t) dt + compensated compound-Poisson jumps

Coefficients take the running segment (anything implementing ``zero()`` /
``eval(theta)`` / ``sup_norm()``) and return length-n vectors.  The built-in
families are written with broadcasting, so one call on a block of paths,
whose reads return one row per path, returns one row per path (the jump
coefficient then takes its marks as a column); the vectorized ensemble
kernels call them that way.  Their structural descriptor marks them for
those kernels and for the analytic rate calculators.  Hand-rolled
coefficient maps work everywhere through the generic per-path engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, ModelContractError

__all__ = [
    "ModelClass",
    "PointConstant",
    "PointVariable",
    "Distributed",
    "delay_atoms",
    "delayed_value",
    "MarkLaw",
    "UniformSigns",
    "UniformInterval",
    "GaussianMarks",
    "ConstantMark",
    "DiscreteMarks",
    "ModelSpec",
    "linear_retarded",
    "neutral_linear",
    "jump_linear",
]


class ModelClass(Enum):
    RETARDED = "retarded"
    NEUTRAL = "neutral"
    JUMP = "jump"


# ---------------------------------------------------------------------------
# delay structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointConstant:
    """Fixed lag: the coefficient reads the segment at ``-lag``."""

    lag: float

    def __post_init__(self):
        if self.lag < 0:
            raise DomainError("lag must be >= 0")


@dataclass(frozen=True)
class PointVariable:
    """Time-dependent lag ``delta(t)``; values are range-checked at evaluation."""

    delta: Callable[[float], float]


@dataclass(frozen=True)
class Distributed:
    """Finitely many atoms in [-tau, 0] with nonnegative weights summing to 1."""

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) != len(weights) or not atoms:
            raise DomainError("atoms and weights must be matching nonempty tuples")
        if any(a > 0 for a in atoms):
            raise DomainError("delay atoms must be <= 0")
        if any(w < 0 for w in weights):
            raise DomainError("delay weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise DomainError("delay weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)


DelaySpec = PointConstant | PointVariable | Distributed


def delay_atoms(delay: DelaySpec) -> tuple:
    """Segment offsets a constant delay structure reads (empty for variable)."""
    if isinstance(delay, PointConstant):
        return (-delay.lag,)
    if isinstance(delay, Distributed):
        return tuple(delay.atoms)
    return ()


def delayed_value(seg, t: float, delay: DelaySpec, tau: float) -> np.ndarray:
    """Evaluate the delayed read of ``seg`` at time ``t``."""
    if isinstance(delay, PointConstant):
        return seg.eval(-delay.lag)
    if isinstance(delay, PointVariable):
        d = float(delay.delta(t))
        if d < -1e-12 or d > tau + 1e-12:
            raise DomainError(f"variable delay {d!r} outside [0, tau] at t={t!r}")
        return seg.eval(-min(max(d, 0.0), tau))
    acc = delay.weights[0] * seg.eval(delay.atoms[0])
    for a, w in zip(delay.atoms[1:], delay.weights[1:]):
        acc = acc + w * seg.eval(a)
    return acc


# ---------------------------------------------------------------------------
# mark laws (finite-activity jumps: intensity * normalized mark law)
# ---------------------------------------------------------------------------

class MarkLaw:
    """A scalar mark distribution sampled by inverse transform of one uniform.

    Subclasses provide exact first/second moments where they exist in closed
    form; the engine relies on ``from_uniform`` so that mark draws stay
    addressable in the counter-based noise stream.
    """

    exact_moments = True

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def support(self):
        """(atoms, weights) for finitely supported laws, else None.

        Lets mark integrals be computed as exact finite sums instead of
        Monte Carlo where possible.
        """
        return None


@dataclass(frozen=True)
class UniformSigns(MarkLaw):
    """Marks +1 / -1 with equal probability."""

    def from_uniform(self, u):
        return np.where(np.asarray(u) < 0.5, -1.0, 1.0)

    def support(self):
        return (-1.0, 1.0), (0.5, 0.5)

    def mean(self):
        return 0.0

    def second_moment(self):
        return 1.0


@dataclass(frozen=True)
class UniformInterval(MarkLaw):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise DomainError("need hi > lo")

    def from_uniform(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def second_moment(self):
        m = self.mean()
        return m * m + (self.hi - self.lo) ** 2 / 12.0


@dataclass(frozen=True)
class GaussianMarks(MarkLaw):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")

    def from_uniform(self, u):
        return self.mu + self.sigma * ndtri(np.asarray(u))

    def mean(self):
        return self.mu

    def second_moment(self):
        return self.mu ** 2 + self.sigma ** 2


@dataclass(frozen=True)
class ConstantMark(MarkLaw):
    value: float = 1.0

    def from_uniform(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.value)

    def mean(self):
        return self.value

    def second_moment(self):
        return self.value ** 2

    def support(self):
        return (self.value,), (1.0,)


@dataclass(frozen=True)
class DiscreteMarks(MarkLaw):
    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) != len(weights) or not atoms:
            raise DomainError("atoms and weights must match")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise DomainError("weights must be a probability vector")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def from_uniform(self, u):
        edges = np.cumsum(self.weights)
        idx = np.searchsorted(edges, np.asarray(u), side="right")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return np.asarray(self.atoms, dtype=float)[idx]

    def mean(self):
        return float(sum(a * w for a, w in zip(self.atoms, self.weights)))

    def second_moment(self):
        return float(sum(a * a * w for a, w in zip(self.atoms, self.weights)))

    def support(self):
        return self.atoms, self.weights


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One delay equation, ready for the engine.

    ``drift(t, seg)`` and ``diffusion(t, seg)`` return shape ``(n,)`` and
    ``(n, m)``.  Neutral models carry the functional ``neutral_map(seg)`` and
    its declared contraction constant.  Jump models carry the per-mark
    coefficient ``jump_coeff(t, seg, z)``, the intensity, the mark law, and
    the exact compensator map ``jump_compensator(t, seg)`` (the drift
    correction ``intensity * E_mark[jump_coeff]``).
    """

    model_class: ModelClass
    dim: int
    brownian_dim: int
    tau: float
    drift: Callable
    diffusion: Callable | None = None
    delay: DelaySpec | None = None
    neutral_map: Callable | None = None
    neutral_contraction: float | None = None
    jump_coeff: Callable | None = None
    jump_compensator: Callable | None = None
    jump_second_moment: Callable | None = None
    intensity: float = 0.0
    mark_law: MarkLaw | None = None
    descriptor: object = None

    def __post_init__(self):
        if self.dim < 1 or self.tau <= 0:
            raise DomainError("need dim >= 1 and tau > 0")
        if self.model_class is ModelClass.NEUTRAL:
            if self.neutral_map is None or self.neutral_contraction is None:
                raise ModelContractError("neutral models need neutral_map and its contraction constant")
            if not (0 < self.neutral_contraction < 0.5):
                raise ModelContractError("neutral contraction constant must lie in (0, 1/2)")
        if self.model_class is ModelClass.JUMP:
            if self.jump_coeff is None or self.mark_law is None:
                raise ModelContractError("jump models need jump_coeff and a mark law")
            if self.intensity < 0:
                raise ModelContractError("jump intensity must be >= 0")
            if self.jump_compensator is None:
                raise ModelContractError("jump models need the compensator map")


def _sigma_matrix(sigma0, n: int):
    s = np.asarray(sigma0, dtype=float)
    if s.ndim == 0:
        s = s * np.eye(n)
    elif s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] != n:
        raise DomainError("sigma0 must broadcast to an (n, m) matrix")
    s = s.copy()
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class LinearRetardedDescriptor:
    a: float
    b_lag: float
    sigma0: np.ndarray
    delay: DelaySpec


@dataclass(frozen=True)
class NeutralLinearDescriptor:
    kappa: float
    a: float
    b_lag: float
    sigma0: np.ndarray
    delay: DelaySpec


@dataclass(frozen=True)
class JumpLinearDescriptor:
    a: float
    b_lag: float
    jump_scale: float
    intensity: float
    delay: DelaySpec
    saturating: bool


def linear_retarded(a: float, b_lag: float, sigma0, delay: DelaySpec, tau: float,
                    dim: int = 1) -> ModelSpec:
    """dX = (-a X(t) + b_lag * delayed read) dt + sigma0 dW, a > 0.

    The workhorse test model: completing the square in the one-sided drift
    estimate gives the dissipation pair (2a - b_lag, b_lag), so the analytic
    decay machinery applies whenever a > b_lag > 0.
    """
    if a <= 0:
        raise DomainError("need a > 0")
    _check_delay_in_window(delay, tau)
    sig = _sigma_matrix(sigma0, dim)

    def drift(t, seg, _a=a, _b=b_lag, _d=delay, _tau=tau):
        return -_a * seg.zero() + _b * delayed_value(seg, t, _d, _tau)

    def diffusion(t, seg, _s=sig):
        return _s

    return ModelSpec(
        model_class=ModelClass.RETARDED, dim=dim, brownian_dim=sig.shape[1], tau=tau,
        drift=drift, diffusion=diffusion, delay=delay,
        descriptor=LinearRetardedDescriptor(a, b_lag, sig, delay),
    )


def neutral_linear(kappa: float, delay: DelaySpec, a: float, b_lag: float, sigma0,
                   tau: float, dim: int = 1) -> ModelSpec:
    """Neutral model with G(phi) = kappa * (delayed read of phi).

    ``delay`` drives both G and the drift's delayed term.  A variable lag is
    rejected for G: the neutral functional takes a segment alone, so a
    time-dependent lag is not expressible in this autonomous setup.
    """
    if not (0 < kappa < 0.5):
        raise DomainError("kappa must lie in (0, 1/2)")
    if isinstance(delay, PointVariable):
        raise ModelContractError("neutral map cannot use a time-variable lag")
    if a <= 0:
        raise DomainError("need a > 0")
    _check_delay_in_window(delay, tau)
    sig = _sigma_matrix(sigma0, dim)

    def neutral_map(seg, _k=kappa, _d=delay, _tau=tau):
        return _k * delayed_value(seg, 0.0, _d, _tau)

    def drift(t, seg, _a=a, _b=b_lag, _d=delay, _tau=tau):
        return -_a * seg.zero() + _b * delayed_value(seg, t, _d, _tau)

    def diffusion(t, seg, _s=sig):
        return _s

    return ModelSpec(
        model_class=ModelClass.NEUTRAL, dim=dim, brownian_dim=sig.shape[1], tau=tau,
        drift=drift, diffusion=diffusion, delay=delay,
        neutral_map=neutral_map, neutral_contraction=kappa,
        descriptor=NeutralLinearDescriptor(kappa, a, b_lag, sig, delay),
    )


def jump_linear(a: float, b_lag: float, jump_scale: float, intensity: float,
                mark_law: MarkLaw, delay: DelaySpec, tau: float, dim: int = 1,
                saturating: bool = False) -> ModelSpec:
    """Jump model: linear drift plus compensated compound-Poisson jumps.

    Default jump coefficient is the pure additive ``jump_scale * z`` in every
    coordinate; with ``saturating=True`` it is modulated by ``1 + |phi(0)|``.
    The compensator and mark second moment are exact in the mark law's
    moments.
    """
    if a <= 0:
        raise DomainError("need a > 0")
    if intensity < 0:
        raise DomainError("intensity must be >= 0")
    _check_delay_in_window(delay, tau)
    ones = np.ones(dim)
    ones.setflags(write=False)

    def drift(t, seg, _a=a, _b=b_lag, _d=delay, _tau=tau):
        return -_a * seg.zero() + _b * delayed_value(seg, t, _d, _tau)

    if saturating:
        def jump_coeff(t, seg, z, _s=jump_scale, _e=ones):
            return _s * z * _saturation(seg) * _e

        def compensator(t, seg, _lam=intensity, _s=jump_scale, _m=mark_law.mean(), _e=ones):
            return _lam * _s * _m * _saturation(seg) * _e

        def second_moment(t, seg, _lam=intensity, _s=jump_scale, _m2=mark_law.second_moment(),
                          _n=dim):
            amp = 1.0 + np.sqrt((seg.zero() ** 2).sum(axis=-1))
            return _lam * (_s * amp) ** 2 * _m2 * _n
    else:
        def jump_coeff(t, seg, z, _s=jump_scale, _e=ones):
            return _s * z * _e

        def compensator(t, seg, _lam=intensity, _s=jump_scale, _m=mark_law.mean(), _e=ones):
            return _lam * _s * _m * _e

        def second_moment(t, seg, _lam=intensity, _s=jump_scale, _m2=mark_law.second_moment(),
                          _n=dim):
            return _lam * _s ** 2 * _m2 * _n

    return ModelSpec(
        model_class=ModelClass.JUMP, dim=dim, brownian_dim=0, tau=tau,
        drift=drift, diffusion=None, delay=delay,
        jump_coeff=jump_coeff, jump_compensator=compensator,
        jump_second_moment=second_moment,
        intensity=intensity, mark_law=mark_law,
        descriptor=JumpLinearDescriptor(a, b_lag, jump_scale, intensity, delay, saturating),
    )


def _saturation(seg):
    """``1 + |phi(0)|`` of each row of ``seg``, as a column (shape ``(1,)``
    for one path), so a mark column ``z`` scales its own row."""
    return 1.0 + np.sqrt((seg.zero() ** 2).sum(axis=-1, keepdims=True))


def _check_delay_in_window(delay: DelaySpec, tau: float):
    if tau <= 0:
        raise DomainError("tau must be positive")
    if isinstance(delay, PointConstant) and delay.lag > tau + 1e-12:
        raise DomainError("point lag exceeds the window length tau")
    if isinstance(delay, Distributed) and any(a < -tau - 1e-12 for a in delay.atoms):
        raise DomainError("distributed delay atom outside [-tau, 0]")
