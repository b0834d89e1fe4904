"""Coefficient bundles: delay reads, mark laws, builder contracts."""

import numpy as np
import pytest

from sdelab import (
    ConstantMark,
    DiscreteMarks,
    Distributed,
    DomainError,
    GaussianMarks,
    ModelClass,
    ModelContractError,
    ModelSpec,
    PointConstant,
    PointVariable,
    Segment,
    UniformInterval,
    UniformSigns,
    delay_atoms,
    delayed_value,
    jump_linear,
    linear_retarded,
    neutral_linear,
)

from sdelab.engine import _UniformSegView

TWO_ATOM = Distributed(atoms=(-1.0, 0.0), weights=(0.5, 0.5))


def ramp(tau=1.0):
    return Segment.from_function(lambda th: th, tau, 11)


# -- delay structures ----------------------------------------------------------

def test_point_constant_reads_fixed_offset():
    seg = ramp()
    np.testing.assert_allclose(delayed_value(seg, 3.0, PointConstant(0.25), 1.0), [-0.25])


def test_point_variable_reads_time_dependent_offset():
    seg = ramp()
    dl = PointVariable(lambda t: 0.5 + 0.4 * np.sin(t))
    np.testing.assert_allclose(delayed_value(seg, 0.0, dl, 1.0), [-0.5])
    t = 1.3
    np.testing.assert_allclose(delayed_value(seg, t, dl, 1.0),
                               [-(0.5 + 0.4 * np.sin(t))])


def test_point_variable_out_of_window_is_domain_error():
    seg = ramp()
    with pytest.raises(DomainError):
        delayed_value(seg, 0.0, PointVariable(lambda t: 1.5), 1.0)
    with pytest.raises(DomainError):
        delayed_value(seg, 0.0, PointVariable(lambda t: -0.1), 1.0)


def test_distributed_two_atom_average():
    seg = ramp()
    # mu = (delta_{-tau} + delta_0)/2 reads (phi(-tau) + phi(0))/2
    np.testing.assert_allclose(delayed_value(seg, 0.0, TWO_ATOM, 1.0), [-0.5])


def test_distributed_validation():
    with pytest.raises(DomainError):
        Distributed(atoms=(-0.5,), weights=(0.9,))  # weights must sum to 1
    with pytest.raises(DomainError):
        Distributed(atoms=(0.5,), weights=(1.0,))  # atoms must be <= 0
    with pytest.raises(DomainError):
        Distributed(atoms=(-0.5, -0.2), weights=(1.0,))


def test_delay_atoms():
    assert delay_atoms(PointConstant(0.3)) == (-0.3,)
    assert delay_atoms(TWO_ATOM) == (-1.0, 0.0)
    assert delay_atoms(PointVariable(lambda t: 0.5)) == ()


# -- mark laws -------------------------------------------------------------

def test_uniform_signs_law():
    law = UniformSigns()
    u = np.array([0.1, 0.49, 0.5, 0.99])
    np.testing.assert_array_equal(law.from_uniform(u), [-1.0, -1.0, 1.0, 1.0])
    assert law.mean() == 0.0
    assert law.second_moment() == 1.0
    atoms, weights = law.support()
    assert sorted(atoms) == [-1.0, 1.0]
    np.testing.assert_allclose(weights, [0.5, 0.5])


def test_uniform_interval_moments_match_samples():
    law = UniformInterval(-0.5, 1.5)
    u = (np.arange(10**5) + 0.5) / 10**5
    z = law.from_uniform(u)
    assert law.mean() == pytest.approx(z.mean(), abs=1e-6)
    assert law.second_moment() == pytest.approx((z**2).mean(), rel=1e-6)
    assert law.support() is None


def test_gaussian_marks_moments():
    law = GaussianMarks(0.3, 2.0)
    assert law.mean() == 0.3
    assert law.second_moment() == pytest.approx(2.0**2 + 0.3**2)
    u = (np.arange(10**5) + 0.5) / 10**5
    z = law.from_uniform(u)
    assert z.mean() == pytest.approx(0.3, abs=1e-3)
    assert law.support() is None


def test_constant_mark():
    law = ConstantMark(2.5)
    np.testing.assert_array_equal(law.from_uniform(np.array([0.1, 0.9])), [2.5, 2.5])
    assert law.mean() == 2.5
    assert law.second_moment() == 2.5**2
    atoms, weights = law.support()
    np.testing.assert_allclose(atoms, [2.5])
    np.testing.assert_allclose(weights, [1.0])


def test_discrete_marks():
    law = DiscreteMarks(atoms=(-2.0, 0.0, 3.0), weights=(0.5, 0.25, 0.25))
    assert law.mean() == pytest.approx(-2.0 * 0.5 + 3.0 * 0.25)
    assert law.second_moment() == pytest.approx(4.0 * 0.5 + 9.0 * 0.25)
    u = np.array([0.0, 0.49, 0.5, 0.74, 0.75, 0.999])
    np.testing.assert_array_equal(law.from_uniform(u), [-2.0, -2.0, 0.0, 0.0, 3.0, 3.0])
    with pytest.raises(DomainError):
        DiscreteMarks(atoms=(1.0,), weights=(0.5,))


# -- builders ----------------------------------------------------------------

def test_linear_retarded_drift_reads():
    m = linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)
    seg = Segment(Segment.constant(0.0, 1.0).kind, np.array([-1.0, 0.0]),
                  np.array([2.0, 5.0]))
    # drift = -a phi(0) + b phi(-1) = -15 + 2
    np.testing.assert_allclose(m.drift(0.0, seg), [-13.0])
    np.testing.assert_allclose(m.diffusion(0.0, seg), [[0.5]])
    assert m.model_class is ModelClass.RETARDED
    assert m.brownian_dim == 1


def test_linear_retarded_needs_positive_a():
    with pytest.raises(DomainError):
        linear_retarded(0.0, 1.0, 0.5, PointConstant(1.0), 1.0)


def test_lag_longer_than_window_rejected():
    with pytest.raises(DomainError):
        linear_retarded(1.0, 0.5, 0.1, PointConstant(2.0), 1.0)


def test_neutral_linear_contract():
    m = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
    assert m.model_class is ModelClass.NEUTRAL
    assert m.neutral_contraction == 0.25
    seg = ramp()
    # G(phi) = 0.25 phi(-tau)
    np.testing.assert_allclose(m.neutral_map(seg), [0.25 * -1.0])
    # G(0) = 0
    np.testing.assert_allclose(m.neutral_map(Segment.constant(0.0, 1.0)), [0.0])


def test_neutral_kappa_range_enforced():
    for kappa in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            neutral_linear(kappa, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)


def test_neutral_rejects_variable_lag():
    with pytest.raises(ModelContractError):
        neutral_linear(0.25, PointVariable(lambda t: 0.5), 3.0, 0.5, 0.5, 1.0)


def test_neutral_g_lipschitz_bound_sampled():
    # |G(phi) - G(psi)| <= kappa ||phi - psi||_sup on 1e4 random pairs,
    # for the two-atom distributed G
    kappa = 0.3
    m = neutral_linear(kappa, TWO_ATOM, 3.0, 0.5, 0.5, 1.0)
    rng = np.random.default_rng(99)
    grid = np.linspace(-1.0, 0.0, 9)
    for _ in range(10**4):
        va = rng.uniform(-3, 3, 9)
        vb = rng.uniform(-3, 3, 9)
        phi = Segment(ramp().kind, grid, va)
        psi = Segment(ramp().kind, grid, vb)
        lhs = float(np.abs(m.neutral_map(phi) - m.neutral_map(psi)).max())
        assert lhs <= kappa * np.abs(va - vb).max() + 1e-12


def test_jump_linear_structure():
    m = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    assert m.model_class is ModelClass.JUMP
    assert m.brownian_dim == 0
    assert m.diffusion is None
    assert m.intensity == 2.0
    seg = Segment.constant(4.0, 1.0)
    np.testing.assert_allclose(m.jump_coeff(0.0, seg, 1.0), [0.3])
    np.testing.assert_allclose(m.jump_coeff(0.0, seg, -1.0), [-0.3])


def test_additive_symmetric_marks_have_zero_compensator():
    m = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0)
    seg = Segment.constant(7.0, 1.0)
    np.testing.assert_allclose(m.jump_compensator(0.0, seg), [0.0])
    # drift therefore coincides with the plain retarded drift
    ret = linear_retarded(3.0, 1.0, 0.0, PointConstant(1.0), 1.0)
    probe = Segment(ramp().kind, np.array([-1.0, 0.0]), np.array([2.0, -1.0]))
    np.testing.assert_allclose(m.drift(0.0, probe), ret.drift(0.0, probe))


def test_compensator_tracks_mark_mean():
    lam, scale = 2.0, 0.3
    m = jump_linear(3.0, 1.0, scale, lam, ConstantMark(1.5), PointConstant(1.0), 1.0)
    seg = Segment.constant(0.0, 1.0)
    np.testing.assert_allclose(m.jump_compensator(0.0, seg), [lam * scale * 1.5])


def test_saturating_jump_coefficient():
    m = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(), PointConstant(1.0), 1.0,
                    saturating=True)
    seg = Segment.constant(4.0, 1.0)
    np.testing.assert_allclose(m.jump_coeff(0.0, seg, 1.0), [0.3 * (1.0 + 4.0)])
    # second moment map scales with the squared amplitude
    assert m.jump_second_moment(0.0, seg) == pytest.approx(2.0 * (0.3 * 5.0) ** 2)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("saturating", [False, True], ids=["additive", "saturating"])
def test_jump_closures_on_rows_equal_row_calls(saturating, dim):
    # a block view reads one row per path and the marks come as a column;
    # each row must get exactly what a call on that path alone returns
    m = jump_linear(3.0, 1.0, 0.3, 2.0, GaussianMarks(0.2, 1.0), PointConstant(1.0), 1.0,
                    dim=dim, saturating=saturating)
    rng = np.random.default_rng(11)
    block = rng.normal(size=(5, 11, dim)) * 3.0
    zs = rng.normal(size=5)
    view = _UniformSegView(block, 0.1, 1.0, 10)
    rows = [_UniformSegView(block[r], 0.1, 1.0, 10) for r in range(5)]
    coeff = m.jump_coeff(0.0, view, zs[:, None])
    assert coeff.shape == (5, dim)
    assert np.array_equal(coeff, np.stack([m.jump_coeff(0.0, row, float(z))
                                           for row, z in zip(rows, zs)]))
    comp = np.broadcast_to(m.jump_compensator(0.0, view), (5, dim))
    assert np.array_equal(comp, np.stack([m.jump_compensator(0.0, row) for row in rows]))
    second = np.broadcast_to(m.jump_second_moment(0.0, view), (5,))
    assert np.array_equal(second, [m.jump_second_moment(0.0, row) for row in rows])


def test_model_spec_class_requirements():
    drift = lambda t, seg: -seg.zero()
    with pytest.raises(ModelContractError):
        ModelSpec(model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
                  drift=drift, diffusion=lambda t, s: np.eye(1))
    with pytest.raises(ModelContractError):
        ModelSpec(model_class=ModelClass.JUMP, dim=1, brownian_dim=0, tau=1.0,
                  drift=drift)
    with pytest.raises(DomainError):
        ModelSpec(model_class=ModelClass.RETARDED, dim=0, brownian_dim=1, tau=1.0,
                  drift=drift)


def test_neutral_contraction_must_be_declared_in_range():
    drift = lambda t, seg: -seg.zero()
    with pytest.raises(ModelContractError):
        ModelSpec(model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
                  drift=drift, diffusion=lambda t, s: np.eye(1),
                  neutral_map=lambda seg: 0.6 * seg.eval(-1.0),
                  neutral_contraction=0.6)


def test_sigma_matrix_broadcasting():
    m = linear_retarded(1.0, 0.0, 2.0, PointConstant(1.0), 1.0, dim=3)
    seg = Segment.constant([1.0, 1.0, 1.0], 1.0)
    np.testing.assert_allclose(m.diffusion(0.0, seg), 2.0 * np.eye(3))
    assert m.brownian_dim == 3
