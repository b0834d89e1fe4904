"""Tests for the coefficient-condition checkers.

Covers the segment-pair sampler contract, the three per-class condition
bundles (drift dissipation / diffusion domination for the retarded class,
the neutral contraction-and-gate bundle, the jump bundle with exact and
Monte Carlo mark integrals), witness replay, and verdict serialization.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from sdelab import (
    DiscreteMarks,
    DomainError,
    GaussianMarks,
    ModelClass,
    ModelContractError,
    ModelSpec,
    PointConstant,
    Segment,
    SegmentKind,
    SegmentPairSampler,
    UniformSigns,
    Verdict,
    VerdictStatus,
    check_diffusion_domination,
    check_drift_dissipation,
    check_jump_conditions,
    check_neutral_conditions,
    jump_linear,
    linear_retarded,
    neutral_linear,
    replay_witness,
    uniform_distance,
)
from sdelab.conditions import _gather


def stable_linear():
    """dX = (-3 X(t) + X(t-1)) dt + 0.5 dW: inside the dissipation region."""
    return linear_retarded(3.0, 1.0, 0.5, PointConstant(1.0), 1.0)


def lagged_sigma_model(scale=0.3):
    """Drift -X(t), diffusion scale * X(t - tau)."""
    return ModelSpec(
        model_class=ModelClass.RETARDED,
        dim=1,
        brownian_dim=1,
        tau=1.0,
        drift=lambda t, seg: -seg.eval(0.0),
        diffusion=lambda t, seg: scale * seg.eval(-1.0).reshape(1, 1),
    )


def quadratic_sigma_model():
    """Diffusion X(t)^2: locally Lipschitz but with no global constant."""
    return ModelSpec(
        model_class=ModelClass.RETARDED,
        dim=1,
        brownian_dim=1,
        tau=1.0,
        drift=lambda t, seg: -seg.eval(0.0),
        diffusion=lambda t, seg: (seg.eval(0.0) ** 2).reshape(1, 1),
    )


def _outrun_neutral_model():
    """A neutral map of contraction 0.6 declared as 0.3."""
    return ModelSpec(
        model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
        drift=lambda t, seg: -3.0 * seg.eval(0.0),
        diffusion=lambda t, seg: np.array([[0.5]]),
        neutral_map=lambda seg: 0.6 * seg.eval(-1.0),
        neutral_contraction=0.3)


def _sign_model():
    """Coefficients that jump across 0: no constant holds on a straddling pair."""
    return ModelSpec(
        model_class=ModelClass.RETARDED, dim=1, brownian_dim=1, tau=1.0,
        drift=lambda t, seg: 1e6 * np.sign(seg.eval(0.0)),
        diffusion=lambda t, seg: np.sign(seg.eval(0.0)).reshape(1, 1))


def _fixed_pair_sampler(phi_values, psi_values):
    """A sampler whose every trial is the same pair of 3-node segments on
    [-1, 0] at t = 0."""
    class FixedPair(SegmentPairSampler):
        def draw(self, n):
            grid = np.linspace(-self.tau, 0.0, 3)
            for i in range(int(n)):
                yield (i, 0.0,
                       Segment(self.kind, grid, np.reshape(phi_values, (3, 1))),
                       Segment(self.kind, grid, np.reshape(psi_values, (3, 1))))

    return FixedPair(tau=1.0)


# ---------------------------------------------------------------------------
# sampler contract
# ---------------------------------------------------------------------------

class TestSegmentPairSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            SegmentPairSampler(tau=0.0)
        with pytest.raises(DomainError):
            SegmentPairSampler(tau=-1.0)
        with pytest.raises(DomainError):
            SegmentPairSampler(tau=1.0, radius=0.0)
        with pytest.raises(DomainError):
            SegmentPairSampler(tau=1.0, important_thetas=(-1.5,))
        with pytest.raises(DomainError):
            SegmentPairSampler(tau=1.0, important_thetas=(0.25,))

    def test_grid_covers_window_and_nominated_offsets(self):
        sampler = SegmentPairSampler(tau=2.0, n_grid=9,
                                     important_thetas=(-0.3, -1.7))
        _, _, phi, _ = next(iter(sampler.draw(1)))
        grid = phi.grid
        assert grid[0] == -2.0 and grid[-1] == 0.0
        for theta in (-0.3, -1.7):
            assert np.isclose(np.abs(grid - theta).min(), 0.0, atol=1e-12)

    def test_draw_is_deterministic_and_extends(self):
        sampler = SegmentPairSampler(tau=1.0, seed=7)
        first = list(sampler.draw(8))
        again = list(sampler.draw(8))
        longer = list(sampler.draw(16))[:8]
        for (i1, t1, p1, q1), (i2, t2, p2, q2) in zip(first, again):
            assert i1 == i2 and t1 == t2
            assert np.array_equal(p1.values, p2.values)
            assert np.array_equal(q1.values, q2.values)
        # a bounded sampler's trial i depends only on (seed, i), so asking
        # for more trials extends the stream instead of reshuffling it
        for (i1, t1, p1, q1), (i2, t2, p2, q2) in zip(first, longer):
            assert i1 == i2 and t1 == t2
            assert np.array_equal(p1.values, p2.values)
        # an unbounded sampler sets trial i's radius by its block, which
        # depends on n: the trial keeps its t and value family, and its
        # values scale with the block's radius (a power of two, so exactly)
        sampler = SegmentPairSampler(tau=1.0, seed=3, unbounded=True)
        first = list(sampler.draw(8))
        longer = list(sampler.draw(16))[:8]
        for (i1, t1, p1, q1), (i2, t2, p2, q2) in zip(first, longer):
            assert i1 == i2 and t1 == t2
            r1, r2 = sampler.radius_for_trial(i1, 8), sampler.radius_for_trial(i1, 16)
            assert np.array_equal(p1.values * r2, p2.values * r1)
            assert np.array_equal(q1.values * r2, q2.values * r1)
            # trials 0 and 1 stay in block 0; trials 2-7 change block
            assert (r1 == r2) == (i1 < 2)
            assert np.array_equal(p1.values, p2.values) == (i1 < 2)

    def test_for_model_matches_model_geometry(self):
        jump = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(),
                           PointConstant(1.0), 1.0)
        sampler = SegmentPairSampler.for_model(jump)
        assert sampler.kind is SegmentKind.CADLAG_STEP
        assert sampler.dim == 1
        assert -1.0 in tuple(float(th) for th in sampler.important_thetas)

        retarded = stable_linear()
        sampler = SegmentPairSampler.for_model(retarded)
        assert sampler.kind is SegmentKind.CONTINUOUS_LINEAR
        assert sampler.tau == retarded.tau

    def test_unbounded_sampler_doubles_radius_per_block(self):
        sampler = SegmentPairSampler(tau=1.0, radius=2.0, unbounded=True,
                                     n_radius_blocks=4)
        radii = {sampler.radius_for_trial(i, 100) for i in range(100)}
        assert radii == {2.0, 4.0, 8.0, 16.0}
        blocks = [sampler.block_of_trial(i, 100) for i in (0, 30, 60, 99)]
        assert blocks == [0, 1, 2, 3]
        # bounded samplers live in a single block at the fixed radius
        flat = SegmentPairSampler(tau=1.0, radius=2.0)
        assert flat.radius_for_trial(99, 100) == 2.0
        assert flat.block_of_trial(99, 100) == 0


# ---------------------------------------------------------------------------
# drift dissipation (retarded class)
# ---------------------------------------------------------------------------

class TestDriftDissipation:
    def test_stable_linear_passes_near_exact_constants(self):
        # -a x0 + b x_lag with a=3, b=1: completing the square gives
        # alpha1 = 2a - s, alpha2 = b^2/s, optimal gap at s = b -> (5, 1)
        verdict = check_drift_dissipation(stable_linear())
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert verdict.passed
        assert verdict.margin > 0.0
        assert verdict.constants["alpha1"] == pytest.approx(5.0, rel=0.10)
        assert verdict.constants["alpha2"] == pytest.approx(1.0, rel=0.10)
        assert verdict.constants["alpha1"] > verdict.constants["alpha2"] > 0

    def test_weighted_power_keeps_linear_constants(self):
        verdict = check_drift_dissipation(stable_linear(), p_exp=1.0)
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert verdict.constants["p_exp"] == 1.0
        assert verdict.constants["alpha1"] == pytest.approx(5.0, rel=0.10)
        assert verdict.constants["alpha2"] == pytest.approx(1.0, rel=0.10)

    def test_weak_restoring_force_is_not_certified(self):
        # a=0.4, b=1: alpha1 = 0.8 - s vs alpha2 = 1/s has no s with
        # alpha1 > alpha2 > 0, so the fit cannot certify decay
        verdict = check_drift_dissipation(
            linear_retarded(0.4, 1.0, 0.5, PointConstant(1.0), 1.0))
        assert verdict.status is not VerdictStatus.PASS_WITH_CONSTANTS
        assert not verdict.passed
        assert any("alpha1 > alpha2" in note for note in verdict.notes)

    def test_zero_coefficients_are_not_certified(self):
        # zero drift has no dissipation at all: a constant-shift pair has
        # sup = |delta_0|, forcing alpha2 >= alpha1, so the honest verdict
        # is Inconclusive rather than a trivial pass
        model = ModelSpec(
            model_class=ModelClass.RETARDED, dim=1, brownian_dim=1, tau=1.0,
            drift=lambda t, seg: np.zeros(1),
            diffusion=lambda t, seg: np.zeros((1, 1)))
        verdict = check_drift_dissipation(model)
        assert verdict.status is VerdictStatus.INCONCLUSIVE
        assert not verdict.passed

    def test_pure_instantaneous_feedback_notes_unbound_delay_term(self):
        verdict = check_drift_dissipation(
            linear_retarded(3.0, 0.0, 0.5, PointConstant(1.0), 1.0))
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert verdict.constants["alpha1"] == pytest.approx(6.0, rel=1e-4)
        assert verdict.constants["alpha2"] == pytest.approx(3.0, rel=1e-4)
        assert any("never binds" in note for note in verdict.notes)

    def test_class_and_domain_guards(self):
        neutral = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
        with pytest.raises(ModelContractError):
            check_drift_dissipation(neutral)
        with pytest.raises(DomainError):
            check_drift_dissipation(stable_linear(), p_exp=-0.5)

    def test_dimension_mismatch_is_rejected(self):
        sampler = SegmentPairSampler(tau=1.0, dim=2)
        with pytest.raises(DomainError):
            check_drift_dissipation(stable_linear(), sampler=sampler)


# ---------------------------------------------------------------------------
# diffusion domination (retarded class)
# ---------------------------------------------------------------------------

class TestDiffusionDomination:
    def test_constant_sigma_passes_by_convention(self):
        verdict = check_diffusion_domination(stable_linear())
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert verdict.constants["alpha3"] == 1.0
        assert any("vanish" in note for note in verdict.notes)

    def test_lagged_sigma_recovers_squared_scale(self):
        # ||0.3 (phi - psi)(-tau)||^2 <= 0.09 sup^2, tight at the lag node
        verdict = check_diffusion_domination(lagged_sigma_model(0.3))
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert verdict.constants["alpha3"] == pytest.approx(0.09, rel=1e-3)
        assert any("local" in note for note in verdict.notes)

    def test_lagged_sigma_with_moment_weight(self):
        verdict = check_diffusion_domination(lagged_sigma_model(0.3), p_exp=1.0)
        assert verdict.constants["alpha3"] == pytest.approx(0.3 ** 3, rel=1e-3)

    def test_quadratic_sigma_fails_globally_with_replayable_witness(self):
        sampler = SegmentPairSampler(tau=1.0, unbounded=True)
        verdict = check_diffusion_domination(quadratic_sigma_model(),
                                             sampler=sampler)
        assert verdict.status is VerdictStatus.FAIL_WITH_WITNESS
        assert not verdict.passed
        assert verdict.witness is not None
        assert any("grows with radius" in note for note in verdict.notes)
        replay = replay_witness(quadratic_sigma_model(), verdict)
        assert replay["violated"]
        # the witness reproduces the violation at the reported margin
        assert replay["violation"] == pytest.approx(verdict.margin, rel=1e-9)

    def test_near_identical_pair_beside_large_pairs_is_not_identical(self):
        # this sample holds two constant segments 2.2e-4 apart next to pairs
        # with L in the 1e4s; a tolerance scaled by the whole sample's largest
        # L took them for identical and reported alpha3 = inf, which the
        # witness could not replay
        sampler = SegmentPairSampler(tau=1.0, unbounded=True, seed=1234039865)
        verdict = check_diffusion_domination(quadratic_sigma_model(), sampler=sampler)
        assert verdict.status is VerdictStatus.FAIL_WITH_WITNESS
        assert math.isfinite(verdict.constants["alpha3"])
        replay = replay_witness(quadratic_sigma_model(), verdict)
        assert replay["violated"]
        assert replay["violation"] == pytest.approx(verdict.margin, rel=1e-9)

    def test_quadratic_sigma_passes_locally_on_bounded_sampler(self):
        verdict = check_diffusion_domination(quadratic_sigma_model())
        assert verdict.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert any("local to sampler radius" in note for note in verdict.notes)
        assert verdict.constants["alpha3"] > 0.0

    def test_class_guard(self):
        jump = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(),
                           PointConstant(1.0), 1.0)
        with pytest.raises(ModelContractError):
            check_diffusion_domination(jump)


# ---------------------------------------------------------------------------
# neutral bundle
# ---------------------------------------------------------------------------

class TestNeutralConditions:
    def test_contractive_neutral_model_passes_all_four_checks(self):
        model = neutral_linear(0.25, PointConstant(1.0), 3.0, 0.5, 0.5, 1.0)
        contraction, drift, diffusion, gate = check_neutral_conditions(model)

        assert contraction.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert contraction.constants["kappa"] == pytest.approx(0.25, abs=1e-9)

        assert drift.status is VerdictStatus.PASS_WITH_CONSTANTS
        alpha1 = drift.constants["alpha1"]
        alpha2 = drift.constants["alpha2"]
        assert alpha1 == pytest.approx(4.75, rel=0.10)
        assert alpha2 == pytest.approx(1.0, rel=0.10)

        assert diffusion.status is VerdictStatus.PASS_WITH_CONSTANTS

        assert gate.status is VerdictStatus.PASS_WITH_CONSTANTS
        # composite decay gate: alpha1 > alpha2 / (1 - 2 kappa)^2 = 4 alpha2
        assert gate.constants["threshold"] == pytest.approx(4.0 * alpha2,
                                                            rel=1e-6)
        assert gate.margin == pytest.approx(alpha1 - 4.0 * alpha2, rel=1e-6)

    def test_gate_rejects_ratio_near_one_at_high_contraction(self):
        # kappa = 0.49 squeezes the gate to alpha1 > alpha2 / 0.0004; a
        # weakly dissipative drift cannot clear a threshold that large
        model = neutral_linear(0.49, PointConstant(1.0), 1.0, 0.869, 0.5, 1.0)
        contraction, drift, _, gate = check_neutral_conditions(model)
        assert contraction.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert drift.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert gate.status is VerdictStatus.FAIL_WITH_WITNESS
        assert gate.margin < 0.0
        assert gate.constants["threshold"] > gate.constants["alpha1"]
        assert any("violated" in note for note in gate.notes)

    def test_gate_rejects_fitted_contraction_at_or_above_half(self):
        # declaring kappa >= 1/2 is rejected at construction, so the gate's
        # large-kappa branch is reached when the map outruns its declaration
        with pytest.raises(ModelContractError):
            ModelSpec(
                model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
                drift=lambda t, seg: -3.0 * seg.eval(0.0),
                diffusion=lambda t, seg: np.array([[0.5]]),
                neutral_map=lambda seg: 0.6 * seg.eval(-1.0),
                neutral_contraction=0.6)
        model = ModelSpec(
            model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
            drift=lambda t, seg: -3.0 * seg.eval(0.0),
            diffusion=lambda t, seg: np.array([[0.5]]),
            neutral_map=lambda seg: 0.6 * seg.eval(-1.0),
            neutral_contraction=0.49)
        contraction, _, _, gate = check_neutral_conditions(model)
        assert contraction.status is VerdictStatus.FAIL_WITH_WITNESS
        assert gate.status is VerdictStatus.FAIL_WITH_WITNESS
        assert any("kappa < 1/2" in note for note in gate.notes)

    def test_declared_contraction_exceeded_fails_with_witness(self):
        model = _outrun_neutral_model()
        contraction, *_ = check_neutral_conditions(model)
        assert contraction.status is VerdictStatus.FAIL_WITH_WITNESS
        assert contraction.constants["kappa"] == pytest.approx(0.6, abs=1e-9)
        assert contraction.witness is not None
        replay = replay_witness(model, contraction)
        assert replay["violated"]

    def test_constant_neutral_map_is_a_class_contract_violation(self):
        model = ModelSpec(
            model_class=ModelClass.NEUTRAL, dim=1, brownian_dim=1, tau=1.0,
            drift=lambda t, seg: -seg.eval(0.0),
            diffusion=lambda t, seg: np.array([[0.5]]),
            neutral_map=lambda seg: np.zeros(1),
            neutral_contraction=0.25)
        with pytest.raises(ModelContractError, match="retarded"):
            check_neutral_conditions(model)

    def test_class_guard(self):
        with pytest.raises(ModelContractError):
            check_neutral_conditions(stable_linear())


# ---------------------------------------------------------------------------
# jump bundle
# ---------------------------------------------------------------------------

class TestJumpConditions:
    def test_additive_marks_reduce_to_the_drift_check(self):
        # jump_coeff independent of the segment: the mark term cancels in
        # differences, so the dissipation constants match the retarded fit
        model = jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(),
                            PointConstant(1.0), 1.0)
        dissipation, growth = check_jump_conditions(model)
        assert dissipation.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert dissipation.constants["marks_exact"] is True
        assert any("exact" in note for note in dissipation.notes)

        reference = check_drift_dissipation(stable_linear())
        assert dissipation.constants["alpha1"] == reference.constants["alpha1"]
        assert dissipation.constants["alpha2"] == reference.constants["alpha2"]

        assert growth.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert growth.constants["alpha3"] > 0.0

    def test_state_dependent_jump_scales_the_constants(self):
        # jump_coeff = 0.2 z X(t - tau) with E|z|^2 = 1 and intensity 2:
        # the mark integral contributes 2 * 0.04 = 0.08 to the sup term
        model = ModelSpec(
            model_class=ModelClass.JUMP, dim=1, brownian_dim=0, tau=1.0,
            drift=lambda t, seg: -3.0 * seg.eval(0.0),
            jump_coeff=lambda t, seg, z: 0.2 * z * seg.eval(-1.0),
            jump_compensator=lambda t, seg: np.zeros(1),
            intensity=2.0, mark_law=UniformSigns())
        dissipation, growth = check_jump_conditions(model)
        assert dissipation.status is VerdictStatus.PASS_WITH_CONSTANTS
        assert dissipation.constants["alpha1"] == pytest.approx(6.0, rel=1e-4)
        assert dissipation.constants["alpha2"] == pytest.approx(0.08, rel=1e-3)
        # growth: |drift difference|^2 <= 9 sup^2 plus the same mark term
        assert growth.constants["alpha3"] == pytest.approx(9.08, rel=1e-3)

    def test_finite_mark_support_uses_exact_quadrature(self):
        law = DiscreteMarks(atoms=(-1.0, 1.0), weights=(0.5, 0.5))
        model = jump_linear(3.0, 1.0, 0.3, 2.0, law, PointConstant(1.0), 1.0)
        dissipation, growth = check_jump_conditions(model, trials=100)
        for verdict in (dissipation, growth):
            assert verdict.constants["marks_exact"] is True
            assert any("exact" in note for note in verdict.notes)
            assert not any("Monte Carlo" in note for note in verdict.notes)

    def test_continuous_marks_fall_back_to_monte_carlo_with_inflation(self):
        model = jump_linear(3.0, 1.0, 0.2, 2.0, GaussianMarks(),
                            PointConstant(1.0), 1.0, saturating=True)
        dissipation, growth = check_jump_conditions(model, trials=100,
                                                    mark_samples=64)
        for verdict in (dissipation, growth):
            assert verdict.constants["marks_exact"] is False
            assert verdict.constants["mark_samples"] == 64
            assert any("Monte Carlo" in note for note in verdict.notes)
            assert any("inflated" in note for note in verdict.notes)
        assert dissipation.status is VerdictStatus.PASS_WITH_CONSTANTS

    def test_monte_carlo_marks_on_additive_coefficient_are_not_called_exact(self):
        # an additive jump coefficient cancels in differences, so no margin
        # is inflated; the marks are still Monte Carlo draws, not exact
        model = jump_linear(3.0, 1.0, 0.3, 2.0, GaussianMarks(0.0, 1.0),
                            PointConstant(1.0), 1.0)
        for verdict in check_jump_conditions(model, trials=100):
            assert verdict.constants["marks_exact"] is False
            assert verdict.notes[0] == ("mark integrals by deterministic "
                                        "Monte Carlo over 256 draws")

    def test_class_guard(self):
        with pytest.raises(ModelContractError):
            check_jump_conditions(stable_linear())


# ---------------------------------------------------------------------------
# stability, replay, serialization
# ---------------------------------------------------------------------------

class TestVerdictContract:
    def test_fitted_constants_stable_under_trial_doubling(self):
        base = check_drift_dissipation(stable_linear(), trials=400)
        double = check_drift_dissipation(stable_linear(), trials=800)
        for key in ("alpha1", "alpha2"):
            rel = abs(double.constants[key] - base.constants[key]) / \
                abs(base.constants[key])
            assert rel < 0.05
        # linear coefficients are decided exactly by any spanning sample
        assert double.constants["alpha1"] == pytest.approx(
            base.constants["alpha1"], rel=1e-6)

    def test_replay_requires_a_witness(self):
        verdict = check_drift_dissipation(stable_linear())
        assert verdict.witness is None
        with pytest.raises(DomainError):
            replay_witness(stable_linear(), verdict)

    # a retarded model has no neutral map or jump coefficient, so an id that
    # merely starts like a bundle's must not reach those coefficients
    @pytest.mark.parametrize("check_id", [
        "made-up-check", "neutral-made-up", "jump-made-up", "neutral-rate-gate",
        "Drift-Dissipation"])
    def test_replay_rejects_unknown_check_id(self, check_id):
        sampler = SegmentPairSampler(tau=1.0, unbounded=True)
        verdict = check_diffusion_domination(quadratic_sigma_model(),
                                             sampler=sampler)
        bogus = Verdict(check_id, verdict.status, verdict.constants,
                        verdict.margin, verdict.trials, witness=verdict.witness)
        with pytest.raises(DomainError, match="unknown check id"):
            replay_witness(quadratic_sigma_model(), bogus)

    def test_margin_is_least_slack_when_no_pair_moves_the_newest_point(self):
        # with d0 = 0 on every pair alpha1 is unconstrained; the margin is
        # still the least slack at the reported constants, not infinity, and
        # it is positive: alpha2 = 0.09 is backed off like every other fit
        sampler = _fixed_pair_sampler([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        verdict = check_drift_dissipation(lagged_sigma_model(0.3), sampler=sampler,
                                          trials=5)
        assert verdict.constants["alpha2"] == pytest.approx(0.09 + 1e-6)
        assert math.isfinite(verdict.margin) and verdict.margin > 0.0

    def test_summary_line_and_json_round_trip(self):
        verdict = check_drift_dissipation(stable_linear())
        line = verdict.summary_line()
        assert line.startswith("drift-dissipation: PassWithConstants")
        assert "alpha1=" in line and "margin=" in line and "trials=400" in line

        payload = json.loads(json.dumps(verdict.to_json_dict()))
        assert payload["check"] == "drift-dissipation"
        assert payload["status"] == "PassWithConstants"
        assert payload["constants"]["alpha1"] == verdict.constants["alpha1"]
        assert "witness" not in payload  # only failing verdicts carry one

    def test_json_witness_holds_location_and_both_sides(self):
        sampler = SegmentPairSampler(tau=1.0, unbounded=True)
        verdict = check_diffusion_domination(quadratic_sigma_model(),
                                             sampler=sampler)
        payload = verdict.to_json_dict()
        assert set(payload["witness"]) == {"t", "lhs", "rhs"}
        assert payload["witness"]["lhs"] > payload["witness"]["rhs"]
        assert payload["margin"] == pytest.approx(
            payload["witness"]["lhs"] - payload["witness"]["rhs"])


# ---------------------------------------------------------------------------
# witness replay is exact
# ---------------------------------------------------------------------------

def _checker_verdicts(model, sampler, p_exp):
    if model.model_class is ModelClass.RETARDED:
        return (check_drift_dissipation(model, sampler, p_exp=p_exp, trials=200),
                check_diffusion_domination(model, sampler, p_exp=p_exp, trials=200))
    if model.model_class is ModelClass.NEUTRAL:
        return check_neutral_conditions(model, sampler, trials=200)
    return check_jump_conditions(model, sampler, trials=60, mark_samples=64)


def _assert_replays_exactly(model, verdicts):
    for verdict in verdicts:
        if verdict.witness is None:
            continue
        replay = replay_witness(model, verdict)
        assert replay["lhs"] == verdict.witness.lhs, verdict.check
        assert replay["rhs"] == verdict.witness.rhs, verdict.check
        if verdict.status is VerdictStatus.FAIL_WITH_WITNESS:
            assert replay["violated"], verdict.check


class TestReplayIsExact:
    """Replay evaluates the check's own terms and sides, so it reproduces the
    stored witness bit for bit, and every FailWithWitness replays violated."""

    @pytest.mark.parametrize("make, p_exp", [
        (stable_linear, 0.0),
        (stable_linear, 0.5),
        (lambda: linear_retarded(0.4, 1.0, 0.5, PointConstant(1.0), 1.0), 0.0),
        (lambda: linear_retarded(0.4, 1.0, 0.5, PointConstant(1.0), 1.0), 0.5),
        (quadratic_sigma_model, 0.0),
        (quadratic_sigma_model, 0.5),
        (_outrun_neutral_model, 0.0),
        (lambda: jump_linear(3.0, 1.0, 0.3, 2.0, UniformSigns(),
                             PointConstant(1.0), 1.0), 0.0),
        (lambda: jump_linear(3.0, 1.0, 0.2, 2.0, GaussianMarks(),
                             PointConstant(1.0), 1.0, saturating=True), 0.0),
    ], ids=["linear", "linear-p0.5", "weak", "weak-p0.5", "quadratic",
            "quadratic-p0.5", "neutral-outrun", "jump-exact", "jump-monte-carlo"])
    def test_sampled_witnesses_replay_exactly(self, make, p_exp):
        model = make()
        for seed in (0, 1, 2):
            for unbounded in (False, True):
                sampler = SegmentPairSampler.for_model(model, seed=seed,
                                                       unbounded=unbounded)
                _assert_replays_exactly(
                    model, _checker_verdicts(model, sampler, p_exp))

    def test_identical_pair_failures_replay_violated(self):
        model = _sign_model()
        # constant segments at +-5e-9: distinct, but within the identical-pair
        # tolerance of both fits
        sampler = _fixed_pair_sampler([5e-9] * 3, [-5e-9] * 3)
        verdicts = _checker_verdicts(model, sampler, 0.0)
        assert [v.status for v in verdicts] == [VerdictStatus.FAIL_WITH_WITNESS] * 2
        assert verdicts[1].constants["alpha3"] == math.inf
        _assert_replays_exactly(model, verdicts)


# ---------------------------------------------------------------------------
# trials on arrays: the mark column and the sup block match the scalar forms
# ---------------------------------------------------------------------------

_MARK_LAWS = [GaussianMarks(), UniformSigns(),
              DiscreteMarks(atoms=(-1.0, 0.5, 2.0), weights=(0.2, 0.5, 0.3))]


class TestTrialsOnArrays:
    @pytest.mark.parametrize("law", _MARK_LAWS, ids=["gaussian", "signs", "discrete"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("saturating", [False, True], ids=["additive", "saturating"])
    def test_mark_column_matches_per_mark_loop(self, law, dim, saturating):
        # a descriptor-less copy keeps the closures but takes the per-mark loop
        for a in (3.0, 0.4):
            builtin = jump_linear(a, 1.0, 0.3, 2.0, law, PointConstant(1.0), 1.0,
                                  dim=dim, saturating=saturating)
            hand = dataclasses.replace(builtin, descriptor=None)
            sampler = SegmentPairSampler.for_model(builtin, unbounded=a < 1.0)
            column = check_jump_conditions(builtin, sampler, trials=60, mark_samples=64)
            loop = check_jump_conditions(hand, sampler, trials=60, mark_samples=64)
            for v_col, v_loop in zip(column, loop):
                assert v_col.to_json() == v_loop.to_json()
                if v_col.witness is not None:
                    assert replay_witness(builtin, v_col) == replay_witness(hand, v_loop)
        # the weak drift leaves the dissipation display Inconclusive with a witness
        assert column[0].witness is not None

    def test_builtin_jump_coefficient_is_called_once_per_side(self):
        model = jump_linear(3.0, 1.0, 0.3, 2.0, GaussianMarks(), PointConstant(1.0), 1.0)
        calls = []

        def counting(t, seg, z, _c=model.jump_coeff):
            calls.append(np.shape(z))
            return _c(t, seg, z)

        counted = dataclasses.replace(model, jump_coeff=counting)
        check_jump_conditions(counted, trials=50, mark_samples=256)
        pairs = len(_gather(SegmentPairSampler.for_model(model), 50))
        assert len(calls) == 2 * pairs
        assert set(calls) == {(256, 1)}

    @pytest.mark.parametrize("kind", list(SegmentKind))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_gathered_sups_equal_uniform_distance(self, kind, dim):
        class WithIdentical(SegmentPairSampler):
            """Every fifth pair has identical segments."""
            def draw(self, n):
                for i, t, phi, psi in super().draw(n):
                    yield i, t, phi, (phi if i % 5 == 0 else psi)

        sampler = WithIdentical(tau=1.0, dim=dim, kind=kind, seed=4,
                                important_thetas=(-0.5,), unbounded=True)
        rows = {row[0]: row for row in _gather(sampler, 200)}
        for i, _, phi, psi in sampler.draw(200):
            if i % 5 == 0:  # an identical pair has sup 0 and is dropped
                assert i not in rows and uniform_distance(phi, psi) == 0.0
            else:
                assert rows[i][4] == uniform_distance(phi, psi) > 0.0

    def test_gather_rejects_pairs_off_one_grid(self):
        class TwoGrids(SegmentPairSampler):
            def draw(self, n):
                for i, t, phi, psi in super().draw(n):
                    grid = np.linspace(-self.tau, 0.0, psi.grid.size)
                    yield i, t, phi, Segment(psi.kind, grid, psi.values)

        with pytest.raises(DomainError, match="one grid"):
            _gather(TwoGrids(tau=1.0, important_thetas=(-0.3,)), 8)
