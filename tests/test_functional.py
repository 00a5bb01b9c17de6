"""Energy functional: constants, residuals, splitting, Rayleigh bound."""

import math

import numpy as np
import pytest

from blowup_lab.bubble import (
    BubbleField,
    BubbleParams,
    Configuration,
    CutoffSpec,
    multi_bubble_field,
)
from blowup_lab.functional import (
    PotentialField,
    conformal_coupling,
    critical_exponent,
    energy,
    energy_split,
    interaction_term,
    lebesgue_norm,
    rayleigh_lambda1_estimate,
    residual_field,
    residual_norm,
    single_bubble_energy_constant,
)
from blowup_lab.geometry import ManifoldModel, build_quadrature

RNG = np.random.default_rng(11)


def _pp():
    return ManifoldModel.product_spheres(3, 3)


def _base(model):
    x = np.zeros(model.ambient_dim)
    x[0] = 1.0
    x[model.p + 1] = 1.0
    return x


class TestConstants:
    def test_critical_exponent(self):
        assert critical_exponent(6) == pytest.approx(3.0)
        assert critical_exponent(7) == pytest.approx(14.0 / 5.0)

    def test_conformal_coupling(self):
        assert conformal_coupling(6) == pytest.approx(0.2)
        assert conformal_coupling(7) == pytest.approx(5.0 / 24.0)

    def test_energy_constant_closed_form(self):
        # E1 = (n(n-2))^(n/2) vol(S^(n-1)) Gamma(n/2)^2 / (2 n Gamma(n))
        for n in (6, 7, 8, 10):
            pref = (n * (n - 2.0)) ** (n / 2.0)
            area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            beta = math.gamma(n / 2.0) ** 2 / math.gamma(float(n))
            want = pref * area * beta / (2.0 * n)
            assert single_bubble_energy_constant(n) == pytest.approx(
                want, rel=1e-13)

    def test_energy_constant_n6_value(self):
        assert single_bubble_energy_constant(6) == pytest.approx(
            24.0**3 * math.pi**3 / 360.0, rel=1e-14)

    def test_conformal_scalar_potential(self):
        m = _pp()
        h = PotentialField.conformal_scalar(m)
        x = m.random_point(RNG)[None, :]
        assert h(x)[0] == pytest.approx(0.2 * 12.0)  # c_6 R_g on S^3 x S^3
        assert h.shifted(0.5)(x)[0] == pytest.approx(2.9)


class TestEnergy:
    def test_flat_energy_matches_constant(self):
        m = ManifoldModel.flat_ball(6, 100.0)
        u = BubbleField(m, BubbleParams(1.0, np.zeros(6)), CutoffSpec.none())
        rule = build_quadrature(m, np.zeros(6), finest_scale=1.0,
                                angular="minimal")
        j = energy(m, PotentialField.constant(m, 0.0), u, rule)
        assert j == pytest.approx(single_bubble_energy_constant(6), rel=1e-6)

    def test_energy_requires_gradient(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        rule = build_quadrature(m, np.zeros(6), finest_scale=0.5,
                                angular="minimal")

        class NoGrad:
            has_gradient = False

            def __call__(self, pts):
                return np.zeros(pts.shape[:-1])

        with pytest.raises(ValueError):
            energy(m, PotentialField.constant(m, 0.0), NoGrad(), rule)

    def test_rule_must_resolve_scale(self):
        m = _pp()
        xi = _base(m)
        rule = build_quadrature(m, xi, finest_scale=0.1)
        cfg = Configuration(bubbles=(BubbleParams(1e-3, xi),))
        from blowup_lab.geometry import CapacityError
        with pytest.raises(CapacityError):
            energy_split(m, PotentialField.conformal_scalar(m), cfg,
                         CutoffSpec.for_model(m), rule)


class TestResidual:
    def test_exact_solution_residual_vanishes(self):
        # the flat bubble solves the equation exactly; residual ~ roundoff
        m = ManifoldModel.flat_ball(6, 100.0)
        rule = build_quadrature(m, np.zeros(6), finest_scale=1.0,
                                angular="minimal")
        cfg = Configuration(bubbles=(BubbleParams(1.0, np.zeros(6)),))
        h = PotentialField.constant(m, 0.0)
        res = residual_norm(m, h, cfg, CutoffSpec.none(), rule)
        u = multi_bubble_field(m, cfg, CutoffSpec.none())
        power = u(rule.nodes) ** (critical_exponent(6) - 1.0)
        scale = lebesgue_norm(m, rule, power)
        assert res < 1e-6 * scale

    def test_residual_field_shape(self):
        m = _pp()
        xi = _base(m)
        cfg = Configuration(bubbles=(BubbleParams(0.05, xi),))
        res = residual_field(m, PotentialField.conformal_scalar(m), cfg,
                             CutoffSpec.for_model(m))
        pts = np.stack([m.random_point(RNG) for _ in range(4)])
        assert res(pts).shape == (4,)

    def test_curved_residual_is_small_but_nonzero(self):
        m = _pp()
        xi = _base(m)
        rule = build_quadrature(m, xi, finest_scale=0.01)
        cfg = Configuration(bubbles=(BubbleParams(0.01, xi),))
        h = PotentialField.conformal_scalar(m)
        res = residual_norm(m, h, cfg, CutoffSpec.for_model(m), rule)
        assert 0.0 < res < 1.0


class TestLebesgueNorm:
    def test_constant_function(self):
        m = _pp()
        rule = build_quadrature(m, _base(m), finest_scale=0.1)
        vals = np.ones(rule.node_count)
        # default exponent 2n/(n+2) = 3/2 at n = 6
        want = m.volume ** (2.0 / 3.0)
        assert lebesgue_norm(m, rule, vals) == pytest.approx(want, rel=1e-12)

    def test_explicit_exponent(self):
        m = _pp()
        rule = build_quadrature(m, _base(m), finest_scale=0.1)
        vals = np.full(rule.node_count, 2.0)
        assert lebesgue_norm(m, rule, vals, exponent=2.0) == pytest.approx(
            2.0 * math.sqrt(m.volume), rel=1e-12)


class TestSplit:
    def test_interaction_term_closed_form(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        b1 = BubbleParams(1e-3, np.zeros(6))
        c = np.zeros(6)
        c[0] = 0.1
        b2 = BubbleParams(2e-3, c)
        want = (1e-3 * 2e-3 / 0.01) ** 2.0
        assert interaction_term(m, b1, b2) == pytest.approx(want, rel=1e-14)

    def test_interaction_rejects_coincident_centers(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        b = BubbleParams(1e-3, np.zeros(6))
        with pytest.raises(ValueError):
            interaction_term(m, b, b)

    def test_split_identity(self):
        # total = sum(per bubble) + cross - excess/2*
        from blowup_lab.geometry import build_multicenter_quadrature
        m = ManifoldModel.flat_ball(6, 100.0)
        c1, c2 = np.zeros(6), np.zeros(6)
        c2 = c2.copy()
        c2[0] = 0.05
        cfg = Configuration(bubbles=(BubbleParams(1e-2, c1),
                                     BubbleParams(1e-2, c2)), K=10.0)
        rule = build_multicenter_quadrature(m, [c1, c2], finest_scale=1e-2)
        split = energy_split(m, PotentialField.constant(m, 0.0), cfg,
                             CutoffSpec.none(), rule)
        assert split.identity_gap(6) < 1e-9 * abs(split.total)
        assert split.deviation > 0.0
        assert split.interaction_prediction > 0.0

    def test_negative_field_excess_is_finite(self):
        # 2* = 2.8 for n = 7: the excess must use u_+, as the energy does,
        # or a negative value raised to 2* gives NaN
        m = ManifoldModel.flat_ball(7, 10.0)
        c = np.zeros(7)

        def minus_one(pts):
            return -np.ones(np.shape(pts)[:-1])

        cfg = Configuration(bubbles=(BubbleParams(0.1, c, minus_one),))
        rule = build_quadrature(m, c, finest_scale=0.1, angular=[1] * 6)
        split = energy_split(m, PotentialField.constant(m, 0.0), cfg,
                             CutoffSpec.none(), rule)
        assert math.isfinite(split.nonlinear_excess)
        assert math.isfinite(split.total)


class TestRayleigh:
    def test_upper_bound_on_round_sphere(self):
        # lambda_1(Delta + c) >= c; the constant trial function gives c
        m = _pp()
        rule = build_quadrature(m, _base(m), finest_scale=0.2)
        h = PotentialField.constant(m, 2.4)
        lam = rayleigh_lambda1_estimate(m, h, rule, trial_count=3)
        assert lam >= 2.4 - 1e-10
        assert lam < 10.0
