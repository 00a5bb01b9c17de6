"""Energy functional: constants, residuals, splitting."""

import itertools
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from blowup_lab import geometry
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
    residual_field,
    residual_norm,
    single_bubble_energy_constant,
    _density,
    _positive_power,
)
from blowup_lab.geometry import (CapacityError, GeometryError, ManifoldModel,
                                 QuadratureRule, _rowsum, build_quadrature)
from blowup_lab.reduced import (ScheduleParams, build_H, h_eps_perturbation,
                                reduced_limit_ratio, schedule_configuration)

from models import base_point, pp

RNG = np.random.default_rng(11)


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
        m = pp()
        h = PotentialField.conformal_scalar(m)
        x = m.random_point(RNG)[None, :]
        assert h(x)[0] == pytest.approx(0.2 * 12.0)  # c_6 R_g on S^3 x S^3
        assert h.shifted(0.5)(x)[0] == pytest.approx(2.9)


class TestEnergy:
    def test_flat_energy_matches_constant(self):
        m = ManifoldModel.flat_ball(6, 100.0)
        u = BubbleField(m, BubbleParams(1.0, np.zeros(6)), CutoffSpec.none())
        rule = build_quadrature(m, np.zeros(6), finest_scale=1.0,
                                angular="radial")
        j = energy(m, PotentialField.constant(m, 0.0), u, rule)
        assert j == pytest.approx(single_bubble_energy_constant(6), rel=1e-6)

    def test_rule_must_resolve_scale(self):
        m = pp()
        xi = base_point(m)
        rule = build_quadrature(m, xi, finest_scale=0.1, angular="biradial")
        cfg = Configuration(bubbles=(BubbleParams(1e-3, xi),))
        from blowup_lab.geometry import CapacityError
        with pytest.raises(CapacityError):
            energy_split(m, PotentialField.conformal_scalar(m), cfg,
                         CutoffSpec.for_model(m), rule)


class TestClosedFormDifference:
    """J_h - J_h0 = 1/2 int (h - h0) u^2, the form used for h-differences."""

    @staticmethod
    def _check(h, h0):
        m = pp()
        xi = base_point(m)
        # the identity holds on any rule; the radial one is the cheapest
        rule = build_quadrature(m, xi, finest_scale=0.05, angular="radial")
        cfg = Configuration(bubbles=(BubbleParams(0.05, xi),))
        u = multi_bubble_field(m, cfg, CutoffSpec.for_model(m))
        pts, w = rule.nodes, rule.weights
        vals, grads = u.jet(pts, 1)
        closed = 0.5 * float(np.sum(w * (h(pts) - h0(pts)) * vals**2))
        diff = energy(m, h, u, rule) - energy(m, h0, u, rule)
        # The identity is exact node by node, so only rounding separates the
        # two sides, and nearly all of it is in the difference of energies
        # that agree in most digits.  Each energy is a float64 sum of terms
        # of both signs; its rounding error scales with eps times the sum
        # of the terms' absolute values.  The measured gap is below 0.1 eps
        # of that sum; 16 eps leaves a wide margin and is still far below
        # the difference itself.
        h_abs = np.maximum(np.abs(h(pts)), np.abs(h0(pts)))
        twostar = critical_exponent(m.n)
        abs_sum = float(np.sum(w * (np.sum(grads * grads, axis=-1)
                                    + h_abs * vals**2
                                    + np.maximum(vals, 0.0) ** twostar)))
        tol = 16.0 * np.finfo(float).eps * abs_sum
        assert abs(closed) > 1e3 * tol  # the difference is well resolved
        assert abs(diff - closed) <= tol

    def test_constant_shift(self):
        h0 = PotentialField.conformal_scalar(pp())
        self._check(h0.shifted(1e-3), h0)

    def test_perturbed_potential(self):
        m = pp()
        h0 = PotentialField.conformal_scalar(m)
        dh = h_eps_perturbation(m, base_point(m), 1e-2, 0.3,
                                build_H(1, 6, seed=3))
        self._check(lambda pts: h0(pts) + dh(pts), h0)


class TestResidual:
    def test_exact_solution_residual_vanishes(self):
        # the flat bubble solves the equation exactly; residual ~ roundoff
        m = ManifoldModel.flat_ball(6, 100.0)
        rule = build_quadrature(m, np.zeros(6), finest_scale=1.0,
                                angular="radial")
        cfg = Configuration(bubbles=(BubbleParams(1.0, np.zeros(6)),))
        h = PotentialField.constant(m, 0.0)
        res = residual_norm(m, h, cfg, CutoffSpec.none(), rule)
        u = multi_bubble_field(m, cfg, CutoffSpec.none())
        scale = lebesgue_norm(
            m, rule, lambda pts: u(pts) ** (critical_exponent(6) - 1.0))
        assert res < 1e-6 * scale

    def test_residual_field_shape(self):
        m = pp()
        xi = base_point(m)
        cfg = Configuration(bubbles=(BubbleParams(0.05, xi),))
        res = residual_field(m, PotentialField.conformal_scalar(m), cfg,
                             CutoffSpec.for_model(m))
        pts = np.stack([m.random_point(RNG) for _ in range(4)])
        assert res(pts).shape == (4,)

    def test_curved_residual_is_small_but_nonzero(self):
        m = pp()
        xi = base_point(m)
        rule = build_quadrature(m, xi, finest_scale=0.01, angular="biradial")
        cfg = Configuration(bubbles=(BubbleParams(0.01, xi),))
        h = PotentialField.conformal_scalar(m)
        res = residual_norm(m, h, cfg, CutoffSpec.for_model(m), rule)
        assert 0.0 < res < 1.0


# each model with a profile that keeps a full angular grid; on S^3 x S^3
# the orders of "biradial" with 24 split angles per panel, twice the 12 of
# a one-centre rule
_FULL = {
    "S3xS3": (ManifoldModel.product_spheres(3, 3),
              dict(n_psi=24, orders_a=[2, 4], orders_b=[2, 4])),
    "S6": (ManifoldModel.round_sphere(6), "minimal"),
    "B7": (ManifoldModel.flat_ball(7, 100.0), "minimal"),
}


class TestRadialProfile:
    """The "radial" rule is exact where callers declare the integrand radial.

    That is one bubble at the rule centre under a constant potential or a
    one-bump potential peaked there.  Scale and bump width are those of the
    eps = 1e-2 schedule.
    """

    EPS = 1e-2

    @pytest.mark.parametrize("name", sorted(_FULL))
    def test_declared_integrands_match_full_rule(self, name):
        m, full = _FULL[name]
        c = base_point(m)
        sch = ScheduleParams(n=m.n, eps=self.EPS)
        cfg = Configuration(bubbles=(BubbleParams(sch.delta_eps, c),))
        cutoff = CutoffSpec.for_model(m)
        u = multi_bubble_field(m, cfg, cutoff)
        h0 = PotentialField.conformal_scalar(m)
        rise = h_eps_perturbation(m, c, self.EPS, sch.mu_eps,
                                  build_H(1, m.n, seed=7))

        def integrals(angular):
            rule = build_quadrature(m, c, finest_scale=sch.delta_eps,
                                    angular=angular)
            w, vals = rule.weights, u(rule.nodes)
            return (np.array([
                energy(m, h0, u, rule),
                0.5 * np.sum(w * vals**2),
                0.5 * np.sum(w * rise(rule.nodes) * vals**2)]),
                residual_norm(m, h0, cfg, cutoff, rule))

        (want, res_want), (got, res_got) = integrals(full), integrals("radial")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # on the flat ball the residual is a near-cancellation inside the
        # plateau: at delta = 1e-3 two full grids ("minimal" and the orders
        # [8, 4, 4, 4, 4, 8]) already differ there by up to 8e-10
        rtol = 1e-8 if m.kind == "flat_ball" else 1e-12
        assert res_got == pytest.approx(res_want, rel=rtol)

    @pytest.mark.parametrize("name", ["S3xS3", "S6"])
    def test_off_center_bump_is_not_radial(self, name):
        # the k = 2 reduced-limit layout: the rule and the bubble sit at
        # exp_xi0(mu p_1), the bumps are laid out in tangent coordinates at
        # xi0, so curvature makes even the bump under the bubble non-radial
        # about it (on a flat ball it would stay radial)
        m, full = _FULL[name]
        xi0 = base_point(m)
        Hb = build_H(2, m.n, seed=3)
        cfg, sch = schedule_configuration(m, xi0, [1.0], [Hb.maxima[0]],
                                          self.EPS)
        u = multi_bubble_field(m, cfg, CutoffSpec.for_model(m))
        rise = h_eps_perturbation(m, xi0, self.EPS, sch.mu_eps, Hb)
        vals = []
        for angular in (full, "radial"):
            rule = build_quadrature(m, cfg.bubbles[0].center,
                                    finest_scale=sch.delta_eps,
                                    angular=angular)
            vals.append(0.5 * float(np.sum(
                rule.weights * rise(rule.nodes)
                * u(rule.nodes) ** 2)))
        assert abs(vals[1] - vals[0]) > 1e-5 * abs(vals[0])


class TestSplitAngles:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_one_centre_default_matches_24_split_angles(self, eps):
        # reduced_limit_k2's rule, one centre at the first bubble:
        # "biradial"'s 12 split angles per panel against 24 (BENCH_23.json
        # measures the ratios within 1.7e-15 and the residual norms within
        # 7.8e-15 of each other on this layout)
        m = ManifoldModel.product_spheres(3, 3)
        xi0 = m.random_point(np.random.default_rng(0))
        Hb = build_H(2, m.n, seed=3)
        p = Hb.maxima[0]
        h0 = PotentialField.conformal_scalar(m)
        vals = []
        for angular in ("biradial", _FULL["S3xS3"][1]):
            cfg, sch = schedule_configuration(m, xi0, [1.0], [p], eps)
            rule = build_quadrature(m, cfg.bubbles[0].center,
                                    finest_scale=sch.delta_eps,
                                    budget=4_000_000, angular=angular)
            ratio = reduced_limit_ratio(m, xi0, [1.0], [p], eps, Hb, rule)[0]
            vals.append([ratio, residual_norm(m, h0, cfg,
                                              CutoffSpec.for_model(m), rule)])
        np.testing.assert_allclose(vals[0], vals[1], rtol=1e-9, atol=0.0)


class TestLebesgueNorm:
    def test_constant_function(self):
        m = pp()
        rule = build_quadrature(m, base_point(m), finest_scale=0.1,
                                angular="biradial")
        # default exponent 2n/(n+2) = 3/2 at n = 6
        want = m.volume ** (2.0 / 3.0)
        assert lebesgue_norm(m, rule, lambda pts: np.ones(len(pts))) \
            == pytest.approx(want, rel=1e-12)

    def test_explicit_exponent(self):
        # the exponent is 2n/(n+2) in every dimension: 14/9 at n = 7
        m = ManifoldModel.flat_ball(7, 2.0)
        rule = build_quadrature(m, np.zeros(7), finest_scale=0.1,
                                angular="radial")
        want = 2.0 * m.volume ** (9.0 / 14.0)
        assert lebesgue_norm(m, rule, lambda pts: np.full(len(pts), 2.0)) \
            == pytest.approx(want, rel=1e-12)


def _split_identity_gap(m, h, cfg, cutoff, rule, split):
    """|J(sum W) - sum J(W_i) - (cross - excess/2*)| and J(sum W).

    Each energy is integrated by ``energy`` on the same rule as the split.
    """
    total = energy(m, h, multi_bubble_field(m, cfg, cutoff), rule)
    singles = sum(energy(m, h, BubbleField(m, b, cutoff), rule)
                  for b in cfg.bubbles)
    interaction = (split.cross_dirichlet_plus_potential
                   - split.nonlinear_excess / critical_exponent(m.n))
    return abs(total - singles - interaction), total


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
        # J(W_1 + W_2) = J(W_1) + J(W_2) + cross - excess/2*
        from blowup_lab.geometry import build_multicenter_quadrature
        m = ManifoldModel.flat_ball(6, 100.0)
        c1, c2 = np.zeros(6), np.zeros(6)
        c2 = c2.copy()
        c2[0] = 0.05
        cfg = Configuration(bubbles=(BubbleParams(1e-2, c1),
                                     BubbleParams(1e-2, c2)), K=10.0)
        rule = build_multicenter_quadrature(m, [c1, c2], finest_scale=1e-2)
        h = PotentialField.constant(m, 0.0)
        split = energy_split(m, h, cfg, CutoffSpec.none(), rule)
        gap, total = _split_identity_gap(m, h, cfg, CutoffSpec.none(), rule,
                                         split)
        assert gap < 1e-9 * abs(total)
        assert split.deviation > 0.0
        assert split.interaction_prediction > 0.0

    @staticmethod
    def _axial_and_full_rules(m, centres, finest_scale):
        # the default "axial" rule, one node on every angle but the polar
        # angle from the axis, and the full grid of the same polar order
        from blowup_lab.geometry import build_multicenter_quadrature
        k = m.n - 1
        full = [20] + [2] * (k - 2) + [4]
        return [build_multicenter_quadrature(m, centres, finest_scale, **kw)
                for kw in ({}, {"angular": full, "patch_angular": full})]

    def test_deviation_agrees_across_rules(self):
        # two bubbles, the partition of unity and (on a ball) the exit radii
        # are invariant under rotations about the line through the centres,
        # so the trailing angles add nothing.  n = 7, d = 0.2: the deviation
        # 3.7e-6 is the difference of energies near 1.8e4, where subtracting
        # them keeps only six digits.
        n = 7
        m = ManifoldModel.flat_ball(n, 100.0)
        c1, c2 = np.zeros(n), np.zeros(n)
        c1[0], c2[0] = -0.1, 0.1
        cfg = Configuration(bubbles=(BubbleParams(1e-3, c1),
                                     BubbleParams(1e-3, c2)))
        devs = [energy_split(m, PotentialField.constant(m, 0.0), cfg,
                             CutoffSpec.none(), rule).deviation
                for rule in self._axial_and_full_rules(m, [c1, c2], 1e-3)]
        assert devs[0] == pytest.approx(devs[1], rel=1e-12, abs=0.0)
        # two centres 0.3 apart on S^6, under the cutoff and the conformal
        # potential
        s6 = ManifoldModel.round_sphere(6)
        a, b = np.eye(7)[:2]
        b = math.cos(0.3) * a + math.sin(0.3) * b
        cfg = Configuration(bubbles=(BubbleParams(1e-2, a),
                                     BubbleParams(1e-2, b)))
        devs = [energy_split(s6, PotentialField.conformal_scalar(s6), cfg,
                             CutoffSpec.for_model(s6), rule).deviation
                for rule in self._axial_and_full_rules(s6, [a, b], 1e-2)]
        assert devs[0] == pytest.approx(devs[1], rel=1e-12, abs=0.0)

    def test_axial_rule_needs_an_axisymmetric_integrand(self):
        # a third bubble 0.005 off the axis breaks the symmetry that the
        # axial rule relies on: its energy is 37% off the full grid's
        from blowup_lab.geometry import (GeometryError,
                                         build_multicenter_quadrature)
        n = 7
        m = ManifoldModel.flat_ball(n, 100.0)
        c1, c2 = np.zeros(n), np.zeros(n)
        c1[0], c2[0] = -0.1, 0.1
        c3 = c1 + 0.005 * np.eye(n)[1]
        cfg = Configuration(bubbles=tuple(BubbleParams(1e-3, c)
                                          for c in (c1, c2, c3)))
        u = multi_bubble_field(m, cfg, CutoffSpec.none())
        axial, full = [energy(m, PotentialField.constant(m, 0.0), u, rule)
                       for rule in self._axial_and_full_rules(m, [c1, c2],
                                                              1e-3)]
        assert abs(axial / full - 1.0) > 0.1
        # three centres on a sphere have no common axis, so the layout
        # check refuses the axial profile
        s6 = ManifoldModel.round_sphere(6)
        e = np.eye(7)
        with pytest.raises(GeometryError, match="axisymmetric"):
            build_multicenter_quadrature(s6, [e[0], e[1], e[2]], 1e-2,
                                         angular="axial",
                                         patch_angular="axial")

    def test_split_outside_every_cutoff_is_finite(self):
        # under the default cutoff the nodes beyond r0 of both centres
        # carry no bubble at all, so the largest value there is 0
        from blowup_lab.geometry import build_multicenter_quadrature
        m = pp()
        c1 = base_point(m)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(c1)
        c2 = m.exp(c1, 0.3 * v / np.linalg.norm(v))
        cfg = Configuration(bubbles=(BubbleParams(1e-2, c1),
                                     BubbleParams(1e-2, c2)), K=10.0)
        cutoff = CutoffSpec.for_model(m)
        # a coarse split angle keeps the rule small; accuracy is not tested
        coarse = {"n_psi": 4, "orders_a": [2, 4], "orders_b": [2, 4]}
        rule = build_multicenter_quadrature(m, [c1, c2], finest_scale=1e-2,
                                            angular=coarse,
                                            patch_angular=coarse)
        outside = ((m.distance(rule.nodes, c1) >= cutoff.r0)
                   & (m.distance(rule.nodes, c2) >= cutoff.r0))
        assert np.any(outside)
        h = PotentialField.conformal_scalar(m)
        split = energy_split(m, h, cfg, cutoff, rule)
        assert math.isfinite(split.deviation) and split.deviation > 0.0
        gap, total = _split_identity_gap(m, h, cfg, cutoff, rule, split)
        assert gap < 1e-9 * abs(total)

    def test_negative_field_excess_is_finite(self):
        # 2* = 2.8 for n = 7: the u_+^(2*) that the energy density and the
        # nonlinear excess share must use u_+, or a negative value raised
        # to 2* gives NaN in both
        twostar = critical_exponent(7)
        vals = np.array([-1.0, -0.5, 0.0, 0.5])
        power = _positive_power(vals, twostar)
        np.testing.assert_array_equal(power, [0.0, 0.0, 0.0, 0.5**twostar])
        dens = _density(vals, np.ones((4, 7)), np.full(4, 2.0), twostar)
        assert np.all(np.isfinite(dens))
        np.testing.assert_allclose(
            dens, 0.5 * (7.0 + 2.0 * vals**2) - power / twostar, rtol=1e-15)


_BLOCK = geometry._BLOCK


class TestBlockSampling:
    """Integrands sampled block by block equal one full-array evaluation,
    bit for bit.

    The rules hold one node, and for 32,768 and for _BLOCK nodes in flight
    exactly that many, one node more, and two and a half times as many,
    which no block size divides; each is sampled at both sizes on one and
    on two block workers.  Their nodes are drawn from one coarse S^3 x S^3
    rule at the eps = 1e-2 schedule; accuracy is not tested.
    """

    EPS = 1e-2

    @pytest.fixture(scope="class")
    def setting(self):
        m = pp()
        xi0 = base_point(m)
        delta = ScheduleParams(n=m.n, eps=self.EPS).delta_eps
        coarse = {"n_psi": 4, "orders_a": [2, 4], "orders_b": [2, 4]}
        rule = build_quadrature(m, xi0, finest_scale=delta, angular=coarse)
        v = (np.random.default_rng(5).standard_normal(m.n)
             @ m.tangent_frame(xi0))
        c2 = m.exp(xi0, 0.3 * v / np.linalg.norm(v))
        cfg = Configuration(bubbles=(BubbleParams(delta, xi0),
                                     BubbleParams(delta, c2)), K=10.0)
        return m, xi0, rule, cfg

    def _quantities(self, m, xi0, rule, cfg):
        h0 = PotentialField.conformal_scalar(m)
        cutoff = CutoffSpec.for_model(m)
        split = energy_split(m, h0, cfg, cutoff, rule)
        Hb = build_H(1, m.n, seed=7)
        ratio, _, _, _ = reduced_limit_ratio(m, xi0, [1.0], [Hb.maxima[0]],
                                             self.EPS, Hb, rule)
        return [energy(m, h0, multi_bubble_field(m, cfg, cutoff), rule),
                split.cross_dirichlet_plus_potential, split.nonlinear_excess,
                residual_norm(m, h0, cfg, cutoff, rule), ratio]

    @pytest.mark.parametrize("count", sorted({
        size for block in (32_768, _BLOCK)
        for size in (1, block, block + 1, 5 * block // 2)}))
    def test_blocks_match_one_pass(self, setting, count, monkeypatch):
        m, xi0, full, cfg = setting
        assert full.node_count >= count
        pick = np.sort(np.random.default_rng(count).choice(
            full.node_count, count, replace=False))
        rule = QuadratureRule(nodes=full.nodes[pick],
                              weights=full.weights[pick],
                              finest_scale=full.finest_scale)
        # one block, evaluated inline
        monkeypatch.setattr(geometry, "_BLOCK", geometry._MAX_WORKERS * count)
        direct = self._quantities(m, xi0, rule, cfg)
        assert all(math.isfinite(q) for q in direct)
        for block, workers in itertools.product((32_768, _BLOCK), (1, 2)):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            monkeypatch.setattr(geometry, "_worker_count", lambda: workers)
            np.testing.assert_array_equal(
                self._quantities(m, xi0, rule, cfg), direct)

    def test_integrate_keeps_block_order(self, monkeypatch):
        # a block size that does not divide the node count: 8 = 3 + 3 + 2.
        # Node j carries the base-8 digits j and 7 - j under weight 8^-j, so
        # each row's sum is exact and changes if a block is dropped or moved
        monkeypatch.setattr(geometry, "_BLOCK", 3 * geometry._worker_count())
        j = np.arange(8.0)
        rule = QuadratureRule(nodes=np.stack([j, 7.0 - j], axis=1),
                              weights=8.0 ** -j, finest_scale=1.0)
        got = rule.integrate(lambda pts: np.stack([pts[:, 0], pts[:, 1]]))
        want = [sum(8.0 ** -i * d for i, d in enumerate(digits))
                for digits in (range(8), range(7, -1, -1))]
        np.testing.assert_array_equal(got, want)


class TestBlockWorkers:
    """Multi-block integrals on the block workers, forced to two of them.

    Node j's first coordinate is j, so an integrand knows its block.
    """

    WORKERS = 2

    @pytest.fixture
    def rule(self, monkeypatch):
        monkeypatch.setattr(geometry, "_worker_count", lambda: self.WORKERS)
        monkeypatch.setattr(geometry, "_BLOCK", 64)  # blocks of 32 nodes
        rng = np.random.default_rng(20)
        j = np.arange(150.0)  # 4 full blocks and one of 22 nodes
        nodes = np.column_stack([j, rng.standard_normal((150, 5))])
        return QuadratureRule(nodes=nodes, weights=rng.uniform(0.5, 2.0, 150),
                              finest_scale=1.0)

    @staticmethod
    def _values(pts):
        x = pts[:, 1:]
        return np.stack([np.exp(-_rowsum(x * x)), np.sin(x[:, 0]) * x[:, 1]])

    def _inline(self, rule):
        size = geometry._BLOCK // self.WORKERS
        vals = np.concatenate([self._values(rule.nodes[i:i + size])
                               for i in range(0, rule.node_count, size)],
                              axis=-1)
        return np.sum(rule.weights * vals, axis=-1)

    @staticmethod
    def _block(pts):
        return int(pts[0, 0]) // (geometry._BLOCK // TestBlockWorkers.WORKERS)

    def test_pool_matches_inline_blocks(self, rule):
        got = rule.integrate(self._values)
        np.testing.assert_array_equal(got, self._inline(rule))

    def test_first_block_finishing_last_keeps_node_order(self, rule):
        # block 0 waits until the last block is done, which the other
        # worker reaches only after blocks 1 to 3
        last = rule.node_count // 32
        last_done = threading.Event()
        finished = []

        def integrand(pts):
            block = self._block(pts)
            if block == 0 and not last_done.wait(timeout=30):
                raise TimeoutError("the last block never ran")
            vals = self._values(pts)
            finished.append(block)
            if block == last:
                last_done.set()
            return vals

        got = rule.integrate(integrand)
        assert finished[-1] == 0 and sorted(finished) == list(range(last + 1))
        np.testing.assert_array_equal(got, self._inline(rule))

    @pytest.mark.parametrize("error", [CapacityError, GeometryError])
    def test_middle_block_error_reaches_caller(self, rule, error):
        def integrand(pts):
            if self._block(pts) == 2:
                raise error("block 2")
            return self._values(pts)

        with pytest.raises(error, match="block 2"):
            rule.integrate(integrand)

    def test_caller_errstate_reaches_workers(self, rule):
        threads = set()

        def integrand(pts):
            threads.add(threading.current_thread())
            return 1.0 / (0.0 * pts[:, 1])

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                rule.integrate(integrand)
        assert threading.main_thread() not in threads

    def test_nested_integral_completes(self, rule):
        inner = []

        def integrand(pts):
            inner.append(rule.integrate(self._values))
            return self._values(pts)

        result = []
        caller = threading.Thread(
            target=lambda: result.append(rule.integrate(integrand)))
        caller.start()
        caller.join(timeout=30)
        if caller.is_alive():  # deadlocked: free the workers, then fail
            geometry._block_pool(self.WORKERS).shutdown(wait=False,
                                                        cancel_futures=True)
            geometry._block_pool.cache_clear()
        assert not caller.is_alive()
        want = self._inline(rule)
        np.testing.assert_array_equal(result[0], want)
        assert len(inner) == 5
        for got in inner:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_integrates(self, rule):
        want = rule.integrate(self._values)  # the parent's workers run
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(not np.array_equal(rule.integrate(self._values),
                                              want))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while ((done := os.waitpid(pid, os.WNOHANG))[0] == 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        if done[0] == 0:  # the child hangs: end it, then fail
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
