"""Reduced energy, schedules, bump construction, perturbed potentials."""

import math
from dataclasses import replace

import numpy as np
import pytest

from blowup_lab import reduced
from blowup_lab.geometry import (CapacityError, GeometryError, ManifoldModel,
                                 build_quadrature)
from blowup_lab.reduced import (
    BumpFunction,
    DegenerateError,
    ReducedEnergyParams,
    ScheduleParams,
    _back_substitution_residual,
    audit_bumps,
    build_H,
    delta_eps,
    F_n_critical,
    F_n_eval,
    h_eps_perturbation,
    mu_eps,
    reduced_constants,
    reduced_limit_ratio,
    schedule_configuration,
)

from models import base_point, pp

RNG = np.random.default_rng(5)


class TestConstants:
    def test_closed_forms(self):
        # c1 = 2(n-1)/((n-2)(n-4)), d_6 = 1/64, d_n = 1/(24(n-4)(n-6))
        assert reduced_constants(6) == pytest.approx((1.25, 1.0 / 64.0))
        assert reduced_constants(7) == pytest.approx((0.8, 1.0 / 72.0))
        assert reduced_constants(8) == pytest.approx((7.0 / 12.0, 1.0 / 192.0))

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            reduced_constants(5)


class TestReducedEnergy:
    def test_F_eval_n6(self):
        p = ReducedEnergyParams(n=6, weyl_sq=14.4, H=None)
        # 1.25 * 1 - (1/64) * 14.4 = 1.025
        assert F_n_eval(p, 1.0, H_value=1.0) == pytest.approx(1.025)

    def test_critical_point_closed_form(self):
        Hb = build_H(1, 6, seed=0)
        p = ReducedEnergyParams(n=6, weyl_sq=14.4, H=Hb)
        t_star, p_star, value = F_n_critical(p)
        h = float(Hb.peak_values()[0])
        assert t_star == pytest.approx(
            math.sqrt(1.25 * h / (2.0 * 14.4 / 64.0)), rel=1e-14)
        assert value == pytest.approx(
            1.25**2 * h**2 / (4.0 * 14.4 / 64.0), rel=1e-14)
        np.testing.assert_array_equal(p_star, Hb.maxima[0])

    def test_critical_point_vs_grid_maximization(self):
        # brute-force maximization over t agrees with the closed form
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(6, 11))
            weyl = float(rng.uniform(0.5, 30.0))
            Hb = build_H(int(rng.integers(1, 4)), 6, seed=int(rng.integers(1e6)))
            params = ReducedEnergyParams(n=n, weyl_sq=weyl, H=Hb)
            i = int(rng.integers(0, Hb.k))
            t_star, _, value = F_n_critical(params, i=i)
            h = float(Hb.peak_values()[i])
            ts = np.linspace(0.5 * t_star, 1.5 * t_star, 2001)
            vals = F_n_eval(params, ts, H_value=h)
            t_ref = ts[int(np.argmax(vals))]
            # parabolic polish: vertex of a local quadratic fit; unlike
            # golden section this is not limited to sqrt(eps) accuracy
            for width in (1e-3, 1e-6):
                tw = t_ref + width * t_star * np.linspace(-1.0, 1.0, 9)
                coef = np.polyfit(tw - t_ref, F_n_eval(params, tw,
                                                       H_value=h), 2)
                t_ref = t_ref - coef[1] / (2.0 * coef[0])
            assert abs(t_star - t_ref) < 1e-8 * max(1.0, t_star)
            assert abs(value - float(F_n_eval(params, t_ref, H_value=h))) \
                < 1e-8 * max(1.0, abs(value))

    @pytest.mark.parametrize("weyl_sq", [-1.0, math.nan])
    def test_params_reject_weyl_norm(self, weyl_sq):
        with pytest.raises(ValueError, match="weyl_sq"):
            ReducedEnergyParams(n=6, weyl_sq=weyl_sq)

    def test_degenerate_cases(self):
        Hb = build_H(1, 6, seed=0)
        with pytest.raises(DegenerateError):
            F_n_critical(ReducedEnergyParams(n=6, weyl_sq=0.0, H=Hb))
        flat = BumpFunction(maxima=np.zeros((1, 6)),
                            amplitudes=np.array([1.0]), sigma=0.1)
        # amplitude 1 gives peak value a - 1 = 0: no interior maximum
        with pytest.raises(DegenerateError):
            F_n_critical(ReducedEnergyParams(n=6, weyl_sq=14.4, H=flat))
        # an infinite quartic coefficient makes the curvature check NaN
        with pytest.raises(DegenerateError):
            F_n_critical(ReducedEnergyParams(n=6, weyl_sq=math.inf, H=Hb))


class TestSchedules:
    def test_delta_eps_n6_back_substitution(self):
        rng = np.random.default_rng(9)
        for eps in rng.uniform(1e-12, 0.15, size=100):
            d = delta_eps(6, float(eps))
            assert abs(d * d * math.log(1.0 / d) - eps) <= 1e-14 * eps

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_delta_eps_rejects_eps(self, n, eps):
        # delta_eps(7, nan) returned nan and delta_eps(6, nan) reported a
        # missed bisection
        with pytest.raises(ValueError, match="positive and finite"):
            delta_eps(n, eps)

    def test_delta_eps_checks_criterion_8_residual(self, monkeypatch):
        # the root is checked by the residual that criterion 8 gates
        monkeypatch.setattr(reduced, "_back_substitution_residual",
                            lambda n, eps, d: 1.0)
        with pytest.raises(ValueError, match="bisection missed"):
            delta_eps(6, 1e-3)

    def test_delta_eps_n6_value(self):
        assert delta_eps(6, 1e-3) == pytest.approx(0.015490308804935113,
                                                   rel=1e-12)

    def test_delta_eps_high_dim_is_sqrt(self):
        assert delta_eps(7, 1e-8) == pytest.approx(1e-4, rel=1e-14)
        assert delta_eps(9, 4e-6) == pytest.approx(2e-3, rel=1e-14)

    def test_back_substitution_residual_closed_forms(self):
        # the one residual that criterion 8 and the schedule-table runner
        # gate: |d - sqrt(eps)| / sqrt(eps) for n >= 7, and
        # |d^2 ln(1/d) - eps| / eps for n = 6
        assert _back_substitution_residual(7, 0.25, 0.5) == 0.0
        assert _back_substitution_residual(9, 0.04, 0.21) == pytest.approx(
            0.05, rel=1e-12)
        assert _back_substitution_residual(6, 0.02, 0.1) == pytest.approx(
            0.5 * math.log(10.0) - 1.0, rel=1e-12)
        assert _back_substitution_residual(6, 1e-3, delta_eps(6, 1e-3)) <= 1e-14

    @staticmethod
    def _bisect_2000_steps(eps):
        # the bisection as it ran before it stopped on a frozen bracket:
        # always 2000 halvings, as its relative-width test never held
        lo, hi = 1e-300, math.exp(-0.5)
        for _ in range(2000):
            mid = 0.5 * (lo + hi)
            if mid * mid * math.log(1.0 / mid) - eps < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_delta_eps_stops_on_a_frozen_bracket(self, monkeypatch):
        logs = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                logs.append(x)
                return math.log(x)

        for eps in np.geomspace(1e-300, 0.18, 400):
            d = self._bisect_2000_steps(float(eps))
            if abs(d * d * math.log(1.0 / d) - eps) <= 1e-14 * eps:
                with monkeypatch.context() as patch:
                    patch.setattr(reduced, "math", CountingMath())
                    logs.clear()
                    assert delta_eps(6, float(eps)) == d
                # the bracket freezes within 555 halvings
                assert len(logs) <= 600
            else:
                with pytest.raises(ValueError, match="bisection missed"):
                    delta_eps(6, float(eps))

    def test_delta_eps_domain_n6(self):
        # d^2 ln(1/d) cannot exceed 1/(2e) on the valid branch
        with pytest.raises(ValueError):
            delta_eps(6, 1.0 / (2.0 * math.e) + 1e-3)

    def test_delta_eps_unreachable_residual_raises(self):
        # for subnormal eps the tolerance 1e-14 * eps underflows to 0, so
        # the back-substitution check fails; it must raise, also under -O
        with pytest.raises(ValueError):
            delta_eps(6, 1e-310)

    def test_mu_n6_log_power(self):
        # mu = |ln eps|^(-1/8); eps = e^-16 gives 16^(-1/8) = 2^(-1/2)
        sch = ScheduleParams(n=6, eps=math.exp(-16.0), r=0)
        mu, _ = mu_eps(sch)
        assert mu == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_mu_high_dim_power(self):
        # theta = min((n-6)/(2(n-2)), 1/max(r,1))/2; n=7, r=1: theta = 1/20
        sch = ScheduleParams(n=7, eps=1e-10, r=1)
        assert sch.theta == pytest.approx(0.05)
        mu, _ = mu_eps(sch)
        assert mu == pytest.approx(10.0**-0.5, rel=1e-14)

    def test_margins_decrease_along_eps(self):
        prev = None
        for j in range(4, 13):
            sch = ScheduleParams(n=7, eps=10.0**-j, r=1)
            mu, margins = mu_eps(sch)
            assert all(v < 1.0 for v in margins.values())
            if prev is not None:
                for key in margins:
                    assert margins[key] <= prev[key] + 1e-15
            prev = margins


class TestBumps:
    def test_single_bump_at_origin(self):
        Hb = build_H(1, 6, seed=1)
        assert Hb.k == 1
        np.testing.assert_allclose(Hb.maxima[0], 0.0, atol=1e-14)
        # background level is -1, peak value a_i - 1
        far = 10.0 * np.ones((1, 6))
        assert Hb(far)[0] == pytest.approx(-1.0)
        assert Hb.peak_values()[0] == pytest.approx(Hb.amplitudes[0] - 1.0)

    def test_audit_invariants(self):
        for k in (1, 2, 3, 5):
            Hb = build_H(k, 6, seed=k)
            rep = audit_bumps(Hb)
            assert rep["passed"], rep
            assert rep["n_maxima_found"] == k

    def test_maxima_separation(self):
        Hb = build_H(5, 6, seed=2)
        for i in range(Hb.k):
            for j in range(i + 1, Hb.k):
                gap = np.linalg.norm(Hb.maxima[i] - Hb.maxima[j])
                assert gap >= 3.0 * Hb.sigma - 1e-12

    def test_audit_far_value_covers_the_reach(self, monkeypatch):
        # h_eps_perturbation skips the log map beyond Hb.reach on the
        # promise that H is -1 there; a support wider than sigma breaks it
        # well inside |x| = 2, and the audit must see that
        Hb = build_H(1, 6, seed=1)
        wide = reduced.radial_bump
        monkeypatch.setattr(reduced, "radial_bump", lambda t: wide(t / 1.5))
        rep = audit_bumps(Hb)
        assert not rep["far_value_ok"] and not rep["passed"]

    def test_dim_follows_the_maxima(self):
        Hb = build_H(2, 6, seed=3)
        assert Hb.dim == 6
        moved = replace(Hb, maxima=np.hstack([Hb.maxima, np.zeros((2, 2))]))
        assert moved.dim == 8 and moved.sigma == Hb.sigma
        assert Hb.reach == pytest.approx(0.75 + Hb.sigma, rel=1e-15)

    def test_compact_support_radius(self):
        Hb = build_H(3, 6, seed=4)
        for i in range(Hb.k):
            ring = Hb.maxima[i].copy()
            ring[0] += 1.5 * Hb.sigma
            assert Hb(ring[None, :])[0] == pytest.approx(-1.0)


class TestPerturbedPotential:
    def test_value_at_peak(self):
        # the rise above c_n R_g at xi0 is eps H(0), the peak value
        m = pp()
        xi0 = base_point(m)
        eps, mu = 1e-4, 0.2
        Hb = build_H(1, 6, seed=3)
        rise = h_eps_perturbation(m, xi0, eps, mu, Hb)
        assert rise(xi0[None, :])[0] == pytest.approx(
            eps * float(Hb(np.zeros(6))), rel=1e-12)

    def test_far_field_depression(self):
        m = pp()
        xi0 = base_point(m)
        eps, mu = 1e-4, 0.01
        Hb = build_H(1, 6, seed=3)
        rise = h_eps_perturbation(m, xi0, eps, mu, Hb)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(xi0)
        far = m.exp(xi0, 2.0 * v / np.linalg.norm(v))
        assert rise(far[None, :])[0] == -eps

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_support_is_the_bumps_reach(self, k):
        # H is -1 beyond max_i |p_i| + sigma, and above -1 just inside it
        m = pp()
        xi0 = base_point(m)
        eps, mu = 1e-3, 0.05
        Hb = build_H(k, 6, seed=3)
        pert = h_eps_perturbation(m, xi0, eps, mu, Hb)
        norms = np.linalg.norm(Hb.maxima, axis=1)
        reach = norms.max() + Hb.sigma
        frame = m.tangent_frame(xi0)
        dirs = np.random.default_rng(k).standard_normal((200, 6))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # the ray through the farthest maximum, any ray for k = 1
        far = Hb.maxima[np.argmax(norms)]
        ray = far / norms.max() if norms.max() > 0 else dirs[0]
        outside = m.exp(xi0, mu * reach * (1 + 1e-9)
                        * np.vstack([dirs, ray]) @ frame)
        assert np.all(pert(outside) == -eps)
        inside = m.exp(xi0, mu * (reach - 0.05 * Hb.sigma) * ray @ frame)
        assert pert(inside) > -eps

    @staticmethod
    def _frame_coordinate_perturbation(m, xi0, eps, mu, Hb, pts):
        # the reference: log_xi0 in tangent-frame coordinates, in units of
        # mu, read by H in its own dimension
        v, d = m._log_and_distance(xi0, pts)
        out = np.full(len(pts), -eps)
        near = d < min(2.5 * mu, 0.9 * m.injectivity_radius)
        out[near] = eps * Hb(v[near] @ m.tangent_frame(xi0).T / mu)
        return out

    @pytest.mark.parametrize("model, k", [
        (ManifoldModel.product_spheres(3, 3), 1),
        (ManifoldModel.product_spheres(3, 3), 3),
        (ManifoldModel.round_sphere(6), 2),
        (ManifoldModel.flat_ball(6, 2.0), 2)])
    # mu = 1.2 puts 2.5 mu beyond 0.9 inj, and mu = 4 some maxima too
    @pytest.mark.parametrize("mu", [0.05, 0.3, 1.2, 4.0])
    def test_tangent_bump_matches_frame_coordinates(self, model, k, mu):
        rng = np.random.default_rng(11)
        eps = 1e-3
        Hb = build_H(k, 6, seed=3)
        xi0 = (model.validate_point(np.full(6, 0.1)) if not model.is_compact
               else model.random_point(rng))
        frame = model.tangent_frame(xi0)
        dirs = rng.standard_normal((12, 6))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        inj = model.injectivity_radius
        radii = np.concatenate([mu * np.array([0.0, 0.4, 1.0, 2.4, 2.6, 4.0]),
                                inj * np.array([0.85, 0.95, 0.99])])
        # points on and about every maximum, inside and beyond 2.5 mu, and
        # beyond 0.9 inj where that is nearer than 2.5 mu
        y = np.concatenate([
            (radii[:, None, None] * dirs).reshape(-1, 6),
            mu * (Hb.maxima[:, None, :]
                  + 0.5 * Hb.sigma * rng.random((k, 8, 1)) * dirs[:8])
            .reshape(-1, 6)])
        pts = model.exp(xi0, y @ frame)
        pert = h_eps_perturbation(model, xi0, eps, mu, Hb)
        want = self._frame_coordinate_perturbation(model, xi0, eps, mu, Hb,
                                                   pts)
        d = model.distance(xi0, pts)
        assert np.any(d < min(2.5 * mu, 0.9 * inj)) and np.any(d > 0.9 * inj)
        np.testing.assert_allclose(pert(pts), want, rtol=0, atol=1e-14 * eps)
        # a single point in, a scalar out
        got = pert(pts[-1])
        assert np.ndim(got) == 0
        assert abs(got - want[-1]) <= 1e-14 * eps

    def test_non_finite_bump_position_rejected(self):
        m = pp()
        with pytest.raises(GeometryError):
            schedule_configuration(m, base_point(m), [1.0],
                                   [np.full(6, math.nan)], 1e-3)

    def test_ratio_rejects_unresolving_rule(self):
        # delta(1e-4) is about 4e-3, far below the rule's finest scale
        m = pp()
        xi0 = base_point(m)
        Hb = build_H(1, 6, seed=7)
        rule = build_quadrature(m, xi0, finest_scale=0.1, angular="radial")
        with pytest.raises(CapacityError, match="does not resolve"):
            reduced_limit_ratio(m, xi0, [1.0], [Hb.maxima[0]], 1e-4, Hb, rule)


class TestScheduleConf04:
    def test_configuration_geometry(self):
        m = pp()
        xi0 = base_point(m)
        Hb = build_H(2, 6, seed=6)
        eps = 1e-5
        cfg, sch = schedule_configuration(m, xi0, [1.0, 1.0],
                                          list(Hb.maxima), eps)
        assert cfg.k == 2
        for b, p in zip(cfg.bubbles, Hb.maxima):
            assert b.delta == pytest.approx(sch.delta_eps)
            want = sch.mu_eps * float(np.linalg.norm(p))
            assert m.distance(b.center, xi0) == pytest.approx(want, rel=1e-10)
