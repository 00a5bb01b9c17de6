"""Geometry layer: distances, exponential maps, curvature, quadrature."""

import math

import numpy as np
import pytest

from blowup_lab.geometry import (
    CapacityError,
    GeometryError,
    ManifoldModel,
    build_quadrature,
    build_multicenter_quadrature,
    gauss_segment,
    riemann_product_spheres,
    sphere_volume,
    unit_sphere_rule,
    weyl_tensor_from_riemann,
)

RNG = np.random.default_rng(42)


def _pp():
    return ManifoldModel.product_spheres(3, 3)


def _base(model):
    x = np.zeros(model.ambient_dim)
    if model.kind == "product_spheres":
        x[0] = 1.0
        x[model.p + 1] = 1.0
    elif model.kind == "round_sphere":
        x[0] = 1.0
    return x


class TestModels:
    def test_dimensions(self):
        m = _pp()
        assert m.n == 6
        assert m.ambient_dim == 8
        assert ManifoldModel.round_sphere(6).ambient_dim == 7
        assert ManifoldModel.flat_ball(7, 10.0).ambient_dim == 7

    def test_volume_product(self):
        # vol(S^3 x S^3) = (2 pi^2)^2
        m = _pp()
        assert m.volume == pytest.approx((2.0 * math.pi**2) ** 2, rel=1e-14)

    def test_volume_round_sphere(self):
        m = ManifoldModel.round_sphere(6)
        assert m.volume == pytest.approx(sphere_volume(6), rel=1e-14)

    def test_validate_point_rejects_off_manifold(self):
        m = _pp()
        with pytest.raises(GeometryError):
            m.validate_point(1.5 * _base(m))

    def test_injectivity_radius(self):
        assert _pp().injectivity_radius == pytest.approx(math.pi)
        assert ManifoldModel.flat_ball(6, 25.0).injectivity_radius == 25.0


class TestDistance:
    def test_symmetry_and_triangle(self):
        m = _pp()
        pts = [m.random_point(RNG) for _ in range(6)]
        for a in pts:
            for b in pts:
                dab = m.distance(a, b)
                assert dab == pytest.approx(m.distance(b, a), abs=1e-14)
                for c in pts:
                    assert dab <= m.distance(a, c) + m.distance(c, b) + 1e-12

    def test_product_distance_is_hypot_of_factors(self):
        m = _pp()
        a, b = m.random_point(RNG), m.random_point(RNG)
        s1, s2 = m.factor_distances(a, b)
        assert m.distance(a, b) == pytest.approx(math.hypot(s1, s2), rel=1e-14)

    def test_small_angle_accuracy(self):
        # chord-based angles keep full precision where arccos loses half
        m = ManifoldModel.round_sphere(3)
        base = _base(m)
        for t in (1e-3, 1e-6, 1e-8):
            v = np.zeros(4)
            v[1] = t
            x = m.exp(base, v)
            assert m.distance(base, x) == pytest.approx(t, rel=1e-12)

    def test_exp_log_round_trip(self):
        for m in (_pp(), ManifoldModel.round_sphere(6)):
            base = m.random_point(RNG)
            for _ in range(5):
                v = 0.5 * m.random_tangent(RNG, base)
                x = m.exp(base, v)
                w = m.log(base, x)
                np.testing.assert_allclose(w, v, atol=1e-12)

    def test_exp_preserves_distance(self):
        m = _pp()
        base = m.random_point(RNG)
        v = m.random_tangent(RNG, base)
        v = 0.3 * v / np.linalg.norm(v)
        x = m.exp(base, v)
        assert m.distance(base, x) == pytest.approx(0.3, rel=1e-12)

    def test_distance_gradient_unit_norm(self):
        # |grad d| = 1 in the ambient restriction, including near the center
        m = _pp()
        c = _base(m)
        for r in (1e-5, 1e-3, 0.1, 1.0):
            v = m.random_tangent(RNG, c)
            x = m.exp(c, r * v / np.linalg.norm(v))
            g = m.distance_gradient(c, x[None, :])[0]
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_distance_gradient_finite_difference(self):
        m = _pp()
        c = _base(m)
        x = m.exp(c, 0.4 * m.random_tangent(RNG, c))
        g = m.distance_gradient(c, x[None, :])[0]
        frame = m.tangent_frame(x)
        h = 1e-6
        for v in frame:
            fd = (m.distance(m.exp(x, h * v), c)
                  - m.distance(m.exp(x, -h * v), c)) / (2.0 * h)
            assert fd == pytest.approx(float(g @ v), abs=1e-6)


class TestCurvature:
    def test_scalar_curvature_product(self):
        # R(S^3 x S^3) = 6 + 6
        assert _pp().scalar_curvature() == pytest.approx(12.0)

    def test_weyl_norm_product(self):
        # |W|^2 = 2 p q (p+q) / ((p+q-1)(p+q-2)) * ... = 14.4 for p=q=3
        assert _pp().weyl_norm_sq() == pytest.approx(14.4, rel=1e-12)

    def test_weyl_vanishes_on_round_sphere(self):
        assert ManifoldModel.round_sphere(6).weyl_norm_sq() == pytest.approx(
            0.0, abs=1e-13)

    def test_weyl_from_riemann_matches(self):
        riem = riemann_product_spheres(3, 3)
        weyl = weyl_tensor_from_riemann(riem)
        assert float(np.sum(weyl**2)) == pytest.approx(14.4, rel=1e-12)

    def test_weyl_tensor_trace_free(self):
        weyl = weyl_tensor_from_riemann(riemann_product_spheres(3, 3))
        ricci = np.einsum("iaib->ab", weyl)
        np.testing.assert_allclose(ricci, 0.0, atol=1e-12)


class TestQuadrature:
    def test_gauss_segment_polynomial(self):
        x, w = gauss_segment(0.0, 2.0, 8)
        assert float(w @ x**7) == pytest.approx(2.0**8 / 8.0, rel=1e-14)

    def test_unit_sphere_rule_surface_area(self):
        for m, orders in ((2, [8, 8]), (5, [4, 4, 4, 4, 8])):
            _, w = unit_sphere_rule(m, orders)
            assert float(np.sum(w)) == pytest.approx(
                sphere_volume(m), rel=1e-13)

    def test_unit_sphere_rule_moment(self):
        # int x_0^2 over S^m = vol(S^m)/(m+1)
        dirs, w = unit_sphere_rule(3, [16, 16, 16])
        assert float(w @ dirs[:, 0] ** 2) == pytest.approx(
            sphere_volume(3) / 4.0, rel=1e-12)

    def test_rule_integrates_constants_product(self):
        m = _pp()
        rule = build_quadrature(m, _base(m), finest_scale=0.1)
        assert float(np.sum(rule.weights)) == pytest.approx(
            m.volume, rel=1e-12)

    def test_rule_integrates_constants_sphere(self):
        m = ManifoldModel.round_sphere(6)
        rule = build_quadrature(m, _base(m), finest_scale=0.1,
                                angular="minimal")
        assert float(np.sum(rule.weights)) == pytest.approx(
            m.volume, rel=1e-12)

    def test_rule_flat_ball_volume(self):
        m = ManifoldModel.flat_ball(6, 2.0)
        rule = build_quadrature(m, np.zeros(6), finest_scale=0.1,
                                angular="minimal")
        ball = sphere_volume(5) / 6.0 * 2.0**6
        assert float(np.sum(rule.weights)) == pytest.approx(ball, rel=1e-12)

    def test_rule_nodes_on_manifold(self):
        m = _pp()
        rule = build_quadrature(m, _base(m), finest_scale=0.05)
        x1, x2 = m.split(rule.nodes)
        np.testing.assert_allclose(np.linalg.norm(x1, axis=-1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(x2, axis=-1), 1.0,
                                   atol=1e-12)

    def test_budget_enforced(self):
        m = _pp()
        with pytest.raises(CapacityError):
            build_quadrature(m, _base(m), finest_scale=1e-4, budget=1000)

    def test_unknown_product_profile_names_valid_ones(self):
        m = _pp()
        for name in ("fine", "default"):
            with pytest.raises(GeometryError,
                               match="choose from minimal, biradial, axial"):
                build_quadrature(m, _base(m), finest_scale=0.1, angular=name)

    def test_zero_axis_rejected(self):
        m = ManifoldModel.flat_ball(6, 2.0)
        with pytest.raises(GeometryError, match="nonzero"):
            build_quadrature(m, np.zeros(6), finest_scale=0.1,
                             axis=np.zeros(6), angular="minimal")

    def test_finest_scale_domain(self):
        m = _pp()
        with pytest.raises(GeometryError):
            build_quadrature(m, _base(m), finest_scale=0.0)

    def test_multicenter_integrates_constants(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        c1, c2 = np.zeros(6), np.zeros(6)
        c2 = c2.copy()
        c2[0] = 0.5
        rule = build_multicenter_quadrature(m, [c1, c2], finest_scale=0.01)
        ball = sphere_volume(5) / 6.0 * 10.0**6
        assert float(np.sum(rule.weights)) == pytest.approx(ball, rel=1e-9)
        assert np.all(rule.weights > 0.0)
