"""Bubble fields: profile values, gradients, cutoffs, admissibility."""

import math

import numpy as np
import pytest

from blowup_lab._smoothstep import step_jet
from blowup_lab.bubble import (
    BubbleField,
    BubbleParams,
    Configuration,
    CutoffSpec,
    is_admissible,
    multi_bubble_field,
)
from blowup_lab.geometry import ManifoldModel

RNG = np.random.default_rng(7)


def _pp():
    return ManifoldModel.product_spheres(3, 3)


def _base(model):
    x = np.zeros(model.ambient_dim)
    x[0] = 1.0
    x[model.p + 1] = 1.0
    return x


class TestCutoff:
    def test_plateau_and_support(self):
        cut = CutoffSpec(r0=1.0)
        r = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
        v = cut.jet(r)[0]
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        assert 0.0 < v[3] < 1.0
        assert v[4] == 0.0 and v[5] == 0.0

    def test_smooth_at_junctions(self):
        # derivative vanishes to all orders at r0/2 and r0; check d1, d2
        cut = CutoffSpec(r0=1.0)
        for r in (0.5 + 1e-9, 1.0 - 1e-9):
            _, d1, d2 = cut.jet(np.array([r]), 2)
            assert abs(d1[0]) < 1e-3
            assert abs(d2[0]) < 1e3

    def test_step_jet_where_exp_underflows(self):
        # exp(-1/t) is 0 below t = 1/745; (1/t)^2 overflows at 1e-300 and
        # (1/t)^4 at 1e-80, so the derivatives must be 0 there, not 0 * inf
        for q in step_jet(np.array([1e-300, 1e-80]), 2):
            np.testing.assert_array_equal(q, 0.0)

    def test_none_is_identity(self):
        cut = CutoffSpec.none()
        r = np.geomspace(1e-3, 1e3, 11)
        value, d1, d2 = cut.jet(r, 2)
        np.testing.assert_array_equal(value, 1.0)
        np.testing.assert_array_equal(d1, 0.0)
        np.testing.assert_array_equal(d2, 0.0)

    def test_rejects_cutoff_beyond_injectivity(self):
        m = _pp()
        with pytest.raises(ValueError):
            BubbleField(m, BubbleParams(0.1, _base(m)), CutoffSpec(r0=4.0))


class TestProfile:
    def test_center_value(self):
        # U(center) = (sqrt(n(n-2)) / delta)^((n-2)/2), n = 6
        m = _pp()
        delta = 1e-2
        v = BubbleField(m, BubbleParams(delta, _base(m)),
                        CutoffSpec.for_model(m))(_base(m))
        assert float(v) == pytest.approx((math.sqrt(24.0) / delta) ** 2,
                                         rel=1e-12)

    def test_off_center_value(self):
        m = _pp()
        delta, s = 1e-2, 0.05
        xi = _base(m)
        v = m.random_tangent(RNG, xi)
        x = m.exp(xi, s * v / np.linalg.norm(v))
        got = BubbleField(m, BubbleParams(delta, xi), CutoffSpec.none())(x)
        want = (math.sqrt(24.0) * delta / (delta**2 + s**2)) ** 2
        assert float(got) == pytest.approx(want, rel=1e-12)

    def test_scaling_law(self):
        # delta^((n-2)/2) U_delta(exp(delta y)) is independent of delta
        m = _pp()
        xi = _base(m)
        v = m.random_tangent(RNG, xi)
        v /= np.linalg.norm(v)
        vals = []
        for delta in (1e-3, 1e-2):
            x = m.exp(xi, 2.0 * delta * v)
            u = BubbleField(m, BubbleParams(delta, xi), CutoffSpec.none())(x)
            vals.append(delta**2 * float(u))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)

    def test_cutoff_kills_far_field(self):
        m = _pp()
        xi = _base(m)
        far = m.exp(xi, 0.9 * math.pi * m.random_tangent(RNG, xi)
                    / np.linalg.norm(m.random_tangent(RNG, xi)))
        u = BubbleField(m, BubbleParams(0.1, xi), CutoffSpec.for_model(m))(far)
        assert float(u) == 0.0

    def test_isometry_invariance(self):
        # swapping the two factors is an isometry of S^3 x S^3
        m = _pp()
        xi = _base(m)
        x = m.random_point(RNG)
        swap = np.concatenate([x[4:], x[:4]])
        u = BubbleField(m, BubbleParams(0.05, xi), CutoffSpec.for_model(m))
        assert float(u(x)) == pytest.approx(float(u(swap)), rel=1e-12)

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            BubbleParams(0.0, np.zeros(8))


class TestGradient:
    def test_matches_finite_differences(self):
        m = _pp()
        xi = _base(m)
        params = BubbleParams(0.05, xi)
        cut = CutoffSpec.for_model(m)
        u = BubbleField(m, params, cut)
        for s in (0.02, 0.1, 0.6):
            v = m.random_tangent(RNG, xi)
            x = m.exp(xi, s * v / np.linalg.norm(v))
            g = u.grad(x[None, :])[0]
            frame = m.tangent_frame(x)
            h = 1e-6
            for w in frame:
                fd = (u(m.exp(x, h * w)[None, :])[0]
                      - u(m.exp(x, -h * w)[None, :])[0]) / (2.0 * h)
                scale = max(1.0, abs(fd))
                assert float(g @ w) == pytest.approx(fd, abs=2e-4 * scale)

    def test_zero_at_center(self):
        m = _pp()
        xi = _base(m)
        u = BubbleField(m, BubbleParams(0.1, xi), CutoffSpec.for_model(m))
        g = u.grad(xi[None, :])[0]
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_laplace_beltrami_flat_oracle(self):
        # Delta U = U^(2*-1) for the uncut flat bubble (positive Laplacian)
        m = ManifoldModel.flat_ball(6, 50.0)
        u = BubbleField(m, BubbleParams(1.0, np.zeros(6)), CutoffSpec.none())
        x = np.array([[0.3, -0.2, 0.1, 0.0, 0.5, -0.1],
                      [2.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
        lap = u.laplace_beltrami(x)
        rhs = u(x) ** 2  # 2* - 1 = 2 at n = 6
        np.testing.assert_allclose(lap, rhs, rtol=1e-10)


class TestConfiguration:
    def test_sum_field_adds(self):
        m = _pp()
        xi = _base(m)
        other = m.exp(xi, 0.5 * m.random_tangent(RNG, xi))
        cfg = Configuration(bubbles=(BubbleParams(1e-3, xi),
                                     BubbleParams(1e-3, other)), K=10.0)
        cut = CutoffSpec.for_model(m)
        x = m.random_point(RNG)[None, :]
        total = multi_bubble_field(m, cfg, cut)(x)
        parts = sum(BubbleField(m, b, cut)(x) for b in cfg.bubbles)
        np.testing.assert_allclose(total, parts, rtol=1e-14)

    def test_admissibility_cone(self):
        m = _pp()
        xi = _base(m)
        v = m.random_tangent(RNG, xi)
        v /= np.linalg.norm(v)
        near = m.exp(xi, 5e-3 * v)
        far = m.exp(xi, 0.5 * v)
        good = Configuration(bubbles=(BubbleParams(1e-3, xi),
                                      BubbleParams(1.5e-3, far)),
                             alpha=2.0, K=100.0)
        ok, violations = is_admissible(good, model=m)
        assert ok and not violations
        # separation^2/(delta_i delta_j) below K
        crowded = Configuration(bubbles=(BubbleParams(1e-3, xi),
                                         BubbleParams(1e-3, near)),
                                alpha=2.0, K=100.0)
        ok, violations = is_admissible(crowded, model=m)
        assert not ok
        assert any(v["constraint"] == "separation" for v in violations)
        # scale ratio outside (1/alpha, alpha)
        lopsided = Configuration(bubbles=(BubbleParams(1e-3, xi),
                                          BubbleParams(5e-3, far)),
                                 alpha=2.0, K=100.0)
        ok, violations = is_admissible(lopsided, model=m)
        assert not ok
        assert any(v["constraint"] == "scale_ratio" for v in violations)

    def test_multi_bubble_field_gradient(self):
        m = _pp()
        xi = _base(m)
        cfg = Configuration(bubbles=(BubbleParams(0.05, xi),))
        u = multi_bubble_field(m, cfg, CutoffSpec.for_model(m))
        single = BubbleField(m, cfg.bubbles[0], CutoffSpec.for_model(m))
        x = m.random_point(RNG)[None, :]
        np.testing.assert_allclose(u.grad(x), single.grad(x), rtol=1e-14)
