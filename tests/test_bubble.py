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

from models import base_point, pp

RNG = np.random.default_rng(7)


def _step_jet_everywhere(t, order):
    # the step as it was before it exponentiated only inside (0, 1):
    # u = exp(-1/t) and v = exp(-1/(1 - t)) on every t, zero outside
    t = np.asarray(t, dtype=float)
    u, v = np.zeros_like(t), np.zeros_like(t)
    u[t > 0] = np.exp(-1.0 / t[t > 0])
    v[1.0 - t > 0] = np.exp(-1.0 / (1.0 - t)[1.0 - t > 0])
    s = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, u / (u + v)))
    inside = (t > 0.0) & (t < 1.0)
    ti, u, v = t[inside], u[inside], v[inside]
    P = u + v
    it = np.divide(1.0, ti, out=np.zeros_like(ti), where=u > 0.0)
    is_ = np.divide(1.0, 1.0 - ti, out=np.zeros_like(ti), where=v > 0.0)
    u1, v1 = u * it**2, -v * is_**2
    P1 = u1 + v1
    d1 = np.zeros_like(t)
    d1[inside] = (u1 * P - u * P1) / P**2
    u2 = u * (it**4 - 2.0 * it**3)
    v2 = v * (is_**4 - 2.0 * is_**3)
    d2 = np.zeros_like(t)
    d2[inside] = ((u2 * P - u * (u2 + v2)) / P**2
                  - 2.0 * P1 * (u1 * P - u * P1) / P**3)
    return (s, d1, d2)[:order + 1]


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

    @pytest.mark.parametrize("t", [
        np.array([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324,
                  1 - 1e-16, 1e-3, 0.5, 1 / 745, 1 - 1 / 745, 2.0, -3.0]),
        np.linspace(-0.5, 1.5, 400).reshape(20, 20),
        np.empty(0),
        0.3, 0.0, 1.0, np.nan, np.array(0.7), np.array(-np.inf)])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_step_jet_exponentiates_only_in_the_band(self, t, order):
        # the band-only step gives the values of the formula it replaced,
        # 0-d arrays for a scalar t, and NaN (with derivatives 0) at NaN
        with np.errstate(all="ignore"):
            want = _step_jet_everywhere(t, order)
        got = step_jet(t, order)
        assert len(got) == len(want) == order + 1
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(np.signbit(g) & ~np.isnan(g),
                                  np.signbit(w) & ~np.isnan(w))

    def test_none_is_identity(self):
        cut = CutoffSpec.none()
        r = np.geomspace(1e-3, 1e3, 11)
        value, d1, d2 = cut.jet(r, 2)
        np.testing.assert_array_equal(value, 1.0)
        np.testing.assert_array_equal(d1, 0.0)
        np.testing.assert_array_equal(d2, 0.0)

    @pytest.mark.parametrize("r0", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_radius(self, r0):
        # each used to act as no cutoff, 1 everywhere
        with pytest.raises(ValueError, match="cutoff radius must be positive"):
            CutoffSpec(r0=r0)

    def test_rejects_cutoff_beyond_injectivity(self):
        m = pp()
        with pytest.raises(ValueError):
            BubbleField(m, BubbleParams(0.1, base_point(m)), CutoffSpec(r0=4.0))


class TestProfile:
    def test_center_value(self):
        # U(center) = (sqrt(n(n-2)) / delta)^((n-2)/2), n = 6
        m = pp()
        delta = 1e-2
        v = BubbleField(m, BubbleParams(delta, base_point(m)),
                        CutoffSpec.for_model(m))(base_point(m))
        assert float(v) == pytest.approx((math.sqrt(24.0) / delta) ** 2,
                                         rel=1e-12)

    def test_off_center_value(self):
        m = pp()
        delta, s = 1e-2, 0.05
        xi = base_point(m)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(xi)
        x = m.exp(xi, s * v / np.linalg.norm(v))
        got = BubbleField(m, BubbleParams(delta, xi), CutoffSpec.none())(x)
        want = (math.sqrt(24.0) * delta / (delta**2 + s**2)) ** 2
        assert float(got) == pytest.approx(want, rel=1e-12)

    def test_scaling_law(self):
        # delta^((n-2)/2) U_delta(exp(delta y)) is independent of delta
        m = pp()
        xi = base_point(m)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(xi)
        v /= np.linalg.norm(v)
        vals = []
        for delta in (1e-3, 1e-2):
            x = m.exp(xi, 2.0 * delta * v)
            u = BubbleField(m, BubbleParams(delta, xi), CutoffSpec.none())(x)
            vals.append(delta**2 * float(u))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)

    def test_cutoff_kills_far_field(self):
        m = pp()
        xi = base_point(m)
        far = m.exp(xi, 0.9 * math.pi
                    * (RNG.standard_normal(m.n) @ m.tangent_frame(xi))
                    / np.linalg.norm(RNG.standard_normal(m.n)
                                     @ m.tangent_frame(xi)))
        u = BubbleField(m, BubbleParams(0.1, xi), CutoffSpec.for_model(m))(far)
        assert float(u) == 0.0

    def test_isometry_invariance(self):
        # swapping the two factors is an isometry of S^3 x S^3
        m = pp()
        xi = base_point(m)
        x = m.random_point(RNG)
        swap = np.concatenate([x[4:], x[:4]])
        u = BubbleField(m, BubbleParams(0.05, xi), CutoffSpec.for_model(m))
        assert float(u(x)) == pytest.approx(float(u(swap)), rel=1e-12)

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            BubbleParams(0.0, np.zeros(8))

    @pytest.mark.parametrize("delta", [-1e-3, math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="positive and finite"):
            BubbleParams(delta, np.zeros(8))

    @pytest.mark.parametrize("center", [
        np.full(8, math.nan), np.r_[1.0, np.zeros(6), math.inf],
        np.zeros((2, 8)), np.float64(0.0)],
        ids=["nan", "inf", "2-D", "0-D"])
    def test_rejects_a_centre_that_is_no_finite_point(self, center):
        # a NaN centre used to be accepted, and a BubbleField built from
        # it returned NaN at every point
        with pytest.raises(ValueError, match="finite 1-D point"):
            BubbleParams(0.1, center)


class TestGradient:
    def test_matches_finite_differences(self):
        m = pp()
        xi = base_point(m)
        params = BubbleParams(0.05, xi)
        cut = CutoffSpec.for_model(m)
        u = BubbleField(m, params, cut)
        for s in (0.02, 0.1, 0.6):
            v = RNG.standard_normal(m.n) @ m.tangent_frame(xi)
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
        m = pp()
        xi = base_point(m)
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
    @pytest.mark.parametrize("cone", [
        dict(alpha=math.nan), dict(alpha=1.0), dict(K=math.nan), dict(K=0.0),
        dict(delta_bar=math.nan), dict(delta_bar=-1.0)])
    def test_rejects_cone_bounds(self, cone):
        with pytest.raises(ValueError):
            Configuration(bubbles=(BubbleParams(0.1, np.zeros(6)),), **cone)

    def test_sum_field_adds(self):
        m = pp()
        xi = base_point(m)
        other = m.exp(xi,
                      0.5 * (RNG.standard_normal(m.n) @ m.tangent_frame(xi)))
        cfg = Configuration(bubbles=(BubbleParams(1e-3, xi),
                                     BubbleParams(1e-3, other)), K=10.0)
        cut = CutoffSpec.for_model(m)
        x = m.random_point(RNG)[None, :]
        total = multi_bubble_field(m, cfg, cut)(x)
        parts = sum(BubbleField(m, b, cut)(x) for b in cfg.bubbles)
        np.testing.assert_allclose(total, parts, rtol=1e-14)

    def test_admissibility_cone(self):
        m = pp()
        xi = base_point(m)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(xi)
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
        m = pp()
        xi = base_point(m)
        cfg = Configuration(bubbles=(BubbleParams(0.05, xi),))
        u = multi_bubble_field(m, cfg, CutoffSpec.for_model(m))
        single = BubbleField(m, cfg.bubbles[0], CutoffSpec.for_model(m))
        x = m.random_point(RNG)[None, :]
        np.testing.assert_allclose(u.grad(x), single.grad(x), rtol=1e-14)
