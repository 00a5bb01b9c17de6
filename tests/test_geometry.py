"""Geometry layer: distances, exponential maps, curvature, quadrature."""

import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowup_lab import geometry
from blowup_lab._smoothstep import _TINY, plateau_jet, radial_bump, step_jet
from blowup_lab.bubble import BubbleField, BubbleParams, CutoffSpec, _profile
from blowup_lab.geometry import (
    CapacityError,
    GeometryError,
    ManifoldModel,
    QuadratureRule,
    _along,
    _BLOCK,
    _angular_orders,
    _polar_rule,
    _radial_grid,
    _rowsum,
    _split_band,
    build_quadrature,
    build_multicenter_quadrature,
    gauss_segment,
    riemann_product_spheres,
    sphere_volume,
    unit_sphere_rule,
    weyl_tensor_from_riemann,
)

from models import base_point, pp

RNG = np.random.default_rng(42)


class TestModels:
    def test_dimensions(self):
        m = pp()
        assert m.n == 6
        assert m.ambient_dim == 8
        assert ManifoldModel.round_sphere(6).ambient_dim == 7
        assert ManifoldModel.flat_ball(7, 10.0).ambient_dim == 7

    def test_volume_product(self):
        # vol(S^3 x S^3) = (2 pi^2)^2
        m = pp()
        assert m.volume == pytest.approx((2.0 * math.pi**2) ** 2, rel=1e-14)

    def test_volume_round_sphere(self):
        m = ManifoldModel.round_sphere(6)
        assert m.volume == pytest.approx(sphere_volume(6), rel=1e-14)

    def test_validate_point_rejects_off_manifold(self):
        m = pp()
        with pytest.raises(GeometryError):
            m.validate_point(1.5 * base_point(m))

    @pytest.mark.parametrize("model", [
        pp(), ManifoldModel.round_sphere(6), ManifoldModel.flat_ball(6, 2.0)],
        ids=["S3xS3", "S6", "B6"])
    @pytest.mark.parametrize("bad", ["all-nan", "one-nan", "one-inf"])
    def test_validate_point_rejects_non_finite(self, model, bad):
        # a NaN fails every comparison, so a check written as "norm > bound"
        # would let it through
        x = base_point(model)
        if bad == "all-nan":
            x[:] = math.nan
        else:
            x[-1] = math.nan if bad == "one-nan" else math.inf
        with pytest.raises(GeometryError):
            model.validate_point(x)
        with pytest.raises(GeometryError):
            build_quadrature(model, x, finest_scale=0.1, angular="radial")

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_flat_ball_rejects_radius(self, radius):
        with pytest.raises(GeometryError, match="positive and finite"):
            ManifoldModel.flat_ball(6, radius)

    def test_injectivity_radius(self):
        assert pp().injectivity_radius == pytest.approx(math.pi)
        assert ManifoldModel.flat_ball(6, 25.0).injectivity_radius == 25.0

    @pytest.mark.parametrize("model", [
        pp(), ManifoldModel.round_sphere(6), ManifoldModel.flat_ball(6, 2.0)],
        ids=["S3xS3", "S6", "B6"])
    def test_cutoff_radius_is_the_bubbles_default(self, model):
        # the rules refine the band of the cutoff the bubbles carry
        assert model.cutoff_radius == model.injectivity_radius / 4.0
        assert CutoffSpec.for_model(model).r0 == model.cutoff_radius


class TestDistance:
    def test_symmetry_and_triangle(self):
        m = pp()
        pts = [m.random_point(RNG) for _ in range(6)]
        for a in pts:
            for b in pts:
                dab = m.distance(a, b)
                assert dab == pytest.approx(m.distance(b, a), abs=1e-14)
                for c in pts:
                    assert dab <= m.distance(a, c) + m.distance(c, b) + 1e-12

    def test_product_distance_is_hypot_of_factors(self):
        m = pp()
        a, b = m.random_point(RNG), m.random_point(RNG)
        s1, s2 = m.factor_distances(a, b)
        assert m.distance(a, b) == pytest.approx(math.hypot(s1, s2), rel=1e-14)

    def test_small_angle_accuracy(self):
        # atan2 of the orthogonal part against the dot product keeps full
        # precision at small angles, where arccos of the dot product loses
        # half the digits
        m = ManifoldModel.round_sphere(3)
        base = base_point(m)
        for t in (1e-3, 1e-6, 1e-8):
            v = np.zeros(4)
            v[1] = t
            x = m.exp(base, v)
            assert m.distance(base, x) == pytest.approx(t, rel=1e-12)

    def test_exp_log_round_trip(self):
        for m in (pp(), ManifoldModel.round_sphere(6)):
            base = m.random_point(RNG)
            for _ in range(5):
                v = 0.5 * (RNG.standard_normal(m.n) @ m.tangent_frame(base))
                x = m.exp(base, v)
                w = m.log(base, x)
                np.testing.assert_allclose(w, v, atol=1e-12)

    def test_exp_preserves_distance(self):
        m = pp()
        base = m.random_point(RNG)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(base)
        v = 0.3 * v / np.linalg.norm(v)
        x = m.exp(base, v)
        assert m.distance(base, x) == pytest.approx(0.3, rel=1e-12)

    def test_distance_gradient_unit_norm(self):
        # |grad d| = 1 in the ambient restriction, including near the center
        m = pp()
        c = base_point(m)
        for r in (1e-5, 1e-3, 0.1, 1.0):
            v = RNG.standard_normal(m.n) @ m.tangent_frame(c)
            x = m.exp(c, r * v / np.linalg.norm(v))
            g = m.distance_gradient(c, x[None, :])[0]
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_distance_gradient_finite_difference(self):
        m = pp()
        c = base_point(m)
        x = m.exp(c, 0.4 * (RNG.standard_normal(m.n) @ m.tangent_frame(c)))
        g = m.distance_gradient(c, x[None, :])[0]
        frame = m.tangent_frame(x)
        h = 1e-6
        for v in frame:
            fd = (m.distance(m.exp(x, h * v), c)
                  - m.distance(m.exp(x, -h * v), c)) / (2.0 * h)
            assert fd == pytest.approx(float(g @ v), abs=1e-6)


_TRANSPORT_MODELS = pytest.mark.parametrize("model", [
    pp(), ManifoldModel.product_spheres(3, 4),
    ManifoldModel.round_sphere(6), ManifoldModel.flat_ball(7, 2.0)],
    ids=["S3xS3", "S3xS4", "S6", "B7"])


class TestTransport:
    """ManifoldModel._transport carries a tangent frame along exp_base(t v)
    by parallel transport, over chains of 20 steps whose factor lengths
    |v_f| are uniform on [0, 1.5]."""

    @staticmethod
    def _chain(model, seed):
        """(base, v, frame) of each step, and the transported frame."""
        rng = np.random.default_rng(seed)
        x = model.random_point(rng)
        frame = model.tangent_frame(x)
        for _ in range(20):
            v = rng.standard_normal(model.n) @ frame
            for sl, _, _ in model._factors:
                v[sl] *= rng.uniform(0.0, 1.5) / np.linalg.norm(v[sl])
            moved = model._transport(x, v, frame)
            yield x, v, frame, moved
            x, frame = model.exp(x, v), moved

    @_TRANSPORT_MODELS
    def test_rows_stay_orthonormal_and_tangent(self, model):
        for x, v, _, moved in self._chain(model, 1):
            y = model.exp(x, v)
            assert np.max(np.abs(moved @ moved.T - np.eye(model.n))) <= 1e-13
            for sl, _, sphere in model._factors:
                if sphere:
                    assert np.max(np.abs(moved[:, sl] @ y[sl])) <= 1e-13

    @_TRANSPORT_MODELS
    def test_direction_of_travel_maps_to_the_velocity(self, model):
        # the unit vector u along v_f, written in the frame, is carried to
        # the geodesic's unit velocity cos(theta) u - sin(theta) base_f
        for x, v, frame, moved in self._chain(model, 2):
            for sl, _, sphere in model._factors:
                theta = np.linalg.norm(v[sl])
                u = np.zeros_like(v)
                u[sl] = v[sl] / theta
                want = np.zeros_like(v)
                want[sl] = (math.cos(theta) * u[sl] - math.sin(theta) * x[sl]
                            if sphere else u[sl])
                np.testing.assert_allclose((frame @ u) @ moved, want,
                                           rtol=0.0, atol=1e-14)

    @_TRANSPORT_MODELS
    def test_transport_back_returns_the_frame(self, model):
        # back from exp_x(v) along the transported -v, to x
        for x, v, frame, moved in self._chain(model, 3):
            back = -(frame @ v) @ moved
            np.testing.assert_allclose(model.exp(model.exp(x, v), back), x,
                                       rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(
                model._transport(model.exp(x, v), back, moved), frame,
                rtol=0.0, atol=1e-14)

    @_TRANSPORT_MODELS
    def test_unmoved_factors_keep_their_bits(self, model):
        for x, v, frame, moved in self._chain(model, 4):
            if not model.is_compact:
                assert _same_bits(moved, frame)
            for sl, _, _ in model._factors:
                still = v.copy()
                still[sl] = 0.0
                assert _same_bits(model._transport(x, still, frame)[:, sl],
                                  frame[:, sl])


_EPS = np.finfo(float).eps
_MAX_ANGLE = 0.999 * math.pi
# fixed example sequence, so a failure reproduces on every run
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
# (p, q): q = 0 draws the round sphere S^p, otherwise S^p x S^q
_DIMS = st.tuples(st.integers(3, 7), st.sampled_from([0, 3, 4]))
_SEEDS = st.integers(0, 2**32 - 1)
_SPLIT = st.floats(0.0, math.pi / 2.0)


def _draw(dims, seed, theta, psi):
    """A model, a base point and a tangent vector of length theta there.

    On a product, psi splits theta between the factors as
    (theta cos psi, theta sin psi); returns the factor angles as well.
    """
    p, q = dims
    m = (ManifoldModel.round_sphere(p) if q == 0
         else ManifoldModel.product_spheres(p, q))
    rng = np.random.default_rng(seed)
    base = m.random_point(rng)
    frame = m.tangent_frame(base)
    if q == 0:
        blocks, angles = [frame], [theta]
    else:
        blocks = [frame[:p], frame[p:]]
        angles = [theta * math.cos(psi), theta * math.sin(psi)]
    v = np.zeros(m.ambient_dim)
    for rows, s in zip(blocks, angles):
        u = rng.standard_normal(len(rows))
        v += s * (u / np.linalg.norm(u)) @ rows
    return m, base, v, angles


class TestDistanceProperties:
    @_PROPERTY
    @given(dims=_DIMS, seed=_SEEDS, theta=st.floats(0.0, _MAX_ANGLE),
           psi=_SPLIT)
    def test_exp_log_round_trip(self, dims, seed, theta, psi):
        # rounding in exp is amplified by s / sin(s) on a factor circle of
        # angle s, which reaches about 1000 at 0.999 pi
        m, base, v, angles = _draw(dims, seed, theta, psi)
        w = m.log(base, m.exp(base, v))
        cond = max([1.0] + [s / math.sin(s) for s in angles if s > 0.0])
        assert np.linalg.norm(w - v) <= 16.0 * _EPS * cond

    @_PROPERTY
    @given(dims=_DIMS, seed=_SEEDS,
           log_theta=st.floats(-12.0, math.log10(_MAX_ANGLE)), psi=_SPLIT)
    def test_distance_matches_chord_formula(self, dims, seed, log_theta,
                                            psi):
        # reference: per-factor chord angles 2 arcsin(|a - b| / 2) of the
        # stored points, well conditioned up to a right angle; arccos of
        # the dot product would return 0 at 1e-12
        theta = 10.0 ** log_theta
        m, base, v, _ = _draw(dims, seed, theta, psi)
        x = m.exp(base, v)
        d = float(m.distance(base, x))
        chords = [2.0 * math.asin(np.linalg.norm(a - b) / 2.0)
                  for a, b in zip(m.split(base), m.split(x))]
        if max(chords) <= math.pi / 2.0:
            assert d == pytest.approx(math.hypot(*chords), rel=1e-14)
        assert abs(d - theta) <= 16.0 * _EPS


# a factor angle from 1e-12 up to within 1e-9 of pi, log-spaced toward
# both ends
_ANGLE = st.one_of(
    st.floats(-12.0, math.log10(math.pi / 2.0)).map(lambda e: 10.0 ** e),
    st.floats(-9.0, math.log10(math.pi / 2.0)).map(
        lambda e: math.pi - 10.0 ** e))


def _at_angles(dims, seed, angles):
    """A model, a base point and a point at the given factor angles from it.

    ``dims`` is drawn as in :func:`_draw`; a round sphere uses angles[0].
    """
    p, q = dims
    m = (ManifoldModel.round_sphere(p) if q == 0
         else ManifoldModel.product_spheres(p, q))
    rng = np.random.default_rng(seed)
    base = m.random_point(rng)
    parts = []
    for b, s in zip(m.split(base), angles):
        u = rng.standard_normal(len(b))
        u -= (u @ b) * b
        u /= np.linalg.norm(u)
        parts.append(math.cos(s) * b + math.sin(s) * u)
    return m, base, np.concatenate(parts)


def _mp_vec(x):
    return [mpmath.mpf(float(t)) for t in x]


def _mp_polar(base, x):
    """50-digit angle and log vector between the directions of two stored
    float vectors (call under mpmath.workdps(50))."""
    b, y = _mp_vec(base), _mp_vec(x)
    nb = mpmath.sqrt(mpmath.fsum(t * t for t in b))
    ny = mpmath.sqrt(mpmath.fsum(t * t for t in y))
    b = [t / nb for t in b]
    y = [t / ny for t in y]
    c = mpmath.fsum(s * t for s, t in zip(b, y))
    w = [t - c * s for s, t in zip(b, y)]
    nw = mpmath.sqrt(mpmath.fsum(t * t for t in w))
    angle = mpmath.atan2(nw, c)
    return angle, [angle * t / nw if nw else mpmath.mpf(0) for t in w]


def _ulps8(ref):
    # 8 ulp of the angle's scale, floored at 1: the kernel's error is
    # absolute, so a tiny angle is held to 8 ulp of 1
    return 8.0 * np.spacing(max(float(ref), 1.0))


class TestProjectionAccuracy:
    """The one projection kernel against 50-digit mpmath references.

    References are computed from the stored float vectors, so they measure
    the kernel's rounding, not the rounding of the points themselves.
    """

    @_PROPERTY
    @given(dims=_DIMS, seed=_SEEDS, angles=st.tuples(_ANGLE, _ANGLE))
    def test_distance_and_factor_angles(self, dims, seed, angles):
        m, base, x = _at_angles(dims, seed, angles)
        with mpmath.workdps(50):
            refs = [_mp_polar(a, b)[0]
                    for a, b in zip(m.split(base), m.split(x))]
            d_ref = mpmath.sqrt(mpmath.fsum(r * r for r in refs))
            for a, b in ((base, x), (x, base)):
                assert abs(mpmath.mpf(float(m.distance(a, b))) - d_ref) \
                    <= _ulps8(d_ref)
                for got, ref in zip(m.factor_distances(a, b), refs):
                    assert abs(mpmath.mpf(float(got)) - ref) <= _ulps8(ref)

    @_PROPERTY
    @given(dims=_DIMS, seed=_SEEDS, theta=_ANGLE, psi=_SPLIT)
    def test_log_map(self, dims, seed, theta, psi):
        # the bound of test_exp_log_round_trip, s / sin s being the
        # conditioning of the log map on a factor circle of angle s
        m, base, v, _ = _draw(dims, seed, theta, psi)
        x = m.exp(base, v)
        w = m.log(base, x)
        with mpmath.workdps(50):
            polars = [_mp_polar(a, b)
                      for a, b in zip(m.split(base), m.split(x))]
            ref = [t for _, vec in polars for t in vec]
            err = mpmath.sqrt(mpmath.fsum(
                (mpmath.mpf(float(g)) - r) ** 2 for g, r in zip(w, ref)))
            cond = max([1.0] + [float(s / mpmath.sin(s))
                                for s, _ in polars if s > 0])
        assert float(err) <= 16.0 * _EPS * cond

    @_PROPERTY
    @given(dims=_DIMS, seed=_SEEDS, angles=st.tuples(_ANGLE, _ANGLE))
    def test_jet_laplacian_matches_separate_path(self, dims, seed, angles):
        # the order-2 jet takes d and the factor angles from one projection;
        # rebuild its Laplacian from distance, the factor angles and the
        # closed-form mean curvature of the geodesic sphere
        m, base, x = _at_angles(dims, seed, angles)
        delta, cutoff = 0.1, CutoffSpec(r0=3.0)
        pts = x[None, :]
        lap = BubbleField(m, BubbleParams(delta, base), cutoff).jet(pts, 2)[1]
        d = m.distance(pts, base)
        if m.kind == "product_spheres":
            r1, r2 = m.factor_distances(pts, base)
            coeff = (1.0 + (m.p - 1) * r1 / np.tan(r1)
                     + (m.q - 1) * r2 / np.tan(r2)) / d
        else:
            coeff = (m.n - 1) / np.tan(d)
        B, B1, B2 = _profile(m.n, delta, d, 2)
        chi, c1, c2 = cutoff.jet(d, 2)
        w1 = c1 * B + chi * B1
        w2 = c2 * B + 2.0 * c1 * B1 + chi * B2
        if d[0] < 1e-12:
            want, scale = -m.n * w2, m.n * np.abs(w2)
        else:
            want, scale = -(w2 + coeff * w1), np.abs(w2) + np.abs(coeff * w1)
        assert np.all(np.abs(lap - want) <= 1e-13 * scale)

    @_PROPERTY
    @given(n=st.sampled_from([6, 7]), seed=_SEEDS,
           log_r=st.floats(-12.0, 1.5))
    def test_flat_ball_factor(self, n, seed, log_r):
        # the ball takes the factor loop of the spheres with w = x - base;
        # every operation then reduces to its Euclidean closed form
        m = ManifoldModel.flat_ball(n, 100.0)
        rng = np.random.default_rng(seed)
        a = rng.uniform(-20.0, 20.0, (8, n))
        v = rng.standard_normal((8, n))
        v *= 10.0 ** log_r / np.linalg.norm(v, axis=-1, keepdims=True)
        b = a + v
        d = np.linalg.norm(a - b, axis=-1)
        assert np.array_equal(m.distance(a, b), d)
        assert np.array_equal(m.log(a, b), b - a)
        assert np.array_equal(m.exp(a, v), a + v)
        assert np.array_equal(m.radial_laplacian_coeff(a, b), (n - 1) / d)
        assert np.array_equal(m.tangent_frame(a[0]), np.eye(n))
        # the gradient at b, away from the centre a: (1/d) (b - a), within
        # 2 ulp of (b - a)/d
        ref = (b - a) / d[:, None]
        assert np.all(np.abs(m.distance_gradient(a, b) - ref)
                      <= 2.0 * np.spacing(np.abs(ref)))

    def test_log_raises_at_and_beyond_injectivity_radius(self):
        s = ManifoldModel.round_sphere(4)
        b = base_point(s)
        with pytest.raises(GeometryError):
            s.log(b, -b)  # the antipode, at exactly pi
        p = pp()
        b = base_point(p)
        b1, b2 = p.split(b)
        for target in (np.concatenate([-b1, b2]),    # d = pi
                       np.concatenate([-b1, -b2])):  # d = pi sqrt(2)
            with pytest.raises(GeometryError):
                p.log(b, target)
            with pytest.raises(GeometryError):
                p.log(b, np.stack([b, target]))  # one bad point in a batch
        f = ManifoldModel.flat_ball(6, 2.0)
        for r in (2.0, 3.0):
            with pytest.raises(GeometryError):
                f.log(np.zeros(6), r * np.eye(6)[0])


class TestCurvature:
    def test_scalar_curvature_product(self):
        # R(S^3 x S^3) = 6 + 6
        assert pp().scalar_curvature() == pytest.approx(12.0)

    def test_weyl_norm_product(self):
        # |W|^2 = 2 p q (p+q) / ((p+q-1)(p+q-2)) * ... = 14.4 for p=q=3
        assert pp().weyl_norm_sq() == pytest.approx(14.4, rel=1e-12)

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


# (model, angular, turn the polar axes toward a random tangent vector)
_CONSTANT_CASES = [
    (ManifoldModel.product_spheres(3, 3), "radial", False),
    (ManifoldModel.product_spheres(3, 3), "biradial", False),
    (ManifoldModel.product_spheres(3, 3),
     dict(n_psi=24, orders_a=[4, 2], orders_b=[1, 1]), True),
    (ManifoldModel.round_sphere(6), [8, 4, 4, 4, 8], False),
    (ManifoldModel.round_sphere(6), "minimal", False),
    (ManifoldModel.round_sphere(6), "radial", False),
    (ManifoldModel.round_sphere(6), "axial", True),
    (ManifoldModel.flat_ball(6, 2.0), "minimal", False),
]
_CONSTANT_IDS = ["S3xS3-radial", "S3xS3-biradial", "S3xS3-axial-axis",
                 "S6-orders", "S6-minimal", "S6-radial", "S6-axial-axis",
                 "B6-minimal"]


def _ball_pair():
    m = ManifoldModel.flat_ball(6, 1.0)
    return m, [0.3 * np.eye(6)[0], -0.3 * np.eye(6)[0]]


def _sphere_centres(count):
    return ManifoldModel.round_sphere(6), list(np.eye(7)[:count])


# every spelling of a multicentre declaration that must be refused, as
# (model, centres, declaration, message), built when the test runs
_REFUSED_SPELLINGS = {
    "B6-radial": lambda: (*_ball_pair(), "radial", "radial orders"),
    "B6-ones-list": lambda: (*_ball_pair(), [1] * 5, "radial orders"),
    "B6-ones-array": lambda: (*_ball_pair(), np.ones(5, dtype=int),
                              "radial orders"),
    "S6-ones-tuple": lambda: (*_sphere_centres(2), (1,) * 5,
                              "radial orders"),
    "S3xS3-radial": lambda: (pp(), _product_centres(), "radial",
                             "radial orders"),
    "S3xS3-ones-dict": lambda: (pp(), _product_centres(),
                                dict(orders_a=[1, 1], orders_b=[1, 1]),
                                "radial orders"),
    "S3xS3-ones-dict-n_psi": lambda: (
        pp(), _product_centres(),
        dict(n_psi=8, orders_a=(1, 1), orders_b=np.ones(2, dtype=int)),
        "radial orders"),
    "S6-3-axial": lambda: (*_sphere_centres(3), "axial", "axisymmetric"),
    "S6-3-none": lambda: (*_sphere_centres(3), None, "axisymmetric"),
    "S6-3-axial-list": lambda: (*_sphere_centres(3), [20, 1, 1, 1, 1],
                                "axisymmetric"),
    "S6-3-axial-array": lambda: (*_sphere_centres(3),
                                 np.array([5, 1, 1, 1, 1]), "axisymmetric"),
    "S6-4-axial": lambda: (*_sphere_centres(4), "axial", "axisymmetric"),
}


class TestQuadrature:
    def test_gauss_segment_polynomial(self):
        x, w = gauss_segment(0.0, 2.0, 8)
        assert float(w @ x**7) == pytest.approx(2.0**8 / 8.0, rel=1e-14)

    def test_unit_sphere_rule_surface_area(self):
        for m, orders in ((2, (8, 8)), (5, (4, 4, 4, 4, 8))):
            _, w = unit_sphere_rule(m, orders)
            assert float(np.sum(w)) == pytest.approx(
                sphere_volume(m), rel=1e-13)

    def test_unit_sphere_rule_moment(self):
        # int x_0^2 over S^m = vol(S^m)/(m+1)
        dirs, w = unit_sphere_rule(3, (16, 16, 16))
        assert float(w @ dirs[:, 0] ** 2) == pytest.approx(
            sphere_volume(3) / 4.0, rel=1e-12)

    @pytest.mark.parametrize("model, angular, with_axis", _CONSTANT_CASES,
                             ids=_CONSTANT_IDS)
    def test_rule_integrates_constants(self, model, angular, with_axis):
        # every model is a join of spheres of directions, so every profile
        # integrates constants exactly, with or without a turned polar axis
        base = base_point(model)
        if with_axis:
            axis = (np.random.default_rng(0).standard_normal(model.n)
                    @ model.tangent_frame(base))
            _, w = _polar_rule(model, base, 0.1, 2_000_000,
                               *_angular_orders(model, angular,
                                                geometry._N_PSI_ONE_CENTRE),
                               axis=axis)
        else:
            w = build_quadrature(model, base, finest_scale=0.1,
                                 angular=angular).weights
        assert float(np.sum(w)) == pytest.approx(model.volume, rel=1e-12)

    def test_rule_nodes_on_manifold(self):
        m = pp()
        rule = build_quadrature(m, base_point(m), finest_scale=0.05,
                                angular="biradial")
        x1, x2 = m.split(rule.nodes)
        np.testing.assert_allclose(np.linalg.norm(x1, axis=-1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(x2, axis=-1), 1.0,
                                   atol=1e-12)

    def test_budget_enforced(self):
        m = pp()
        with pytest.raises(CapacityError):
            build_quadrature(m, base_point(m), finest_scale=1e-4, budget=1000,
                             angular="biradial")

    def test_capacity_message_names_the_planned_rule(self):
        # the message reports the node count of the rule that was asked for:
        # 480 radial nodes on each of 2 x 12 split angles
        m = pp()
        rule = build_quadrature(m, base_point(m), finest_scale=1e-4,
                                angular="radial")
        need = rule.node_count
        assert need == 11520
        with pytest.raises(CapacityError, match=f"needs {need} nodes"):
            build_quadrature(m, base_point(m), finest_scale=1e-4,
                             budget=need - 1, angular="radial")

    def test_unknown_product_profile_names_valid_ones(self):
        m = pp()
        for name in ("fine", "default", "minimal", "axial"):
            with pytest.raises(GeometryError,
                               match="choose from radial, biradial$"):
                build_quadrature(m, base_point(m), finest_scale=0.1, angular=name)
        sphere_names = "choose from minimal, axial, radial$"
        for polar in (ManifoldModel.flat_ball(6, 2.0),
                      ManifoldModel.round_sphere(6)):
            for name in ("biradial", "default", "no-such-profile"):
                with pytest.raises(GeometryError, match=sphere_names):
                    build_quadrature(polar, base_point(polar), finest_scale=0.1,
                                     angular=name)

    @pytest.mark.parametrize("model, angular", [
        (pp(), None),
        (pp(), [2, 4]),
        (pp(), dict(orders_a=[2, 4])),
        (pp(), dict(orders_a=[2, 4], orders_b=[2, 4], n_psy=8)),
        (pp(), dict(orders_a="minimal", orders_b="minimal")),
        (pp(), dict(orders_a=[2, 4, 4], orders_b=[2, 4])),
        (pp(), dict(orders_a=[0, 4], orders_b=[2, 4])),
        (pp(), dict(orders_a=[2, 4], orders_b=[2, 4], n_psi=0)),
        (ManifoldModel.flat_ball(6, 2.0), None),
        (ManifoldModel.flat_ball(6, 2.0), [2, 2, 2, 4]),
        (ManifoldModel.flat_ball(6, 2.0), [2, 2, 2, 2, 0]),
        (ManifoldModel.flat_ball(6, 2.0), [2, 2, 2, 2, 4.5j]),
        (ManifoldModel.round_sphere(6), dict(orders_a=[2, 2, 2, 2, 4])),
    ], ids=["product-none", "product-list", "missing-key", "unknown-key",
            "names-in-a-dict", "wrong-length", "order-0", "n_psi-0",
            "ball-none", "ball-short", "ball-order-0", "ball-complex",
            "sphere-dict"])
    def test_malformed_declaration_rejected(self, model, angular):
        # a declaration is a profile name or the orders themselves, and
        # nothing stands in for a missing one; to the multicentre builder
        # None declares "axial"
        with pytest.raises(GeometryError, match="neither a profile"):
            build_quadrature(model, base_point(model), finest_scale=0.1,
                             angular=angular)
        if angular is not None:
            with pytest.raises(GeometryError, match="neither a profile"):
                build_multicenter_quadrature(
                    model, [base_point(model), base_point(model)],
                    finest_scale=0.1, angular=angular, patch_angular=angular)

    @pytest.mark.parametrize("kw", ["angular", "patch_angular"])
    @pytest.mark.parametrize("case", list(_REFUSED_SPELLINGS),
                             ids=list(_REFUSED_SPELLINGS))
    def test_multicentre_refusals_read_the_resolved_orders(self, case, kw):
        # every spelling that resolves to radial orders is refused, and on
        # a sphere every spelling of axial orders unless there are two
        # centres: the refusal reads the orders, not the name
        model, centres, spelling, match = _REFUSED_SPELLINGS[case]()
        other = "biradial" if model.kind == "product_spheres" else "minimal"
        declared = {"angular": other, "patch_angular": other, kw: spelling}
        with pytest.raises(GeometryError, match=match):
            build_multicenter_quadrature(model, centres, finest_scale=0.1,
                                         **declared)

    def test_product_multicentre_rule_declares_its_profile(self):
        # None declares "axial", which a product lacks
        with pytest.raises(GeometryError, match="'axial' for product"):
            build_multicenter_quadrature(pp(), _product_centres(),
                                         finest_scale=0.1)

    def test_radial_profile_needs_a_symmetric_domain(self):
        # a flat ball is symmetric only about its origin; about any other
        # centre no profile resolves the exit radius of the rays
        m = ManifoldModel.flat_ball(6, 2.0)
        build_quadrature(m, np.zeros(6), finest_scale=0.1, angular="radial")
        off = np.zeros(6)
        off[0] = 0.5
        for angular in ("radial", [8, 4, 4, 4, 8], "minimal", "axial"):
            with pytest.raises(GeometryError, match="origin"):
                build_quadrature(m, off, finest_scale=0.1, angular=angular)

    @pytest.mark.parametrize("nodes, weights", [
        (np.zeros((3, 6)), [1.0, np.nan, 1.0]),
        (np.zeros((3, 6)), [1.0, np.inf, 1.0]),
        (np.zeros((3, 6)), [1.0, 0.0, 1.0]),
        (np.zeros((3, 6)), [1.0, -1.0, 1.0]),
        (np.zeros((3, 6)), [1.0, 1.0]),
        (np.zeros(3), [1.0, 1.0, 1.0]),
        (np.empty((0, 8)), []),
    ], ids=["nan", "inf", "zero", "negative", "count-mismatch", "1-D-nodes",
            "zero-nodes"])
    def test_malformed_rule_rejected_at_construction(self, nodes, weights):
        with pytest.raises(GeometryError):
            QuadratureRule(nodes=nodes, weights=np.array(weights),
                           finest_scale=1.0)

    def test_finest_scale_domain(self):
        m = pp()
        with pytest.raises(GeometryError):
            build_quadrature(m, base_point(m), finest_scale=0.0,
                             angular="biradial")

    def test_multicenter_integrates_constants(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        c1, c2 = np.zeros(6), np.zeros(6)
        c2 = c2.copy()
        c2[0] = 0.5
        rule = build_multicenter_quadrature(m, [c1, c2], finest_scale=0.01)
        ball = sphere_volume(5) / 6.0 * 10.0**6
        assert float(np.sum(rule.weights)) == pytest.approx(ball, rel=1e-9)
        assert np.all(rule.weights > 0.0)

    def test_multicenter_needs_two_centres(self):
        m = ManifoldModel.flat_ball(6, 10.0)
        with pytest.raises(GeometryError, match="two centres"):
            build_multicenter_quadrature(m, [np.zeros(6)], finest_scale=0.01)

    @pytest.mark.parametrize("model", [ManifoldModel.round_sphere(6), pp(),
                                       ManifoldModel.flat_ball(6, 1.0)],
                             ids=["S6", "S3xS3", "B6"])
    def test_patch_radius_bounds_the_rule(self, model):
        # the multicentre patches: a rule for the ball of radius 0.05
        c = base_point(model)
        if model.kind == "flat_ball":
            c[0] = 0.9
        angular = "biradial" if model.kind == "product_spheres" else "minimal"
        nodes, weights = _polar_rule(
            model, c, 1e-2, 2_000_000,
            *_angular_orders(model, angular, geometry._N_PSI_MULTICENTRE),
            extent=0.05)
        d = model.distance(nodes, c)
        assert np.all(d < 0.05)
        assert np.max(d) > 0.049
        assert np.all(weights > 0.0)

    def test_multicenter_budget_split_over_pieces(self):
        # the budget is split evenly over the two pieces.  The patch is a
        # rule for its own ball of radius 0.01 (153,600 nodes); the first
        # centre's piece, a rule for the whole ball, needs 455,680, and the
        # budget pays for all of them, though its 1,920 nodes within 0.005
        # of the other centre have weight 0 and are dropped.  So
        # 455,680 + 153,600 - 1,920 = 607,360 are kept, and the rule fits
        # every budget of 2 x 455,680 = 911,360 or more.  The orders are
        # those of a full angular grid, 64 directions per polar angle.
        m = ManifoldModel.flat_ball(7, 100.0)
        c1, c2 = np.zeros(7), np.zeros(7)
        c1[0], c2[0] = -0.01, 0.01
        full = [20] + [2] * 4 + [4]

        def build(budget):
            return build_multicenter_quadrature(
                m, [c1, c2], finest_scale=1e-3, budget=budget, angular=full,
                patch_angular=full)
        assert build(1_300_000).node_count == 607_360
        assert build(911_360).node_count == 607_360
        # one node less, and half the budget (455,679) misses by one
        with pytest.raises(CapacityError, match="needs 455680 nodes"):
            build(911_359)

    def test_multicenter_axis_between_distant_centres(self):
        # centres 1.2 apart in the unit ball: the log map refuses a distance
        # beyond the radius, but the polar axes must still follow the chord,
        # whichever line it lies on (along e2 the frame's first vector e1
        # was taken instead, and the weights summed to 3 volumes)
        m = ManifoldModel.flat_ball(6, 1.0)
        e1, e2 = np.eye(6)[:2]
        sums = [float(np.sum(build_multicenter_quadrature(
            m, [0.6 * e, -0.6 * e], finest_scale=1e-2).weights))
            for e in (e1, e2)]
        assert sums[1] == pytest.approx(sums[0], rel=1e-12)
        assert sums[1] == pytest.approx(m.volume, rel=1e-4)

    def test_multicenter_patch_clipped_by_the_boundary(self):
        # the patch about the second centre, 0.97 e1, has radius 0.05, so
        # the directions toward the boundary end at the unit sphere before
        # the patch does
        m = ManifoldModel.flat_ball(6, 1.0)
        e1 = np.eye(6)[0]
        rule = build_multicenter_quadrature(m, [0.87 * e1, 0.97 * e1],
                                            finest_scale=1e-2)
        r = np.linalg.norm(rule.nodes, axis=-1)
        assert np.all(r < 1.0)
        assert np.max(r) > 0.999
        assert np.all(rule.weights > 0.0)
        assert float(np.sum(rule.weights)) == pytest.approx(m.volume,
                                                            rel=1e-9)

    def test_multicenter_three_collinear_centres(self):
        # three localizers on one line in the unit 6-ball: the first
        # centre's piece is weighted 1 minus the other two, which must
        # stay positive.  The sum of weights misses the volume by
        # -1.4238e-7, within the -1.4255e-7 of a rule built from a patch
        # per centre plus a clipped background piece.
        m = ManifoldModel.flat_ball(6, 1.0)
        e1 = np.eye(6)[0]
        rule = build_multicenter_quadrature(
            m, [-0.3 * e1, 0.0 * e1, 0.25 * e1], finest_scale=1e-2)
        assert np.all(rule.weights > 0.0)
        assert abs(float(np.sum(rule.weights)) / m.volume - 1.0) <= 1.4255e-7

    def test_multicenter_three_scheduled_centres_on_a_product(self):
        # the k = 3 reduced-limit layout on S^3 x S^3 at eps = 1e-3, one
        # bubble at each maximum of a three-bump H (408,576 nodes).  The
        # pinned sum and ratio are those of a rule built from a patch per
        # centre plus a background piece (454,144 nodes): the ratio agrees
        # to 1.7e-9, and the sum misses the volume by the same -1.736282e-4
        # (to 4e-8 of it), the error of the n_psi = 4 angular grid.
        from blowup_lab.reduced import (build_H, reduced_limit_ratio,
                                        schedule_configuration)
        m = pp()
        xi0 = m.random_point(np.random.default_rng(0))
        Hb = build_H(3, 6, seed=3)
        ts, eps = [1.0] * 3, 1e-3
        cfg, sch = schedule_configuration(m, xi0, ts, Hb.maxima, eps)
        coarse = dict(n_psi=4, orders_a=[2, 4], orders_b=[2, 4])
        rule = build_multicenter_quadrature(
            m, [b.center for b in cfg.bubbles], finest_scale=sch.delta_eps,
            angular=coarse, patch_angular=coarse)
        assert np.all(rule.weights > 0.0)
        dev = float(np.sum(rule.weights)) / m.volume - 1.0
        assert dev == pytest.approx(-1.736282e-4, rel=1e-6)
        ratio = reduced_limit_ratio(m, xi0, ts, Hb.maxima, eps, Hb, rule)[0]
        assert ratio == pytest.approx(4.343808996954145, rel=1e-8)

    @pytest.mark.parametrize("first", [0.3, 0.97])
    def test_multicenter_flat_centres_off_one_line_rejected(self, first):
        # each ray's exit radius is symmetric about the line through the
        # origin and the rule's centre; polar axes off that line miss it
        # (the sums of weights were 55% and 391% off the ball's volume)
        m = ManifoldModel.flat_ball(6, 1.0)
        e1, e2 = np.eye(6)[:2]
        with pytest.raises(GeometryError, match="one line through the origin"):
            build_multicenter_quadrature(
                m, [first * e1, first * e1 + 0.1 * e2], finest_scale=1e-2)


def _grid_alone(finest_scale, r_patch, r_outer, transition):
    """One radial grid walked panel by panel on its own: innermost order 8,
    annuli inside the patch 16, panels beyond it 24."""
    panels = [(0.0, min(finest_scale / 10.0, r_outer), 8)]
    r = panels[-1][1]
    while r < min(r_patch, r_outer) * (1 - 1e-14):
        panels.append((r, min(2.0 * r, r_patch, r_outer), 16))
        r = panels[-1][1]
    while r < r_outer * (1 - 1e-14):
        panels.append((r, min(2.0 * r, r_outer), 24))
        r = panels[-1][1]
    pieces = [gauss_segment(*p) for panel in panels
              for p in _split_band(panel, transition)]
    return tuple(np.concatenate(z) for z in zip(*pieces))


def _two_bubble_centres(n, separation):
    axis = np.random.default_rng(0).standard_normal(n)
    axis /= np.linalg.norm(axis)
    return [-0.5 * separation * axis, 0.5 * separation * axis]


def _product_centres():
    # two centres 0.36 apart on S^3 x S^3, off both factor axes
    base = base_point(pp())
    frame = pp().tangent_frame(base)
    return [base, pp().exp(base, 0.3 * frame[0] + 0.2 * frame[3])]


_BIRADIAL_24 = dict(n_psi=24, orders_a=[2, 4], orders_b=[2, 4])


def _psi_radii():
    # the outer radii pi / max(cos psi, sin psi) of a product's join angles
    psi = np.concatenate([gauss_segment(0.0, math.pi / 4.0, 24)[0],
                          gauss_segment(math.pi / 4.0, math.pi / 2.0, 24)[0]])
    return [math.pi / max(math.cos(p), math.sin(p)) for p in psi]


def _exit_radii():
    # exit radii of 20 rays from 0.01 e1 in a ball of radius 100
    c = 0.01 * np.cos(gauss_segment(0.0, math.pi, 20)[0])
    return [float(r) for r in -c + np.sqrt(c**2 + 100.0**2 - 0.01**2)]


# an edge s0 * 2^6 of the grids with finest scale 1e-3
_EDGE = 1e-3 / 10.0 * 2**6


def _near_edges():
    # a patch of extent 0.01 < r0: its edges are s0 * 2^j up to 6.4e-3,
    # then 0.01.  Radii within 1e-14 relative above and below an edge (the
    # grid stops at the edge, or cuts the panel just short of it), one
    # whose stop r (1 - 1e-14) is the edge 3.2e-3 itself, one inside the
    # innermost panel, one mid-panel and the extent itself
    return [0.01, _EDGE * (1 + 5e-15), _EDGE / 2 * (1 - 5e-15),
            _EDGE / 2 / (1 - 1e-14), 5e-5, 0.005, _EDGE]


class TestSharedBuildWork:
    @pytest.mark.parametrize("finest, r_patch, radii, transition", [
        (1e-3, math.pi / 4.0, _psi_radii(), (math.pi / 8.0, math.pi / 4.0)),
        (5e-3, 25.0, _exit_radii(), None),
        (1e-3, 0.01, _near_edges(), None),
        # the last annulus ends at an edge 1e-14 short of the patch
        (1e-3, _EDGE * (1 + 5e-15), [_EDGE * (1 + 5e-15), 0.05], None),
    ], ids=["compact-band", "flat-ball", "edges-and-patch", "patch-edge"])
    def test_shared_panels_match_a_grid_built_alone(
            self, finest, r_patch, radii, transition):
        for r in radii:
            x, w = _radial_grid(finest, r_patch, r, transition)
            x_alone, w_alone = _grid_alone(finest, r_patch, r, transition)
            assert np.array_equal(x, x_alone) and np.array_equal(w, w_alone)

    def test_direction_rules_are_cached_and_read_only(self):
        # the directions and the radial Gauss panels alike
        for rule, args, again_args in (
                (unit_sphere_rule, (5, (20, 1, 1, 1, 1)),
                 (5, tuple([20, 1, 1, 1, 1]))),
                (gauss_segment, (1e-4, 2e-4, 16), (1e-4, 2e-4, 16))):
            nodes, weights = rule(*args)
            again = rule(*again_args)
            assert again[0] is nodes and again[1] is weights
            for a in (nodes, weights):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @pytest.mark.parametrize("build, again", [
        (lambda: build_multicenter_quadrature(
            ManifoldModel.flat_ball(6, 100.0), _two_bubble_centres(6, 0.02),
            finest_scale=1e-3), None),
        (lambda: build_quadrature(pp(), base_point(pp()), finest_scale=1e-3,
                                  angular="radial"), None),
        # a multicentre product rule takes 24 split angles per panel, so
        # "biradial" by name is the dict that gives 24
        (lambda: build_multicenter_quadrature(
            pp(), _product_centres(), finest_scale=0.1, angular="biradial",
            patch_angular="biradial"),
         lambda: build_multicenter_quadrature(
            pp(), _product_centres(), finest_scale=0.1,
            angular=_BIRADIAL_24, patch_angular=_BIRADIAL_24)),
    ], ids=["two-bubble", "S3xS3-radial", "S3xS3-multicentre-24-splits"])
    def test_rule_built_twice_is_identical(self, build, again):
        first, second = build(), (again or build)()
        assert np.array_equal(first.nodes, second.nodes)
        assert np.array_equal(first.weights, second.weights)

    def test_each_panel_evaluated_once_per_build(self, monkeypatch):
        # a two-bubble rule cuts 21 radial grids (one patch and 20 rays of
        # the first centre's rule) from 42 distinct Gauss panels
        m = ManifoldModel.flat_ball(6, 100.0)
        centres = _two_bubble_centres(6, 0.02)
        rule = build_multicenter_quadrature(m, centres, finest_scale=1e-3)
        gauss_segment.cache_clear()
        again = build_multicenter_quadrature(m, centres, finest_scale=1e-3)
        # a panel evaluated twice in one build would be a miss that found
        # its entry evicted, and count more misses than entries
        info = gauss_segment.cache_info()
        assert info.hits and info.misses == info.currsize == 42
        assert np.array_equal(again.nodes, rule.nodes)

    @pytest.mark.parametrize("separation, dropped", [(0.02, 30), (0.2, 44)])
    def test_multicenter_builds_each_centre_once(self, monkeypatch,
                                                 separation, dropped):
        # one polar rule per centre, and the first centre's is the whole
        # ball's: its direction set is built once, and the only nodes built
        # to be dropped are its nodes where the other centre's localizer is
        # 1, so their weight is exactly 0
        m = ManifoldModel.flat_ball(6, 100.0)
        centres = _two_bubble_centres(6, separation)
        r_i = float(m.distance(*centres)) / 2.0
        built = []

        def counted(model, center, *args, **kw):
            nodes, weights = _polar_rule(model, center, *args, **kw)
            built.append((center, kw.get("extent", math.inf), len(weights)))
            return nodes, weights
        monkeypatch.setattr(geometry, "_polar_rule", counted)
        rule = build_multicenter_quadrature(m, centres, finest_scale=1e-3)
        assert [(tuple(c), e) for c, e, _ in built] \
            == [(tuple(centres[0]), math.inf), (tuple(centres[1]), r_i)]
        assert sum(n for _, _, n in built) - rule.node_count == dropped

        nodes, weights = _polar_rule(
            m, centres[0], 1e-3, 2_000_000,
            *_angular_orders(m, "axial", geometry._N_PSI_MULTICENTRE),
            axis=centres[1] - centres[0])
        d = m.distance(nodes, centres[1])
        # the localizer 1 within r_i/2, and rounded to 1 a little beyond
        one = step_jet(2.0 * (r_i - d) / r_i)[0] == 1.0
        assert np.count_nonzero(one) == dropped
        assert np.all(d[one] < 0.52 * r_i)
        kept = ~one
        first = np.count_nonzero(kept)
        assert np.array_equal(rule.nodes[:first], nodes[kept])
        # bit-identical where the other localizer is 0
        far = d[kept] >= r_i
        assert np.count_nonzero(far) > 0.9 * first
        assert np.array_equal(rule.weights[:first][far], weights[kept][far])


def _same_bits(a, b):
    """Same type, shape and values, zeros with the same sign (NaN == NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~np.isnan(a),
                               np.signbit(b) & ~np.isnan(b)))


def _rows(width, count=500):
    # magnitudes over 40 decades, and -0.0 often enough that some rows
    # hold nothing else
    x = RNG.standard_normal((count, width)) \
        * 10.0 ** RNG.integers(-20, 20, (count, width))
    x[RNG.random(x.shape) < 0.4] = -0.0
    x[RNG.random(x.shape) < 0.05] = 0.0
    return x


def _in_column_order(a):
    """The sum over the last axis, one column at a time from +0.0."""
    out = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        out = out + a[..., j]
    return out


class TestPerNodeKernels:
    """The per-node kernels add in one fixed order, which on rows of fewer
    than 8 entries, and on coordinate-major blocks at every width, is that
    of one np.add.reduce call.

    Every CSV digit rests on these: a numpy release that sums short rows
    in another order fails here, not silently in the outputs.
    """

    @pytest.mark.parametrize("width", range(1, 10))
    def test_rowsum_is_numpy_sum_and_norm(self, width):
        wide = _rows(2 * width)
        for a in (np.ascontiguousarray(wide[:, :width]),  # C-contiguous
                  np.asfortranarray(wide[:, :width]),     # coordinate-major
                  wide[:, :width],                        # a factor slice
                  wide[:, ::2],                           # strided columns
                  wide[:9, :width],                       # a few points
                  np.asfortranarray(wide[:9, :width]),
                  wide[0, :width],                        # one point
                  wide[:0, :width],                       # no rows
                  wide[:, :width].reshape(20, 25, width)):
            assert _same_bits(_rowsum(a), _in_column_order(a))
            if width < 8:
                # numpy adds rows of fewer than 8 entries in order
                assert _same_bits(_rowsum(a), np.add.reduce(a, axis=-1))
                assert _same_bits(np.sqrt(_rowsum(a * a)),
                                  np.linalg.norm(a, axis=-1))
        # integration blocks: row slices of coordinate-major nodes, and the
        # temporaries derived from them, which take one np.add.reduce
        nodes = np.asfortranarray(_rows(width, _BLOCK + 4_000))
        nodes[_BLOCK // 2 + 3] = -0.0
        for i, n in [(0, _BLOCK // 2), (_BLOCK // 2, _BLOCK // 2),
                     (_BLOCK // 2 - 5, 32_768), (_BLOCK + 1_000, 3_000),
                     (7, 2), (5, 1), (0, _BLOCK + 4_000), (11, 257)]:
            block = nodes[i:i + n]
            assert block.strides[0] == block.itemsize
            for a in (block, block * block):
                assert _same_bits(_rowsum(a), _in_column_order(a))
                if n > 1:
                    assert _same_bits(_rowsum(a), np.add.reduce(a, axis=-1))
        assert _same_bits(_rowsum(nodes)[_BLOCK // 2 + 3], 0.0)

    def test_rowsum_of_negative_zeros_is_positive_zero(self):
        a = np.full((3, 4), -0.0)
        assert not np.signbit(_rowsum(a)).any()

    def test_single_point_laplacian_coefficient(self):
        m = pp()
        c = base_point(m)
        x = m.exp(c, 5e-5 * m.tangent_frame(c)[0]
                  + 0.3 * m.tangent_frame(c)[4])
        assert _same_bits(m.radial_laplacian_coeff(c, x),
                          m.radial_laplacian_coeff(c, x[None])[0])

    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_ball_gradient_is_the_general_path(self, n):
        m = ManifoldModel.flat_ball(n, 100.0)
        c = RNG.uniform(-1.0, 1.0, n)
        pts = np.vstack([RNG.uniform(-2.0, 2.0, (300, n)), c, c + 1e-301])
        d, g = m._distance_jet(c, pts, 1)
        _, polars = m._polars(pts, c)
        general = _along(1.0, np.concatenate(
            [_along(-r, w, nw) for r, w, nw, _ in polars], axis=-1), d)
        assert np.array_equal(g, general)
        assert _same_bits(g, general)


# The masked formulas that step_jet, radial_bump, _along, _rcotr and the
# Laplacian coefficient had before they took index arrays and plain
# divisions, kept as references: the rewrites change no bit.


def _masked_step_jet(t, order=0):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    with np.errstate(over="ignore", under="ignore"):
        u = np.exp(-1.0 / ti)
        v = np.exp(-1.0 / (1.0 - ti))
    P = u + v
    s = np.heaviside(t - 1.0, 1.0, out=np.empty_like(t))
    s[inside] = u / P
    if order == 0:
        return (s,)
    it = np.divide(1.0, ti, out=np.zeros_like(ti), where=u > 0.0)
    is_ = np.divide(1.0, 1.0 - ti, out=np.zeros_like(ti), where=v > 0.0)
    u1 = u * it**2
    v1 = -v * is_**2
    P1 = u1 + v1
    d1 = np.zeros_like(t)
    d1[inside] = (u1 * P - u * P1) / P**2
    if order == 1:
        return s, d1
    u2 = u * (it**4 - 2.0 * it**3)
    v2 = v * (is_**4 - 2.0 * is_**3)
    d2 = np.zeros_like(t)
    d2[inside] = ((u2 * P - u * (u2 + v2)) / P**2
                  - 2.0 * P1 * (u1 * P - u * P1) / P**3)
    return s, d1, d2


def _masked_radial_bump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    if np.any(inside):
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
    return out


def _masked_along(length, w, nw):
    small = nw < 1e-300
    scale = np.where(small, 0.0, length / np.where(small, 1.0, nw))
    return scale[..., None] * w


def _masked_rcotr(r, c, nw):
    return np.divide(r * c, nw, out=np.ones_like(nw), where=nw > 0.0)


def _masked_distance_jet(m, center, pts, order):
    d, polars = m._polars(np.asarray(pts, dtype=float),
                          np.asarray(center, dtype=float))
    if order == 0:
        return d, None
    if order == 1 and not m.is_compact:
        return d, _masked_along(-1.0, polars[0][1], d)
    if order == 1:
        g = np.concatenate([_masked_along(-r, w, nw) for r, w, nw, _ in polars],
                           axis=-1)
        return d, _masked_along(1.0, g, d)
    num = sum(((k - 1) * _masked_rcotr(r, c, nw) for (r, _, nw, c), (_, k, _)
               in zip(polars, m._factors)), len(polars) - 1)
    return d, num / np.where(d < 1e-300, 1.0, d)


def _same_values(got, want):
    """:func:`_same_bits` on each of two tuples of results, which must also
    have the same types (a scalar for one point stays a scalar)."""
    return len(got) == len(want) and all(
        type(g) is type(w) and _same_bits(g, w) for g, w in zip(got, want))


# a dense grid over the step's band and past its ends, both ends of the
# band down to where exp(-1/t) underflows, and its special values, with
# subnormals on either side of the smallest normal float
_STEP_ARGS = np.concatenate([
    np.linspace(-0.1, 1.1, 120_001),
    np.geomspace(1e-300, 0.1, 3_000),
    1.0 - np.geomspace(1e-16, 0.1, 3_000),
    [0.0, -0.0, 5e-324, 1e-310, np.nextafter(_TINY, 0.0), _TINY, 1e-300,
     np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), np.nan, np.inf,
     -np.inf]])


class TestKernelsKeepTheirBits:
    """The cutoff step, the bump and the metric kernels against the masked
    formulas above, bit for bit, with divide-by-zero, overflow and invalid
    operations raising.  The step's u / (u + v) underflows to a subnormal
    near the ends of its band in both, as numpy's default allows, so the
    step is checked with underflow ignored."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_step_and_plateau(self, order):
        r0 = math.pi / 4.0
        with warnings.catch_warnings(), \
                np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            assert _same_values(step_jet(_STEP_ARGS, order),
                                _masked_step_jet(_STEP_ARGS, order))
            for t in (0.3, -0.0, np.nan, 2.0, np.array(5e-324)):
                assert _same_values(step_jet(t, order),
                                    _masked_step_jet(t, order))
            # plateau_jet is step_jet(2 (r0 - r) / r0) and its scaled
            # derivatives
            r = r0 - 0.5 * r0 * _STEP_ARGS
            want = _masked_step_jet(2.0 * (r0 - r) / r0, order)
            want = want[:1] + tuple(sk * c for sk, c in
                                    zip(want[1:], (-2.0 / r0, 4.0 / r0**2)))
            assert _same_values(plateau_jet(r, r0, order), want)

    def test_radial_bump(self):
        s = np.concatenate([np.linspace(-1.1, 1.1, 50_001), np.geomspace(
            1e-300, 1.0, 1_000), [-0.0, np.nextafter(1.0, 0.0), -1.0,
                                  np.nan, np.inf, -np.inf]])
        with warnings.catch_warnings(), \
                np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            assert _same_bits(radial_bump(s), _masked_radial_bump(s))
            for x in (0.3, -0.0, 1.0, np.array(0.99)):
                assert _same_bits(radial_bump(x), _masked_radial_bump(x))

    @pytest.mark.parametrize("model", [
        pp(), ManifoldModel.product_spheres(3, 4),
        ManifoldModel.round_sphere(6), ManifoldModel.flat_ball(7, 2.0)],
        ids=["S3xS3", "S3xS4", "S6", "B7"])
    def test_distance_jet(self, model):
        rng = np.random.default_rng(11)
        c = model.random_point(rng)
        # each factor at the centre or at its antipode (the reflection of
        # the centre on the ball), then points near the centre and far
        pts = [np.concatenate([s * part for s, part in zip(signs,
                                                             model.split(c))])
               for signs in itertools.product(
                   (1.0, -1.0), repeat=len(model._factors))]
        frame = model.tangent_frame(c)
        pts += [model.exp(c, h * frame[i % len(frame)])
                for i, h in enumerate(np.geomspace(1e-12, 1.0, 12))]
        pts += [model.random_point(rng) for _ in range(50)]
        pts = np.array(pts)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for order in (0, 1, 2):
                for x in (pts, np.asfortranarray(pts), *pts[:6]):
                    got = model._distance_jet(c, x, order)
                    want = _masked_distance_jet(model, c, x, order)
                    assert _same_values(got[:1], want[:1])
                    if order:
                        assert _same_values(got[1:], want[1:])


# a small rule per model: minimal direction rules, two split angles per
# panel on products
_SMALL_PRODUCT = dict(n_psi=2, orders_a=[2, 4], orders_b=[2, 4])
_LAYOUT_MODELS = {
    "S3xS3": (pp(), _SMALL_PRODUCT),
    "S3xS4": (ManifoldModel.product_spheres(3, 4),
              dict(_SMALL_PRODUCT, orders_b=[2, 2, 4])),
    "S6": (ManifoldModel.round_sphere(6), "minimal"),
    "B7": (ManifoldModel.flat_ball(7, 2.0), "minimal"),
}


def _metric_calls(m, c, pts):
    """Every per-point metric result on ``pts`` about ``c``, flattened to
    arrays with one leading entry per point."""
    out = [m.distance(c, pts), m.distance(pts, c)]
    for order in (0, 1, 2):
        d, jet = m._distance_jet(c, pts, order)
        out += [d] if jet is None else [d, jet]
    out += list(m._log_and_distance(c, pts))
    near, v = m._log_within(c, pts, 0.8)
    mask = np.zeros(len(pts), dtype=bool)
    mask[near] = True
    logs = np.full(pts.shape, np.nan)
    logs[near] = v
    return out + [mask, logs]


class TestCoordinateMajorRules:
    """Rules store their nodes coordinate-major; no metric value depends on
    the layout."""

    @pytest.mark.parametrize("build", [
        lambda: build_quadrature(ManifoldModel.flat_ball(6, 1.0),
                                 np.zeros(6), finest_scale=0.1,
                                 angular=[8, 4, 4, 4, 8]),
        lambda: build_quadrature(ManifoldModel.round_sphere(6),
                                 base_point(ManifoldModel.round_sphere(6)),
                                 finest_scale=0.1, angular="minimal"),
        lambda: build_quadrature(pp(), base_point(pp()), finest_scale=0.1,
                                 angular="biradial"),
        lambda: build_multicenter_quadrature(
            ManifoldModel.flat_ball(6, 100.0), _two_bubble_centres(6, 0.02),
            finest_scale=1e-2),
        lambda: build_multicenter_quadrature(
            pp(), _product_centres(), finest_scale=0.1, angular="biradial",
            patch_angular="biradial"),
    ], ids=["B6", "S6", "S3xS3", "multicentre-flat", "multicentre-S3xS3"])
    def test_builders_return_coordinate_major_nodes(self, build):
        rule = build()
        assert rule.nodes.flags.f_contiguous and rule.node_count > 1000

    def test_row_major_nodes_are_converted(self):
        nodes = RNG.standard_normal((50, 8))
        rule = QuadratureRule(nodes=nodes, weights=np.ones(50),
                              finest_scale=1.0)
        assert rule.nodes.flags.f_contiguous
        assert np.array_equal(rule.nodes, nodes)

    @pytest.mark.parametrize("name", list(_LAYOUT_MODELS))
    def test_metric_bits_do_not_depend_on_the_layout(self, name):
        m, angular = _LAYOUT_MODELS[name]
        base = base_point(m)
        nodes = build_quadrature(m, base, finest_scale=0.3,
                                 angular=angular).nodes
        assert nodes.flags.f_contiguous
        frame = m.tangent_frame(base)
        c = m.exp(base, 0.4 * frame[0] + 0.3 * frame[-1])
        ref = _metric_calls(m, c, nodes)
        got = _metric_calls(m, c, np.ascontiguousarray(nodes))
        assert all(_same_bits(a, b) for a, b in zip(got, ref))
        for i in range(0, len(nodes), len(nodes) // 97):
            got = _metric_calls(m, c, nodes[i:i + 1])
            assert all(_same_bits(a, b[i:i + 1]) for a, b in zip(got, ref))


# factor angles from 1e-9 up to within 1e-3 of pi
_LAPLACIAN_ANGLES = np.geomspace(1e-9, math.pi - 1e-3, 9)


class TestLaplacianCoefficient:
    """The radial Laplacian coefficient against 50-digit mpmath references.

    Its sphere factors take r cot r as r c/|w| from the projection; the
    reference takes r cot r of the angle between the stored points.  The
    coefficient is checked times the distance it divides by, which is
    checked on its own above, so a tiny distance's relative error does not
    hide the numerator's.  An angle is accurate to a few ulp absolute, so
    each r cot r is held to 8 ulp of its value and of its slope in r.
    """

    @pytest.mark.parametrize("dims", [(3, 3), (6, 0), (3, 4)],
                             ids=["S3xS3", "S6", "S3xS4"])
    def test_against_mpmath(self, dims):
        pairs = (itertools.product(_LAPLACIAN_ANGLES, repeat=2) if dims[1]
                 else [(a, a) for a in _LAPLACIAN_ANGLES])
        for i, angles in enumerate(pairs):
            m, base, x = _at_angles(dims, i, angles)
            d, coeff = m._distance_jet(base, x[None], 2)
            got = float(coeff[0]) * float(d[0])
            with mpmath.workdps(50):
                rs = [_mp_polar(a, b)[0]
                      for a, b in zip(m.split(x), m.split(base))]
                ks = [k - 1 for _, k, _ in m._factors]
                ref = len(rs) - 1 + mpmath.fsum(
                    k * r * mpmath.cot(r) for k, r in zip(ks, rs))
                scale = len(rs) + mpmath.fsum(
                    k * (abs(r * mpmath.cot(r)) + abs(
                        mpmath.cot(r) - r / mpmath.sin(r) ** 2))
                    for k, r in zip(ks, rs))
                assert abs(got - ref) <= 8.0 * _EPS * scale, angles

    @pytest.mark.parametrize("model", [pp(), ManifoldModel.round_sphere(6),
                                       ManifoldModel.product_spheres(3, 4)],
                             ids=["S3xS3", "S6", "S3xS4"])
    def test_finite_at_the_centre_and_the_antipode(self, model):
        c = base_point(model)
        antipodes = [np.concatenate([s * part for s, part
                                     in zip(signs, model.split(c))])
                     for signs in itertools.product(
                         (1.0, -1.0), repeat=len(model._factors))]
        pts = np.array(antipodes)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            coeff = model.radial_laplacian_coeff(c, pts)
            single = model.radial_laplacian_coeff(c, c)
        assert np.all(np.isfinite(coeff)) and np.isfinite(single)
        # at the centre every factor's r cot r is its limit 1
        assert coeff[0] == single == model.n - 1


def _digest(nodes, weights):
    return hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest()


class TestPooledFill:
    """A rule of several blocks is filled on the block workers, forced to
    two of them, with the bits of the same rule filled inline."""

    WORKERS = 2

    @staticmethod
    def _two_centres():
        m = pp()
        c = base_point(m)
        return m, [c, m.exp(c, 0.05 * m.tangent_frame(c)[0]
                            + 0.03 * m.tangent_frame(c)[4])]

    @pytest.mark.parametrize("build", [
        lambda m, cs: build_quadrature(m, cs[0], finest_scale=1e-2,
                                       angular="biradial"),
        lambda m, cs: build_multicenter_quadrature(
            m, cs, finest_scale=1e-2, angular="biradial",
            patch_angular="biradial"),
    ], ids=["S3xS3", "S3xS3-two-centres"])
    def test_pooled_fill_matches_inline(self, monkeypatch, build):
        monkeypatch.setattr(geometry, "_worker_count", lambda: self.WORKERS)
        fills = []
        real = geometry._map_blocks

        def spied(fn, items, pooled):
            def run(item):
                fills.append(threading.current_thread())
                return fn(item)
            return real(run, items, pooled)
        monkeypatch.setattr(geometry, "_map_blocks", spied)
        m, centres = self._two_centres()
        rule = build(m, centres)
        assert rule.node_count > geometry._BLOCK
        assert fills and threading.main_thread() not in fills
        pool = geometry._block_pool(self.WORKERS)
        fills.clear()
        inline = pool.submit(build, m, centres).result()
        assert len(set(fills)) == 1 and threading.main_thread() not in fills
        assert _digest(rule.nodes, rule.weights) \
            == _digest(inline.nodes, inline.weights)


_REFAULT_SCRIPT = """
import resource
import numpy as np
from blowup_lab import bubble, functional, geometry

n, delta = 6, 1e-3
model = geometry.ManifoldModel.flat_ball(n, 100.0)
axis = np.random.default_rng(5).standard_normal(n)
axis /= np.linalg.norm(axis)
sep = float(np.geomspace(0.02, 0.2, 6)[3])
centres = [-0.5 * sep * axis, 0.5 * sep * axis]
cfg = bubble.Configuration(
    bubbles=tuple(bubble.BubbleParams(delta, c) for c in centres))
rule = geometry.build_multicenter_quadrature(model, centres,
                                             finest_scale=delta)
splits, faults = [], []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    splits.append(functional.energy_split(
        model, functional.PotentialField.constant(model, 0.0), cfg,
        bubble.CutoffSpec.none(), rule))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    faults.append(after - before)
print(rule.node_count, faults[-1], splits[0] == splits[1] == splits[2])
"""


class TestMallocThresholds:
    """geometry pins glibc's mmap and trim thresholds once, at import."""

    def test_other_c_libraries_are_left_alone(self, monkeypatch):
        def no_dlopen(name):
            raise AssertionError("dlopen on a C library other than glibc")
        monkeypatch.setattr(geometry.platform, "libc_ver",
                            lambda: ("musl", "1.2"))
        monkeypatch.setattr(geometry.ctypes, "CDLL", no_dlopen)
        geometry._pin_malloc_thresholds()

    def test_glibc_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(geometry.platform, "libc_ver",
                            lambda: ("glibc", "2.36"))
        monkeypatch.setattr(geometry.ctypes, "CDLL", lambda name: object())
        geometry._pin_malloc_thresholds()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are set on glibc only")
    def test_repeated_integrals_do_not_refault_their_temporaries(self):
        # criterion 5's n = 6 two-bubble rule at separation 0.0632, in a
        # fresh interpreter, as earlier tests may have raised glibc's own
        # thresholds.  At 128 KiB thresholds the third energy_split takes
        # hundreds of minor faults, as glibc hands its freed temporaries
        # back to the kernel after every integral
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _REFAULT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        nodes, faults, same = out.stdout.split()
        assert int(nodes) > 10_000
        assert int(faults) <= 50
        assert same == "True"
