"""Model manifolds: distances, exponential maps, curvature, quadrature.

Three closed-form homogeneous geometries are supported: a product of round
unit spheres S^p x S^q, a single round unit sphere S^n, and a flat Euclidean
ball.  Distance, curvature and the Weyl norm are exact on these models, so
quadrature is the only numerical error source.

Points are plain numpy arrays in ambient coordinates:

* product of spheres: concatenated unit vectors in R^(p+1) and R^(q+1),
* round sphere S^n: unit vector in R^(n+1),
* flat ball: vector in R^n.

All operations accept a single point ``(d,)`` or a batch ``(N, d)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._smoothstep import step

__all__ = [
    "CapacityError",
    "GeometryError",
    "ManifoldModel",
    "QuadratureRule",
    "build_quadrature",
    "build_multicenter_quadrature",
    "sphere_volume",
    "unit_sphere_rule",
]


class GeometryError(ValueError):
    """Invalid point, tangent vector, or map domain."""


class CapacityError(RuntimeError):
    """A node budget is too small for the requested resolution."""


def sphere_volume(m):
    """Surface volume of the unit m-sphere S^m."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _sphere_angle(a, b):
    """Angle between unit vectors, accurate for all separations.

    arccos(a.b) loses half the significant digits at small angles (1 - a.b
    rounds at machine epsilon); the chord formula 2 arcsin(|a-b|/2) is
    exact there, and the antipodal mirror covers obtuse angles.
    """
    chord = np.linalg.norm(a - b, axis=-1)
    anti = np.linalg.norm(a + b, axis=-1)
    near = chord <= anti
    return np.where(near,
                    2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)),
                    math.pi - 2.0 * np.arcsin(np.clip(anti / 2.0, 0.0, 1.0)))


def _sphere_exp(base, v):
    """Great-circle exponential on a unit sphere; v tangent at base."""
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-300
    safe = np.where(small, 1.0, theta)
    return np.cos(theta) * base + np.sin(theta) * np.where(small, 0.0, v / safe)


def _sphere_log(base, x):
    """Inverse of :func:`_sphere_exp`; requires angle < pi."""
    c = np.clip(_dot(base, x), -1.0, 1.0)
    theta = _sphere_angle(base, x)
    w = x - c[..., None] * base
    nw = np.linalg.norm(w, axis=-1)
    small = nw < 1e-300
    scale = np.where(small, 0.0, theta / np.where(small, 1.0, nw))
    return scale[..., None] * w


def _orthonormal_complement(u):
    """Orthonormal basis of u-perp in R^d, rows (d-1, d); u must be unit."""
    d = u.shape[0]
    k = int(np.argmax(np.abs(u)))
    cols = [u] + [np.eye(d)[:, j] for j in range(d) if j != k]
    q, _ = np.linalg.qr(np.column_stack(cols))
    if np.dot(q[:, 0], u) < 0:
        q = -q
    return q[:, 1:].T


def _rotation_with_first_axis(axis):
    """Orthogonal matrix whose first column is the given unit vector."""
    d = axis.shape[0]
    comp = _orthonormal_complement(axis)
    return np.column_stack([axis] + [comp[i] for i in range(d - 1)])


def _xcotx(x):
    """x * cot(x), stable near 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x**2 / 3.0 - x**4 / 45.0,
                   xs * np.cos(xs) / np.sin(xs))
    return out


def _sinc_ratio(x):
    """sin(x)/x, stable near 0."""
    x = np.asarray(x, dtype=float)
    return np.sinc(x / np.pi)


# ---------------------------------------------------------------------------
# manifold models


@dataclass(frozen=True)
class ManifoldModel:
    """One of the supported homogeneous geometries.

    Use the classmethods :meth:`product_spheres`, :meth:`round_sphere`,
    :meth:`flat_ball` rather than the raw constructor.
    """

    kind: str
    n: int
    p: int = 0
    q: int = 0
    radius: float = 0.0

    @classmethod
    def product_spheres(cls, p, q):
        if p < 3 or q < 3:
            raise GeometryError("product of spheres requires p >= 3 and q >= 3")
        return cls(kind="product_spheres", n=p + q, p=p, q=q)

    @classmethod
    def round_sphere(cls, n):
        if n < 3:
            raise GeometryError("dimension must be >= 3")
        return cls(kind="round_sphere", n=n)

    @classmethod
    def flat_ball(cls, n, radius):
        if n < 3:
            raise GeometryError("dimension must be >= 3")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        return cls(kind="flat_ball", n=n, radius=float(radius))

    # -- basic descriptors --------------------------------------------------

    @property
    def ambient_dim(self):
        if self.kind == "product_spheres":
            return self.p + self.q + 2
        if self.kind == "round_sphere":
            return self.n + 1
        return self.n

    @property
    def injectivity_radius(self):
        if self.kind == "flat_ball":
            return self.radius
        return math.pi

    @property
    def is_compact(self):
        return self.kind != "flat_ball"

    @property
    def volume(self):
        if self.kind == "product_spheres":
            return sphere_volume(self.p) * sphere_volume(self.q)
        if self.kind == "round_sphere":
            return sphere_volume(self.n)
        return sphere_volume(self.n - 1) / self.n * self.radius**self.n

    def split(self, x):
        """Split product-manifold ambient coordinates into the two factors."""
        if self.kind != "product_spheres":
            raise GeometryError("split is only defined on products")
        return x[..., : self.p + 1], x[..., self.p + 1:]

    def validate_point(self, x):
        x = np.asarray(x, dtype=float)
        tol = 1e-12
        if x.shape[-1] != self.ambient_dim:
            raise GeometryError(
                f"point has ambient dimension {x.shape[-1]}, expected {self.ambient_dim}")
        if self.kind == "product_spheres":
            x1, x2 = self.split(x)
            if np.any(np.abs(_dot(x1, x1) - 1.0) > tol) or \
               np.any(np.abs(_dot(x2, x2) - 1.0) > tol):
                raise GeometryError("sphere components must have unit norm")
        elif self.kind == "round_sphere":
            if np.any(np.abs(_dot(x, x) - 1.0) > tol):
                raise GeometryError("sphere point must have unit norm")
        else:
            if np.any(_dot(x, x) > (self.radius + tol) ** 2):
                raise GeometryError("point lies outside the ball")
        return x

    # -- metric operations ---------------------------------------------------

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape[-1] != self.ambient_dim or b.shape[-1] != self.ambient_dim:
            raise GeometryError("mismatched ambient dimensions")
        if self.kind == "product_spheres":
            a1, a2 = self.split(a)
            b1, b2 = self.split(b)
            t1 = _sphere_angle(a1, b1)
            t2 = _sphere_angle(a2, b2)
            return np.sqrt(t1**2 + t2**2)
        if self.kind == "round_sphere":
            return _sphere_angle(a, b)
        return np.linalg.norm(a - b, axis=-1)

    def factor_distances(self, a, b):
        """Per-factor arc lengths on a product (needed by radial Laplacians)."""
        a1, a2 = self.split(np.asarray(a, dtype=float))
        b1, b2 = self.split(np.asarray(b, dtype=float))
        return _sphere_angle(a1, b1), _sphere_angle(a2, b2)

    def exp(self, base, v):
        base = np.asarray(base, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "product_spheres":
            b1, b2 = self.split(base)
            v1, v2 = v[..., : self.p + 1], v[..., self.p + 1:]
            return np.concatenate(
                [_sphere_exp(b1, v1), _sphere_exp(b2, v2)], axis=-1)
        if self.kind == "round_sphere":
            return _sphere_exp(base, v)
        return base + v

    def log(self, base, target):
        base = np.asarray(base, dtype=float)
        target = np.asarray(target, dtype=float)
        d = self.distance(base, target)
        if np.any(d >= self.injectivity_radius):
            raise GeometryError("log map target at or beyond the injectivity radius")
        if self.kind == "product_spheres":
            b1, b2 = self.split(base)
            t1, t2 = self.split(target)
            return np.concatenate(
                [_sphere_log(b1, t1), _sphere_log(b2, t2)], axis=-1)
        if self.kind == "round_sphere":
            return _sphere_log(base, target)
        return target - base

    def tangent_frame(self, base):
        """Orthonormal basis of the tangent space, rows (n, ambient_dim)."""
        base = np.asarray(base, dtype=float)
        if self.kind == "product_spheres":
            b1, b2 = self.split(base)
            f1 = _orthonormal_complement(b1)
            f2 = _orthonormal_complement(b2)
            frame = np.zeros((self.n, self.ambient_dim))
            frame[: self.p, : self.p + 1] = f1
            frame[self.p:, self.p + 1:] = f2
            return frame
        if self.kind == "round_sphere":
            return _orthonormal_complement(base)
        return np.eye(self.n)

    def distance_gradient(self, center, pts):
        """Ambient gradient of x -> d(x, center), unit length away from center.

        Returns zeros at points where the distance vanishes (the radial
        profile functions built on top of this all have zero slope there).
        """
        pts = np.asarray(pts, dtype=float)
        if self.kind == "flat_ball":
            diff = pts - center
            d = np.linalg.norm(diff, axis=-1, keepdims=True)
            safe = np.where(d < 1e-300, 1.0, d)
            return np.where(d < 1e-300, 0.0, diff / safe)
        if self.kind == "round_sphere":
            c = np.clip(_dot(pts, center), -1.0, 1.0)
            w = c[..., None] * pts - center
            s = np.linalg.norm(w, axis=-1, keepdims=True)
            safe = np.where(s < 1e-300, 1.0, s)
            return np.where(s < 1e-300, 0.0, w / safe)
        # product: grad d = (r1 grad r1 + r2 grad r2)/d
        x1, x2 = self.split(pts)
        c1, c2 = self.split(np.asarray(center, dtype=float))
        g = np.zeros_like(pts)
        rs = []
        for sl, xi, ci in ((np.s_[..., : self.p + 1], x1, c1),
                           (np.s_[..., self.p + 1:], x2, c2)):
            ki = np.clip(_dot(xi, ci), -1.0, 1.0)
            ri = _sphere_angle(xi, ci)
            rs.append(ri)
            wi = ki[..., None] * xi - ci
            si = np.linalg.norm(wi, axis=-1, keepdims=True)
            safe = np.where(si < 1e-300, 1.0, si)
            g[sl] = np.where(si < 1e-300, 0.0, ri[..., None] * wi / safe)
        # recombine with the same angle values so |grad d| is exactly 1
        d = np.hypot(rs[0], rs[1])[..., None]
        dsafe = np.where(d < 1e-300, 1.0, d)
        return np.where(d < 1e-300, 0.0, g / dsafe)

    def radial_laplacian_coeff(self, center, pts, d=None):
        """Coefficient m(x) such that div grad f(d(., center)) = f'' + m f'.

        This is the mean curvature of the geodesic sphere through x around
        ``center`` (flat: (n-1)/d; round sphere: (n-1) cot d; product: the
        exact per-factor combination).  Values blow up as d -> 0; callers
        only use it where the radial slope is nonzero.
        """
        pts = np.asarray(pts, dtype=float)
        if d is None:
            d = self.distance(pts, center)
        dsafe = np.where(d < 1e-300, 1.0, d)
        if self.kind == "flat_ball":
            return (self.n - 1) / dsafe
        if self.kind == "round_sphere":
            return (self.n - 1) * _xcotx(d) / dsafe
        r1, r2 = self.factor_distances(pts, center)
        num = 1.0 + (self.p - 1) * _xcotx(r1) + (self.q - 1) * _xcotx(r2)
        return num / dsafe

    # -- curvature invariants -------------------------------------------------

    def scalar_curvature(self, x=None):
        if self.kind == "product_spheres":
            return float(self.p * (self.p - 1) + self.q * (self.q - 1))
        if self.kind == "round_sphere":
            return float(self.n * (self.n - 1))
        return 0.0

    def weyl_norm_sq(self, x=None):
        if self.kind == "product_spheres":
            return _product_weyl_norm_sq(self.p, self.q)
        return 0.0

    # -- sampling -------------------------------------------------------------

    def random_point(self, rng):
        if self.kind == "product_spheres":
            x1 = rng.standard_normal(self.p + 1)
            x2 = rng.standard_normal(self.q + 1)
            return np.concatenate([x1 / np.linalg.norm(x1), x2 / np.linalg.norm(x2)])
        if self.kind == "round_sphere":
            x = rng.standard_normal(self.n + 1)
            return x / np.linalg.norm(x)
        v = rng.standard_normal(self.n)
        r = self.radius * rng.uniform() ** (1.0 / self.n)
        return r * v / np.linalg.norm(v)

    def random_tangent(self, rng, base):
        frame = self.tangent_frame(base)
        return rng.standard_normal(self.n) @ frame


# ---------------------------------------------------------------------------
# curvature tensor oracle for products of unit spheres


def _kulkarni_nomizu(a, b):
    return (np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
            - np.einsum("il,jk->ijkl", a, b) - np.einsum("jk,il->ijkl", a, b))


def riemann_product_spheres(p, q):
    """Riemann tensor of S^p x S^q in an orthonormal frame (sign R_1212 = +1)."""
    n = p + q
    riem = np.zeros((n, n, n, n))
    for idx in (list(range(p)), list(range(p, n))):
        e = np.zeros((n, n))
        for i in idx:
            e[i, i] = 1.0
        riem += 0.5 * _kulkarni_nomizu(e, e)
    return riem


def weyl_tensor_from_riemann(riem):
    """Weyl part of a (0,4) curvature tensor in an orthonormal frame."""
    n = riem.shape[0]
    g = np.eye(n)
    ric = np.einsum("ijil->jl", riem)
    rs = np.trace(ric)
    e = ric - (rs / n) * g
    return (riem - _kulkarni_nomizu(e, g) / (n - 2)
            - rs / (2.0 * n * (n - 1)) * _kulkarni_nomizu(g, g))


@functools.lru_cache(maxsize=None)
def _product_weyl_norm_sq(p, q):
    w = weyl_tensor_from_riemann(riemann_product_spheres(p, q))
    return float(np.einsum("ijkl,ijkl->", w, w))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing integration over the model."""

    model: ManifoldModel
    nodes: np.ndarray
    weights: np.ndarray
    center: np.ndarray
    finest_scale: float

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise GeometryError("quadrature weights must be positive")

    @property
    def node_count(self):
        return self.nodes.shape[0]


@functools.lru_cache(maxsize=64)
def _leggauss(k):
    return np.polynomial.legendre.leggauss(k)


def gauss_segment(a, b, k):
    """k-point Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(k)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def unit_sphere_rule(m, orders):
    """Product-form quadrature on the unit sphere S^m in R^(m+1).

    ``orders`` has length m: Gauss orders for the successive polar angles
    and a trailing azimuthal count.  The rule integrates constants exactly
    at any orders; the polar resolution of the FIRST angle (measured from
    the +e1 axis) controls accuracy for axially symmetric integrands.
    """
    if m == 0:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if len(orders) != m:
        raise GeometryError(f"need {m} orders for S^{m}")
    if m == 1:
        L = int(orders[0])
        ang = 2.0 * math.pi * (np.arange(L) + 0.5) / L
        return np.column_stack([np.cos(ang), np.sin(ang)]), \
            np.full(L, 2.0 * math.pi / L)
    th, wth = gauss_segment(0.0, math.pi, int(orders[0]))
    sub_nodes, sub_w = unit_sphere_rule(m - 1, orders[1:])
    wth = wth * np.sin(th) ** (m - 1)
    # rescale to the exact sine moment so constants (and hence radial
    # integrands) are integrated exactly at any order
    moment = math.sqrt(math.pi) * math.gamma(0.5 * m) \
        / math.gamma(0.5 * (m + 1))
    wth = wth * (moment / np.sum(wth))
    nodes = np.concatenate([
        np.column_stack([np.full(len(sub_nodes), math.cos(t)),
                         math.sin(t) * sub_nodes])
        for t in th])
    weights = np.concatenate([w * sub_w for w in wth])
    return nodes, weights


# polar orders on S^m by profile name: the directions of flat-ball and
# round-sphere rules, and the factor spheres of product rules
_SPHERE_PROFILES = {
    "default": lambda m: [8] + [4] * (m - 2) + [8] if m > 1 else [12],
    "minimal": lambda m: [2] * (m - 1) + [4] if m > 1 else [4],
    "axial": lambda m: [20] + [2] * (m - 2) + [4] if m > 1 else [24],
    "radial": lambda m: [1] * m,
}


def _lookup_profile(table, name, what):
    if name not in table:
        raise GeometryError(
            f"unknown angular profile {name!r} for {what}; choose from "
            f"{', '.join(table)}")
    return table[name]


def _resolve_orders(m, spec, default_profile):
    if spec is None:
        spec = default_profile
    if isinstance(spec, str):
        return _lookup_profile(_SPHERE_PROFILES, spec, f"orders on S^{m}")(m)
    return list(spec)


# Gauss orders of the radial panels: innermost segment, annuli inside the
# patch, panels outside it
_INNER_ORDER, _ANNULUS_ORDER, _OUTER_ORDER = 8, 16, 24


def _radial_grid(finest_scale, r_patch, r_outer, transition):
    """Radial nodes graded geometrically (ratio 2) near the center.

    Covers [0, r_outer]: an innermost segment [0, finest/10], geometric
    annuli out to ``r_patch``, then geometric panels to ``r_outer``.
    ``transition`` is None or a band (a, b) where the integrand is smooth
    but not analytic (the e^(-1/t) cutoff profile); panels there are
    subdivided, since Gauss rules converge only root-exponentially on such
    functions.
    """
    s0 = finest_scale / 10.0
    segs = []
    lo = 0.0
    hi = min(s0, r_outer)
    segs.append((lo, hi, _INNER_ORDER))
    r = hi
    while r < min(r_patch, r_outer) * (1 - 1e-14):
        nxt = min(2.0 * r, r_patch, r_outer)
        segs.append((r, nxt, _ANNULUS_ORDER))
        r = nxt
    while r < r_outer * (1 - 1e-14):
        nxt = min(2.0 * r, r_outer)
        segs.append((r, nxt, _OUTER_ORDER))
        r = nxt
    if transition is not None:
        ta, tb = transition
        refined = []
        for a, b, k in segs:
            lo_c, hi_c = max(a, ta), min(b, tb)
            if hi_c <= lo_c:
                refined.append((a, b, k))
                continue
            if a < lo_c:
                refined.append((a, lo_c, k))
            parts = max(2, int(math.ceil(8.0 * (hi_c - lo_c) / (tb - ta))))
            edges = np.linspace(lo_c, hi_c, parts + 1)
            refined.extend((e0, e1, k) for e0, e1 in zip(edges, edges[1:]))
            if hi_c < b:
                refined.append((hi_c, b, k))
        segs = refined
    xs, ws = [], []
    for a, b, k in segs:
        x, w = gauss_segment(a, b, k)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def build_quadrature(model, center, finest_scale, budget=2_000_000, *,
                     patch_radius=None, axis=None, angular=None):
    """Concentration-aware quadrature rule centered at ``center``.

    The rule combines a geodesic-polar patch around the center with radial
    nodes graded geometrically (ratio 2 per annulus) from ``finest_scale/10``
    out to ``patch_radius`` (default: a quarter of the injectivity radius),
    and coarser Gauss panels over the rest of the model.  On compact
    models the panels inside the default cutoff's transition band
    [inj/8, inj/4] are subdivided.  ``axis``, when given, directs the
    angular resolution toward that tangent direction; this matters only for
    integrands that are not radial about the center.

    ``angular`` selects the angular resolution.  On products it is a
    profile name ("radial", "biradial", "axial") or a dict with keys
    ``n_psi``, ``orders_a``, ``orders_b`` (each a list of polar orders or a
    sphere profile name); None means "biradial", or "axial" when ``axis``
    is given.  On flat balls and round spheres it is a sphere profile name
    ("default", "minimal", "axial", "radial") or a list of polar orders;
    None means "default", or "axial" when ``axis`` is given.  An unknown
    name raises GeometryError.

    "radial" keeps one angular node per sphere of directions (per factor
    sphere on products), so it is exact only for an integrand that depends
    on the distance to ``center`` alone, or on products on the two factor
    distances alone: one bubble at ``center`` under a constant potential or
    a one-bump potential peaked there.  The caller declares that symmetry;
    nothing checks the integrand.  The domain must share it, so on a flat
    ball ``center`` must be the origin, or GeometryError is raised.
    """
    if not (0.0 < finest_scale <= 1.0):
        raise GeometryError("finest_scale must lie in (0, 1]")
    center = model.validate_point(np.asarray(center, dtype=float))
    if patch_radius is None:
        patch_radius = model.injectivity_radius / 4.0
    transition = None
    if model.is_compact:
        # the default cutoff transition band [r0/2, r0] with r0 = inj/4;
        # flat balls carry no cutoff, so there is no band to refine
        r0 = model.injectivity_radius / 4.0
        transition = (r0 / 2.0, r0)

    build = (_build_product_nodes if model.kind == "product_spheres"
             else _build_polar_nodes)
    nodes, weights = build(model, center, finest_scale, budget, patch_radius,
                           axis, angular, transition)
    keep = weights > 0.0
    return QuadratureRule(model=model, nodes=nodes[keep], weights=weights[keep],
                          center=center, finest_scale=finest_scale)


def _check_budget(planned, budget, finest_scale):
    if planned > budget:
        raise CapacityError(
            f"budget {budget} too small for finest_scale={finest_scale:g}; "
            f"the requested rule needs {planned} nodes")


def _build_polar_nodes(model, center, finest_scale, budget, patch_radius,
                       axis, angular, transition):
    """Polar rule for flat balls and round spheres."""
    n = model.n
    default_profile = "default" if axis is None else "axial"
    orders = _resolve_orders(n - 1, angular, default_profile)
    dirs, wdir = unit_sphere_rule(n - 1, orders)
    if axis is not None:
        nrm = np.linalg.norm(axis)
        if nrm == 0:
            raise GeometryError("axis must be a nonzero tangent vector")
        axis = np.asarray(axis, dtype=float) / nrm
    if model.kind == "flat_ball":
        if angular == "radial" and np.any(center):
            raise GeometryError(
                "the radial profile needs a flat ball centred at the origin; "
                "the ball is not symmetric about an off-origin centre")
        if axis is not None:
            dirs = dirs @ _rotation_with_first_axis(axis).T
        # outer radius depends on the direction for off-center rules
        cdotw = dirs @ center
        rmax = -cdotw + np.sqrt(cdotw**2 + model.radius**2 - center @ center)
        planned = 0
        blocks = []
        for j in range(len(dirs)):
            r, wr = _radial_grid(finest_scale, patch_radius, float(rmax[j]),
                                 transition)
            planned += len(r)
            pts = center + r[:, None] * dirs[j]
            blocks.append((pts, wdir[j] * wr * r ** (n - 1)))
        _check_budget(planned, budget, finest_scale)
        nodes = np.concatenate([b[0] for b in blocks])
        weights = np.concatenate([b[1] for b in blocks])
        return nodes, weights

    # round sphere: map directions through the tangent frame
    frame = model.tangent_frame(center)
    if axis is not None:
        coeff = frame @ axis  # coordinates of the axis in the frame
        coeff /= np.linalg.norm(coeff)
        dirs = dirs @ _rotation_with_first_axis(coeff).T
    amb = dirs @ frame
    r, wr = _radial_grid(finest_scale, patch_radius, math.pi, transition)
    planned = len(dirs) * len(r)
    _check_budget(planned, budget, finest_scale)
    ct, st = np.cos(r), np.sin(r)
    nodes = (ct[:, None] * center)[:, None, :] + st[:, None, None] * amb[None, :, :]
    nodes = nodes.reshape(-1, model.ambient_dim)
    weights = (wr * st ** (n - 1))[:, None] * wdir[None, :]
    return nodes, weights.reshape(-1)


_PRODUCT_PROFILES = {
    "radial": dict(n_psi=24, orders_a="radial", orders_b="radial"),
    "biradial": dict(n_psi=24, orders_a="minimal", orders_b="minimal"),
    "axial": dict(n_psi=24, orders_a="axial", orders_b="minimal"),
}


def _build_product_nodes(model, center, finest_scale, budget, patch_radius,
                         axis, angular, transition):
    p, q, n = model.p, model.q, model.n
    if angular is None:
        angular = "biradial" if axis is None else "axial"
    if isinstance(angular, str):
        prof = _lookup_profile(_PRODUCT_PROFILES, angular, "a product")
    else:
        prof = angular
    n_psi = int(prof.get("n_psi", 24))
    orders_a = _resolve_orders(p - 1, prof.get("orders_a"), "minimal")
    orders_b = _resolve_orders(q - 1, prof.get("orders_b"), "minimal")

    c1, c2 = model.split(center)
    f1 = _orthonormal_complement(c1)  # (p, p+1)
    f2 = _orthonormal_complement(c2)
    a_loc, wa = unit_sphere_rule(p - 1, orders_a)
    b_loc, wb = unit_sphere_rule(q - 1, orders_b)
    if axis is not None:
        u = np.asarray(axis, dtype=float)
        u1 = f1 @ u[: p + 1]
        if np.linalg.norm(u1) > 1e-12:
            a_loc = a_loc @ _rotation_with_first_axis(u1 / np.linalg.norm(u1)).T
        u2 = f2 @ u[p + 1:]
        if np.linalg.norm(u2) > 1e-12:
            b_loc = b_loc @ _rotation_with_first_axis(u2 / np.linalg.norm(u2)).T
    a_amb = a_loc @ f1  # (A1, p+1)
    b_amb = b_loc @ f2

    # split angle psi between the two factors; panels split at pi/4 where
    # the per-direction outer radius min(pi/cos, pi/sin) has a kink
    psis, wpsis = [], []
    for lo, hi in ((0.0, math.pi / 4.0), (math.pi / 4.0, math.pi / 2.0)):
        x, w = gauss_segment(lo, hi, n_psi)
        psis.append(x)
        wpsis.append(w)
    psi = np.concatenate(psis)
    wpsi = np.concatenate(wpsis)

    A1, A2 = len(a_amb), len(b_amb)
    planned = 0
    radial = []
    for j, ps in enumerate(psi):
        rmax = min(math.pi / max(math.cos(ps), 1e-15),
                   math.pi / max(math.sin(ps), 1e-15))
        r, wr = _radial_grid(finest_scale, patch_radius, rmax, transition)
        radial.append((r, wr))
        planned += len(r) * A1 * A2
    _check_budget(planned, budget, finest_scale)

    blocks_n, blocks_w = [], []
    wab = np.outer(wa, wb).reshape(-1)  # (A1*A2,)
    for j, ps in enumerate(psi):
        r, wr = radial[j]
        s1 = r * math.cos(ps)
        s2 = r * math.sin(ps)
        dens = (wr * r ** (n - 1)
                * _sinc_ratio(s1) ** (p - 1) * _sinc_ratio(s2) ** (q - 1)
                * wpsi[j] * math.cos(ps) ** (p - 1) * math.sin(ps) ** (q - 1))
        # factor-sphere points for all radii and directions
        x1 = (np.cos(s1)[:, None, None] * c1[None, None, :]
              + np.sin(s1)[:, None, None] * a_amb[None, :, :])  # (R, A1, p+1)
        x2 = (np.cos(s2)[:, None, None] * c2[None, None, :]
              + np.sin(s2)[:, None, None] * b_amb[None, :, :])  # (R, A2, q+1)
        R = len(r)
        pts = np.empty((R, A1, A2, model.ambient_dim))
        pts[..., : p + 1] = x1[:, :, None, :]
        pts[..., p + 1:] = x2[:, None, :, :]
        blocks_n.append(pts.reshape(-1, model.ambient_dim))
        blocks_w.append((dens[:, None] * wab[None, :]).reshape(-1))
    return np.concatenate(blocks_n), np.concatenate(blocks_w)


def build_multicenter_quadrature(model, centers, finest_scale,
                                 budget=4_000_000, *, angular=None,
                                 patch_angular=None):
    """Composite rule resolving concentration at several centers at once.

    A smooth partition of unity splits the integral into one well-resolved
    polar patch per center plus a coarse background piece; each piece is
    integrated by a rule centered where its integrand lives, so the combined
    node set integrates fields with spikes at every center.  Weights stay
    positive because the partition functions are.  It needs at least two
    centres; one centre is the job of :func:`build_quadrature`.  No piece is
    radial about its centre, so the "radial" profile raises GeometryError.
    """
    if "radial" in (angular, patch_angular):
        raise GeometryError(
            "the radial profile does not apply to multicentre rules")
    centers = [model.validate_point(np.asarray(c, dtype=float)) for c in centers]
    if len(centers) < 2:
        raise GeometryError(
            "a multicentre rule needs at least two centres; use "
            "build_quadrature for one")
    dmin = min(model.distance(a, b)
               for i, a in enumerate(centers) for b in centers[i + 1:])
    if dmin <= 0:
        raise GeometryError("multicenter rule requires distinct centers")
    r_i = min(dmin / 2.0, model.injectivity_radius / 4.0)

    def part(d):
        # smooth localizer in the distance d to a centre: 1 within r_i/2,
        # 0 beyond r_i
        return step(2.0 * (r_i - d) / r_i)

    sub_budget = budget // (len(centers) + 1)
    all_nodes, all_weights = [], []
    for idx, c in enumerate(centers):
        try:
            ax = model.log(c, centers[(idx + 1) % len(centers)])
        except GeometryError:
            ax = None
        rule = build_quadrature(model, c, finest_scale, sub_budget,
                                patch_radius=r_i, axis=ax,
                                angular=patch_angular or "axial")
        # restrict to the patch support and apply the localizer
        d = model.distance(rule.nodes, c)
        keep = d < r_i
        w = rule.weights[keep] * part(d[keep])
        all_nodes.append(rule.nodes[keep])
        all_weights.append(w)

    bg_finest = max(r_i / 2.0, finest_scale)
    try:
        # the background integrand keeps the inter-center axis symmetry
        bg_axis = model.log(centers[0], centers[1])
        if np.linalg.norm(bg_axis) < 1e-12:
            bg_axis = None
    except GeometryError:
        bg_axis = None
    bg = build_quadrature(model, centers[0], min(bg_finest, 1.0), sub_budget,
                          axis=bg_axis, angular=angular or "axial")
    rho = np.zeros(len(bg.nodes))
    for c in centers:
        rho += part(model.distance(bg.nodes, c))
    wbg = bg.weights * np.clip(1.0 - rho, 0.0, None)
    all_nodes.append(bg.nodes)
    all_weights.append(wbg)

    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)
    keep = weights > 0.0
    return QuadratureRule(model=model, nodes=nodes[keep], weights=weights[keep],
                          center=centers[0], finest_scale=finest_scale)
