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

from ._smoothstep import step_jet

__all__ = [
    "CapacityError",
    "GeometryError",
    "ManifoldModel",
    "QuadratureRule",
    "build_quadrature",
    "build_multicenter_quadrature",
    "sphere_volume",
]


class GeometryError(ValueError):
    """Invalid point, tangent vector, or map domain."""


class CapacityError(RuntimeError):
    """A node budget is too small for the requested resolution."""


def sphere_volume(m):
    """Surface volume of the unit m-sphere S^m."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _dot(a, b):
    # einsum: a numpy reduce over a length-4 axis costs more than the products
    return np.einsum("...i,...i->...", a, b)


def _sphere_polar(base, x):
    """Angle from ``base`` to ``x`` on a unit sphere, with its projection.

    Returns (angle, w, |w|), where w = x - (x.base) base is the part of x
    orthogonal to base: a tangent vector at base of length sin(angle) that
    points toward x.  Distances, log maps, distance gradients and the
    mean curvature of geodesic spheres all derive from this one
    projection.

    atan2(|w|, c), with c = x.base, is accurate to a few ulp absolute at
    every angle from 0 to pi: near 0 it is |w|/c, where arccos(c) would
    lose half the digits because 1 - c rounds at machine epsilon, and
    near pi it is pi - |w|/|c|, so no branch between the near and the
    antipodal side is needed.
    """
    c = _dot(x, base)
    w = x - c[..., None] * base
    nw = np.sqrt(_dot(w, w))
    return np.arctan2(nw, c), w, nw


def _sphere_exp(base, v):
    """Great-circle exponential on a unit sphere; v tangent at base."""
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-300
    safe = np.where(small, 1.0, theta)
    return np.cos(theta) * base + np.sin(theta) * np.where(small, 0.0, v / safe)


def _along(length, w, nw):
    """``length`` times the unit vector w/|w|; 0 where w vanishes."""
    small = nw < 1e-300
    scale = np.where(small, 0.0, length / np.where(small, 1.0, nw))
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
    return np.column_stack([axis, *_orthonormal_complement(axis)])


def _xcotx(x):
    """x * cot(x), stable near 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x**2 / 3.0 - x**4 / 45.0,
                    xs * np.cos(xs) / np.sin(xs))


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

    def _polars(self, base, x):
        """:func:`_sphere_polar` on each sphere factor, and the distance.

        Returns (d, polars): one (angle, w, |w|) on a round sphere, two on
        a product, whose distance is the hypotenuse of the factor angles.
        """
        if self.kind == "product_spheres":
            polars = [_sphere_polar(bi, xi)
                      for bi, xi in zip(self.split(base), self.split(x))]
            return np.sqrt(polars[0][0]**2 + polars[1][0]**2), polars
        polar = _sphere_polar(base, x)
        return polar[0], [polar]

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape[-1] != self.ambient_dim or b.shape[-1] != self.ambient_dim:
            raise GeometryError("mismatched ambient dimensions")
        if self.kind == "flat_ball":
            return np.linalg.norm(a - b, axis=-1)
        return self._polars(a, b)[0]

    def factor_distances(self, a, b):
        """Per-factor arc lengths on a product."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return tuple(polar[0] for polar in self._polars(a, b)[1])

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
        v, d = self._log_and_distance(base, target)
        if np.any(d >= self.injectivity_radius):
            raise GeometryError("log map target at or beyond the injectivity radius")
        return v

    def _log_and_distance(self, base, target):
        """log_base(target) and d(base, target) from one projection.

        The log map is only meaningful below the injectivity radius; this
        does not check it.
        """
        base = np.asarray(base, dtype=float)
        target = np.asarray(target, dtype=float)
        if self.kind == "flat_ball":
            v = target - base
            return v, np.linalg.norm(v, axis=-1)
        d, polars = self._polars(base, target)
        parts = [_along(angle, w, nw) for angle, w, nw in polars]
        return np.concatenate(parts, axis=-1), d

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
        return self._distance_jet(center, pts, 1)[1]

    def radial_laplacian_coeff(self, center, pts):
        """Coefficient m(x) such that div grad f(d(., center)) = f'' + m f'.

        This is the mean curvature of the geodesic sphere through x around
        ``center`` (flat: (n-1)/d; round sphere: (n-1) cot d; product: the
        exact per-factor combination).  Values blow up as d -> 0; callers
        only use it where the radial slope is nonzero.
        """
        return self._distance_jet(center, pts, 2)[1]

    def _distance_jet(self, center, pts, order):
        """d(pts, center) with, for order 1, its ambient gradient or, for
        order 2, its radial Laplacian coefficient (None for order 0).

        On spheres and products everything comes from one projection per
        factor, taken at ``pts``, so each factor's w points toward the
        centre.
        """
        pts = np.asarray(pts, dtype=float)
        center = np.asarray(center, dtype=float)
        if self.kind == "flat_ball":
            diff = pts - center
            d = np.linalg.norm(diff, axis=-1)
            if order == 0:
                return d, None
            if order == 1:
                dk = d[..., None]
                return d, np.where(dk < 1e-300, 0.0,
                                   diff / np.where(dk < 1e-300, 1.0, dk))
            return d, (self.n - 1) / np.where(d < 1e-300, 1.0, d)
        d, polars = self._polars(pts, center)
        if order == 0:
            return d, None
        if order == 1:
            # grad d = (r1 grad r1 + r2 grad r2) / d, with grad r_i the unit
            # vector away from the centre on factor i; recombined from the
            # same angles that gave d, so |grad d| is 1 to rounding
            g = np.concatenate([_along(-r, w, nw) for r, w, nw in polars],
                               axis=-1)
            return d, _along(1.0, g, d)
        dsafe = np.where(d < 1e-300, 1.0, d)
        if self.kind == "round_sphere":
            return d, (self.n - 1) * _xcotx(d) / dsafe
        (r1, _, _), (r2, _, _) = polars
        num = 1.0 + (self.p - 1) * _xcotx(r1) + (self.q - 1) * _xcotx(r2)
        return d, num / dsafe

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


def _resolve_orders(m, spec):
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


_PRODUCT_PROFILES = {
    "radial": dict(n_psi=24, orders_a="radial", orders_b="radial"),
    "biradial": dict(n_psi=24, orders_a="minimal", orders_b="minimal"),
    "axial": dict(n_psi=24, orders_a="axial", orders_b="minimal"),
}


def build_quadrature(model, center, finest_scale, budget=2_000_000, *,
                     angular=None):
    """Concentration-aware quadrature rule centered at ``center``.

    The rule combines a geodesic-polar patch around the center with radial
    nodes graded geometrically (ratio 2 per annulus) from ``finest_scale/10``
    out to a quarter of the injectivity radius, and coarser Gauss panels
    over the rest of the model.  On compact models the panels inside the
    default cutoff's transition band [inj/8, inj/4] are subdivided.  A rule
    of more than ``budget`` nodes raises CapacityError, naming its size.

    ``angular`` selects the angular resolution.  On products it is a
    profile name ("radial", "biradial", "axial") or a dict with keys
    ``n_psi``, ``orders_a``, ``orders_b`` (each a list of polar orders or a
    sphere profile name); None means "biradial".  On flat balls and round
    spheres it is a sphere profile name ("default", "minimal", "axial",
    "radial") or a list of polar orders; None means "default".  An unknown
    name raises GeometryError.

    "radial" keeps one angular node per sphere of directions (per factor
    sphere on products), so it is exact only for an integrand that depends
    on the distance to ``center`` alone, or on products on the two factor
    distances alone: one bubble at ``center`` under a constant potential or
    a one-bump potential peaked there.  The caller declares that symmetry;
    nothing checks the integrand.

    On a flat ball ``center`` must be the origin, or GeometryError is
    raised: about another centre each ray leaves the ball at its own
    radius, which a polar grid about the frame's first axis does not
    resolve, so not even constants would integrate.
    """
    center = model.validate_point(np.asarray(center, dtype=float))
    if model.kind == "flat_ball" and np.any(center):
        raise GeometryError("a rule on a flat ball must be centred at the "
                            "origin, the ball's only centre of symmetry")
    nodes, weights = _polar_rule(model, center, finest_scale, budget, angular)
    return QuadratureRule(model=model, nodes=nodes, weights=weights,
                          center=center, finest_scale=finest_scale)


def _polar_rule(model, center, finest_scale, budget, angular, axis=None,
                extent=math.inf):
    """Nodes and weights of a geodesic-polar rule about ``center``.

    Every model is a join of spheres of directions: one on a ball or a
    round sphere, two on S^p x S^q, where the point at distance r and split
    angle psi lies r cos(psi) and r sin(psi) out along the two factors.
    For each join angle and each distinct outer radius one radial grid is
    mapped factor by factor, c + t a on the ball and cos(t) c + sin(t) a on
    a sphere factor, and broadcast over the factors' directions with weight
    wr r^(n-1) prod sinc(t)^(k-1) w_psi w_dirs.  The outer radius is
    pi / max(cos psi, sin psi) on sphere factors and each ray's exit radius
    on the ball, cut at ``extent``.  ``axis``, a tangent vector at
    ``center``, turns each factor's polar axis toward its projection on
    that factor; with None it is the first vector of the factor's frame.
    """
    if not (0.0 < finest_scale <= 1.0):
        raise GeometryError("finest_scale must lie in (0, 1]")
    flat = model.kind == "flat_ball"
    if model.kind == "product_spheres":
        split, dims = model.split, (model.p, model.q)
        prof = angular or "biradial"
        if isinstance(prof, str):
            prof = _lookup_profile(_PRODUCT_PROFILES, prof, "a product")
        orders = [_resolve_orders(k - 1, prof.get(key) or "minimal")
                  for k, key in zip(dims, ("orders_a", "orders_b"))]
        # two panels of split angles, meeting at the kink of the outer
        # radius at pi/4
        psi, wpsi = np.concatenate(
            [gauss_segment(lo, hi, int(prof.get("n_psi", 24))) for lo, hi
             in ((0.0, math.pi / 4.0), (math.pi / 4.0, math.pi / 2.0))],
            axis=1)
        joins = [((c, s), wp * c ** (model.p - 1) * s ** (model.q - 1))
                 for ps, wp in zip(psi, wpsi)
                 for c, s in [(math.cos(ps), math.sin(ps))]]
    else:
        split, dims = (lambda x: (x,)), (model.n,)
        orders = [_resolve_orders(model.n - 1, angular or "default")]
        joins = [((1.0,), 1.0)]
    bases = split(center)

    dirs, wdirs = [], []
    for i, (base, k, o) in enumerate(zip(bases, dims, orders)):
        frame = np.eye(k) if flat else _orthonormal_complement(base)
        loc, w = unit_sphere_rule(k - 1, o)
        if axis is not None:
            u = frame @ split(np.asarray(axis, dtype=float))[i]
            if np.linalg.norm(u) > 1e-12:
                loc = loc @ _rotation_with_first_axis(u / np.linalg.norm(u)).T
        dirs.append(loc @ frame)
        wdirs.append(w)

    # graded out to r0 = inj/4; flat balls carry no cutoff, so only compact
    # models refine the default cutoff's transition band [r0/2, r0]
    r0 = model.injectivity_radius / 4.0
    transition = (r0 / 2.0, r0) if model.is_compact else None
    if flat:
        cdotw = dirs[0] @ center
        exit_radius = -cdotw + np.sqrt(cdotw**2 + model.radius**2
                                       - center @ center)
    # one radial grid per join angle and distinct outer radius: the
    # directions of a sphere factor share it, those of the ball are grouped
    plan = []
    for scales, wj in joins:
        r_out = exit_radius if flat else np.full(len(dirs[0]),
                                                 math.pi / max(scales))
        radii, group = np.unique(np.minimum(r_out, extent),
                                 return_inverse=True)
        plan += [(scales, wj, group == g,
                  *_radial_grid(finest_scale, min(r0, extent), float(r),
                                transition)) for g, r in enumerate(radii)]
    count = sum(len(r) * np.count_nonzero(sel) for _, _, sel, r, _ in plan) \
        * math.prod(len(d) for d in dirs[1:])
    if count > budget:
        raise CapacityError(
            f"budget {budget} too small for finest_scale={finest_scale:g}; "
            f"the requested rule needs {count} nodes")

    nodes = np.empty((count, model.ambient_dim))
    weights = np.empty(count)
    at = 0
    for scales, wj, sel, r, wr in plan:
        facs = [dirs[0][sel], *dirs[1:]]
        shape = (len(r), *(len(a) for a in facs))
        size = math.prod(shape)
        block = nodes[at:at + size].reshape(*shape, model.ambient_dim)
        dens = wr * r ** (model.n - 1)
        lo = 0
        for i, (s, base, a, k) in enumerate(zip(scales, bases, facs, dims)):
            t = r * s
            if flat:
                x = base + t[:, None, None] * a
            else:
                x = np.cos(t)[:, None, None] * base \
                    + np.sin(t)[:, None, None] * a
                dens = dens * np.sinc(t / np.pi) ** (k - 1)
            others = [j + 1 for j in range(len(facs)) if j != i]
            block[..., lo:lo + len(base)] = np.expand_dims(x, others)
            lo += len(base)
        wd = functools.reduce(np.multiply.outer, wdirs[1:], wdirs[0][sel])
        weights[at:at + size] = np.outer(dens * wj, wd).reshape(-1)
        at += size
    return nodes, weights


def build_multicenter_quadrature(model, centers, finest_scale,
                                 budget=4_000_000, *, angular=None,
                                 patch_angular=None):
    """Composite rule resolving concentration at several centers at once.

    A smooth partition of unity splits the integral into one well-resolved
    polar patch per center plus a coarse background piece; each piece is
    integrated by a rule centered where its integrand lives, so the combined
    node set integrates fields with spikes at every center.  Each patch is
    a polar rule for the ball its localizer lives on, so no node is built
    only to be dropped.  Each patch, and the background about the first
    centre, turns its polar axis toward the next centre; ``patch_angular``
    and ``angular`` are their profiles, as in :func:`build_quadrature`,
    with None meaning "axial".  The budget is split evenly over the
    patches and the background.  Weights stay positive because the
    partition functions are.

    It needs at least two distinct centres; one centre is the job of
    :func:`build_quadrature`.  No piece is radial about its centre, so the
    "radial" profile raises GeometryError.  On a flat ball the centres must
    lie on one line through the origin, the polar axis about which every
    piece's exit radii are symmetric, or GeometryError is raised.
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
    if model.kind == "flat_ball":
        sv = np.linalg.svd(np.array(centers), compute_uv=False)
        if sv[1] > 1e-12 * sv[0]:
            raise GeometryError("a multicentre rule on a flat ball needs its "
                                "centres on one line through the origin")
    r_i = min(dmin / 2.0, model.injectivity_radius / 4.0)

    def part(d):
        # smooth localizer in the distance d to a centre: 1 within r_i/2,
        # 0 beyond r_i
        return step_jet(2.0 * (r_i - d) / r_i)[0]

    sub_budget = budget // (len(centers) + 1)
    all_nodes, all_weights, axes = [], [], []
    for idx, c in enumerate(centers):
        try:
            axes.append(model.log(c, centers[(idx + 1) % len(centers)]))
        except GeometryError:
            axes.append(None)
        # a rule for the ball of radius r_i about c, weighted by the localizer
        nodes, weights = _polar_rule(model, c, finest_scale, sub_budget,
                                     patch_angular or "axial", axis=axes[-1],
                                     extent=r_i)
        all_nodes.append(nodes)
        all_weights.append(weights * part(model.distance(nodes, c)))

    # the background integrand keeps the inter-center axis symmetry
    nodes, weights = _polar_rule(model, centers[0],
                                 min(max(r_i / 2.0, finest_scale), 1.0),
                                 sub_budget, angular or "axial", axis=axes[0])
    rho = sum(part(model.distance(nodes, c)) for c in centers)
    all_nodes.append(nodes)
    all_weights.append(weights * np.clip(1.0 - rho, 0.0, None))

    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)
    keep = weights > 0.0
    return QuadratureRule(model=model, nodes=nodes[keep], weights=weights[keep],
                          center=centers[0], finest_scale=finest_scale)
