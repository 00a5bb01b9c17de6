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

import bisect
import contextvars
import functools
import itertools
import math
import os
import threading
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
    # einsum: a numpy reduce over a length-4 axis costs more than the
    # products.  It adds in its own order, so its bits are not _rowsum's
    # (a * b): every sphere-factor dot product stays on this one path
    return np.einsum("...i,...i->...", a, b)


def _rowsum(a):
    """np.add.reduce(a, axis=-1), bit for bit, in fewer passes on short rows.

    numpy sums a row of fewer than 8 entries in order from +0.0 (so a row
    of -0.0 sums to +0.0), which column-by-column adds repeat; longer rows
    go to numpy, whose pairwise order they would not.  np.linalg.norm is
    np.sqrt(_rowsum(a * a)).
    """
    k = a.shape[-1]
    if not 0 < k < 8:
        return np.add.reduce(a, axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, k):
        out += a[..., j]
    return out


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
    w = np.multiply(c[..., None], base)
    np.subtract(x, w, out=w)
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


def _ball_polar(base, x):
    """:func:`_sphere_polar` on a ball: (|w|, w, |w|) with w = x - base."""
    w = x - base
    nw = np.sqrt(_rowsum(w * w))
    return nw, w, nw


def _hypot(a, b):
    """Distance on a product from the distances on its two factors."""
    return np.sqrt(a**2 + b**2)


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


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
    # into an array, so that a 0-d x can take the series too
    out = np.divide(xs * np.cos(xs), np.sin(xs), out=np.empty_like(xs))
    if small.any():
        xm = x[small]
        out[small] = 1.0 - xm**2 / 3.0 - xm**4 / 45.0
    return out


# ---------------------------------------------------------------------------
# manifold models


@dataclass(frozen=True)
class ManifoldModel:
    """One of the supported homogeneous geometries.

    Every model is a product of factors: one round sphere, two (S^p x S^q)
    or one flat ball.  Each metric operation is written once per factor
    type, sphere or ball, and combined over the factors.

    Use the classmethods :meth:`product_spheres`, :meth:`round_sphere`,
    :meth:`flat_ball` rather than the raw constructor.
    """

    kind: str
    n: int
    p: int = 0
    q: int = 0
    radius: float = 0.0

    def __post_init__(self):
        # (ambient slice, dimension, is a sphere) of each factor: S^k in
        # R^(k+1), the ball in R^n
        sphere = self.is_compact
        dims = (self.p, self.q) if self.p else (self.n,)
        ends = itertools.accumulate(k + sphere for k in dims)
        object.__setattr__(self, "_factors", tuple(
            (slice(e - k - sphere, e), k, sphere) for k, e in zip(dims, ends)))

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
        # the factors' slices tile the ambient coordinates in order
        return self._factors[-1][0].stop

    @property
    def injectivity_radius(self):
        return math.pi if self.is_compact else self.radius

    @property
    def is_compact(self):
        return self.kind != "flat_ball"

    @property
    def volume(self):
        return math.prod(sphere_volume(k) if sphere
                         else sphere_volume(k - 1) / k * self.radius**k
                         for _, k, sphere in self._factors)

    def split(self, x):
        """Each factor's ambient coordinates of x, as views: one slice on a
        round sphere or a ball, two on a product."""
        return [x[..., sl] for sl, _, _ in self._factors]

    def validate_point(self, x):
        x = np.asarray(x, dtype=float)
        tol = 1e-12
        if x.shape[-1] != self.ambient_dim:
            raise GeometryError(
                f"point has ambient dimension {x.shape[-1]}, expected {self.ambient_dim}")
        for xi, (_, _, sphere) in zip(self.split(x), self._factors):
            if sphere:
                if np.any(np.abs(_dot(xi, xi) - 1.0) > tol):
                    raise GeometryError("sphere points must have unit norm")
            elif np.any(_dot(xi, xi) > (self.radius + tol) ** 2):
                raise GeometryError("point lies outside the ball")
        return x

    # -- metric operations ---------------------------------------------------

    def _polars(self, base, x):
        """The distance, the hypotenuse of the factor angles, and the polar
        (angle, w, |w|) of x about base on each factor."""
        polars = [(_sphere_polar if sphere else _ball_polar)(base[..., sl],
                                                             x[..., sl])
                  for sl, _, sphere in self._factors]
        return functools.reduce(_hypot, [a for a, _, _ in polars]), polars

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape[-1] != self.ambient_dim or b.shape[-1] != self.ambient_dim:
            raise GeometryError("mismatched ambient dimensions")
        return self._polars(a, b)[0]

    def factor_distances(self, a, b):
        """Per-factor distances: arc lengths on spheres, |b - a| on a ball."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return tuple(polar[0] for polar in self._polars(a, b)[1])

    def exp(self, base, v):
        base = np.asarray(base, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.concatenate(
            [_sphere_exp(base[..., sl], v[..., sl]) if sphere
             else base[..., sl] + v[..., sl]
             for sl, _, sphere in self._factors], axis=-1)

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
        d, polars = self._polars(np.asarray(base, dtype=float),
                                 np.asarray(target, dtype=float))
        parts = [_along(angle, w, nw) for angle, w, nw in polars]
        return np.concatenate(parts, axis=-1), d

    def _frames(self, base):
        """Each factor's orthonormal tangent basis at base, rows (k, width)."""
        return [_orthonormal_complement(base[sl]) if sphere else np.eye(k)
                for sl, k, sphere in self._factors]

    def tangent_frame(self, base):
        """Orthonormal basis of the tangent space, rows (n, ambient_dim)."""
        return functools.reduce(_block_diag,
                                self._frames(np.asarray(base, dtype=float)))

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

        Everything comes from one polar per factor, taken at ``pts``, so
        each factor's w points toward the centre.  The gradient is
        sum_i r_i grad(r_i) / d, grad(r_i) being the unit vector away from
        the centre on factor i; recombined from the angles that gave d, it
        has length 1 to rounding.  Over m factors of dimension k_i the
        coefficient is (m - 1 + sum_i (k_i - 1) phi(r_i)) / d, with
        phi(r) = r cot r on a sphere and 1 on the ball.
        """
        d, polars = self._polars(np.asarray(pts, dtype=float),
                                 np.asarray(center, dtype=float))
        if order == 0:
            return d, None
        if order == 1 and not self.is_compact:
            # on the ball r = |w| = d, so the general path's first scaling
            # is by exactly -1
            return d, _along(-1.0, polars[0][1], d)
        if order == 1:
            g = np.concatenate([_along(-r, w, nw) for r, w, nw in polars],
                               axis=-1)
            return d, _along(1.0, g, d)
        num = sum(((k - 1) * (_xcotx(r) if sphere else 1.0)
                   for (r, _, _), (_, k, sphere)
                   in zip(polars, self._factors)), len(polars) - 1)
        return d, num / np.where(d < 1e-300, 1.0, d)

    # -- curvature invariants -------------------------------------------------

    def scalar_curvature(self):
        return float(sum(k * (k - 1) for _, k, sphere in self._factors
                         if sphere))

    def weyl_norm_sq(self):
        # one sphere or a ball is conformally flat
        if len(self._factors) == 2:
            return _product_weyl_norm_sq(self.p, self.q)
        return 0.0

    # -- sampling -------------------------------------------------------------

    def random_point(self, rng):
        parts = []
        for _, k, sphere in self._factors:
            x = rng.standard_normal(k + sphere)
            r = 1.0 if sphere else self.radius * rng.uniform() ** (1.0 / k)
            parts.append(r * x / np.linalg.norm(x))
        return np.concatenate(parts)


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


# nodes in flight in QuadratureRule.integrate, over all its block workers:
# a block's (nodes, 8) float temporaries take 2 MiB, so a few stay in cache
_BLOCK = 32_768
_MAX_WORKERS = 4


@functools.cache
def _worker_count():
    """One block worker per CPU this process may run on, at most 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


_in_worker = threading.local()


def _mark_worker():
    _in_worker.active = True


@functools.cache
def _block_pool(workers):
    """Process-wide block workers, started at the first multi-block integral.

    A block worker runs a nested integral's blocks inline, so it never
    waits on the pool it belongs to.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="integrate",
                              initializer=_mark_worker)


# a forked child holds none of the parent's worker threads, so it starts
# workers of its own rather than wait on a pool that nothing serves
os.register_at_fork(after_in_child=_block_pool.cache_clear)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing integration over the model.

    ``finest_scale`` is the smallest bubble scale the rule claims to
    resolve: its radial grid starts at finest_scale/10 about each centre.
    """

    nodes: np.ndarray
    weights: np.ndarray
    finest_scale: float

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise GeometryError("quadrature weights must be positive")

    @property
    def node_count(self):
        return self.nodes.shape[0]

    def integrate(self, integrand):
        """Weighted sum of ``integrand`` over the nodes.

        The integrand maps a block of points to values along its last axis,
        one row per integral.  It is evaluated on consecutive blocks of
        _BLOCK // workers nodes, one block per worker thread at a time (numpy
        releases the GIL in its loops), so the nodes in flight and their
        temporaries stay within _BLOCK.  Each block runs in a copy of the
        caller's context, so np.errstate reaches it.  The blocks' values are
        concatenated in node order and reduced once over the full node
        array, as if all nodes were evaluated at once, so the result does
        not depend on the worker count.  Returns one value per row, a 0-d
        array for a single integral.
        """
        workers = _worker_count()
        size = _BLOCK // workers
        blocks = [self.nodes[i:i + size]
                  for i in range(0, len(self.nodes), size)]
        if len(blocks) > 1 and not getattr(_in_worker, "active", False):
            contexts = [contextvars.copy_context() for _ in blocks]
            parts = list(_block_pool(workers).map(
                contextvars.Context.run, contexts,
                itertools.repeat(integrand), blocks))
        else:
            parts = [integrand(block) for block in blocks]
        vals = np.concatenate(parts, axis=-1)
        # vals is this call's own array, so it takes the weights in place
        np.multiply(self.weights, vals, out=vals)
        return np.sum(vals, axis=-1)


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
    Rules are cached by their orders, so the arrays returned are shared
    and read-only.
    """
    if len(orders) != m:
        raise GeometryError(f"need {m} orders for S^{m}")
    # from a list: tuple(generator) allocates 10 slots and shrinks them,
    # which parks a tuple on CPython's free list on every call
    return _unit_sphere_rule(m, tuple([int(o) for o in orders]))


@functools.lru_cache(maxsize=64)
def _unit_sphere_rule(m, orders):
    if m == 1:
        L = orders[0]
        ang = 2.0 * math.pi * (np.arange(L) + 0.5) / L
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(L, 2.0 * math.pi / L)
    else:
        th, wth = gauss_segment(0.0, math.pi, orders[0])
        sub_nodes, sub_w = _unit_sphere_rule(m - 1, orders[1:])
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
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# polar orders on S^m by profile name: the directions of flat-ball and
# round-sphere rules, and the factor spheres of product rules
_SPHERE_PROFILES = {
    "default": lambda m: [8] + [4] * (m - 2) + [8],
    "minimal": lambda m: [2] * (m - 1) + [4],
    "axial": lambda m: [20] + [1] * (m - 1),
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


def _split_band(panel, transition):
    """``panel`` (a, b, k) with its part inside ``transition`` subdivided.

    ``transition`` is None or a band (a, b) where the integrand is smooth
    but not analytic (the e^(-1/t) cutoff profile); Gauss rules converge
    only root-exponentially on such functions, so the panel's part in the
    band is cut into at least two panels, about 8 per band width.
    """
    a, b, k = panel
    if transition is None:
        return [panel]
    ta, tb = transition
    lo_c, hi_c = max(a, ta), min(b, tb)
    if hi_c <= lo_c:
        return [panel]
    parts = max(2, int(math.ceil(8.0 * (hi_c - lo_c) / (tb - ta))))
    edges = np.linspace(lo_c, hi_c, parts + 1)
    return ([(a, lo_c, k)] if a < lo_c else []) \
        + [(e0, e1, k) for e0, e1 in zip(edges, edges[1:])] \
        + ([(hi_c, b, k)] if hi_c < b else [])


def _radial_grids(finest_scale, r_patch, radii, transition, segment):
    """Radial nodes and weights on [0, r] for each outer radius r in
    ``radii``, graded geometrically (ratio 2) near the center.

    The panels are an innermost segment [0, finest/10], geometric annuli
    out to ``r_patch``, then geometric panels outward; those inside
    ``transition`` are subdivided (:func:`_split_band`).  All outer radii
    share these panel edges: the grid for r keeps every panel that ends
    below r (by more than a relative 1e-14) and cuts the next one at r.
    So the whole panels are evaluated and joined once for all radii, and
    each grid adds only its last panel(s).  ``segment(a, b, k)`` gives a
    panel's Gauss nodes and weights; a memoized one evaluates a last panel
    that several grids share once too.
    """
    s0 = finest_scale / 10.0
    stops = [r * (1 - 1e-14) for r in radii]
    edges, orders = [0.0, s0], [_INNER_ORDER]
    while edges[-1] < max(stops):
        inside = edges[-1] < r_patch * (1 - 1e-14)
        edges.append(min(2.0 * edges[-1], r_patch) if inside
                     else 2.0 * edges[-1])
        orders.append(_ANNULUS_ORDER if inside else _OUTER_ORDER)
    # the panel each grid ends with: the first whose end is not below the
    # grid's stop
    last = [bisect.bisect_left(edges, stop) - 1 for stop in stops]

    def gauss(panels):
        # lists, not zip(*generator), for the reason in unit_sphere_rule
        pieces = [segment(*p) for p in panels]
        return (np.concatenate([x for x, _ in pieces]),
                np.concatenate([w for _, w in pieces]))

    # the whole panels of the grids, and the node count up to each end
    shared = [_split_band(p, transition)
              for p in zip(edges[:max(last)], edges[1:], orders)]
    ends = np.cumsum([0] + [sum(k for *_, k in panels) for panels in shared])
    x_in, w_in = gauss(sum(shared, [])) if shared else (np.empty(0),) * 2
    grids = []
    for r, j in zip(radii, last):
        x, w = gauss(_split_band((edges[j], min(edges[j + 1], r), orders[j]),
                                 transition))
        grids.append((np.concatenate([x_in[:ends[j]], x]),
                      np.concatenate([w_in[:ends[j]], w])))
    return grids


_PRODUCT_PROFILES = {
    "radial": dict(n_psi=24, orders_a="radial", orders_b="radial"),
    "biradial": dict(n_psi=24, orders_a="minimal", orders_b="minimal"),
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
    profile name ("radial", "biradial") or a dict with keys ``n_psi``,
    ``orders_a``, ``orders_b`` (each a list of polar orders or a sphere
    profile name); None means "biradial".  On flat balls and round spheres
    it is a sphere profile name ("default", "minimal", "axial", "radial")
    or a list of polar orders; None means "default".  An unknown name
    raises GeometryError.  "axial" puts 20 Gauss nodes on the polar angle
    from the rule's axis and one on every other angle, so it resolves only
    integrands invariant under rotations about that axis.

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
    if not model.is_compact and np.any(center):
        raise GeometryError("a rule on a flat ball must be centred at the "
                            "origin, the ball's only centre of symmetry")
    nodes, weights = _polar_rule(model, center, finest_scale, budget, angular)
    return QuadratureRule(nodes=nodes, weights=weights,
                          finest_scale=finest_scale)


def _polar_rule(model, center, finest_scale, budget, angular, axis=None,
                extent=math.inf, segment=None):
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
    ``segment`` gives the Gauss rule of a radial panel; the rules of one
    build pass it memoized, so that their pieces evaluate a shared panel
    once, and None memoizes it for this rule alone.
    """
    if not (0.0 < finest_scale <= 1.0):
        raise GeometryError("finest_scale must lie in (0, 1]")
    factors = model._factors
    if len(factors) == 2:
        prof = angular or "biradial"
        if isinstance(prof, str):
            prof = _lookup_profile(_PRODUCT_PROFILES, prof, "a product")
        orders = [_resolve_orders(k - 1, prof.get(key) or "minimal")
                  for (_, k, _), key in zip(factors, ("orders_a", "orders_b"))]
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
        orders = [_resolve_orders(model.n - 1, angular or "default")]
        joins = [((1.0,), 1.0)]
    bases = model.split(center)

    dirs, wdirs = [], []
    for i, (frame, (_, k, _), o) in enumerate(
            zip(model._frames(center), factors, orders)):
        loc, w = unit_sphere_rule(k - 1, o)
        if axis is not None:
            u = frame @ model.split(np.asarray(axis, dtype=float))[i]
            if np.linalg.norm(u) > 1e-12:
                loc = loc @ _rotation_with_first_axis(u / np.linalg.norm(u)).T
        dirs.append(loc @ frame)
        wdirs.append(w)

    # graded out to r0 = inj/4; flat balls carry no cutoff, so only compact
    # models refine the default cutoff's transition band [r0/2, r0]
    r0 = model.injectivity_radius / 4.0
    transition = (r0 / 2.0, r0) if model.is_compact else None
    if not model.is_compact:
        cdotw = dirs[0] @ center
        exit_radius = -cdotw + np.sqrt(cdotw**2 + model.radius**2
                                       - center @ center)
    # one radial grid per join angle and distinct outer radius: the
    # directions of a sphere factor share it, those of the ball are grouped
    # by exit radius.  All grids are cut from one set of panels.
    plan = []
    for scales, wj in joins:
        r_out = np.full(len(dirs[0]), math.pi / max(scales)) \
            if model.is_compact else exit_radius
        radii, group = np.unique(np.minimum(r_out, extent),
                                 return_inverse=True)
        plan += [(scales, wj, group == g, float(r))
                 for g, r in enumerate(radii)]
    grids = _radial_grids(finest_scale, min(r0, extent),
                          [r for *_, r in plan], transition,
                          segment or functools.cache(gauss_segment))
    plan = [(scales, wj, sel, *grid)
            for (scales, wj, sel, _), grid in zip(plan, grids)]
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
        for i, (s, base, a, (sl, k, sphere)) in enumerate(
                zip(scales, bases, facs, factors)):
            t = r * s
            if sphere:
                x = np.cos(t)[:, None, None] * base \
                    + np.sin(t)[:, None, None] * a
                dens = dens * np.sinc(t / np.pi) ** (k - 1)
            else:
                x = base + t[:, None, None] * a
            others = [j + 1 for j in range(len(facs)) if j != i]
            block[..., sl] = np.expand_dims(x, others)
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
    with None meaning "axial" on flat balls and round spheres and
    "biradial" on products.  The budget is split evenly over the patches
    and the background.  Weights stay positive because the partition
    functions are.

    It needs at least two distinct centres; one centre is the job of
    :func:`build_quadrature`.  No piece is radial about its centre, so the
    "radial" profile raises GeometryError.  On a flat ball the centres must
    lie on one line through the origin, the polar axis about which every
    piece's exit radii are symmetric, or GeometryError is raised.  So the
    partition of unity is axisymmetric there, as it is for two centres on
    a sphere; with other than two centres on a sphere "axial" raises
    GeometryError.  The caller declares the integrand's symmetry.
    """
    if "radial" in (angular, patch_angular):
        raise GeometryError(
            "the radial profile does not apply to multicentre rules")
    centers = [model.validate_point(np.asarray(c, dtype=float)) for c in centers]
    if len(centers) < 2:
        raise GeometryError(
            "a multicentre rule needs at least two centres; use "
            "build_quadrature for one")
    if model.kind != "product_spheres":
        angular, patch_angular = angular or "axial", patch_angular or "axial"
    if model.kind == "round_sphere" and len(centers) != 2 \
            and "axial" in (angular, patch_angular):
        raise GeometryError("the axial profile needs an axisymmetric layout; "
                            "on a sphere that is two centres")
    dmin = min(model.distance(a, b)
               for i, a in enumerate(centers) for b in centers[i + 1:])
    if dmin <= 0:
        raise GeometryError("multicenter rule requires distinct centers")
    if not model.is_compact:
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
    # the pieces' radial panels, each evaluated once
    segment = functools.cache(gauss_segment)
    pieces, axes = [], []
    for idx, c in enumerate(centers):
        # unchecked: on a ball the chord, on a sphere zero only at the
        # antipode, about which two bubbles are radial
        axes.append(model._log_and_distance(
            c, centers[(idx + 1) % len(centers)])[0])
        # a rule for the ball of radius r_i about c, weighted by the localizer
        nodes, weights = _polar_rule(model, c, finest_scale, sub_budget,
                                     patch_angular, axis=axes[-1], extent=r_i,
                                     segment=segment)
        pieces.append((nodes, weights * part(model.distance(nodes, c))))

    # the background integrand keeps the inter-center axis symmetry
    nodes, weights = _polar_rule(model, centers[0],
                                 min(max(r_i / 2.0, finest_scale), 1.0),
                                 sub_budget, angular, axis=axes[0],
                                 segment=segment)
    rho = sum(part(model.distance(nodes, c)) for c in centers)
    pieces.append((nodes, weights * np.clip(1.0 - rho, 0.0, None)))

    # each piece keeps its nodes of positive weight before the one join
    keep = [w > 0.0 for _, w in pieces]
    return QuadratureRule(
        nodes=np.concatenate([x[k] for (x, _), k in zip(pieces, keep)]),
        weights=np.concatenate([w[k] for (_, w), k in zip(pieces, keep)]),
        finest_scale=finest_scale)
