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
import ctypes
import functools
import itertools
import math
import operator
import os
import platform
import threading
from dataclasses import dataclass

import numpy as np

from ._smoothstep import plateau_jet

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
    """Per-point dot product over the last axis: :func:`_rowsum` (a * b)."""
    return _rowsum(a * b)


def _rowsum(a):
    """Sum over the last axis, adding its columns in order from +0.0.

    One order at every width and memory layout, so a point's sum has the
    same bits in a coordinate-major rule, in a row-major copy and alone:
    einsum, and np.add.reduce over 8 or more entries, add pairwise along
    a contiguous axis but in sequence along a strided one.  np.add.reduce
    adds in this order (a row of -0.0 sums to +0.0) over fewer than 8
    entries in every layout, so np.sqrt(_rowsum(a * a)) is then
    np.linalg.norm, and at every width when two or more rows are the
    contiguous axis, as in a coordinate-major integration block and every
    temporary numpy derives from one.  Both take one numpy call: the calls
    of a few points, where one pass costs less than one per column, and
    the blocks, whose workers then give up the GIL once rather than once
    per column.  Large row-major arrays take the column loop, as a reduce
    over each contiguous row of 4 to 9 entries is many times slower.
    """
    if (a.shape[-1] < 8 and a.size <= 256) \
            or (a.ndim > 1 and a.shape[0] > 1 and a.strides[0] == a.itemsize):
        return np.add.reduce(a, axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def _sphere_polar(base, x):
    """Angle from ``base`` to ``x`` on a unit sphere, with its projection.

    Returns (angle, w, |w|, c), where c = x.base and w = x - c base is the
    part of x orthogonal to base: a tangent vector at base of length
    sin(angle) that points toward x.  Distances, log maps, distance
    gradients and the mean curvature of geodesic spheres all derive from
    this one projection.

    atan2(|w|, c), with c = x.base, is accurate to a few ulp absolute at
    every angle from 0 to pi: near 0 it is |w|/c, where arccos(c) would
    lose half the digits because 1 - c rounds at machine epsilon, and
    near pi it is pi - |w|/|c|, so no branch between the near and the
    antipodal side is needed.
    """
    xb = x * base
    c = _rowsum(xb)
    # w takes the product's buffer, which has the batch's memory layout
    w = np.multiply(c[..., None], base, out=xb)
    np.subtract(x, w, out=w)
    nw = np.sqrt(_dot(w, w))
    return np.arctan2(nw, c), w, nw, c


def _sphere_exp(base, v):
    """Great-circle exponential on a unit sphere; v tangent at base."""
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    small = theta < 1e-300
    safe = np.where(small, 1.0, theta)
    return np.cos(theta) * base + np.sin(theta) * np.where(small, 0.0, v / safe)


def _along(length, w, nw):
    """``length`` times the unit vector w/|w|; 0 where w vanishes."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.divide(length, nw, out=np.empty_like(nw))
    scale[nw < 1e-300] = 0.0
    return scale[..., None] * w


def _ball_polar(base, x):
    """:func:`_sphere_polar` on a ball: (|w|, w, |w|, 1.0) with w = x - base;
    c = 1 is the flat limit of the cosine, so :func:`_rcotr` is 1."""
    w = x - base
    nw = np.sqrt(_rowsum(w * w))
    return nw, w, nw, 1.0


def _rcotr(r, c, nw):
    """r cot r from a polar (r, w, |w|, c): r c/|w|, 1 where |w| = 0.

    On a sphere cot r = c/|w|, so no cosine or sine is taken, and near 0
    the quotient is accurate to a few ulp, as r ~ |w|/c is.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(r * c, nw, out=np.empty_like(nw))
    out[nw == 0.0] = 1.0
    return out


def _take_rows(a, rows, out=None):
    """a[rows] of a 2-D array, coordinate-major, into ``out`` if given.

    Gathered one column at a time: fancy indexing over rows returns a
    row-major array.
    """
    if out is None:
        out = np.empty((len(rows), a.shape[1]), order="F")
    for j in range(a.shape[1]):
        out[:, j] = a[rows, j]
    return out


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
        if not 0.0 < radius < math.inf:
            raise GeometryError("radius must be positive and finite")
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
    def cutoff_radius(self):
        """The default bubble cutoff's radius r0 = inj/4; see build_quadrature."""
        return self.injectivity_radius / 4.0

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
        # written as "not all within", so that a NaN coordinate fails too
        for xi, (_, _, sphere) in zip(self.split(x), self._factors):
            if sphere:
                if not np.all(np.abs(_dot(xi, xi) - 1.0) <= tol):
                    raise GeometryError("sphere points must have unit norm")
            elif not np.all(_dot(xi, xi) <= (self.radius + tol) ** 2):
                raise GeometryError("point lies outside the ball")
        return x

    # -- metric operations ---------------------------------------------------

    def _polars(self, base, x):
        """The distance, the hypotenuse of the factor angles, and the polar
        (angle, w, |w|, c) of x about base on each factor."""
        polars = [(_sphere_polar if sphere else _ball_polar)(base[..., sl],
                                                             x[..., sl])
                  for sl, _, sphere in self._factors]
        return functools.reduce(_hypot, [p[0] for p in polars]), polars

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

    def _transport(self, base, v, frame):
        """The rows of ``frame``, tangent at the point ``base``, parallel
        transported along t -> exp_base(t v) to t = 1, where they are
        tangent at exp_base(v).

        On a sphere factor with theta = |v_f| > 0 and u = v_f/theta, the
        u-component of each row turns into cos(theta) u - sin(theta) base_f,
        the geodesic's unit velocity, and the part orthogonal to u and
        base_f stays: E_f += (E_f u) (x) ((cos theta - 1) u - sin theta
        base_f).  A ball factor, and a sphere factor with v_f = 0, keep
        their rows bit for bit.  One point: base and v of shape (d,).
        """
        out = np.array(frame, dtype=float)
        for sl, _, sphere in self._factors:
            theta = math.sqrt(v[sl] @ v[sl]) if sphere else 0.0
            if theta < 1e-300:
                continue
            u = v[sl] / theta
            e = out[:, sl]
            e += (e @ u)[:, None] * ((math.cos(theta) - 1.0) * u
                                     - math.sin(theta) * base[sl])
        return out

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
        parts = [_along(angle, w, nw) for angle, w, nw, _ in polars]
        return np.concatenate(parts, axis=-1), d

    def _log_within(self, base, pts, radius):
        """The rows of ``pts`` nearer than ``radius`` to base, as indices,
        and their log maps at base; ``radius`` is below the injectivity
        radius.

        A point whose factor angle alone reaches ``radius`` is dropped
        first, by its cosine x.b <= cos(radius) on each sphere factor, with
        a 1e-12 margin far above the rounding of the dot product, so no
        point nearer than ``radius`` is dropped; a ball factor drops none.
        One projection of the points left gives the exact test d < radius
        and the log map, with the bits of :meth:`_log_and_distance`.
        """
        base = np.asarray(base, dtype=float)
        keep = np.ones(len(pts), dtype=bool)
        for sl, _, sphere in self._factors:
            if sphere:
                keep &= _dot(pts[:, sl], base[sl]) > math.cos(radius) - 1e-12
        idx = np.flatnonzero(keep)
        v, d = self._log_and_distance(base, _take_rows(pts, idx))
        inside = np.flatnonzero(d < radius)
        return idx[inside], _take_rows(v, inside)

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
        phi(r) = r cot r on a sphere and 1 on the ball, both read off the
        projection by :func:`_rcotr`.
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
            g = np.concatenate([_along(-r, w, nw) for r, w, nw, _ in polars],
                               axis=-1)
            return d, _along(1.0, g, d)
        num = sum(((k - 1) * _rcotr(r, c, nw) for (r, _, nw, c), (_, k, _)
                   in zip(polars, self._factors)), len(polars) - 1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            coeff = np.divide(num, d, out=np.empty_like(d))
        # num / 1 where d is below 1e-300
        tiny = d < 1e-300
        coeff[tiny] = num[tiny]
        # a scalar for one point, as d is
        return d, coeff[()]

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


# nodes in flight in QuadratureRule.integrate, over all its block workers.
# Each numpy call on a block releases the GIL and takes it back, so the
# workers queue on it less the fewer and larger their calls are.  Measured
# on 2 CPUs (BENCH_27.json), the scheduled-bubble step took a median 0.150 s
# at 32k, 0.122 at 48k, 0.120 at 64k, 0.121 at 96k and 0.137 at 128k, where
# it took 5,000-10,000 page faults instead of about 500, as glibc handed a
# worker's 4 MiB (nodes, 8) temporaries back to the kernel after each use.
# With the thresholds of _pin_malloc_thresholds those faults are gone and
# 128k is as fast as 64k (BENCH_29.json), so 64k, with half the
# temporaries, stays
_BLOCK = 65_536
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
    """Process-wide block workers, started at the first multi-block integral
    or rule.

    A block worker runs a nested integral's blocks inline, so it never
    waits on the pool it belongs to.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="integrate",
                              initializer=_mark_worker)


# a forked child holds none of the parent's worker threads, so it starts
# workers of its own rather than wait on a pool that nothing serves
os.register_at_fork(after_in_child=_block_pool.cache_clear)


def _pin_malloc_thresholds():
    """Start glibc's mmap and trim thresholds where its own rule ends.

    glibc serves blocks over its mmap threshold by mmap and hands freed
    memory over its trim threshold at the top of the heap back to the
    kernel.  Both start at 128 KiB and rise only when a freed block was
    mmapped, to its size (at most 32 MiB on 64 bits) and twice that.  A
    rule's (N, 7) arrays of 0.5 MB never raise them, so every integral
    returned its few MB of temporaries and the next faulted them back in:
    a two-bubble operation took a median 730 minor page faults (330 in the
    rule build, 410 in energy_split), and takes none at 32 and 64 MiB.
    Larger arrays stay mmapped.  The price is freed memory held for reuse:
    configs/reduced_limit_k2.json peaks at 152 MiB RSS instead of 127.
    Overrides any MALLOC_*_THRESHOLD_ set in the environment; does nothing
    on another C library.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ceiling = (4 << 20) * ctypes.sizeof(ctypes.c_long)
    mallopt(-3, ceiling)      # M_MMAP_THRESHOLD
    mallopt(-1, 2 * ceiling)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


def _map_blocks(fn, items, pooled):
    """[fn(item) for item in items], on the block workers if ``pooled``.

    Each item then runs in a copy of the caller's context, so np.errstate
    reaches it.  A block worker's own calls run inline.
    """
    if pooled and not getattr(_in_worker, "active", False):
        contexts = [contextvars.copy_context() for _ in items]
        return list(_block_pool(_worker_count()).map(
            contextvars.Context.run, contexts, itertools.repeat(fn), items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights realizing integration over the model.

    ``finest_scale`` is the smallest bubble scale the rule claims to
    resolve: its radial grid starts at finest_scale/10 about each centre.

    The nodes, one row per point, are stored coordinate-major (Fortran
    order), and a row-major array passed in is converted.  Each column of
    an integration block is then contiguous, and so is every per-point
    temporary numpy derives from one, so each elementwise pass over the
    ambient coordinates runs over long columns instead of rows of 4 to 9
    entries.  Per-point sums over the coordinates add the columns in one
    fixed order (:func:`_rowsum`), so no value depends on the layout.
    """

    nodes: np.ndarray
    weights: np.ndarray
    finest_scale: float

    def __post_init__(self):
        nodes = np.asfortranarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.shape != nodes.shape[:1] \
                or not len(weights):
            raise GeometryError(
                f"a rule needs (N, d) nodes and N weights, N >= 1, got nodes "
                f"of shape {nodes.shape} and weights of shape {weights.shape}")
        # NaN fails both comparisons
        if not (np.all(weights > 0.0) and np.all(weights < math.inf)):
            raise GeometryError("quadrature weights must be finite and positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self):
        return self.nodes.shape[0]

    def integrate(self, integrand):
        """Weighted sum of ``integrand`` over the nodes.

        The integrand maps a block of points to values along its last axis,
        one row per integral.  It is evaluated on consecutive blocks of
        _BLOCK // workers nodes (32,768 on 2 CPUs), one block per worker
        thread at a time (numpy releases the GIL in its loops), so the nodes
        in flight and their temporaries stay within _BLOCK; the larger the
        blocks, the fewer numpy calls the workers queue on the GIL for.
        The blocks go to the block workers that also fill large rules
        (:func:`_map_blocks`); a rule of one block is evaluated inline.
        Each block runs in a copy of the caller's context, so np.errstate
        reaches it.  The blocks' values are concatenated in node order and
        reduced once over the full node array, as if all nodes were
        evaluated at once, so the result does not depend on the worker
        count.  Returns one value per row, a 0-d array for a single
        integral.
        """
        size = _BLOCK // _worker_count()
        blocks = [self.nodes[i:i + size]
                  for i in range(0, len(self.nodes), size)]
        vals = np.concatenate(_map_blocks(integrand, blocks, len(blocks) > 1),
                              axis=-1)
        # vals is this call's own array, so it takes the weights in place
        np.multiply(self.weights, vals, out=vals)
        return np.sum(vals, axis=-1)


@functools.lru_cache(maxsize=64)
def _leggauss(k):
    return np.polynomial.legendre.leggauss(k)


# one walk of the panel edges serves all of a rule's radial grids, so a
# build looks each panel up about once, and a rule takes at most about 50
# distinct panels (44 a two-bubble rule, 36-38 a scheduled-bubble one):
# this holds a few rules
@functools.lru_cache(maxsize=256)
def gauss_segment(a, b, k):
    """k-point Gauss-Legendre nodes/weights on [a, b], cached: the rules
    of a sweep share most of their panels.  The arrays returned are shared
    and read-only."""
    x, w = _leggauss(k)
    x, w = 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=64)
def unit_sphere_rule(m, orders):
    """Product-form quadrature on the unit sphere S^m in R^(m+1).

    ``orders``, a tuple of m ints as :func:`_angular_orders` resolves them,
    holds Gauss orders for the successive polar angles and a trailing
    azimuthal count.  The rule integrates constants exactly at any orders;
    the polar resolution of the FIRST angle (measured from the +e1 axis)
    controls accuracy for axially symmetric integrands.  Rules are cached
    by their orders, so the arrays returned are shared and read-only.
    """
    if m == 1:
        L = orders[0]
        ang = 2.0 * math.pi * (np.arange(L) + 0.5) / L
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(L, 2.0 * math.pi / L)
    else:
        th, wth = gauss_segment(0.0, math.pi, orders[0])
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
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# polar orders on S^m by profile name: the directions of flat-ball and
# round-sphere rules, and the factor spheres of product rules
_SPHERE_PROFILES = {
    "minimal": lambda m: [2] * (m - 1) + [4],
    "axial": lambda m: [20] + [1] * (m - 1),
    "radial": lambda m: [1] * m,
}

# a product profile gives both factor spheres one sphere profile; the split
# angles belong to the layout, so each builder sets their number
_PRODUCT_PROFILES = {"radial": _SPHERE_PROFILES["radial"],
                     "biradial": _SPHERE_PROFILES["minimal"]}


def _angular_orders(model, angular, n_psi):
    """The polar orders, a tuple per sphere of directions, and the split
    angles per panel that ``angular`` declares on ``model``, in the forms
    of :func:`build_quadrature`; a product dict's ``n_psi`` replaces the
    builder's.  Any other declaration raises GeometryError.
    """
    dims = [k - 1 for _, k, _ in model._factors]
    table = _PRODUCT_PROFILES if len(dims) == 2 else _SPHERE_PROFILES
    if isinstance(angular, str):
        if angular not in table:
            raise GeometryError(f"unknown angular profile {angular!r} for "
                                f"{model.kind}; choose from {', '.join(table)}")
        specs = [table[angular](m) for m in dims]
    elif len(dims) == 2 and isinstance(angular, dict) \
            and set(angular) - {"n_psi"} == {"orders_a", "orders_b"}:
        specs = [angular["orders_a"], angular["orders_b"]]
        n_psi = angular.get("n_psi", n_psi)
    else:
        specs = [angular]
    try:
        # from a list: tuple(generator) allocates 10 slots and shrinks them,
        # which parks a tuple on CPython's free list on every call.
        # operator.index refuses a float, which int() would truncate
        orders = [tuple([operator.index(o) for o in spec]) for spec in specs]
        n_psi = operator.index(n_psi)
    except (TypeError, ValueError):
        orders = []
    if [len(o) for o in orders] != dims or min(n_psi, *map(min, orders)) < 1:
        raise GeometryError(f"{angular!r} declares neither a profile nor "
                            f"{dims} orders of at least 1 on {model.kind}")
    return orders, n_psi


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


def _radial_panels(finest_scale, r_patch, radii, transition):
    """The radial grid on [0, r] of each r of ``radii``, which ascend, as
    a list of Gauss panels, (nodes, weights) pairs in order.

    Each grid is graded geometrically (ratio 2) near the center: an
    innermost segment [0, finest/10], geometric annuli out to ``r_patch``,
    then geometric panels outward; those inside ``transition`` are
    subdivided (:func:`_split_band`).  The first panel that reaches r
    (1 - 1e-14) is the last, cut at r, so it is as narrow as r lies past
    the edge before it: on a ball of radius R the edges double from R/4 to
    R exactly, so a ray that leaves the ball past R ends in a 24-node
    panel no wider than its centre's distance from the origin.  The edges
    do not depend on r, so one walk out to the largest radius serves
    every grid, and the panels below the smallest, which every grid starts
    with, are joined into one pair once.
    """
    stops, patch = [r * (1 - 1e-14) for r in radii], r_patch * (1 - 1e-14)
    edges, orders = [0.0, finest_scale / 10.0], [_INNER_ORDER]
    while edges[-1] < stops[-1]:
        inside = edges[-1] < patch
        edges.append(min(2.0 * edges[-1], r_patch) if inside
                     else 2.0 * edges[-1])
        orders.append(_ANNULUS_ORDER if inside else _OUTER_ORDER)
    # each grid's last edge is the first at or past its stop
    ends = [bisect.bisect_left(edges, stop, 1) for stop in stops]

    def segments(panel):
        # from a list, not a generator, for the reason in _angular_orders
        return [gauss_segment(*p) for p in _split_band(panel, transition)]

    # the panels that no grid cuts
    whole = [segments(p) for p in zip(edges, edges[1:ends[-1]], orders)]
    # joined once, rather than repeated in every grid: a first piece's 20
    # grids build about a sixth faster so
    shared = list(itertools.chain(*whole[:ends[0] - 1]))
    shared = [tuple(map(np.concatenate, zip(*shared)))] if shared else []
    return [shared + list(itertools.chain(*whole[ends[0] - 1:end - 1]))
            + segments((edges[end - 1], min(edges[end], r), orders[end - 1]))
            for r, end in zip(radii, ends)]


def _ray_pairs(group, lengths):
    """The (radius, direction) pairs of one join angle, radius-major: the
    number of pairs of each radius of its concatenated radial grids, and
    each pair's direction.

    Direction d leaves at outer radius ``group[d]``, whose grid holds
    ``lengths[group[d]]`` radii; each radius takes the directions of its
    grid's outer radius, in their order.
    """
    counts = np.bincount(group)
    per_radius = np.repeat(counts, lengths)
    # each pair's place among the directions sorted by outer radius: its
    # group's first, plus its place in its radius's run of pairs
    offset = np.repeat(np.cumsum(counts) - counts, lengths) \
        - (np.cumsum(per_radius) - per_radius)
    cols = np.argsort(group, kind="stable")[
        np.repeat(offset, per_radius) + np.arange(per_radius.sum())]
    return per_radius, cols


def _ray_points(base, a, t, sphere, spread):
    """The points at distance t from ``base`` along the unit tangents
    ``a``: cos(t) base + sin(t) a on a sphere factor and base + t a on the
    ball, each coefficient laid out by ``spread`` to meet ``a``."""
    if sphere:
        return spread(np.cos(t)) * base + spread(np.sin(t)) * a
    return base + spread(t) * a


# Gauss split angles per panel of a product rule, per builder: the smallest
# order in {2, 4, 8, 12, 16, 24} that keeps every gated quantity within
# 1e-9 relative of 24 and, about one centre, sum(w)/vol - 1 within 1e-12
# (the sweep in BENCH_23.json; the builders' docstrings give the reasons)
_N_PSI_ONE_CENTRE, _N_PSI_MULTICENTRE = 12, 24


def build_quadrature(model, center, finest_scale, budget=2_000_000, *,
                     angular):
    """Concentration-aware quadrature rule centered at ``center``.

    The rule combines a geodesic-polar patch around the center with radial
    nodes graded geometrically (ratio 2 per annulus) from ``finest_scale/10``
    out to the default cutoff radius r0 (``model.cutoff_radius``), and
    coarser Gauss panels over the rest of the model.  On compact models the
    panels inside the cutoff's transition band [r0/2, r0] are subdivided.
    A rule of more than ``budget`` nodes raises CapacityError, naming its size.

    ``angular`` declares the angular resolution; it has no default.  On
    flat balls and round spheres it is "minimal", "axial", "radial" or
    n - 1 polar orders for the directions S^(n-1); on S^p x S^q "radial",
    "biradial" or a dict of the factor spheres' orders ``orders_a`` (p - 1
    of them) and ``orders_b`` (q - 1) and optionally ``n_psi``.  Anything
    else raises GeometryError.  "biradial" gives each factor sphere the
    orders of "minimal", [2, ..., 2, 4], and the split angle between the
    factors takes 12 Gauss nodes on each of its two panels, unless a dict
    gives ``n_psi``: measured on the scheduled bubbles of the reduced
    limit, the ratio and the residual norm stay within 1e-14 relative of
    24 split angles and the weights sum to the volume within 5e-14, while
    8 miss it by 4.7e-9.  "axial" puts 20 Gauss nodes on the polar angle
    from the rule's axis and one on every other angle, so it resolves
    only integrands invariant under rotations about that axis.

    "radial", orders all 1, keeps one angular node per sphere of directions
    (per factor sphere on products), so it is exact only for an integrand
    that depends on the distance to ``center`` alone, or on products on the
    two factor distances alone: one bubble at ``center`` under a constant
    potential or a one-bump potential peaked there.  The caller declares
    that symmetry; nothing checks the integrand.

    On a flat ball ``center`` must be the origin, or GeometryError is
    raised: about another centre each ray leaves the ball at its own
    radius, which a polar grid about the frame's first axis does not
    resolve, so not even constants would integrate.
    """
    center = model.validate_point(np.asarray(center, dtype=float))
    if not model.is_compact and np.any(center):
        raise GeometryError("a rule on a flat ball must be centred at the "
                            "origin, the ball's only centre of symmetry")
    nodes, weights = _polar_rule(model, center, finest_scale, budget,
                                 *_angular_orders(model, angular,
                                                  _N_PSI_ONE_CENTRE))
    return QuadratureRule(nodes=nodes, weights=weights,
                          finest_scale=finest_scale)


def _polar_rule(model, center, finest_scale, budget, orders, n_psi,
                axis=None, extent=math.inf):
    """Nodes and weights of a geodesic-polar rule about ``center``.

    Every model is a join of spheres of directions: one on a ball or a
    round sphere, two on S^p x S^q, where the point at distance r and split
    angle psi lies r cos(psi) and r sin(psi) out along the two factors.
    The join angles come from ``orders`` and ``n_psi`` as
    :func:`_angular_orders` resolves them: the split angles are ``n_psi``
    Gauss nodes on each of two panels, and the other models have none.
    The outer radius is pi / max(cos psi, sin psi) on sphere factors and
    each ray's exit radius on the ball, cut at ``extent``; one walk of the
    panel edges gives the radial grid of every outer radius of every join
    angle (:func:`_radial_panels`).  ``axis``, a tangent vector at
    ``center``, turns each factor's polar axis toward its projection on
    that factor; with None it is the first vector of the factor's frame.

    Each join angle is one entry, filled in one pass.  Its rows are the
    pairs of a radius and a direction of the first factor that leaves at
    that radius's outer radius (:func:`_ray_pairs`), radius-major: the
    first factor's points are gathered, one per pair, and the other
    factors' are broadcast over them.  A point is c + t a on the ball and
    cos(t) c + sin(t) a on a sphere factor, and its weight
    (wr r^(n-1) prod sinc(t)^(k-1) w_psi) w_dirs.
    A rule of more than one integration block is filled on the block
    workers, one join angle at a time, so a ball or sphere rule takes one
    worker; a smaller rule, or one built on a block worker, is filled
    inline.
    """
    if not (0.0 < finest_scale <= 1.0):
        raise GeometryError("finest_scale must lie in (0, 1]")
    factors = model._factors
    if len(factors) == 2:
        # two panels of split angles, meeting at the kink of the outer
        # radius at pi/4
        psi, wpsi = np.concatenate(
            [gauss_segment(lo, hi, n_psi) for lo, hi
             in ((0.0, math.pi / 4.0), (math.pi / 4.0, math.pi / 2.0))],
            axis=1)
        joins = [((c, s), wp * c ** (model.p - 1) * s ** (model.q - 1))
                 for ps, wp in zip(psi, wpsi)
                 for c, s in [(math.cos(ps), math.sin(ps))]]
    else:
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

    # graded out to the default cutoff radius; flat balls carry no cutoff,
    # so only compact models refine its transition band [r0/2, r0]
    r0 = model.cutoff_radius
    transition = (r0 / 2.0, r0) if model.is_compact else None
    if not model.is_compact:
        cdotw = dirs[0] @ center
        exit_radius = -cdotw + np.sqrt(cdotw**2 + model.radius**2
                                       - center @ center)
    # one entry per join angle.  The directions of a sphere factor share
    # one outer radius, those of the ball are grouped by exit radius, and
    # one walk of the panel edges gives the radial grids of every join
    r_outs = [np.minimum(np.full(len(dirs[0]), math.pi / max(scales))
                         if model.is_compact else exit_radius, extent)
              for scales, _ in joins]
    radii = np.unique(np.concatenate(r_outs)).tolist()
    grids = dict(zip(radii, _radial_panels(finest_scale, min(r0, extent),
                                           radii, transition)))
    plan = []
    for (scales, wj), r_out in zip(joins, r_outs):
        # the join's outer radii, ascending, and each direction's
        own, group = np.unique(r_out, return_inverse=True)
        panels = [grids[v] for v in own]
        plan.append((scales, wj, group,
                     *map(np.concatenate, zip(*itertools.chain(*panels))),
                     [sum(len(x) for x, _ in p) for p in panels]))
    sizes = [int(np.bincount(group) @ lengths)
             for _, _, group, _, _, lengths in plan]
    shape = tuple(len(d) for d in dirs[1:])
    per_dir = math.prod(shape)
    count = sum(sizes) * per_dir
    if count > budget:
        raise CapacityError(
            f"budget {budget} too small for finest_scale={finest_scale:g}; "
            f"the requested rule needs {count} nodes")

    # coordinate-major, as QuadratureRule stores it: each entry's slice of
    # rows reshapes to its (pair, other factors' directions...) grid as a
    # view
    nodes = np.empty((count, model.ambient_dim), order="F")
    weights = np.empty(count)
    wd = functools.reduce(np.multiply.outer, wdirs[1:], wdirs[0])
    wd = wd.reshape(len(wd), per_dir)

    def fill(entry):
        # the entries write disjoint slices, so they may run in any order
        at, (scales, wj, group, r, wr, lengths) = entry
        per_radius, cols = _ray_pairs(group, lengths)
        size = len(cols) * per_dir
        block = nodes[at:at + size].reshape(len(cols), *shape,
                                            model.ambient_dim)
        dens = wr * r ** (model.n - 1)
        for i, (s, base, a, (sl, k, sphere)) in enumerate(
                zip(scales, bases, dirs, factors)):
            t = r * s
            if sphere:
                dens = dens * np.sinc(t / np.pi) ** (k - 1)
            if i == 0:
                # the first factor's points, one per pair, coordinate-major:
                # each radius's coefficients spread over its pairs
                x = _ray_points(base[:, None], a.T.take(cols, axis=1), t,
                                sphere, lambda c: np.repeat(c, per_radius))
                block[..., sl] = np.expand_dims(x.T,
                                                tuple(range(1, len(dirs))))
                continue
            # the other factors' points are broadcast over each radius's
            # pairs: only the ball's directions leave at different radii,
            # and the ball is its model's only factor, so each radius of a
            # product takes every direction of the first factor
            x = _ray_points(base, a, t, sphere, lambda c: c[:, None, None])
            others = [j + 1 for j in range(len(dirs)) if j != i]
            block.reshape(len(r), len(dirs[0]), *shape, model.ambient_dim)[
                ..., sl] = np.expand_dims(x, others)
        np.multiply(np.repeat(dens * wj, per_radius * per_dir),
                    wd.take(cols, axis=0).reshape(-1),
                    out=weights[at:at + size])

    starts = itertools.accumulate([0] + sizes[:-1])
    _map_blocks(fill, [(at * per_dir, p) for at, p in zip(starts, plan)],
                count > _BLOCK // _worker_count())
    return nodes, weights


def build_multicenter_quadrature(model, centers, finest_scale,
                                 budget=4_000_000, *, angular=None,
                                 patch_angular=None):
    """Composite rule resolving concentration at several centers at once.

    A smooth partition of unity splits the integral into one piece per centre,
    each a polar rule about its centre graded down to ``finest_scale`` and
    turned toward the next centre.  Each other centre has a localizer, 1
    within r/2 and 0 beyond r = min(dmin/2, r0), r0 the default cutoff radius,
    and a rule for that ball.  The first centre's piece is a rule for the
    whole model, weighted by 1 minus the other localizers, whose supports are
    disjoint: no weight is negative, and only its nodes where another
    localizer is 1 (weight 0) are dropped.  ``angular`` declares the first
    centre's piece and ``patch_angular`` the others, as in
    :func:`build_quadrature`; None declares "axial", which products lack.
    On products each piece takes 24 split angles per panel unless a dict
    gives ``n_psi``: the first piece holds the other centres' bubbles and
    localizers off its own centre, and on the scheduled k = 2 layout 16
    split angles move the reduced-limit ratio by 2.4e-8 relative and 12 by
    4.6e-7, where 48 moves it by 6.1e-10.  The budget is split evenly over
    the pieces.

    It needs at least two distinct centres; one centre is the job of
    :func:`build_quadrature`.  No piece is radial about its centre, so
    orders all 1 raise GeometryError, by name or not.  On a flat ball the
    centres must lie on one line through the origin, the polar axis about
    which every piece's exit radii are symmetric, or GeometryError is
    raised.  So the partition of unity is axisymmetric there, as it is for
    two centres on a sphere; with other than two centres on a sphere,
    axial orders (the first above 1, every other 1) raise GeometryError.
    The caller declares the integrand's symmetry.
    """
    centers = [model.validate_point(np.asarray(c, dtype=float)) for c in centers]
    if len(centers) < 2:
        raise GeometryError(
            "a multicentre rule needs at least two centres; use "
            "build_quadrature for one")
    first, patch = [_angular_orders(model, "axial" if a is None else a,
                                    _N_PSI_MULTICENTRE)
                    for a in (angular, patch_angular)]
    for orders, _ in (first, patch):
        if max(map(max, orders)) == 1:
            raise GeometryError("multicentre rules take no radial orders")
        if model.kind == "round_sphere" and len(centers) != 2 \
                and orders[0][0] > 1 and max(orders[0][1:]) == 1:
            raise GeometryError("axial orders need an axisymmetric layout; "
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
    r_i = min(dmin / 2.0, model.cutoff_radius)

    sub_budget = budget // len(centers)
    # unchecked: on a ball the chord, on a sphere zero only at the
    # antipode, about which two bubbles are radial
    axes = [model._log_and_distance(c, centers[(i + 1) % len(centers)])[0]
            for i, c in enumerate(centers)]
    # the first piece: 1 - rho >= 0, as the localizers' supports are disjoint
    nodes, weights = _polar_rule(model, centers[0], finest_scale, sub_budget,
                                 *first, axis=axes[0])
    rho = sum(plateau_jet(model.distance(nodes, c), r_i)[0]
              for c in centers[1:])
    pieces = [(nodes, weights * (1.0 - rho))]
    for c, axis in zip(centers[1:], axes[1:]):
        # a rule for the ball of radius r_i about c, weighted by the localizer
        nodes, weights = _polar_rule(model, c, finest_scale, sub_budget,
                                     *patch, axis=axis, extent=r_i)
        pieces.append((nodes, weights
                       * plateau_jet(model.distance(nodes, c), r_i)[0]))

    # each piece's nodes of positive weight, gathered straight into one
    # coordinate-major array; a piece that keeps them all, as every patch
    # of a two-bubble rule does, is copied whole
    keep = [np.flatnonzero(w > 0.0) for _, w in pieces]
    nodes = np.empty((sum(map(len, keep)), model.ambient_dim), order="F")
    at = 0
    for (x, _), k in zip(pieces, keep):
        if len(k) == len(x):
            nodes[at:at + len(k)] = x
        else:
            _take_rows(x, k, out=nodes[at:at + len(k)])
        at += len(k)
    return QuadratureRule(
        nodes=nodes,
        weights=np.concatenate([w[k] for (_, w), k in zip(pieces, keep)]),
        finest_scale=finest_scale)
