"""A-posteriori diagnostics: slope fits, peak extraction, isolation metrics.

These routines look only at sampled field values, never at the parameters
used to build them, so they double as independent checks on the
construction: extracted peak scales and positions can be compared against
the schedule that generated the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import _profile

__all__ = [
    "SlopeFit",
    "order_fit",
    "PeakReport",
    "extract_peaks",
    "IsolationReport",
    "isolation_ratios",
]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power-law fit y ~ C x^slope (after optional log factor)."""

    slope: float
    intercept: float
    residual_rms: float

    @property
    def prefactor(self):
        return math.exp(self.intercept)


def order_fit(xs, ys, log_correction=0.0):
    """Fit the decay order of |ys| against xs on a log-log scale.

    With ``log_correction`` = b, fits |y| / (ln 1/x)^b ~ C x^s instead; this
    separates a pure power from a power carrying a logarithm.  Requires at
    least 4 finite samples spanning at least one decade in x, all with x
    in (0, 1) and y nonzero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be equal-length 1-d arrays")
    if len(xs) < 4:
        raise ValueError("need at least 4 samples for an order fit")
    # a NaN fails every comparison below, and LAPACK prints to stderr on
    # a NaN or inf, then fails or returns a NaN fit
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("xs and ys must be finite")
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise ValueError("xs must lie in (0, 1)")
    if np.any(ys == 0.0):
        raise ValueError("ys must be nonzero")
    if np.max(xs) / np.min(xs) < 10.0:
        raise ValueError("xs must span at least one decade")
    lx = np.log(xs)
    ly = np.log(np.abs(ys))
    if log_correction != 0.0:
        ly = ly - log_correction * np.log(np.log(1.0 / xs))
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    residual_rms=float(np.sqrt(np.mean(resid**2))))


@dataclass(frozen=True)
class PeakReport:
    """Outcome of peak extraction on a sampled field."""

    centers: tuple          # extracted peak locations (ambient coordinates)
    scales: tuple           # inferred concentration scales
    heights: tuple
    residual_sup: float     # sup of the field after removing all peaks
    failed: bool = False
    message: str = ""

    @property
    def k(self):
        return len(self.scales)


_FITS = 6           # profile fits per candidate at most


def _fit_peak(model, f, c, s, cap, frame):
    """Fit a standard bubble to f around the point c by inverting its profile.

    A bubble of scale delta centred at z* in normal coordinates z at c has
    f^(-2/(n-2)) = (delta^2 + |z - z*|^2) / (sqrt(n(n-2)) delta), exactly
    on flat space.  One field call samples f at c and at +-s on each row
    of ``frame``, an orthonormal tangent frame at c (2n + 1 points); the
    least-squares fit of a|z|^2 + b.z + g to those samples decouples into
    g = sample at c, b_i = the central difference on axis i and a = the
    mean second difference.  Then z* = -b/2a and delta = 1/(sqrt(n(n-2)) a).
    The point moves to exp_c(z*), the frame moves with it by parallel
    transport, and the fit repeats with s = delta, which removes the
    curvature error, until |z*| < 1e-10 s or after _FITS fits.

    Returns (point, delta, height), the height being f at the last
    stencil's centre, or None when the samples are not bubble-shaped:
    a nonpositive sample, or a fitted delta or |z*| of at least ``cap``.
    """
    n = model.n
    kappa = math.sqrt(n * (n - 2.0))
    for _ in range(_FITS):
        # c, then c +- s along each frame row
        stencil = np.concatenate([np.zeros((1, frame.shape[1])), frame,
                                  -frame])
        vals = np.asarray(f(model.exp(c, s * stencil)), dtype=float)
        if not np.all(vals > 0.0):
            return None
        w = vals ** (-2.0 / (n - 2.0))
        a = (np.mean(w[1:]) - w[0]) / s**2
        b = (w[1:n + 1] - w[n + 1:]) / (2.0 * s)
        # comparisons that a NaN fails, and no division before them
        if not (kappa * a * cap > 1.0 and np.linalg.norm(b) < 2.0 * a * cap):
            return None
        z = -b / (2.0 * a)
        delta = float(1.0 / (kappa * a))
        step = z @ frame
        if np.linalg.norm(z) < 1e-10 * s:
            return model.exp(c, step), delta, float(vals[0])
        c, frame = model.exp(c, step), model._transport(c, step, frame)
        s = delta
    return c, delta, float(vals[0])


_PROMINENCE = 0.05    # stop below this share of the first peak's height


def extract_peaks(model, u, xi0, search_grid, k_max=8):
    """Locate concentration peaks of a nonnegative field.

    Works from ``search_grid`` (tangent coordinates at xi0, shape (N, n),
    required): takes the grid point where the field is largest, fits a
    standard bubble there (``_fit_peak``), which gives the peak's centre
    and scale, subtracts that bubble and repeats.  Stops when the fitted
    height falls below 5% of the first one.  Returns a PeakReport;
    irrecoverable situations (no bubble-shaped maximum, more than
    ``k_max`` peaks) are reported as failures, not raised.

    The grid must resolve the smallest concentration scale: an exhaustive
    grid with spacing below the scale is hopeless in 6 dimensions, so in
    practice the grid comes from where the upstream solver refined its
    mesh.  ``residual_sup`` is the largest remaining value over the grid.

    The first stencil radius is the scale the grid value v implies,
    sqrt(n(n-2)) v^(-2/(n-2)) = (delta^2 + r^2)/delta >= 2r at distance r
    from a bubble's centre, so the stencil spans the centre; it is capped
    at 0.15 min(inj, pi).  Each fit is one field call of 2n + 1 points and
    a peak takes about three; with one grid call in all, criterion 11's
    fields with k = 1, 2, 3 peaks cost 4-5, 7 and 10 field calls.

    One tangent frame is factorised per call, xi0's.  A candidate's
    stencil frame is that frame parallel transported to its grid point
    along the grid point's own tangent vector, and every fit transports
    it on with the centre.
    """
    n = model.n
    cap = 0.9 * min(model.injectivity_radius, math.pi) / 6.0
    search_grid = np.atleast_2d(np.asarray(search_grid, dtype=float))
    if search_grid.ndim != 2 or search_grid.shape[1] != n:
        raise ValueError(f"search_grid must have shape (N, {n}), "
                         f"got {search_grid.shape}")
    # an empty grid has no maximum, and a NaN row would read as a field
    # with no peak rather than as bad input
    if not len(search_grid):
        raise ValueError("search_grid has no rows")
    if not np.all(np.isfinite(search_grid)):
        raise ValueError("search_grid must be finite")
    frame = model.tangent_frame(xi0)
    tangents = search_grid @ frame
    grid = model.exp(xi0, tangents)
    kappa = math.sqrt(n * (n - 2.0))
    m = (n - 2.0) / 2.0
    centers, scales, heights = [], [], []

    def bubble(pts, c, s):
        return _profile(n, s, model.distance(pts, c))[0]

    def remaining(pts):
        vals = np.asarray(u(pts), dtype=float)
        for c, s in zip(centers, scales):
            vals = vals - bubble(pts, c, s)
        return vals

    # the grid is sampled once; each accepted bubble is subtracted from it
    # once, in the order remaining() subtracts them
    vals = remaining(grid)
    for _ in range(k_max + 1):
        j = int(np.argmax(vals))
        v = float(vals[j])
        peak = None
        if v > 0.0:
            peak = _fit_peak(model, remaining, grid[j],
                             min(kappa * v ** (-1.0 / m), cap), cap,
                             model._transport(xi0, tangents[j], frame))
        if peak is None:
            if not centers:
                return PeakReport((), (), (), v, failed=True,
                                  message="no bubble-shaped maximum found")
            break
        c, scale, height = peak
        if heights and height < _PROMINENCE * heights[0]:
            break
        if len(centers) == k_max:
            return PeakReport(tuple(centers), tuple(scales), tuple(heights),
                              height, failed=True,
                              message="peak count exceeds k_max")
        centers.append(c)
        scales.append(scale)
        heights.append(height)
        vals = vals - bubble(grid, c, scale)
    # the loop ends by return or break, and v is the grid maximum taken
    # with every accepted peak removed
    return PeakReport(tuple(centers), tuple(scales), tuple(heights),
                      max(v, 0.0))


@dataclass(frozen=True)
class IsolationReport:
    """Separation metrics for a family of concentration peaks."""

    dist_to_reference: np.ndarray  # (k,) distances to the reference point
    min_separation: float          # smallest pairwise geodesic distance
    min_sep_over_scale: float      # smallest d_ij / max(delta_i, delta_j)


def isolation_ratios(model, centers, scales, xi0):
    """Separation diagnostics; reports ratios, draws no verdict.

    With fewer than two peaks both minima are infinite.
    """
    centers = [np.asarray(c, dtype=float) for c in centers]
    min_sep = min_ratio = math.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d = float(model.distance(centers[i], centers[j]))
            min_sep = min(min_sep, d)
            min_ratio = min(min_ratio, d / max(scales[i], scales[j]))
    dref = np.array([model.distance(c, xi0) for c in centers])
    return IsolationReport(dist_to_reference=dref, min_separation=min_sep,
                           min_sep_over_scale=float(min_ratio))
