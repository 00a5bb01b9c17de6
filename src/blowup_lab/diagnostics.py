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

__all__ = [
    "SlopeFit",
    "order_fit",
    "flat_profile",
    "rescale_peak",
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
    log_correction: float = 0.0

    @property
    def prefactor(self):
        return math.exp(self.intercept)


def order_fit(xs, ys, log_correction=0.0):
    """Fit the decay order of |ys| against xs on a log-log scale.

    With ``log_correction`` = b, fits |y| / (ln 1/x)^b ~ C x^s instead; this
    separates a pure power from a power carrying a logarithm.  Requires at
    least 4 samples spanning at least one decade in x, all with x in (0, 1)
    and y nonzero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be equal-length 1-d arrays")
    if len(xs) < 4:
        raise ValueError("need at least 4 samples for an order fit")
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
                    residual_rms=float(np.sqrt(np.mean(resid**2))),
                    log_correction=log_correction)


def flat_profile(n, radii):
    """The extremal profile (n(n-2))^((n-2)/4) (1+|x|^2)^(-(n-2)/2) at |x|."""
    radii = np.asarray(radii, dtype=float)
    m = (n - 2.0) / 2.0
    return (n * (n - 2.0)) ** (m / 2.0) / (1.0 + radii**2) ** m


def rescale_peak(model, u, center, scale, radii=None):
    """Blow-up profile of u around a center at a given scale.

    Samples u along four fixed geodesic rays through the center (the first
    four of the tangent frame and its negative) at distances scale * radii
    and returns (radii, scale^((n-2)/2) * mean value over the rays).  On
    the standard profile this converges to ``flat_profile`` as scale -> 0.
    """
    n = model.n
    if radii is None:
        radii = np.geomspace(1e-2, 1e2, 33)
    radii = np.asarray(radii, dtype=float)
    frame = model.tangent_frame(center)
    d = np.minimum(scale * radii, 0.999 * model.injectivity_radius)
    vals = [u(model.exp(center, d[:, None] * v))
            for v in np.vstack([frame, -frame])[:4]]
    prof = scale ** ((n - 2.0) / 2.0) * np.mean(vals, axis=0)
    return radii, prof


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


def _fit_peak(model, f, c, s, cap):
    """Fit a standard bubble to f around the point c by inverting its profile.

    A bubble of scale delta centred at z* in normal coordinates z at c has
    f^(-2/(n-2)) = (delta^2 + |z - z*|^2) / (sqrt(n(n-2)) delta), exactly
    on flat space.  One field call samples f at c and at +-s on each
    tangent axis (2n + 1 points); the least-squares fit of a|z|^2 + b.z + g
    to those samples decouples into g = sample at c, b_i = the central
    difference on axis i and a = the mean second difference.  Then
    z* = -b/2a and delta = 1/(sqrt(n(n-2)) a).  The point moves to
    exp_c(z*) and the fit repeats with s = delta, which removes the
    curvature error, until |z*| < 1e-10 s or after _FITS fits.

    Returns (point, delta, height), the height being f at the last
    stencil's centre, or None when the samples are not bubble-shaped:
    a nonpositive sample, or a fitted delta or |z*| of at least ``cap``.
    """
    n = model.n
    kappa = math.sqrt(n * (n - 2.0))
    axes = np.vstack([np.zeros(n), np.eye(n), -np.eye(n)])
    for _ in range(_FITS):
        frame = model.tangent_frame(c)
        vals = np.asarray(f(model.exp(c, (s * axes) @ frame)), dtype=float)
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
        c = model.exp(c, z @ frame)
        if np.linalg.norm(z) < 1e-10 * s:
            break
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
    a peak takes about three; with one grid call per candidate and one at
    the end, criterion 11's fields with k = 1, 2, 3 peaks cost 6-7, 10 and
    14 field calls.
    """
    n = model.n
    cap = 0.9 * min(model.injectivity_radius, math.pi) / 6.0
    search_grid = np.atleast_2d(np.asarray(search_grid, dtype=float))
    if search_grid.ndim != 2 or search_grid.shape[1] != n:
        raise ValueError(f"search_grid must have shape (N, {n}), "
                         f"got {search_grid.shape}")
    grid = model.exp(xi0, search_grid @ model.tangent_frame(xi0))
    kappa = math.sqrt(n * (n - 2.0))
    m = (n - 2.0) / 2.0
    centers, scales, heights = [], [], []

    def remaining(pts):
        vals = np.asarray(u(pts), dtype=float)
        for c, s in zip(centers, scales):
            d = model.distance(pts, c)
            vals = vals - (kappa * s / (s**2 + d**2)) ** m
        return vals

    for _ in range(k_max + 1):
        vals = remaining(grid)
        j = int(np.argmax(vals))
        v = float(vals[j])
        peak = None
        if v > 0.0:
            peak = _fit_peak(model, remaining, grid[j],
                             min(kappa * v ** (-1.0 / m), cap), cap)
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
    v = float(np.max(remaining(grid)))
    return PeakReport(tuple(centers), tuple(scales), tuple(heights),
                      max(v, 0.0))


@dataclass(frozen=True)
class IsolationReport:
    """Pairwise separation metrics for a family of concentration peaks."""

    separations: np.ndarray        # (k, k) geodesic distances
    sep_over_scale: np.ndarray     # (k, k) d_ij / max(delta_i, delta_j)
    dist_to_reference: np.ndarray  # (k,) distances to the reference point
    min_separation: float
    min_sep_over_scale: float


def isolation_ratios(model, centers, scales, xi0):
    """Separation diagnostics; reports ratios, draws no verdict."""
    centers = [np.asarray(c, dtype=float) for c in centers]
    scales = np.asarray(scales, dtype=float)
    k = len(centers)
    sep = np.zeros((k, k))
    ratio = np.full((k, k), np.inf)
    for i in range(k):
        for j in range(i + 1, k):
            d = model.distance(centers[i], centers[j])
            sep[i, j] = sep[j, i] = d
            ratio[i, j] = ratio[j, i] = d / max(scales[i], scales[j])
    dref = np.array([model.distance(c, xi0) for c in centers])
    off = sep[~np.eye(k, dtype=bool)] if k > 1 else np.array([np.inf])
    offr = ratio[~np.eye(k, dtype=bool)] if k > 1 else np.array([np.inf])
    return IsolationReport(separations=sep, sep_over_scale=ratio,
                           dist_to_reference=dref,
                           min_separation=float(np.min(off)),
                           min_sep_over_scale=float(np.min(offr)))

