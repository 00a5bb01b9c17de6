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
    "weighted_peak_bound",
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


def rescale_peak(model, u, center, scale, radii=None, directions=4):
    """Blow-up profile of u around a center at a given scale.

    Samples u along ``directions`` fixed geodesic rays through the center at
    distances scale * radii and returns (radii, scale^((n-2)/2) * mean value
    over directions).  On the standard profile this converges to
    ``flat_profile`` as scale -> 0.
    """
    n = model.n
    if radii is None:
        radii = np.geomspace(1e-2, 1e2, 33)
    radii = np.asarray(radii, dtype=float)
    frame = model.tangent_frame(center)
    vals = np.zeros((directions, len(radii)))
    for j in range(directions):
        v = frame[j % n]
        if j >= n:
            v = -frame[j - n]
        d = np.minimum(scale * radii, 0.999 * model.injectivity_radius)
        pts = model.exp(center, d[:, None] * v)
        vals[j] = u(pts)
    prof = scale ** ((n - 2.0) / 2.0) * vals.mean(axis=0)
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


_POLISH_POINTS = 17   # samples per coordinate bracket; each zoom shrinks it 8x
_POLISH_LEVELS = 11   # zooms per round: bracket half-width step * 8^-11
_POLISH_ROUNDS = 8    # Jacobi rounds, step shrinking 10x per round


def _bracket_polish(f, x, step):
    """Batched coordinate-bracket refinement of a local maximum.

    Each round gives every coordinate i the bracket x[i] +- step.  Each
    zoom level evaluates f once on an (n*m, n) batch: for every coordinate,
    m copies of x with that coordinate swept over m equispaced points of
    its bracket.  Each bracket then shrinks to +-1 cell around its own
    argmax, which keeps the 1-d maximum inside it when the slice is
    unimodal.  After the last level all coordinates move to their bracket
    midpoints at once (a Jacobi update) and step shrinks 10x.  The cost is
    a fixed rounds * levels = 88 calls of about 100 points each.
    """
    x = np.asarray(x, dtype=float)
    n, m = len(x), _POLISH_POINTS
    rows = np.arange(n)
    sweep = np.linspace(-1.0, 1.0, m)
    for _ in range(_POLISH_ROUNDS):
        center = x
        half = np.full(n, float(step))
        for _ in range(_POLISH_LEVELS):
            probe = center[:, None] + half[:, None] * sweep     # (n, m)
            batch = np.broadcast_to(x, (n, m, n)).copy()
            batch[rows, :, rows] = probe
            vals = np.asarray(f(batch.reshape(n * m, n)), dtype=float)
            best = np.argmax(vals.reshape(n, m), axis=1)
            center = probe[rows, best]
            half = half * (2.0 / (m - 1))
        x = center
        step *= 0.1
    return x


_PROMINENCE = 0.05    # stop below this share of the first peak's height


def extract_peaks(model, u, xi0, search_grid, k_max=8):
    """Locate concentration peaks of a nonnegative field.

    Works in tangent coordinates at xi0: takes the best point of
    ``search_grid``, polishes it, infers the scale from the height via the
    extremal profile normalization, subtracts the matching standard peak,
    repeats.  Stops when the remaining sup falls below 5% of the first
    height.  Returns a PeakReport; irrecoverable situations (flat field,
    more than ``k_max`` peaks) are reported as failures, not raised.

    ``search_grid`` (tangent coordinates at xi0, shape (N, n)) supplies the
    candidate locations and is required.  It must be fine enough to resolve
    the smallest concentration scale: an exhaustive grid with spacing below
    the scale is hopeless in 6 dimensions, so in practice the grid comes
    from where the upstream solver refined its mesh.  ``residual_sup`` is
    the largest remaining value over the grid.

    The polish is a batched coordinate-bracket search (``_bracket_polish``)
    whose initial step is the distance to the nearest other grid point,
    capped at 0.15 min(inj, pi).  It makes one field call of about 100
    points per zoom level, 88 calls per candidate, so a case of k peaks
    costs 90 (k + 1) + 1 field calls: the candidate that falls below the
    prominence threshold is polished too.
    """
    n = model.n
    frame = model.tangent_frame(xi0)
    max_step = 0.9 * min(model.injectivity_radius, math.pi) / 6.0
    search_grid = np.atleast_2d(np.asarray(search_grid, dtype=float))
    if search_grid.ndim != 2 or search_grid.shape[1] != n:
        raise ValueError(f"search_grid must have shape (N, {n}), "
                         f"got {search_grid.shape}")

    def to_point(y):
        return model.exp(xi0, y @ frame)

    residual_terms = []

    def remaining(Y):
        pts = model.exp(xi0, np.atleast_2d(Y) @ frame)
        vals = np.asarray(u(pts), dtype=float)
        for c, s in residual_terms:
            d = model.distance(pts, c)
            m = (n - 2.0) / 2.0
            vals = vals - (math.sqrt(n * (n - 2.0)) * s / (s**2 + d**2)) ** m
        return vals

    centers, scales, heights = [], [], []
    first_height = None
    for _ in range(k_max + 1):
        vals = remaining(search_grid)
        j = int(np.argmax(vals))
        y, v = search_grid[j].copy(), float(vals[j])
        gaps = np.linalg.norm(np.delete(search_grid, j, axis=0) - y, axis=-1)
        step = float(np.min(gaps, initial=max_step))
        if first_height is None and (v <= 0.0 or not np.isfinite(v)):
            return PeakReport((), (), (), float(v), failed=True,
                              message="field has no positive maximum")
        # a grid sample can sit well below the true height, so polish
        # before judging prominence
        y = _bracket_polish(remaining, y, step)
        v = float(remaining(y[None])[0])
        if first_height is None:
            if v <= 0.0 or not np.isfinite(v):
                return PeakReport((), (), (), float(v), failed=True,
                                  message="field has no positive maximum")
            first_height = v
        if v < _PROMINENCE * first_height:
            break
        if len(centers) == k_max:
            return PeakReport(tuple(centers), tuple(scales), tuple(heights),
                              float(v), failed=True,
                              message="peak count exceeds k_max")
        m = (n - 2.0) / 2.0
        scale = ((n * (n - 2.0)) ** (m / 2.0) / v) ** (1.0 / m)
        c = to_point(y)
        centers.append(c)
        scales.append(scale)
        heights.append(v)
        residual_terms.append((c, scale))
    v = float(np.max(remaining(search_grid)))
    return PeakReport(tuple(centers), tuple(scales), tuple(heights),
                      float(max(v, 0.0)))


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


def weighted_peak_bound(model, u, center, radii):
    """sup over sampled radii of d^((n-2)/2) * (max of u at distance d).

    Probes along the tangent-frame axes; a finite uniform bound as the
    configuration degenerates indicates bounded weighted blow-up.
    """
    n = model.n
    frame = model.tangent_frame(center)
    best = 0.0
    for r in np.asarray(radii, dtype=float):
        if r >= model.injectivity_radius:
            continue
        pts = np.array([model.exp(center, s * r * v)
                        for v in frame for s in (1.0, -1.0)])
        best = max(best, r ** ((n - 2.0) / 2.0) * float(np.max(u(pts))))
    return best
