"""Single- and multi-bubble ansatz fields with smooth cutoff.

A bubble of scale ``delta`` at ``center`` is the standard extremal profile

    (sqrt(n(n-2)) * delta / (delta^2 + d^2))^((n-2)/2),

transplanted to the model through the geodesic distance d to the center
and multiplied by a smooth cutoff in d.  Every field exposes one sampling
method, ``jet``, that returns the value together with the gradient or the
Laplacian from a single distance evaluation.  The module also enforces
the admissibility cone on collections of bubbles (comparable scales,
mutual separation large against the scales).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _smoothstep

__all__ = [
    "CutoffSpec",
    "BubbleParams",
    "Configuration",
    "BubbleField",
    "SumField",
    "multi_bubble_field",
    "is_admissible",
]


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth radial cutoff: 1 on [0, r0/2], 0 on [r0, inf)."""

    r0: float

    def __post_init__(self):
        if not self.r0 > 0.0:  # NaN fails too; inf is no cutoff
            raise ValueError("cutoff radius must be positive")

    @classmethod
    def for_model(cls, model):
        """The default cutoff, at :attr:`ManifoldModel.cutoff_radius`."""
        return cls(r0=model.cutoff_radius)

    def jet(self, r, order=0):
        """Cutoff value at distances ``r`` and its first ``order`` radial
        derivatives, as a tuple."""
        r = np.asarray(r, dtype=float)
        if not math.isfinite(self.r0):
            return (np.ones_like(r),) + (np.zeros_like(r),) * order
        return _smoothstep.plateau_jet(r, self.r0, order)

    @classmethod
    def none(cls):
        """No cutoff (chi = 1 everywhere); only sensible on flat models."""
        return cls(r0=math.inf)


@dataclass(frozen=True)
class BubbleParams:
    """Scale and center of one bubble."""

    delta: float
    center: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("bubble scale must be positive and finite")
        if np.ndim(self.center) != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("bubble centre must be a finite 1-D point")


@dataclass(frozen=True)
class Configuration:
    """A collection of bubbles together with its admissibility cone.

    alpha bounds scale ratios (1/alpha < delta_i/delta_j < alpha), K bounds
    separations from below (d(xi_i, xi_j)^2 / (delta_i delta_j) > K), and
    delta_bar is the ceiling on individual scales.
    """

    bubbles: tuple
    alpha: float = 2.0
    K: float = 100.0
    delta_bar: float = 1.0

    def __post_init__(self):
        if len(self.bubbles) < 1:
            raise ValueError("need at least one bubble")
        if not self.alpha > 1:  # so that a NaN fails too
            raise ValueError("alpha must exceed 1")
        if not (self.K > 0 and self.delta_bar > 0):
            raise ValueError("K and delta_bar must be positive")
        object.__setattr__(self, "bubbles", tuple(self.bubbles))

    @property
    def k(self):
        return len(self.bubbles)


def _profile(n, delta, d, order=0):
    """Flat extremal profile at distance d and its first ``order`` radial
    derivatives, as a tuple."""
    m = (n - 2) / 2.0
    den = delta**2 + d**2
    B = (math.sqrt(n * (n - 2)) * delta / den) ** m
    if order == 0:
        return (B,)
    B1 = B * (-2.0 * m * d / den)
    if order == 1:
        return B, B1
    return B, B1, B * (4.0 * m * (m + 1) * d**2 / den**2 - 2.0 * m / den)


class BubbleField:
    """One cutoff bubble, with analytic gradient and radial Laplacian."""

    def __init__(self, model, params, cutoff):
        if math.isfinite(cutoff.r0) and cutoff.r0 >= model.injectivity_radius:
            raise ValueError("cutoff radius must stay below the injectivity radius")
        self.model = model
        self.params = params
        self.cutoff = cutoff

    def jet(self, pts, order=0):
        """(value, derivative) at ``pts`` from one distance evaluation.

        The derivative is None for order 0, the ambient gradient for order 1
        and the geometer's Laplacian -div grad for order 2; the Laplacian
        needs only radial derivatives, never the distance gradient.  The
        distance and its gradient or Laplacian coefficient come from one
        projection per sphere factor.
        """
        d, metric = self.model._distance_jet(self.params.center, pts, order)
        chi, *dchi = self.cutoff.jet(d, order)
        B, *dB = _profile(self.model.n, self.params.delta, d, order)
        w = chi * B
        if order == 0:
            return w, None
        w1 = dchi[0] * B + chi * dB[0]
        if order == 1:
            return w, w1[..., None] * metric
        w2 = dchi[1] * B + 2.0 * dchi[0] * dB[0] + chi * dB[1]
        # at the center the slope vanishes like w''(0) d; the limit of the
        # full expression is n * w''(0)
        near = d < 1e-12
        lap = w2 + metric * w1
        if np.any(near):
            lap = np.where(near, self.model.n * w2, lap)
        return w, -lap

    def __call__(self, pts):
        return self.jet(pts)[0]

    # no library code calls grad or laplace_beltrami; perfbench/tracing.py
    # looks both up by name, so they stay until the tracer wraps jet
    def grad(self, pts):
        return self.jet(pts, 1)[1]

    def laplace_beltrami(self, pts):
        return self.jet(pts, 2)[1]


class SumField:
    """Pointwise sum of fields sharing a model."""

    def __init__(self, fields):
        fields = list(fields)
        self.model = fields[0].model
        self.fields = fields

    def jet(self, pts, order=0):
        """Sum of the fields' jets, added in field order."""
        pts = np.asarray(pts, dtype=float)
        value, deriv = self.fields[0].jet(pts, order)
        for f in self.fields[1:]:
            v, g = f.jet(pts, order)
            value = value + v
            if order:
                deriv = deriv + g
        return value, deriv

    def __call__(self, pts):
        return self.jet(pts)[0]

    # no library code calls grad or laplace_beltrami; perfbench/tracing.py
    # looks both up by name, so they stay until the tracer wraps jet
    def grad(self, pts):
        return self.jet(pts, 1)[1]

    def laplace_beltrami(self, pts):
        return self.jet(pts, 2)[1]


def multi_bubble_field(model, cfg, cutoff):
    """The bubble-sum ansatz: one cutoff bubble field per bubble of cfg."""
    return SumField([BubbleField(model, b, cutoff) for b in cfg.bubbles])


def is_admissible(cfg, model):
    """Check the admissibility cone; returns (ok, list of violations).

    Pair separations are geodesic distances on ``model``.
    """
    violations = []
    deltas = [b.delta for b in cfg.bubbles]
    for i, d in enumerate(deltas):
        if not (0.0 < d < cfg.delta_bar):
            violations.append({
                "constraint": "scale_ceiling", "index": i,
                "margin": cfg.delta_bar - d})
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            ratio = deltas[i] / deltas[j]
            if not (1.0 / cfg.alpha < ratio < cfg.alpha):
                violations.append({
                    "constraint": "scale_ratio", "pair": (i, j),
                    "margin": min(ratio - 1.0 / cfg.alpha, cfg.alpha - ratio)})
            dij = float(model.distance(cfg.bubbles[i].center,
                                       cfg.bubbles[j].center))
            sep = dij**2 / (deltas[i] * deltas[j])
            if not (sep > cfg.K):
                violations.append({
                    "constraint": "separation", "pair": (i, j),
                    "margin": sep - cfg.K})
    return (len(violations) == 0), violations
