"""Variational quantities evaluated by quadrature.

The central object is the energy

    J_h(u) = 1/2 int (|grad u|^2 + h u^2) - (1/(2*)) int u_+^(2*),

with 2* = 2n/(n-2), together with the strong-form residual of the critical
equation in the L^(2n/(n+2)) norm, pairwise bubble interaction scales, and
the multi-bubble energy splitting.  All integrals are straightforward
weighted sums over a :class:`~blowup_lab.geometry.QuadratureRule`; integrands
are evaluated analytically (radial derivatives of the profile and cutoff),
never by discrete differentiation.  Integrands are sampled on the rule's
nodes in fixed blocks, so their per-node temporaries stay cache-sized on
rules of millions of nodes, and each weighted sum is then reduced once over
the full node array.  J is affine in h, so an h-difference is
integrated in closed form, J_h(u) - J_h0(u) = 1/2 int (h - h0) u^2, rather
than as the difference of two energies that agree in most of their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import BubbleField, multi_bubble_field
from .geometry import CapacityError

__all__ = [
    "PotentialField",
    "EnergyBreakdown",
    "critical_exponent",
    "energy",
    "residual_field",
    "residual_norm",
    "interaction_term",
    "energy_split",
    "single_bubble_energy_constant",
]


def critical_exponent(n):
    """The critical Sobolev exponent 2n/(n-2)."""
    return 2.0 * n / (n - 2.0)


def conformal_coupling(n):
    """The dimensional constant (n-2)/(4(n-1)) coupling scalar curvature."""
    return (n - 2.0) / (4.0 * (n - 1.0))


@dataclass(frozen=True)
class PotentialField:
    """Potential h = base + perturbation, evaluable on point batches.

    ``base`` is a float, the constant part; the optional perturbation is a
    callable on point batches.
    """

    model: object
    base: float
    perturbation: object = None

    @classmethod
    def conformal_scalar(cls, model):
        """The geometric potential c_n R_g (constant on the supported models)."""
        return cls(model=model,
                   base=conformal_coupling(model.n) * model.scalar_curvature())

    @classmethod
    def constant(cls, model, value):
        return cls(model=model, base=float(value))

    def shifted(self, sigma):
        """Same potential with a constant added."""
        return PotentialField(model=self.model, base=self.base + sigma,
                              perturbation=self.perturbation)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        vals = np.full(pts.shape[:-1], float(self.base))
        if self.perturbation is not None:
            vals = vals + self.perturbation(pts)
        return vals


def _density(vals, grads, hv, twostar):
    """Energy density of J_h and the u_+^(2*) term inside it.

    u_+ keeps negative values finite: a negative base raised to a
    non-integer 2* is NaN.
    """
    power = np.maximum(vals, 0.0) ** twostar
    quadratic = np.sum(grads * grads, axis=-1) + hv * vals**2
    return 0.5 * quadratic - power / twostar, power


# nodes per block of _sample: a block's (nodes, 8) float temporaries take
# 2 MiB, so a few of them stay in cache
_BLOCK = 32_768


def _sample(integrand, nodes):
    """``integrand`` on ``nodes``, evaluated in consecutive blocks of _BLOCK.

    The integrand maps a block of points to values along its last axis;
    the blocks' values are concatenated there.  A weighted sum over the
    result is one reduction over the full node array, summed in the same
    order as if the integrand had been evaluated on all nodes at once.
    """
    return np.concatenate([integrand(nodes[i:i + _BLOCK])
                           for i in range(0, len(nodes), _BLOCK)], axis=-1)


def energy(model, h, u, rule):
    """Quadrature value of J_h(u) for a field u sampled by ``jet``."""
    twostar = critical_exponent(model.n)

    def density(pts):
        vals, grads = u.jet(pts, 1)
        return _density(vals, grads, h(pts), twostar)[0]

    return float(np.sum(rule.weights * _sample(density, rule.nodes)))


def _check_resolution(rule, cfg):
    # finest_scale is the smallest bubble scale the rule claims to resolve
    dmin = min(b.delta for b in cfg.bubbles)
    if rule.finest_scale > dmin * (1 + 1e-12):
        raise CapacityError(
            f"rule finest_scale {rule.finest_scale:g} does not resolve the "
            f"smallest bubble scale {dmin:g}")


def residual_field(model, h, cfg, cutoff):
    """Pointwise strong-form residual of the bubble-sum ansatz.

    Returns a callable evaluating (Delta_g + h)(sum W) - (sum W)^(2*-1)
    with the geometer's Laplacian Delta_g = -div grad.
    """
    total = multi_bubble_field(model, cfg, cutoff)
    twostar = critical_exponent(model.n)

    def res(pts):
        pts = np.asarray(pts, dtype=float)
        vals, lap = total.jet(pts, 2)
        return lap + h(pts) * vals - np.maximum(vals, 0.0) ** (twostar - 1.0)

    return res


def residual_norm(model, h, cfg, cutoff, rule):
    """L^(2n/(n+2)) norm of the strong-form residual."""
    _check_resolution(rule, cfg)
    res = residual_field(model, h, cfg, cutoff)
    return lebesgue_norm(model, rule, _sample(res, rule.nodes))


def lebesgue_norm(model, rule, values):
    """L^p quadrature norm of a value array with p = 2n/(n+2)."""
    p = 2.0 * model.n / (model.n + 2.0)
    return float(np.sum(rule.weights * np.abs(values) ** p)) ** (1.0 / p)


def interaction_term(model, b_i, b_j):
    """Closed-form pairwise interaction scale (delta_i delta_j / d^2)^((n-2)/2)."""
    d = float(model.distance(b_i.center, b_j.center))
    if d <= 0.0:
        raise ValueError("interaction term undefined for coincident centers")
    return (b_i.delta * b_j.delta / d**2) ** ((model.n - 2.0) / 2.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Multi-bubble energy splitting, each piece by separate quadrature.

    ``total`` is J_h of the full sum; ``cross_dirichlet_plus_potential``
    collects the pairwise Dirichlet + potential couplings; the nonlinear
    excess is int((sum W)^(2*) - sum W^(2*)).  ``deviation`` is
    |total - sum of single-bubble energies|, evaluated as
    |cross - excess/2*| so that no digits cancel, and
    ``interaction_prediction`` the closed-form scale it should follow.
    ``identity_gap`` measures how far the direct difference
    total - sum(per_bubble) is from that form.
    """

    total: float
    per_bubble: tuple
    cross_dirichlet_plus_potential: float
    nonlinear_excess: float
    deviation: float
    interaction_prediction: float

    def identity_gap(self, n):
        twostar = critical_exponent(n)
        return abs(self.total - (sum(self.per_bubble)
                                 + self.cross_dirichlet_plus_potential
                                 - self.nonlinear_excess / twostar))


def _power_excess(vals, powers, twostar):
    """Pointwise (sum v_i)^(2*) - sum v_i^(2*) of nonnegative bubble values.

    Written as P_max expm1(2* log1p(s)) - sum_{i != max} P_i with
    s = sum_{i != max} v_i / v_max and P_i = v_i^(2*), so no term cancels
    where one bubble dominates; the excess is 0 where v_max = 0.  The sums
    over the other bubbles are accumulated directly, never formed by
    subtracting the largest term from a full sum.
    """
    v_max, p_max = vals[0], powers[0]
    rest = p_rest = 0.0
    for v, p in zip(vals[1:], powers[1:]):
        larger = v > v_max
        rest = rest + np.where(larger, v_max, v)
        p_rest = p_rest + np.where(larger, p_max, p)
        v_max = np.where(larger, v, v_max)
        p_max = np.where(larger, p, p_max)
    s = np.divide(rest, v_max, out=np.zeros_like(v_max), where=v_max > 0.0)
    return p_max * np.expm1(twostar * np.log1p(s)) - p_rest


def energy_split(model, h, cfg, cutoff, rule):
    """Evaluate the multi-bubble energy splitting on one shared rule."""
    _check_resolution(rule, cfg)
    fields = [BubbleField(model, b, cutoff) for b in cfg.bubbles]
    k = len(fields)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    twostar = critical_exponent(model.n)

    def pieces(pts):
        # rows: k per-bubble densities, one coupling per pair, the total
        # density and the nonlinear excess
        hv = h(pts)
        vals, grads = zip(*(f.jet(pts, 1) for f in fields))
        dens, powers = zip(*(_density(v, g, hv, twostar)
                             for v, g in zip(vals, grads)))
        # the 1/2 in the energy cancels the (i, j)/(j, i) symmetry factor
        couplings = [np.sum(grads[i] * grads[j], axis=-1)
                     + hv * vals[i] * vals[j] for i, j in pairs]
        total_dens, _ = _density(sum(vals), sum(grads), hv, twostar)
        return np.stack([*dens, *couplings, total_dens,
                         _power_excess(vals, powers, twostar)])

    sums = [float(np.sum(rule.weights * row))
            for row in _sample(pieces, rule.nodes)]
    per_bubble = sums[:k]
    cross = 0.0
    for c in sums[k:-2]:
        cross += c
    total, excess = sums[-2:]

    prediction = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                prediction += interaction_term(model, cfg.bubbles[i],
                                               cfg.bubbles[j])

    return EnergyBreakdown(
        total=total,
        per_bubble=tuple(per_bubble),
        cross_dirichlet_plus_potential=cross,
        nonlinear_excess=excess,
        deviation=abs(cross - excess / twostar),
        interaction_prediction=prediction,
    )


def single_bubble_energy_constant(n):
    """Closed-form single-bubble energy E_1 = K_n^(-n)/n on flat space.

    Equals (1/2 - 1/2*) of the critical integral of the standard profile;
    the value below is the Beta-function evaluation of that radial integral.
    """
    from .geometry import sphere_volume
    s = (n * (n - 2.0)) ** (n / 2.0)
    beta = math.gamma(n / 2.0) ** 2 / math.gamma(float(n))
    return s * sphere_volume(n - 1) * beta / (2.0 * n)
