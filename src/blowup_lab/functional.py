"""Variational quantities evaluated by quadrature.

The central object is the energy

    J_h(u) = 1/2 int (|grad u|^2 + h u^2) - (1/(2*)) int u_+^(2*),

with 2* = 2n/(n-2), together with the strong-form residual of the critical
equation in the L^(2n/(n+2)) norm, pairwise bubble interaction scales, and
the multi-bubble energy splitting.  Every integral is one call of
:meth:`~blowup_lab.geometry.QuadratureRule.integrate`, which samples the
integrand on the rule's nodes in fixed blocks and takes the weighted sum;
integrands are evaluated analytically (radial derivatives of the profile
and cutoff), never by discrete differentiation.  J is affine in h, so an
h-difference is integrated in closed form, J_h(u) - J_h0(u) =
1/2 int (h - h0) u^2, rather than as the difference of two energies that
agree in most of their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import BubbleField, multi_bubble_field
from .geometry import CapacityError, _rowsum

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


def _positive_power(vals, twostar):
    """u_+^(2*): a negative base raised to a non-integer 2* would be NaN."""
    return np.maximum(vals, 0.0) ** twostar


def _density(vals, grads, hv, twostar):
    """Energy density 1/2 (|grad u|^2 + h u^2) - u_+^(2*)/2* of J_h."""
    quadratic = _rowsum(grads * grads) + hv * vals**2
    return 0.5 * quadratic - _positive_power(vals, twostar) / twostar


def energy(model, h, u, rule):
    """Quadrature value of J_h(u) for a field u sampled by ``jet``."""
    twostar = critical_exponent(model.n)

    def density(pts):
        vals, grads = u.jet(pts, 1)
        return _density(vals, grads, h(pts), twostar)

    return float(rule.integrate(density))


def _check_resolution(rule, cfg):
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
    return lebesgue_norm(model, rule, residual_field(model, h, cfg, cutoff))


def lebesgue_norm(model, rule, field):
    """L^p quadrature norm with p = 2n/(n+2) of a callable on point batches."""
    p = 2.0 * model.n / (model.n + 2.0)
    total = rule.integrate(lambda pts: np.abs(field(pts)) ** p)
    return float(total) ** (1.0 / p)


def interaction_term(model, b_i, b_j):
    """Closed-form pairwise interaction scale (delta_i delta_j / d^2)^((n-2)/2)."""
    d = float(model.distance(b_i.center, b_j.center))
    if d <= 0.0:
        raise ValueError("interaction term undefined for coincident centers")
    return (b_i.delta * b_j.delta / d**2) ** ((model.n - 2.0) / 2.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Multi-bubble energy splitting, each piece by separate quadrature.

    ``cross_dirichlet_plus_potential`` collects the pairwise Dirichlet +
    potential couplings and ``nonlinear_excess`` is
    int((sum W)^(2*) - sum W^(2*)).  J_h(sum W) - sum J_h(W_i) equals
    cross - excess/2*, so ``deviation`` = |cross - excess/2*| is that
    energy difference with no digits cancelled; ``interaction_prediction``
    is the closed-form scale it should follow.
    """

    cross_dirichlet_plus_potential: float
    nonlinear_excess: float
    deviation: float
    interaction_prediction: float


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
        # rows: one coupling per pair, then the nonlinear excess
        hv = h(pts)
        vals, grads = zip(*(f.jet(pts, 1) for f in fields))
        powers = [_positive_power(v, twostar) for v in vals]
        # the 1/2 in the energy cancels the (i, j)/(j, i) symmetry factor
        couplings = [_rowsum(grads[i] * grads[j])
                     + hv * vals[i] * vals[j] for i, j in pairs]
        return np.stack([*couplings, _power_excess(vals, powers, twostar)])

    *couplings, excess = rule.integrate(pieces).tolist()
    cross = sum(couplings, 0.0)

    prediction = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                prediction += interaction_term(model, cfg.bubbles[i],
                                               cfg.bubbles[j])

    return EnergyBreakdown(
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
