"""Finite-dimensional endgame: reduced energy, schedules, bumps.

This module owns the closed-form side of the construction: the reduced
energy

    F_n(t, p) = c1 H(p) t^2 - d_n |Weyl|^2 t^4,

its interior critical points, the scale schedule delta(eps), the bump-width
schedule mu(eps) with measured smallness margins, the k-bump profile H, the
rise of the perturbed potential above c_n R_g, and the normalized energy
ratio whose limit the sweep experiments verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._smoothstep import radial_bump
from .bubble import BubbleParams, Configuration, CutoffSpec, multi_bubble_field
# energy is unused here; perfbench/tracing.py patches reduced.energy by name
from .functional import (_check_resolution, energy,
                         single_bubble_energy_constant)
from .geometry import CapacityError, _dot

__all__ = [
    "ReducedEnergyParams",
    "BumpFunction",
    "ScheduleParams",
    "reduced_constants",
    "F_n_eval",
    "F_n_critical",
    "delta_eps",
    "mu_eps",
    "build_H",
    "audit_bumps",
    "h_eps_perturbation",
    "reduced_limit_ratio",
    "schedule_configuration",
]


class DegenerateError(ValueError):
    """The reduced energy has no interior maximum for these parameters."""


def reduced_constants(n):
    """The quadratic and quartic coefficients (c1, d_n) of the reduced energy.

    d_6 is the coefficient of the logarithmic branch; for n >= 7 the quartic
    term carries no logarithm.
    """
    if n < 6:
        raise ValueError("reduced energy is defined for n >= 6")
    c1 = 2.0 * (n - 1.0) / ((n - 2.0) * (n - 4.0))
    d_n = 1.0 / 64.0 if n == 6 else 1.0 / (24.0 * (n - 4.0) * (n - 6.0))
    return c1, d_n


@dataclass(frozen=True)
class BumpFunction:
    """Smooth profile on R^n: -1 everywhere except k disjoint radial bumps.

    H(x) = -1 + sum_i a_i psi(|x - p_i| / sigma) with psi the standard
    C-infinity mollifier normalized to psi(0) = 1.  Amplitudes a_i > 1, so
    each p_i is a strict local maximum with H(p_i) = a_i - 1 > 0; supports
    are disjoint, and H is exactly -1 for |x| >= ``reach``.  ``dim`` is
    the maxima's, so ``replace(Hb, maxima=...)`` moves H to another space.
    """

    maxima: np.ndarray      # (k, dim)
    amplitudes: np.ndarray  # (k,)
    sigma: float

    @property
    def dim(self):
        return self.maxima.shape[-1]

    @property
    def k(self):
        return len(self.amplitudes)

    @property
    def reach(self):  # max_i |p_i| + sigma, beyond which H is exactly -1
        return float(np.max(np.linalg.norm(self.maxima, axis=1))) + self.sigma

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.full(y.shape[:-1], -1.0)
        for p, a in zip(self.maxima, self.amplitudes):
            z = y - p
            out = out + a * radial_bump(np.sqrt(_dot(z, z)) / self.sigma)
        return out

    def peak_values(self):
        return self.amplitudes - 1.0


@dataclass(frozen=True)
class ReducedEnergyParams:
    """Dimension, Weyl norm at the blow-up point, and the bump profile."""

    n: int
    weyl_sq: float
    H: BumpFunction = None

    def __post_init__(self):
        if self.n < 6:
            raise ValueError("n must be >= 6")
        if not self.weyl_sq >= 0:
            raise ValueError("weyl_sq must be nonnegative")


def F_n_eval(params, t, H_value):
    """Reduced energy at scale parameter t and a peak location p.

    The peak location enters only through ``H_value`` = H(p).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be positive")
    c1, d_n = reduced_constants(params.n)
    return c1 * H_value * t**2 - d_n * params.weyl_sq * t**4


def F_n_critical(params, i=0):
    """Closed-form interior maximum of F_n over t at the i-th bump maximum.

    Returns (t_star, p_star, value).  Raises DegenerateError when the
    quartic term vanishes (weyl_sq = 0) or the bump height is nonpositive,
    in which case there is no interior maximum.
    """
    if params.weyl_sq <= 0.0:
        raise DegenerateError("no interior maximum: Weyl term vanishes")
    p_star = np.asarray(params.H.maxima[i], dtype=float)
    h_val = float(params.H.peak_values()[i])
    if h_val <= 0.0:
        raise DegenerateError("no interior maximum: bump height is nonpositive")
    c1, d_n = reduced_constants(params.n)
    t_star = math.sqrt(c1 * h_val / (2.0 * d_n * params.weyl_sq))
    value = c1**2 * h_val**2 / (4.0 * d_n * params.weyl_sq)
    # second derivative in t at the critical point must be negative; written
    # as "not < 0" so that a NaN (e.g. from an infinite weyl_sq) raises too
    if not 2.0 * c1 * h_val - 12.0 * d_n * params.weyl_sq * t_star**2 < 0.0:
        raise DegenerateError("no interior maximum: critical point is not "
                              "a strict maximum in t")
    return t_star, p_star, value


_DELTA6_BRANCH_MAX = 1.0 / (2.0 * math.e)  # sup of d^2 ln(1/d) on (0, e^{-1/2})


def delta_eps(n, eps):
    """Concentration-scale schedule: solves the defining relation for delta.

    n >= 7: delta = sqrt(eps).  n = 6: the unique root of
    delta^2 ln(1/delta) = eps on the monotone branch (0, e^{-1/2}),
    found by bisection until the midpoint rounds to an end of the bracket
    (at most 555 halvings); its back-substitution residual must be <= 1e-14.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if n >= 7:
        return math.sqrt(eps)
    if n != 6:
        raise ValueError("schedule defined for n >= 6")
    if eps >= _DELTA6_BRANCH_MAX:
        raise ValueError(
            f"eps must be below the branch maximum 1/(2e) ~ {_DELTA6_BRANCH_MAX:.6g}")
    lo, hi = 1e-300, math.exp(-0.5)
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        # d^2 ln(1/d) < eps at lo and >= eps at hi, so a midpoint that
        # rounds to an end leaves the bracket as it is from here on
        if mid == lo or mid == hi:
            break
        if mid * mid * math.log(1.0 / mid) < eps:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    if not _back_substitution_residual(n, eps, d) <= 1e-14:
        raise ValueError(f"delta_eps: bisection missed relative residual "
                         f"1e-14 at eps={eps:g}")
    return d


def _back_substitution_residual(n, eps, d):
    """Relative residual of d = delta(eps) in its defining relation."""
    if n >= 7:
        return abs(d - math.sqrt(eps)) / math.sqrt(eps)
    return abs(d * d * math.log(1.0 / d) - eps) / eps


@dataclass(frozen=True)
class ScheduleParams:
    """Pinned parameter schedule at a given eps.

    theta is the exponent of the bump-width schedule mu = eps^theta used for
    n >= 7 (half the largest admissible exponent, for uniform margin);
    dimension 6 uses mu = |ln eps|^(-1/8).
    """

    n: int
    eps: float
    r: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.r < 0:
            raise ValueError("r must be a nonnegative integer")

    @property
    def theta(self):
        if self.n == 6:
            return None
        return 0.5 * min((self.n - 6.0) / (2.0 * (self.n - 2.0)),
                         1.0 / max(self.r, 1))

    @property
    def delta_eps(self):
        return delta_eps(self.n, self.eps)

    @property
    def mu_eps(self):
        return mu_eps(self)[0]


def mu_eps(sch):
    """Bump-width schedule with measured smallness margins.

    Returns (mu, margins) where margins maps each smallness constraint to
    the ratio that must tend to zero: the lower-bound constraint over mu,
    eps over mu^r, and mu itself.
    """
    n, eps = sch.n, sch.eps
    if n == 6:
        mu = abs(math.log(eps)) ** (-1.0 / 8.0)
        lower = abs(math.log(eps)) ** (-1.0 / 4.0)
    else:
        mu = eps ** sch.theta
        lower = eps ** ((n - 6.0) / (2.0 * (n - 2.0)))
    margins = {
        "lower_bound_over_mu": lower / mu,
        "eps_over_mu_r": eps / mu ** sch.r if sch.r > 0 else eps,
        "mu": mu,
    }
    return mu, margins


def build_H(k, dim, seed=None):
    """Place k disjoint radial bumps in the unit ball of R^dim.

    Maxima are placed in the coordinate (e1, e2)-plane: at the origin for
    k = 1, on a circle of radius 0.75 otherwise.  The bump radius sigma is
    a third of the smallest pairwise gap, at most 0.2, so bump supports are
    disjoint and the closed balls of radius 2 sigma around distinct maxima
    overlap at most at a boundary point.  Amplitudes are distinct
    (a_i = 2 + (i+1)/k) to avoid ties in peak diagnostics.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi) if seed is not None else 0.0
    pts = np.zeros((k, dim))
    if k > 1:
        rho = 0.75
        ang = phase + 2.0 * math.pi * np.arange(k) / k
        pts[:, 0] = rho * np.cos(ang)
        pts[:, 1] = rho * np.sin(ang)
        gap = 2.0 * rho * math.sin(math.pi / k)
    else:
        gap = 2.0  # distance to the boundary region is the only constraint
    sigma = min(gap / 3.0, 0.2)
    if sigma < 1e-3:
        raise CapacityError(
            f"cannot place {k} bump maxima in the unit ball with usable gaps")
    amplitudes = 2.0 + (np.arange(k) + 1.0) / k
    return BumpFunction(maxima=pts, amplitudes=amplitudes, sigma=sigma)


def audit_bumps(Hb):
    """Grid-scan verification of the four bump-profile invariants.

    The maxima live in the coordinate (e1, e2)-plane, so the scan covers
    that plane exhaustively at resolution sigma/20 (a full dim-dimensional
    grid at this resolution is out of reach for dim = 6); off-plane behavior
    is checked by radial profiles through each maximum along every
    coordinate axis.  Returns a report dict; draws no exceptions.
    """
    res = Hb.sigma / 20.0
    dim = Hb.dim
    span = 2.2
    m = int(np.ceil(2.0 * span / res)) + 1
    ax = np.linspace(-span, span, m)
    X1, X2 = np.meshgrid(ax, ax, indexing="ij")
    pts = np.zeros((m, m, dim))
    pts[..., 0] = X1
    pts[..., 1] = X2
    vals = Hb(pts)

    # invariant: far value is exactly -1 at |x| >= reach, the bound that
    # h_eps_perturbation skips the log map on
    rad = np.sqrt(X1**2 + X2**2)
    far_ok = bool(np.all(vals[rad >= Hb.reach] == -1.0))

    # invariant: peak values a_i - 1 > 0 at the maxima
    peaks = Hb(Hb.maxima)
    peak_ok = bool(np.allclose(peaks, Hb.amplitudes - 1.0, rtol=1e-12)
                   and np.all(peaks > 0.0))

    # invariant: pairwise separation >= 3 sigma
    sep_ok = True
    for i in range(Hb.k):
        for j in range(i + 1, Hb.k):
            d = np.linalg.norm(Hb.maxima[i] - Hb.maxima[j])
            sep_ok = sep_ok and d >= 3.0 * Hb.sigma - 1e-12

    # strict local maxima of the plane scan (interior 8-neighborhood)
    c = vals[1:-1, 1:-1]
    neigh = np.stack([vals[:-2, 1:-1], vals[2:, 1:-1], vals[1:-1, :-2],
                      vals[1:-1, 2:], vals[:-2, :-2], vals[:-2, 2:],
                      vals[2:, :-2], vals[2:, 2:]])
    strict = (c > neigh).all(axis=0)
    found = np.argwhere(strict)
    n_found = len(found)
    count_ok = n_found == Hb.k
    # located maxima must sit within one grid cell of the declared maxima
    loc_ok = True
    for idx in found:
        p = np.array([ax[idx[0] + 1], ax[idx[1] + 1]])
        dmin = np.min(np.linalg.norm(Hb.maxima[:, :2] - p, axis=1))
        loc_ok = loc_ok and dmin <= res * math.sqrt(2.0)

    # invariant: each p_i is the unique maximum of H on B_{2 sigma}(p_i);
    # in-plane part from the scan, off-plane part from axis profiles
    unique_ok = count_ok and loc_ok
    t = np.linspace(res, 2.0 * Hb.sigma, 40)
    for i, p in enumerate(Hb.maxima):
        ball = (X1 - p[0]) ** 2 + (X2 - p[1]) ** 2 <= (2.0 * Hb.sigma) ** 2
        top = Hb.amplitudes[i] - 1.0
        unique_ok = unique_ok and bool(np.all(vals[ball] <= top + 1e-15))
        for e in np.eye(dim):
            prof = Hb(p + t[:, None] * e)
            unique_ok = unique_ok and bool(np.all(prof < top))

    passed = far_ok and peak_ok and sep_ok and count_ok and unique_ok
    return {
        "passed": bool(passed),
        "n_maxima_found": int(n_found),
        "far_value_ok": far_ok,
        "peak_values_ok": peak_ok,
        "unique_local_max_ok": bool(unique_ok),
        "separation_ok": bool(sep_ok),
    }


def h_eps_perturbation(model, xi0, eps, mu, Hb):
    """The rise h_eps - c_n R_g = eps H(log_xi0(.) / mu) of the potential.

    Returns a callable: a value per point of a batch, a scalar for one
    point.  Integrals read h_eps only through it, so none subtracts two
    energies that share most digits.  H is read against its maxima mapped
    by the frame as :func:`schedule_configuration` maps them.  Points
    beyond mu * ``Hb.reach`` from xi0, or 0.9 of the injectivity radius,
    get -eps without a log map; the others and their log maps come from
    one projection (:meth:`ManifoldModel._log_within`).
    """
    tangent = replace(Hb, maxima=Hb.maxima @ model.tangent_frame(xi0))
    radius = min(mu * Hb.reach, 0.9 * model.injectivity_radius)

    def rise(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.full(pts.shape[:-1], -eps)
        near, v = model._log_within(xi0, np.atleast_2d(pts), radius)
        # one point gives a 0-d out, and out[()] its scalar
        out.reshape(-1)[near] = eps * tangent(v / mu)
        return out[()]

    return rise


def schedule_configuration(model, xi0, ts, ps, eps, r=0):
    """Bubble configuration (delta_i, xi_i) built from the schedules.

    delta_i = t_i * delta(eps) and xi_i = exp_xi0(mu(eps) * p_i) with p_i in
    tangent-frame coordinates.  The admissibility cone is the default one
    with separation bound K = 10.  A centre off the model (outside a flat
    ball) raises GeometryError.
    """
    sch = ScheduleParams(n=model.n, eps=eps, r=r)
    d_eps = sch.delta_eps
    mu = sch.mu_eps
    frame = model.tangent_frame(xi0)
    bubbles = []
    for t, p in zip(ts, ps):
        v = mu * np.asarray(p, dtype=float) @ frame
        center = model.validate_point(model.exp(xi0, v))
        bubbles.append(BubbleParams(delta=t * d_eps, center=center))
    return Configuration(bubbles=tuple(bubbles), K=10.0), sch


def reduced_limit_ratio(model, xi0, ts, ps, eps, Hb, rule, r=0):
    """Normalized energy ratio whose eps -> 0 limit is sum_i F_n(t_i, p_i).

    Builds the schedule configuration at this eps and returns

        (J_{h_eps} - J_{c_n R_g}) / (E_1 * eps * delta_eps^2)  +  Q,

    the potential-induced energy deviation of the bubble sum u per unit of the
    leading single-bubble constant E_1.  J is affine in h, so the difference
    is integrated on ``rule`` in closed form, as 1/2 int of
    :func:`h_eps_perturbation` times u^2; it holds no h-independent term,
    such as the quartic remainder of the ansatz.  It also lacks the Weyl
    fourth-order branch that belongs to the limit, and Q puts it back:
    Q = -d_n |Weyl|^2 sum_i delta_i^4 ln(1/delta_i) / (eps delta_eps^2) in
    dimension 6 (no log for n >= 7), which converges to the quartic part of
    sum_i F_n(t_i, p_i).  The bubbles carry the default cutoff.  A ``rule``
    coarser than the smallest delta_i raises CapacityError.
    """
    cfg, sch = schedule_configuration(model, xi0, ts, ps, eps, r=r)
    _check_resolution(rule, cfg)
    rise = h_eps_perturbation(model, xi0, eps, sch.mu_eps, Hb)
    u = multi_bubble_field(model, cfg, CutoffSpec.for_model(model))
    j_diff = 0.5 * float(rule.integrate(lambda pts: rise(pts) * u(pts) ** 2))
    e1 = single_bubble_energy_constant(model.n)
    _, d_n = reduced_constants(model.n)
    weyl = model.weyl_norm_sq()
    quartic = 0.0
    for b in cfg.bubbles:
        branch = (b.delta**4 * math.log(1.0 / b.delta) if model.n == 6
                  else b.delta**4)
        quartic -= d_n * weyl * branch / (eps * sch.delta_eps**2)
    ratio = j_diff / (e1 * eps * sch.delta_eps**2) + quartic
    params = ReducedEnergyParams(n=model.n, weyl_sq=weyl, H=Hb)
    predicted = float(sum(
        F_n_eval(params, t, H_value=float(Hb(np.asarray(p, dtype=float))))
        for t, p in zip(ts, ps)))
    return ratio, predicted, cfg, sch
