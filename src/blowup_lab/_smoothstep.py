"""C-infinity transition and bump profiles.

Everything here is built from the classical ``exp(-1/t)`` mollifier, so the
resulting cutoffs are genuinely smooth (not just C^k like polynomial
smoothsteps).  All functions are vectorized over numpy arrays.
"""

import numpy as np

__all__ = ["step_jet", "radial_bump"]


def _f(t):
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def step_jet(t, order=0):
    """Smooth step s and its first ``order`` derivatives, as a tuple.

    s = 0 for t <= 0, s = 1 for t >= 1 and increasing in between; the
    derivatives vanish outside (0, 1).  All come from one pair
    u = f(t), v = f(1 - t) with f(t) = exp(-1/t), s = u / (u + v).
    """
    t = np.asarray(t, dtype=float)
    u = _f(t)
    v = _f(1.0 - t)
    with np.errstate(invalid="ignore"):
        s = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, u / (u + v)))
    if order == 0:
        return (s,)
    inside = (t > 0.0) & (t < 1.0)
    ti, u, v = t[inside], u[inside], v[inside]
    P = u + v
    # 1/t is set to 0 where u = exp(-1/t) has underflowed to 0, so that the
    # terms u (1/t)^j are 0 there rather than 0 * inf; likewise 1/(1-t) and v
    it = np.divide(1.0, ti, out=np.zeros_like(ti), where=u > 0.0)
    is_ = np.divide(1.0, 1.0 - ti, out=np.zeros_like(ti), where=v > 0.0)
    u1 = u * it**2
    v1 = -v * is_**2
    P1 = u1 + v1
    d1 = np.zeros_like(t)
    d1[inside] = (u1 * P - u * P1) / P**2
    if order == 1:
        return s, d1
    u2 = u * (it**4 - 2.0 * it**3)
    v2 = v * (is_**4 - 2.0 * is_**3)
    d2 = np.zeros_like(t)
    d2[inside] = ((u2 * P - u * (u2 + v2)) / P**2
                  - 2.0 * P1 * (u1 * P - u * P1) / P**3)
    return s, d1, d2


def radial_bump(s):
    """Radial mollifier with value 1 at the origin.

    exp(1 - 1/(1 - s^2)) for |s| < 1, 0 otherwise.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    if np.any(inside):
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
    return out
