"""C-infinity transition and bump profiles.

Everything here is built from the classical ``exp(-1/t)`` mollifier, so the
resulting cutoffs are genuinely smooth (not just C^k like polynomial
smoothsteps).  All functions are vectorized over numpy arrays.
"""

import numpy as np

__all__ = ["step_jet", "plateau_jet", "radial_bump"]


def step_jet(t, order=0):
    """Smooth step s and its first ``order`` derivatives, as a tuple.

    s = 0 for t <= 0, s = 1 for t >= 1 and increasing in between; the
    derivatives vanish outside (0, 1), and a NaN t gives s = NaN with
    derivatives 0.  All come from one pair u = f(t), v = f(1 - t) with
    f(t) = exp(-1/t), s = u / (u + v), taken only inside the band (0, 1).
    """
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    # 1/t overflows for a subnormal t; exp(-inf) is then 0
    with np.errstate(over="ignore", under="ignore"):
        u = np.exp(-1.0 / ti)
        v = np.exp(-1.0 / (1.0 - ti))
    P = u + v
    # 0 below the band and 1 above it (t - 1 >= 0 exactly when t >= 1),
    # NaN at NaN; an array even for a 0-d t, so the band can be written
    s = np.heaviside(t - 1.0, 1.0, out=np.empty_like(t))
    s[inside] = u / P
    if order == 0:
        return (s,)
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


def plateau_jet(r, r0, order=0):
    """Radial plateau, 1 on [0, r0/2] and 0 on [r0, inf), and its first
    ``order`` derivatives in r, as a tuple: step_jet(2 (r0 - r) / r0)."""
    s = step_jet(2.0 * (r0 - r) / r0, order)
    # the step argument falls at the rate 2/r0
    return s[:1] + tuple(sk * c for sk, c in
                         zip(s[1:], (-2.0 / r0, 4.0 / r0**2)))


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
