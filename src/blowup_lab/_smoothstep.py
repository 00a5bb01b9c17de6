"""C-infinity transition and bump profiles.

Everything here is built from the classical ``exp(-1/t)`` mollifier, so the
resulting cutoffs are genuinely smooth (not just C^k like polynomial
smoothsteps).  All functions are vectorized over numpy arrays.
"""

import numpy as np

__all__ = ["step_jet", "plateau_jet", "radial_bump"]

# the smallest normal float, where the step's band starts: -1/t overflows
# only below it, and exp(-1/t) is already 0 from t = 1/745 down
_TINY = np.finfo(float).tiny


def step_jet(t, order=0):
    """Smooth step s and its first ``order`` derivatives, as a tuple.

    s = 0 for t <= 0, s = 1 for t >= 1 and increasing in between; the
    derivatives vanish outside (0, 1), and a NaN t gives s = NaN with
    derivatives 0.  All come from one pair u = f(t), v = f(1 - t) with
    f(t) = exp(-1/t), s = u / (u + v), taken only inside the band
    [_TINY, 1): below it u is 0, so s and its derivatives are +0.0 there as
    they are at t <= 0, and 1/t stays finite in the band.

    The band is read and written through one array of flat indices, and
    outside it s is floor(min(max(t, 1/2), 1)): a few whole-array passes per
    call, each of which numpy runs without the GIL.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    band = ((flat >= _TINY) & (flat < 1.0)).nonzero()[0]
    ti = flat[band]
    # the exponents -1/t and -1/(1-t); exp underflows to 0 below t = 1/745,
    # silently unless the caller's np.errstate says otherwise
    eu = -1.0 / ti
    ev = -1.0 / (1.0 - ti)
    u = np.exp(eu)
    v = np.exp(ev)
    P = u + v
    # 0 below the band and 1 above it, NaN at NaN: t clipped to [1/2, 1]
    # and floored, which also maps t = -0.0 to +0.0.  Each output is a
    # C-ordered array, even for a 0-d t, so its band is written through a
    # flat view
    s = np.maximum(t, 0.5, out=np.empty(t.shape))
    np.minimum(s, 1.0, out=s)
    np.floor(s, out=s)
    s.reshape(-1)[band] = u / P
    if order == 0:
        return (s,)
    # 1/t, negated in place, is set to 0 where u = exp(-1/t) has underflowed
    # to 0, so that the terms u (1/t)^j are 0 there rather than 0 * inf;
    # likewise 1/(1-t) and v
    it = np.negative(eu, out=eu)
    is_ = np.negative(ev, out=ev)
    it[u == 0.0] = 0.0
    is_[v == 0.0] = 0.0
    u1 = u * it**2
    v1 = -v * is_**2
    P1 = u1 + v1
    d1 = np.zeros(t.shape)
    d1.reshape(-1)[band] = (u1 * P - u * P1) / P**2
    if order == 1:
        return s, d1
    u2 = u * (it**4 - 2.0 * it**3)
    v2 = v * (is_**4 - 2.0 * is_**3)
    d2 = np.zeros(t.shape)
    d2.reshape(-1)[band] = ((u2 * P - u * (u2 + v2)) / P**2
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
    flat = s.reshape(-1)
    inside = (np.abs(flat) < 1.0).nonzero()[0]
    si = flat[inside]
    # C-ordered, so its band is written through a flat view
    out = np.zeros(s.shape)
    out.reshape(-1)[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2))
    return out
