"""The benchmark's workloads: inputs from a seed, operations, output checks.

A workload turns a seed into inputs, splits its work into passes of
operations, and checks each finished pass against the acceptance criteria's
pinned tolerances.  Every check yields gates: a gate with a ``ratio`` is the
measured error over its pinned tolerance (the gate fails at 1 or above, or
above 1 for closed intervals); a gate without one is a pass/fail count.

Workloads call only public names of ``blowup_lab.geometry``, ``.bubble``,
``.functional``, ``.reduced`` and ``.diagnostics``, always through the module
attribute, so the tracer can wrap them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from blowup_lab import bubble, diagnostics, functional, geometry, reduced


class Gate(NamedTuple):
    name: str
    ratio: float | None  # measured error / pinned tolerance, else None
    passed: bool


class PassCheck(NamedTuple):
    op_ok: list          # one bool per operation of the pass
    gates: list          # Gate tuples
    planted: int = 0     # peaks planted (peak-extract only)
    recovered: int = 0   # peaks recovered within both tolerances


def _unevaluable(count, why):
    """A pass whose gates cannot be computed fails every operation in it."""
    return PassCheck([False] * count, [Gate(why, None, False)])


# Angular orders [1, 1] on each factor sphere: the rule a radial integrand
# needs (ROADMAP item 1); only the self-test's tiny size uses it.
_COLLAPSED = dict(n_psi=24, orders_a=[1, 1], orders_b=[1, 1])


class ScheduledBubble:
    """Criterion 10's scheduled one-bubble sweep on S^3 x S^3 (k = 1 bump).

    One operation at one eps builds the rule at delta(eps), evaluates
    ``reduced_limit_ratio`` (J at h_eps and at c_n R_g) and the residual norm
    at c_n R_g.  A pass is the whole eps sweep; its gates are criterion 10
    and criterion 6's n = 6 window.
    """

    name = "scheduled-bubble"
    CALIBRATED = False  # large numpy and BLAS calls: see README.md
    EPS = tuple(float(e) for e in np.geomspace(1e-2, 1e-4, 5))
    BUDGET = 4_000_000

    def __init__(self, seed, size="full"):
        self.model = geometry.ManifoldModel.product_spheres(3, 3)
        self.bump = reduced.build_H(1, self.model.n, seed=7)
        self.xi0 = self.model.random_point(np.random.default_rng(seed))
        self.cutoff = bubble.CutoffSpec.for_model(self.model)
        self.h0 = functional.PotentialField.conformal_scalar(self.model)
        self.angular = "biradial" if size == "full" else _COLLAPSED

    def describe(self):
        return {"manifold": "S^3 x S^3", "bump": "build_H(1, 6, seed=7)",
                "xi0": self.xi0.tolist(), "eps": list(self.EPS),
                "delta_eps": [reduced.delta_eps(6, e) for e in self.EPS],
                "angular": self.angular if isinstance(self.angular, str)
                else "collapsed [1, 1]", "budget": self.BUDGET}

    def ops(self, index):
        return [(f"eps={e:.3g}", functools.partial(self._point, e))
                for e in self.EPS]

    def _point(self, eps):
        sch = reduced.ScheduleParams(n=self.model.n, eps=eps)
        rule = geometry.build_quadrature(
            self.model, self.xi0, finest_scale=sch.delta_eps,
            budget=self.BUDGET, angular=self.angular)
        ratio, pred, cfg, _ = reduced.reduced_limit_ratio(
            self.model, self.xi0, [1.0], [self.bump.maxima[0]], eps,
            self.bump, rule)
        res = functional.residual_norm(self.model, self.h0, cfg, self.cutoff,
                                       rule)
        return {"delta": sch.delta_eps, "rel_dev": abs(ratio - pred) / abs(pred),
                "residual": res, "nodes": rule.node_count}

    def check(self, outputs):
        if any(o is None for o in outputs):
            return _unevaluable(len(outputs), "sweep incomplete")
        devs = [o["rel_dev"] for o in outputs]
        decreases = sum(1 for a, b in zip(devs, devs[1:]) if b < a)
        fit = diagnostics.order_fit([o["delta"] for o in outputs],
                                    [o["residual"] for o in outputs],
                                    log_correction=2.0 / 3.0)
        gates = [
            Gate("criterion 10 final rel_dev < 0.10", devs[-1] / 0.10,
                 devs[-1] < 0.10),
            Gate(f"criterion 10 decreases >= 3 (got {decreases})", None,
                 decreases >= 3),
            # window [1.8, 2.4]: error from its midpoint over its half-width
            Gate(f"criterion 6 n=6 slope {fit.slope:.4f} in [1.8, 2.4]",
                 abs(fit.slope - 2.1) / 0.3, 1.8 <= fit.slope <= 2.4),
        ]
        ok = all(g.passed for g in gates)
        return PassCheck([ok] * len(outputs), gates)


class TwoBubble:
    """Criterion 5's two-bubble interaction sweep on flat balls, n = 6, 7.

    One operation builds the multicentre rule for two bubbles of scale 1e-3
    at one separation and evaluates ``energy_split``.  The axis through both
    centres is drawn from the seed.  A pass is both sweeps; each dimension's
    slope gate decides its six operations.
    """

    name = "two-bubble"
    CALIBRATED = False
    DELTA = 1e-3
    SEPARATIONS = tuple(float(d) for d in np.geomspace(0.02, 0.2, 6))
    BUDGET = 4_000_000

    def __init__(self, seed, size="full"):
        rng = np.random.default_rng(seed)
        self.dims = (6, 7)
        self.models = {n: geometry.ManifoldModel.flat_ball(n, 100.0)
                       for n in self.dims}
        self.axes = {}
        for n in self.dims:
            v = rng.standard_normal(n)
            self.axes[n] = v / np.linalg.norm(v)
        self.potentials = {n: functional.PotentialField.constant(m, 0.0)
                           for n, m in self.models.items()}
        self.cutoff = bubble.CutoffSpec.none()
        # the tiny size uses the coarsest angular profile everywhere
        self.angular = None if size == "full" else "minimal"
        self.separations = self.SEPARATIONS if size == "full" \
            else tuple(float(d) for d in np.geomspace(0.02, 0.2, 4))

    def describe(self):
        return {"manifold": "flat ball, radius 100", "dims": list(self.dims),
                "delta": self.DELTA, "separations": list(self.separations),
                "axes": {str(n): a.tolist() for n, a in self.axes.items()},
                "angular": self.angular or "default (axial)",
                "budget": self.BUDGET}

    def ops(self, index):
        return [(f"n={n} d={d:.3g}", functools.partial(self._point, n, d))
                for n in self.dims for d in self.separations]

    def _point(self, n, sep):
        model = self.models[n]
        c1 = -0.5 * sep * self.axes[n]
        c2 = 0.5 * sep * self.axes[n]
        cfg = bubble.Configuration(bubbles=(bubble.BubbleParams(self.DELTA, c1),
                                            bubble.BubbleParams(self.DELTA, c2)))
        rule = geometry.build_multicenter_quadrature(
            model, [c1, c2], finest_scale=self.DELTA, budget=self.BUDGET,
            angular=self.angular, patch_angular=self.angular)
        split = functional.energy_split(model, self.potentials[n], cfg,
                                        self.cutoff, rule)
        return {"n": n, "x": (self.DELTA / sep) ** 2,
                "deviation": split.deviation, "nodes": rule.node_count}

    def check(self, outputs):
        per_dim = len(self.separations)
        op_ok, gates = [], []
        for i, n in enumerate(self.dims):
            group = outputs[i * per_dim:(i + 1) * per_dim]
            if any(o is None for o in group):
                gates.append(Gate(f"criterion 5 n={n} sweep incomplete",
                                  None, False))
                op_ok += [False] * per_dim
                continue
            fit = diagnostics.order_fit([o["x"] for o in group],
                                        [o["deviation"] for o in group])
            target = (n - 2.0) / 2.0
            rel = abs(fit.slope - target) / target
            gates.append(Gate(f"criterion 5 n={n} slope {fit.slope:.4f} "
                              f"within 5% of {target:g}", rel / 0.05, rel < 0.05))
            op_ok += [rel < 0.05] * per_dim
        return PassCheck(op_ok, gates)


class PeakExtract:
    """Criterion 11's synthetic peak-extraction cases on S^3 x S^3.

    One operation is one ``extract_peaks`` call on a planted field with
    k = 1, 2 or 3 bubbles of scale uniform on [3e-3, 1e-2], searched from 50
    coarse points plus one point near each bubble.  A pass is one case of
    each k.  Every bubble must be recovered with centre error < 0.1 delta
    and scale error < 1%.
    """

    name = "peak-extract"
    CALIBRATED = True  # interpreter-bound: timed against ``calibrate``
    POOL = 64  # passes generated in set-up; a longer run cycles through them

    def __init__(self, seed, size="full"):
        self.model = geometry.ManifoldModel.product_spheres(3, 3)
        self.xi0 = self.model.random_point(np.random.default_rng(seed))
        self.frame = self.model.tangent_frame(self.xi0)
        self.cutoff = bubble.CutoffSpec.for_model(self.model)
        self.ks = (1, 2, 3) if size == "full" else (1,)
        self.cases = [[self._case(np.random.default_rng([seed, p, j]), k)
                       for j, k in enumerate(self.ks)]
                      for p in range(self.POOL)]

    def _case(self, rng, k):
        ys = []
        while len(ys) < k:
            y = rng.uniform(-0.6, 0.6, size=6)
            if all(np.linalg.norm(y - q) > 0.2 for q in ys):
                ys.append(y)
        deltas = rng.uniform(3e-3, 1e-2, size=k)
        cfg = bubble.Configuration(bubbles=tuple(
            bubble.BubbleParams(float(d), self.model.exp(self.xi0, y @ self.frame))
            for d, y in zip(deltas, ys)), K=10.0)
        grid = list(rng.uniform(-0.8, 0.8, size=(50, 6)))
        for y, d in zip(ys, deltas):
            grid.append(y + rng.uniform(-1.5, 1.5, size=6) * d)
        return cfg, np.array(grid)

    def describe(self):
        return {"manifold": "S^3 x S^3", "xi0": self.xi0.tolist(),
                "k_cycle": list(self.ks), "delta_range": [3e-3, 1e-2],
                "grid_points": "50 coarse + 1 per bubble",
                "passes_generated": self.POOL}

    def ops(self, index):
        return [(f"k={cfg.k}", functools.partial(self._extract, cfg, grid))
                for cfg, grid in self.cases[index % self.POOL]]

    def _extract(self, cfg, grid):
        u = bubble.multi_bubble_field(self.model, cfg, self.cutoff)
        rep = diagnostics.extract_peaks(self.model, u, self.xi0,
                                        k_max=cfg.k + 2, search_grid=grid)
        return {"cfg": cfg, "report": rep}

    def check(self, outputs):
        op_ok, gates = [], []
        planted = recovered = 0
        for out in outputs:
            if out is None:
                op_ok.append(False)
                continue
            cfg, rep = out["cfg"], out["report"]
            planted += cfg.k
            found = (not rep.failed) and rep.k == cfg.k
            gates.append(Gate(f"criterion 11 k={cfg.k}: {rep.k} peaks found",
                              None, found))
            good = found
            if found:
                used = [False] * cfg.k
                for c, s in zip(rep.centers, rep.scales):
                    dist, j = min((float(self.model.distance(c, b.center)), j)
                                  for j, b in enumerate(cfg.bubbles) if not used[j])
                    b = cfg.bubbles[j]
                    used[j] = True
                    centre = Gate("criterion 11 centre error < 0.1 delta",
                                  dist / (0.1 * b.delta), dist < 0.1 * b.delta)
                    scale = Gate("criterion 11 scale error < 1%",
                                 abs(s - b.delta) / (0.01 * b.delta),
                                 abs(s - b.delta) < 0.01 * b.delta)
                    gates += [centre, scale]
                    recovered += centre.passed and scale.passed
                    good = good and centre.passed and scale.passed
            op_ok.append(good)
        return PassCheck(op_ok, gates, planted, recovered)


WORKLOADS = {w.name: w for w in (ScheduledBubble, TwoBubble, PeakExtract)}
