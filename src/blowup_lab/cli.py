"""Batch front door: JSON experiment configs in, CSV/JSON artifacts out.

Usage:
    blowup-lab run --config cfg.json [--out DIR] [--quiet]
    blowup-lab list-experiments

Each run writes manifest.json, one CSV per sweep, and summary.txt with
pass/fail lines against the thresholds in the config (defaults match the
project acceptance criteria).  Exit codes: 0 ok, 1 threshold failure
(artifacts still written), 2 malformed config, 3 capacity exceeded,
4 numerical or domain failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .bubble import (BubbleParams, Configuration, CutoffSpec,
                     multi_bubble_field)
from .diagnostics import isolation_ratios, order_fit
from .functional import (PotentialField, energy, energy_split, residual_norm,
                         single_bubble_energy_constant)
from .geometry import (CapacityError, GeometryError, ManifoldModel,
                       build_multicenter_quadrature, build_quadrature)
from .reduced import (DegenerateError, ScheduleParams, audit_bumps, build_H,
                      mu_eps, reduced_constants, reduced_limit_ratio,
                      schedule_configuration)


class ConfigError(ValueError):
    """Malformed experiment configuration (maps to exit code 2)."""


def _peak_rss_mb():
    """This process's peak resident set size (ru_maxrss) in MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit_csv(path, columns, rows):
    """RFC-4180-style CSV: LF endings, header always, 17 digits for reals."""
    if len(set(columns)) != len(columns):
        raise ConfigError(f"duplicate column names in {columns}")
    try:
        with open(path, "w", newline="") as f:
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as e:
        raise OSError(f"cannot write CSV {path}: {e}") from e
    return path


def _model_from_spec(spec):
    kind = spec.get("kind", "product_spheres")
    # a dimension or radius out of the model's range is a config value the
    # constructor refuses, not a failure of the computation
    try:
        if kind == "product_spheres":
            return ManifoldModel.product_spheres(spec.get("p", 3),
                                                 spec.get("q", 3))
        if kind == "round_sphere":
            return ManifoldModel.round_sphere(spec.get("n", 6))
        if kind == "flat_ball":
            return ManifoldModel.flat_ball(spec.get("n", 6),
                                           spec.get("radius", 100.0))
    except GeometryError as e:
        raise ConfigError(f"model {spec}: {e}") from e
    raise ConfigError(f"unknown model kind {kind!r}")


def _geomspace(rng_spec, default_lo, default_hi, default_count, top=math.inf):
    lo = float(rng_spec.get("min", default_lo))
    hi = float(rng_spec.get("max", default_hi))
    count = int(rng_spec.get("count", default_count))
    if not (0 < lo < hi <= top) or count < 2:
        bound = "" if top == math.inf else f" <= {top:g}"
        raise ConfigError(f"range must satisfy 0 < min < max{bound} "
                          f"with count >= 2")
    return np.geomspace(lo, hi, count)


def _scale(value):
    """A bubble scale from the config; rules resolve scales in (0, 1]."""
    delta = float(value)
    if not 0.0 < delta <= 1.0:
        raise ConfigError(f"bubble scale {delta:g} must lie in (0, 1]")
    return delta


def _rule_center(model):
    """Seeded random point on compact models, the origin on flat balls.

    A flat ball is symmetric only about its origin; there a radial rule is
    exact and the default cutoff (r0 = radius/4) stays inside the ball.
    """
    if model.kind == "flat_ball":
        return np.zeros(model.n)
    return model.random_point(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# experiment implementations; each returns (rows, columns, lines, passed)

def _exp_flat_energy(cfg):
    dims = cfg.get("dims", [6])
    radius = float(cfg.get("radius", 100.0))
    budget = int(cfg.get("budget", 2_000_000))
    tol = float(cfg.get("threshold", 1e-6))
    rows, lines, ok = [], [], True
    for n in dims:
        model = _model_from_spec({"kind": "flat_ball", "n": n,
                                  "radius": radius})
        center = np.zeros(n)
        rule = build_quadrature(model, center, finest_scale=1.0,
                                budget=budget, angular="radial")
        h = PotentialField.constant(model, 0.0)
        u = multi_bubble_field(
            model, Configuration(bubbles=(BubbleParams(1.0, center),)),
            CutoffSpec.none())
        j = energy(model, h, u, rule)
        e1 = single_bubble_energy_constant(n)
        dev = abs(j - e1) / e1
        good = dev < tol
        ok = ok and good
        rows.append((n, j, e1, dev))
        lines.append(f"[{'PASS' if good else 'FAIL'}] flat-energy n={n}: "
                     f"J={j:.12g} E1={e1:.12g} rel_dev={dev:.3e} (< {tol:g})")
    return rows, ("n", "J_quadrature", "E1_oracle", "rel_deviation"), lines, ok


def _exp_expansion_sweep(cfg):
    model = _model_from_spec(cfg.get("model", {}))
    sigma = float(cfg.get("sigma", 1e-3))
    deltas = _geomspace(cfg.get("delta_range", {}), 1e-3, 1e-2, 7, top=1.0)
    budget = int(cfg.get("budget", 2_000_000))
    tol = float(cfg.get("threshold", 0.05))
    c1 = reduced_constants(model.n)[0]
    e1 = single_bubble_energy_constant(model.n)
    center = _rule_center(model)
    cutoff = CutoffSpec.for_model(model)
    h0 = PotentialField.conformal_scalar(model)
    rows = []
    for d in deltas:
        rule = build_quadrature(model, center, finest_scale=d, budget=budget,
                                angular="radial")
        u = multi_bubble_field(
            model, Configuration(bubbles=(BubbleParams(d, center),)), cutoff)
        j0 = energy(model, h0, u, rule)
        # J is affine in h: the constant shift adds sigma/2 int u^2 exactly
        half_l2 = 0.5 * float(np.sum(rule.weights * u(rule.nodes) ** 2))
        rows.append((d, j0, j0 + sigma * half_l2, half_l2 / (e1 * d * d)))
    coefs = np.array([r[3] for r in rows])
    fitted = float(np.median(coefs))
    dev = abs(fitted - c1) / c1
    ok = dev < tol
    lines = [f"[{'PASS' if ok else 'FAIL'}] expansion-sweep: fitted "
             f"c1={fitted:.6g} target={c1:.6g} rel_dev={dev:.3e} (< {tol:g})"]
    return rows, ("delta", "J_base", "J_shifted", "c1_estimate"), lines, ok


def _exp_interaction_sweep(cfg):
    n = int(cfg.get("n", 6))
    delta = _scale(cfg.get("delta", 1e-3))
    dists = _geomspace(cfg.get("dist_range", {}), 0.02, 0.2, 6)
    budget = int(cfg.get("budget", 4_000_000))
    tol = float(cfg.get("threshold", 0.05))
    model = _model_from_spec({"kind": "flat_ball", "n": n,
                              "radius": float(cfg.get("radius", 100.0))})
    rows = []
    for d in dists:
        c1 = np.zeros(n)
        c2 = np.zeros(n)
        c1[0], c2[0] = -d / 2.0, d / 2.0
        cfg_b = Configuration(bubbles=(BubbleParams(delta, c1),
                                       BubbleParams(delta, c2)))
        rule = build_multicenter_quadrature(model, [c1, c2],
                                            finest_scale=delta, budget=budget)
        split = energy_split(model, PotentialField.constant(model, 0.0),
                             cfg_b, CutoffSpec.none(), rule)
        q = (delta / d) ** 2
        rows.append((d, q, split.deviation, split.interaction_prediction))
    fit = order_fit([r[1] for r in rows], [r[2] for r in rows])
    target = (n - 2.0) / 2.0
    dev = abs(fit.slope - target) / target
    ok = dev < tol
    lines = [f"[{'PASS' if ok else 'FAIL'}] interaction-sweep n={n}: slope "
             f"{fit.slope:.4f} target {target:g} rel_dev={dev:.3e} (< {tol:g})"]
    return (rows, ("distance", "delta2_over_d2", "deviation",
                   "interaction_prediction"), lines, ok)


def _exp_residual_sweep(cfg):
    model = _model_from_spec(cfg.get("model", {"kind": "product_spheres"}))
    deltas = _geomspace(cfg.get("delta_range", {}), 1e-3, 1e-2, 6, top=1.0)
    budget = int(cfg.get("budget", 2_000_000))
    log_b = float(cfg.get("log_correction", 2.0 / 3.0 if model.n == 6 else 0.0))
    lo, hi = cfg.get("slope_window", [1.8, 2.4] if model.n == 6 else [1.9, 2.2])
    shift = float(cfg.get("shift", 0.0))
    center = _rule_center(model)
    cutoff = (CutoffSpec.for_model(model) if model.is_compact
              else CutoffSpec(r0=float(cfg.get("r0", 1.0))))
    h = PotentialField.conformal_scalar(model).shifted(shift)
    rows = []
    for d in deltas:
        rule = build_quadrature(model, center, finest_scale=d, budget=budget,
                                angular="radial")
        cfg_b = Configuration(bubbles=(BubbleParams(d, center),))
        r = residual_norm(model, h, cfg_b, cutoff, rule)
        rows.append((d, r))
    fit = order_fit([r[0] for r in rows], [r[1] for r in rows],
                    log_correction=log_b)
    ok = lo <= fit.slope <= hi
    lines = [f"[{'PASS' if ok else 'FAIL'}] residual-sweep n={model.n}: slope "
             f"{fit.slope:.4f} window [{lo}, {hi}] "
             f"(log correction {log_b:g})"]
    return rows, ("delta", "residual_norm"), lines, ok


def _exp_reduced_limit(cfg):
    model = _model_from_spec(cfg.get("model", {}))
    eps_list = sorted(_geomspace(cfg.get("eps_range", {}), 1e-4, 1e-2, 5),
                      reverse=True)
    budget = int(cfg.get("budget", 4_000_000))
    tol = float(cfg.get("threshold", 0.10))
    t = float(cfg.get("t", 1.0))
    seed = cfg.get("seed", None)
    r = int(cfg.get("r", 0))
    Hb = build_H(int(cfg.get("k", 1)), model.n, seed=seed)
    xi0 = _rule_center(model)
    p = Hb.maxima[0]
    # a single bump peaks at xi0, under the bubble: the integrand is radial
    angular = "radial" if Hb.k == 1 else None
    rows = []
    for eps in eps_list:
        # centre the rule on the bubble at exp_xi0(mu p), which is xi0 itself
        # for k = 1 (p = 0) and about 0.6 away from it for k > 1
        cfg_b, sch = schedule_configuration(model, xi0, [t], [p], eps, r=r)
        rule = build_quadrature(model, cfg_b.bubbles[0].center,
                                finest_scale=t * sch.delta_eps, budget=budget,
                                angular=angular)
        ratio, pred, _, _ = reduced_limit_ratio(model, xi0, [t], [p], eps, Hb,
                                                rule, r=r)
        dev = abs(ratio - pred) / abs(pred)
        rows.append((eps, sch.delta_eps, sch.mu_eps, ratio, pred, dev))
    devs = [row[5] for row in rows]
    decreasing = sum(1 for a, b in zip(devs, devs[1:]) if b < a)
    ok = devs[-1] < tol and decreasing >= min(3, len(devs) - 1)
    lines = [f"[{'PASS' if ok else 'FAIL'}] reduced-limit: final rel_dev "
             f"{devs[-1]:.3e} (< {tol:g}), {decreasing} consecutive decreases"]
    return (rows, ("eps", "delta_eps", "mu_eps", "ratio", "predicted",
                   "rel_deviation"), lines, ok)


def _exp_schedule_table(cfg):
    n = int(cfg.get("n", 7))
    r = int(cfg.get("r", 1))
    eps_list = _geomspace(cfg.get("eps_range", {}), 1e-10, 1e-4, 7)
    rows, ok = [], True
    for eps in sorted(eps_list, reverse=True):
        sch = ScheduleParams(n=n, eps=eps, r=r)
        mu, margins = mu_eps(sch)
        d = sch.delta_eps
        if n >= 7:
            resid = abs(d - math.sqrt(eps)) / math.sqrt(eps)
        else:
            resid = abs(d * d * math.log(1.0 / d) - eps) / eps
        ok = ok and resid <= 1e-14 and all(v < 1.0 for v in margins.values())
        rows.append((eps, d, mu, margins["lower_bound_over_mu"],
                     margins["eps_over_mu_r"], margins["mu"], resid))
    lines = [f"[{'PASS' if ok else 'FAIL'}] schedule-table n={n} r={r}: "
             f"back-substitution residual <= 1e-14, margins < 1"]
    return (rows, ("eps", "delta_eps", "mu_eps", "margin_lower_over_mu",
                   "margin_eps_over_mu_r", "margin_mu", "residual"), lines, ok)


def _exp_isolation_sweep(cfg):
    model = _model_from_spec(cfg.get("model", {}))
    eps_list = sorted(_geomspace(cfg.get("eps_range", {}), 1e-6, 1e-3, 7),
                      reverse=True)
    r = int(cfg.get("r", 0))
    seed = cfg.get("seed", None)
    Hb = build_H(int(cfg.get("k", 2)), model.n, seed=seed)
    xi0 = model.random_point(np.random.default_rng(0))
    ts = [1.0] * Hb.k
    ps = list(Hb.maxima)
    rows = []
    for eps in eps_list:
        cfg_b, sch = schedule_configuration(model, xi0, ts, ps, eps, r=r)
        rep = isolation_ratios(model, [b.center for b in cfg_b.bubbles],
                               [b.delta for b in cfg_b.bubbles], xi0)
        mu = sch.mu_eps
        rows.append((eps, sch.delta_eps, mu, rep.min_separation,
                     rep.min_sep_over_scale,
                     float(np.max(rep.dist_to_reference)), 2.0 * mu))
    ratios = [r_[4] for r_ in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    inside = all(r_[5] <= r_[6] for r_ in rows)
    ok = increasing and inside
    lines = [f"[{'PASS' if ok else 'FAIL'}] isolation-sweep k={Hb.k}: "
             f"sep/delta strictly increasing: {increasing}; "
             f"dist-to-xi0 <= 2*mu: {inside}"]
    return (rows, ("eps", "delta_eps", "mu_eps", "min_separation",
                   "min_sep_over_delta", "max_dist_to_xi0", "two_mu"),
            lines, ok)


def _exp_bump_audit(cfg):
    ks = cfg.get("ks", [1, 2, 3, 5])
    dim = int(cfg.get("dim", 6))
    seed = cfg.get("seed", None)
    rows, ok = [], True
    for k in ks:
        Hb = build_H(k, dim, seed=seed)
        rep = audit_bumps(Hb)
        good = rep["passed"]
        ok = ok and good
        rows.append((k, Hb.sigma, Hb.r_tilde, rep["n_maxima_found"],
                     int(rep["far_value_ok"]), int(rep["peak_values_ok"]),
                     int(rep["unique_local_max_ok"]),
                     int(rep["separation_ok"])))
    lines = [f"[{'PASS' if ok else 'FAIL'}] bump-audit dim={dim}: all four "
             f"invariants and exact maxima counts for k in {list(ks)}"]
    return (rows, ("k", "sigma", "r_tilde", "n_maxima_found", "far_value_ok",
                   "peak_values_ok", "unique_local_max_ok", "separation_ok"),
            lines, ok)


# each experiment's runner and the config keys it reads, the keys of its
# table in docs/config.md
_RUNNERS = {
    "flat-energy": (_exp_flat_energy, "dims radius budget threshold"),
    "expansion-sweep": (_exp_expansion_sweep,
                        "model sigma delta_range budget threshold"),
    "interaction-sweep": (_exp_interaction_sweep,
                          "n radius delta dist_range budget threshold"),
    "residual-sweep": (_exp_residual_sweep, "model delta_range budget shift "
                       "r0 log_correction slope_window"),
    "reduced-limit": (_exp_reduced_limit,
                      "model k seed t r eps_range budget threshold"),
    "schedule-table": (_exp_schedule_table, "n r eps_range"),
    "isolation-sweep": (_exp_isolation_sweep, "model k seed r eps_range"),
    "bump-audit": (_exp_bump_audit, "dim ks seed"),
}
EXPERIMENTS = tuple(_RUNNERS)
_MODEL_KEYS = {"product_spheres": "kind p q", "round_sphere": "kind n",
               "flat_ball": "kind n radius"}


def _refuse_unknown(spec, accepted, where):
    """ConfigError naming the keys of ``spec`` not in ``accepted``."""
    accepted = sorted(accepted.split())
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} "
                          f"in {where}; accepted: {', '.join(accepted)}")


def _check_keys(cfg, keys):
    """Refuse a key that the runner would ignore, such as a misspelt one.

    Checks the top level, the model spec of a known kind and the ranges;
    the values are checked where the runner reads them.
    """
    _refuse_unknown(cfg, "experiment out " + keys, "config")
    model = cfg.get("model")
    if isinstance(model, dict):
        kind = model.get("kind", "product_spheres")
        if kind in _MODEL_KEYS:
            _refuse_unknown(model, _MODEL_KEYS[kind], f"model {kind!r}")
    for key in ("delta_range", "eps_range", "dist_range"):
        if isinstance(cfg.get(key), dict):
            _refuse_unknown(cfg[key], "min max count", key)


def run(config_path, out=None, quiet=False):
    """Execute a config; returns the process exit code."""
    try:
        with open(config_path) as f:
            raw = f.read()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {config_path}: {e}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    kind = cfg.get("experiment")
    if kind not in _RUNNERS:
        print(f"error: unknown experiment kind {kind!r}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    runner, keys = _RUNNERS[kind]
    outdir = out or cfg.get("out", ".")
    t0 = time.perf_counter()
    try:
        _check_keys(cfg, keys)
        os.makedirs(outdir, exist_ok=True)
        rows, columns, lines, passed = runner(cfg)
    except CapacityError as e:
        print(f"error: capacity exceeded: {e}\nhint: raise 'budget' in the "
              f"config or coarsen the sweep", file=sys.stderr)
        return 3
    except (GeometryError, DegenerateError) as e:
        # both derive from ValueError: caught first, they are not config errors
        print(f"error: numerical or domain failure: {e}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError, KeyError, TypeError) as e:
        print(f"error: malformed config: {e}", file=sys.stderr)
        return 2
    csv_path = os.path.join(outdir, f"{kind}.csv")
    emit_csv(csv_path, columns, rows)
    summary_path = os.path.join(outdir, "summary.txt")
    with open(summary_path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "wallclock_seconds": time.perf_counter() - t0,
        "outputs": [os.path.basename(csv_path),
                    os.path.basename(summary_path)],
        "peak_rss_mb": _peak_rss_mb(),
        "version": __version__,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    if not quiet:
        for ln in lines:
            print(ln)
    return 0 if passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="blowup-lab",
        description="Multi-bubble blow-up construction experiments.")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--quiet", action="store_true")
    sub.add_parser("list-experiments", help="print known experiment kinds")
    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "run":
        return run(args.config, out=args.out, quiet=args.quiet)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
