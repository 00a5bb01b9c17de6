"""Batch front door: JSON experiment configs in, CSV/JSON artifacts out.

Usage:
    blowup-lab run --config cfg.json [--out DIR] [--quiet]
    blowup-lab list-experiments

Each run writes manifest.json, one CSV per sweep, and summary.txt with
pass/fail lines against the fixed tolerances of the acceptance criteria;
a config chooses what to compute, never how it is judged.  Exit codes:
0 ok, 1 a gate failed (artifacts still written), 2 malformed config or
unwritable out dir, 3 capacity exceeded, 4 numerical or domain failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
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
from .geometry import (CapacityError, ManifoldModel,
                       build_multicenter_quadrature, build_quadrature)
from .reduced import (ScheduleParams, _back_substitution_residual,
                      audit_bumps, build_H, mu_eps, reduced_constants,
                      reduced_limit_ratio, schedule_configuration)


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
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


_BOUNDS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}  # operator names


def _number(integer=False, **bounds):
    """Reader of a finite number within ``bounds`` (gt=0, le=1, ...), not a
    boolean; with ``integer`` an integral one (4e6 is), read as an int."""
    what = ("an integer" if integer else "a finite number") + " and".join(
        f" {_BOUNDS[b]} {v:g}" for b, v in bounds.items())

    def read(x, name, done):
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or not math.isfinite(x) or integer and x != int(x) or not all(
                    getattr(operator, b)(x, v) for b, v in bounds.items())):
            raise ConfigError(f"{name} must be {what}, not {json.dumps(x)}")
        return int(x) if integer else float(x)
    return read


def _array(item):
    """Reader of a non-empty array of ``item`` values."""
    def read(value, name, done):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be an array of one or more items")
        return [item(v, f"{name}[{i}]", done) for i, v in enumerate(value)]
    return read


def _range(lo, hi, count, fit=0, least=2, **top):
    """Reader of a geometric sweep of at least ``least`` points, 0 < min <
    max within ``top``; if its values**fit are order_fit's x, four points
    and a decade in x."""
    table = {"min": (lo, _number(gt=0)), "max": (hi, _number(gt=0, **top)),
             # at most 1000 points, over 100 times the largest shipped sweep
             "count": (count, _number(integer=True, ge=4 if fit else least,
                                      le=1000))}

    def read(spec, name, done):
        s = _read_config(spec, table, name, also=())
        if not s["min"] < s["max"] or (
                fit and fit * math.log10(s["max"] / s["min"]) < 1 - 1e-9):
            raise ConfigError(f"{name} must have min < max" + (
                f" and max/min >= {10 ** (1 / fit):.4g}" if fit else ""))
        return np.geomspace(s["min"], s["max"], s["count"])
    return read


_DIM = _number(integer=True, ge=3)
_MODELS = {"product_spheres": (ManifoldModel.product_spheres,
                               {"p": (3, _DIM), "q": (3, _DIM)}),
           "round_sphere": (ManifoldModel.round_sphere, {"n": (6, _DIM)}),
           "flat_ball": (ManifoldModel.flat_ball,
                         {"n": (6, _DIM), "radius": (100.0, _number(gt=0))})}


def _model(min_dim=3):
    """Reader of a model spec of dimension at least ``min_dim``."""
    def read(spec, name, done):
        kind = isinstance(spec, dict) and spec.get("kind", "product_spheres")
        if not isinstance(kind, str) or kind not in _MODELS:
            raise ConfigError(f"{name} must name a kind in {list(_MODELS)}")
        make, table = _MODELS[kind]
        model = make(**_read_config(spec, table, name, also=("kind",)))
        if model.n < min_dim:
            raise ConfigError(f"{name} must have dimension >= {min_dim}")
        return model
    return read


def _seed(value, name, done):
    """Reader of a bump-family seed: null, left to build_H, or an integer."""
    return None if value is None else _number(integer=True, ge=0)(
        value, name, done)


def _plateau(value, name, done):
    """Reader of residual-sweep's ``r0``: compact models fix it at the
    default cutoff radius; a flat ball's, 1.0 by default, must lie inside
    the ball."""
    if done["model"].is_compact:
        if value is not None:
            raise ConfigError(f"{name} is accepted only on a flat ball")
        return None
    if value is None:
        value, name = 1.0, f"{name} (default 1.0)"
    return _number(gt=0, lt=done["model"].radius)(value, name, done)


def _separations(value, name, done):
    """Reader of interaction-sweep's ``dist_range``: each separation d
    exceeds ``delta``, so that order_fit's x = (delta/d)^2 lies in (0, 1),
    and keeps both centres, at distance d/2 from the origin, in the ball."""
    dists = _range(0.02, 0.2, 6, fit=2)(value, name, done)
    if not done["delta"] < dists[0] or not dists[-1] / 2.0 < done["radius"]:
        raise ConfigError(
            f"{name} must have min > 'delta' = {done['delta']:g} and max < "
            f"2 * 'radius' = {2.0 * done['radius']:g}")
    return dists


def _read_config(cfg, table, where=None, also=("experiment", "out")):
    """The values of ``table``'s keys {key: (default, reader)} in ``cfg``.

    A reader takes the JSON value, its quoted key and the values read before
    it, and returns the checked value or raises ConfigError.  A key outside
    ``table`` and ``also`` is refused: a misspelt one would go unnoticed."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - set(table) - set(also))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} "
                          f"in {where or 'config'}; accepted: "
                          f"{', '.join(sorted({*table, *also}))}")
    done = {}
    for key, (default, reader) in table.items():
        done[key] = reader(cfg.get(key, default), repr(key) if where is None
                           else f"{key!r} in {where}", done)
    return done


def _rule_center(model):
    """A run's reference point: a seeded random point on compact models,
    the origin on flat balls.

    A flat ball is symmetric only about its origin; there a radial rule is
    exact and the default cutoff (r0 = radius/4) stays inside the ball.
    """
    if not model.is_compact:
        return np.zeros(model.n)
    return model.random_point(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# experiment implementations; each returns (rows, columns, lines, passed)

def _exp_flat_energy(cfg):
    tol = 1e-6  # criterion 1
    rows, lines, ok = [], [], True
    for n in cfg["dims"]:
        model = ManifoldModel.flat_ball(n, cfg["radius"])
        center = np.zeros(n)
        rule = build_quadrature(model, center, finest_scale=1.0,
                                budget=cfg["budget"], angular="radial")
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
    model, sigma, tol = cfg["model"], cfg["sigma"], 0.05  # criterion 3
    c1 = reduced_constants(model.n)[0]
    e1 = single_bubble_energy_constant(model.n)
    center = _rule_center(model)
    cutoff = CutoffSpec.for_model(model)
    h0 = PotentialField.conformal_scalar(model)
    rows = []
    for d in cfg["delta_range"]:
        rule = build_quadrature(model, center, finest_scale=d,
                                budget=cfg["budget"], angular="radial")
        u = multi_bubble_field(
            model, Configuration(bubbles=(BubbleParams(d, center),)), cutoff)
        j0 = energy(model, h0, u, rule)
        # J is affine in h: the constant shift adds sigma/2 int u^2 exactly
        half_l2 = 0.5 * float(rule.integrate(lambda pts: u(pts) ** 2))
        rows.append((d, j0, j0 + sigma * half_l2, half_l2 / (e1 * d * d)))
    coefs = np.array([r[3] for r in rows])
    fitted = float(np.median(coefs))
    dev = abs(fitted - c1) / c1
    ok = dev < tol
    lines = [f"[{'PASS' if ok else 'FAIL'}] expansion-sweep: fitted "
             f"c1={fitted:.6g} target={c1:.6g} rel_dev={dev:.3e} (< {tol:g})"]
    return rows, ("delta", "J_base", "J_shifted", "c1_estimate"), lines, ok


def _exp_interaction_sweep(cfg):
    n, delta, budget = cfg["n"], cfg["delta"], cfg["budget"]
    model = ManifoldModel.flat_ball(n, cfg["radius"])
    rows = []
    for d in cfg["dist_range"]:
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
    target, tol = (n - 2.0) / 2.0, 0.05  # criterion 5
    dev = abs(fit.slope - target) / target
    ok = dev < tol
    lines = [f"[{'PASS' if ok else 'FAIL'}] interaction-sweep n={n}: slope "
             f"{fit.slope:.4f} target {target:g} rel_dev={dev:.3e} (< {tol:g})"]
    return (rows, ("distance", "delta2_over_d2", "deviation",
                   "interaction_prediction"), lines, ok)


def _exp_residual_sweep(cfg):
    model, budget = cfg["model"], cfg["budget"]
    # criterion 6: a delta^2 log(1/delta)^(2/3) residual at n = 6
    log_b, lo, hi = (2.0 / 3.0, 1.8, 2.4) if model.n == 6 else (0.0, 1.9, 2.2)
    center = _rule_center(model)
    cutoff = (CutoffSpec.for_model(model) if model.is_compact
              else CutoffSpec(r0=cfg["r0"]))
    h = PotentialField.conformal_scalar(model).shifted(cfg["shift"])
    rows = []
    for d in cfg["delta_range"]:
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
    model, t, r, budget = cfg["model"], cfg["t"], cfg["r"], cfg["budget"]
    Hb = build_H(cfg["k"], model.n, seed=cfg["seed"])
    xi0 = _rule_center(model)
    p = Hb.maxima[0]
    # a single bump peaks at xi0, under the bubble: the integrand is radial
    angular = "radial" if Hb.k == 1 else "biradial"
    rows = []
    for eps in sorted(cfg["eps_range"], reverse=True):
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
    devs, tol = [row[5] for row in rows], 0.10  # criterion 10
    decreasing = sum(1 for a, b in zip(devs, devs[1:]) if b < a)
    ok = devs[-1] < tol and decreasing >= 3
    lines = [f"[{'PASS' if ok else 'FAIL'}] reduced-limit: final rel_dev "
             f"{devs[-1]:.3e} (< {tol:g}), {decreasing} decreases"]
    return (rows, ("eps", "delta_eps", "mu_eps", "ratio", "predicted",
                   "rel_deviation"), lines, ok)


def _exp_schedule_table(cfg):
    n, r = cfg["n"], cfg["r"]
    rows, ok = [], True
    for eps in sorted(cfg["eps_range"], reverse=True):
        sch = ScheduleParams(n=n, eps=eps, r=r)
        mu, margins = mu_eps(sch)
        d = sch.delta_eps
        resid = _back_substitution_residual(n, eps, d)
        ok = ok and resid <= 1e-14 and all(v < 1.0 for v in margins.values())
        rows.append((eps, d, mu, margins["lower_bound_over_mu"],
                     margins["eps_over_mu_r"], margins["mu"], resid))
    # criterion 8: each margin decreases strictly as eps falls
    ok = ok and all(b < a for prev, row in zip(rows, rows[1:])
                    for a, b in zip(prev[3:6], row[3:6]))
    lines = [f"[{'PASS' if ok else 'FAIL'}] schedule-table n={n} r={r}: "
             f"back-substitution residual <= 1e-14, margins < 1 and "
             f"decreasing"]
    return (rows, ("eps", "delta_eps", "mu_eps", "margin_lower_over_mu",
                   "margin_eps_over_mu_r", "margin_mu", "residual"), lines, ok)


def _exp_isolation_sweep(cfg):
    model, r = cfg["model"], cfg["r"]
    Hb = build_H(cfg["k"], model.n, seed=cfg["seed"])
    xi0 = _rule_center(model)
    ts = [1.0] * Hb.k
    ps = list(Hb.maxima)
    rows = []
    for eps in sorted(cfg["eps_range"], reverse=True):
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
    rows, ok = [], True
    for k in cfg["ks"]:
        Hb = build_H(k, cfg["dim"], seed=cfg["seed"])
        rep = audit_bumps(Hb)
        good = rep["passed"]
        ok = ok and good
        rows.append((k, Hb.sigma, Hb.sigma, rep["n_maxima_found"],
                     int(rep["far_value_ok"]), int(rep["peak_values_ok"]),
                     int(rep["unique_local_max_ok"]),
                     int(rep["separation_ok"])))
    lines = [f"[{'PASS' if ok else 'FAIL'}] bump-audit dim={cfg['dim']}: all "
             f"four invariants and exact maxima counts for k in {cfg['ks']}"]
    return (rows, ("k", "sigma", "r_tilde", "n_maxima_found", "far_value_ok",
                   "peak_values_ok", "unique_local_max_ok", "separation_ok"),
            lines, ok)


# each experiment's runner and table, whose keys are those in docs/config.md
_RUNNERS = {
    "flat-energy": (_exp_flat_energy, {
        "dims": ([6], _array(_DIM)),
        "radius": (100.0, _number(gt=0)),
        "budget": (2_000_000, _number(integer=True, ge=1))}),
    "expansion-sweep": (_exp_expansion_sweep, {
        "model": ({}, _model(6)),
        "sigma": (1e-3, _number()),
        "delta_range": ({}, _range(1e-3, 1e-2, 7, le=1)),
        "budget": (2_000_000, _number(integer=True, ge=1))}),
    "interaction-sweep": (_exp_interaction_sweep, {
        "n": (6, _DIM),
        "radius": (100.0, _number(gt=0)),
        "delta": (1e-3, _number(gt=0, le=1)),
        "dist_range": ({}, _separations),
        "budget": (4_000_000, _number(integer=True, ge=1))}),
    "residual-sweep": (_exp_residual_sweep, {
        "model": ({}, _model()),
        "delta_range": ({}, _range(1e-3, 1e-2, 6, fit=1, lt=1)),
        "budget": (2_000_000, _number(integer=True, ge=1)),
        "shift": (0.0, _number()),
        "r0": (None, _plateau)}),
    "reduced-limit": (_exp_reduced_limit, {
        "model": ({}, _model(6)),
        "k": (1, _number(integer=True, ge=1)),
        "seed": (None, _seed),
        "t": (1.0, _number(gt=0)),
        "r": (0, _number(integer=True, ge=0)),
        # criterion 10's three decreases need four points
        "eps_range": ({}, _range(1e-4, 1e-2, 5, least=4, lt=1)),
        "budget": (4_000_000, _number(integer=True, ge=1))}),
    "schedule-table": (_exp_schedule_table, {
        "n": (7, _number(integer=True, ge=6)),
        "r": (1, _number(integer=True, ge=0)),
        "eps_range": ({}, _range(1e-10, 1e-4, 7, lt=1))}),
    "isolation-sweep": (_exp_isolation_sweep, {
        "model": ({}, _model(6)),
        # one bubble has no separation to grow
        "k": (2, _number(integer=True, ge=2)),
        "seed": (None, _seed),
        "r": (0, _number(integer=True, ge=0)),
        "eps_range": ({}, _range(1e-6, 1e-3, 7, lt=1))}),
    "bump-audit": (_exp_bump_audit, {
        "dim": (6, _number(integer=True, ge=2)),
        "ks": ([1, 2, 3, 5], _array(_number(integer=True, ge=1))),
        "seed": (None, _seed)}),
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config_path, out=None, quiet=False):
    """Execute a config; returns the process exit code."""
    try:
        with open(config_path) as f:
            raw = f.read()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {config_path}: {e}", file=sys.stderr)
        return 2
    kind = cfg.get("experiment") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _RUNNERS:
        print(f"error: a config is a JSON object whose \"experiment\" is one "
              f"of {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    runner, table = _RUNNERS[kind]
    outdir = out or cfg.get("out", ".")
    t0 = time.perf_counter()
    try:
        checked = _read_config(cfg, table)
        if not isinstance(cfg.get("out", "."), str):
            raise ConfigError("'out' must be a string")
        os.makedirs(outdir, exist_ok=True)
        rows, columns, lines, passed = runner(checked)
        emit_csv(os.path.join(outdir, f"{kind}.csv"), columns, rows)
        with open(os.path.join(outdir, "summary.txt"), "w", newline="") as f:
            f.write("\n".join(lines) + "\n")
        manifest = {
            "config": cfg,
            "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
            "wallclock_seconds": time.perf_counter() - t0,
            "outputs": [f"{kind}.csv", "summary.txt"],
            "peak_rss_mb": _peak_rss_mb(),
            "version": __version__,
        }
        with open(os.path.join(outdir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    except (ConfigError, OSError) as e:
        why = ("malformed config" if isinstance(e, ConfigError)
               else f"cannot write artifacts to {outdir}")
        print(f"error: {why}: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"error: capacity exceeded: {e}\nhint: raise 'budget' in the "
              f"config or coarsen the sweep", file=sys.stderr)
        return 3
    except ValueError as e:
        # GeometryError, DegenerateError and the library's domain checks
        print(f"error: numerical or domain failure: {e}", file=sys.stderr)
        return 4
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
