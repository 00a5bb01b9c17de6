"""End-to-end acceptance gates for the blow-up construction.

Each test prints one [PASS]/[FAIL] line (run with -s to see them) and then
asserts on the same condition, so a red test always comes with the measured
numbers.  Tolerances are pinned; do not loosen them to make a failure go
away.
"""

import json
import time
from pathlib import Path

import numpy as np

from blowup_lab import cli
from blowup_lab.bubble import (BubbleParams, Configuration, CutoffSpec,
                               multi_bubble_field)
from blowup_lab.diagnostics import extract_peaks, order_fit
from blowup_lab.functional import (PotentialField, critical_exponent,
                                   lebesgue_norm, residual_norm,
                                   single_bubble_energy_constant)
from blowup_lab.geometry import ManifoldModel, build_quadrature
from blowup_lab.reduced import (ReducedEnergyParams,
                                _back_substitution_residual, build_H,
                                delta_eps, F_n_critical, F_n_eval,
                                reduced_constants)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _run(name, tolerance, **override):
    """Run configs/<name>.json, ``override`` applied, as the CLI does: the
    checked config, the CSV columns as arrays by name, and whether it passed
    with a summary line naming ``tolerance``, so neither side loosens alone."""
    cfg = {**json.loads((CONFIGS / f"{name}.json").read_text()), **override}
    runner, table = cli._RUNNERS[cfg["experiment"]]
    checked = cli._read_config(cfg, table)
    rows, columns, lines, passed = runner(checked)
    return (checked, dict(zip(columns, map(np.array, zip(*rows)))),
            passed and any(tolerance in line for line in lines))


def test_criterion_1_flat_energy_constant():
    # J_0(W_{1,0}) on a large flat ball matches E1 to 1e-6 in < 10 s per n.
    tol, ok, details = 1e-6, True, []
    for n in json.loads((CONFIGS / "flat_energy.json").read_text())["dims"]:
        t0 = time.perf_counter()
        _, cols, passed = _run("flat_energy", f"(< {tol:g})", dims=[n])
        dt = time.perf_counter() - t0
        dev = cols["rel_deviation"][0]
        ok = ok and passed and dev < tol and dt < 10.0
        details.append(f"n={n} rel_dev={dev:.3e} ({dt:.1f}s)")
    _report(1, ok, "flat bubble energy vs closed form, "
            + ", ".join(details) + f" (tol {tol:g}, < 10 s each)")


def test_criterion_2_exact_solution_residual():
    # The uncut delta = 1 bubble solves the flat equation; the measured
    # residual must vanish relative to the natural norm of U^{2*-1}.
    model = ManifoldModel.flat_ball(6, 100.0)
    center = np.zeros(6)
    rule = build_quadrature(model, center, finest_scale=1.0,
                            budget=2_000_000, angular="radial")
    h = PotentialField.constant(model, 0.0)
    cfg = Configuration(bubbles=(BubbleParams(1.0, center),))
    cutoff = CutoffSpec.none()
    r = residual_norm(model, h, cfg, cutoff, rule)
    u = multi_bubble_field(model, cfg, cutoff)
    scale = lebesgue_norm(
        model, rule, lambda pts: u(pts) ** (critical_exponent(6) - 1.0))
    ok = r < 1e-6 * scale
    _report(2, ok, f"exact-solution residual {r:.3e} < 1e-6 * {scale:.6g}")


def test_criterion_3_energy_expansion_coefficient():
    # A shift sigma of h adds exactly sigma/2 int u^2 to J, which is affine
    # in h; c1_estimate divides it by E1 sigma delta^2 (c1 = 5/4 at n = 6).
    tol = 0.05
    cfg, cols, passed = _run("expansion_sweep", f"(< {tol:g})")
    c1 = reduced_constants(cfg["model"].n)[0]
    fitted = float(np.median(cols["c1_estimate"]))
    dev = abs(fitted - c1) / c1
    _report(3, passed and dev < tol, f"fitted c1={fitted:.6g} vs {c1:g}, "
            f"rel_dev={dev:.3e} (< 5%)")


def test_criterion_4_quartic_deviation_order():
    # J_0/E1 - 1 decays like delta^4 ln(1/delta): the runner gates only
    # criterion 3, so this slope is gated here alone; its prefactor is not.
    cfg, cols, passed = _run("expansion_sweep", "")
    e1 = single_bubble_energy_constant(cfg["model"].n)
    fit = order_fit(cols["delta"], np.abs(cols["J_base"] / e1 - 1.0),
                    log_correction=1.0)
    _report(4, passed and 3.7 <= fit.slope <= 4.3,
            f"log-corrected slope {fit.slope:.4f} in [3.7, 4.3]; "
            f"prefactor {fit.prefactor:.4g} vs |W|^2/64 = "
            f"{cfg['model'].weyl_norm_sq() / 64.0:.4g} (informational)")


def test_criterion_5_two_bubble_interaction():
    # The two-bubble energy deviation scales like (delta^2/d^2)^((n-2)/2).
    tol, ok, details = 0.05, True, []
    for name in ("interaction_sweep", "interaction_sweep_n7"):
        cfg, cols, passed = _run(name, f"(< {tol:g})")
        fit = order_fit(cols["delta2_over_d2"], cols["deviation"])
        target = (cfg["n"] - 2.0) / 2.0
        ok = ok and passed and abs(fit.slope - target) / target < tol
        details.append(f"n={cfg['n']} slope {fit.slope:.4f} vs {target:g}")
    _report(5, ok, ", ".join(details) + " (rel dev < 5%)")


def test_criterion_6_residual_decay():
    # Residual orders: delta^2 (ln 1/delta)^(2/3) on the 6-dimensional
    # product, delta^2 on a shifted 7-ball (r0 = 4 mutes a delta^(5/2) term).
    ok, details = True, []
    for name, log_b, lo, hi in (("residual_sweep", 2.0 / 3.0, 1.8, 2.4),
                                ("residual_sweep_n7", 0.0, 1.9, 2.2)):
        cfg, cols, passed = _run(name, f"window [{lo}, {hi}]")
        fit = order_fit(cols["delta"], cols["residual_norm"],
                        log_correction=log_b)
        ok = ok and passed and lo <= fit.slope <= hi
        details.append(f"n={cfg['model'].n} {'log-corrected ' * bool(log_b)}"
                       f"slope {fit.slope:.4f} in [{lo}, {hi}]")
    _report(6, ok, "; ".join(details))


def test_criterion_7_reduced_maximum_closed_form():
    # F_n_critical must agree with direct grid maximization of F_n over t
    # to 1e-8 in both location and value, across random parameters.
    rng = np.random.default_rng(7)
    worst_t, worst_v = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(6, 11))
        weyl = float(rng.uniform(0.5, 20.0))
        Hb = build_H(1, 6, seed=int(rng.integers(0, 2**31)))
        params = ReducedEnergyParams(n=n, weyl_sq=weyl, H=Hb)
        t_star, p_star, value = F_n_critical(params)
        h_val = float(Hb.peak_values()[0])

        def f(ts):
            return np.array([F_n_eval(params, float(t), H_value=h_val)
                             for t in np.atleast_1d(ts)])

        grid = np.linspace(0.05 * t_star, 3.0 * t_star, 400)
        t_ref = float(grid[np.argmax(f(grid))])
        for width in (1e-3, 1e-6):
            tw = t_ref + width * t_star * np.linspace(-1.0, 1.0, 9)
            coef = np.polyfit(tw - t_ref, f(tw), 2)
            t_ref = t_ref - coef[1] / (2.0 * coef[0])
        v_ref = float(f(t_ref)[0])
        worst_t = max(worst_t, abs(t_star - t_ref) / t_star)
        worst_v = max(worst_v, abs(value - v_ref) / abs(v_ref))
    ok = worst_t <= 1e-8 and worst_v <= 1e-8
    _report(7, ok, f"50 random (n, |W|^2, H): max rel err t*={worst_t:.2e}, "
            f"value={worst_v:.2e} (<= 1e-8)")


def test_criterion_8_schedules():
    # delta(eps) back-substitutes into its defining relation to 1e-14, and
    # every smallness margin of the mu schedule stays below 1 and decreases
    # along eps = 10^-j, j = 4..12, for (n, r) = (7, 1) and (6, 0).
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 11))
        eps = float(10.0 ** rng.uniform(-12.0, -1.0))
        d = delta_eps(n, eps)
        worst = max(worst, _back_substitution_residual(n, eps, d))
    ok, details = worst <= 1e-14, []

    for name in ("schedule_table", "schedule_table_n6"):
        cfg, cols, passed = _run(name, "margins < 1 and decreasing")
        margins = np.array([cols["margin_lower_over_mu"],
                            cols["margin_eps_over_mu_r"], cols["margin_mu"]])
        # the runner walks the sweep from the largest eps down
        decades = np.allclose(cols["eps"], 10.0 ** -np.arange(4.0, 13.0),
                              rtol=1e-12, atol=0.0)
        ok = (ok and passed and decades and np.all(margins < 1.0)
              and np.all(np.diff(margins, axis=1) < 0)
              and np.all(cols["residual"] <= 1e-14))
        details.append(f"n={cfg['n']} r={cfg['r']} largest margin "
                       f"{margins.max():.3g}")
    _report(8, ok, f"back-substitution max rel residual {worst:.2e} "
            f"(<= 1e-14); margins < 1 and decreasing for eps = 10^-j, "
            f"j = 4..12: " + ", ".join(details))


def test_criterion_9_bump_family_invariants():
    # build_H output passes the audit (far value, peak values, unique local
    # maxima under a sigma/20 scan, separation) with exactly k maxima.
    _, cols, passed = _run("bump_audit", "exact maxima counts")
    good = np.all([cols["n_maxima_found"] == cols["k"], cols["far_value_ok"],
                   cols["peak_values_ok"], cols["unique_local_max_ok"],
                   cols["separation_ok"]], axis=0)
    _report(9, passed and good.all(), "; ".join(
        f"k={k}: {m} maxima, audit {'ok' if g else 'FAILED'}"
        for k, m, g in zip(cols["k"], cols["n_maxima_found"], good)))


def test_criterion_10_reduced_energy_limit():
    # The normalized energy of the scheduled one-bubble configuration
    # converges to F_6(t, p) as eps -> 0.
    tol = 0.10
    _, cols, passed = _run("reduced_limit", f"(< {tol:g})")
    devs = cols["rel_deviation"]
    decreasing = int(np.sum(np.diff(devs) < 0))
    _report(10, passed and devs[-1] < tol and decreasing >= 3,
            f"final rel_dev {devs[-1]:.3e} (< 10%), {decreasing} decreases "
            f"along eps {cols['eps'][0]:g} -> {cols['eps'][-1]:g}")


def test_criterion_11_peak_extraction_suite(criterion_11_cases):
    # Randomized synthetic fields: extract_peaks recovers every bubble with
    # center error < 0.1 delta and scale error < 1%, 100 cases out of 100.
    model, xi0, cases = criterion_11_cases
    failures = []
    for case, (k, cfg, u, grid) in enumerate(cases):
        rep = extract_peaks(model, u, xi0, k_max=k + 2, search_grid=grid)
        good = (not rep.failed) and rep.k == k
        if good:
            used = [False] * k
            for c, s in zip(rep.centers, rep.scales):
                cand = [(float(model.distance(c, b.center)), j)
                        for j, b in enumerate(cfg.bubbles) if not used[j]]
                dist, j = min(cand)
                b = cfg.bubbles[j]
                used[j] = True
                good = good and dist < 0.1 * b.delta
                good = good and abs(s - b.delta) < 0.01 * b.delta
        if not good:
            failures.append(case)
    ok = not failures
    _report(11, ok, f"{100 - len(failures)}/100 synthetic fields recovered "
            f"(center < 0.1 delta, scale < 1%); failures: {failures}")


def test_criterion_12_isolation_along_schedule():
    # Along the two-bubble schedule the separation-to-scale ratio grows
    # strictly as eps -> 0 while both bubbles stay within 2 mu of xi0.
    _, cols, passed = _run("isolation_sweep", "dist-to-xi0 <= 2*mu")
    ratios = cols["min_sep_over_delta"]
    increasing = bool(np.all(np.diff(ratios) > 0))
    inside = bool(np.all(cols["max_dist_to_xi0"] <= 2.0 * cols["mu_eps"]))
    _report(12, passed and increasing and inside, f"sep/delta strictly "
            f"increasing as eps falls: {increasing} ({ratios[0]:.3g} -> "
            f"{ratios[-1]:.3g}); dist to xi0 <= 2 mu: {inside}")
