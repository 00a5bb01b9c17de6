"""Diagnostics: slope fits, peak extraction, isolation metrics."""

import math

import numpy as np
import pytest

from blowup_lab import diagnostics, geometry
from blowup_lab.bubble import (
    BubbleParams,
    Configuration,
    CutoffSpec,
    multi_bubble_field,
)
from blowup_lab.diagnostics import (
    _FITS,
    extract_peaks,
    isolation_ratios,
    order_fit,
)

from models import base_point, pp

RNG = np.random.default_rng(17)


class TestOrderFit:
    def test_exact_power(self):
        xs = np.geomspace(1e-3, 1e-1, 8)
        fit = order_fit(xs, 3.0 * xs**2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-10)
        assert fit.residual_rms < 1e-12

    def test_log_correction_separates_branches(self):
        xs = np.geomspace(1e-4, 1e-2, 10)
        ys = xs**4 * np.log(1.0 / xs)
        plain = order_fit(xs, ys)
        corrected = order_fit(xs, ys, log_correction=1.0)
        assert abs(corrected.slope - 4.0) < 1e-12
        assert abs(plain.slope - 4.0) > 0.05

    def test_contract_errors(self):
        xs = np.geomspace(1e-3, 1e-1, 6)
        with pytest.raises(ValueError):
            order_fit(xs[:3], xs[:3])  # too few samples
        with pytest.raises(ValueError):
            order_fit(np.linspace(0.01, 0.02, 6),
                      np.ones(6))  # less than a decade
        with pytest.raises(ValueError):
            order_fit(xs, np.zeros(6))  # zero values
        with pytest.raises(ValueError):
            order_fit(np.linspace(0.5, 5.0, 6), np.ones(6))  # x outside (0,1)

    @pytest.mark.parametrize("bad", ["xs", "ys"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused(self, capfd, bad, value):
        # a NaN x passes every range check, and LAPACK prints to stderr on
        # a NaN or inf sample
        samples = {"xs": np.geomspace(1e-3, 1e-1, 6), "ys": np.ones(6)}
        samples[bad][2] = value
        with pytest.raises(ValueError, match="must be finite"):
            order_fit(**samples)
        assert capfd.readouterr() == ("", "")


class TestIsolation:
    def test_two_peak_report(self):
        m = pp()
        xi = base_point(m)
        v = RNG.standard_normal(m.n) @ m.tangent_frame(xi)
        v /= np.linalg.norm(v)
        other = m.exp(xi, 0.2 * v)
        rep = isolation_ratios(m, [xi, other], [1e-3, 2e-3], xi)
        assert rep.min_separation == pytest.approx(0.2, rel=1e-10)
        assert rep.min_sep_over_scale == pytest.approx(0.2 / 2e-3, rel=1e-10)
        assert rep.dist_to_reference[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.dist_to_reference[1] == pytest.approx(0.2, rel=1e-10)

    def test_single_peak_has_infinite_separation(self):
        m = pp()
        rep = isolation_ratios(m, [base_point(m)], [1e-3], base_point(m))
        assert math.isinf(rep.min_separation)


def _planted_with_grid(model, xi0, delta, seed):
    """One planted bubble and a criterion-11 style search grid: 50 coarse
    tangent points plus one within 1.5 delta of the bubble."""
    rng = np.random.default_rng(seed)
    frame = model.tangent_frame(xi0)
    y = rng.uniform(-0.6, 0.6, size=6)
    center = model.exp(xi0, y @ frame)
    u = multi_bubble_field(
        model, Configuration(bubbles=(BubbleParams(delta, center),)),
        CutoffSpec.for_model(model))
    grid = np.vstack([rng.uniform(-0.8, 0.8, size=(50, 6)),
                      y + rng.uniform(-1.5, 1.5, size=(1, 6)) * delta])
    return u, center, grid


class TestExtractPeaks:
    def test_field_call_budget(self):
        # each profile fit is one field call of 2n + 1 points: a k=1 case
        # costs a handful of calls
        m = pp()
        xi0 = base_point(m)
        delta = 5e-3
        u, center, grid = _planted_with_grid(m, xi0, delta, seed=3)
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return u(pts)

        rep = extract_peaks(m, counted, xi0, k_max=3, search_grid=grid)
        assert len(calls) <= 20
        assert not rep.failed
        assert rep.k == 1
        assert m.distance(rep.centers[0], center) < 0.1 * delta
        assert abs(rep.scales[0] - delta) < 0.01 * delta

    def test_polish_accuracy(self):
        m = pp()
        xi0 = base_point(m)
        delta = 5e-3
        u, center, grid = _planted_with_grid(m, xi0, delta, seed=4)
        rep = extract_peaks(m, u, xi0, k_max=3, search_grid=grid)
        assert not rep.failed
        assert rep.k == 1
        assert m.distance(rep.centers[0], center) < 1e-8 * delta
        assert abs(rep.scales[0] - delta) < 1e-8 * delta
        assert type(rep.scales[0]) is float
        assert type(rep.heights[0]) is float

        def flat(pts):
            return np.zeros(np.shape(pts)[:-1])

        rep = extract_peaks(m, flat, xi0, search_grid=grid)
        assert rep.failed
        assert rep.k == 0

    def test_constant_field_has_no_peak(self):
        # a positive field with no bubble-shaped maximum is a failure, not
        # a peak per grid point
        m = pp()
        xi0 = base_point(m)
        _, _, grid = _planted_with_grid(m, xi0, 5e-3, seed=3)

        def constant(pts):
            return np.full(np.shape(pts)[:-1], 2.0)

        rep = extract_peaks(m, constant, xi0, search_grid=grid)
        assert rep.failed
        assert rep.k == 0
        assert "no bubble-shaped maximum" in rep.message

    def test_search_grid_shape_checked(self):
        # a k_max passed in the old fourth positional slot fails loudly
        m = pp()
        with pytest.raises(ValueError, match="search_grid"):
            extract_peaks(m, lambda pts: np.ones(len(pts)), base_point(m), 3)

    @pytest.mark.parametrize("bad, message", [
        (np.empty((0, 6)), "search_grid has no rows"),
        (np.array([[0.0] * 6, [0.01, math.nan, 0.0, 0.0, 0.0, 0.0]]),
         "search_grid must be finite"),
    ], ids=["empty", "nan-row"])
    def test_bad_search_grid_rejected_before_any_field_call(self, bad,
                                                           message):
        m = pp()
        calls = []

        def u(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        with pytest.raises(ValueError, match=message):
            extract_peaks(m, u, base_point(m), search_grid=bad)
        assert calls == []

    @staticmethod
    def _two_planted(m, xi0):
        frame = m.tangent_frame(xi0)
        ys = (0.4 * np.eye(6)[0], -0.5 * np.eye(6)[1])
        c1, c2 = (m.exp(xi0, y @ frame) for y in ys)
        cfg = Configuration(bubbles=(BubbleParams(4e-3, c1),
                                     BubbleParams(6e-3, c2)), K=10.0)
        u = multi_bubble_field(m, cfg, CutoffSpec.for_model(m))
        # coarse background plus one sample within ~delta of each peak
        rng = np.random.default_rng(5)
        grid = np.vstack([rng.uniform(-0.8, 0.8, size=(50, 6))]
                         + [y + rng.uniform(-1.5, 1.5, size=(1, 6)) * b.delta
                            for y, b in zip(ys, cfg.bubbles)])
        return cfg, u, grid

    def test_two_peaks(self):
        m = pp()
        xi0 = base_point(m)
        cfg, u, grid = self._two_planted(m, xi0)
        rep = extract_peaks(m, u, xi0, k_max=4, search_grid=grid)
        assert not rep.failed
        assert rep.k == 2
        got = sorted(zip(rep.scales, rep.centers))
        for (s, c), b in zip(got, cfg.bubbles):
            assert m.distance(c, b.center) < 0.1 * b.delta
            assert abs(s - b.delta) < 0.01 * b.delta

    def test_one_grid_call_per_extraction(self):
        # the grid is sampled once and each accepted peak subtracted from
        # it; the last candidate's grid maximum is residual_sup
        m = pp()
        xi0 = base_point(m)
        _, u, grid = self._two_planted(m, xi0)
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return u(pts)

        rep = extract_peaks(m, counted, xi0, k_max=4, search_grid=grid)
        assert rep.k == 2
        assert calls.count(len(grid)) == 1
        pts = m.exp(xi0, grid @ m.tangent_frame(xi0))
        kappa, power = math.sqrt(m.n * (m.n - 2.0)), (m.n - 2.0) / 2.0
        rest = u(pts)
        for c, s in zip(rep.centers, rep.scales):
            rest = rest - (kappa * s / (s**2 + m.distance(pts, c)**2)) ** power
        assert rep.residual_sup == max(float(np.max(rest)), 0.0)


def _qr_fit_peak(model, f, c, s, cap):
    """The profile fit with a QR-factorised tangent frame at every centre:
    the reference that the transported frames of
    :func:`blowup_lab.diagnostics._fit_peak` are checked against."""
    n = model.n
    kappa = math.sqrt(n * (n - 2.0))
    axes = np.vstack([np.zeros(n), np.eye(n), -np.eye(n)])
    for _ in range(_FITS):
        frame = model.tangent_frame(c)
        vals = np.asarray(f(model.exp(c, (s * axes) @ frame)), dtype=float)
        if not np.all(vals > 0.0):
            return None
        w = vals ** (-2.0 / (n - 2.0))
        a = (np.mean(w[1:]) - w[0]) / s**2
        b = (w[1:n + 1] - w[n + 1:]) / (2.0 * s)
        if not (kappa * a * cap > 1.0 and np.linalg.norm(b) < 2.0 * a * cap):
            return None
        z = -b / (2.0 * a)
        delta = float(1.0 / (kappa * a))
        c = model.exp(c, z @ frame)
        if np.linalg.norm(z) < 1e-10 * s:
            break
        s = delta
    return c, delta, float(vals[0])


class TestTransportedFrames:
    """Each fit carries its stencil frame along by parallel transport;
    the one frame an extraction factorises is xi0's."""

    def test_one_frame_factorised_per_extraction(self, criterion_11_cases,
                                                 monkeypatch):
        model, xi0, cases = criterion_11_cases
        spheres = sum(sphere for _, _, sphere in model._factors)
        calls = []
        qr = geometry._orthonormal_complement

        def counted(u):
            calls.append(u)
            return qr(u)

        monkeypatch.setattr(geometry, "_orthonormal_complement", counted)
        for k, _, u, grid in cases[:6]:
            calls.clear()
            rep = extract_peaks(model, u, xi0, k_max=k + 2, search_grid=grid)
            assert rep.k == k
            assert len(calls) == spheres

    def test_criterion_11_matches_a_frame_per_fit(self, criterion_11_cases,
                                                  monkeypatch):
        model, xi0, cases = criterion_11_cases

        def reports():
            return [extract_peaks(model, u, xi0, k_max=k + 2,
                                  search_grid=grid)
                    for k, _, u, grid in cases]

        got = reports()
        monkeypatch.setattr(diagnostics, "_fit_peak",
                            lambda model, f, c, s, cap, frame:
                            _qr_fit_peak(model, f, c, s, cap))
        want = reports()
        for g, w in zip(got, want):
            assert (g.k, g.failed) == (w.k, w.failed)
            for cg, cw, sg, sw in zip(g.centers, w.centers, g.scales,
                                      w.scales):
                assert model.distance(cg, cw) < 1e-10 * sw
                assert abs(sg - sw) < 1e-10 * sw
