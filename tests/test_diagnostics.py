"""Diagnostics: slope fits, peak extraction, isolation metrics."""

import math

import numpy as np
import pytest

from blowup_lab.bubble import (
    BubbleParams,
    Configuration,
    CutoffSpec,
    multi_bubble_field,
)
from blowup_lab.diagnostics import (
    extract_peaks,
    isolation_ratios,
    order_fit,
)
from blowup_lab.geometry import ManifoldModel

RNG = np.random.default_rng(17)


def _pp():
    return ManifoldModel.product_spheres(3, 3)


def _base(model):
    x = np.zeros(model.ambient_dim)
    x[0] = 1.0
    x[model.p + 1] = 1.0
    return x


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


class TestIsolation:
    def test_two_peak_report(self):
        m = _pp()
        xi = _base(m)
        v = m.random_tangent(RNG, xi)
        v /= np.linalg.norm(v)
        other = m.exp(xi, 0.2 * v)
        rep = isolation_ratios(m, [xi, other], [1e-3, 2e-3], xi)
        assert rep.min_separation == pytest.approx(0.2, rel=1e-10)
        assert rep.min_sep_over_scale == pytest.approx(0.2 / 2e-3, rel=1e-10)
        assert rep.dist_to_reference[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.dist_to_reference[1] == pytest.approx(0.2, rel=1e-10)

    def test_single_peak_has_infinite_separation(self):
        m = _pp()
        rep = isolation_ratios(m, [_base(m)], [1e-3], _base(m))
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
        m = _pp()
        xi0 = _base(m)
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
        m = _pp()
        xi0 = _base(m)
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
        m = _pp()
        xi0 = _base(m)
        _, _, grid = _planted_with_grid(m, xi0, 5e-3, seed=3)

        def constant(pts):
            return np.full(np.shape(pts)[:-1], 2.0)

        rep = extract_peaks(m, constant, xi0, search_grid=grid)
        assert rep.failed
        assert rep.k == 0
        assert "no bubble-shaped maximum" in rep.message

    def test_search_grid_shape_checked(self):
        # a k_max passed in the old fourth positional slot fails loudly
        m = _pp()
        with pytest.raises(ValueError, match="search_grid"):
            extract_peaks(m, lambda pts: np.ones(len(pts)), _base(m), 3)

    def test_two_peaks(self):
        m = _pp()
        xi0 = _base(m)
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
        rep = extract_peaks(m, u, xi0, k_max=4, search_grid=grid)
        assert not rep.failed
        assert rep.k == 2
        got = sorted(zip(rep.scales, rep.centers))
        for (s, c), b in zip(got, cfg.bubbles):
            assert m.distance(c, b.center) < 0.1 * b.delta
            assert abs(s - b.delta) < 0.01 * b.delta
