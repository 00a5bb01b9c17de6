"""Inputs shared by several test modules."""

import numpy as np
import pytest

from blowup_lab.bubble import (BubbleParams, Configuration, CutoffSpec,
                               multi_bubble_field)

from models import base_point, pp


@pytest.fixture(scope="session")
def criterion_11_cases():
    """Criterion 11's 100 synthetic peak-extraction cases on S^3 x S^3.

    Returns (model, xi0, cases), each case (k, cfg, u, grid): k = 1, 2, 3
    in turn, bubbles with delta uniform on [3e-3, 1e-2] centred at tangent
    coordinates in [-0.6, 0.6]^6 at least 0.2 apart, the field u of cfg,
    and a search grid standing in for a solver mesh: 50 coarse tangent
    points plus one within ~delta of each bubble.  Drawn from rng 2026.
    """
    model = pp()
    xi0 = base_point(model)
    frame = model.tangent_frame(xi0)
    rng = np.random.default_rng(2026)
    cases = []
    for case in range(100):
        k = 1 + case % 3
        ys = []
        while len(ys) < k:
            y = rng.uniform(-0.6, 0.6, size=6)
            if all(np.linalg.norm(y - q) > 0.2 for q in ys):
                ys.append(y)
        deltas = rng.uniform(3e-3, 1e-2, size=k)
        centers = [model.exp(xi0, y @ frame) for y in ys]
        cfg = Configuration(bubbles=tuple(
            BubbleParams(d, c) for d, c in zip(deltas, centers)), K=10.0)
        u = multi_bubble_field(model, cfg, CutoffSpec.for_model(model))
        grid = list(rng.uniform(-0.8, 0.8, size=(50, 6)))
        for y, d in zip(ys, deltas):
            grid.append(y + rng.uniform(-1.5, 1.5, size=6) * d)
        cases.append((k, cfg, u, np.array(grid)))
    return model, xi0, cases
