"""Models and reference points shared by several test modules."""

import numpy as np

from blowup_lab.geometry import ManifoldModel


def pp():
    """S^3 x S^3, the product most tests run on."""
    return ManifoldModel.product_spheres(3, 3)


def base_point(model):
    """A fixed point of any model: e1 on each sphere factor, the origin of a
    flat ball."""
    x = np.zeros(model.ambient_dim)
    if model.kind == "product_spheres":
        x[0] = 1.0
        x[model.p + 1] = 1.0
    elif model.kind == "round_sphere":
        x[0] = 1.0
    return x
