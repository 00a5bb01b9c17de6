"""Numerical laboratory for multi-bubble blow-up constructions.

Builds multi-bubble approximate solutions of the critical equation
Delta_g u + h u = u^(2*-1) on model manifolds (products of round spheres,
round spheres, flat balls) and verifies the explicit formulas of the
finite-dimensional reduction by quadrature: energy expansions, interaction
estimates, residual orders, reduced-energy critical points, parameter
schedules, and peak-separation diagnostics.
"""

__version__ = "0.1.0"

from .geometry import (CapacityError, GeometryError, ManifoldModel,
                       QuadratureRule, build_multicenter_quadrature,
                       build_quadrature, sphere_volume,
                       weyl_tensor_from_riemann, riemann_product_spheres)
from .bubble import (BubbleField, BubbleParams, Configuration, CutoffSpec,
                     SumField, is_admissible, multi_bubble_field)
from .functional import (EnergyBreakdown, PotentialField, conformal_coupling,
                         critical_exponent, energy, energy_split,
                         interaction_term, lebesgue_norm, residual_field,
                         residual_norm, single_bubble_energy_constant)
from .reduced import (BumpFunction, DegenerateError, F_n_critical, F_n_eval,
                      ReducedEnergyParams, ScheduleParams, audit_bumps,
                      build_H, delta_eps, h_eps_perturbation, mu_eps,
                      reduced_constants, reduced_limit_ratio,
                      schedule_configuration)
from .diagnostics import (IsolationReport, PeakReport, SlopeFit,
                          extract_peaks, isolation_ratios, order_fit)
