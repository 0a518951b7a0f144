"""Generalized-alpha time integration with discrete balance-law auditing."""

from .audit import BalanceLedger, LedgerReport
from .errors import AdmissibilityError, ConfigurationError, NewtonConvergenceError
from .integrator import (GenAlphaParams, NewtonSettings, SecondOrderState,
                         StatePair, consistent_initial_acceleration,
                         consistent_initial_rate, integrate, make_params,
                         midpoint_identity_residual, params_from_rho_inf,
                         second_order_identity_residual, shifted_state, step,
                         step_second_order)
from .linear_analysis import (AmplificationMatrix, ConvergenceReport,
                              amplification_matrix, observed_order,
                              spectral_radius)

__all__ = [
    "AdmissibilityError",
    "AmplificationMatrix",
    "BalanceLedger",
    "ConfigurationError",
    "ConvergenceReport",
    "GenAlphaParams",
    "LedgerReport",
    "NewtonConvergenceError",
    "NewtonSettings",
    "SecondOrderState",
    "StatePair",
    "amplification_matrix",
    "consistent_initial_acceleration",
    "consistent_initial_rate",
    "integrate",
    "make_params",
    "midpoint_identity_residual",
    "observed_order",
    "params_from_rho_inf",
    "second_order_identity_residual",
    "shifted_state",
    "spectral_radius",
    "step",
    "step_second_order",
]
