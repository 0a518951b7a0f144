"""Small model ODE systems used by diagnostics and experiments."""

from __future__ import annotations

import numpy as np


class ScalarLinear:
    """u̇ = lam*u as a residual system: R = u̇ - lam*u.

    `lam` may be complex, in which case states are complex as well.  Carries
    the exact solution exp(lam*t), from u(0) = 1, for convergence studies.
    """

    def __init__(self, lam):
        self.lam = lam
        self._dtype = np.result_type(type(lam), float)

    def residual(self, u_dot, u, t):
        return u_dot - self.lam * u

    def iteration_matrix(self, c_dot, c_u, u_dot, u, t):
        return np.array([[c_dot - c_u * self.lam]], dtype=self._dtype)

    def exact(self, t: float) -> np.ndarray:
        return np.atleast_1d(np.exp(self.lam * t))


class HarmonicOscillator:
    """R = ü + u, the scalar second-order test problem (angular frequency 1)."""

    def residual(self, u_ddot, u_dot, u, t):
        return u_ddot + u

    def iteration_matrix(self, c_ddot, c_dot, c_u, u_ddot, u_dot, u, t):
        return np.array([[c_ddot + c_u]])
