#!/usr/bin/env python3
"""Observed temporal order across the rho_inf family, printed as a table.

Second-order accuracy holds for every rho_inf; violating the gamma relation
by an offset drops the order to one.  Both regimes are shown.
"""

import numpy as np

from genalpha import GenAlphaParams, observed_order, params_from_rho_inf
from genalpha.odes import ScalarLinear

DT_VALUES = (0.1, 0.05, 0.025, 0.0125)


def main():
    system = ScalarLinear(-1.0)
    print(f"{'rho_inf':>8s} {'gamma offset':>13s} {'observed order':>15s}")
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = observed_order(system, 1.0, DT_VALUES, params_from_rho_inf(rho))
        print(f"{rho:8.2f} {0.0:13.2f} {rep.observed_order:15.4f}")
    for offset in (0.1, 0.25):
        base = params_from_rho_inf(0.5)
        params = GenAlphaParams(base.alpha_m, base.alpha_f, base.gamma + offset)
        rep = observed_order(system, 1.0, DT_VALUES, params)
        print(f"{0.5:8.2f} {offset:13.2f} {rep.observed_order:15.4f}")


if __name__ == "__main__":
    main()
