"""Quadrature oracle for the rate-table increments.

The rate tables grow lambda_b and gamma_b from closed-form moments.  The
functions here integrate the increments against the measure by adaptive
quadrature (`measure.integrate_vector`), independently of the tables:

    lambda_{b+1} - lambda_b = integral b (1-x)^(b-1) dL(x)
    gamma_{b+1}  - gamma_b  = integral (1 - (1-x)^b) / x dL(x)
"""

from __future__ import annotations

import math

import numpy as np

from spatial_coalescent.measure import QuadratureConfig, integrate_vector

ORACLE_QUADRATURE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12)


def integrate_scalar(f, measure, config=ORACLE_QUADRATURE):
    """(value, error bound) of the integral of a scalar f against the
    measure, as a one-element `integrate_vector` call."""
    val, err = integrate_vector(lambda x: np.array([f(x)]), measure, config)
    return float(val[0]), err


def lambda_increment_integral(measure, b: int) -> float:
    """integral b (1-x)^(b-1) dL(x), which equals lambda_{b+1} - lambda_b."""
    def f(x):
        if x == 1.0:
            return 0.0 if b > 1 else float(b)
        return b * math.exp((b - 1) * math.log1p(-x))
    return integrate_scalar(f, measure)[0]


def gamma_increment_integral(measure, b: int) -> float:
    """integral (1 - (1-x)^b) / x dL(x), which equals gamma_{b+1} - gamma_b."""
    def f(x):
        if x == 0.0:
            return float(b)
        return -math.expm1(b * math.log1p(-x)) / x
    return integrate_scalar(f, measure)[0]
