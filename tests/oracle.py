"""Reference implementations that only the tests use.

`eval_harmonic` evaluates Y_k^{d,n} level by level, straight from the product
formula, with none of the table sharing of `harmonics.ExpansionEvaluator`, so
it stays an independent check of that kernel.
"""

import math

import numpy as np

from sphereframe.errors import ExactnessError, IndexSetError
from sphereframe.harmonics import cartesian_to_spherical
from sphereframe.specfun import gegenbauer_table, log_norm_A, validate_multi_index


def eval_harmonic(d: int, n: int, k, theta):
    """Y_k^{d,n} at spherical points, shape (d-1,) or (M, d-1)."""
    k = validate_multi_index(d, n, k)
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    pts = theta[None, :] if single else theta
    amp = math.exp(log_norm_A(d, n, k))
    chain = (n,) + k
    val = np.full(pts.shape[0], amp, dtype=complex)
    if k[-1] != 0:
        val = val * np.exp(1j * k[-1] * pts[:, 0])
    for j in range(d - 2):
        a = abs(chain[j + 1])
        lam = 0.5 * (d - j - 2) + a
        m = chain[j] - a
        ang = pts[:, d - 2 - j]
        factor = gegenbauer_table(lam, m, np.cos(ang))[m]
        if a:
            factor = factor * np.sin(ang) ** a
        val = val * factor
    if single:
        return complex(val[0])
    return val


def eval_sum(d: int, coeffs: dict, theta) -> np.ndarray:
    """sum c(n,k) Y_k^{d,n} at spherical points (M, d-1), term by term."""
    theta = np.asarray(theta, dtype=float)
    total = np.zeros(theta.shape[0], dtype=complex)
    for (n, k), c in coeffs.items():
        total += c * eval_harmonic(d, n, k, theta)
    return total


def in_index_set(d: int, n: int, k) -> bool:
    try:
        validate_multi_index(d, n, k)
    except IndexSetError:
        return False
    return True


def matrix_function_numeric(d: int, n: int, k, m, g, rule) -> complex:
    """<T(g) Y_m, Y_k> by discrete quadrature.

    The rule must be exact on polynomials of degree 2n since the integrand is
    a product of two degree-n harmonics.
    """
    if rule.exact_degree < 2 * n:
        raise ExactnessError(
            f"rule exact through degree {rule.exact_degree}, need {2 * n}")
    g = np.asarray(g, dtype=float)
    moved = rule.points @ g  # row i: g^{-1} eta_i
    y_m = eval_harmonic(d, n, m, cartesian_to_spherical(moved))
    y_k = eval_harmonic(d, n, k, rule.angles)
    return complex(np.sum(rule.weights * y_m * np.conj(y_k)))
