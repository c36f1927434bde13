"""Scalar special functions.

Gegenbauer polynomials via the stable forward recurrence, log-domain
normalization constants for the product-form harmonic basis, and the
coefficients q_d / Q_d entering the spectral center-of-mass recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IndexSetError, ParameterError


def gegenbauer_table(lam: float, n_max: int, t) -> np.ndarray:
    """Evaluate C_m^lam(t) for every m = 0..n_max.

    Uses the three-term recurrence
        C_0 = 1,  C_1 = 2*lam*t,
        m*C_m = 2*(m+lam-1)*t*C_{m-1} - (m+2*lam-2)*C_{m-2},
    which is forward-stable on [-1, 1] for lam > 0.  Each step runs in the
    output rows and one scratch row, in the order the formula is written.

    Returns an array of shape (n_max+1,) + shape(t), degree on the first axis.
    """
    if lam <= 0:
        raise ParameterError(f"Gegenbauer index must be positive, got lam={lam}")
    if n_max < 0:
        raise ParameterError(f"degree must be nonnegative, got {n_max}")
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * lam * t
    scratch = np.empty(t.shape)
    for m in range(2, n_max + 1):
        row = out[m, ...]  # a view, also for scalar t
        np.multiply(2.0 * (m + lam - 1.0), t, out=scratch)
        np.multiply(scratch, out[m - 1], out=scratch)
        np.multiply(m + 2.0 * lam - 2.0, out[m - 2], out=row)
        np.subtract(scratch, row, out=row)
        np.divide(row, m, out=row)
    return out


_accepted: set = set()  # (d, n, k) of every key validate_multi_index accepted
_ACCEPTED_MAX = 1 << 14


def validate_multi_index(d: int, n: int, k) -> tuple:
    """Membership test for the degree-n multi-index chain (k_0 = n); returns
    k as a tuple of ints.

    Accepted keys are remembered per process, so a key met again costs one
    lookup; a refused key is never kept.  A kept key costs about 105 bytes,
    165 if no table holds its tuple any more, and the memo is emptied when
    it holds 2^14 keys (2.7 MB at worst); a d = 4 signal of degree 32 has
    12,529."""
    if type(k) is int:
        k = (k,)
    elif not (type(k) is tuple and all(type(v) is int for v in k)):
        k = tuple(int(v) for v in np.atleast_1d(k))
    key = (d, n, k)
    if key in _accepted:
        return k
    if len(k) != d - 2:
        raise IndexSetError(f"multi-index length {len(k)} does not match d={d}")
    chain = (n,) + k
    for j in range(d - 3):
        if chain[j + 1] < 0 or chain[j] < chain[j + 1]:
            raise IndexSetError(f"index {k} violates the ordering chain for degree {n}")
    if chain[-2] < abs(chain[-1]):
        raise IndexSetError(f"index {k} violates the ordering chain for degree {n}")
    if len(_accepted) >= _ACCEPTED_MAX:
        _accepted.clear()
    _accepted.add(key)
    return k


def log_norm_A(d: int, n: int, k) -> float:
    """Logarithm of the constant A_k^n that L2-normalizes the product basis.

    The squared reciprocal is a product of one-dimensional Gegenbauer norms,
        int_{-1}^{1} C_m^lam(t)^2 (1-t^2)^(lam-1/2) dt
            = pi * 2^(1-2*lam) * Gamma(m+2*lam) / (m! * (m+lam) * Gamma(lam)^2),
    accumulated entirely as log-Gamma differences so that no intermediate
    factorial overflows.  Degree 0 is pinned to exactly 0 (the constant
    harmonic is 1) to keep rounding out of the root of every expansion.
    """
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    k = validate_multi_index(d, n, k)
    if n == 0:
        return 0.0
    chain = (n,) + k
    # log(1/A^2) = lgamma(d/2) - (d-2)/2 * log(pi) + sum_j log h(m_j, lam_j)
    log_inv_sq = math.lgamma(d / 2.0) - 0.5 * (d - 2) * math.log(math.pi)
    for j in range(d - 2):
        a = abs(chain[j + 1])
        lam = 0.5 * (d - j - 2) + a
        m = chain[j] - a
        log_inv_sq += (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
                       + math.lgamma(m + 2.0 * lam) - math.lgamma(m + 1.0)
                       - math.log(m + lam) - 2.0 * math.lgamma(lam))
    return -0.5 * log_inv_sq


def q_d(d: int, k1: int) -> float:
    """The quadratic |k1|^2 + |k1|*(d-3) - (d-2)*(1-d/4)."""
    a = abs(k1)
    return a * a + a * (d - 3) - (d - 2) * (1.0 - d / 4.0)


def Q_d(d: int, k1: int, n):
    """Half square-root coupling between adjacent degrees,
        Q_d^{k1}(n) = (1/2) * sqrt(1 - q_d(k1) / (n^2 + n(d-1) + d(d-2)/4)).

    Vanishes at |k1| = n+1 and lies in (0, 1) for |k1| <= n.  A genuinely
    negative radicand signals an out-of-range k1.  `n` may be an array.
    """
    n_arr = np.asarray(n, dtype=float)
    denom = n_arr * n_arr + n_arr * (d - 1) + d * (d - 2) / 4.0
    radicand = 1.0 - q_d(d, k1) / denom
    bad = radicand < -1e-10
    if np.any(bad):
        raise DomainError(f"Q_d radicand negative for d={d}, k1={k1}: k1 out of range")
    value = 0.5 * np.sqrt(np.clip(radicand, 0.0, None))
    if np.ndim(n) == 0:
        return float(value)
    return value
