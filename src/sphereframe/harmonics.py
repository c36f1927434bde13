"""Harmonic analysis on S^{d-1} in the explicit product basis.

Conventions used throughout the package:

* Spherical coordinates are stored as arrays [theta_1, ..., theta_{d-1}]
  with theta_1 in [0, 2*pi) and the remaining angles in [0, pi].  The
  parameterization is
      x_1 = sin(theta_{d-1}) ... sin(theta_2) sin(theta_1)
      x_2 = sin(theta_{d-1}) ... sin(theta_2) cos(theta_1)
      ...
      x_d = cos(theta_{d-1}),
  so theta_1 is recovered as atan2(x_1, x_2).
* A degree-n multi-index is a tuple (k_1, ..., k_{d-2}) of integers with
  n >= k_1 >= ... >= k_{d-3} >= |k_{d-2}|; only the last entry is signed.
* Coefficient tables are sparse dicts mapping (n, k) -> complex; iteration
  follows the lexicographic index-set order for reproducibility.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import _config
from .errors import DomainError, ExactnessError, ParameterError
from .specfun import gegenbauer_table, log_norm_A, validate_multi_index

TWO_PI = 2.0 * math.pi
EVAL_CHUNK = 16384     # points per block in eval_angles, eval_cartesian, basis_matrix
ROTATION_CHUNK = 512   # rotations per block in matrix_function_block


def dim_harmonic(d: int, n: int) -> int:
    """dim of the degree-n harmonic space, (2n+d-2)(n+d-3)! / ((d-2)! n!)."""
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    num = (2 * n + d - 2) * math.factorial(n + d - 3)
    den = math.factorial(d - 2) * math.factorial(n)
    assert num % den == 0
    return num // den


@lru_cache(maxsize=4096)
def index_set(d: int, n: int) -> tuple:
    """Lexicographically ordered enumeration of all degree-n multi-indices."""
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    out = []

    def descend(prefix, bound, remaining):
        if remaining == 1:
            for m in range(-bound, bound + 1):
                out.append(prefix + (m,))
        else:
            for v in range(bound + 1):
                descend(prefix + (v,), v, remaining - 1)

    descend((), n, d - 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# coordinate conversions
# ---------------------------------------------------------------------------

def cartesian_to_spherical(x: np.ndarray) -> np.ndarray:
    """Batch conversion (..., d) -> (..., d-1); no norm validation.

    At a coordinate singularity (some partial radius 0) every undetermined
    lower angle comes out as 0, which makes round trips deterministic.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    theta = np.empty(x.shape[:-1] + (d - 1,), dtype=float)
    theta[..., 0] = np.mod(np.arctan2(x[..., 0], x[..., 1]), TWO_PI)
    t = np.hypot(x[..., 0], x[..., 1])
    for ell in range(2, d):
        theta[..., ell - 1] = np.arctan2(t, x[..., ell])
        t = np.hypot(t, x[..., ell])
    return theta


def spherical_to_cartesian(theta: np.ndarray) -> np.ndarray:
    """Batch conversion (..., d-1) -> (..., d)."""
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[-1] + 1
    x = np.empty(theta.shape[:-1] + (d,), dtype=float)
    x[..., d - 1] = np.cos(theta[..., d - 2])
    s = np.sin(theta[..., d - 2])
    for ell in range(d - 2, 1, -1):
        x[..., ell] = s * np.cos(theta[..., ell - 1])
        s = s * np.sin(theta[..., ell - 1])
    if d >= 3:
        x[..., 1] = s * np.cos(theta[..., 0])
        x[..., 0] = s * np.sin(theta[..., 0])
    else:
        x[..., 0] = s
    return x


def to_spherical(x) -> np.ndarray:
    """Spherical coordinates of a single on-sphere point."""
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > 1e-8:
        raise DomainError(f"point is not on the unit sphere: |x| = {nrm!r}")
    return cartesian_to_spherical(x)


def to_cartesian(theta) -> np.ndarray:
    return spherical_to_cartesian(np.asarray(theta, dtype=float))


def _blocks(total: int, size: int) -> list:
    return [slice(lo, min(lo + size, total)) for lo in range(0, total, size)]


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def eval_harmonic(d: int, n: int, k, theta):
    """Evaluate the orthonormal harmonic Y_k^{d,n} at spherical points.

    theta has shape (d-1,) or (M, d-1); the result is a complex scalar or a
    complex array of length M.
    """
    return eval_expansion(d, {(n, validate_multi_index(d, n, k)): 1.0}, theta)


def basis_matrix(d: int, n: int, theta: np.ndarray) -> np.ndarray:
    """All degree-n harmonics stacked: shape (dim H_n^d, M), index-set order."""
    theta = np.asarray(theta, dtype=float)
    ev = ExpansionEvaluator(d, {(n, k): 1.0 for k in index_set(d, n)})
    out = np.empty((ev.n_terms, theta.shape[0]), dtype=complex)
    for sl in _blocks(theta.shape[0], EVAL_CHUNK):
        terms = ev._terms(*ev._angle_levels(theta[sl]))
        for row, amp, term in zip(out, ev._amp, terms):
            row[sl] = amp * term
    return out


def addition_kernel(d: int, n: int, s):
    """Reproducing kernel of the degree-n space: ((2n+d-2)/(d-2)) C_n^{(d-2)/2}(s)."""
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    factor = (2 * n + d - 2) / (d - 2)
    table = gegenbauer_table(0.5 * (d - 2), n, s)
    value = factor * table[n]
    if np.ndim(s) == 0:
        return float(value)
    return value


# ---------------------------------------------------------------------------
# compiled sparse expansions
# ---------------------------------------------------------------------------

class ExpansionEvaluator:
    """Compiled form of a sparse coefficient table sum c(n,k) Y_k^{d,n}; the
    only code that builds product-basis factors.

        Y_k^{d,n} = A_k^n e^{i k_{d-2} theta_1}
                    * prod_j C_{m_j}^{lam_j}(cos t_j) sin^{a_j}(t_j)
    over the levels j = 0..d-3, with t_j = theta_{d-1-j}, a_j = |k_{j+1}|,
    m_j = k_j - a_j (k_0 = n) and lam_j = (d-j-2)/2 + a_j.  Points arrive as
    angles or as cartesian vectors and become per-level (cos t_j, sin t_j)
    pairs; theta_1 is only formed when some k_{d-2} != 0.  One Gegenbauer
    table times its sine power is built per distinct (level, a_j) pair and
    shared by all terms.  `_terms` yields each term's level product times its
    phase: `_eval_core` sums them with the weights c(n,k) A_k^n and
    `basis_matrix` stacks them scaled by A_k^n.  The weights, and so the
    output, are real exactly when no term depends on theta_1 and every
    coefficient has a zero imaginary part.
    """

    def __init__(self, d: int, coeffs: dict):
        self.d = d
        entries = []
        for (n, k), c in coeffs.items():
            c = complex(c)
            if c == 0.0:
                continue
            entries.append((n, validate_multi_index(d, n, k), c))
        entries.sort(key=lambda e: (e[0], e[1]))
        self.degree = max((n for n, _, _ in entries), default=0)
        self.n_terms = len(entries)
        self._amp = np.array([math.exp(log_norm_A(d, n, k)) for n, k, _ in entries])
        self._klast = [k[-1] for _, k, _ in entries]
        # per term, the (a_j, m_j) of every level; per level, a_j -> max m_j
        self._factors = []
        self._mmax = [dict() for _ in range(d - 2)]
        for n, k, _ in entries:
            chain = (n,) + k
            factors = tuple((abs(chain[j + 1]), chain[j] - abs(chain[j + 1]))
                            for j in range(d - 2))
            for mmax, (a, m) in zip(self._mmax, factors):
                mmax[a] = max(mmax.get(a, 0), m)
            self._factors.append(factors)
        coeff = np.array([c for _, _, c in entries], dtype=complex)
        self.theta1_free = not any(self._klast)
        self.real_output = self.theta1_free and not np.any(coeff.imag)
        weight = coeff * self._amp
        self._weight = weight.real if self.real_output else weight

    # -- core ---------------------------------------------------------------

    def _angle_levels(self, theta):
        """Per-level (cos, sin) pairs and theta_1 of spherical points (M, d-1)."""
        levels = [(np.cos(theta[:, i]), np.sin(theta[:, i]))
                  for i in range(self.d - 2, 0, -1)]
        return levels, None if self.theta1_free else theta[:, 0]

    def _cartesian_levels(self, x):
        """The same for cartesian points (M, d): cos theta_l = x_{l+1}/r_{l+1}
        and sin theta_l = r_l/r_{l+1}, with r_l = |(x_1, ..., x_l)|.

        Where r_{l+1} = 0 both come out 0.  No value depends on them: the
        nearest level above with a nonzero radius has sine 0, and a term
        either carries a positive power of that sine or has only constant
        factors below it.
        """
        r = np.hypot(x[:, 0], x[:, 1])
        levels = []
        for ell in range(2, self.d):
            r_next = np.hypot(r, x[:, ell])
            safe = np.where(r_next == 0.0, 1.0, r_next)
            levels.append((x[:, ell] / safe, r / safe))
            r = r_next
        levels.reverse()
        return levels, None if self.theta1_free else np.arctan2(x[:, 0], x[:, 1])

    def _tables(self, levels):
        """Per level, a -> C_m^{lam}(cos) sin^a for m = 0..max m_j."""
        tables = []
        for j, ((t, s), mmax) in enumerate(zip(levels, self._mmax)):
            per_a = {}
            for a, m in mmax.items():
                tab = gegenbauer_table(0.5 * (self.d - j - 2) + a, m, t)
                if a:
                    tab *= s ** a
                per_a[a] = tab
            tables.append(per_a)
        return tables

    def _terms(self, levels, theta1):
        """Each term's level product times its phase e^{i k_{d-2} theta_1}."""
        tables = self._tables(levels)
        phases = {kl: np.exp((1j * kl) * theta1) for kl in set(self._klast) if kl}
        for factors, kl in zip(self._factors, self._klast):
            (a, m), *rest = factors
            v = tables[0][a][m]
            for table, (a, m) in zip(tables[1:], rest):
                v = v * table[a][m]
            yield v * phases[kl] if kl else v

    def _eval_core(self, levels, theta1):
        acc = np.zeros(levels[0][0].shape, dtype=self._weight.dtype)
        for w, v in zip(self._weight, self._terms(levels, theta1)):
            acc += w * v
        return acc

    def _eval_blocks(self, pts, levels_of):
        out = np.empty(pts.shape[0], dtype=self._weight.dtype)
        for sl in _blocks(pts.shape[0], EVAL_CHUNK):
            out[sl] = self._eval_core(*levels_of(pts[sl]))
        return out

    # -- public entry points --------------------------------------------------

    def eval_angles(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate at spherical points, shape (M, d-1) -> (M,)."""
        return self._eval_blocks(np.asarray(theta, dtype=float), self._angle_levels)

    def eval_cartesian(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at cartesian points, shape (M, d) -> (M,)."""
        return self._eval_blocks(np.asarray(x, dtype=float), self._cartesian_levels)

    def rotated_apply(self, rotations, points, reduce_fn, base_rotation=None,
                      max_block: int = 1 << 21, workers: int | None = None):
        """Evaluate the expansion at g^{-1} x over a rotation grid.

        For each block of rotations, values[r, p] = Psi(rot_r^{-1} x_p) is
        formed (composed with base_rotation when the table is stored
        pre-rotation) and handed to reduce_fn(values, rows) where rows is the
        block's slice into the grid; the per-block results are returned in
        grid order.  Blocks are independent, so they may run on a thread pool.
        """
        rotations = np.asarray(rotations, dtype=float)
        points = np.asarray(points, dtype=float)
        P = points.shape[0]
        if base_rotation is not None:
            rotations = rotations @ np.asarray(base_rotation, dtype=float)
        slices = _blocks(rotations.shape[0], max(1, max_block // max(1, P)))

        def run(sl):
            # the moved points are freed before the Gegenbauer tables are built
            vals = self._eval_core(*self._cartesian_levels(
                np.matmul(points[None, :, :], rotations[sl]).reshape(-1, self.d)))
            return reduce_fn(vals.reshape(sl.stop - sl.start, P), sl)

        nworkers = _config.get_workers() if workers is None else max(1, workers)
        if nworkers <= 1 or len(slices) <= 1:
            return [run(sl) for sl in slices]
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(run, slices))


def eval_expansion(d: int, coeffs: dict, theta) -> np.ndarray:
    """Evaluate sum_{n,k} c(n,k) Y_k^{d,n} at spherical points (M, d-1)."""
    theta = np.asarray(theta, dtype=float)
    values = ExpansionEvaluator(d, coeffs).eval_angles(np.atleast_2d(theta))
    values = values.astype(complex, copy=False)
    return complex(values[0]) if theta.ndim == 1 else values


# ---------------------------------------------------------------------------
# matrix functions of rotations
# ---------------------------------------------------------------------------

def matrix_function_block(d: int, n: int, rotations, rule) -> np.ndarray:
    """All t_{k,m}^{d,n}(g) for a batch of rotations, shape (R, dim, dim)."""
    if rule.exact_degree < 2 * n:
        raise ExactnessError(
            f"rule exact through degree {rule.exact_degree}, need {2 * n}")
    rotations = np.asarray(rotations, dtype=float)
    B = basis_matrix(d, n, rule.angles)          # (dim, nodes)
    Bw = np.conj(B) * rule.weights[None, :]
    dim = B.shape[0]
    out = np.empty((rotations.shape[0], dim, dim), dtype=complex)
    nodes = rule.points
    for sl in _blocks(rotations.shape[0], ROTATION_CHUNK):
        moved = np.matmul(nodes[None, :, :], rotations[sl])   # (c, nodes, d)
        theta = cartesian_to_spherical(moved.reshape(-1, d))
        C = basis_matrix(d, n, theta).reshape(dim, sl.stop - sl.start, -1)
        out[sl] = np.einsum("kn,mcn->ckm", Bw, C)
    return out
