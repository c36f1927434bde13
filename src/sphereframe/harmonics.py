"""Harmonic analysis on S^{d-1} in the explicit product basis.

Conventions used throughout the package:

* Spherical coordinates are stored as arrays [theta_1, ..., theta_{d-1}]
  with theta_1 in [0, 2*pi) and the remaining angles in [0, pi].  The
  parameterization is
      x_1 = sin(theta_{d-1}) ... sin(theta_2) sin(theta_1)
      x_2 = sin(theta_{d-1}) ... sin(theta_2) cos(theta_1)
      ...
      x_d = cos(theta_{d-1}),
  so e^{i theta_1} = (x_2 + i x_1) / |(x_1, x_2)|, the unit complex whose
  powers the evaluator takes as its phases.
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
from .errors import ParameterError
from .specfun import gegenbauer_table, log_norm_A, validate_multi_index

EVAL_CHUNK = 16384  # points per block of eval_angles, eval_cartesian and basis_matrix;
                    # values per (t, u) block of eval_polar
# Points per chunk of rotated_apply.  Its tables have few terms over many
# points, so its speed is set by how much of a chunk's Gegenbauer tables and
# phases (about 2 MB at 8192 points and 30 table rows) stays in a core's
# cache.  At 4096 points two workers contend for the interpreter lock and
# run slower than one.
ROTATED_CHUNK = 8192


def dim_harmonic(d: int, n: int) -> int:
    """dim of the degree-n harmonic space: the homogeneous degree-n
    polynomials in d variables, C(n+d-1, d-1), less |x|^2 times those of
    degree n-2, C(n+d-3, d-1)."""
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    return math.comb(n + d - 1, d - 1) - math.comb(n + d - 3, d - 1)


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


def generator_step(ell: int, m, U, L=0):
    """X_ell[k + e, k] of the generator X_ell = d/dbeta D^n(G_ell(beta)) at 0
    for a plane ell >= 2, in the closed form of Gelfand and Tsetlin: e steps
    the label m = k_{d-ell}, U is the label above (n for k_1) and
    L = |k_{d-ell+1}| the one below (ell >= 3).  X_ell is real, antisymmetric
    and tridiagonal in m; X_1 is the phase -i k_{d-2}.  Arrays broadcast; the
    steps must stay inside the index set (U > m >= L, or m >= -U at ell = 2)."""
    if ell == 2:
        return 0.5 * np.sqrt((U - m) * (U + m + 1.0)) * np.where(m < 0, -1.0, 1.0)
    num = (U - m) * (U + m + ell - 1.0) * (m - L + 1.0) * (m + L + ell - 2.0)
    return np.sqrt(num / ((2.0 * m + ell - 2.0) * (2.0 * m + ell)))


# ---------------------------------------------------------------------------
# coordinate conversions
# ---------------------------------------------------------------------------

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


def _blocks(total: int, size: int) -> list:
    return [slice(lo, min(lo + size, total)) for lo in range(0, total, size)]


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def basis_matrix(d: int, n: int, points: np.ndarray) -> np.ndarray:
    """Degree-n harmonics stacked: shape (dim H_n, M), in index-set order.

    points holds spherical angles (M, d-1) or cartesian unit vectors (M, d).
    """
    points = np.asarray(points, dtype=float)
    ev = ExpansionEvaluator(d, {(n, k): 1.0 for k in index_set(d, n)})
    levels_of = ev._cartesian_levels if points.shape[1] == d else ev._angle_levels
    out = np.empty((ev.n_terms, points.shape[0]), dtype=complex)
    for sl in _blocks(points.shape[0], EVAL_CHUNK):
        terms = ev._terms(*levels_of(points[sl]))
        for row, amp, term in zip(out, ev._amp, terms):
            row[sl] = amp * term
    return out


def _unit_phase(c, s, r):
    """(c + i s)/r, with 1 where r = 0."""
    safe = np.where(r == 0.0, 1.0, r)
    z = np.empty(r.shape, dtype=complex)
    np.divide(c, safe, out=z.real)
    np.divide(s, safe, out=z.imag)
    z[r == 0.0] = 1.0
    return z


def _phase_powers(z, ks) -> dict:
    """a -> z^a for each a = |k|, k in ks nonzero, by repeated products of
    the unit complex z; z^{-a} is the conjugate of z^a."""
    wanted = {abs(k) for k in ks}
    out = {}
    power = None
    for a in range(1, max(wanted, default=0) + 1):
        power = z if power is None else power * z
        if a in wanted:
            out[a] = power
    return out


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
    pairs and, only when some k_{d-2} != 0, the unit complex
    z = e^{i theta_1}, whose powers are the phases.  One Gegenbauer table
    times its sine power is built per distinct (level, a_j) pair and shared
    by all terms.  `_terms` yields each term's level product times its phase:
    `_eval_core` sums them with the weights c(n,k) A_k^n and `basis_matrix`
    stacks them scaled by A_k^n.  `eval_polar` splits off level 0 instead:
    on a product of a t axis and a set of directions u it builds level 0 on
    the axis alone and sums the rest per (a_0, m_0) row, so the points meet
    in one matrix product.  The weights, and so the output, are real exactly
    when no term depends on theta_1 and every coefficient has a zero
    imaginary part.
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
        # rows of the Gegenbauer tables built per point, at least 1
        self._rows = max(1, sum(m + 1 for mmax in self._mmax for m in mmax.values()))
        # the distinct level-0 factors (a_0, m_0), and each term's among them
        self._rows0 = sorted({factors[0] for factors in self._factors})
        row_of = {am: r for r, am in enumerate(self._rows0)}
        self._row0 = [row_of[factors[0]] for factors in self._factors]
        coeff = np.array([c for _, _, c in entries], dtype=complex)
        self.theta1_free = not any(self._klast)
        self.real_output = self.theta1_free and not np.any(coeff.imag)
        weight = coeff * self._amp
        self._weight = weight.real if self.real_output else weight

    # -- core ---------------------------------------------------------------

    def _angle_levels(self, theta):
        """Per-level (cos, sin) pairs and z = e^{i theta_1} of spherical points
        (M, d-1)."""
        levels = [(np.cos(theta[:, i]), np.sin(theta[:, i]))
                  for i in range(self.d - 2, 0, -1)]
        return levels, None if self.theta1_free else np.exp(1j * theta[:, 0])

    def _cartesian_levels(self, x):
        """The same for cartesian points (M, d): cos theta_l = x_{l+1}/r_{l+1}
        and sin theta_l = r_l/r_{l+1}, with r_l = |(x_1, ..., x_l)|, and
        z = (x_2 + i x_1)/r_2.  Points x of R^D, D < d, give the levels
        j = d-D .. d-3 of any point whose first D coordinates are a positive
        multiple of x.

        Where r_{l+1} = 0 both come out 0, and z is 1 where r_2 = 0.  No value
        depends on them: the nearest level above with a nonzero radius has
        sine 0, and a term either carries a positive power of that sine or has
        only constant factors below it.
        """
        r = np.hypot(x[:, 0], x[:, 1])
        z = None if self.theta1_free else _unit_phase(x[:, 1], x[:, 0], r)
        levels = []
        for ell in range(2, x.shape[1]):
            r_next = np.hypot(r, x[:, ell])
            safe = np.where(r_next == 0.0, 1.0, r_next)
            levels.append((x[:, ell] / safe, r / safe))
            r = r_next
        levels.reverse()
        return levels, z

    def _tables(self, levels, first=0):
        """Per level from `first` on, a -> C_m^{lam}(cos) sin^a for
        m = 0..max m_j, with the sine powers built by repeated products."""
        tables = []
        for j, ((t, s), mmax) in enumerate(zip(levels, self._mmax[first:]), first):
            per_a = {}
            power, power_a = np.ones_like(s), 0
            for a in sorted(mmax):
                tab = gegenbauer_table(0.5 * (self.d - j - 2) + a, mmax[a], t)
                if a:
                    for _ in range(power_a, a):
                        power *= s
                    power_a = a
                    tab *= power
                per_a[a] = tab
            tables.append(per_a)
        return tables

    def _terms(self, levels, z, first=0):
        """Each term's product over the levels from `first` on, times its
        phase z^{k_{d-2}}; 1.0 for a term with neither.

        The products run in two reused buffers (real, complex), so a yielded
        array is only valid until the next one is drawn.
        """
        tables = self._tables(levels, first)
        phases = {} if z is None else _phase_powers(z, self._klast)
        shape = levels[0][0].shape if levels else (() if z is None else z.shape)
        real = np.empty(shape)
        cplx = np.empty(shape, dtype=complex) if phases else None
        for factors, kl in zip(self._factors, self._klast):
            v = None
            for table, (a, m) in zip(tables, factors[first:]):
                tab = table[a][m]
                v = tab if v is None else np.multiply(v, tab, out=real)
            if kl:
                # v is real, so v z^{-a} = conj(v z^a): a negative k conjugates in place
                v = np.multiply(phases[abs(kl)], 1.0 if v is None else v, out=cplx)
                if kl < 0:
                    np.conjugate(v, out=v)
            yield 1.0 if v is None else v

    def _eval_core(self, levels, z):
        acc = np.zeros(levels[0][0].shape, dtype=self._weight.dtype)
        term = np.empty_like(acc)
        for w, v in zip(self._weight, self._terms(levels, z)):
            acc += np.multiply(w, v, out=term)
        return acc

    def _eval_blocks(self, pts, levels_of, chunk=EVAL_CHUNK):
        out = np.empty(pts.shape[0], dtype=self._weight.dtype)
        for sl in _blocks(pts.shape[0], chunk):
            out[sl] = self._eval_core(*levels_of(pts[sl]))
        return out

    # -- public entry points --------------------------------------------------

    def eval_angles(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate at spherical points, shape (M, d-1) -> (M,)."""
        return self._eval_blocks(np.asarray(theta, dtype=float), self._angle_levels)

    def eval_cartesian(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at cartesian points, shape (M, d) -> (M,)."""
        return self._eval_blocks(np.asarray(x, dtype=float), self._cartesian_levels)

    def eval_polar(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate at cos(t) e^d + sin(t) u for every t and every u: t has
        shape (T,), u holds unit vectors of R^{d-1} (the span of
        e^1..e^{d-1}), shape (P, d-1); the result has shape (T, P).

        Level 0 is built on the t axis alone, with the signed sin t: at
        sin t < 0 the point lies in direction -u, and the rest of each term is
        a harmonic of degree a_0 on S^{d-2}, so the two signs cancel exactly.
        The other levels and the phases are built per block of u and summed
        into one row per level-0 factor (a_0, m_0); each block is then one
        (T x rows) @ (rows x block) product, with blocks of at most
        EVAL_CHUNK values.
        """
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        T, P = t.shape[0], u.shape[0]
        level0 = self._tables([(np.cos(t), np.sin(t))])[0]
        left = np.zeros((len(self._rows0), T))
        for r, (a, m) in enumerate(self._rows0):
            left[r] = level0[a][m]
        left = left.T
        out = np.empty((T, P), dtype=self._weight.dtype)
        for sl in _blocks(P, max(1, EVAL_CHUNK // max(1, T))):
            levels, z = self._cartesian_levels(u[sl])
            right = np.zeros((len(self._rows0), sl.stop - sl.start),
                             dtype=self._weight.dtype)
            term = np.empty(right.shape[1:], dtype=right.dtype)
            for w, r, v in zip(self._weight, self._row0, self._terms(levels, z, 1)):
                right[r] += np.multiply(w, v, out=term)
            if right.dtype == complex:  # real left factor: two real products
                out[:, sl] = (left @ right.view(float)).view(complex)
            else:
                out[:, sl] = left @ right
        return out

    def rotated_apply(self, rotations, points, reduce_fn, base_rotation=None,
                      max_block: int = 1 << 21, workers: int | None = None):
        """Evaluate the expansion at g^{-1} x over a rotation grid.

        For each block of rotations, values[r, p] = Psi(rot_r^{-1} x_p) is
        formed (composed with base_rotation when the table is stored
        pre-rotation) and handed to reduce_fn(values, rows) where rows is the
        block's slice into the grid; the per-block results are returned in
        grid order.  Blocks are independent, so they may run on a thread pool.
        max_block bounds points times table rows of one block, with at least
        one rotation per block; within a block the moved points are evaluated
        ROTATED_CHUNK at a time.
        """
        rotations = np.asarray(rotations, dtype=float)
        points = np.asarray(points, dtype=float)
        P = points.shape[0]
        if base_rotation is not None:
            rotations = rotations @ np.asarray(base_rotation, dtype=float)
        slices = _blocks(rotations.shape[0],
                         max(1, max_block // max(1, P * self._rows)))

        def run(sl):
            # the moved points are freed before the Gegenbauer tables are built
            vals = self._eval_blocks(
                np.matmul(points[None, :, :], rotations[sl]).reshape(-1, self.d),
                self._cartesian_levels, ROTATED_CHUNK)
            return reduce_fn(vals.reshape(sl.stop - sl.start, P), sl)

        nworkers = _config.get_workers() if workers is None else max(1, workers)
        if nworkers <= 1 or len(slices) <= 1:
            return [run(sl) for sl in slices]
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(run, slices))
