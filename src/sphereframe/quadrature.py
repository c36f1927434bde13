"""Quadrature: 1-d Gauss-Jacobi rules, exact product rules on spheres,
deterministic rotation sections, and composed rotation-group grids.

The Gauss rules and the SO(3) plane basis of `frames` rest on one symmetric
tridiagonal eigensolver, `eigh_tridiagonal`, which runs on numpy's LAPACK;
each caller remembers what it builds from the answers.

All sphere rules are positive product rules with weights normalized to sum
to one (the surface measure here is a probability measure); rotation grids
carry normalized Haar weights.  Product rules are deliberately simple:
positivity and exactness are what the frame machinery needs, and node counts
stay modest at the bandwidths this library targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._config import node_cap
from .errors import CapacityError, ParameterError
from .harmonics import spherical_to_cartesian

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Rule1D:
    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int  # algebraic degree for Jacobi rules, trig degree for circle rules


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the real symmetric
    tridiagonal matrix with float64 diagonal d and off-diagonal e.

    This is `np.linalg.eigh` of the dense matrix, with e in the lower
    triangle that eigh reads, and it gives the tridiagonal driver `dstevd`'s
    answer bit for bit (the tests hold it to that driver).  eigh runs
    `dsyevd`, whose reduction `dsytrd` finds every Householder tau zero on a
    matrix that is already tridiagonal.  It therefore hands d and e unchanged
    to the divide-and-conquer `dstedc` that `dstevd` runs, and its
    back-transformation `dormtr` applies identities.  The eigenvectors are
    returned in Fortran order, as `dstevd` leaves them: a later matmul
    (`frames._unitarize`) rounds differently on a C-ordered copy.  A 1x1
    matrix is answered directly.

    The reduction and back-transformation make eigh about twice as slow as
    `dstevd` above 32 rows.  Nothing is remembered here: the callers keep
    what they build from the answers (`gauss_symmetric_jacobi`, and the
    ladder stems of `frames`).
    """
    d, e = np.asarray(d, float), np.asarray(e, float)
    if len(d) == 1:
        return np.array([d[0]]), np.array([[1.0]])
    w, v = np.linalg.eigh(np.diag(d) + np.diag(e, -1))
    return w, np.asfortranarray(v)


@lru_cache(maxsize=256)
def gauss_symmetric_jacobi(m: int, alpha: float) -> Rule1D:
    """Gauss rule for the weight (1-t^2)^alpha on [-1, 1].

    Nodes and weights come from the symmetric tridiagonal eigenproblem of the
    Jacobi recurrence matrix (Golub-Welsch); exact through degree 2m-1.

    Rules are remembered per process, since the same (m, alpha) recurs across
    the axes, rules and grids of a command.  Their arrays are read-only, so
    no caller can change what the next one gets.  At most 256 rules are
    kept, the most recently used, each 16 m bytes: under 1 MB for every
    m <= 256.
    """
    if m < 1:
        raise ParameterError(f"node count must be positive, got {m}")
    if alpha <= -1:
        raise ParameterError(f"Jacobi exponent must exceed -1, got {alpha}")
    try:
        mu0 = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    except OverflowError:  # from alpha = 170.5, the axes of a sphere in d >= 344
        raise ParameterError(f"Jacobi exponent {alpha} is too large: "
                             f"Gamma({alpha + 1.5}) is past the float range") from None
    if m == 1:
        nodes, weights, exact = np.zeros(1), np.array([mu0]), 1
    else:
        k = np.arange(1, m, dtype=float)
        off = np.sqrt(k * (k + 2.0 * alpha)
                      / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0)))
        nodes, vecs = eigh_tridiagonal(np.zeros(m), off)
        weights, exact = mu0 * vecs[0] ** 2, 2 * m - 1
    nodes.flags.writeable = weights.flags.writeable = False
    return Rule1D(nodes, weights, exact)


def _circle_rule(M: int) -> Rule1D:
    """Equispaced rule on [0, 2*pi): exact for trig degree <= M-1."""
    nodes = TWO_PI * np.arange(M) / M
    weights = np.full(M, TWO_PI / M)
    return Rule1D(nodes, weights, M - 1)


@dataclass(frozen=True)
class SphereRule:
    """Positive product rule on S^{d-1}, exact on polynomials up to
    exact_degree: one 1-d rule per angle, theta_1 first, and the normalized
    product weights, first axis slowest.  The angle rows and cartesian
    nodes are built on first use."""
    axes: tuple          # Rule1D per angle theta_1 .. theta_{d-1}
    weights: np.ndarray  # (R,), positive, sums to 1
    exact_degree: int

    @property
    def d(self) -> int:
        return len(self.axes) + 1

    @cached_property
    def angles(self) -> np.ndarray:
        """The (R, d-1) spherical coordinates, first axis slowest."""
        out = np.empty((len(self), len(self.axes)))
        outer = 1  # the nodes of the slower axes
        for i, axis in enumerate(self.axes):
            inner = len(self) // (outer * len(axis.nodes))
            out[:, i] = np.tile(np.repeat(axis.nodes, inner), outer)
            outer *= len(axis.nodes)
        return out

    @cached_property
    def points(self) -> np.ndarray:
        """The (R, d) cartesian nodes."""
        return spherical_to_cartesian(self.angles)

    def __len__(self) -> int:
        return self.weights.shape[0]


def sphere_size(d: int, N: int) -> int:
    """Node count of `sphere_rule(d, N)`."""
    return (2 * N + 1) * capped_power(N + 1, d - 2, "sphere rule")


_POWER_BITS = 1 << 15  # past the 4,300 digits (14,284 bits) of any cap a user can type


def capped_power(base: int, exp: int, what: str) -> int:
    """base ** exp, the fast-growing factor of a node count.  A power of
    2^15 bits or more is compared with the cap by its exponent, before it is
    formed, and refused if over it: at d = 10^12 the power alone would not
    finish.  Smaller powers are formed and left to `check_cap`."""
    bits = exp * (base.bit_length() - 1)  # base ** exp >= 2 ** bits
    if bits >= _POWER_BITS:
        cap = node_cap()
        if bits >= cap.bit_length():
            raise CapacityError(f"{what} would hold of the order of {base}^{exp} nodes, "
                                f"exceeding the cap {cap}")
    return base ** exp


def check_cap(count: int, what: str) -> None:
    """Raise before allocating a rule or grid of `count` nodes over `node_cap()`:
    the running command's --max-nodes, else SPHEREFRAME_MAX_NODES, else the default.
    A count with more digits than Python prints, 4,300 by default, is named
    by its leading digits and its power of ten."""
    cap = node_cap()
    if count > cap:
        try:
            text = str(count)
        except ValueError:
            log10 = math.log10(count)
            text = f"about {10 ** (log10 % 1):.3f}e+{math.floor(log10)}"
        raise CapacityError(f"{what} would hold {text} nodes, exceeding the cap {cap}")


def _check_degree(d: int, N: int) -> None:
    if d < 2:
        raise ParameterError(f"sphere dimension d must be at least 2, got {d}")
    if N < 0:
        raise ParameterError(f"target degree must be nonnegative, got {N}")


def _gauss_axes(d: int, N: int) -> list:
    """Gauss axes in theta_2 .. theta_{d-1}: the weight (1-t^2)^((ell-1)/2)
    in cos(theta_{ell+1}), from sin^{d-2}(theta_{d-1}) ... sin(theta_2)."""
    axes = []
    for ell in range(1, d - 1):
        rule = gauss_symmetric_jacobi(N + 1, (ell - 1) / 2.0)
        axes.append(Rule1D(np.arccos(rule.nodes), rule.weights, rule.exact_degree))
    return axes


def _sphere_rule(d: int, N: int) -> SphereRule:
    """`sphere_rule(d, N)` without the argument and cap checks: the product
    of its axes, first axis slowest, weights normalized to sum to one."""
    axes = [_circle_rule(2 * N + 1)] + _gauss_axes(d, N)
    w = axes[0].weights
    for axis in axes[1:]:
        w = np.multiply.outer(w, axis.weights).ravel()
    return SphereRule(tuple(axes), w / w.sum(), 2 * N)


def sphere_rule(d: int, N: int) -> SphereRule:
    """Product rule exact on all polynomials of degree 2N on S^{d-1}.

    Composes an equispaced rule in theta_1 with Gauss axes in the other
    angles; the node count is checked against the cap first.
    """
    _check_degree(d, N)
    check_cap(sphere_size(d, N), "sphere rule")
    return _sphere_rule(d, N)


# ---------------------------------------------------------------------------
# rotation sections
# ---------------------------------------------------------------------------

def sections(angles) -> np.ndarray:
    """Givens chains g with g e^d = point(theta), one per row of angles.

    angles has shape (R, d-1); the result has shape (R, d, d).  The planar
    rotations in the (x_ell, x_{ell+1}) planes, sending e^{ell+1} to
    sin(theta_ell) e^ell + cos(theta_ell) e^{ell+1}, are applied from the
    polar angle inward so the chain reproduces the parameterization.
    """
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[1] + 1
    g = np.tile(np.eye(d), (angles.shape[0], 1, 1))
    for ell in range(1, d):
        c = np.cos(angles[:, ell - 1])[:, None]
        s = np.sin(angles[:, ell - 1])[:, None]
        a, b = g[:, :, ell - 1], g[:, :, ell]
        g[:, :, ell - 1], g[:, :, ell] = a * c - b * s, a * s + b * c
    return g


def embed_rotation(h: np.ndarray, d: int) -> np.ndarray:
    """Embed rotations of R^m, shape (..., m, m), as the SO(d) elements
    fixing e^{m+1}, ..., e^d."""
    h = np.asarray(h, dtype=float)
    m = h.shape[-1]
    if m > d:
        raise ParameterError(f"cannot embed SO({m}) into SO({d})")
    g = np.broadcast_to(np.eye(d), h.shape[:-2] + (d, d)).copy()
    g[..., :m, :m] = h
    return g


# ---------------------------------------------------------------------------
# rotation-group grids
# ---------------------------------------------------------------------------

VARIANTS = ("general", "steerable", "zonal", "so_d2_invariant", "steerable_so_d2")


@dataclass(frozen=True)
class RotationRule:
    """Weighted rotations discretizing integration over SO(d).

    Every rotation is the product of one Givens chain per factor, outermost
    first, embedded in SO(d); the flat index runs over the factors with the
    outermost slowest.  class_degree N declares exactness for products of
    two class-N matrix functions; for the restricted variants that promise
    holds only against generating functions with the matching structure
    (steerability and/or SO(d-2)-invariance).
    """
    d: int
    factors: tuple  # SphereRule per factor, outermost first
    class_degree: int
    variant: str
    steer_K: int | None = None

    def __len__(self) -> int:
        return math.prod(len(f) for f in self.factors)

    @cached_property
    def weights(self) -> np.ndarray:
        """(R,) positive Haar weights summing to 1, outer index slowest."""
        w = self.factors[-1].weights
        for f in reversed(self.factors[:-1]):
            w = (f.weights[:, None] * w[None, :]).reshape(len(f) * len(w))
        return w

    @cached_property
    def rotations(self) -> np.ndarray:
        """The flat (R, d, d) array of rotations, outer index slowest."""
        return _compose(self.d, self.factors, self.variant)


def _so2_matrices(alpha: np.ndarray) -> np.ndarray:
    """Rotations by alpha in the (x_1, x_2) plane: G_1(-alpha) of `sections`.

    Built directly: sections(-alpha) writes +0.0 where this writes -0.0 at
    alpha = 0, and exported SO(2) grids keep their bytes.
    """
    rots = np.empty((len(alpha), 2, 2))
    c, s = np.cos(alpha), np.sin(alpha)
    rots[:, 0, 0] = c
    rots[:, 0, 1] = -s
    rots[:, 1, 0] = s
    rots[:, 1, 1] = c
    return rots


def _compose(d: int, factors: tuple, variant: str) -> np.ndarray:
    """Multiply out a factor chain: outer section times embedded inner grid."""
    outer, *rest = factors
    if d == 2:
        return _so2_matrices(-outer.axes[0].nodes)
    if not rest:
        inner = np.eye(d)[None]
    elif variant in ("so_d2_invariant", "steerable_so_d2"):
        inner = embed_rotation(sections(rest[0].angles), d)
    else:
        inner = embed_rotation(_compose(d - 1, rest, "general"), d)
    rotations = np.matmul(sections(outer.angles)[:, None], inner[None])
    return rotations.reshape(len(outer) * len(inner), d, d)


def _so2_factor(n: int) -> SphereRule:
    """The equispaced SO(2) rule of degree n, as G_1(-alpha) in the convention
    of sections, axis and rule weighted 1/M, not normalized, so exported grids
    keep their bytes."""
    circle = _circle_rule(2 * n + 1)
    w = np.full(2 * n + 1, 1.0 / (2 * n + 1))
    return SphereRule((Rule1D(-circle.nodes, w, circle.exact_degree),), w, 2 * n)


def chain_factors(g) -> tuple:
    """One-node factors, outermost first, that `_compose(d, factors,
    "general")` multiplies back to the rotation g.  Block m = d..2 reads its
    section angles off x = g e^m, theta_1 = atan2(x_1, x_2) (at m = 2 the
    `_so2_factor` node) and theta_ell = atan2(|(x_1..x_ell)|, x_{ell+1}), and
    leaves the leading block of sections(theta)^T g, which fixes e^m, to the next."""
    g = np.asarray(g, dtype=float)
    one = np.ones(1)
    factors = []
    for m in range(len(g), 1, -1):
        x = g[:, -1]
        theta = [math.atan2(x[0], x[1])] + [math.atan2(math.hypot(*x[:ell]), x[ell])
                                            for ell in range(2, m)]
        factors.append(SphereRule(tuple(Rule1D(np.array([a]), one, 0) for a in theta), one, 0))
        g = (sections([theta])[0].T @ g)[:-1, :-1]
    return tuple(factors)


def rotation_rule(d: int, N: int, variant: str = "general", K: int | None = None) -> RotationRule:
    """Compose an SO(d) grid of class N from sphere rules.

    general          g_{eta_r} h_s with h_s from a recursive SO(d-1) grid,
                     ending at an equispaced SO(2) rule
    steerable        g_{eta_r} h_p with a single class-K SO(d-1) rule
    zonal            g_{eta_r} alone
    so_d2_invariant  g_{eta_r} h_{eta'_s} with eta'_s a sphere rule on S^{d-2}
                     of matching degree
    steerable_so_d2  as above with the S^{d-2} rule exact on degree 2K only

    SO(2) is its own section, so at d = 2 every variant is the general
    circle.  The factors are listed once, outermost first, as (sphere
    dimension, degree) pairs; the rotation count, the product of their
    `sphere_size`s, is checked against the cap before any factor is built.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    if variant in ("steerable", "steerable_so_d2") and K is None:
        raise ParameterError(f"variant {variant!r} requires the steerability order K")
    if K is not None and K < 0:
        raise ParameterError(f"K must be nonnegative, got {K}")
    if d < 2:
        raise ParameterError(f"rotation group dimension must be >= 2, got {d}")
    _check_degree(d, N)
    if d == 2:
        variant, K = "general", None
    chain = variant in ("general", "steerable")
    M = K if variant in ("steerable", "steerable_so_d2") else N
    pairs = [(d, N)]
    if chain:  # S^{d-2} ... S^2, then the SO(2) circle
        pairs += [(m, M) for m in range(d - 1, 1, -1)]
    elif variant != "zonal":  # h e^{d-1} = (eta', 0)
        pairs.append((d - 1, M))
    check_cap(math.prod(sphere_size(m, n) for m, n in pairs), "rotation grid")
    factors = tuple(_so2_factor(n) if chain and m == 2 else _sphere_rule(m, n)
                    for m, n in pairs)
    return RotationRule(d, factors, N, variant, K)
