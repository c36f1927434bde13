"""Quadrature: 1-d Gauss-Jacobi rules, exact product rules on spheres,
deterministic rotation sections, and composed rotation-group grids.

This module owns the package's one use of scipy, the symmetric tridiagonal
eigensolver `eigh_tridiagonal` behind the Gauss rules and the SO(3) plane
basis of `frames`.  scipy is imported the first time it is called, so the
commands that build no Gauss rule (`build`, `check`, `dual`, `localize`,
`figure`) never load it.

All sphere rules are positive product rules with weights normalized to sum
to one (the surface measure here is a probability measure); rotation grids
carry normalized Haar weights.  Product rules are deliberately simple:
positivity and exactness are what the frame machinery needs, and node counts
stay modest at the bandwidths this library targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    This is LAPACK `dstevd`, the driver `scipy.linalg.eigh_tridiagonal(d, e)`
    runs for the full spectrum, called without that wrapper's argument
    checks, so the result is the wrapper's bit for bit; a 1x1 matrix is
    answered directly, as there.  scipy is imported on first use.
    """
    if len(d) == 1:
        return np.array([d[0]]), np.array([[1.0]])
    from scipy.linalg import get_lapack_funcs
    stevd, = get_lapack_funcs(("stevd",), (d, e))
    w, v, info = stevd(d, e, compute_v=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK stevd returned info {info}")
    return w, v


def gauss_symmetric_jacobi(m: int, alpha: float) -> Rule1D:
    """Gauss rule for the weight (1-t^2)^alpha on [-1, 1].

    Nodes and weights come from the symmetric tridiagonal eigenproblem of the
    Jacobi recurrence matrix (Golub-Welsch); exact through degree 2m-1.
    """
    if m < 1:
        raise ParameterError(f"node count must be positive, got {m}")
    if alpha <= -1:
        raise ParameterError(f"Jacobi exponent must exceed -1, got {alpha}")
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    if m == 1:
        return Rule1D(np.zeros(1), np.array([mu0]), 1)
    k = np.arange(1, m, dtype=float)
    off = np.sqrt(k * (k + 2.0 * alpha)
                  / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0)))
    nodes, vecs = eigh_tridiagonal(np.zeros(m), off)
    weights = mu0 * vecs[0] ** 2
    return Rule1D(nodes, weights, 2 * m - 1)


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
        mesh = np.meshgrid(*(axis.nodes for axis in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def points(self) -> np.ndarray:
        """The (R, d) cartesian nodes."""
        return spherical_to_cartesian(self.angles)

    def __len__(self) -> int:
        return self.weights.shape[0]


def sphere_size(d: int, N: int) -> int:
    """Node count of `sphere_rule(d, N)`."""
    return (2 * N + 1) * (N + 1) ** (d - 2)


def check_cap(count: int, what: str, max_nodes: int | None) -> None:
    """Raise before allocating a rule or grid of `count` nodes over the cap
    (`max_nodes`, else SPHEREFRAME_MAX_NODES, else the default)."""
    cap = node_cap(max_nodes)
    if count > cap:
        raise CapacityError(f"{what} would hold {count} nodes, exceeding the cap {cap}")


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
        w = np.multiply.outer(w, axis.weights)
    weights = w.ravel()
    return SphereRule(tuple(axes), weights / weights.sum(), 2 * N)


def sphere_rule(d: int, N: int, max_nodes: int | None = None) -> SphereRule:
    """Product rule exact on all polynomials of degree 2N on S^{d-1}.

    Composes an equispaced rule in theta_1 with Gauss axes in the other
    angles; the node count is checked against the cap first.
    """
    _check_degree(d, N)
    check_cap(sphere_size(d, N), "sphere rule", max_nodes)
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


def _grid_size(d: int, N: int, variant: str, K: int | None = None) -> int:
    """Rotation count of `rotation_rule(d, N, variant, K)`."""
    if d == 2:
        return 2 * N + 1
    outer = sphere_size(d, N)
    M = K if variant in ("steerable", "steerable_so_d2") else N
    if variant == "zonal":
        return outer
    if variant in ("general", "steerable"):
        return outer * _grid_size(d - 1, M, "general")
    return outer * sphere_size(d - 1, M)


def rotation_rule(d: int, N: int, variant: str = "general",
                  K: int | None = None, max_nodes: int | None = None) -> RotationRule:
    """Compose an SO(d) grid of class N from sphere rules.

    general          g_{eta_r} h_s with h_s from a recursive SO(d-1) grid,
                     ending at an equispaced SO(2) rule
    steerable        g_{eta_r} h_p with a single class-K SO(d-1) rule
    zonal            g_{eta_r} alone
    so_d2_invariant  g_{eta_r} h_{eta'_s} with eta'_s a sphere rule on S^{d-2}
                     of matching degree
    steerable_so_d2  as above with the S^{d-2} rule exact on degree 2K only

    Only the factors are built; the rotation count is checked against the
    cap first.
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
    check_cap(_grid_size(d, N, variant, K), "rotation grid", max_nodes)
    if d == 2:
        # the equispaced SO(2) rule, as G_1(-alpha) in the convention of sections,
        # axis and rule weighted 1/M, not normalized, so exported grids keep their bytes
        M = 2 * N + 1
        circle = _circle_rule(M)
        w = np.full(M, 1.0 / M)
        axis = Rule1D(-circle.nodes, w, circle.exact_degree)
        return RotationRule(2, (SphereRule((axis,), w, 2 * N),), N, "general")

    M = K if variant in ("steerable", "steerable_so_d2") else N
    if variant == "zonal":
        inner = ()
    elif variant in ("general", "steerable"):
        inner = rotation_rule(d - 1, M, "general").factors
    else:  # so_d2_invariant / steerable_so_d2: h e^{d-1} = (eta', 0)
        inner = (_sphere_rule(d - 1, M),)
    return RotationRule(d, (_sphere_rule(d, N),) + inner, N, variant, K)
