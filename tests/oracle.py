"""Reference implementations that only the tests use.

`eval_harmonic` evaluates Y_k^{d,n} level by level, straight from the product
formula, with none of the table sharing of `harmonics.ExpansionEvaluator`, so
it stays an independent check of that kernel.  `xi0_numeric_flat` is the
center of mass by quadrature, the check of `diagnostics.center_of_mass`,
which works from the coefficients alone.  `analysis` and `synthesis`
are the brute-force transforms: they evaluate the generators at every
rotated quadrature node, against which the coefficient-space transforms of
`frames` are checked.  `random_signal` draws one normal per call, and `plane`
exponentiates its phases in every call: the straightforward forms of
`frames.random_signal` and `frames._Degree.plane`, which must equal them bit
for bit.  `addition_kernel` and `curvelet_eval_closed` are closed forms that
library evaluations are compared against, and `support` reads the degree range
a scale's table occupies.
"""

import math

import numpy as np

from sphereframe.constructions import kappa1
from sphereframe.errors import (DegenerateSignalError, IndexSetError, ParameterError,
                               SphereFrameError)
from sphereframe.frames import Signal
from sphereframe.harmonics import ExpansionEvaluator, basis_matrix, index_set
from sphereframe.quadrature import embed_rotation, sections, sphere_rule
from sphereframe.specfun import gegenbauer_table, log_norm_A, validate_multi_index

TWO_PI = 2.0 * math.pi
ROTATION_CHUNK = 512  # rotations per block in matrix_function_block


class ExactnessError(SphereFrameError, ValueError):
    """A quadrature rule's exactness degree is too low for the request."""


def support(scale):
    """(lowest, highest) degree carrying a nonzero coefficient, or None."""
    degrees = [n for (n, _), c in scale.coeffs.items() if c != 0]
    if not degrees:
        return None
    return min(degrees), max(degrees)


def addition_kernel(d: int, n: int, s):
    """Reproducing kernel of the degree-n space: ((2n+d-2)/(d-2)) C_n^{(d-2)/2}(s)."""
    value = (2 * n + d - 2) / (d - 2) * gegenbauer_table(0.5 * (d - 2), n, s)[n]
    return float(value) if np.ndim(s) == 0 else value


def curvelet_eval_closed(d: int, j: int, point) -> float:
    """Closed-form curvelet value sqrt(2) sum_n w(n) A_n Re{(x_d + i x_{d-1})^n}
    at one cartesian point (the scale-0 function is the constant 1)."""
    x = np.asarray(point, dtype=float)
    if j == 0:
        return 1.0
    z = complex(x[d - 1], x[d - 2])
    zp = z
    total = 0.0
    for n in range(1, 2 ** j + 1):
        w = kappa1(d, j, n)
        if w != 0.0:
            amp = math.exp(log_norm_A(d, n, (n,) * (d - 3) + (n,)))
            total += w * amp * zp.real
        zp *= z
    return math.sqrt(2.0) * total


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


def dim_harmonic(d: int, n: int) -> int:
    """(2n+d-2)(n+d-3)! / ((d-2)! n!), straight from the factorials."""
    num = (2 * n + d - 2) * math.factorial(n + d - 3)
    den = math.factorial(d - 2) * math.factorial(n)
    assert num % den == 0
    return num // den


def grid_to_dict(rule) -> dict:
    """The document `io.write_grid` writes, as plain JSON values."""
    doc = {
        "version": 1,
        "kind": "rotation_grid",
        "d": int(rule.d),
        "class_degree": int(rule.class_degree),
        "variant": rule.variant,
    }
    if rule.steer_K is not None:
        doc["steer_K"] = int(rule.steer_K)
    doc["rotations"] = rule.rotations.reshape(len(rule), -1).tolist()
    doc["weights"] = rule.weights.tolist()
    return doc


def random_rotation(d: int, rng) -> np.ndarray:
    """Haar-ish random element of SO(d) from a QR factorization."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def validate_rotation(g: np.ndarray, tol: float = 1e-12) -> None:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ParameterError(f"rotation must be a square matrix, got {g.shape}")
    err = np.max(np.abs(g @ g.T - np.eye(g.shape[0])))
    if err > tol:
        raise ParameterError(f"matrix is not orthogonal within {tol}: residual {err}")
    if abs(np.linalg.det(g) - 1.0) > max(tol, 1e-10):
        raise ParameterError("matrix has determinant != +1")


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


def matrix_function_block(d: int, n: int, rotations, rule) -> np.ndarray:
    """All t_{k,m}^{d,n}(g) for a batch of rotations, shape (R, dim, dim).

    The moved nodes go to `basis_matrix` as cartesian points."""
    if rule.exact_degree < 2 * n:
        raise ExactnessError(
            f"rule exact through degree {rule.exact_degree}, need {2 * n}")
    rotations = np.asarray(rotations, dtype=float)
    B = basis_matrix(d, n, rule.angles)          # (dim, nodes)
    Bw = np.conj(B) * rule.weights[None, :]
    dim = B.shape[0]
    out = np.empty((rotations.shape[0], dim, dim), dtype=complex)
    for lo in range(0, rotations.shape[0], ROTATION_CHUNK):
        sl = slice(lo, min(lo + ROTATION_CHUNK, rotations.shape[0]))
        moved = np.matmul(rule.points[None, :, :], rotations[sl])   # (c, nodes, d)
        C = basis_matrix(d, n, moved.reshape(-1, d)).reshape(dim, sl.stop - sl.start, -1)
        out[sl] = Bw @ C.transpose(1, 2, 0)                        # (c, dim, dim)
    return out


def xi0_numeric_flat(f: Signal) -> np.ndarray:
    """Center of mass of |f|^2 by quadrature: f evaluated at every node of
    `sphere_rule(d, deg(f)+1)`, exact on the integrand's degree 2 deg(f)+1."""
    norm_sq = f.norm_sq()
    if norm_sq == 0.0:
        raise DegenerateSignalError("zero signal has no center of mass")
    rule = sphere_rule(f.d, f.degree + 1)
    vals = ExpansionEvaluator(f.d, f.coeffs).eval_angles(rule.angles)
    dens = rule.weights * np.abs(vals) ** 2
    return (rule.points.T @ dens) / dens.sum()


def exact_sum(values: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of a complex array along its last axis."""
    rows = values.reshape(-1, values.shape[-1])
    sums = [complex(math.fsum(r.real), math.fsum(r.imag)) for r in rows]
    return np.array(sums, dtype=complex).reshape(values.shape[:-1])


def analysis(system, f, j: int) -> np.ndarray:
    """Frame coefficients sqrt(mu_r) <f, Psi^j(g_r^{-1} .)> by point evaluation.

    The rule integrates the product of f with any rotate of Psi^j exactly;
    generator degrees f lacks are dropped first.  Sums are correctly rounded,
    so the reference's own rounding stays well below the tested tolerance.
    """
    spec = system.spec
    scale = spec.scales[j]
    grid = system.grids[j]
    f_degrees = {n for (n, _), c in f.coeffs.items() if c != 0}
    visible = {key: c for key, c in scale.coeffs.items() if key[0] in f_degrees}
    psi = ExpansionEvaluator(spec.d, visible)
    if psi.n_terms == 0:
        return np.zeros(len(grid.weights), dtype=complex)
    rule = sphere_rule(spec.d, (psi.degree + f.degree + 1) // 2)
    f_vals = ExpansionEvaluator(spec.d, f.coeffs).eval_angles(rule.angles)
    v_conj = np.conj(rule.weights * f_vals)
    parts = psi.rotated_apply(grid.rotations, rule.points,
                              lambda vals, sl: exact_sum(vals * v_conj),
                              base_rotation=spec.base_rotation)
    return np.sqrt(grid.weights) * np.conj(np.concatenate(parts))


def synthesis(system, dual_spec, coefficients, n_out: int) -> Signal:
    """Sum the weighted rotates of the dual generators at the nodes of an
    exact rule and project onto the harmonics of degree <= n_out, with
    correctly rounded sums over rotations and nodes."""
    d = system.spec.d
    rule = sphere_rule(d, n_out)
    terms = [np.zeros((1, len(rule.weights)), dtype=complex)]
    for j, scale in enumerate(dual_spec.scales):
        visible = {key: c for key, c in scale.coeffs.items() if key[0] <= n_out}
        ev = ExpansionEvaluator(d, visible)
        if ev.n_terms == 0:
            continue
        grid = system.grids[j]
        u = np.sqrt(grid.weights) * np.asarray(coefficients[j])
        terms += ev.rotated_apply(grid.rotations, rule.points,
                                  lambda vals, sl: u[sl, None] * vals,
                                  base_rotation=dual_spec.base_rotation)
    weighted = rule.weights * exact_sum(np.vstack(terms).T)
    coeffs = {}
    for n in range(n_out + 1):
        proj = exact_sum(np.conj(basis_matrix(d, n, rule.angles)) * weighted)
        for idx, k in enumerate(index_set(d, n)):
            if proj[idx] != 0.0:
                coeffs[(n, k)] = complex(proj[idx])
    return Signal(d, n_out, coeffs)


def flat_rotation_rule(d: int, N: int, variant: str, K=None):
    """(rotations, weights) of `rotation_rule` multiplied out eagerly, the way
    the grids were built before they kept their factors."""
    if d == 2:
        alpha = TWO_PI * np.arange(2 * N + 1) / (2 * N + 1)
        rots = np.empty((len(alpha), 2, 2))
        c, s = np.cos(alpha), np.sin(alpha)
        rots[:, 0, 0] = c
        rots[:, 0, 1] = -s
        rots[:, 1, 0] = s
        rots[:, 1, 1] = c
        return rots, np.full(len(alpha), 1.0 / len(alpha))
    M = K if variant in ("steerable", "steerable_so_d2") else N
    if variant == "zonal":
        inner, inner_w = np.eye(d)[None], np.ones(1)
    elif variant in ("general", "steerable"):
        sub, inner_w = flat_rotation_rule(d - 1, M, "general")
        inner = embed_rotation(sub, d)
    else:
        sub = sphere_rule(d - 1, M)
        inner, inner_w = embed_rotation(sections(sub.angles), d), sub.weights
    outer = sphere_rule(d, N)
    total = len(outer) * len(inner_w)
    rotations = np.matmul(sections(outer.angles)[:, None], inner[None])
    weights = (outer.weights[:, None] * inner_w[None, :]).reshape(total)
    return rotations.reshape(total, d, d), weights


def random_signal(d: int, degree: int, seed=None) -> Signal:
    """`frames.random_signal` with one scalar draw per real or imaginary part."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(degree + 1):
        for k in index_set(d, n):
            coeffs[(n, k)] = complex(rng.standard_normal(), rng.standard_normal())
    scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
    return Signal(d, degree, {key: c * scale for key, c in coeffs.items()})


def plane(rep, ell: int, axis, rows, cols) -> np.ndarray:
    """`rep.plane(ell, axis, rows, cols)` with the phases of the degree's own
    labels exponentiated anew."""
    phases = np.exp(-1j * np.outer(axis, rep.klast))
    if ell == 1:
        return phases[:, cols]
    delta = rep.delta(ell)
    return delta[rows] @ (phases[:, :, None] * delta[cols].conj().T)
