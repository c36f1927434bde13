"""Localization functionals and directionality measures.

The spatial center of mass comes from the coefficients alone: the adjacent-
degree coupling of x_d through Q_d, conjugated by the closed-form plane
generators of `harmonics.generator_step`.  No function is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import zeta_table
from .errors import DegenerateSignalError, ParameterError, TableShapeError
from .frames import FrameSpec, Signal, check_rotation
from .harmonics import ExpansionEvaluator, dim_harmonic, generator_step
from .quadrature import check_cap, sphere_rule, sphere_size
from .specfun import Q_d, validate_multi_index


def _apply_plane(d: int, table: dict, ell: int) -> dict:
    """X_ell g for a table g = {(n, k): c}: the phase -i k_{d-2} at ell = 1,
    else one step of the label at position d-ell-1 either way, weighted by
    `generator_step`; only steps inside the index set are taken."""
    if ell == 1:
        return {(n, k): -1j * k[-1] * c for (n, k), c in table.items() if k[-1]}
    pos = d - ell - 1
    keys, values = list(table), np.array(list(table.values()), dtype=complex)
    m, U, L = np.array([(k[pos], k[pos - 1] if pos else n, abs(k[pos + 1]) if ell > 2 else 0)
                        for n, k in keys], dtype=int).reshape(-1, 3).T
    out: dict = {}
    # X[k+e, k] at m, and X[k-e, k] = -X[k, k-e] at m-1
    for step, idx, at in ((1, np.flatnonzero(m < U), m),
                          (-1, np.flatnonzero(m > (-U if ell == 2 else L)), m - 1)):
        x = step * generator_step(ell, at[idx], U[idx], L[idx])
        for i, v in zip(idx.tolist(), (x * values[idx]).tolist()):
            n, k = keys[i]
            key = (n, k[:pos] + (k[pos] + step,) + k[pos + 1:])
            out[key] = out.get(key, 0.0) + v
    return out


def _coupled(g: dict, h: dict, coupling: dict) -> complex:
    """<g, x_d h> = sum over (n,k) of h(n,k) [conj(g(n+1,k)) Q_d^{k1}(n) +
    conj(g(n-1,k)) Q_d^{k1}(n-1)], with out-of-range coefficients zero."""
    total = 0.0 + 0.0j
    for (n, k), c in h.items():
        up = g.get((n + 1, k))
        if up is not None:
            total += c * np.conj(up) * coupling[(k[0], n)]
        down = g.get((n - 1, k))
        if down is not None:
            total += c * np.conj(down) * coupling[(k[0], n - 1)]
    return total


def center_of_mass(f: Signal) -> np.ndarray:
    """xi = int x |f(x)|^2 dx / |f|^2, shape (d,), from the coefficients:
    xi_ell |f|^2 = (-1)^{d-ell} sum_S <X_S f, x_d X_S' f> over the subsets S
    of the planes ell .. d-1, S' the rest of them, X_S applying the planes of
    S lowest first, and x_d the coupling of `_coupled`.  Each of the 2^{d-1}
    tables X_S f is built once, from that of S without its highest plane.  A
    generator keeps the degree and at most doubles a table; the entries this
    bounds are checked against the cap first.  The couplings come from one
    Q_d call per k1, over the degrees of all the tables."""
    norm_sq = f.norm_sq()
    if norm_sq == 0.0:
        raise DegenerateSignalError("zero signal has no center of mass")
    d = f.d
    table = {(n, validate_multi_index(d, n, k)): c for (n, k), c in f.coeffs.items()
             if c != 0.0}
    half, degrees = 2 ** (d - 1), {n for n, _ in table}
    size = sum(dim_harmonic(d, n) for n in degrees)
    check_cap(half * min(half * len(table), size), "center of mass")
    tables = [table]  # tables[S]: X_S f, bit ell-1 of S for plane ell
    for S in range(1, half):
        top = S.bit_length()
        tables.append(_apply_plane(d, tables[S ^ (1 << (top - 1))], top))
    coupling = {}  # every table has the degrees of f, a label k1 those from |k1| on
    for k1 in {k[0] for t in tables for _, k in t}:
        lo = max(min(degrees), abs(k1))
        values = Q_d(d, k1, np.arange(lo, max(degrees) + 1)).tolist()
        coupling.update(((k1, n), v) for n, v in enumerate(values, lo))
    xi = np.empty(d)
    for ell in range(1, d + 1):
        planes = (half - 1) >> (ell - 1) << (ell - 1)  # the planes ell .. d-1
        sign = (-1) ** (d - ell)
        total = sum(sign * _coupled(tables[S], tables[planes ^ S], coupling)
                    for S in range(half) if S | planes == planes)
        xi[ell - 1] = float(total.real) / norm_sq
    return xi


def var_momentum(f: Signal) -> float:
    """sum_n n(n+d-2) |f(n,k)|^2 / |f|^2, the Laplace-Beltrami energy."""
    norm_sq = f.norm_sq()
    if norm_sq == 0.0:
        raise DegenerateSignalError("zero signal has no momentum variance")
    total = sum(n * (n + f.d - 2) * abs(c) ** 2 for (n, _), c in f.coeffs.items())
    return float(total) / norm_sq


def autocorrelation(spec: FrameSpec, j: int, h: np.ndarray) -> complex | np.ndarray:
    """<T(h) Psi^j, Psi^j> by quadrature over `sphere_rule(d, N_j)`, exact
    on degree 2 N_j.

    h must be orthogonal with det h = 1 and fix the pole (an element of the
    embedded SO(d-1)); any base rotation in the spec is applied, so this
    measures the frame function as used, not the stored table.  A stack of
    rotations, shape (m, d, d) with m >= 1, gives the m values as an array
    from one evaluation of Psi^j at the rule and at its images under every
    h; a single (d, d) rotation gives one complex.  The sweep, (m + 1) times
    the rule's node count, is checked against the cap before anything is
    allocated, and h after it.
    """
    d = spec.d
    h = np.asarray(h, dtype=float)
    scale = spec.scale(j)
    m = len(h) if h.ndim == 3 else 1
    check_cap((m + 1) * sphere_size(d, scale.bandwidth), "autocorrelation sweep")
    if h.ndim not in (2, 3) or h.shape[-2:] != (d, d) or h.size == 0:
        raise ParameterError(f"h must have shape ({d}, {d}) or (m, {d}, {d}) "
                             f"with m >= 1, got {h.shape}")
    hs = h.reshape(-1, d, d)
    check_rotation(hs, "h")
    pole = np.zeros(d)
    pole[-1] = 1.0
    if not np.max(np.abs(hs @ pole - pole)) <= 1e-10:
        raise ParameterError("h must fix the pole (lie in the embedded SO(d-1))")
    rule = sphere_rule(d, scale.bandwidth)
    ev = ExpansionEvaluator(d, scale.coeffs)
    rots = np.concatenate([np.eye(d)[None], hs])
    if spec.base_rotation is not None:
        rots = rots @ np.asarray(spec.base_rotation, dtype=float)
    blocks = ev.rotated_apply(rots, rule.points, lambda vals, sl: vals.copy())
    vals = np.vstack(blocks)
    values = np.sum(rule.weights * vals[1:] * np.conj(vals[0]), axis=1)
    return complex(values[0]) if h.ndim == 2 else values


def autocorrelation_closed(spec: FrameSpec, j: int, s) -> float | np.ndarray:
    """Closed-form autocorrelation sum_n |w_j(n)|^2 s^{min(K,n)} for tables
    factoring as (window) x (directionality component), each window value
    w_j(n) of any sign or phase.

    s is the cosine overlap <e^{d-1}, h e^{d-1}> of the probed rotation, or
    an array of them; a float, or an array of the shape of s, comes back.
    The table is checked once, and every overlap must lie in [-1, 1].
    """
    if spec.d < 4:
        raise TableShapeError("the closed form needs the built-in components (d >= 4)")
    K = spec.steerable_K
    if K is None:
        raise TableShapeError("the closed form needs a declared steerability order")
    s = np.asarray(s, dtype=float)
    if not np.all((s >= -1.0) & (s <= 1.0)):  # NaN fails
        raise ParameterError("the overlap s must lie in [-1, 1]")
    s = s.astype(object)  # Python's float power per entry; numpy's SIMD one may round differently
    by_degree: dict[int, dict] = {}
    for (n, k), c in spec.scale(j).coeffs.items():
        if c != 0.0:
            by_degree.setdefault(n, {})[k] = c
    total = np.zeros(s.shape, dtype=object)
    for n, table in sorted(by_degree.items()):
        energy = sum(abs(c) ** 2 for c in table.values())
        expected = zeta_table(spec.d, n, K)
        if set(table) != set(expected):
            raise TableShapeError(
                f"degree {n} support does not match the component pattern")
        k0 = max(expected, key=lambda k: abs(expected[k]))
        w = table[k0] / expected[k0]
        for k, z in expected.items():
            if not abs(table[k] - w * z) <= 1e-10 * max(1.0, abs(w)):
                raise TableShapeError(
                    f"degree {n} does not factor as window x component")
        total += energy * s ** min(K, n)
    return float(total) if total.ndim == 0 else total.astype(float)


@dataclass(frozen=True)
class LocalizationRecord:
    j: int
    bandwidth: int
    norm_sq: float
    xi0_d: float
    xi0_vec: np.ndarray
    var_space: float | None
    var_space_upper: float | None
    var_momentum: float
    uncertainty_product: float | None


_XI_ZERO = 1e-12  # a center of mass this short is zero up to rounding


def localization_report(spec: FrameSpec, scales=None) -> list[LocalizationRecord]:
    """One localization record per requested scale (default: all), in order.

    The reported center-of-mass vector refers to the frame function as used:
    for tables stored pre-rotation the vector of `center_of_mass` is rotated
    before its polar component is read off.  None marks a value that
    rounding alone would set: `var_space` and `uncertainty_product` when the
    center of mass has length at most 1e-12, `var_space_upper` when its
    polar component does.
    """
    picked = [spec.scale(j) for j in (range(len(spec.scales)) if scales is None else scales)]
    out = []
    for scale in picked:
        f = Signal(spec.d, scale.bandwidth, scale.coeffs)
        xi = center_of_mass(f)
        if spec.base_rotation is not None:
            xi = np.asarray(spec.base_rotation, dtype=float) @ xi
        s2 = float(xi @ xi)
        vs = (1.0 - s2) / s2 if math.sqrt(s2) > _XI_ZERO else None
        xid = float(xi[-1])
        upper = None if abs(xid) <= _XI_ZERO else (1.0 - xid * xid) / (xid * xid)
        vm = var_momentum(f)
        out.append(LocalizationRecord(
            j=scale.j, bandwidth=scale.bandwidth, norm_sq=f.norm_sq(),
            xi0_d=xid, xi0_vec=xi, var_space=vs, var_space_upper=upper,
            var_momentum=vm, uncertainty_product=None if vs is None else vs * vm))
    return out
