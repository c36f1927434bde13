"""Localization functionals and directionality measures.

The spatial center of mass has two routes: a quadrature route giving the
full vector, and a spectral route (adjacent-degree coupling through Q_d)
giving the polar component only.  Both are exposed; they cross-validate
each other, and the spectral route stays meaningful for arbitrarily large
bandwidths where dense quadrature would be wasteful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructions import zeta_table
from .errors import (DegenerateSignalError, ParameterError, TableShapeError,
                     UndefinedVarianceError)
from .frames import FrameSpec, Signal
from .harmonics import ExpansionEvaluator
from .quadrature import check_cap, polar_rule, product_rule, sphere_rule, sphere_size
from .specfun import Q_d


class Xi0Spectral(NamedTuple):
    xi0d_times_normsq: float
    xi0d: float


def xi0_d_spectral(f: Signal) -> Xi0Spectral:
    """Polar component of the center of mass from coefficients alone:
    sum over (n,k) of f(n,k) [conj(f(n+1,k)) Q_d^{k1}(n) +
    conj(f(n-1,k)) Q_d^{k1}(n-1)], with out-of-range coefficients zero.

    The couplings come from one array call of Q_d per k1, over the degrees
    of its adjacent pairs; the values, and the order of the sum, are those
    of one scalar call per pair.
    """
    norm_sq = f.norm_sq()
    if norm_sq == 0.0:
        raise DegenerateSignalError("zero signal has no center of mass")
    pairs: dict[int, list] = {}  # k1 -> n of every pair (n, k), (n+1, k)
    for n, k in f.coeffs:
        if (n + 1, k) in f.coeffs:
            pairs.setdefault(k[0], []).append(n)
    coupling = {}
    for k1, ns in pairs.items():
        lo = min(ns)
        values = Q_d(f.d, k1, np.arange(lo, max(ns) + 1)).tolist()
        coupling.update(((k1, n), v) for n, v in enumerate(values, lo))
    total = 0.0 + 0.0j
    for (n, k), c in f.coeffs.items():
        up = f.coeffs.get((n + 1, k))
        if up is not None:
            total += c * np.conj(up) * coupling[(k[0], n)]
        if n >= 1:
            down = f.coeffs.get((n - 1, k))
            if down is not None:
                total += c * np.conj(down) * coupling[(k[0], n - 1)]
    return Xi0Spectral(float(total.real), float(total.real) / norm_sq)


def xi0_numeric(f: Signal) -> np.ndarray:
    """Center of mass of |f|^2 by quadrature, the independent check of the
    spectral route.  The integrand has degree 2*deg(f)+1, so the rule is
    exact through 2*deg(f)+2.

    The rule is `sphere_rule(d, deg(f)+1)`, or, when the table does not
    involve theta_1, its theta_1 = 0 slab `polar_rule`: the azimuth average
    is exact by symmetry, so the first two components vanish.  Either rule is
    taken apart as its Gauss axis in theta_{d-1} times the product of the
    other axes, the directions u on S^{d-2}, and f is evaluated on that
    split by `ExpansionEvaluator.eval_polar`.  The cap check of the rule
    comes first.
    """
    norm_sq = f.norm_sq()
    if norm_sq == 0.0:
        raise DegenerateSignalError("zero signal has no center of mass")
    ev = ExpansionEvaluator(f.d, f.coeffs)
    rule = (polar_rule if ev.theta1_free else sphere_rule)(f.d, f.degree + 1)
    *inner, polar = rule.axes
    t, u = polar.nodes, product_rule(inner, rule.exact_degree)
    dens = np.multiply.outer(polar.weights, u.weights) * np.abs(ev.eval_polar(t, u.points)) ** 2
    xi = np.empty(f.d)
    xi[-1] = np.cos(t) @ dens.sum(axis=1)
    xi[:-1] = (np.sin(t) @ dens) @ u.points
    if ev.theta1_free:
        xi[:2] = 0.0
    return xi / dens.sum()


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

    h must fix the pole (an element of the embedded SO(d-1)); any base
    rotation in the spec is applied, so this measures the frame function as
    used, not the stored table.  A stack of rotations, shape (m, d, d), gives
    the m values as an array from one evaluation of Psi^j at the rule and at
    its images under every h; a single (d, d) rotation gives one complex.
    The sweep, (m + 1) times the rule's node count, is checked against the
    cap before anything is allocated.
    """
    d = spec.d
    h = np.asarray(h, dtype=float)
    hs = h.reshape(-1, d, d)
    scale = spec.scales[j]
    check_cap((len(hs) + 1) * sphere_size(d, scale.bandwidth), "autocorrelation sweep", None)
    pole = np.zeros(d)
    pole[-1] = 1.0
    if np.max(np.abs(hs @ pole - pole)) > 1e-10:
        raise ParameterError("h must fix the pole (lie in the embedded SO(d-1))")
    rule = sphere_rule(d, scale.bandwidth)
    ev = ExpansionEvaluator(d, scale.coeffs)
    base = spec.base_rotation
    rots = np.concatenate([np.eye(d)[None], hs])
    blocks = ev.rotated_apply(rots, rule.points,
                              lambda vals, sl: vals.copy(), base_rotation=base)
    vals = np.vstack(blocks)
    values = np.sum(rule.weights * vals[1:] * np.conj(vals[0]), axis=1)
    return complex(values[0]) if h.ndim == 2 else values


def autocorrelation_closed(spec: FrameSpec, j: int, s: float) -> float:
    """Closed-form autocorrelation sum_n |w_j(n)|^2 s^{min(K,n)} for tables
    factoring as (band filter) x (directionality component).

    s is the cosine overlap <e^{d-1}, h e^{d-1}> of the probed rotation.
    """
    if spec.d < 4:
        raise TableShapeError("the closed form needs the built-in components (d >= 4)")
    K = spec.steerable_K
    if K is None:
        raise TableShapeError("the closed form needs a declared steerability order")
    if not -1.0 <= s <= 1.0:
        raise ParameterError("the overlap s must lie in [-1, 1]")
    scale = spec.scales[j]
    by_degree: dict[int, dict] = {}
    for (n, k), c in scale.coeffs.items():
        if c != 0.0:
            by_degree.setdefault(n, {})[k] = c
    total = 0.0
    for n, table in sorted(by_degree.items()):
        energy = sum(abs(c) ** 2 for c in table.values())
        w = math.sqrt(energy)
        expected = zeta_table(spec.d, n, K)
        if set(table) != set(expected):
            raise TableShapeError(
                f"degree {n} support does not match the component pattern")
        for k, z in expected.items():
            if abs(table[k] - w * z) > 1e-10 * max(1.0, w):
                raise TableShapeError(
                    f"degree {n} does not factor as window x component")
        total += energy * s ** min(K, n)
    return total


@dataclass(frozen=True)
class LocalizationRecord:
    j: int
    bandwidth: int
    norm_sq: float
    xi0_d: float
    xi0_vec: np.ndarray
    var_space: float | None
    var_space_upper: float
    var_momentum: float
    uncertainty_product: float | None


_XI_ZERO = 1e-12  # a center of mass this short is zero up to rounding


def localization_report(spec: FrameSpec, scales=None) -> list[LocalizationRecord]:
    """Per-scale localization functionals.

    The reported center-of-mass vector refers to the frame function as used:
    for tables stored pre-rotation the quadrature vector is rotated before
    its polar component is read off.  A scale whose center of mass has
    length at most 1e-12 has no spatial variance: rounding alone would set
    its value.  It raises `UndefinedVarianceError`, whose `record` is the
    scale's record with `var_space` and `uncertainty_product` None.
    """
    if scales is None:
        scales = range(len(spec.scales))
    out = []
    for j in scales:
        scale = spec.scales[j]
        f = Signal(spec.d, scale.bandwidth, scale.coeffs)
        xi = xi0_numeric(f)
        if spec.base_rotation is not None:
            xi = np.asarray(spec.base_rotation, dtype=float) @ xi
        s2 = float(xi @ xi)
        xi_len = math.sqrt(s2)
        vs = (1.0 - s2) / s2 if xi_len > _XI_ZERO else None
        if spec.base_rotation is None:
            xid = xi0_d_spectral(f).xi0d
        else:
            xid = float(xi[-1])
        upper = math.inf if xid == 0.0 else (1.0 - xid * xid) / (xid * xid)
        vm = var_momentum(f)
        record = LocalizationRecord(
            j=scale.j, bandwidth=scale.bandwidth, norm_sq=f.norm_sq(),
            xi0_d=xid, xi0_vec=xi, var_space=vs, var_space_upper=upper,
            var_momentum=vm, uncertainty_product=None if vs is None else vs * vm)
        if vs is None:
            raise UndefinedVarianceError(
                f"scale {j} has vanishing center of mass (|xi| = {xi_len:.3e})", record)
        out.append(record)
    return out
