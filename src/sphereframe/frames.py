"""Frame-generating sequences stored as sparse coefficient tables.

The degree-wise energy profile sigma_n drives everything here: frame bounds
are its extrema, the canonical dual is the per-degree rescale by 1/sigma_n,
and dual pairs are recognized by the cross profile being identically one.
Analysis and synthesis go through point evaluation plus exact quadrature,
so for bandlimited signals the discrete sums equal their integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAFrameError, ParameterError
from .harmonics import (ExpansionEvaluator, basis_matrix, dim_harmonic,
                        index_set)
from .quadrature import RotationRule, rotation_rule, sphere_rule
from .specfun import validate_multi_index


@dataclass
class Scale:
    j: int
    bandwidth: int            # N_j: the declared polynomial degree bound
    coeffs: dict = field(default_factory=dict)  # (n, k) -> complex

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def support(self) -> tuple[int, int] | None:
        degrees = [n for (n, _), c in self.coeffs.items() if c != 0]
        if not degrees:
            return None
        return min(degrees), max(degrees)


@dataclass
class FrameSpec:
    """Dimension, per-scale bandwidths and coefficient tables, plus tags.

    base_rotation, when present, means every scale's stored table describes
    the function before that rotation is applied; degree-wise energies (and
    hence all profile computations) are unaffected by it.
    """
    d: int
    scales: list[Scale]
    steerable_K: int | None = None
    invariant_m: int | None = None
    base_rotation: np.ndarray | None = None

    def max_bandwidth(self) -> int:
        return max((s.bandwidth for s in self.scales), default=0)

    def validate(self) -> None:
        if self.d < 3:
            raise ParameterError(f"dimension must be at least 3, got d={self.d}")
        prev = -1
        for s in self.scales:
            if s.bandwidth < prev:
                raise ParameterError("scale bandwidths must be nondecreasing")
            prev = s.bandwidth
            for (n, k), _ in s.coeffs.items():
                if n > s.bandwidth:
                    raise ParameterError(
                        f"coefficient at degree {n} exceeds scale bandwidth {s.bandwidth}")
                validate_multi_index(self.d, n, k)
        if self.base_rotation is not None:
            g = np.asarray(self.base_rotation, dtype=float)
            if g.shape != (self.d, self.d):
                raise ParameterError("base_rotation has the wrong shape")


@dataclass
class Signal:
    """Bandlimited function given by its coefficient table up to `degree`."""
    d: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))


def random_signal(d: int, degree: int, seed=None) -> Signal:
    """Unit-energy signal with complex-Gaussian coefficients per (n, k)."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(degree + 1):
        for k in index_set(d, n):
            coeffs[(n, k)] = complex(rng.standard_normal(), rng.standard_normal())
    scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
    return Signal(d, degree, {key: c * scale for key, c in coeffs.items()})


# ---------------------------------------------------------------------------
# spectral profiles, bounds, duality
# ---------------------------------------------------------------------------

def _cross_sums(scales_a, scales_b, n_max: int) -> np.ndarray:
    """sum_j sum_k conj(A^j(n,k)) B^j(n,k) for n = 0..n_max, undivided."""
    cross = np.zeros(n_max + 1, dtype=complex)
    for sa, sb in zip(scales_a, scales_b):
        for key, ca in sa.coeffs.items():
            n = key[0]
            if n <= n_max:
                cb = sb.coeffs.get(key)
                if cb is not None:
                    cross[n] += np.conj(ca) * cb
    return cross


def sigma_profile(spec: FrameSpec, n_max: int) -> np.ndarray:
    """sigma_n = (dim H_n^d)^{-1} sum_j sum_k |Psi^j(n,k)|^2 for n = 0..n_max.

    Any base_rotation metadata is ignored: degree-wise coefficient energy is
    invariant under rotations.
    """
    energy = _cross_sums(spec.scales, spec.scales, n_max).real
    return energy / [float(dim_harmonic(spec.d, n)) for n in range(n_max + 1)]


@dataclass(frozen=True)
class FrameBounds:
    c1: float
    c2: float
    is_frame_on_range: bool
    n_max: int


def frame_bounds(spec: FrameSpec, n_max: int) -> FrameBounds:
    """Extrema of the profile on 0..n_max.

    This certifies the frame inequality only on polynomials of degree n_max;
    the full-space statement is an infinite family of conditions.
    """
    sigma = sigma_profile(spec, n_max)
    c1 = float(sigma.min())
    c2 = float(sigma.max())
    return FrameBounds(c1, c2, c1 > 0.0, n_max)


def dual_residuals(spec_a: FrameSpec, spec_b: FrameSpec, n_max: int) -> np.ndarray:
    """|(dim H_n)^{-1} sum_j sum_k conj(A^j(n,k)) B^j(n,k) - 1| per degree."""
    if spec_a.d != spec_b.d:
        raise ParameterError("dual check requires matching dimensions")
    cross = _cross_sums(spec_a.scales, spec_b.scales, n_max)
    for n in range(n_max + 1):
        cross[n] /= dim_harmonic(spec_a.d, n)
    return np.abs(cross - 1.0)


def check_dual(spec_a: FrameSpec, spec_b: FrameSpec, n_max: int,
               tol: float = 1e-12) -> bool:
    if len(spec_a.scales) != len(spec_b.scales):
        raise ParameterError("dual check requires matching scale counts")
    return bool(np.all(dual_residuals(spec_a, spec_b, n_max) <= tol))


def canonical_dual(spec: FrameSpec, n_max: int | None = None) -> FrameSpec:
    """Per-degree rescale by 1/sigma_n; metadata is preserved.

    Degrees with vanishing sigma_n carry no energy, so there is nothing to
    rescale there.  Passing n_max asks for certification that sigma_n > 0
    on 0..n_max, and raises if the truncated system is not a frame there.
    """
    top = spec.max_bandwidth()
    sigma = sigma_profile(spec, top)
    if n_max is not None:
        zero = np.nonzero(sigma[: min(n_max, top) + 1] == 0.0)[0]
        if zero.size:
            raise NotAFrameError(
                f"sigma vanishes at degree {int(zero[0])}; "
                f"the system is not a frame on the requested range")
    dual_scales = []
    for scale in spec.scales:
        new = {}
        for (n, k), c in scale.coeffs.items():
            if c != 0.0:
                if sigma[n] == 0.0:
                    raise NotAFrameError(f"nonzero coefficient at degree {n} "
                                         f"with vanishing profile")
                new[(n, k)] = c / sigma[n]
        dual_scales.append(Scale(scale.j, scale.bandwidth, new))
    return FrameSpec(spec.d, dual_scales, spec.steerable_K, spec.invariant_m,
                     None if spec.base_rotation is None else np.array(spec.base_rotation))


def sigma_J(spec_a: FrameSpec, spec_b: FrameSpec, J: int, n: int) -> complex:
    """Partial cross profile over scales j <= J at degree n."""
    if spec_a.d != spec_b.d:
        raise ParameterError("sigma_J requires matching dimensions")
    dim = dim_harmonic(spec_a.d, n)
    total = _cross_sums(spec_a.scales[: J + 1], spec_b.scales[: J + 1], n)[n]
    return complex(total / dim)


def apply_Lambda_J(spec_a: FrameSpec, spec_b: FrameSpec, J: int, f: Signal) -> Signal:
    """Multiply each coefficient by sigma_J(n) and truncate to degree N_J."""
    if f.d != spec_a.d or spec_b.d != spec_a.d:
        raise ParameterError("apply_Lambda_J requires matching dimensions")
    n_j = spec_a.scales[J].bandwidth
    cross = _cross_sums(spec_a.scales[: J + 1], spec_b.scales[: J + 1], n_j)
    factors = [complex(cross[n] / dim_harmonic(f.d, n)) for n in range(n_j + 1)]
    out = {}
    for (n, k), c in f.coeffs.items():
        if n <= n_j:
            out[(n, k)] = c * factors[n]
    return Signal(f.d, min(f.degree, n_j), out)


# ---------------------------------------------------------------------------
# systems, analysis, synthesis
# ---------------------------------------------------------------------------

def steerable_order(spec: FrameSpec) -> int | None:
    """Smallest K for which the table passes the coefficient cutoff test:
    the largest |k_1| carrying energy (tables are finite, so always defined
    unless the spec is empty)."""
    best = None
    for scale in spec.scales:
        for (_, k), c in scale.coeffs.items():
            if c != 0:
                v = abs(k[0])
                best = v if best is None else max(best, v)
    return best


def invariance_order(spec: FrameSpec) -> int | None:
    """Largest m in {2..d-1} with k_{d-m} = 0 on the support, or None.

    This inspects the stored (pre-rotation) table; a base rotation moves the
    invariance to a conjugate subgroup without changing the order.
    """
    d = spec.d
    for m in range(d - 1, 1, -1):
        pos = d - m - 1  # zero-based position of k_{d-m}
        ok = all(k[pos] == 0
                 for scale in spec.scales
                 for (_, k), c in scale.coeffs.items() if c != 0)
        if ok:
            return m
    return None


@dataclass
class FrameSystem:
    """A spec paired with per-scale rotation grids of matching class."""
    spec: FrameSpec
    grids: list[RotationRule]
    variant: str


def build_system(spec: FrameSpec, variant: str = "auto", K: int | None = None,
                 max_nodes: int | None = None) -> FrameSystem:
    """Choose and construct per-scale rotation grids for a spec.

    With variant="auto" the cheapest grid consistent with the spec's
    structure is selected: metadata tags are trusted when present (they
    describe the function after any base rotation), otherwise the
    coefficient tables are inspected directly.
    """
    d = spec.d
    if variant == "auto":
        inv = spec.invariant_m
        steer = spec.steerable_K
        if inv is None and steer is None and spec.base_rotation is None:
            inv = invariance_order(spec)
            steer = steerable_order(spec)
        if inv == d - 1:
            variant = "zonal"
        elif inv == d - 2 and steer is not None:
            variant, K = "steerable_so_d2", steer
        elif inv == d - 2:
            variant = "so_d2_invariant"
        elif steer is not None:
            variant, K = "steerable", steer
        else:
            variant = "general"
    elif variant in ("steerable", "steerable_so_d2") and K is None:
        K = spec.steerable_K
        if K is None:
            raise ParameterError(f"variant {variant!r} needs a steerability order K")
    grids = [rotation_rule(d, scale.bandwidth, variant, K=K, max_nodes=max_nodes)
             for scale in spec.scales]
    return FrameSystem(spec, grids, variant)


def analysis(system: FrameSystem, f: Signal, j: int,
             max_nodes: int | None = None) -> np.ndarray:
    """Frame coefficients sqrt(mu_r) <f, Psi^j(g_r^{-1} .)> at scale j.

    Exact for bandlimited f: the evaluation rule integrates the product of
    f with any rotate of Psi^j without error.  Generator degrees above the
    signal degree cannot meet the signal (degree spaces are rotation
    invariant and mutually orthogonal), so they are dropped up front.
    """
    spec = system.spec
    if f.d != spec.d:
        raise ParameterError("signal dimension mismatch")
    scale = spec.scales[j]
    grid = system.grids[j]
    f_degrees = {n for (n, _), c in f.coeffs.items() if c != 0}
    visible = {key: c for key, c in scale.coeffs.items() if key[0] in f_degrees}
    psi = ExpansionEvaluator(spec.d, visible)
    if psi.n_terms == 0:
        return np.zeros(len(grid.weights), dtype=complex)
    # exact on degree deg(psi) + deg(f), the degree of the integrand
    rule = sphere_rule(spec.d, (psi.degree + f.degree + 1) // 2, max_nodes)
    f_vals = ExpansionEvaluator(spec.d, f.coeffs).eval_angles(rule.angles)
    v_conj = np.conj(rule.weights * f_vals)
    parts = psi.rotated_apply(grid.rotations, rule.points,
                              lambda vals, sl: vals @ v_conj,
                              base_rotation=spec.base_rotation)
    return np.sqrt(grid.weights) * np.conj(np.concatenate(parts))


def synthesis(system: FrameSystem, dual_spec: FrameSpec, coefficients,
              n_out: int, max_nodes: int | None = None) -> Signal:
    """Sum the weighted rotates of the dual generators and project.

    coefficients is the per-scale list produced by `analysis`; the result is
    the degree-(n_out) truncation of sum_{j,r} sqrt(mu) c_{j,r} T(g) dual^j.
    """
    spec = system.spec
    if dual_spec.d != spec.d:
        raise ParameterError("dual spec dimension mismatch")
    d = spec.d
    rule = sphere_rule(d, n_out, max_nodes)
    total = np.zeros(len(rule.weights), dtype=complex)
    for j, scale in enumerate(dual_spec.scales):
        # degrees above n_out project to zero afterwards; drop them now
        visible = {key: c for key, c in scale.coeffs.items() if key[0] <= n_out}
        ev = ExpansionEvaluator(d, visible)
        if ev.n_terms == 0:
            continue
        grid = system.grids[j]
        u = np.sqrt(grid.weights) * np.asarray(coefficients[j])
        parts = ev.rotated_apply(grid.rotations, rule.points,
                                 lambda vals, sl: u[sl] @ vals,
                                 base_rotation=dual_spec.base_rotation)
        for p in parts:
            total += p
    weighted = rule.weights * total
    coeffs = {}
    for n in range(n_out + 1):
        proj = np.conj(basis_matrix(d, n, rule.angles)) @ weighted
        for idx, k in enumerate(index_set(d, n)):
            if proj[idx] != 0.0:
                coeffs[(n, k)] = complex(proj[idx])
    return Signal(d, n_out, coeffs)


@dataclass(frozen=True)
class ParsevalGap:
    discrete_sum: float
    spectral_sum: float
    rel_gap: float


def parseval_check(spec: FrameSpec, f: Signal, system: FrameSystem,
                   coefficients=None) -> ParsevalGap:
    """Discrete frame energy against the profile-weighted spectral energy.

    discrete = sum_{j,r} mu |<f, T(g) Psi^j>|^2 computed by quadrature;
    spectral = sum_n sigma_n sum_l |f(n,l)|^2.  With grids of sufficient
    class and bandlimited f the two agree to rounding.  Precomputed analysis
    coefficients may be passed to avoid repeating the transform.
    """
    discrete = 0.0
    for j in range(len(spec.scales)):
        c = coefficients[j] if coefficients is not None else analysis(system, f, j)
        discrete += float(np.sum(np.abs(c) ** 2))
    sigma = sigma_profile(spec, max(spec.max_bandwidth(), f.degree))
    spectral = 0.0
    for (n, _), c in f.coeffs.items():
        spectral += sigma[n] * abs(c) ** 2
    gap = 0.0 if spectral == 0.0 else abs(discrete - spectral) / spectral
    if spectral == 0.0 and discrete != 0.0:
        gap = math.inf
    return ParsevalGap(discrete, float(spectral), gap)
