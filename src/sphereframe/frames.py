"""Frame-generating sequences stored as sparse coefficient tables.

The degree-wise energy profile sigma_n drives everything here: frame bounds
are its extrema, the canonical dual is the per-degree rescale by 1/sigma_n,
and dual pairs are recognized by the cross profile being identically one.

Analysis and synthesis stay in coefficient space.  T is a representation,
so the rotate T(g) Psi_n has the coefficients D^n(g) psi_n, and a grid
rotation g = S_eta H_h, times a base rotation g0 if any, factors into Givens
planes, one 1-d angle axis each.  Per degree, the transforms apply the plane
matrices D^n(G_ell(beta)) down these axes and meet in one product over the
outer and inner grid indices.  The frame coefficients of all scales form one
vector, scale after scale, each in its grid's flat order.  D^n(G_1) is a
diagonal phase, and every other plane matrix is that phase conjugated by one
fixed unitary Delta_ell.  Delta_2, the SO(3) plane, comes from the
eigenvectors of its closed-form generator; Delta_ell for ell >= 3 is built
by exact quadrature, so the discrete sums equal their integrals.  The index
layouts and the generator's stem blocks depend on (d, n) alone and are built
once per process; the Delta_ell themselves belong to a system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import NotAFrameError, ParameterError
from .harmonics import (basis_matrix, dim_harmonic, generator_step, index_set,
                        spherical_to_cartesian)
from .quadrature import (RotationRule, chain_factors, check_cap, eigh_tridiagonal,
                         rotation_rule, sphere_rule, sphere_size)
from .specfun import validate_multi_index


@dataclass
class Scale:
    j: int
    bandwidth: int            # N_j: the declared polynomial degree bound
    coeffs: dict = field(default_factory=dict)  # (n, k) -> complex

    def norm_sq(self) -> float:
        return energy(self.coeffs.values())


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

    def scale(self, j: int) -> Scale:
        """Scale j; an index outside 0..J, negative ones included, is refused."""
        if not 0 <= j < len(self.scales):
            raise ParameterError(f"scale {j} is outside 0..{len(self.scales) - 1}")
        return self.scales[j]

    def validate(self) -> None:
        """Check the table and its tags.  The table's energy must be finite.
        Without a base rotation the tags must agree with the table, so that
        no grid chosen from them is too coarse: steerable_K at least
        `steerable_order`, invariant_m at most `invariance_order`, or 1 (the
        trivial SO(1), which curvelets claim at d = 3).  A base-rotated table
        cannot be checked so; its tags are trusted."""
        if self.d < 3:
            raise ParameterError(f"dimension must be at least 3, got d={self.d}")
        if self.steerable_K is not None and self.steerable_K < 0:
            raise ParameterError(f"steerable_K must be nonnegative, got {self.steerable_K}")
        if self.invariant_m is not None and not 1 <= self.invariant_m <= self.d - 1:
            raise ParameterError(
                f"invariant_m must lie in 1..{self.d - 1}, got {self.invariant_m}")
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
        if not math.isfinite(energy(c for s in self.scales for c in s.coeffs.values())):
            raise ParameterError("the table's energy sum |c|^2 is not finite")
        if self.base_rotation is not None:
            g = np.asarray(self.base_rotation, dtype=float)
            if g.shape != (self.d, self.d):
                raise ParameterError("base_rotation has the wrong shape")
            check_rotation(g, "base_rotation")
            return
        K = steerable_order(self)
        if self.steerable_K is not None and K is not None and self.steerable_K < K:
            raise ParameterError(f"steerable_K {self.steerable_K} is below the "
                                 f"table's steerability order {K}")
        m = invariance_order(self) or 1
        if self.invariant_m is not None and self.invariant_m > m:
            raise ParameterError(f"invariant_m {self.invariant_m} exceeds the "
                                 f"table's invariance order {m}")


def check_rotation(g: np.ndarray, name: str) -> None:
    """Refuse `g`, one (d, d) matrix or a stack of them, unless each is a
    rotation: orthogonal to 1e-12, with no non-finite entry, and det > 0."""
    defect = np.max(np.abs(g @ np.swapaxes(g, -1, -2) - np.eye(g.shape[-1])))
    if not defect <= 1e-12:  # a non-finite entry gives a non-finite defect
        raise ParameterError(f"{name} is not a rotation: max |{name} {name}^T - I| = {defect:.3e}")
    if np.any(np.linalg.det(g) < 0):
        raise ParameterError(f"{name} is not a rotation: det {name} < 0")


def energy(coeffs) -> float:
    """sum |c|^2 over the coefficients, inf where a square overflows.  The
    squares are abs(c) ** 2, whose bits the finite sums keep; Python raises
    OverflowError where that square, or abs(c) itself, is too large, and
    numpy, for a numpy coefficient, warns."""
    try:
        with np.errstate(over="ignore"):
            return float(sum(abs(c) ** 2 for c in coeffs))
    except OverflowError:
        return math.inf


@dataclass
class Signal:
    """Bandlimited function given by its coefficient table up to `degree`."""
    d: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def norm_sq(self) -> float:
        return energy(self.coeffs.values())


def random_signal(d: int, degree: int, seed=None) -> Signal:
    """Unit-energy signal with complex-Gaussian coefficients per (n, k).

    The normals come from one draw, real and imaginary part of each key in
    turn, keys by degree and then in `index_set` order: the stream that one
    scalar draw per part would give.  A negative degree is refused, and the
    C(N+d-1, d-1) + C(N+d-2, d-1) coefficients of degree N are capped before
    anything is drawn.
    """
    if degree < 0:
        raise ParameterError(f"random signal degree must be nonnegative, got {degree}")
    check_cap(math.comb(degree + d - 1, d - 1) + math.comb(degree + d - 2, d - 1),
              "random signal")
    keys = [(n, k) for n in range(degree + 1) for k in index_set(d, n)]
    z = np.random.default_rng(seed).standard_normal(2 * len(keys)).tolist()
    coeffs = {key: complex(re, im) for key, re, im in zip(keys, z[0::2], z[1::2])}
    scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
    return Signal(d, degree, {key: c * scale for key, c in coeffs.items()})


# ---------------------------------------------------------------------------
# spectral profiles, bounds, duality
# ---------------------------------------------------------------------------

def _cross_sums(scales_a, scales_b, n_max: int) -> np.ndarray:
    """sum_j sum_k conj(A^j(n,k)) B^j(n,k) for n = 0..n_max, undivided.

    The n_max + 1 entries are checked against the node cap first."""
    check_cap(n_max + 1, "degree profile")
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
    """Extrema of the profile on 0..n_max; a frame when C1 > 0 and C2 is
    finite.

    This certifies the frame inequality only on polynomials of degree n_max;
    the full-space statement is an infinite family of conditions.
    """
    sigma = sigma_profile(spec, n_max)
    c1 = float(sigma.min())
    c2 = float(sigma.max())
    return FrameBounds(c1, c2, c1 > 0.0 and math.isfinite(c2), n_max)


def dual_residuals(spec_a: FrameSpec, spec_b: FrameSpec, n_max: int) -> np.ndarray:
    """|(dim H_n)^{-1} sum_j sum_k conj(A^j(n,k)) B^j(n,k) - 1| per degree."""
    if spec_a.d != spec_b.d:
        raise ParameterError("dual check requires matching dimensions")
    if len(spec_a.scales) != len(spec_b.scales):
        raise ParameterError("dual check requires matching scale counts")
    cross = _cross_sums(spec_a.scales, spec_b.scales, n_max)
    for n in range(n_max + 1):
        cross[n] /= dim_harmonic(spec_a.d, n)
    return np.abs(cross - 1.0)


def canonical_dual(spec: FrameSpec, n_max: int | None = None) -> FrameSpec:
    """Per-degree rescale by 1/sigma_n; metadata is preserved.

    Degrees with vanishing sigma_n carry no energy, so there is nothing to
    rescale there.  Passing n_max asks for certification that sigma_n > 0
    on 0..n_max, and raises if the truncated system is not a frame there.
    sigma vanishes above the top bandwidth, so an n_max above it raises
    before anything is computed.
    """
    top = spec.max_bandwidth()
    if n_max is not None and n_max > top:
        raise NotAFrameError(f"sigma vanishes at degree {top + 1}; "
                             f"the system is not a frame on the requested range")
    sigma = sigma_profile(spec, top)
    if n_max is not None:
        zero = np.nonzero(sigma[: n_max + 1] == 0.0)[0]
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


def _structure(spec: FrameSpec) -> tuple[int | None, int | None]:
    """(invariance order, steerability order) that grids may rely on.

    Tags are trusted when present: they describe the function after any base
    rotation (`FrameSpec.validate` checks those of an unrotated table against
    it).  Otherwise the table is inspected, unless a base rotation moves it,
    in which case no structure is assumed.
    """
    if spec.invariant_m is not None or spec.steerable_K is not None:
        return spec.invariant_m, spec.steerable_K
    if spec.base_rotation is not None:
        return None, None
    return invariance_order(spec), steerable_order(spec)


def admits(spec: FrameSpec, variant: str, K: int | None = None) -> bool:
    """Whether grids of this variant reconstruct every signal from the spec's
    coefficients: zonal grids need SO(d-1)-invariance, the so_d2 variants
    SO(d-2)-invariance (trivial at d = 3), the steerable ones a steerability
    order of at most K (K defaults to the spec's tag, as in `build_system`).
    "general" and "auto" fit every spec.
    """
    inv, steer = _structure(spec)
    d = spec.d
    if variant in ("steerable", "steerable_so_d2"):
        K = spec.steerable_K if K is None else K
        if steer is None or K is None or steer > K:
            return False
    if variant == "zonal":
        return inv == d - 1
    if variant in ("so_d2_invariant", "steerable_so_d2"):
        return d == 3 or (inv is not None and inv >= d - 2)
    return True


@dataclass
class FrameSystem:
    """A spec paired with per-scale rotation grids of matching class.

    The system also owns the tables that `analysis` and `synthesis` build:
    per degree n, the dense unitary Delta_ell of each plane ell >= 2, keyed by
    ell.  They live as long as the system, so one round trip builds each
    once.  What depends on (d, n) alone outlives the system (see `_Degree`):
    a second system finds the index layouts and the ladder stems of Delta_2
    built, but builds its own Delta_ell for ell >= 3.  `_phases` holds one
    phase table per axis of the grids and of a base rotation's chain, keyed
    by the axis's bytes: e^{-i k beta} for beta in the axis and k = -M..M,
    with M the largest degree the axis has served.  The phases depend on
    the axis node and the label k_{d-2} only, not on the degree, so every
    degree and plane that runs down the axis gathers its columns from the
    one table.
    """
    spec: FrameSpec
    grids: list[RotationRule]
    variant: str
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _phases: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_system(spec: FrameSpec, variant: str = "auto", K: int | None = None) -> FrameSystem:
    """Choose and construct per-scale rotation grids for a spec.

    With variant="auto" the cheapest grid the spec admits is selected, from
    the structure `_structure` reads off its tags or table.  Any other
    variant is built as asked, whether or not the spec admits it: the
    transforms are exact on every grid, only reconstruction needs `admits`.
    """
    d = spec.d
    if variant == "auto":
        inv, steer = _structure(spec)
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
    grids = [rotation_rule(d, scale.bandwidth, variant, K=K) for scale in spec.scales]
    return FrameSystem(spec, grids, variant)


def _by_degree(d: int, coeffs: dict, n_max: int | None = None) -> dict:
    """Nonzero entries of a coefficient table grouped as n -> {k: c}, with
    every multi-index validated."""
    out: dict[int, dict] = {}
    for (n, k), c in coeffs.items():
        if c != 0 and (n_max is None or n <= n_max):
            out.setdefault(n, {})[validate_multi_index(d, n, k)] = c
    return out


def _by_scale(system: FrameSystem, coefficients: np.ndarray) -> list:
    """Views of a frame-coefficient vector, one per scale, by grid size."""
    sizes = [len(grid) for grid in system.grids]
    shape = getattr(coefficients, "shape", None)
    if shape != (sum(sizes),):
        raise ParameterError(f"expected one array of {sum(sizes)} frame coefficients, "
                             f"got shape {shape}")
    return np.split(coefficients, np.cumsum(sizes)[:-1])


@dataclass(frozen=True)
class _Layout:
    """What the transforms read off `index_set(d, n)` alone: the keys, the
    position of each key, the label k_{d-2} of each, and for each position p
    of the labels a stem id per key, shared by the keys that agree
    everywhere but at p.  The map and the arrays are read-only."""
    keys: tuple
    index: MappingProxyType
    klast: np.ndarray
    stems: tuple

    def reach(self, pos: int, support) -> np.ndarray:
        """Indices of the keys that agree with some key of support everywhere
        except at position pos: the rows a plane mixing that label can reach."""
        stem = self.stems[pos]
        hit = np.zeros(len(stem), dtype=bool)
        hit[stem[support]] = True
        return np.flatnonzero(hit[stem])


@lru_cache(maxsize=128)
def _layout(d: int, n: int) -> _Layout:
    """The layout of degree n, remembered per process: at most 128 of them,
    the most recently used, each about 60 + 8 (d - 1) bytes per key of
    `index_set(d, n)`, whose own memo holds the keys (89 KB at d = 4,
    n = 32)."""
    keys = index_set(d, n)
    stems = []
    for pos in range(d - 2):
        ids: dict = {}
        stems.append(np.array([ids.setdefault(k[:pos] + k[pos + 1:], len(ids)) for k in keys],
                              dtype=np.intp))
    layout = _Layout(keys, MappingProxyType({k: i for i, k in enumerate(keys)}),
                     np.array([k[-1] for k in keys]), tuple(stems))
    for a in (layout.klast, *layout.stems):
        a.flags.writeable = False
    return layout


def _unitarize(D: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step D(3I - D^H D)/2 toward the unitary polar factor."""
    return D @ (3.0 * np.eye(len(D)) - D.conj().T @ D) / 2.0


_STEMS_KEPT = 64  # ladder stems N <= _STEMS_KEPT outlive their system
_stems: dict = {}


def _ladder_stem(N: int) -> np.ndarray:
    """The block of Delta_2 on a stem M = -N..N, from the eigenvectors of the
    generator of plane 2.  With S = diag(i^p), S^H iX S is real symmetric
    tridiagonal with the off-diagonal X[M+1, M] = `generator_step(2, M, N)`,
    so its eigenvectors V give iX's as S V.

    The real factor depends on N alone, so for N <= _STEMS_KEPT it is
    remembered per process: 65 read-only blocks of (2N+1)^2 floats, 2.9 MB
    in all.  A larger stem is solved on every call."""
    V = _stems.get(N)
    if V is None:
        off = generator_step(2, np.arange(-N, N), N)
        _, V = eigh_tridiagonal(np.zeros(2 * N + 1), off)  # eigenvalues -N..N
        # the eigenvectors leave |V^T V - I| up to 6e-14 at N = 64
        V = _unitarize(V)
        V.flags.writeable = False
        if N <= _STEMS_KEPT:
            _stems[N] = V
    return np.array([1, 1j, -1, -1j])[np.arange(2 * N + 1) % 4, None] * V


class _Degree:
    """Representation matrices D^n(g)[k, k'] = <T(g) Y_k', Y_k> of one degree.

    D^n(G_1(alpha)) is the phase diag(e^{-i k_{d-2} alpha}), and every other
    plane matrix is that phase conjugated by a unitary Delta_ell:
    D^n(G_ell(beta)) = Delta_ell diag(e^{-i k_{d-2} beta}) Delta_ell^H.
    G_ell mixes only k_{d-ell} (position d-ell-1 of k), so plane matrices are
    formed on index sets: columns where the vectors they act on live, rows
    where those vectors can land.

    Delta_2 needs no quadrature.  The generator X = d/dbeta D^n(G_2(beta))
    at 0 is real, antisymmetric and tridiagonal on each stem (every label
    but M = k_{d-2} fixed, M = -N..N with N = k_{d-3}, or n at d = 3), with
    the closed-form steps X[M+1, M] of `generator_step`, the angular-momentum
    ladder.  iX = Delta_2 diag(k_{d-2}) Delta_2^H, so the columns of Delta_2
    are its eigenvectors, ordered by eigenvalue; each is fixed up to a phase,
    which the conjugation cancels.

    Delta_ell = D^n(P_ell) for ell >= 3 is built by exact quadrature on
    `sphere_rule(d, n)`: the harmonics Y_k' at the moved nodes P_ell^{-1} x_p,
    projected on every Y_k.  Every other rotation, a base rotation's
    included, is a chain of planes (`inner`).  The node count is checked
    against the cap when the object is made, so the cap fires before any
    work; the rule itself is built only when such a plane is missing.  An
    object serves one degree of one call.  Its matrices go into `tables`,
    the degree's entry of the owning `FrameSystem`, keyed by ell.  The
    phases come from `phases`, the system's per-axis tables shared by all
    degrees (see `FrameSystem`); a table is built, or widened to columns
    -n..n, the first time this degree needs it, so after the cap check.
    Without an owner both dicts are the object's own.

    What depends on (d, n) alone outlives the object and its system, per
    process and bounded: the layout of the index set (`_layout`) and the
    ladder stems of Delta_2 (`_ladder_stem`).  Delta_ell for ell >= 3 does
    not: it is the large memory at degree 32, and its quadrature's
    `sphere_rule` and `basis_matrix` calls are what a traced run counts.
    """

    def __init__(self, d: int, n: int, tables: dict | None = None, phases: dict | None = None):
        self.d, self.n = d, n
        check_cap(sphere_size(d, n), "sphere rule")
        self.layout = _layout(d, n)
        self.keys, self.klast = self.layout.keys, self.layout.klast
        self.tables = {} if tables is None else tables
        self.phases = {} if phases is None else phases

    @cached_property
    def rule(self):
        return sphere_rule(self.d, self.n)

    @cached_property
    def proj(self) -> np.ndarray:
        return np.conj(basis_matrix(self.d, self.n, self.rule.angles)) * self.rule.weights

    def _quadrature(self, ell: int) -> np.ndarray:
        """Delta_ell = D^n(P_ell) for ell >= 3, with P_ell the cyclic shift of
        the first ell+1 coordinates by two places, so that G_ell = P G_1 P^T."""
        shift = np.eye(self.d)
        shift[:ell + 1, :ell + 1] = np.roll(np.eye(ell + 1), -2, axis=0)
        # the rule's cartesian nodes are not kept beside the moved ones: the
        # basis at the moved nodes is the round trip's memory peak
        moved = spherical_to_cartesian(self.rule.angles) @ shift
        D = self.proj @ basis_matrix(self.d, self.n, moved).T
        # quadrature leaves |D^H D - I| near 1e-14; a Newton-Schulz step fixes it
        return _unitarize(D)

    def delta(self, ell: int) -> np.ndarray:
        """Delta_ell for a plane ell >= 2, from the tables or built on first use."""
        if ell not in self.tables:
            self.tables[ell] = self._ladder_basis() if ell == 2 else self._quadrature(ell)
        return self.tables[ell]

    def _ladder_basis(self) -> np.ndarray:
        """Delta_2, one `_ladder_stem` block per stem.  The stems are
        contiguous runs M = -N..N of the index set."""
        out = np.zeros((len(self.keys), len(self.keys)), dtype=complex)
        lo = 0
        while lo < len(self.keys):
            N = -self.keys[lo][-1]
            stem = slice(lo, lo + 2 * N + 1)
            out[stem, stem] = _ladder_stem(N)
            lo += 2 * N + 1
        return out

    def _phase_table(self, axis: np.ndarray) -> tuple[np.ndarray, int]:
        """(e^{-i k beta} for beta in axis and k = -M..M, M) from the phase
        tables, with M >= n; built, or rebuilt wider, on first use."""
        key = axis.tobytes()
        table = self.phases.get(key)
        if table is None or table.shape[1] < 2 * self.n + 1:
            table = np.exp(-1j * np.outer(axis, np.arange(-self.n, self.n + 1)))
            self.phases[key] = table
        return table, table.shape[1] // 2

    def plane(self, ell: int, axis: np.ndarray, rows, cols) -> np.ndarray:
        """D^n(G_ell(beta))[rows, cols] for beta in axis, shape
        (len(axis), |rows|, |cols|); for ell = 1 (rows = cols) only the
        diagonal, shape (len(axis), |cols|)."""
        table, M = self._phase_table(axis)
        if ell == 1:
            return table[:, self.klast[cols] + M]
        phases = table[:, self.klast + M]
        delta = self.delta(ell)
        # rows, the reach of cols, are never fewer: the phase scales the smaller factor
        return delta[rows] @ (phases[:, :, None] * delta[cols].conj().T)

    def reach(self, ell: int, support):
        return support if ell == 1 else self.layout.reach(self.d - ell - 1, support)

    def generator(self, table: dict) -> tuple[np.ndarray, list]:
        """psi_n as a vector over index_set(d, n) and its support."""
        index = self.layout.index
        entries = {index[k]: c for k, c in table.items()}
        support = sorted(entries)
        psi = np.zeros(len(self.keys), dtype=complex)
        psi[support] = [entries[i] for i in support]
        return psi, support

    # Each plane below is contracted by one np.dot on the operands that
    # np.tensordot would form, so the bits are tensordot's; `@` rounds a
    # contraction of length one differently.

    def inner(self, factors: tuple, psi: np.ndarray, support: list):
        """Rows D^n(H_h) psi over the grid of the inner factors, restricted to
        the index set they reach; returns (B (R_in, |set|), set).

        The planes are applied right to left, so each new axis is slower than
        the ones already expanded, matching the flat grid order.
        """
        rows = psi[support][None, :]
        for section in reversed(factors):
            for ell in range(len(section.axes), 0, -1):
                reached = self.reach(ell, support)
                m = self.plane(ell, section.axes[ell - 1].nodes, reached, support)
                if ell == 1:
                    rows = m[:, None, :] * rows[None, :, :]
                else:
                    A, R, C = m.shape
                    rows = np.dot(rows, m.reshape(A * R, C).T).reshape(-1, A, R).transpose(1, 0, 2)
                rows = rows.reshape(-1, len(reached))
                support = reached
        return rows, support

    def _chain(self, section, target) -> list:
        """Index sets T_0 .. T_{d-1} of the outer chain, back from T_{d-1} = target."""
        sets = [target]
        for ell in range(len(section.axes), 0, -1):
            sets.append(self.reach(ell, sets[-1]))
        return sets[::-1]

    def outer_adjoint(self, section, f: np.ndarray, target) -> np.ndarray:
        """Rows (D^n(S_eta)^H f)[target] over the outer factor's grid,
        applying G_1^H first so that each new axis is the fastest."""
        sets = self._chain(section, target)
        rows = f[sets[0]][None, :]
        for ell, axis in enumerate(section.axes, 1):
            m = np.conj(self.plane(ell, axis.nodes, sets[ell - 1], sets[ell]))
            if ell == 1:
                rows = rows[:, None, :] * m[None, :, :]
            else:
                rows = np.dot(rows, m.transpose(1, 0, 2).reshape(m.shape[1], -1))
            rows = rows.reshape(-1, len(sets[ell]))
        return rows

    def outer_apply(self, section, rows: np.ndarray, target) -> np.ndarray:
        """sum_eta D^n(S_eta)[:, target] rows[eta], the adjoint of
        `outer_adjoint`: the fastest axis is summed first."""
        sets = self._chain(section, target)
        for ell in range(len(section.axes), 0, -1):
            axis = section.axes[ell - 1].nodes
            m = self.plane(ell, axis, sets[ell - 1], sets[ell])
            rows = rows.reshape(-1, len(axis), len(sets[ell]))
            if ell == 1:
                rows = np.einsum("pak,ak->pk", rows, m)
            else:
                rows = np.dot(rows.reshape(len(rows), -1),
                              m.transpose(0, 2, 1).reshape(-1, m.shape[1]))
        out = np.zeros(len(self.keys), dtype=complex)
        out[sets[0]] = rows[0]
        return out


def analysis(system: FrameSystem, f: Signal) -> np.ndarray:
    """Frame coefficients sqrt(mu_r) <f, Psi^j(g_r^{-1} .)> of every scale.

    The vector holds the scales in order, each in its grid's flat order, so
    it has sum_j |grid_j| entries.  With g = S_eta H the grid's outer
    section times its inner rotation (H = H_h g0 under a base rotation g0,
    whose one-node chain follows the inner factors), per degree n
        <f_n, T(g) Psi_n> = sum_k (D^n(S_eta)^H f_n)_k conj(D^n(H) psi_n)_k,
    one (R_out x |supp|) @ (|supp| x R_in) product over the index set supp
    that the inner rotations reach from psi_n.  Only degrees present in both
    f and Psi^j contribute (degree spaces are rotation invariant and
    mutually orthogonal).  Degrees run in the outer loop and scales in the
    inner one, so f_n is formed once per degree.  Each degree checks the
    node count of `sphere_rule(d, n)` against the cap, the largest first, so
    the cap fires before any work is done, though only planes ell >= 3
    build the rule; the matrices stay in the system's tables for later calls.
    """
    spec = system.spec
    if f.d != spec.d:
        raise ParameterError("signal dimension mismatch")
    d = spec.d
    f_tables = _by_degree(d, f.coeffs)
    psi_tables = [_by_degree(d, scale.coeffs) for scale in spec.scales]
    base = () if spec.base_rotation is None else chain_factors(spec.base_rotation)
    out = np.zeros(sum(len(grid) for grid in system.grids), dtype=complex)
    parts = _by_scale(system, out)
    for n in sorted(f_tables.keys() & set().union(*psi_tables), reverse=True):
        rep = _Degree(d, n, system._tables.setdefault(n, {}), system._phases)
        f_n, _ = rep.generator(f_tables[n])
        for grid, by_degree, part in zip(system.grids, psi_tables, parts):
            if n in by_degree:
                psi, support = rep.generator(by_degree[n])
                rows, support = rep.inner(grid.factors[1:] + base, psi, support)
                # (R_out x R_in) in the grid's flat order, outer index slowest
                part += (rep.outer_adjoint(grid.factors[0], f_n, support)
                         @ np.conj(rows).T).reshape(-1)
    for grid, part in zip(system.grids, parts):
        part *= np.sqrt(grid.weights)
    return out


def synthesis(system: FrameSystem, dual_spec: FrameSpec, coefficients, n_out: int) -> Signal:
    """The degree-(n_out) truncation of sum_{j,r} sqrt(mu_r) c_{j,r} T(g_r) dual^j.

    coefficients is the vector produced by `analysis`, split by grid size.
    This is the exact adjoint of analysis: per degree n and scale j, with U
    the weighted coefficients as an (R_out x R_in) array and B the rows
    D^n(H_h g0) psi_n (g0 the dual's base rotation, if any),
        out_n = sum_eta D^n(S_eta) (U @ B)[eta].
    No signal is evaluated.  After `analysis` of every degree up to n_out,
    the dual finds every plane in the system's tables, so nothing is
    projected either.  Degrees run from the largest down, so the cap on
    `sphere_rule(d, n)` fires first.
    """
    spec = system.spec
    if dual_spec.d != spec.d:
        raise ParameterError("dual spec dimension mismatch")
    d = spec.d
    tables = [_by_degree(d, scale.coeffs, n_out) for scale in dual_spec.scales]
    base = () if dual_spec.base_rotation is None else chain_factors(dual_spec.base_rotation)
    weighted = [(np.sqrt(grid.weights) * part).reshape(len(grid.factors[0]), -1)
                for grid, part in zip(system.grids, _by_scale(system, coefficients))]
    parts = {}
    for n in sorted(set().union(*tables), reverse=True):
        rep = _Degree(d, n, system._tables.setdefault(n, {}), system._phases)
        out = np.zeros(len(rep.keys), dtype=complex)
        for grid, by_degree, u in zip(system.grids, tables, weighted):
            if n in by_degree:
                psi, support = rep.generator(by_degree[n])
                rows, support = rep.inner(grid.factors[1:] + base, psi, support)
                out += rep.outer_apply(grid.factors[0], u @ rows, support)
        parts[n] = (rep.keys, out)
    coeffs = {}
    for n in sorted(parts):
        keys, out = parts[n]
        for k, v in zip(keys, out.tolist()):
            if v != 0.0:
                coeffs[(n, k)] = v
    return Signal(d, n_out, coeffs)


@dataclass(frozen=True)
class ParsevalGap:
    discrete_sum: float
    spectral_sum: float
    rel_gap: float


def parseval_check(system: FrameSystem, f: Signal, coefficients=None) -> ParsevalGap:
    """Discrete frame energy against the profile-weighted spectral energy.

    discrete = sum_{j,r} mu |<f, T(g) Psi^j>|^2 computed by quadrature;
    spectral = sum_n sigma_n sum_l |f(n,l)|^2.  With grids of sufficient
    class and bandlimited f the two agree to rounding.  Precomputed analysis
    coefficients may be passed to avoid repeating the transform.  sigma is
    taken only up to the highest degree that carries a coefficient of f.
    """
    if coefficients is None:
        coefficients = analysis(system, f)
    discrete = 0.0
    for part in _by_scale(system, coefficients):
        discrete += float(np.sum(np.abs(part) ** 2))
    sigma = sigma_profile(system.spec, max((n for n, _ in f.coeffs), default=0)).tolist()
    spectral = 0.0
    for (n, _), c in f.coeffs.items():
        spectral += sigma[n] * abs(c) ** 2
    gap = 0.0 if spectral == 0.0 else abs(discrete - spectral) / spectral
    if spectral == 0.0 and discrete != 0.0:
        gap = math.inf
    return ParsevalGap(discrete, spectral, gap)
