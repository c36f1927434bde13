"""Frame-generating sequences stored as sparse coefficient tables.

The degree-wise energy profile sigma_n drives everything here: frame bounds
are its extrema, the canonical dual is the per-degree rescale by 1/sigma_n,
and dual pairs are recognized by the cross profile being identically one.

Analysis and synthesis stay in coefficient space.  T is a representation,
so the rotate T(g) Psi_n has the coefficients D^n(g) psi_n, and a grid
rotation g = S_eta H_h, times a base rotation g0 if any, factors into Givens
planes, one 1-d angle axis each.  Both transforms share one walk over
(degree, scale) pairs (`_walk`) that applies the plane matrices
D^n(G_ell(beta)) up the inner axes to psi_n, and each keeps only its
contraction with the outer grid indices.  D^n(G_1) is a diagonal phase, and
every other plane matrix is that phase conjugated by one fixed unitary
Delta_ell.  The phase depends on the label k_{d-2} alone, not on n, so on
grids with one inner rotation (zonal ones) the walk runs the outer chain on
from psi's side up to its phase plane, the degrees are summed per label,
and the phase axis is applied once per scale for all degrees, as fast SO(3)
transforms separate their variables.  A plain zonal scale at d = 3 (no base
rotation, psi on the zonal key) is a spherical-harmonic transform: its rows
are associated Legendre values, which one recurrence gives for every degree
(`_legendre`), and it takes no part in the walk.  The frame coefficients of
all scales form one vector, scale after scale, each in its grid's flat order.
Delta_2, the SO(3) plane, comes from the eigenvectors of its closed-form generator; Delta_ell
for ell >= 3 is built by exact quadrature, so the discrete sums equal their
integrals.  The index layouts and the generator's stem blocks depend on
(d, n) alone and are built once per process; the Delta_ell themselves
belong to a system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import NotAFrameError, ParameterError
from .harmonics import basis_matrix, dim_harmonic, generator_step, index_set
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
        """Check the table and its tags.  Scale j sits at position j, its
        bandwidth is nonnegative and no smaller than the one before, and
        every key is stored as an int n and a tuple of ints k, as grids and
        profiles read them.  The table's energy must be finite.
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
        prev = 0
        for j, s in enumerate(self.scales):
            if s.j != j:
                raise ParameterError(f"scale {j} is labelled j = {s.j}")
            if s.bandwidth < prev:
                raise ParameterError("scale bandwidths must be nonnegative and nondecreasing")
            prev = s.bandwidth
            for (n, k), _ in s.coeffs.items():
                # the check hands back k itself only when k is a tuple of ints
                if type(n) is not int or validate_multi_index(self.d, n, k) is not k:
                    raise ParameterError(f"key {(n, k)!r} is not an int and a tuple of ints")
                if n > s.bandwidth:
                    raise ParameterError(
                        f"coefficient at degree {n} exceeds scale bandwidth {s.bandwidth}")
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


class Signal:
    """Bandlimited function of degree at most `degree`, in one of two forms.

    `Signal(d, degree, coeffs)` holds a coefficient table (n, k) -> c, as io,
    diagnostics and callers write one.  `random_signal` and `synthesis` make
    the vector form: f_n in H_n as one vector over `index_set(d, n)` per
    degree n, the vectors back to back in one read-only array.  The
    transforms and the round trip read vectors (`vectors`): a table is
    packed at the degrees asked for only, every nonzero key validated once
    on the way, so a key far above every bandwidth is never made dense.  A
    vector-made signal builds `coeffs` when it is first read, once and
    read-only, with its zeros dropped.
    """

    def __init__(self, d: int, degree: int, coeffs: dict | None = None):
        self.d, self.degree = d, degree
        self._coeffs = {} if coeffs is None else coeffs
        self._vectors = self._energies = None  # the vector form: n -> f_n, n -> |f_n|^2

    @classmethod
    def _of_vectors(cls, d: int, degree: int, degrees, flat: np.ndarray) -> Signal:
        """The signal whose vector at each of `degrees`, ascending, is the
        next block of `flat`, dim H_n entries long.  Its energies are summed
        here, once: the vectors do not change."""
        f = cls(d, degree)
        flat.flags.writeable = False
        ends = np.cumsum([dim_harmonic(d, n) for n in degrees], dtype=int).tolist()
        starts = [0] + ends[:-1]
        f._coeffs, f._energies = None, {}
        f._vectors = {n: flat[lo:hi] for n, lo, hi in zip(degrees, starts, ends)}
        if ends:
            with np.errstate(over="ignore"):
                sums = np.add.reduceat(np.abs(flat) ** 2, starts).tolist()
            hits = np.logical_or.reduceat(flat != 0, starts).tolist()
            f._energies = {n: e for n, e, hit in zip(degrees, sums, hits) if hit}
        return f

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = MappingProxyType(
                {(n, k): c for n, v in self._vectors.items()
                 for k, c in zip(index_set(self.d, n), v.tolist()) if c != 0.0})
        return self._coeffs

    def norm_sq(self) -> float:
        return energy(self.coeffs.values())

    def energies(self) -> dict:
        """|f_n|^2 for each degree n at which f has a nonzero coefficient,
        ascending; inf where a square overflows.  A table's degrees sum
        abs(c) ** 2 in key order (`energy`), a vector's in numpy's order."""
        if self._energies is not None:
            return dict(self._energies)
        by_degree: dict = {}
        for (n, _), c in self._coeffs.items():
            if c != 0:
                by_degree.setdefault(n, []).append(c)
        return {n: energy(by_degree[n]) for n in sorted(by_degree)}

    def vectors(self, degrees) -> dict:
        """f_n over index_set(d, n) for each degree n of `degrees` at which f
        has a nonzero coefficient, ascending.  The vector form hands back
        read-only views of its array.  A table is grouped by degree, every
        nonzero key validated once, at any degree (`_by_degree`), and packed
        at the degrees asked for (`_pack`)."""
        if self._vectors is not None:
            return {n: v for n, v in self._vectors.items()
                    if n in degrees and n in self._energies}
        tables = _by_degree(self.d, self._coeffs)
        return {n: _pack(self.d, n, tables[n])[0] for n in sorted(tables) if n in degrees}


def random_signal(d: int, degree: int, seed=None) -> Signal:
    """Unit-energy signal with complex-Gaussian coefficients per (n, k), in
    vector form.

    The normals come from one draw, real and imaginary part of each key in
    turn, keys by degree and then in `index_set` order: the stream that one
    scalar draw per part would give, viewed as complex.  The energy is
    Python's abs(c) ** 2 summed in key order, whose bits numpy's complex
    abs does not always give.  A negative degree is refused, and the
    C(N+d-1, d-1) + C(N+d-2, d-1) coefficients of degree N are capped before
    anything is drawn.
    """
    if degree < 0:
        raise ParameterError(f"random signal degree must be nonnegative, got {degree}")
    size = math.comb(degree + d - 1, d - 1) + math.comb(degree + d - 2, d - 1)
    check_cap(size, "random signal")
    c = np.random.default_rng(seed).standard_normal(2 * size).view(complex)
    scale = 1.0 / math.sqrt(sum(abs(z) ** 2 for z in c.tolist()))
    return Signal._of_vectors(d, degree, range(degree + 1), c * scale)


# ---------------------------------------------------------------------------
# spectral profiles, bounds, duality
# ---------------------------------------------------------------------------

def _cross_sums(scales_a, scales_b, n_max: int) -> np.ndarray:
    """sum_j sum_k conj(A^j(n,k)) B^j(n,k) for n = 0..n_max, undivided.

    A negative n_max is refused, and the n_max + 1 entries are checked
    against the node cap."""
    if n_max < 0:
        raise ParameterError(f"n_max must be nonnegative, got {n_max}")
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
    if n_max is not None and n_max < 0:
        raise ParameterError(f"n_max must be nonnegative, got {n_max}")
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


def _structure(spec: FrameSpec) -> tuple[int | None, int | None, str]:
    """(invariance order, steerability order) that grids may rely on, and
    where they were read: "tags", "table" or "none".

    Tags are trusted when present: they describe the function after any base
    rotation (`FrameSpec.validate` checks those of an unrotated table against
    it).  Otherwise the table is inspected, unless a base rotation moves it,
    in which case no structure is assumed.
    """
    if spec.invariant_m is not None or spec.steerable_K is not None:
        return spec.invariant_m, spec.steerable_K, "tags"
    if spec.base_rotation is not None:
        return None, None, "none"
    return invariance_order(spec), steerable_order(spec), "table"


def admits(spec: FrameSpec, variant: str, K: int | None = None) -> bool:
    """Whether grids of this variant reconstruct every signal from the spec's
    coefficients: zonal grids need SO(d-1)-invariance, the so_d2 variants
    SO(d-2)-invariance (trivial at d = 3), the steerable ones a steerability
    order of at most K (K defaults to the spec's tag, as in `build_system`).
    "general" and "auto" fit every spec.
    """
    inv, steer, _ = _structure(spec)
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


_KEPT_BYTES = 4 << 20  # plane operands and chain sets one system keeps


class _Kept:
    """The bytes of plane operands and chain sets, keys included, that a
    system's degrees keep, at most `_KEPT_BYTES` in all.  The w3 and curvelet
    d4 J3 round trips keep 0.37 and 0.14 MB, a plain zonal d3 one nothing (it
    forms neither); unbounded, a wavelet d4 J4 round trip of degree 16 would
    keep 54 MB.  What does not fit is formed per call."""

    def __init__(self):
        self.nbytes = 0

    def fits(self, nbytes: int) -> bool:
        """Whether nbytes more still fit; if so, they are counted."""
        if self.nbytes + nbytes > _KEPT_BYTES:
            return False
        self.nbytes += nbytes
        return True


@dataclass
class FrameSystem:
    """A spec paired with per-scale rotation grids of matching class.

    The system also keeps what `analysis` and `synthesis` build: one
    `_Degree` per degree n that a transform has reached, made whole on first
    use and kept as long as the system, so one round trip builds each plane
    basis once.  `_phases` holds one phase table per axis of the grids and of
    a base rotation's chain, keyed by the axis's bytes: e^{-i k beta} for
    beta in the axis and k = -M..M, with M the largest degree the axis has
    served.  The phases depend on the axis node and the label k_{d-2} only,
    not on the degree, so every degree and plane that runs down the axis
    gathers its columns from the one table, and a grid with one inner
    rotation reads its phase axis's table once per scale (`_alpha`).  The
    weights' square roots are taken once (`_roots`).  Each degree also
    keeps the plane operands (ell >= 2) and outer-chain index sets its
    transforms form, so that synthesis replays what analysis formed:
    `_kept` counts their bytes against `_KEPT_BYTES` over the whole system,
    and past it they are formed per call.  What depends on (d, n) alone outlives the
    system (see `_Degree`).  A plain zonal scale keeps its `_legendre` table
    instead, one per polar axis (`_zonal`), so a round trip builds it once.
    """
    spec: FrameSpec
    grids: list[RotationRule]
    variant: str
    choice: dict = field(default_factory=dict, compare=False)  # see `build_system`
    _degrees: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _phases: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _kept: _Kept = field(default_factory=_Kept, init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _degree(self, n: int) -> _Degree:
        """The `_Degree` of degree n, built on first use.  The node count of
        `sphere_rule(d, n)` is checked against the cap on every call, before
        anything is built or returned."""
        check_cap(sphere_size(self.spec.d, n), "sphere rule")
        rep = self._degrees.get(n)
        if rep is None:
            rep = self._degrees[n] = _Degree(self.spec.d, n, self._phases, self._kept)
        return rep

    @cached_property
    def _roots(self) -> list:
        """sqrt(mu_r) per grid, the weights' square roots, taken once."""
        return [np.sqrt(grid.weights) for grid in self.grids]

    def _alpha(self, grid: RotationRule, M: int) -> np.ndarray:
        """e^{-i m alpha} for alpha in the grid's phase axis, the first of its
        outer section, and m = -M..M: a view of the axis's phase table."""
        table = _phase_table(self._phases, grid.factors[0].axes[0].nodes, M)
        K = table.shape[1] // 2
        return table[:, K - M:K + M + 1]

    def _zonal(self, grid: RotationRule, M: int) -> np.ndarray:
        """`_legendre` of the grid's polar axis beta for m, n <= M: a view of the
        table kept per axis, built, or rebuilt to M, the first time it is asked for M."""
        beta = grid.factors[0].axes[1].nodes
        table = self._columns.get(beta.tobytes())
        if table is None or len(table) <= M:
            table = self._columns[beta.tobytes()] = _legendre(beta, M)
        return table[:M + 1, :M + 1]


def build_system(spec: FrameSpec, variant: str = "auto", K: int | None = None) -> FrameSystem:
    """Choose and construct per-scale rotation grids for a spec.

    With variant="auto" the cheapest grid the spec admits is selected, from
    the structure `_structure` reads off its tags or table.  Any other
    variant is built as asked, whether or not the spec admits it: the
    transforms are exact on every grid, only reconstruction needs `admits`.
    The system's `choice` records the variant asked for and, for "auto",
    where the structure was read and the orders read off.
    """
    d = spec.d
    choice = {"requested": variant, "structure_from": None,
              "invariance_order": None, "steerability_order": None}
    if variant == "auto":
        inv, steer, source = _structure(spec)
        choice.update(structure_from=source, invariance_order=inv, steerability_order=steer)
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
    return FrameSystem(spec, grids, variant, choice)


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


def _planes(d: int, n: int) -> tuple:
    """(Delta_2, ..., Delta_{d-1}) of degree n (see `_Degree`).

    Delta_2 needs no quadrature.  The generator X = d/dbeta D^n(G_2(beta))
    at 0 is real, antisymmetric and tridiagonal on each stem (every label
    but M = k_{d-2} fixed, M = -N..N with N = k_{d-3}, or n at d = 3), with
    the closed-form steps X[M+1, M] of `generator_step`, the angular-momentum
    ladder.  iX = Delta_2 diag(k_{d-2}) Delta_2^H, so the columns of Delta_2
    are its eigenvectors, ordered by eigenvalue, one `_ladder_stem` block per
    stem; each is fixed up to a phase, which the conjugation cancels.

    Delta_ell = D^n(P_ell) for ell >= 3 is built by exact quadrature on
    `sphere_rule(d, n)`: the harmonics Y_k' at the moved nodes P_ell^{-1} x_p,
    projected on every Y_k, with P_ell the cyclic shift of the first ell+1
    coordinates by two places, so that G_ell = P G_1 P^T.  The rule and the
    projection serve every such plane and are freed on return.
    """
    keys = _layout(d, n).keys
    ladder = np.zeros((len(keys), len(keys)), dtype=complex)
    lo = 0
    while lo < len(keys):
        N = -keys[lo][-1]
        stem = slice(lo, lo + 2 * N + 1)
        ladder[stem, stem] = _ladder_stem(N)
        lo += 2 * N + 1
    if d == 3:
        return (ladder,)
    rule = sphere_rule(d, n)
    # the cartesian nodes (305 KB at d = 4, n = 16) live through each plane's
    # basis_matrix call, the round trip's memory peak (44 MB there)
    nodes = rule.points
    proj = np.conj(basis_matrix(d, n, nodes)) * rule.weights
    planes = [ladder]
    for ell in range(3, d):
        shift = np.eye(d)
        shift[:ell + 1, :ell + 1] = np.roll(np.eye(ell + 1), -2, axis=0)
        # quadrature leaves |D^H D - I| near 1e-14; a Newton-Schulz step fixes it
        planes.append(_unitarize(proj @ basis_matrix(d, n, nodes @ shift).T))
    return tuple(planes)


def _phase_table(phases: dict, axis: np.ndarray, n: int) -> np.ndarray:
    """The phases e^{-i k beta} of an axis, for beta in axis and k = -M..M
    with M >= n: the table `phases` keeps under the axis's bytes, built, or
    widened to k = -n..n, the first time it is asked for n."""
    name = axis.tobytes()
    table = phases.get(name)
    if table is None or table.shape[1] < 2 * n + 1:
        table = phases[name] = np.exp(-1j * np.outer(axis, np.arange(-n, n + 1)))
    return table


def _legendre(beta: np.ndarray, M: int) -> np.ndarray:
    """T[m, n, b] = sqrt((n-m)!/(n+m)!) P_n^m(cos beta_b), no Condon-Shortley
    sign, for m, n = 0..M and zero where m > n: D^n(G_2(beta_b))[k, 0] at
    |k| = m, the zonal column that `_Degree.plane` forms from Delta_2.  Every
    order and node runs at once along n - m = 0..M, from T[m, m] = s^m
    prod_{i <= m} sqrt((2i - 1) / (2i)), s = sin beta, by the recurrence
        q_n T[m, n] = (2n - 1) x T[m, n-1] - q_{n-1} T[m, n-2],  q_n = sqrt(n^2 - m^2)
    (Driscoll & Healy 1994; SHTns), x = |cos beta| = 1 - t, the sign (-1)^(n-m)
    of southern nodes restored on the way.  It runs on Delta_n = T[m, n] -
    T[m, n-1], q_n Delta_n = (h_n - (2n - 1) t) T[m, n-1] + q_{n-1} Delta_{n-1}
    with h_n = (2n - 1) - q_n - q_{n-1} = m^2/(n + q_n) + m^2/(n - 1 + q_{n-1})
    (Reinsch's modification): near a pole the plain form leaves |sum_m T^2 - 1|
    near 1e-11 at N = 2235.  s^m underflows where T[m, n <= M] is still O(1)
    once M nears 1900 (1e-304 at s = 1/e, m = M/e), so a column starting below
    2^-500 runs scaled by 2^500 or 2^1000, as in libsharp and SHTns."""
    near = np.minimum(beta, np.pi - beta)  # s and t of one angle, or the start excites Q_n^m
    s, t = np.sin(near), 2 * np.sin(near / 2) ** 2
    sign = np.where(beta > np.pi / 2, -1.0, 1.0)
    m = np.arange(M + 1.0)
    c = np.sqrt((2 * m[1:] - 1) / (2 * m[1:]))
    log2 = np.concatenate(([0.0], np.cumsum(np.log2(c))))[:, None] + np.outer(m, np.log2(s))
    e = -500 * np.clip(np.floor(-log2 / 500), 0, 2).astype(int)  # (M+1, A): 2^e per column
    T = np.zeros((M + 1, M + 1, len(s)))
    flat = T.reshape(-1, len(s))  # row m (M+1) + n is T[m, n]; n - m = l every M+2 rows
    prev = delta = flat[::M + 2] = np.cumprod(np.concatenate(
        (np.ones((1, len(s))), np.ldexp(np.outer(c, s), e[:-1] - e[1:]))), axis=0)
    twice, odd_t = np.arange(2 * M + 1.0), (2 * m - 1)[:, None] * t  # 2m + l at [l::2]
    q_prev, r_prev = np.zeros(M + 1), m  # at l = 0: q = 0, and m^2 / (n + q) = m
    for l in range(1, M + 1):
        L = M + 1 - l  # the orders m with n = m + l <= M
        q = np.sqrt(l * twice[l:2 * M - l + 1:2])  # exact where n^2 - m^2 is a square
        r = m[:L] ** 2 / (m[l:] + q)
        delta = (((r + r_prev[:L])[:, None] - odd_t[l:]) * prev[:L]
                 + q_prev[:L, None] * delta[:L]) / q[:, None]
        prev = prev[:L] + delta
        np.multiply(prev, sign if l % 2 else 1.0, out=flat[l::M + 2][:L])
        q_prev, r_prev = q, r
    return np.ldexp(T, e[:, None, :], out=T)


def _ids(indices) -> bytes:
    """An index set as the bytes of its intp array, a key of the memos."""
    return np.asarray(indices, dtype=np.intp).tobytes()


class _Degree:
    """Representation matrices D^n(g)[k, k'] = <T(g) Y_k', Y_k> of one degree.

    D^n(G_1(alpha)) is the phase diag(e^{-i k_{d-2} alpha}), and every other
    plane matrix is that phase conjugated by a unitary Delta_ell:
    D^n(G_ell(beta)) = Delta_ell diag(e^{-i k_{d-2} beta}) Delta_ell^H.
    G_ell mixes only k_{d-ell} (position d-ell-1 of k), so plane matrices are
    formed on index sets: columns where the vectors they act on live, rows
    where those vectors can land.  Every other rotation, a base rotation's
    included, is a chain of planes (`inner`).

    At d >= 4 every grid's outer factor runs down all planes, so the object
    is built whole, `planes` holding Delta_ell at ell - 2 (`_planes`), and
    kept by its system (`FrameSystem._degree`).  At d = 3 `planes`, Delta_2
    alone, is built on first use: a plain zonal scale (`_plain_zonal`) never
    asks.  The phases come from `phases`, the system's per-axis tables; a
    table is built, or widened to columns -n..n, the first time this degree
    needs it.  What depends on (d, n) alone
    outlives the system, per process and bounded: `_layout` and
    `_ladder_stem`.  Delta_ell for ell >= 3 does not: it is the large memory
    at degree 32, and its `sphere_rule` and `basis_matrix` calls are what a
    traced run counts.

    Analysis and synthesis of one system run down the same axes on the same
    index sets, so the object keeps, read-only, what `plane` forms for
    ell >= 2 (`operands`, keyed by ell, the axis's bytes, rows and cols) and
    what `_chain` computes for every section, inner or outer (`chains`,
    keyed by the section's axis count and the target), while `kept`, the
    system's count, has room for them: each round trip forms them once, as
    SOFT and FFTW build their tables once for the forward and the inverse
    transform.  Past the room they are formed per call.  The plane-1
    diagonal is a gather from the phase table and is not kept.

    Grids with R_in > 1 run the outer chain from the f side, phase plane
    first (`outer_adjoint`, `outer_apply`).  Grids with one inner rotation
    run it from the psi side, in `inner` after the inner factors, up to its
    phase plane; the transforms add or gather the result per label k_{d-2}
    (`add_by_label`) and apply the phase axis themselves, once per scale.
    """

    def __init__(self, d: int, n: int, phases: dict, kept: _Kept | None = None):
        self.d, self.n = d, n
        self.layout = _layout(d, n)
        self.keys, self.klast = self.layout.keys, self.layout.klast
        self.phases = phases
        self.kept = _Kept() if kept is None else kept
        self.operands: dict = {}
        self.chains: dict = {}
        if d > 3:  # Delta_ell for ell >= 3 by quadrature, with the degree, as every grid needs it
            self.__dict__["planes"] = _planes(d, n)

    @cached_property
    def planes(self) -> tuple:
        """(Delta_2, ..., Delta_{d-1}) of `_planes`, built whole on first use."""
        return _planes(self.d, self.n)

    def plane(self, ell: int, axis: np.ndarray, rows, cols) -> np.ndarray:
        """D^n(G_ell(beta))[rows, cols] for beta in axis, shape
        (len(axis), |rows|, |cols|); for ell = 1 (rows = cols) only the
        diagonal, shape (len(axis), |cols|).  The phases are gathered from
        the axis's table e^{-i k beta}, k = -M..M with M >= n; an operand of
        ell >= 2 formed before is handed back as it was kept, read-only."""
        if ell > 1:
            key = (ell, axis.tobytes(), _ids(rows), _ids(cols))
            m = self.operands.get(key)
            if m is not None:
                return m
        table = _phase_table(self.phases, axis, self.n)
        M = table.shape[1] // 2
        if ell == 1:
            return table[:, self.klast[cols] + M]
        m = self._operand(ell, table[:, self.klast + M], rows, cols)
        if self.kept.fits(m.nbytes + sum(map(len, key[1:]))):
            m.flags.writeable = False
            self.operands[key] = m
        return m

    def _operand(self, ell: int, phases: np.ndarray, rows, cols) -> np.ndarray:
        """Delta_ell[rows] diag(phases) Delta_ell[cols]^H per axis node."""
        delta = self.planes[ell - 2]
        # rows, the reach of cols, are never fewer: the phase scales the smaller factor
        return delta[rows] @ (phases[:, :, None] * delta[cols].conj().T)

    def reach(self, ell: int, support):
        return support if ell == 1 else self.layout.reach(self.d - ell - 1, support)

    # Each plane below is contracted by one np.dot on the operands that
    # np.tensordot would form, so the bits are tensordot's; `@` rounds a
    # contraction of length one differently.

    def inner(self, factors: tuple, psi: np.ndarray, support, last: int = 0):
        """Rows D^n(g) psi over the grid of the factors' chain g, restricted to
        the index set they reach; returns (B (R, |set|), set).  Each section
        runs down the index sets of `_chain`, and the first section stops
        before its plane `last`: last = 1 leaves out the phase plane.

        The planes are applied right to left, so each new axis is slower than
        the ones already expanded, matching the flat grid order.
        """
        rows = psi[support][None, :]
        for i in range(len(factors) - 1, -1, -1):
            axes = factors[i].axes
            sets = self._chain(factors[i], support)
            for ell in range(len(axes), 0 if i else last, -1):
                rows = self._expand(ell, axes[ell - 1].nodes, rows, sets[ell - 1], sets[ell])
            support = sets[0]
        return rows, support

    def _expand(self, ell: int, axis: np.ndarray, rows: np.ndarray, reached, support):
        """D^n(G_ell(beta)) applied to each row over support, for beta in
        axis: (len(axis) * len(rows), |reached|), the new axis slowest."""
        m = self.plane(ell, axis, reached, support)
        if ell == 1:
            rows = m[:, None, :] * rows[None, :, :]
        else:
            A, R, C = m.shape
            rows = np.dot(rows, m.reshape(A * R, C).T).reshape(-1, A, R).transpose(1, 0, 2)
        return rows.reshape(-1, len(reached))

    def add_by_label(self, out: np.ndarray, rows: np.ndarray, reached) -> None:
        """out[:, M + k] += the columns of rows (over `reached`, a T_0 of
        `_chain`) whose key has the label k_{d-2} = k, for an out of
        2M+1 >= 2n+1 columns.  Stem by stem, so at d = 3, one stem, it is
        one slice."""
        labels = self.klast[reached]
        M = out.shape[1] // 2
        lo = 0
        while lo < len(labels):
            N = -int(labels[lo])
            out[:, M - N:M + N + 1] += rows[:, lo:lo + 2 * N + 1]
            lo += 2 * N + 1

    def _chain(self, section, target) -> tuple:
        """Index sets T_0 .. T_{d-1} of the outer chain, back from T_{d-1} =
        target.  They depend on the section only through its axis count."""
        key = (len(section.axes), _ids(target))
        sets = self.chains.get(key)
        if sets is None:
            sets = self._chain_sets(len(section.axes), target)
            if self.kept.fits(sum(a.nbytes for a in sets) + len(key[1])):
                for a in sets:
                    a.flags.writeable = False
                self.chains[key] = sets
        return sets

    def _chain_sets(self, axes: int, target) -> tuple:
        sets = [np.array(target, dtype=np.intp)]
        for ell in range(axes, 0, -1):
            sets.append(self.reach(ell, sets[-1]))
        return tuple(reversed(sets))

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


def _one_inner(grid: RotationRule) -> bool:
    """Whether the grid has one inner rotation (R_in = 1: zonal, or inner
    factors of one node each), so that the transforms apply its phase axis
    once per scale for all degrees.  Read off the factors alone."""
    return len(grid) == len(grid.factors[0])


def _plain_zonal(grid: RotationRule, table: dict, base: tuple) -> bool:
    """Whether a scale's transform is a spherical-harmonic transform: d = 3, no
    base rotation, one factor (alpha, beta), and psi_n on the zonal key (0,) at
    every degree of its table.  Its rows D^n(G_2(beta)) psi_n are then
    psi_n(0) times `_legendre`'s columns, and it takes no part in `_walk`."""
    return (grid.d == 3 and not base and len(grid.factors) == 1
            and all(t.keys() == {(0,)} for t in table.values()))


def _by_order(T: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Z[:, M + m] = T[|m|] @ Y[:, M + m] for m = -M..M, with T real, (M+1, Q, P),
    and Y complex, (P, 2M+1): one real product per order for both signs and
    both parts."""
    M = len(T) - 1
    pairs = np.stack([Y[:, M:].T, Y[:, M::-1].T], axis=-1)  # (M+1, P, 2)
    Z2 = np.matmul(T, pairs.view(float)).view(complex)
    Z = np.empty((T.shape[1], 2 * M + 1), dtype=complex)
    Z[:, M:], Z[:, M::-1] = Z2[..., 0].T, Z2[..., 1].T
    return Z


def _pack(d: int, n: int, table: dict) -> tuple[np.ndarray, list]:
    """A degree's table {k: c} as one vector over index_set(d, n), and the
    positions of its keys, ascending."""
    index = _layout(d, n).index
    entries = {index[k]: c for k, c in table.items()}
    support = sorted(entries)
    vector = np.zeros(len(index), dtype=complex)
    vector[support] = [entries[i] for i in support]
    return vector, support


def _walk(system: FrameSystem, tables: list, degrees, base: tuple):
    """The walk that analysis and synthesis share: (rep, j, rows, set) for
    each degree n of `degrees`, the largest first, and each scale j whose
    table, grouped by degree, has n, with rep the system's `_Degree` and rows
    `_Degree.inner` of the packed psi_n over the index set it reaches.  The
    rows run down the inner factors and the base chain; on a grid with one
    inner rotation (`_one_inner`) they run down the outer section too, up to
    its phase plane, which the transforms apply per scale.  Each degree
    starts with `FrameSystem._degree`, so its cap fires before anything of
    that degree is built."""
    d = system.spec.d
    ones = [_one_inner(grid) for grid in system.grids]
    chains = [(grid.factors if one else grid.factors[1:]) + base
              for grid, one in zip(system.grids, ones)]
    for n in sorted(degrees, reverse=True):
        rep = system._degree(n)
        for j, table in enumerate(tables):
            if n in table:
                psi, support = _pack(d, n, table[n])
                yield (rep, j, *rep.inner(chains[j], psi, support, last=int(ones[j])))


def analysis(system: FrameSystem, f: Signal) -> np.ndarray:
    """Frame coefficients sqrt(mu_r) <f, Psi^j(g_r^{-1} .)> of every scale.

    The vector holds the scales in order, each in its grid's flat order, so
    it has sum_j |grid_j| entries.  With g = S_eta H the grid's outer
    section times its inner rotation (H = H_h g0 under a base rotation g0,
    whose one-node chain follows the inner factors), per degree n
        <f_n, T(g) Psi_n> = sum_k (D^n(S_eta)^H f_n)_k conj(D^n(H) psi_n)_k,
    one (R_out x |supp|) @ (|supp| x R_in) product over the index set supp
    that the inner rotations reach from psi_n.  On a grid with one inner
    rotation (R_in = 1: zonal, or any grid whose inner factors have one
    node each) the phase axis alpha of S_eta = G_1(alpha) S' waits for all
    degrees instead: D^n(G_1(alpha)) = diag(e^{-i k_{d-2} alpha}) does not
    depend on n, so
        c[alpha, beta] = sum_m e^{i m alpha} sum_n sum_{k_{d-2} = m}
                         f_n conj(D^n(S'_beta) D^n(H) psi_n),
    the inner sum over degrees added up per label (`_Degree.add_by_label`)
    and the outer one a single (A_1 x (2M+1)) product per scale.  On a plain
    zonal scale (`_plain_zonal`) D^n(G_2(beta)) psi_n = psi_n(0) T[|m|, n],
    T of `_legendre`, so the inner sum is one real product per order |m|,
    sum_n T[|m|, n, beta] conj(psi_n(0)) f_n[m] (`_by_order`).  Only
    degrees present in both f and Psi^j contribute (degree spaces are
    rotation invariant and mutually orthogonal).  f is read as one vector
    f_n per degree it shares with the table (`Signal.vectors`).  The rows
    D^n(H) psi_n, or D^n(S'_beta) D^n(H) psi_n, come from `_walk`, degree by
    degree from the largest, so the cap fires before any plane is built; a
    degree built once stays in the system for later calls.  The walk checks
    the cap of a plain zonal scale's degrees too, before its table is built.
    """
    spec = system.spec
    if f.d != spec.d:
        raise ParameterError("signal dimension mismatch")
    psi_tables = [_by_degree(spec.d, scale.coeffs) for scale in spec.scales]
    f_vectors = f.vectors(set().union(*psi_tables))
    base = () if spec.base_rotation is None else chain_factors(spec.base_rotation)
    plain = [_plain_zonal(grid, table, base) for grid, table in zip(system.grids, psi_tables)]
    walked = [{} if p else table for p, table in zip(plain, psi_tables)]
    out = np.zeros(sum(len(grid) for grid in system.grids), dtype=complex)
    parts = _by_scale(system, out)
    by_label = {}  # scale of one inner rotation -> its sum over degrees, (A_2...A_L, 2M+1)
    for rep, j, rows, support in _walk(system, walked, f_vectors, base):
        grid, f_n = system.grids[j], f_vectors[rep.n]
        if not _one_inner(grid):
            # (R_out x R_in) in the grid's flat order, outer index slowest
            parts[j] += (rep.outer_adjoint(grid.factors[0], f_n, support)
                         @ np.conj(rows).T).reshape(-1)
            continue
        if j not in by_label:  # n is the scale's largest degree
            by_label[j] = np.zeros((len(rows), 2 * rep.n + 1), dtype=complex)
        rep.add_by_label(by_label[j], np.conj(rows) * f_n[support], support)
    for j, table in enumerate(psi_tables):
        shared = [n for n in table if n in f_vectors] if plain[j] else []
        if shared:  # G[n, M + m] = conj(psi_n(0)) f_n[m], summed over n by order |m|
            M = max(shared)
            G = np.zeros((M + 1, 2 * M + 1), dtype=complex)
            for n in shared:
                G[n, M - n:M + n + 1] = np.conj(table[n][(0,)]) * f_vectors[n]
            by_label[j] = _by_order(system._zonal(system.grids[j], M).transpose(0, 2, 1), G)
    for j, sums in by_label.items():
        phases = system._alpha(system.grids[j], sums.shape[1] // 2)
        parts[j] += np.dot(np.conj(phases), sums.T).reshape(-1)
    for part, roots in zip(parts, system._roots):
        part *= roots
    return out


def synthesis(system: FrameSystem, dual_spec: FrameSpec, coefficients, n_out: int) -> Signal:
    """The degree-(n_out) truncation of sum_{j,r} sqrt(mu_r) c_{j,r} T(g_r) dual^j.

    coefficients is the vector produced by `analysis`, split by grid size.
    This is the exact adjoint of analysis, on the same walk (`_walk`): per
    degree n and scale j, with U the weighted coefficients as an
    (R_out x R_in) array and B the rows D^n(H_h g0) psi_n (g0 the dual's
    base rotation, if any),
        out_n = sum_eta D^n(S_eta) (U @ B)[eta].
    On a grid with one inner rotation the phase axis goes first, once per
    scale: the weighted coefficients U[alpha, beta] are contracted with
    e^{-i m alpha} into V[beta, m], and each degree gathers the columns of
    its labels, out_n[k] = sum_beta V[beta, k_{d-2}] (D^n(S'_beta) B)[k];
    on a plain zonal scale, out_n[m] = psi_n(0) sum_beta V[beta, m] T[|m|, n].
    No signal is evaluated.  After `analysis` of every degree up to n_out,
    the dual finds every degree built in the system, so nothing is projected
    either.  Degrees run from the largest down, so the cap on
    `sphere_rule(d, n)` fires first.  The result is in vector form, one
    vector per degree of the dual up to n_out; a negative n_out is refused.
    """
    spec = system.spec
    if dual_spec.d != spec.d:
        raise ParameterError("dual spec dimension mismatch")
    if n_out < 0:
        raise ParameterError(f"n_out must be nonnegative, got {n_out}")
    tables = [_by_degree(spec.d, scale.coeffs, n_out) for scale in dual_spec.scales]
    base = () if dual_spec.base_rotation is None else chain_factors(dual_spec.base_rotation)
    weighted = [(roots * part).reshape(len(grid.factors[0]), -1)
                for grid, roots, part in zip(system.grids, system._roots,
                                             _by_scale(system, coefficients))]
    plain = [_plain_zonal(grid, table, base) for grid, table in zip(system.grids, tables)]
    walked = [{} if p else table for p, table in zip(plain, tables)]

    def phased(j: int, M: int) -> np.ndarray:  # V, (A_2...A_L, 2M+1)
        phases = system._alpha(system.grids[j], M)
        return np.dot(weighted[j].reshape(len(phases), -1).T, phases)

    by_label = {}  # scale of one inner rotation -> V
    parts = {}
    degrees = sorted(set().union(*tables))
    for rep, j, rows, support in _walk(system, walked, degrees, base):
        grid, u = system.grids[j], weighted[j]
        out = parts.get(rep.n)
        if out is None:
            out = parts[rep.n] = np.zeros(len(rep.keys), dtype=complex)
        if not _one_inner(grid):
            out += rep.outer_apply(grid.factors[0], u @ rows, support)
            continue
        if j not in by_label:  # n is the scale's largest degree
            by_label[j] = phased(j, rep.n)
        V = by_label[j]
        M = V.shape[1] // 2
        out[support] += np.einsum("bk,bk->k", V[:, rep.klast[support] + M], rows)
    for j, table in enumerate(tables):
        if plain[j] and table:  # out_n[m] = psi_n(0) sum_beta V[beta, m] T[|m|, n, beta]
            M = max(table)
            Z = _by_order(system._zonal(system.grids[j], M), phased(j, M))
            for n, psi in table.items():
                out = parts.setdefault(n, np.zeros(2 * n + 1, dtype=complex))
                out += psi[(0,)] * Z[n, M - n:M + n + 1]
    flat = np.concatenate([parts[n] for n in degrees]) if degrees else np.zeros(0, dtype=complex)
    return Signal._of_vectors(spec.d, n_out, degrees, flat)


@dataclass(frozen=True)
class ParsevalGap:
    discrete_sum: float
    spectral_sum: float
    rel_gap: float
    sigma: tuple = field(default=(), compare=False)  # sigma_n, n = 0..the top degree of f


def parseval_check(system: FrameSystem, f: Signal, coefficients=None) -> ParsevalGap:
    """Discrete frame energy against the profile-weighted spectral energy.

    discrete = sum_{j,r} mu |<f, T(g) Psi^j>|^2 computed by quadrature;
    spectral = sum_n sigma_n sum_l |f(n,l)|^2.  With grids of sufficient
    class and bandlimited f the two agree to rounding.  Precomputed analysis
    coefficients may be passed to avoid repeating the transform.  The
    spectral sum weighs each degree's energy `Signal.energies`, and sigma is
    taken only up to the highest degree that carries a nonzero coefficient
    of f; the result keeps that profile.
    """
    if coefficients is None:
        coefficients = analysis(system, f)
    discrete = 0.0
    for part in _by_scale(system, coefficients):
        discrete += float(np.sum(np.abs(part) ** 2))
    energies = f.energies()
    sigma = sigma_profile(system.spec, max(energies, default=0)).tolist()
    spectral = 0.0
    for n, e in energies.items():
        spectral += sigma[n] * e
    gap = 0.0 if spectral == 0.0 else abs(discrete - spectral) / spectral
    if spectral == 0.0 and discrete != 0.0:
        gap = math.inf
    return ParsevalGap(discrete, spectral, gap, tuple(sigma))


def degree_errors(f: Signal, g: Signal) -> dict:
    """|g_n - f_n| / |f_n| for each degree n at which f has a nonzero
    coefficient, ascending, from the vectors as `relative_error` reads them."""
    if f.d != g.d:
        raise ParameterError("signal dimension mismatch")
    ef = f.energies()
    fv, gv = f.vectors(ef), g.vectors(ef)
    with np.errstate(over="ignore", invalid="ignore"):
        return {n: math.sqrt(float(np.sum(np.abs(gv.get(n, 0.0) - fv[n]) ** 2)) / e)
                for n, e in ef.items()}


def relative_error(f: Signal, g: Signal) -> float:
    """|g - f| / |f|, 0 for a zero f, summed degree by degree from the
    vectors (`Signal.energies` and `Signal.vectors`): a degree that only one
    of the two reaches adds its energy there, so neither is packed at a
    degree the other lacks.  Signals of different dimensions are refused."""
    if f.d != g.d:
        raise ParameterError("signal dimension mismatch")
    ef, eg = f.energies(), g.energies()
    shared = ef.keys() & eg.keys()
    fv, gv = (np.concatenate([np.zeros(0), *x.vectors(shared).values()]) for x in (f, g))
    with np.errstate(over="ignore"):
        err_sq = float(np.sum(np.abs(gv - fv) ** 2))
    err_sq += sum(e for n, e in ef.items() if n not in shared)
    err_sq += sum(e for n, e in eg.items() if n not in shared)
    norm_sq = sum(ef.values())
    return math.sqrt(err_sq / norm_sq) if norm_sq else 0.0
