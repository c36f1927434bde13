import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sphereframe import _config
from sphereframe import constructions as C
from sphereframe import frames as F
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe.errors import (CapacityError, IndexSetError, NotAFrameError,
                               ParameterError)


def parseval_zonal(d=3, J=4):
    return C.zonal_spec(d, J, "kappa1")


def by_scale(system, coefficients):
    """The per-scale slices of a frame-coefficient vector."""
    return np.split(coefficients, np.cumsum([len(g) for g in system.grids])[:-1])


def test_sigma_profile_zonal_is_one():
    spec = parseval_zonal(3, 5)
    sigma = F.sigma_profile(spec, 16)
    assert np.max(np.abs(sigma - 1.0)) < 1e-13


def test_sigma_profile_flags_gaps():
    spec = F.FrameSpec(3, [F.Scale(0, 0, {(0, (0,)): 1.0}),
                           F.Scale(1, 4, {(3, (0,)): 2.0})])
    sigma = F.sigma_profile(spec, 4)
    assert sigma[0] == 1.0 and sigma[3] > 0
    assert sigma[1] == 0.0 and sigma[2] == 0.0 and sigma[4] == 0.0


def test_frame_bounds_parseval_and_gap():
    bounds = F.frame_bounds(parseval_zonal(3, 5), 16)
    assert bounds.c1 == pytest.approx(1.0, abs=1e-13)
    assert bounds.c2 == pytest.approx(1.0, abs=1e-13)
    assert bounds.is_frame_on_range
    missing0 = F.FrameSpec(3, [F.Scale(0, 2, {(1, (0,)): 1.0})])
    bounds = F.frame_bounds(missing0, 2)
    assert bounds.c1 == 0.0 and not bounds.is_frame_on_range
    # a square that overflows: an infinite upper bound is no frame
    huge = F.FrameSpec(3, [F.Scale(0, 1, {(0, (0,)): 1.0, (1, (0,)): 1e200})])
    with np.errstate(over="ignore"):
        bounds = F.frame_bounds(huge, 1)
    assert bounds.c1 == 1.0 and bounds.c2 == math.inf and not bounds.is_frame_on_range


def test_dual_residuals_parseval_self_and_scaled():
    spec = parseval_zonal(3, 4)
    assert np.all(F.dual_residuals(spec, spec, 8) <= 1e-12)
    doubled = F.FrameSpec(3, [F.Scale(s.j, s.bandwidth,
                                      {k: 2.0 * c for k, c in s.coeffs.items()})
                              for s in spec.scales])
    assert not np.all(F.dual_residuals(spec, doubled, 8) <= 1e-12)
    # the scales pair up one to one: a dual with another scale count is no dual
    with pytest.raises(ParameterError, match="matching scale counts"):
        F.dual_residuals(spec, parseval_zonal(3, 3), 8)


def test_canonical_dual_identities():
    spec = C.wavelet_spec(4, 3, 4, "kappa2")
    dual = F.canonical_dual(spec)
    n_max = spec.max_bandwidth()
    assert np.max(F.dual_residuals(spec, dual, n_max)) < 1e-12
    # Parseval spec is self-dual (on the flat range of the profile)
    zon = parseval_zonal(3, 4)
    self_dual = F.canonical_dual(zon, n_max=8)
    for s, sd in zip(zon.scales, self_dual.scales):
        for key, c in s.coeffs.items():
            if key[0] <= 8:
                assert sd.coeffs[key] == pytest.approx(c, rel=1e-12)
    # uniform doubling of the profile halves the dual
    doubled = F.FrameSpec(4, [F.Scale(s.j, s.bandwidth,
                                      {k: math.sqrt(2.0) * c
                                       for k, c in s.coeffs.items()})
                              for s in spec.scales])
    dual2 = F.canonical_dual(doubled)
    for s1, s2 in zip(dual.scales, dual2.scales):
        for key, c in s1.coeffs.items():
            assert s2.coeffs[key] == pytest.approx(c / math.sqrt(2.0), rel=1e-12)


def test_canonical_dual_certification_error(monkeypatch):
    spec = F.FrameSpec(3, [F.Scale(0, 0, {(0, (0,)): 1.0}),
                           F.Scale(1, 3, {(3, (0,)): 1.0})])
    with pytest.raises(NotAFrameError):
        F.canonical_dual(spec, n_max=3)
    # without certification the gap degrees simply stay empty
    dual = F.canonical_dual(spec)
    assert (3, (0,)) in dual.scales[1].coeffs
    # sigma vanishes above the top bandwidth; nothing is computed to find that out
    monkeypatch.setattr(F, "sigma_profile", lambda *a: pytest.fail("took the profile"))
    for n_max in (4, 20, 10 ** 9):
        with pytest.raises(NotAFrameError, match="sigma vanishes at degree 4;"):
            F.canonical_dual(spec, n_max=n_max)


def test_sigma_J_phi_based_flatness():
    # the partial profile sigma_J over scales j <= J is the profile of those scales
    spec = parseval_zonal(3, 6)
    for J in (2, 4, 6):
        sigma_J = F.sigma_profile(F.FrameSpec(3, spec.scales[: J + 1]), 2 ** J - 1)
        assert np.max(np.abs(sigma_J[: 2 ** (J - 1) + 1] - 1.0)) < 1e-12
        # beyond the flat range the partial profile follows the outer window
        n = 2 ** J - 1
        expected = C.phi(n / 2.0 ** J) ** 2
        assert sigma_J[n] == pytest.approx(expected, rel=1e-10)


def test_degree_profiles_cap_before_allocation(monkeypatch):
    spec = parseval_zonal(3, 2)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1000")
    calls = [lambda: F.sigma_profile(spec, 10 ** 6),
             lambda: F.frame_bounds(spec, 1000),
             lambda: F.dual_residuals(spec, spec, 10 ** 6)]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(CapacityError, match="degree profile would hold"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert len(F.sigma_profile(spec, 999)) == 1000


def test_parseval_check_takes_sigma_up_to_the_signal_coefficients(monkeypatch):
    # N_f plays no part: only the degrees that carry a coefficient of f
    spec = parseval_zonal(3, 2)
    system = F.build_system(spec)
    coeffs = {(1, (0,)): 0.6, (2, (-1,)): 0.8j, (4, (3,)): 0.0}
    want = F.parseval_check(system, F.Signal(3, 4, coeffs))
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1000")
    assert F.parseval_check(system, F.Signal(3, 10 ** 6, coeffs)) == want
    assert want.rel_gap < 1e-14


def test_analysis_constant_scale_zero():
    spec = parseval_zonal(3, 2)
    system = F.build_system(spec)
    f = F.Signal(3, 0, {(0, (0,)): 1.0})
    c = by_scale(system, F.analysis(system, f))[0]
    grid = system.grids[0]
    want = np.sqrt(grid.weights) * np.conj(spec.scales[0].coeffs[(0, (0,))])
    assert np.max(np.abs(c - want)) < 1e-14


def test_analysis_disjoint_spectra_gives_zero():
    spec = parseval_zonal(3, 2)  # scale 1 has bandwidth 2
    system = F.build_system(spec)
    f = F.Signal(3, 5, {(5, (1,)): 1.0})
    assert np.max(np.abs(F.analysis(system, f))) < 1e-12


def test_single_scale_roundtrip_degree_diagonal():
    spec = C.wavelet_spec(4, 2, 3, "kappa2")
    system = F.build_system(spec)
    dual = F.canonical_dual(spec)
    sigma = F.sigma_profile(spec, 8)
    j, n = 2, 3
    scale_only = F.sigma_profile(
        F.FrameSpec(4, [spec.scales[j]]), 8)
    k = H.index_set(4, n)[1]
    f = F.Signal(4, n, {(n, k): 1.0})
    c = F.analysis(system, f)
    for i, part in enumerate(by_scale(system, c)):
        if i != j:
            part[:] = 0.0
    out = F.synthesis(system, dual, c, n)
    got = out.coeffs.get((n, k), 0.0)
    assert got == pytest.approx(scale_only[n] / sigma[n], rel=1e-10)
    others = {key: v for key, v in out.coeffs.items()
              if key != (n, k) and abs(v) > 1e-10}
    assert not others


def test_parseval_check_cases():
    spec = parseval_zonal(3, 3)
    system = F.build_system(spec)
    # single harmonic: both sums equal sigma_n
    f = F.Signal(3, 2, {(2, (1,)): 1.0})
    gap = F.parseval_check(system, f)
    assert gap.discrete_sum == pytest.approx(1.0, rel=1e-10)
    assert gap.spectral_sum == pytest.approx(1.0, rel=1e-12)
    # random signal against a Parseval spec: energy is preserved
    f = F.random_signal(3, 4, seed=0)
    gap = F.parseval_check(system, f)
    assert gap.rel_gap < 1e-10
    assert gap.discrete_sum == pytest.approx(f.norm_sq(), rel=1e-10)
    # zero signal
    zero = F.Signal(3, 2, {})
    gap = F.parseval_check(system, zero)
    assert gap == F.ParsevalGap(0.0, 0.0, 0.0)


def test_reconstruction_zonal_d3():
    spec = C.zonal_spec(3, 3, "kappa2")
    system = F.build_system(spec)
    assert system.variant == "zonal"
    f = F.random_signal(3, 8, seed=1)
    coeffs = F.analysis(system, f)
    dual = F.canonical_dual(spec, n_max=8)
    rec = F.synthesis(system, dual, coeffs, 8)
    err = math.sqrt(sum(abs(rec.coeffs.get(key, 0.0) - c) ** 2
                        for key, c in f.coeffs.items()))
    assert err < 1e-11


def test_reconstruction_wavelet_d4():
    spec = C.wavelet_spec(4, 2, 2, "kappa2")
    system = F.build_system(spec)
    assert system.variant == "steerable_so_d2"
    f = F.random_signal(4, 4, seed=2)
    coeffs = F.analysis(system, f)
    dual = F.canonical_dual(spec, n_max=4)
    rec = F.synthesis(system, dual, coeffs, 4)
    err = math.sqrt(sum(abs(rec.coeffs.get(key, 0.0) - c) ** 2
                        for key, c in f.coeffs.items()))
    assert err < 1e-11


def test_reconstruction_curvelet_uses_invariant_grid():
    spec = C.curvelet_spec(4, 2)
    system = F.build_system(spec)
    assert system.variant == "so_d2_invariant"
    f = F.random_signal(4, 3, seed=3)
    coeffs = F.analysis(system, f)
    dual = F.canonical_dual(spec, n_max=3)
    rec = F.synthesis(system, dual, coeffs, 3)
    err = math.sqrt(sum(abs(rec.coeffs.get(key, 0.0) - c) ** 2
                        for key, c in f.coeffs.items()))
    assert err < 1e-11


def test_synthesis_of_zero_coefficients_is_zero():
    spec = parseval_zonal(3, 2)
    system = F.build_system(spec)
    zeros = np.zeros(sum(len(g) for g in system.grids))
    out = F.synthesis(system, F.canonical_dual(spec), zeros, 4)
    assert all(abs(v) == 0.0 for v in out.coeffs.values())
    # one vector of every scale's coefficients, nothing shorter or per scale
    for bad in (zeros[:-1], by_scale(system, zeros)):
        with pytest.raises(ParameterError, match="frame coefficients"):
            F.synthesis(system, F.canonical_dual(spec), bad, 4)


def test_synthesis_refuses_a_negative_n_out():
    spec = parseval_zonal(3, 2)
    system = F.build_system(spec)
    zeros = np.zeros(sum(len(g) for g in system.grids))
    with pytest.raises(ParameterError, match="n_out must be nonnegative, got -1"):
        F.synthesis(system, F.canonical_dual(spec), zeros, -1)


def test_relative_error_refuses_a_dimension_mismatch():
    # tables of degree 0 alone, one entry each, and vectors of a shared
    # degree 2, of unequal lengths
    pairs = [(F.Signal(3, 0, {(0, (0,)): 1.0}), F.Signal(4, 0, {(0, (0, 0)): 2.0})),
             (F.random_signal(3, 2, seed=1), F.random_signal(4, 2, seed=1))]
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ParameterError, match="signal dimension mismatch"):
                F.relative_error(a, b)


def test_sigma_profile_ignores_base_rotation():
    spec = C.curvelet_spec(4, 3)
    bare = F.FrameSpec(spec.d, spec.scales)
    assert np.array_equal(F.sigma_profile(spec, 8), F.sigma_profile(bare, 8))


def test_build_system_validates_dimension_match():
    spec = parseval_zonal(3, 2)
    system = F.build_system(spec)
    with pytest.raises(ParameterError):
        F.analysis(system, F.Signal(4, 1, {(0, (0, 0)): 1.0}))


def test_spec_validation_rejects_malformed():
    with pytest.raises(ParameterError):
        F.FrameSpec(3, [F.Scale(0, 2, {(3, (0,)): 1.0})]).validate()
    with pytest.raises(ParameterError):
        F.FrameSpec(3, [F.Scale(0, 4, {}), F.Scale(1, 2, {})]).validate()
    # finite coefficients whose energy is not: abs(c) ** 2 would raise OverflowError
    for c in (1e200, complex(1e308, 1e308), math.nan):
        with pytest.raises(ParameterError, match="energy"):
            F.FrameSpec(3, [F.Scale(0, 1, {(1, (0,)): c})]).validate()
    # a negative bandwidth, and a scale whose label is not its position
    with pytest.raises(ParameterError, match="nonnegative"):
        F.FrameSpec(3, [F.Scale(0, -1, {})]).validate()
    with pytest.raises(ParameterError, match="scale 1 is labelled j = 7"):
        F.FrameSpec(3, [F.Scale(0, 1, {}), F.Scale(7, 2, {})]).validate()
    # keys that grids and profiles would read raw: a float order would become a
    # grid degree, so even an integral float or a numpy integer is refused (a
    # non-integral entry by the multi-index check itself)
    for key in ((2, (1.0,)), (2.0, (1,)), (2, (np.int64(1),)), (2, 1), (2, (True,)),
                (2, (1.5,))):
        with pytest.raises((ParameterError, IndexSetError), match="not an int"):
            F.FrameSpec(3, [F.Scale(0, 2, {key: 1.0})]).validate()


@pytest.mark.parametrize("n_max", [-1, -5])
def test_spectral_functions_refuse_a_negative_n_max(n_max):
    spec = parseval_zonal(3, 2)
    for call in (lambda: F.sigma_profile(spec, n_max), lambda: F.frame_bounds(spec, n_max),
                 lambda: F.dual_residuals(spec, spec, n_max),
                 lambda: F.canonical_dual(spec, n_max=n_max)):
        with pytest.raises(ParameterError, match=f"n_max must be nonnegative, got {n_max}"):
            call()


def test_spec_validation_refuses_a_base_rotation_that_is_no_rotation():
    spec = C.curvelet_spec(4, 2)
    spec.validate()
    reflected = C.make_g0(4)
    reflected[:, 0] = -reflected[:, 0]  # orthogonal, det -1
    nan_g0 = C.make_g0(4)
    nan_g0[1, 2] = math.nan
    for g, match in ((reflected, "det base_rotation < 0"), (2.0 * C.make_g0(4), "max"),
                     (nan_g0, "max")):
        spec.base_rotation = g
        with pytest.raises(ParameterError, match="base_rotation is not a rotation: " + match):
            spec.validate()
    # one check serves the spec's base rotation and a probed rotation stack
    F.check_rotation(np.stack([np.eye(4), C.make_g0(4)]), "h")
    with pytest.raises(ParameterError, match="h is not a rotation: det h < 0"):
        F.check_rotation(np.stack([np.eye(4), reflected]), "h")


def test_random_signal_refuses_a_negative_degree_and_caps_before_drawing(monkeypatch):
    with pytest.raises(ParameterError, match="degree must be nonnegative, got -1"):
        F.random_signal(3, -1)
    # C(N+2, 2) + C(N+1, 2) = (N + 1)^2 coefficients at d = 3
    N = 300
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str((N + 1) ** 2 - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"random signal would hold {(N + 1) ** 2} nodes"):
            F.random_signal(3, N, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str((N + 1) ** 2))
    assert len(F.random_signal(3, N, seed=0).coeffs) == (N + 1) ** 2
    assert len(F.random_signal(5, 0, seed=0).coeffs) == 1


def test_random_signal_unit_energy_and_determinism():
    f1 = F.random_signal(4, 5, seed=42)
    f2 = F.random_signal(4, 5, seed=42)
    assert f1.coeffs == f2.coeffs
    assert f1.norm_sq() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_random_signal_is_the_scalar_draw_stream(d):
    # one array draw yields the stream of one scalar draw per part
    for seed in (0, 1, 5, 123, 2 ** 31 - 1):
        for degree in range(9):
            want = oracle.random_signal(d, degree, seed=seed)
            got = F.random_signal(d, degree, seed=seed)
            assert got.degree == want.degree and got.coeffs == want.coeffs
            assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("d, degrees", [(3, (0, 1, 6, 32, 127)), (4, (0, 2, 9, 24)),
                                        (5, (0, 3, 7, 12))])
def test_random_signal_is_the_list_draw_bit_for_bit(d, degrees):
    # scaled as one complex array, the coefficients keep the bits of scaling
    # each Python complex; the energy is summed as Python abs, in key order
    for seed in (0, 3, 17, 2 ** 31 - 1):
        for degree in degrees:
            want = oracle.random_signal_lists(d, degree, seed=seed)
            got = F.random_signal(d, degree, seed=seed)
            assert list(got.coeffs) == list(want.coeffs)
            assert all(type(c) is complex for c in got.coeffs.values())
            assert (np.array(list(got.coeffs.values())).tobytes()
                    == np.array(list(want.coeffs.values())).tobytes()), (degree, seed)


# -- coefficient-space transforms against the point-space oracle -----------------

def random_table(rng, d, n_max, size):
    keys = [(n, k) for n in range(n_max + 1) for k in H.index_set(d, n)]
    chosen = rng.choice(len(keys), size=min(size, len(keys)), replace=False)
    return {keys[i]: complex(rng.standard_normal(), rng.standard_normal())
            for i in chosen}


@st.composite
def systems(draw):
    """A random one- or two-scale system on a grid of any variant, a sparse
    random signal, and random frame coefficients."""
    d = draw(st.sampled_from([3, 4, 5]))
    N = draw(st.integers(0, {3: 3, 4: 2, 5: 1}[d]))
    variant = draw(st.sampled_from(Q.VARIANTS))
    K = draw(st.integers(0, N))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = [F.Scale(j, N, random_table(rng, d, N, draw(st.integers(1, 6))))
              for j in range(draw(st.integers(1, 2)))]
    base = oracle.random_rotation(d, rng) if draw(st.booleans()) else None
    spec = F.FrameSpec(d, scales, base_rotation=base)
    system = F.build_system(spec, variant=variant, K=K)
    f_degree = draw(st.integers(0, N + 1))
    f = F.Signal(d, f_degree, random_table(rng, d, f_degree, draw(st.integers(1, 8))))
    coefficients = np.concatenate([rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g))
                                   for g in system.grids])
    return spec, system, f, coefficients


def norm(coeffs: dict) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))


def assert_close(got, want, scale):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(systems())
def test_transforms_match_point_space_oracle(case):
    spec, system, f, _ = case
    check_against_oracle(spec, system, f)


def check_against_oracle(spec, system, f):
    # tolerances are relative to the largest coefficient each transform can
    # produce (Cauchy-Schwarz, T unitary), which stays meaningful when a
    # coefficient vanishes by symmetry
    coefficients = F.analysis(system, f)
    assert coefficients.shape == (sum(len(g) for g in system.grids),)
    parts = by_scale(system, coefficients)
    for j, (grid, got) in enumerate(zip(system.grids, parts)):
        largest = math.sqrt(np.max(grid.weights)) * norm(f.coeffs) * norm(spec.scales[j].coeffs)
        assert_close(got, oracle.analysis(system, f, j), largest)
    n_out = spec.max_bandwidth()
    got = F.synthesis(system, spec, coefficients, n_out)
    want = oracle.synthesis(system, spec, parts, n_out)
    keys = sorted(set(got.coeffs) | set(want.coeffs))
    largest = sum(np.sum(np.sqrt(g.weights) * np.abs(c)) * norm(s.coeffs)
                  for g, c, s in zip(system.grids, parts, spec.scales))
    assert_close(np.array([got.coeffs.get(k, 0.0) for k in keys]),
                 np.array([want.coeffs.get(k, 0.0) for k in keys]), largest)


def one_inner_specs():
    # zonal tables at d = 3, 4, 5, as built and moved by a base rotation,
    # whose one-node chain leaves the grid one inner rotation
    rng = np.random.default_rng(29)
    specs = []
    for d, J in ((3, 3), (4, 2), (5, 1)):
        scales = C.zonal_spec(d, J, "kappa2").scales
        specs += [F.FrameSpec(d, scales),
                  F.FrameSpec(d, scales, base_rotation=oracle.random_rotation(d, rng))]
    return specs


@pytest.mark.parametrize("spec", one_inner_specs(),
                         ids=["d3", "d3-moved", "d4", "d4-moved", "d5", "d5-moved"])
def test_one_inner_rotation_transforms_match_point_space_oracle(spec):
    system = F.build_system(spec, variant="zonal")
    assert all(F._one_inner(grid) for grid in system.grids)
    check_against_oracle(spec, system, F.random_signal(spec.d, spec.max_bandwidth(), seed=spec.d))


@pytest.mark.parametrize("spec", one_inner_specs()[3:4], ids=["d4-moved"])
def test_both_orders_agree_on_a_grid_with_one_inner_rotation(spec, monkeypatch):
    # the phase axis once per scale, against the outer chain of grids with R_in > 1
    f = F.random_signal(spec.d, spec.max_bandwidth(), seed=2)
    size = sum(len(g) for g in F.build_system(spec, variant="zonal").grids)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    results = []
    for one_inner in (F._one_inner, lambda grid: False):
        monkeypatch.setattr(F, "_one_inner", one_inner)
        system = F.build_system(spec, variant="zonal")
        results.append((F.analysis(system, f), F.synthesis(system, spec, c, f.degree)))
    (a, s), (a_old, s_old) = results
    largest = max(math.sqrt(np.max(g.weights)) for g in system.grids) \
        * norm(f.coeffs) * max(norm(scale.coeffs) for scale in spec.scales)
    assert_close(a, a_old, largest)
    largest = sum(np.sum(np.sqrt(g.weights) * np.abs(part)) * norm(scale.coeffs)
                  for g, part, scale in zip(system.grids, by_scale(system, c), spec.scales))
    assert s.energies().keys() == s_old.energies().keys()
    assert_close(np.concatenate(list(s.vectors(range(f.degree + 1)).values())),
                 np.concatenate(list(s_old.vectors(range(f.degree + 1)).values())), largest)


@pytest.mark.parametrize("spec, one_inner", [
    (C.zonal_spec(3, 3, "kappa2"), True),
    (F.FrameSpec(4, C.zonal_spec(4, 2, "kappa2").scales, base_rotation=C.make_g0(4)), True),
    (C.wavelet_spec(4, 2, 2, "kappa2"), False),
], ids=["zonal", "zonal-moved", "wavelet"])
def test_the_phase_axis_runs_once_per_scale_only_on_one_inner_rotation(spec, one_inner,
                                                                      monkeypatch):
    f = F.random_signal(spec.d, spec.max_bandwidth(), seed=4)
    dual = F.canonical_dual(spec)
    system = F.build_system(spec, variant="zonal" if one_inner else "auto")
    assert [F._one_inner(grid) for grid in system.grids] == [one_inner] * len(system.grids)
    calls = []
    for name in ("outer_adjoint", "outer_apply"):
        real = getattr(F._Degree, name)
        monkeypatch.setattr(F._Degree, name, lambda self, *a, name=name, real=real:
                            calls.append((name, self.n)) or real(self, *a))
    alpha = F.FrameSystem._alpha
    monkeypatch.setattr(F.FrameSystem, "_alpha", lambda self, grid, M:
                        calls.append(("alpha", id(grid))) or alpha(self, grid, M))
    F.synthesis(system, dual, F.analysis(system, f), f.degree)
    # one (degree, scale) pair per degree a scale carries, in each direction
    pairs = sorted(n for scale in spec.scales
                   for n in {n for (n, _), c in scale.coeffs.items() if c != 0})
    scales = [id(grid) for grid in system.grids] * 2
    if one_inner:
        assert sorted(j for name, j in calls if name == "alpha") == sorted(scales)
        assert [name for name, _ in calls if name != "alpha"] == []
    else:
        assert [name for name, _ in calls if name == "alpha"] == []
        assert sorted(n for name, n in calls if name == "outer_adjoint") == pairs
        assert sorted(n for name, n in calls if name == "outer_apply") == pairs


@settings(max_examples=40, deadline=None)
@given(systems())
def test_synthesis_is_the_adjoint_of_analysis(case):
    # <analysis f, c> = <f, synthesis c> with <x, y> = sum x conj(y)
    spec, system, f, coefficients = case
    a = F.analysis(system, f)
    s = F.synthesis(system, spec, coefficients, max(f.degree, spec.max_bandwidth()))
    lhs = np.vdot(coefficients, a)
    rhs = sum(c * np.conj(s.coeffs.get(key, 0.0)) for key, c in f.coeffs.items())
    norm = np.linalg.norm(coefficients) * np.linalg.norm(a)
    assert abs(lhs - rhs) <= 1e-13 * max(norm, 1e-300)


# -- per-plane representation matrices -------------------------------------------

def plane_rotations(d, ell, beta):
    angles = np.zeros((len(beta), d - 1))
    angles[:, ell - 1] = beta
    return Q.sections(angles)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_phase_plane_is_the_closed_form_diagonal(d):
    rep = F._Degree(d, 3, {})
    every = list(range(len(rep.keys)))
    alpha = np.array([0.3, 2.1, 5.9])
    dense = oracle.matrix_function_block(d, 3, plane_rotations(d, 1, alpha),
                                         Q.sphere_rule(d, 3))
    klast = np.array([k[-1] for k in rep.keys])
    for a, D in zip(alpha, dense):
        assert np.max(np.abs(D - np.diag(np.exp(-1j * klast * a)))) < 1e-13
    phases = rep.plane(1, alpha, every, every)
    assert np.max(np.abs(np.stack([np.diag(p) for p in phases]) - dense)) < 1e-13


@pytest.mark.parametrize("d", [3, 4, 5])
def test_plane_matrices_are_unitary_and_mix_one_label(d):
    rep = F._Degree(d, 3, {})
    every = list(range(len(rep.keys)))
    for ell in range(2, d):
        pos = d - ell - 1  # G_ell mixes k_{d-ell} only
        stems = [k[:pos] + k[pos + 1:] for k in rep.keys]
        outside = np.array([[a != b for b in stems] for a in stems])
        for D in rep.plane(ell, np.array([0.4, 1.9, 3.0]), every, every):
            assert np.max(np.abs(D.conj().T @ D - np.eye(len(every)))) < 1e-13
            assert np.max(np.abs(D[outside]), initial=0.0) < 1e-14


@pytest.mark.parametrize("d", [3, 4, 5])
def test_plane_products_are_the_representation_of_section_chains(d):
    # D^n(g1 g2) = D^n(g1) D^n(g2), each a product of plane matrices, against
    # the dense quadrature build of the oracle; and D^n(g) of any rotation g,
    # applied through `inner` down the one-node chain of `chain_factors(g)`
    rng = np.random.default_rng(d)
    n = 3
    rep = F._Degree(d, n, {})
    every = list(range(len(rep.keys)))
    rule = Q.sphere_rule(d, n)

    def chain(theta):
        D = np.eye(len(every), dtype=complex)
        for ell, beta in enumerate(theta, 1):
            plane = rep.plane(ell, np.array([beta]), every, every)[0]
            D = D @ (np.diag(plane) if ell == 1 else plane)
        return D

    def applied(g):
        factors = Q.chain_factors(g)
        D = np.zeros((len(every), len(every)), dtype=complex)
        for i in every:
            rows, reached = rep.inner(factors, np.eye(len(every))[i], [i])
            D[reached, i] = rows[0]
        return D

    for _ in range(3):
        t1 = rng.uniform(0.0, math.pi, d - 1)
        t2 = rng.uniform(0.0, math.pi, d - 2)
        g1 = Q.sections(t1[None])[0]
        g2 = Q.embed_rotation(Q.sections(t2[None]), d)[0]
        for g, D in ((g1, chain(t1)), (g2, chain(t2)), (g1 @ g2, chain(t1) @ chain(t2))):
            dense = oracle.matrix_function_block(d, n, g[None], rule)[0]
            assert np.max(np.abs(D - dense)) < 1e-12
    for g in [C.make_g0(d)] + [oracle.random_rotation(d, rng) for _ in range(3)]:
        dense = oracle.matrix_function_block(d, n, g[None], rule)[0]
        assert np.max(np.abs(applied(g) - dense)) < 1e-14


@pytest.mark.parametrize("d, n_max", [(3, 40), (4, 10), (5, 7)])
def test_generator_planes_match_quadrature(d, n_max):
    # plane 2 from the eigenvectors of its generator against the conjugated
    # phase of the oracle's quadrature D^n(P_2), with P_2 the cyclic shift
    # (P e^1 = e^2, P e^2 = e^3), made unitary by one Newton-Schulz step as
    # the quadrature planes are; d = 5 stops at n = 7, where the dense
    # quadrature reference already holds 25 MB per array
    beta = np.array([0.4, 1.9, 3.0, -2.2])
    shift = np.eye(d)
    shift[:3, :3] = np.roll(np.eye(3), -2, axis=0)
    for n in range(n_max + 1):
        rep = F._Degree(d, n, {})
        every = list(range(len(rep.keys)))
        delta = F._unitarize(
            oracle.matrix_function_block(d, n, shift[None], Q.sphere_rule(d, n))[0])
        phases = np.exp(-1j * np.outer(beta, rep.klast))
        want = delta @ (phases[:, :, None] * delta.conj().T)
        got = rep.plane(2, beta, every, every)
        assert np.max(np.abs(got - want)) < 1e-14, n


def generator_matrix(d, n, ell):
    """X_ell of degree n, assembled from the steps of `generator_step`."""
    keys = H.index_set(d, n)
    index = {k: i for i, k in enumerate(keys)}
    pos = d - ell - 1
    X = np.zeros((len(keys), len(keys)))
    for k in keys:
        up = k[:pos] + (k[pos] + 1,) + k[pos + 1:]
        if up in index:
            U = k[pos - 1] if pos else n
            L = abs(k[pos + 1]) if ell > 2 else 0
            X[index[up], index[k]] = H.generator_step(ell, k[pos], U, L)
            X[index[k], index[up]] = -X[index[up], index[k]]
    return X


@pytest.mark.parametrize("d, n_max", [(3, 12), (4, 8), (5, 5), (6, 3)])
def test_generator_steps_match_the_quadrature_generators(d, n_max):
    # X_ell = Delta_ell diag(-i k_{d-2}) Delta_ell^H, with Delta_2 from the
    # ladder and Delta_ell (ell >= 3) by quadrature
    for n in range(n_max + 1):
        klast = F._layout(d, n).klast
        for ell, delta in enumerate(F._planes(d, n), 2):
            want = delta @ (-1j * klast[:, None] * delta.conj().T)
            assert np.max(np.abs(generator_matrix(d, n, ell) - want)) < 1e-13, (n, ell)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_planes_from_phase_tables_equal_the_per_call_phases(d):
    # the gathered table columns are the phases exponentiated per call, bit for
    # bit, also after a lower degree built the table and a higher one widened it
    axis = np.array([0.4, 1.9, 3.0, -2.2, 5.5])
    phases = {}
    low, high = F._Degree(d, 2, phases), F._Degree(d, 4, phases)
    for rep, width in ((low, 5), (high, 9), (low, 9)):
        every = list(range(len(rep.keys)))
        support = every[1::3]
        for ell in range(1, d):
            reached = rep.reach(ell, support)
            for rows, cols in ((every, every), (reached, support)):
                got = rep.plane(ell, axis, rows, cols)
                assert np.array_equal(got, oracle.plane(rep, ell, axis, rows, cols)), (
                    rep.n, ell)
        assert list(phases) == [axis.tobytes()]
        assert phases[axis.tobytes()].shape == (len(axis), width)


# -- node caps --------------------------------------------------------------------

def test_transforms_pass_the_cap_to_every_sphere_rule(monkeypatch):
    seen = []
    real = F.sphere_rule

    def spy(d, N):
        seen.append(_config.node_cap())
        return real(d, N)

    monkeypatch.setattr(F, "sphere_rule", spy)
    spec = C.curvelet_spec(4, 2)
    system = F.build_system(spec)
    f = F.random_signal(4, 3, seed=5)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "12345")
    coeffs = F.analysis(system, f)
    F.synthesis(system, spec, coeffs, 3)
    assert seen and set(seen) == {12345}


@pytest.mark.parametrize("transform", ["analysis", "synthesis"])
def test_transform_caps_fire_before_allocation(transform, monkeypatch):
    spec = C.wavelet_spec(4, 2, 3, "kappa2")
    system = F.build_system(spec)
    f = F.random_signal(4, 8, seed=4)
    coefficients = np.ones(sum(len(g) for g in system.grids))
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "100")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            if transform == "analysis":
                F.analysis(system, f)
            else:
                F.synthesis(system, spec, coefficients, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("spec", [
    C.zonal_spec(3, 3, "kappa2"),
    F.FrameSpec(3, C.zonal_spec(3, 3, "kappa2").scales, base_rotation=C.make_g0(3)),
], ids=["zonal", "moved"])
def test_zonal_d3_round_trip_builds_no_rule_and_projects_nothing(spec, monkeypatch):
    # planes 1 and 2 only, the base rotation's chain included
    f = F.random_signal(3, spec.max_bandwidth(), seed=9)
    system = F.build_system(spec)
    dual = F.canonical_dual(spec)
    for name in ("sphere_rule", "basis_matrix"):
        monkeypatch.setattr(F, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    coeffs = F.analysis(system, f)
    got = F.synthesis(system, dual, coeffs, f.degree)
    err = math.sqrt(sum(abs(got.coeffs.get(key, 0.0) - c) ** 2
                        for key, c in f.coeffs.items()))
    assert err < 1e-13
    tracemalloc.start()
    try:
        system = F.build_system(spec)  # a fresh one, under the default cap
        monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "100")
        with pytest.raises(CapacityError):
            F.analysis(system, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_legendre_columns_are_the_walks_zonal_columns():
    # the dense route, Delta_2 from the ladder stems, is the oracle
    beta = Q.sphere_rule(3, 64).axes[1].nodes
    T = F._legendre(beta, 64)
    assert T.shape == (65, 65, 65) and np.all(np.triu(np.ones((65, 65)), 1).T[:, :, None] * T == 0)
    for n in range(65):
        column = F._Degree(3, n, {}).plane(2, beta, np.arange(2 * n + 1), [n])[:, :, 0]
        assert np.max(np.abs(column - T[abs(np.arange(-n, n + 1)), n].T)) <= 1e-14, n


@pytest.mark.parametrize("N", [255, 2235])
def test_legendre_columns_have_unit_norm(N):
    # N = 2235 is the largest degree under the default cap.  There s^m reaches
    # 1e-357 where sin(beta) = 1/e, and the Gauss nodes next to the poles, at
    # j_{0,1} / (N + 3/2) to leading order (its rule alone takes 2 s to build),
    # ask most of the recurrence
    assert Q.sphere_size(3, N) <= 10 ** 7 < Q.sphere_size(3, 2236)
    pole = 2.404825557695773 / (N + 1.5)
    T = F._legendre(np.array([pole, math.asin(1 / math.e), math.pi - pole]), N)
    norms = np.einsum("mnb,mnb->nb", T, T) * 2 - T[0] ** 2  # sum over m = -n..n
    assert np.max(np.abs(norms - 1)) <= 1e-12


def count_walk(monkeypatch) -> list:
    """Wrap the ladder eigensolver and the plane builder, solving every stem
    afresh; with `count_forming`, all that a walk forms for a d = 3 grid."""
    called = count_forming(monkeypatch)
    monkeypatch.setattr(F, "_stems", {})
    for name in ("eigh_tridiagonal", "_planes"):
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *a, name=name, real=real:
                            called.append((name,)) or real(*a))
    return called


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "moved"])
def test_a_plain_zonal_d3_round_trip_runs_no_walk(moved, monkeypatch):
    spec = C.zonal_spec(3, 3, "kappa2")
    if moved:
        spec = F.FrameSpec(3, spec.scales, base_rotation=C.make_g0(3))
    f = F.random_signal(3, spec.max_bandwidth(), seed=8)
    called = count_walk(monkeypatch)
    system = F.build_system(spec)
    got = F.synthesis(system, F.canonical_dual(spec), F.analysis(system, f), f.degree)
    assert F.relative_error(f, got) < 1e-13
    kinds = {name for name, *_ in called}
    assert kinds == ({"eigh_tridiagonal", "_planes", "plane", "chain"} if moved else set())
    assert bool(system._columns) != moved


def test_analysis_rejects_invalid_signal_indices():
    system = F.build_system(parseval_zonal(3, 2))
    with pytest.raises(IndexSetError):
        F.analysis(system, F.Signal(3, 2, {(2, (3,)): 1.0}))
    # a non-integral order is refused, not merged into the key it truncates to
    with pytest.raises(IndexSetError, match="not an integer"):
        F.analysis(system, F.Signal(3, 2, {(2, (1,)): 1.0, (2, (1.5,)): 1.0}))


def test_round_trip_validates_each_key_once(monkeypatch):
    spec = C.zonal_spec(3, 3, "kappa2")
    # a table-made signal: its keys are validated as it is packed
    f = F.Signal(3, 8, dict(F.random_signal(3, 8, seed=2).coeffs))
    dual = F.canonical_dual(spec, n_max=f.degree)
    system = F.build_system(spec)
    calls, degrees = [], []
    check, make = F.validate_multi_index, F._Degree
    monkeypatch.setattr(F, "validate_multi_index",
                        lambda d, n, k: calls.append((n, k)) or check(d, n, k))
    monkeypatch.setattr(F, "_Degree", lambda d, n, *a: degrees.append(n) or make(d, n, *a))
    coeffs = F.analysis(system, f)
    # one degree object per degree that f shares with some scale, largest first
    shared = {n for scale in spec.scales for n, _ in scale.coeffs} & {n for n, _ in f.coeffs}
    assert degrees == sorted(shared, reverse=True)
    degrees.clear()
    F.synthesis(system, dual, coeffs, f.degree)
    # the system keeps them: synthesis builds only the degrees analysis did not reach
    dual_degrees = {n for scale in dual.scales for n, _ in scale.coeffs if n <= f.degree}
    assert degrees == sorted(dual_degrees - shared, reverse=True)
    # the keys of f, of each scale and of each dual scale, once per table
    tables = [f.coeffs] + [s.coeffs for s in spec.scales + dual.scales]
    assert sorted(calls) == sorted(key for table in tables for key in table)
    # and a bad key is rejected at a degree no scale reaches
    with pytest.raises(IndexSetError):
        F.analysis(system, F.Signal(3, 9, {**f.coeffs, (9, (10,)): 1.0}))


# -- representation tables owned by the system ------------------------------------

def round_trip_systems():
    # zonal (no inner factor), directional, and base-rotated (plane-0 blocks)
    return [C.zonal_spec(3, 3, "kappa2"), C.wavelet_spec(4, 2, 2, "kappa2"),
            C.curvelet_spec(4, 2)]


@pytest.mark.parametrize("spec", round_trip_systems(), ids=["zonal", "wavelet", "curvelet"])
def test_synthesis_reuses_the_tables_analysis_built(spec, monkeypatch):
    f = F.random_signal(spec.d, 3, seed=6)
    dual = F.canonical_dual(spec, n_max=f.degree)
    warm = F.build_system(spec)
    coeffs = F.analysis(warm, f)
    want = F.synthesis(F.build_system(spec), dual, coeffs, f.degree)
    calls = []
    real = F.basis_matrix
    monkeypatch.setattr(F, "basis_matrix", lambda *a: calls.append(a) or real(*a))
    got = F.synthesis(warm, dual, coeffs, f.degree)
    assert calls == []  # no projection and no plane built
    assert got.coeffs.keys() == want.coeffs.keys()
    assert all(got.coeffs[key] == c for key, c in want.coeffs.items())


@pytest.mark.parametrize("spec", round_trip_systems(), ids=["zonal", "wavelet", "curvelet"])
def test_table_and_vector_forms_give_the_same_bits(spec):
    system = F.build_system(spec)
    for degree, seed in ((spec.max_bandwidth(), 5), (2, 8)):
        vector = F.random_signal(spec.d, degree, seed=seed)
        table = F.Signal(spec.d, degree, dict(vector.coeffs))
        coeffs = F.analysis(system, vector)
        assert np.array_equal(F.analysis(system, table), coeffs)
        a, b = F.parseval_check(system, vector, coeffs), F.parseval_check(system, table, coeffs)
        assert a.discrete_sum == b.discrete_sum
        assert b.spectral_sum == pytest.approx(a.spectral_sum, rel=1e-15, abs=0)
        assert abs(b.rel_gap - a.rel_gap) <= 1e-15
        # a signal's own energies, degree by degree, in either form
        assert vector.energies().keys() == table.energies().keys() == set(range(degree + 1))
        # the error, summed per degree, against the loop over keys
        rec = F.synthesis(system, F.canonical_dual(spec), coeffs, degree)
        keys = set(rec.coeffs) | set(table.coeffs)
        want = math.sqrt(sum(abs(rec.coeffs.get(key, 0.0) - table.coeffs.get(key, 0.0)) ** 2
                             for key in keys) / table.norm_sq())
        for f in (vector, table):
            assert F.relative_error(f, rec) == pytest.approx(want, rel=1e-12)


def test_a_vector_made_signal_builds_its_table_once_read_only():
    f = F.random_signal(3, 4, seed=1)
    table = f.coeffs
    assert f.coeffs is table and len(table) == 25
    with pytest.raises(TypeError):
        table[(0, (0,))] = 1.0
    # synthesis drops the zeros of its vectors from the table
    system = F.build_system(parseval_zonal(3, 2))
    out = F.synthesis(system, system.spec, np.zeros(sum(map(len, system.grids)), complex), 4)
    assert dict(out.coeffs) == {} and out.energies() == {}


def test_a_key_far_above_every_bandwidth_is_never_made_dense():
    # dim H_n at d = 4, n = 10^5 is about 10^10: one vector of it would take 160 GB
    spec = C.wavelet_spec(4, 2, 2, "kappa2")
    system = F.build_system(spec)
    dual = F.canonical_dual(spec)
    low = F.random_signal(4, spec.max_bandwidth(), seed=3)
    F.synthesis(system, dual, F.analysis(system, low), low.degree)  # builds every degree
    far = (10 ** 5, (3, -1))
    f = F.Signal(4, 10 ** 5, {**low.coeffs, far: 0.6})
    tracemalloc.start()
    try:
        coeffs = F.analysis(system, f)
        norm_sq = f.norm_sq()
        rec = F.synthesis(system, dual, coeffs, spec.max_bandwidth())
        err = F.relative_error(f, rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert np.array_equal(coeffs, F.analysis(system, low))
    assert norm_sq == pytest.approx(1.36, rel=1e-14)
    assert f.energies()[10 ** 5] == 0.36
    # the round trip recovers everything below the bandwidth and nothing of the far key
    assert err == pytest.approx(0.6 / math.sqrt(1.36), rel=1e-12)


def count_forming(monkeypatch):
    """Wrap what forms plane operands (ell >= 2) and chain index sets; the
    list gets one entry per operand or chain formed."""
    formed = []
    operand, chain = F._Degree._operand, F._Degree._chain_sets
    monkeypatch.setattr(F._Degree, "_operand",
                        lambda self, ell, *a: formed.append(("plane", ell)) or operand(self, ell, *a))
    monkeypatch.setattr(F._Degree, "_chain_sets",
                        lambda self, *a: formed.append(("chain",)) or chain(self, *a))
    return formed


def kept_bytes(system) -> int:
    return sum(a.nbytes for rep in system._degrees.values()
               for a in [*rep.operands.values(), *(x for sets in rep.chains.values() for x in sets)])


def walked_round_trip_systems():
    # the same, with the zonal table moved by a base rotation: a plain zonal
    # d = 3 scale forms no plane operand and no chain set (`F._legendre`)
    return [F.FrameSpec(3, C.zonal_spec(3, 3, "kappa2").scales, base_rotation=C.make_g0(3)),
            *round_trip_systems()[1:]]


@pytest.mark.parametrize("spec", walked_round_trip_systems(), ids=["zonal", "wavelet", "curvelet"])
def test_synthesis_forms_no_operand_and_no_chain_after_analysis(spec, monkeypatch):
    # the canonical dual has the table's supports, so synthesis replays every
    # plane operand and outer chain that analysis formed
    f = F.random_signal(spec.d, 3, seed=6)
    dual = F.canonical_dual(spec, n_max=f.degree)
    want = F.synthesis(F.build_system(spec), dual, F.analysis(F.build_system(spec), f), f.degree)
    formed = count_forming(monkeypatch)
    warm = F.build_system(spec)
    coeffs = F.analysis(warm, f)
    assert ("chain",) in formed and ("plane", 2) in formed
    formed.clear()
    got = F.synthesis(warm, dual, coeffs, f.degree)
    assert formed == []
    assert 0 < warm._kept.nbytes <= F._KEPT_BYTES
    assert list(got.coeffs) == list(want.coeffs)
    assert all(got.coeffs[key] == c for key, c in want.coeffs.items())


@pytest.mark.parametrize("spec", walked_round_trip_systems(), ids=["zonal", "wavelet", "curvelet"])
def test_the_byte_bound_moves_no_bit(spec, monkeypatch):
    # past the bound operands and chains are formed per call, with the same bits
    f = F.random_signal(spec.d, spec.max_bandwidth(), seed=4)
    dual = F.canonical_dual(spec)

    def round_trip():
        system = F.build_system(spec)
        coeffs = F.analysis(system, f)
        return system, coeffs, F.synthesis(system, dual, coeffs, f.degree)

    monkeypatch.setattr(F, "_KEPT_BYTES", 1 << 40)
    system, coeffs, want = round_trip()
    unbounded = system._kept.nbytes
    assert kept_bytes(system) <= unbounded
    for bound in (0, unbounded // 3):
        monkeypatch.setattr(F, "_KEPT_BYTES", bound)
        formed = count_forming(monkeypatch)
        system, got_coeffs, got = round_trip()
        assert kept_bytes(system) <= system._kept.nbytes <= bound
        assert (bound == 0) == (system._kept.nbytes == 0)
        assert formed  # some were not kept, and were formed again
        assert got_coeffs.tobytes() == coeffs.tobytes()
        assert list(got.coeffs) == list(want.coeffs)
        assert np.array(list(got.coeffs.values())).tobytes() == \
            np.array(list(want.coeffs.values())).tobytes()


def test_tables_are_built_once_per_system(monkeypatch):
    spec = C.wavelet_spec(4, 2, 2, "kappa2")
    f = F.random_signal(4, 4, seed=7)
    system = F.build_system(spec)
    first = F.analysis(system, f)
    calls = []
    real = F.basis_matrix
    monkeypatch.setattr(F, "basis_matrix", lambda *a: calls.append(a) or real(*a))
    again = F.analysis(system, f)
    assert calls == []
    assert np.array_equal(first, again)


@pytest.mark.parametrize("spec", round_trip_systems() + [
    C.zonal_spec(3, 5, "kappa2"), C.wavelet_spec(5, 1, 1, "kappa2"),
], ids=["zonal", "wavelet", "curvelet", "z5", "wavelet-d5"])
def test_each_degree_is_built_once_and_whole_per_system(spec, monkeypatch):
    # over analysis, synthesis and a second round trip on the same system:
    # per degree reached, one degree object, one sphere rule and d - 2
    # basis matrices at d >= 4, none of either at d = 3
    d = spec.d
    f = F.random_signal(d, spec.max_bandwidth(), seed=5)
    dual = F.canonical_dual(spec)
    system = F.build_system(spec)
    made, rules, bases = [], [], []
    make, rule, basis = F._Degree, F.sphere_rule, F.basis_matrix
    monkeypatch.setattr(F, "_Degree", lambda d, n, *a: made.append(n) or make(d, n, *a))
    monkeypatch.setattr(F, "sphere_rule", lambda d, n: rules.append(n) or rule(d, n))
    monkeypatch.setattr(F, "basis_matrix", lambda d, n, x: bases.append(n) or basis(d, n, x))
    results = [F.synthesis(system, dual, F.analysis(system, f), f.degree) for _ in range(2)]
    assert results[0].coeffs == results[1].coeffs
    table = {n for scale in spec.scales for (n, _), c in scale.coeffs.items() if c != 0}
    reached = sorted(table & {n for n, _ in f.coeffs})
    assert sorted(made) == sorted(system._degrees) == reached
    assert sorted(rules) == (reached if d > 3 else [])
    assert sorted(bases) == sorted(reached * (d - 2) if d > 3 else [])


@pytest.mark.parametrize("spec", round_trip_systems(), ids=["zonal", "wavelet", "curvelet"])
def test_a_warmed_system_adds_no_phase_table(spec):
    # one table per distinct grid axis, as wide as the largest degree it served
    f = F.random_signal(spec.d, 3, seed=6)
    dual = F.canonical_dual(spec, n_max=f.degree)
    system = F.build_system(spec)

    def round_trip():
        coeffs = F.analysis(system, f)
        return F.synthesis(system, dual, coeffs, f.degree)

    want = round_trip()
    tables = dict(system._phases)
    base = () if spec.base_rotation is None else Q.chain_factors(spec.base_rotation)
    sections = [section for g in system.grids for section in g.factors] + list(base)
    axes = {axis.nodes.tobytes() for section in sections for axis in section.axes}
    assert tables and set(tables) <= axes
    assert all(t.shape[1] <= 2 * f.degree + 1 for t in tables.values())
    got = round_trip()
    assert system._phases.keys() == tables.keys()
    assert all(system._phases[key] is t for key, t in tables.items())
    assert got.coeffs == want.coeffs


@pytest.mark.parametrize("spec", [
    C.zonal_spec(3, 3, "kappa2"),
    F.FrameSpec(3, C.zonal_spec(3, 2, "kappa2").scales, base_rotation=C.make_g0(3)),
    C.wavelet_spec(4, 2, 2, "kappa2"), C.curvelet_spec(4, 2),
    C.wavelet_spec(5, 1, 1, "kappa2"), C.curvelet_spec(5, 1),
], ids=["zonal-d3", "moved-d3", "wavelet-d4", "curvelet-d4", "wavelet-d5", "curvelet-d5"])
def test_tables_hold_one_unitary_matrix_per_plane(spec):
    # one dense D^n(P_ell) per plane ell = 2..d-1, at ell - 2, with or without
    # a base rotation: its chain runs down the same planes
    d = spec.d
    f = F.random_signal(d, spec.max_bandwidth(), seed=8)
    system = F.build_system(spec)
    coeffs = F.analysis(system, f)
    F.synthesis(system, F.canonical_dual(spec), coeffs, f.degree)
    assert system._degrees
    for n, rep in system._degrees.items():
        assert rep.n == n and len(rep.planes) == d - 2
        dim = H.dim_harmonic(d, n)
        for D in rep.planes:
            assert D.shape == (dim, dim)
            assert np.max(np.abs(D.conj().T @ D - np.eye(dim))) <= 1e-15


# -- what outlives a system: layouts and ladder stems, bounded per process ---------

def test_a_second_system_builds_its_own_quadrature_planes_but_no_ladder(monkeypatch):
    # Delta_3 is built anew per system (a traced run counts its basis_matrix
    # calls), Delta_2's stems are not: the second system solves no eigenproblem
    spec = C.wavelet_spec(4, 2, 2, "kappa2")
    f = F.random_signal(4, 4, seed=3)
    dual = F.canonical_dual(spec, n_max=f.degree)
    projections, solves = [], []
    project, solve = F.basis_matrix, F.eigh_tridiagonal
    monkeypatch.setattr(F, "basis_matrix", lambda *a: projections.append(a[1]) or project(*a))
    results, counts = [], []
    for _ in range(2):
        system = F.build_system(spec)
        results.append(F.synthesis(system, dual, F.analysis(system, f), f.degree))
        counts.append((len(projections), len(solves)))
        projections.clear()
        monkeypatch.setattr(F, "eigh_tridiagonal", lambda *a: solves.append(a) or solve(*a))
    assert counts[0][0] > 0 and counts[1] == (counts[0][0], 0)
    assert results[0].coeffs == results[1].coeffs


def test_remembered_arrays_are_read_only():
    layout = F._layout(4, 5)
    assert F._Degree(4, 5, {}).layout is layout
    rule = Q.gauss_symmetric_jacobi(7, 0.5)
    assert Q.gauss_symmetric_jacobi(7, 0.5) is rule
    F._ladder_stem(5)
    system = F.build_system(C.curvelet_spec(4, 2))
    F.analysis(system, F.random_signal(4, 4, seed=1))
    kept = [a for rep in system._degrees.values()
            for a in [*rep.operands.values(), *(x for sets in rep.chains.values() for x in sets)]]
    assert kept
    for a in (layout.klast, *layout.stems, F._stems[5], rule.nodes, rule.weights, *kept):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(TypeError):
        layout.index[layout.keys[0]] = 1


def test_kept_ladder_stems_equal_a_fresh_build_bit_for_bit(monkeypatch):
    kept = [F._ladder_stem(N) for N in range(66)]
    assert F._stems.keys() >= set(range(65)) and 65 not in F._stems
    monkeypatch.setattr(F, "_stems", {})
    for N, block in enumerate(kept):
        assert np.array_equal(F._ladder_stem(N), block), N
    # the stems above the bound are solved on every call
    assert F._stems.keys() == set(range(65))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_layout_reach_is_the_stem_closure_of_the_support(d):
    layout = F._layout(d, 4)
    rng = np.random.default_rng(d)
    for pos in range(d - 2):
        for size in (1, 3, 7):
            support = sorted(rng.choice(len(layout.keys), size, replace=False).tolist())
            stems = {layout.keys[i][:pos] + layout.keys[i][pos + 1:] for i in support}
            want = [i for i, k in enumerate(layout.keys) if k[:pos] + k[pos + 1:] in stems]
            assert layout.reach(pos, support).tolist() == want


@pytest.mark.parametrize("transform", ["analysis", "synthesis"])
def test_warmed_system_still_caps_before_allocation(transform, monkeypatch):
    spec = C.wavelet_spec(4, 2, 3, "kappa2")
    system = F.build_system(spec)
    f = F.random_signal(4, 8, seed=4)
    coefficients = F.analysis(system, f)
    F.synthesis(system, spec, coefficients, 8)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "100")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            if transform == "analysis":
                F.analysis(system, f)
            else:
                F.synthesis(system, spec, coefficients, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- which grids a spec admits ------------------------------------------------------

@pytest.mark.parametrize("variant, K, ok", [
    ("auto", None, True), ("general", None, True), ("steerable", None, True),
    ("steerable", 4, True), ("steerable", 1, False), ("steerable_so_d2", 2, False),
    ("steerable_so_d2", 5, True), ("so_d2_invariant", None, True), ("zonal", None, False),
])
def test_admits_follows_the_tags(variant, K, ok):
    assert F.admits(C.wavelet_spec(4, 4, 3, "kappa2"), variant, K) is ok


def test_admits_untagged_base_rotated_spec_only_general():
    spec = C.zonal_spec(4, 2, "kappa1")
    moved = F.FrameSpec(4, spec.scales, base_rotation=C.make_g0(4))
    bare = F.FrameSpec(4, spec.scales)
    for variant in Q.VARIANTS:
        assert F.admits(moved, variant, 2) is (variant == "general")
        assert F.admits(bare, variant, 0)  # the inspected table is zonal
    assert F.build_system(moved).variant == "general"


@settings(max_examples=30, deadline=None)
@given(systems(), st.sampled_from(Q.VARIANTS), st.integers(0, 3))
def test_admitted_grids_reconstruct(case, variant, K):
    spec = case[0]
    auto = F.build_system(spec)
    assert F.admits(spec, auto.variant, auto.grids[0].steer_K)
    if not F.admits(spec, variant, K):
        return
    system = F.build_system(spec, variant, K=K)
    f = F.random_signal(spec.d, spec.max_bandwidth(), seed=K)
    dual = F.canonical_dual(spec)
    sigma = F.sigma_profile(spec, f.degree)
    coeffs = F.analysis(system, f)
    got = F.synthesis(system, dual, coeffs, f.degree)
    for (n, k), c in f.coeffs.items():
        want = c if sigma[n] > 0 else 0.0
        assert abs(got.coeffs.get((n, k), 0.0) - want) < 1e-11


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 8), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_canonical_dual_residual_on_random_tables(d, n_max, n_scales, seed):
    rng = np.random.default_rng(seed)
    scales = [F.Scale(j, n_max, {key: c * 10.0 ** rng.uniform(-3, 3)
                                 for key, c in random_table(rng, d, n_max, 12).items()})
              for j in range(n_scales)]
    spec = F.FrameSpec(d, scales)
    residuals = F.dual_residuals(spec, F.canonical_dual(spec), n_max)
    carried = F.sigma_profile(spec, n_max) > 0
    assert np.max(residuals[carried], initial=0.0) <= 1e-12
    assert np.all(residuals[~carried] == 1.0)
