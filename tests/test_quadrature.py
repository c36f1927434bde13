import itertools
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sphereframe import _config
from sphereframe import constructions as C
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe.errors import CapacityError, ParameterError


def test_jacobi_single_node_legendre():
    rule = Q.gauss_symmetric_jacobi(1, 0.0)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)


def test_jacobi_weight_sum_half_circle():
    rule = Q.gauss_symmetric_jacobi(3, 0.5)
    assert abs(rule.weights.sum() - math.pi / 2) < 1e-14


def test_jacobi_moment_alpha_one():
    rule = Q.gauss_symmetric_jacobi(8, 1.0)
    assert abs(np.sum(rule.weights * rule.nodes ** 2) - 4.0 / 15.0) < 1e-14


def test_jacobi_exactness_all_monomials():
    for m, alpha in ((4, 0.0), (6, 0.5), (5, 1.5)):
        rule = Q.gauss_symmetric_jacobi(m, alpha)
        fine = Q.gauss_symmetric_jacobi(40, alpha)
        for p in range(2 * m):
            got = np.sum(rule.weights * rule.nodes ** p)
            want = np.sum(fine.weights * fine.nodes ** p)
            assert abs(got - want) < 1e-12, (m, alpha, p)


def test_jacobi_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        Q.gauss_symmetric_jacobi(0, 0.0)
    with pytest.raises(ParameterError):
        Q.gauss_symmetric_jacobi(3, -1.0)


def test_circle_rule_oscillation_and_aliasing():
    rule = Q.sphere_rule(3, 2).axes[0]  # the equispaced theta_1 axis, 5 nodes
    assert abs(np.sum(rule.weights * np.exp(1j * rule.nodes))) < 1e-15
    aliased = np.sum(rule.weights * np.exp(5j * rule.nodes))
    assert aliased == pytest.approx(2 * math.pi, rel=1e-14)  # NOT zero


def test_circle_rule_trig_exactness():
    rule = Q.sphere_rule(3, 4).axes[0]  # 9 nodes
    for p in range(1, 9):
        assert abs(np.sum(rule.weights * np.exp(1j * p * rule.nodes))) < 1e-14


def test_sphere_rule_normalization_and_count():
    for d, N in ((3, 8), (4, 5), (5, 3)):
        rule = Q.sphere_rule(d, N)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert np.all(rule.weights > 0)
        assert np.max(np.abs(np.linalg.norm(rule.points, axis=1) - 1.0)) < 1e-12
    assert len(Q.sphere_rule(3, 8)) == 153


def test_sphere_rule_harmonic_means_vanish():
    # only the constant has a nonzero mean
    for d, N in ((3, 6), (4, 4)):
        rule = Q.sphere_rule(d, N)
        for n in range(2 * N + 1):
            block = H.basis_matrix(d, n, rule.angles)
            means = block @ rule.weights
            if n == 0:
                assert means[0] == pytest.approx(1.0, abs=1e-13)
            else:
                assert np.max(np.abs(means)) < 1e-12, (d, n)


def test_section_rotation_contract():
    rng = np.random.default_rng(0)
    assert np.array_equal(Q.sections(np.zeros((1, 3))), np.eye(4)[None])
    for d in (3, 4, 6):
        e_d = np.eye(d)[:, -1]
        x = rng.standard_normal((10, d))
        angles = oracle.cartesian_to_spherical(x / np.linalg.norm(x, axis=1, keepdims=True))
        gs = Q.sections(angles)
        assert gs.shape == (10, d, d)
        assert np.max(np.abs(gs @ e_d - H.spherical_to_cartesian(angles))) < 1e-12
        for g in gs:
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
            oracle.validate_rotation(g, tol=1e-12)


def test_embed_subsphere_rotation_contract():
    rng = np.random.default_rng(1)
    pole = Q.embed_rotation(Q.sections(np.zeros((1, 2))), 4)
    assert np.array_equal(pole, np.eye(4)[None])
    x = rng.standard_normal((5, 3))
    angles = oracle.cartesian_to_spherical(x / np.linalg.norm(x, axis=1, keepdims=True))
    hs = Q.embed_rotation(Q.sections(angles), 4)
    assert hs.shape == (5, 4, 4)
    eta = np.hstack([H.spherical_to_cartesian(angles), np.zeros((5, 1))])
    assert np.max(np.abs(hs @ np.array([0, 0, 1.0, 0]) - eta)) < 1e-12
    assert np.all(hs @ np.array([0, 0, 0, 1.0]) == np.array([0, 0, 0, 1.0]))


def test_rotation_rule_weights_normalized():
    cases = [
        (3, 3, "general", None),
        (4, 2, "general", None),
        (4, 3, "steerable", 2),
        (4, 4, "zonal", None),
        (4, 3, "so_d2_invariant", None),
        (4, 8, "steerable_so_d2", 4),
    ]
    for d, N, variant, K in cases:
        rule = Q.rotation_rule(d, N, variant, K=K)
        assert abs(rule.weights.sum() - 1.0) < 1e-13, (variant,)
        assert np.all(rule.weights > 0)
        for g in rule.rotations[:: max(1, len(rule) // 7)]:
            oracle.validate_rotation(g, tol=1e-10)


def test_rotation_rule_sizes():
    rule = Q.rotation_rule(4, 8, "steerable_so_d2", K=4)
    assert len(rule) == len(Q.sphere_rule(4, 8)) * len(Q.sphere_rule(3, 4))
    zonal = Q.rotation_rule(3, 5, "zonal")
    assert len(zonal) == len(Q.sphere_rule(3, 5))


def test_rotation_rule_requires_K_for_steerable():
    with pytest.raises(ParameterError):
        Q.rotation_rule(4, 3, "steerable")
    with pytest.raises(ParameterError):
        Q.rotation_rule(4, 3, "steerable_so_d2")


def test_rotation_rule_capacity_guardrail(monkeypatch):
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "10000")
    with pytest.raises(CapacityError):
        Q.rotation_rule(4, 8, "general")


def test_general_rule_integrates_matrix_functions_to_delta():
    # int t_{k,m}^{d,n} dmu = delta_{n,0}: the rule applied to a random
    # combination of low-degree matrix functions returns its constant part
    rng = np.random.default_rng(2)
    d, N = 3, 2
    rule = Q.rotation_rule(d, N, "general")
    sphere = Q.sphere_rule(d, N)
    total = np.zeros(len(rule), dtype=complex)
    constant_part = 0.0
    for n in range(N + 1):
        kset = H.index_set(d, n)
        blocks = oracle.matrix_function_block(d, n, rule.rotations, sphere)
        c = rng.standard_normal((len(kset), len(kset))) \
            + 1j * rng.standard_normal((len(kset), len(kset)))
        total += np.einsum("km,rkm->r", c, blocks)
        if n == 0:
            constant_part = complex(c[0, 0])
    got = complex(np.sum(rule.weights * total))
    assert abs(got - constant_part) < 1e-10


def test_decomposition_identity_against_finer_iterated_rule():
    # the composed grid agrees with an independently refined sphere x subgroup
    # composition on products of class-N matrix functions
    rng = np.random.default_rng(3)
    d, N = 3, 2
    coarse = Q.rotation_rule(d, N, "general")
    fine = Q.rotation_rule(d, N + 2, "general")
    sphere = Q.sphere_rule(d, N)
    n = 2
    kset = H.index_set(d, n)
    c = rng.standard_normal((len(kset), len(kset)))

    def f_of(rule):
        blocks = oracle.matrix_function_block(d, n, rule.rotations, sphere)
        vals = np.einsum("km,rkm->r", c, blocks)
        return np.sum(rule.weights * np.abs(vals) ** 2)

    assert f_of(coarse) == pytest.approx(f_of(fine), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("cap, build", [
    (1000, lambda: Q.rotation_rule(4, 20, "general")),
    (1000, lambda: Q.rotation_rule(4, 30, "so_d2_invariant")),
    (1000, lambda: Q.rotation_rule(3, 200, "zonal")),
    (1000, lambda: Q.rotation_rule(2, 10 ** 6)),
    (1000, lambda: Q.sphere_rule(4, 20)),
    (40000, lambda: Q.rotation_rule(4, 20, "general")),
    (40000, lambda: Q.rotation_rule(4, 20, "steerable", K=20)),
], ids=["general", "so_d2_invariant", "zonal", "so2", "sphere",
        "general-inner-fits", "steerable-inner-fits"])
def test_capacity_fires_before_allocation(cap, build, monkeypatch):
    # each of these would allocate megabytes (or, for SO(2), a 2M-node
    # circle) before an after-the-fact check could fire; the inner SO(3)
    # grids fit under the cap of 40000
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(cap))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_capacity_admits_exact_count(monkeypatch):
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(7 * 16))
    assert len(Q.sphere_rule(4, 3)) == 7 * 16
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(7 * 16 - 1))
    with pytest.raises(CapacityError):
        Q.sphere_rule(4, 3)
    for d in (3, 4):
        for variant in Q.VARIANTS:
            monkeypatch.delenv("SPHEREFRAME_MAX_NODES")
            size = len(Q.rotation_rule(d, 2, variant, K=1))
            monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(size))
            assert len(Q.rotation_rule(d, 2, variant, K=1)) == size
            monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(size - 1))
            with pytest.raises(CapacityError):
                Q.rotation_rule(d, 2, variant, K=1)


def test_counts_past_what_python_prints_are_named_compactly(monkeypatch):
    # a count Python prints stays whole; a longer one is named by its leading
    # digits, and a power of 2^15 bits or more is refused before it is formed
    with pytest.raises(CapacityError, match=f"x would hold {10 ** 4000} nodes"):
        Q.check_cap(10 ** 4000, "x")
    with pytest.raises(CapacityError, match=r"x would hold about 1\.000e\+5000 nodes"):
        Q.check_cap(10 ** 5000, "x")
    with pytest.raises(CapacityError, match=r"of the order of 3\^999999999998 nodes"):
        Q.sphere_size(10 ** 12, 2)
    assert Q.sphere_size(20002, 2) == 5 * 3 ** 20000  # 31,700 bits: formed
    with pytest.raises(CapacityError, match=r"of the order of 2\^32768 nodes"):
        Q.capped_power(2, 1 << 15, "x")
    # the exponent is compared with the cap, not with a fixed bound
    with _config.command_flags(1 << 40000, None):
        assert Q.capped_power(2, 1 << 15, "x") == 1 << (1 << 15)


def test_one_node_rules_of_any_dimension_up_to_the_float_range():
    # more axes than numpy has array dimensions: the products stay flat
    assert Q.sphere_rule(100, 0).angles.shape == (1, 99)
    assert Q.rotation_rule(100, 0).rotations.shape == (1, 100, 100)
    assert len(Q.sphere_rule(343, 0)) == 1
    # Gamma(alpha + 1.5) overflows from alpha = 170.5, the axis 342 of S^{d-1}
    assert Q.gauss_symmetric_jacobi(1, 170.0).weights[0] > 0
    with pytest.raises(ParameterError, match="Jacobi exponent 170.5 is too large"):
        Q.gauss_symmetric_jacobi(1, 170.5)
    with pytest.raises(ParameterError, match="Jacobi exponent"):
        Q.sphere_rule(344, 0)


def test_sphere_rule_arrays_are_the_tensor_product_of_its_axes():
    for rule in (Q.sphere_rule(3, 4), Q.sphere_rule(5, 2)):
        # the length and the weights come without either array
        assert len(rule) == math.prod(len(axis.nodes) for axis in rule.axes)
        assert "angles" not in vars(rule) and "points" not in vars(rule)
        weights = np.array([math.prod(w) for w in
                            itertools.product(*(axis.weights for axis in rule.axes))])
        assert rule.weights.tobytes() == (weights / weights.sum()).tobytes()
        angles = np.array(list(itertools.product(*(axis.nodes for axis in rule.axes))))
        assert rule.d == angles.shape[1] + 1
        assert rule.angles.tobytes() == angles.tobytes()
        assert rule.points.tobytes() == H.spherical_to_cartesian(angles).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_factors_rebuild_flat_grids_bitwise(d):
    # at d <= 3 the SO(2) factors reach 11 nodes (N or K = 5), the first count
    # at which normalized circle weights differ from 1/M in the last bit
    top = {2: 6, 3: 6, 4: 3, 5: 2}[d]
    for variant in Q.VARIANTS:
        for N in range(top):
            steer = variant in ("steerable", "steerable_so_d2")
            for K in (range(6 if d == 3 else 3) if steer else (None,)):
                rule = Q.rotation_rule(d, N, variant, K=K)
                rotations, weights = oracle.flat_rotation_rule(d, N, variant, K)
                assert len(rule) == len(weights)
                assert rule.rotations.tobytes() == rotations.tobytes(), (variant, N, K)
                assert rule.weights.tobytes() == weights.tobytes(), (variant, N, K)
                if d == 2 or variant in ("general", "steerable"):
                    so2 = rule.factors[-1]  # its axis holds the rule's 1/M weights
                    assert so2.axes[0].weights.tobytes() == so2.weights.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 6), st.sampled_from(Q.VARIANTS),
       st.integers(0, 6))
def test_grid_size_is_the_rule_length_under_a_cap(d, N, variant, K):
    cap = 20_000
    size = oracle.grid_size(d, N, variant, K)
    # a function-scoped monkeypatch would trip Hypothesis' health check
    with mock.patch.dict(os.environ, {"SPHEREFRAME_MAX_NODES": str(cap)}):
        if size > cap:
            with pytest.raises(CapacityError):
                Q.rotation_rule(d, N, variant, K=K)
        else:
            assert len(Q.rotation_rule(d, N, variant, K=K)) == size


@pytest.mark.parametrize("variant", Q.VARIANTS)
def test_so2_grids_are_the_general_circle_whatever_the_variant(variant):
    K = 1 if variant in ("steerable", "steerable_so_d2") else None
    rule = Q.rotation_rule(2, 2, variant, K=K)
    general = Q.rotation_rule(2, 2)
    assert (rule.variant, rule.steer_K, rule.class_degree, len(rule)) == ("general", None, 2, 5)
    assert rule.rotations.tobytes() == general.rotations.tobytes()
    assert rule.weights.tobytes() == general.weights.tobytes()


def signed_permutations(d):
    """The det +1 signed permutation matrices of R^d, every axis singularity."""
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1.0, -1.0), repeat=d):
            g = np.zeros((d, d))
            g[np.arange(d), perm] = signs
            if np.linalg.det(g) > 0:
                yield g


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_chain_factors_compose_back_to_the_rotation(d):
    rng = np.random.default_rng(30 + d)
    rotations = [np.eye(d), C.make_g0(d)] + [oracle.random_rotation(d, rng) for _ in range(10)]
    if d <= 4:
        rotations += list(signed_permutations(d))
    assert len(rotations) == 12 + {3: 24, 4: 192}.get(d, 0)
    for g in rotations:
        factors = Q.chain_factors(g)
        assert [len(f) for f in factors] == [1] * (d - 1)
        assert [len(f.axes) for f in factors] == list(range(d - 1, 0, -1))
        assert np.max(np.abs(Q._compose(d, factors, "general")[0] - g)) <= 1e-15


def ladder_stem(N):
    """The tridiagonal of the SO(3) plane's generator on a stem of length 2N+1."""
    M = np.arange(-N, N)
    return np.zeros(2 * N + 1), 0.5 * np.sqrt((N - M) * (N + M + 1.0)) * np.where(M < 0, -1.0, 1.0)


def jacobi_matrix(m, alpha):
    """The Golub-Welsch matrix of `gauss_symmetric_jacobi(m, alpha)`."""
    k = np.arange(1, m, dtype=float)
    return np.zeros(m), np.sqrt(k * (k + 2.0 * alpha)
                                / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0)))


def test_eigh_tridiagonal_is_scipys_bit_for_bit():
    # scipy is a test-only dependency: its `dstevd` driver is the reference
    from scipy.linalg import eigh_tridiagonal
    cases = ([ladder_stem(N) for N in range(101)]
             + [jacobi_matrix(m, alpha) for m in range(1, 151)
                for alpha in (0.0, 0.5, 1.0, 1.5)]
             + [(np.array([-0.7]), np.array([]))])
    # one solver after the other: numpy and scipy each bring a BLAS whose
    # thread pools contend, and alternating calls take twice as long
    got = [Q.eigh_tridiagonal(diag, off) for diag, off in cases]
    want = [eigh_tridiagonal(diag, off) for diag, off in cases]
    for (diag, _), (w, v), (w_ref, v_ref) in zip(cases, got, want):
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), len(diag)
        # the layout reaches the callers' matmuls, and with it their last digits
        assert v.flags.f_contiguous, len(diag)


def test_gauss_rules_are_remembered_and_read_only():
    rule = Q.gauss_symmetric_jacobi(40, 0.5)
    fresh = Q.gauss_symmetric_jacobi.__wrapped__(40, 0.5)
    for a in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):  # a caller writing into its rule
            a[:] = np.nan
    again = Q.gauss_symmetric_jacobi(40, 0.5)
    assert again is rule
    assert np.array_equal(again.nodes, fresh.nodes) and np.array_equal(again.weights, fresh.weights)
    # the solver keeps nothing: every call hands out new, writable arrays
    diag, off = jacobi_matrix(40, 0.5)
    w, v = Q.eigh_tridiagonal(diag, off)
    assert Q.eigh_tridiagonal(diag, off)[1] is not v
    assert v.flags.f_contiguous and v.flags.writeable and w.flags.writeable


def test_rotation_rule_rejects_a_negative_degree_before_its_cap(monkeypatch):
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1")
    for d in (2, 3, 4):
        for N in (-1, -10 ** 6):
            with pytest.raises(ParameterError, match=f"target degree must be nonnegative, got {N}"):
                Q.rotation_rule(d, N)


def test_rotation_rule_rejects_a_negative_K():
    for variant in Q.VARIANTS:
        with pytest.raises(ParameterError, match="K must be nonnegative, got -2"):
            Q.rotation_rule(4, 3, variant, K=-2)
