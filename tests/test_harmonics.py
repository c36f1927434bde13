import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sphereframe import constructions as C
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe.errors import ExactnessError, IndexSetError
from sphereframe.specfun import log_norm_A


def unit(rng, d):
    x = rng.standard_normal(d)
    return x / np.linalg.norm(x)


def harmonic(d, n, k, theta):
    """Y_k^{d,n} through the evaluator at one spherical point."""
    return complex(H.ExpansionEvaluator(d, {(n, k): 1.0}).eval_angles(theta[None])[0])


def test_dim_harmonic_values():
    assert H.dim_harmonic(3, 2) == 5
    assert H.dim_harmonic(4, 1) == 4
    for d in (3, 4, 5, 6):
        assert H.dim_harmonic(d, 0) == 1


def test_dim_harmonic_matches_the_factorial_formula():
    for d in range(3, 9):
        for n in range(300):
            assert H.dim_harmonic(d, n) == oracle.dim_harmonic(d, n)


def test_index_set_enumeration():
    assert H.index_set(3, 1) == ((-1,), (0,), (1,))
    assert H.index_set(4, 1) == ((0, 0), (1, -1), (1, 0), (1, 1))
    for d in (3, 4, 5):
        for n in (0, 1, 3, 6):
            kset = H.index_set(d, n)
            assert len(kset) == H.dim_harmonic(d, n)
            assert len(set(kset)) == len(kset)
            assert list(kset) == sorted(kset)
            assert all(oracle.in_index_set(d, n, k) for k in kset)


def test_round_trip_random_points():
    rng = np.random.default_rng(1)
    for d in (3, 4, 5, 7):
        for _ in range(20):
            x = unit(rng, d)
            back = H.spherical_to_cartesian(oracle.cartesian_to_spherical(x))
            assert np.max(np.abs(back - x)) < 1e-12


def test_pole_convention():
    for d in (3, 4, 6):
        pole = np.zeros(d)
        pole[-1] = 1.0
        assert np.all(oracle.cartesian_to_spherical(pole) == 0.0)


def test_coordinate_example_d3():
    theta = oracle.cartesian_to_spherical(np.array([1.0, 0.0, 0.0]))
    assert theta[0] == pytest.approx(math.pi / 2)
    assert theta[1] == pytest.approx(math.pi / 2)


def test_constant_harmonic_is_one():
    rng = np.random.default_rng(2)
    for d in (3, 4, 5):
        theta = oracle.cartesian_to_spherical(unit(rng, d))
        val = harmonic(d, 0, (0,) * (d - 2), theta)
        assert val == pytest.approx(1.0, abs=1e-14)


def test_eval_harmonic_rejects_bad_index():
    with pytest.raises(IndexSetError):
        H.ExpansionEvaluator(4, {(2, (3, 0)): 1.0})


def test_conjugation_flips_last_index():
    rng = np.random.default_rng(3)
    for d, n, k in ((3, 4, (-2,)), (4, 5, (3, 2)), (5, 4, (3, 1, -1))):
        theta = oracle.cartesian_to_spherical(unit(rng, d))
        flipped = k[:-1] + (-k[-1],)
        assert np.conj(harmonic(d, n, k, theta)) == pytest.approx(
            harmonic(d, n, flipped, theta), abs=1e-13)


def test_orthonormality_under_exact_rule():
    for d, n_max in ((3, 5), (4, 4), (5, 3)):
        rule = Q.sphere_rule(d, n_max)
        rows = np.vstack([H.basis_matrix(d, n, rule.angles)
                          for n in range(n_max + 1)])
        gram = (rows * rule.weights) @ rows.conj().T
        assert np.max(np.abs(gram - np.eye(rows.shape[0]))) < 1e-12


def test_addition_theorem_at_coincidence():
    rng = np.random.default_rng(4)
    for d in (3, 4, 5):
        for n in (1, 4, 9):
            theta = oracle.cartesian_to_spherical(unit(rng, d))[None, :]
            block = H.basis_matrix(d, n, theta)[:, 0]
            total = float(np.sum(np.abs(block) ** 2))
            dim = H.dim_harmonic(d, n)
            assert abs(total - dim) / dim < 1e-12


def test_addition_kernel_values():
    assert H.addition_kernel(3, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    for d, n in ((3, 4), (4, 6), (5, 3)):
        assert H.addition_kernel(d, n, 1.0) == pytest.approx(
            H.dim_harmonic(d, n), rel=1e-13)


def test_addition_kernel_two_point_oracle():
    rng = np.random.default_rng(5)
    d, n = 4, 5
    nu, eta = unit(rng, d), unit(rng, d)
    pts = oracle.cartesian_to_spherical(np.vstack([nu, eta]))
    block = H.basis_matrix(d, n, pts)
    direct = complex(np.sum(np.conj(block[:, 0]) * block[:, 1]))
    kernel = H.addition_kernel(d, n, float(nu @ eta))
    assert abs(direct - kernel) < 1e-10


def test_eval_expansion_matches_naive_sum():
    rng = np.random.default_rng(6)
    d = 4
    coeffs = {}
    for _ in range(10):
        n = int(rng.integers(0, 6))
        kset = H.index_set(d, n)
        k = kset[int(rng.integers(0, len(kset)))]
        coeffs[(n, k)] = complex(rng.standard_normal(), rng.standard_normal())
    theta = oracle.cartesian_to_spherical(
        np.array([unit(rng, d) for _ in range(5)]))
    got = H.ExpansionEvaluator(d, coeffs).eval_angles(theta)
    want = oracle.eval_sum(d, coeffs, theta)
    assert np.max(np.abs(got - want)) < 1e-13


def test_eval_expansion_single_entry_and_empty():
    rng = np.random.default_rng(7)
    theta = oracle.cartesian_to_spherical(unit(rng, 4))[None]
    single = H.ExpansionEvaluator(4, {(3, (2, -1)): 1.0}).eval_angles(theta)
    assert single[0] == pytest.approx(oracle.eval_harmonic(4, 3, (2, -1), theta)[0],
                                      abs=1e-14)
    assert np.array_equal(H.ExpansionEvaluator(4, {}).eval_angles(theta), [0.0])


def test_evaluator_theta1_free_paths_agree():
    rng = np.random.default_rng(8)
    d = 5
    coeffs = {}
    for n in range(1, 5):
        for k in H.index_set(d, n):
            if k[-1] == 0 and rng.random() < 0.4:
                coeffs[(n, k)] = float(rng.standard_normal())
    ev = H.ExpansionEvaluator(d, coeffs)
    assert ev.theta1_free and ev.real_output
    pts = np.array([unit(rng, d) for _ in range(11)])
    rots = np.stack([oracle.random_rotation(d, rng) for _ in range(3)])
    blocks = ev.rotated_apply(rots, pts, lambda vals, sl: vals.copy())
    stacked = np.vstack(blocks)
    for r in range(3):
        ref = ev.eval_angles(oracle.cartesian_to_spherical(pts @ rots[r]))
        assert np.max(np.abs(stacked[r] - ref)) < 1e-12


def test_tiny_imaginary_coefficient_is_kept():
    rng = np.random.default_rng(13)
    theta = oracle.cartesian_to_spherical(np.array([unit(rng, 4) for _ in range(5)]))
    c = 1 + 1e-9j
    ev = H.ExpansionEvaluator(4, {(2, (1, 0)): c})
    assert ev.theta1_free and not ev.real_output
    want = c * oracle.eval_harmonic(4, 2, (1, 0), theta)
    assert np.max(np.abs(ev.eval_angles(theta) - want)) < 1e-15


@st.composite
def tables(draw):
    """A random table on S^{d-1} up to degree 4: real or complex
    coefficients, with or without a term carrying k_{d-2} != 0."""
    d = draw(st.sampled_from([3, 4, 5]))
    keys = [(n, k) for n in range(5) for k in H.index_set(d, n)]
    free = [key for key in keys if key[1][-1] == 0]
    chosen = draw(st.lists(st.sampled_from(free), max_size=5, unique=True))
    if draw(st.booleans()):
        chosen.append(draw(st.sampled_from([key for key in keys if key[1][-1] != 0])))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = {}
    for key in chosen:
        c = complex(rng.standard_normal(), rng.standard_normal() if is_complex else 0.0)
        coeffs[key] = c
    return d, coeffs, rng


@settings(max_examples=60, deadline=None)
@given(tables())
def test_evaluator_entry_points_match_oracle(table):
    d, coeffs, rng = table
    ev = H.ExpansionEvaluator(d, coeffs)
    assert ev.real_output == (ev.theta1_free
                              and all(c.imag == 0.0 for c in coeffs.values()))
    assert ev.theta1_free == all(k[-1] == 0 for _, k in coeffs)
    pole = np.eye(d)[[d - 1, 0]]
    points = np.vstack([[unit(rng, d) for _ in range(6)], pole, -pole])
    rotations = np.stack([oracle.random_rotation(d, rng) for _ in range(3)])
    base = oracle.random_rotation(d, rng)

    def close(got, want):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    for moved in [points] + [points @ g for g in rotations @ base]:
        theta = oracle.cartesian_to_spherical(moved)
        want = oracle.eval_sum(d, coeffs, theta)
        close(ev.eval_angles(theta), want)
        close(ev.eval_cartesian(moved), want)
        for n in {n for n, _ in coeffs}:
            rows = H.basis_matrix(d, n, theta)
            for i, k in enumerate(H.index_set(d, n)):
                close(rows[i], oracle.eval_harmonic(d, n, k, theta))
    stacked = {}
    for workers in (1, 2):
        blocks = ev.rotated_apply(rotations, points, lambda vals, sl: vals.copy(),
                                  base_rotation=base, max_block=len(points),
                                  workers=workers)
        assert len(blocks) == len(rotations)
        stacked[workers] = np.vstack(blocks)
    assert np.array_equal(stacked[1], stacked[2])
    for r, g in enumerate(rotations @ base):
        want = oracle.eval_sum(d, coeffs, oracle.cartesian_to_spherical(points @ g))
        close(stacked[1][r], want)


def polar_table(d, is_complex, theta1):
    """A degree-6 table on S^{d-1} with every key, or only the keys with
    k_{d-2} = 0; real or complex coefficients."""
    rng = np.random.default_rng(40 + d)
    coeffs = {}
    for n in range(7):
        for k in H.index_set(d, n):
            if theta1 or k[-1] == 0:
                imag = rng.standard_normal() if is_complex else 0.0
                coeffs[(n, k)] = complex(rng.standard_normal(), imag)
    return coeffs


@pytest.mark.parametrize("theta1", [False, True], ids=["theta1_free", "theta1"])
@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_eval_polar_matches_eval_cartesian(d, is_complex, theta1):
    ev = H.ExpansionEvaluator(d, polar_table(d, is_complex, theta1))
    assert ev.theta1_free == (not theta1)
    assert ev.real_output == (not theta1 and not is_complex)
    rng = np.random.default_rng(d)
    # the poles, and t_max > pi, where sin t < 0 puts the point at -u
    t = np.concatenate([[0.0, math.pi, 2 * math.pi],
                        np.linspace(0.0, 2 * math.pi + 1.0, 29)])
    u = np.array([unit(rng, d - 1) for _ in range(40)])
    u[0] = np.eye(d - 1)[-1]  # every inner radius 0
    u[1] = -u[0]
    if d > 3:
        u[2] = np.eye(d - 1)[2]  # r_2 = 0 only
    got = ev.eval_polar(t, u)
    assert got.shape == (len(t), len(u))
    assert got.dtype == (float if ev.real_output else complex)
    u_full = np.hstack([u, np.zeros((len(u), 1))])
    points = np.cos(t)[:, None, None] * np.eye(d)[-1] + np.sin(t)[:, None, None] * u_full
    want = ev.eval_cartesian(points.reshape(-1, d)).reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_eval_polar_blocks_and_empty_table(monkeypatch):
    ev = H.ExpansionEvaluator(4, polar_table(4, True, True))
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 7)
    u = np.array([unit(rng, 3) for _ in range(23)])
    whole = ev.eval_polar(t, u)
    monkeypatch.setattr(H, "EVAL_CHUNK", 7 * 5)  # blocks of 5 directions
    assert np.array_equal(ev.eval_polar(t, u), whole)
    assert np.array_equal(H.ExpansionEvaluator(4, {}).eval_polar(t, u),
                          np.zeros((7, 23)))


def test_phases_are_powers_of_e_i_theta1():
    # at theta_2 = pi/2 the d=3 harmonic of degree |k| is A e^{i k theta_1}
    theta1 = np.linspace(0.0, 2 * math.pi, 257)
    theta = np.stack([theta1, np.full_like(theta1, math.pi / 2)], axis=1)
    x = H.spherical_to_cartesian(theta)
    for k in range(-64, 65):
        ev = H.ExpansionEvaluator(3, {(abs(k), (k,)): 1.0})
        amp = math.exp(log_norm_A(3, abs(k), (k,)))
        want = np.exp(1j * k * theta1)
        for got in (ev.eval_angles(theta), ev.eval_cartesian(x)):
            assert np.max(np.abs(got / amp - want)) < 1e-13, k


@pytest.mark.filterwarnings("error")  # no 0/0 on the way either
@pytest.mark.parametrize("d", [3, 4, 5])
def test_kernel_is_finite_at_the_poles(d):
    coeffs = polar_table(d, True, True)
    ev = H.ExpansionEvaluator(d, coeffs)
    axes = np.vstack([np.eye(d), -np.eye(d)])  # every partial radius 0 somewhere
    theta = np.zeros((2, d - 1))
    theta[1, -1] = math.pi
    assert np.all(np.isfinite(ev.eval_cartesian(axes)))
    assert np.all(np.isfinite(ev.eval_angles(theta)))
    assert np.all(np.isfinite(ev.eval_polar(np.array([0.0, math.pi]),
                                            axes[:d - 1, :d - 1])))
    assert np.all(np.isfinite(H.basis_matrix(d, 3, axes)))
    want = oracle.eval_sum(d, coeffs, oracle.cartesian_to_spherical(axes))
    assert np.max(np.abs(ev.eval_cartesian(axes) - want)) < 1e-12


def test_rotated_apply_blocks_bound_table_entries():
    # one block of the degree-32 zonal scale holds 33 table rows per point;
    # blocks sized in points alone would build a 17 MB table here
    psi = H.ExpansionEvaluator(3, C.zonal_spec(3, 5, "kappa2").scales[-1].coeffs)
    assert psi.n_terms == 25
    rotations = Q.rotation_rule(3, 4, "zonal").rotations
    points = Q.sphere_rule(3, 32).points
    tracemalloc.start()
    try:
        blocks = psi.rotated_apply(rotations, points, lambda vals, sl: vals.copy(),
                                   max_block=1 << 16, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert len(blocks) > 1
    whole = psi.rotated_apply(rotations, points, lambda vals, sl: vals.copy(),
                              max_block=1 << 40, workers=1)
    assert len(whole) == 1
    assert np.array_equal(np.vstack(blocks), whole[0])


def test_matrix_function_identity_is_kronecker():
    rule = Q.sphere_rule(4, 3)
    kset = H.index_set(4, 3)
    for k in kset[:4]:
        for m in kset[:4]:
            val = oracle.matrix_function_numeric(4, 3, k, m, np.eye(4), rule)
            want = 1.0 if k == m else 0.0
            assert abs(val - want) < 1e-12


def test_matrix_function_rows_are_unit_vectors():
    rng = np.random.default_rng(9)
    rule = Q.sphere_rule(4, 4)
    for n in range(1, 5):
        g = oracle.random_rotation(4, rng)
        block = oracle.matrix_function_block(4, n, g[None], rule)[0]
        row_sums = np.sum(np.abs(block) ** 2, axis=0)
        assert np.max(np.abs(row_sums - 1.0)) < 1e-12


def test_matrix_function_reproduces_rotation_of_harmonics():
    rng = np.random.default_rng(10)
    d, n = 4, 3
    rule = Q.sphere_rule(d, n)
    g = oracle.random_rotation(d, rng)
    eta = unit(rng, d)
    kset = H.index_set(d, n)
    block = oracle.matrix_function_block(d, n, g[None], rule)[0]
    theta = oracle.cartesian_to_spherical(eta)
    y_at = np.array([oracle.eval_harmonic(d, n, k, theta) for k in kset])
    moved = oracle.cartesian_to_spherical(eta @ g)
    for mi, m in enumerate(kset):
        lhs = oracle.eval_harmonic(d, n, m, moved)
        rhs = complex(block[:, mi] @ y_at)
        assert abs(lhs - rhs) < 1e-10


def test_matrix_function_requires_exact_rule():
    with pytest.raises(ExactnessError):
        oracle.matrix_function_numeric(4, 5, (0, 0), (0, 0), np.eye(4),
                                       Q.sphere_rule(4, 2))


def test_subgroup_block_structure():
    # rotations fixing the pole couple only indices with equal k_1 (d >= 4)
    rng = np.random.default_rng(11)
    d, n = 4, 3
    rule = Q.sphere_rule(d, n)
    h = Q.embed_rotation(oracle.random_rotation(d - 1, rng), d)
    block = oracle.matrix_function_block(d, n, h[None], rule)[0]
    kset = H.index_set(d, n)
    for i, k in enumerate(kset):
        for m_i, m in enumerate(kset):
            if k[0] != m[0]:
                assert abs(block[i, m_i]) < 1e-11, (k, m)


def test_planar_rotation_diagonal_phase_d3():
    rule = Q.sphere_rule(3, 4)
    gamma = 0.7
    h = np.eye(3)
    h[0, 0] = h[1, 1] = math.cos(gamma)
    h[1, 0] = math.sin(gamma)
    h[0, 1] = -math.sin(gamma)
    n = 3
    kset = H.index_set(3, n)
    block = oracle.matrix_function_block(3, n, h[None], rule)[0]
    for i, k in enumerate(kset):
        for m_i, m in enumerate(kset):
            want = np.exp(1j * k[0] * gamma) if k == m else 0.0
            assert abs(block[i, m_i] - want) < 1e-10


def test_degree_energy_is_rotation_invariant():
    rng = np.random.default_rng(12)
    d, n = 4, 4
    rule = Q.sphere_rule(d, n)
    kset = H.index_set(d, n)
    c = rng.standard_normal(len(kset)) + 1j * rng.standard_normal(len(kset))
    g = oracle.random_rotation(d, rng)
    # rotate the expansion by quadrature projection
    coeffs = {(n, k): c[i] for i, k in enumerate(kset)}
    ev = H.ExpansionEvaluator(d, coeffs)
    moved = oracle.cartesian_to_spherical(rule.points @ g)
    vals = ev.eval_angles(moved)
    basis = H.basis_matrix(d, n, rule.angles)
    rotated = np.conj(basis) @ (rule.weights * vals)
    assert np.sum(np.abs(rotated) ** 2) == pytest.approx(
        np.sum(np.abs(c) ** 2), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(0, 12))
def test_index_set_size_is_the_harmonic_dimension(d, n):
    assert len(H.index_set(d, n)) == H.dim_harmonic(d, n)


def test_basis_matrix_key_subset_at_cartesian_points():
    rng = np.random.default_rng(11)
    for d, n in ((3, 4), (4, 3), (5, 2)):
        x = np.stack([unit(rng, d) for _ in range(7)])
        theta = oracle.cartesian_to_spherical(x)
        full = H.basis_matrix(d, n, theta)
        got = H.basis_matrix(d, n, x)
        assert np.max(np.abs(got - full)) < 1e-12
