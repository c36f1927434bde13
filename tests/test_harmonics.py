import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe.errors import DomainError, ExactnessError, IndexSetError


def unit(rng, d):
    x = rng.standard_normal(d)
    return x / np.linalg.norm(x)


def test_dim_harmonic_values():
    assert H.dim_harmonic(3, 2) == 5
    assert H.dim_harmonic(4, 1) == 4
    for d in (3, 4, 5, 6):
        assert H.dim_harmonic(d, 0) == 1


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
            back = H.to_cartesian(H.to_spherical(x))
            assert np.max(np.abs(back - x)) < 1e-12


def test_pole_convention():
    for d in (3, 4, 6):
        pole = np.zeros(d)
        pole[-1] = 1.0
        assert np.all(H.to_spherical(pole) == 0.0)


def test_coordinate_example_d3():
    theta = H.to_spherical(np.array([1.0, 0.0, 0.0]))
    assert theta[0] == pytest.approx(math.pi / 2)
    assert theta[1] == pytest.approx(math.pi / 2)


def test_to_spherical_rejects_off_sphere():
    with pytest.raises(DomainError):
        H.to_spherical(np.array([1.0, 1.0, 1.0]))


def test_constant_harmonic_is_one():
    rng = np.random.default_rng(2)
    for d in (3, 4, 5):
        theta = H.to_spherical(unit(rng, d))
        val = H.eval_harmonic(d, 0, (0,) * (d - 2), theta)
        assert val == pytest.approx(1.0, abs=1e-14)


def test_eval_harmonic_rejects_bad_index():
    with pytest.raises(IndexSetError):
        H.eval_harmonic(4, 2, (3, 0), np.zeros(3))


def test_conjugation_flips_last_index():
    rng = np.random.default_rng(3)
    for d, n, k in ((3, 4, (-2,)), (4, 5, (3, 2)), (5, 4, (3, 1, -1))):
        theta = H.to_spherical(unit(rng, d))
        flipped = k[:-1] + (-k[-1],)
        assert np.conj(H.eval_harmonic(d, n, k, theta)) == pytest.approx(
            H.eval_harmonic(d, n, flipped, theta), abs=1e-13)


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
            theta = H.to_spherical(unit(rng, d))[None, :]
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
    pts = np.vstack([H.to_spherical(nu), H.to_spherical(eta)])
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
    theta = H.cartesian_to_spherical(
        np.array([unit(rng, d) for _ in range(5)]))
    got = H.eval_expansion(d, coeffs, theta)
    want = oracle.eval_sum(d, coeffs, theta)
    assert np.max(np.abs(got - want)) < 1e-13


def test_eval_expansion_single_entry_and_empty():
    rng = np.random.default_rng(7)
    theta = H.to_spherical(unit(rng, 4))
    single = H.eval_expansion(4, {(3, (2, -1)): 1.0}, theta)
    assert single == pytest.approx(H.eval_harmonic(4, 3, (2, -1), theta), abs=1e-14)
    assert H.eval_expansion(4, {}, theta) == 0.0


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
    rots = np.stack([Q.random_rotation(d, rng) for _ in range(3)])
    blocks = ev.rotated_apply(rots, pts, lambda vals, sl: vals.copy())
    stacked = np.vstack(blocks)
    for r in range(3):
        ref = H.eval_expansion(d, coeffs, H.cartesian_to_spherical(pts @ rots[r]))
        assert np.max(np.abs(stacked[r] - ref)) < 1e-12


def test_tiny_imaginary_coefficient_is_kept():
    rng = np.random.default_rng(13)
    theta = H.cartesian_to_spherical(np.array([unit(rng, 4) for _ in range(5)]))
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
    rotations = np.stack([Q.random_rotation(d, rng) for _ in range(3)])
    base = Q.random_rotation(d, rng)

    def close(got, want):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    for moved in [points] + [points @ g for g in rotations @ base]:
        theta = H.cartesian_to_spherical(moved)
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
        want = oracle.eval_sum(d, coeffs, H.cartesian_to_spherical(points @ g))
        close(stacked[1][r], want)


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
        g = Q.random_rotation(4, rng)
        block = H.matrix_function_block(4, n, g[None], rule)[0]
        row_sums = np.sum(np.abs(block) ** 2, axis=0)
        assert np.max(np.abs(row_sums - 1.0)) < 1e-12


def test_matrix_function_reproduces_rotation_of_harmonics():
    rng = np.random.default_rng(10)
    d, n = 4, 3
    rule = Q.sphere_rule(d, n)
    g = Q.random_rotation(d, rng)
    eta = unit(rng, d)
    kset = H.index_set(d, n)
    block = H.matrix_function_block(d, n, g[None], rule)[0]
    theta = H.to_spherical(eta)
    y_at = np.array([H.eval_harmonic(d, n, k, theta) for k in kset])
    moved = H.to_spherical(eta @ g)
    for mi, m in enumerate(kset):
        lhs = H.eval_harmonic(d, n, m, moved)
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
    h = Q.embed_rotation(Q.random_rotation(d - 1, rng), d)
    block = H.matrix_function_block(d, n, h[None], rule)[0]
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
    block = H.matrix_function_block(3, n, h[None], rule)[0]
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
    g = Q.random_rotation(d, rng)
    # rotate the expansion by quadrature projection
    coeffs = {(n, k): c[i] for i, k in enumerate(kset)}
    ev = H.ExpansionEvaluator(d, coeffs)
    moved = H.cartesian_to_spherical(rule.points @ g)
    vals = ev.eval_angles(moved)
    basis = H.basis_matrix(d, n, rule.angles)
    rotated = np.conj(basis) @ (rule.weights * vals)
    assert np.sum(np.abs(rotated) ** 2) == pytest.approx(
        np.sum(np.abs(c) ** 2), rel=1e-12)
