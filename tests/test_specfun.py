import math

import numpy as np
import pytest

from sphereframe import specfun
from sphereframe.errors import DomainError, IndexSetError, ParameterError
from sphereframe.harmonics import index_set
from sphereframe.quadrature import gauss_symmetric_jacobi


def test_gegenbauer_degree_zero_is_one():
    assert specfun.gegenbauer_table(1.5, 0, 0.3)[0] == 1.0


def test_gegenbauer_chebyshev_u_identity():
    # C_2^1(t) = 4 t^2 - 1, hand evaluated at t = 1/2
    assert abs(specfun.gegenbauer_table(1.0, 2, 0.5)[2]) < 1e-15


def test_gegenbauer_at_one_closed_form():
    assert specfun.gegenbauer_table(1.0, 2, 1.0)[2] == pytest.approx(3.0, rel=1e-14)


def test_gegenbauer_at_one_binomial_table():
    for lam in (0.5, 1.0, 1.5, 3.0):
        table = specfun.gegenbauer_table(lam, 64, 1.0)
        for n in range(65):
            expected = math.comb(n + round(2 * lam) - 1, n)
            assert table[n] == pytest.approx(expected, rel=1e-12), (lam, n)


def test_gegenbauer_parity():
    rng = np.random.default_rng(0)
    for lam in (0.5, 1.0, 2.5):
        t = rng.uniform(-1, 1, 8)
        for n in range(9):
            left = specfun.gegenbauer_table(lam, n, -t)[n]
            right = (-1.0) ** n * specfun.gegenbauer_table(lam, n, t)[n]
            assert np.allclose(left, right, rtol=1e-12, atol=1e-13)


def test_gegenbauer_rejects_bad_index():
    with pytest.raises(ParameterError):
        specfun.gegenbauer_table(0.0, 2, 0.5)[2]
    with pytest.raises(ParameterError):
        specfun.gegenbauer_table(-1.0, 2, 0.5)[2]


def test_log_norm_A_degree_zero_pinned():
    assert specfun.log_norm_A(3, 0, (0,)) == 0.0
    assert specfun.log_norm_A(4, 0, (0, 0)) == 0.0
    assert specfun.log_norm_A(7, 0, (0,) * 5) == 0.0


def test_log_norm_A_rejects_bad_index():
    with pytest.raises(IndexSetError):
        specfun.log_norm_A(4, 3, (1, 2))  # violates k_1 >= |k_2|
    with pytest.raises(IndexSetError):
        specfun.log_norm_A(4, 2, (3, 0))  # k_1 > n


@pytest.mark.parametrize("d, n, k", [
    (3, 2, (1,)), (3, 2, 1), (3, 2, -2), (3, 2, (3,)), (3, 2, 3), (3, 2, (1, 0)),
    (4, 3, (2, -2)), (4, 3, (1, 2)), (4, 2, (3, 0)), (4, 3, (-1, 0)), (4, 3, (2,)),
    (5, 4, (3, 2, -1)), (5, 4, (2, 3, 0)), (5, 4, (4, 4, 5)),
])
def test_multi_index_check_is_the_same_for_every_key_type(d, n, k):
    # tuples and ints take a pure-Python path; lists, numpy integers and
    # arrays of the same key must pass or raise alike
    forms = [k, np.array(k), list(np.atleast_1d(k)), tuple(np.atleast_1d(k)),
             tuple(float(v) for v in np.atleast_1d(k))]
    results = []
    for form in forms:
        try:
            results.append(specfun.validate_multi_index(d, n, form))
        except IndexSetError:
            results.append(IndexSetError)
    assert results == [results[0]] * len(forms)
    assert results[0] is IndexSetError or all(type(v) is int for v in results[0])


def test_accepted_keys_are_remembered_up_to_a_bound(monkeypatch):
    monkeypatch.setattr(specfun, "_accepted", set())
    monkeypatch.setattr(specfun, "_ACCEPTED_MAX", 4)
    keys = index_set(4, 2)
    for k in keys[:4] + keys[:4]:
        assert specfun.validate_multi_index(4, 2, k) is k
    assert specfun._accepted == {(4, 2, k) for k in keys[:4]}
    with pytest.raises(IndexSetError):  # a refused key is not kept
        specfun.validate_multi_index(4, 2, (3, 0))
    assert len(specfun._accepted) == 4
    # the fifth key finds the bound reached and empties the memo first
    assert specfun.validate_multi_index(4, 2, np.array(keys[4])) == keys[4]
    assert specfun._accepted == {(4, 2, keys[4])}
    # a key met again is still handed back as ints
    got = specfun.validate_multi_index(4, 2, tuple(float(v) for v in keys[4]))
    assert got == keys[4] and all(type(v) is int for v in got)


def _norm_factor_by_quadrature(d, n, k):
    """1-d quadrature oracle for the normalization: the squared reciprocal is
    Gamma(d/2)/pi^{(d-2)/2} * prod_j int C^2 (1-t^2)^{lam_j - 1/2} dt."""
    chain = (n,) + tuple(k)
    inv_sq = math.gamma(d / 2.0) / math.pi ** (0.5 * (d - 2))
    for j in range(d - 2):
        a = abs(chain[j + 1])
        lam = 0.5 * (d - j - 2) + a
        m = chain[j] - a
        rule = gauss_symmetric_jacobi(m + 2, lam - 0.5)
        vals = specfun.gegenbauer_table(lam, m, rule.nodes)[m]
        inv_sq *= float(np.sum(rule.weights * vals * vals))
    return 1.0 / math.sqrt(inv_sq)


def test_log_norm_A_matches_quadrature_oracle():
    for d in (3, 4, 5):
        for n in range(13):
            for k in index_set(d, n):
                got = math.exp(specfun.log_norm_A(d, n, k))
                want = _norm_factor_by_quadrature(d, n, k)
                assert got == pytest.approx(want, rel=1e-10), (d, n, k)


def test_q_d_hand_values():
    assert specfun.q_d(3, 0) == pytest.approx(-0.25)
    assert specfun.q_d(4, 0) == 0.0
    assert specfun.q_d(4, 1) == pytest.approx(2.0)
    assert specfun.q_d(4, -1) == specfun.q_d(4, 1)


def test_Q_d_hand_values():
    assert specfun.Q_d(3, 0, 1) == pytest.approx(2.0 / math.sqrt(15.0), rel=1e-14)
    assert specfun.Q_d(4, 0, 5) == pytest.approx(0.5, rel=1e-14)


def test_Q_d_large_n_limit():
    # Q_d^{k1}(n) = 1/2 (1 + O(n^-2))
    for n in (100, 1000, 10000):
        gap = abs(specfun.Q_d(4, 2, n) - 0.5)
        assert gap < 10.0 / n ** 2


def test_Q_d_range_and_boundary():
    for d in (3, 4, 5):
        for n in range(0, 12):
            for k1 in range(0, n + 1):
                v = specfun.Q_d(d, k1, n)
                assert 0.0 < v < 1.0, (d, k1, n)
            assert specfun.Q_d(d, n + 1, n) == pytest.approx(0.0, abs=1e-7)


def test_Q_d_domain_error_out_of_range():
    with pytest.raises(DomainError):
        specfun.Q_d(4, 5, 2)


def test_Q_d_tail_difference_decay():
    # Q(n-1) - Q(n) = O(n^-3): |dQ| n^3 stays bounded up to n = 10^4
    for d in (3, 4, 5):
        for k1 in range(0, 11):
            n = np.arange(max(2, k1 + 1), 10001)
            q_hi = specfun.Q_d(d, k1, n)
            q_lo = specfun.Q_d(d, k1, n - 1)
            ratio = np.abs(q_lo - q_hi) * n.astype(float) ** 3
            assert ratio.max() < 500.0, (d, k1, ratio.max())
