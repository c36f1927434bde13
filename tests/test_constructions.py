import math

import numpy as np
import pytest

import oracle
from sphereframe import constructions as C
from sphereframe import frames as F
from sphereframe import harmonics as H
from sphereframe.errors import ParameterError


def test_phi_values():
    assert C.phi(0.25) == 1.0
    assert C.phi(0.75) == pytest.approx(0.5, rel=1e-14)
    assert C.phi(0.5) == pytest.approx(1.0, rel=1e-14)
    assert C.phi(1.0) == 0.0
    assert C.phi(3.0) == 0.0
    with pytest.raises(ParameterError):
        C.phi(-0.1)


def test_kappa_values_and_support():
    assert C.kappa(1.0) == pytest.approx(1.0, rel=1e-14)
    assert C.kappa(0.4) == 0.0
    assert C.kappa(2.0) == 0.0
    assert C.kappa(2.5) == 0.0
    t = np.linspace(0.51, 1.99, 200)
    assert np.all(C.kappa(t) > 0)


def _derivative_gap(fn, knot, eps, order):
    """Mismatch of one-sided derivative estimates on both sides of a knot."""
    h = eps / 10.0

    def deriv(x):
        if order == 1:
            return (fn(x + h) - fn(x - h)) / (2 * h)
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / h ** 2

    return abs(deriv(knot + eps) - deriv(knot - eps))


def test_window_smoothness_at_knots():
    # phi is C^2 at both knots, kappa at 1 and 2: second-derivative gaps
    # shrink linearly with the probe distance
    for fn, knot in ((C.phi, 0.5), (C.phi, 1.0), (C.kappa, 1.0), (C.kappa, 2.0)):
        gaps = [_derivative_gap(fn, knot, eps, 2) for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[1] < 0.3 * gaps[0]
        assert gaps[2] < 0.3 * gaps[1]
    # at the lower support edge kappa vanishes like (t - 1/2)^{3/2}: the
    # first derivative is continuous, the second is one-sidedly unbounded
    gaps1 = [_derivative_gap(C.kappa, 0.5, eps, 1) for eps in (1e-2, 1e-3, 1e-4)]
    assert gaps1[1] < 0.7 * gaps1[0]
    assert gaps1[2] < 0.7 * gaps1[1]
    gaps2 = [_derivative_gap(C.kappa, 0.5, eps, 2) for eps in (1e-2, 1e-3)]
    assert gaps2[1] > gaps2[0]


def test_window_partition_telescopes():
    n = np.arange(1, 10001, dtype=float)
    total = np.zeros_like(n)
    for j in range(1, 16):
        total += C.kappa(n / 2.0 ** (j - 1)) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-13


def test_band_filters_values():
    assert C.kappa1(4, 3, 4) == pytest.approx(8.0, rel=1e-14)
    assert C.kappa1(4, 3, 2 ** 3 + 1) == 0.0
    assert C.kappa2(4, 3, 1) == 0.0
    # kappa2 stays positive on the whole closed dyadic band
    for j in (1, 2, 3, 6):
        lo = max(1, int(math.ceil(2.0 ** (j - 2))))
        for n in range(lo, 2 ** j + 1):
            assert C.kappa2(4, j, n) > 0.0, (j, n)


def test_band_overlap_at_most_two_scales():
    for n in range(1, 257):
        hits = [j for j in range(1, 10) if C.kappa1(4, j, n) != 0.0]
        assert 1 <= len(hits) <= 2, n
        assert hits == sorted(hits)
        if len(hits) == 2:
            assert hits[1] == hits[0] + 1


def test_zeta_normalization():
    for d in (4, 5):
        for K in range(1, 11):
            for n in range(1, 65):
                total = sum(z ** 2 for z in C.zeta_table(d, n, K).values())
                assert abs(total - 1.0) < 1e-12, (d, K, n)


def test_zeta_selection_rules():
    assert C.zeta(4, 5, (3, 1), K=4) == 0.0          # k_2 != 0
    assert C.zeta(4, 5, (3, 0), K=4) == 0.0          # K_n - k_1 odd
    assert C.zeta(4, 5, (2, 0), K=4) != 0.0
    assert C.zeta(5, 6, (5, 0, 0), K=4) == 0.0       # k_1 > K_n
    with pytest.raises(ParameterError):
        C.zeta(3, 2, (1,), K=2)


def test_wavelet_spec_structure():
    spec = C.wavelet_spec(4, 4, 5, "kappa1")
    assert F.steerable_order(spec) == 4
    assert F.invariance_order(spec) == 2  # d - 2
    assert [s.bandwidth for s in spec.scales] == [0, 2, 4, 8, 16, 32]
    sigma = F.sigma_profile(spec, 2 ** 4)
    assert np.all(sigma[: 2 ** 4 + 1] > 0)
    # declared support brackets the observed one
    for s in spec.scales[1:]:
        lo, hi = oracle.support(s)
        assert lo >= max(1, 2 ** (s.j - 2))
        assert hi <= 2 ** s.j
    # kappa2 windows attain the closed band edges exactly
    spec2 = C.wavelet_spec(4, 4, 5, "kappa2")
    for s in spec2.scales[1:]:
        lo, hi = oracle.support(s)
        assert lo == max(1, 2 ** (s.j - 2))
        assert hi == 2 ** s.j


def test_wavelet_spec_rejects_d3():
    with pytest.raises(ParameterError):
        C.wavelet_spec(3, 2, 3)


def test_zonal_spec_parseval_and_tags():
    spec = C.zonal_spec(3, 5, "kappa1")
    assert F.invariance_order(spec) == 2  # d - 1
    assert F.steerable_order(spec) == 0
    sigma = F.sigma_profile(spec, 16)
    assert np.max(np.abs(sigma - 1.0)) < 1e-13


def test_make_g0_contract():
    for d in (3, 4, 5, 6):
        g = C.make_g0(d)
        assert np.array_equal(g @ np.eye(d)[:, 0], np.eye(d)[:, d - 2])
        assert np.array_equal(g @ np.eye(d)[:, 1], np.eye(d)[:, d - 1])
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(g @ g.T - np.eye(d))) < 1e-15


def test_curvelet_sigma_per_scale():
    spec = C.curvelet_spec(4, 4)
    for s in spec.scales[1:]:
        by_degree = {}
        for (n, _), c in s.coeffs.items():
            by_degree[n] = by_degree.get(n, 0.0) + abs(c) ** 2
        for n, energy in by_degree.items():
            assert energy == pytest.approx(C.kappa1(4, s.j, n) ** 2, rel=1e-12)


def test_curvelet_closed_form_matches_expansion():
    rng = np.random.default_rng(0)
    for d in (3, 4):
        spec = C.curvelet_spec(d, 4)
        base = np.asarray(spec.base_rotation)
        for j in (2, 3, 4):
            ev = H.ExpansionEvaluator(d, spec.scales[j].coeffs)
            for _ in range(6):
                x = rng.standard_normal(d)
                x /= np.linalg.norm(x)
                closed = oracle.curvelet_eval_closed(d, j, x)
                via_table = ev.eval_cartesian((x @ base)[None])[0]
                assert abs(closed - via_table) < 1e-10


def test_curvelet_great_circle_profile():
    # on the circle spanned by the last two axes the value is a pure cosine sum
    d, j = 4, 3
    spec = C.curvelet_spec(d, j)
    for tau in (0.0, 0.3, 2.0):
        x = np.zeros(d)
        x[d - 2] = math.sin(tau)
        x[d - 1] = math.cos(tau)
        want = math.sqrt(2.0) * sum(
            C.kappa1(d, j, n)
            * math.exp(__import__("sphereframe").log_norm_A(d, n, (n,) * (d - 3) + (n,)))
            * math.cos(n * tau)
            for n in range(1, 2 ** j + 1) if C.kappa1(d, j, n) != 0.0)
        assert oracle.curvelet_eval_closed(d, j, x) == pytest.approx(want, rel=1e-12)


def test_curvelet_steerable_order_grows_with_bandwidth():
    # coefficients sit at k_1 = n; the top populated degree is N_J - 1 since
    # the kappa1 filter vanishes exactly at the closed band edge
    spec = C.curvelet_spec(4, 3)
    assert F.steerable_order(spec) == 7


def test_polar_sample_contracts():
    spec = C.wavelet_spec(4, 4, 5, "kappa1")
    grid = C.polar_sample(spec, 4, t_res=48, phi_res=48)
    assert np.max(np.abs(grid.values)) == pytest.approx(1.0, abs=1e-12)
    assert grid.values.shape == (48, 48)
    # independence of the eta'' choice
    other = C.polar_sample(spec, 4, t_res=48, phi_res=48,
                           eta_dprime=np.array([0.6, 0.8]))
    assert np.max(np.abs(grid.values - other.values)) < 1e-10
    # reflection symmetry in phi
    vals = grid.values
    assert np.max(np.abs(vals[:, 1:] - vals[:, :0:-1])) < 1e-10


def test_polar_sample_rejects_d3():
    spec = C.zonal_spec(3, 2)
    with pytest.raises(ParameterError):
        C.polar_sample(spec, 1)
