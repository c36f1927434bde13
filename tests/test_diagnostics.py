import math
import tracemalloc

import numpy as np
import pytest

import oracle
from sphereframe import constructions as C
from sphereframe import diagnostics as D
from sphereframe import frames as F
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe.errors import (CapacityError, DegenerateSignalError, IndexSetError,
                                ParameterError, TableShapeError)
from sphereframe.specfun import Q_d


def test_steerable_order_cases():
    assert F.steerable_order(C.zonal_spec(3, 3)) == 0
    assert F.steerable_order(C.wavelet_spec(4, 4, 4)) == 4
    assert F.steerable_order(C.wavelet_spec(4, 9, 5)) == 9
    assert F.steerable_order(F.FrameSpec(4, [F.Scale(0, 0, {})])) is None


def test_invariance_order_cases():
    assert F.invariance_order(C.zonal_spec(4, 3)) == 3      # d - 1
    assert F.invariance_order(C.wavelet_spec(4, 4, 4)) == 2  # d - 2
    mixed = F.FrameSpec(5, [F.Scale(0, 3, {(3, (2, 1, 1)): 1.0})])
    assert F.invariance_order(mixed) is None
    part = F.FrameSpec(5, [F.Scale(0, 3, {(3, (2, 1, 0)): 1.0})])
    assert F.invariance_order(part) == 2


def test_xi0_spectral_single_degree_is_zero():
    # x_d couples adjacent degrees only, and the plane generators keep the degree
    f = F.Signal(4, 3, {(3, k): 1.0 + 0.5j for k in H.index_set(4, 3)})
    assert np.array_equal(D.center_of_mass(f), np.zeros(4))


def test_xi0_spectral_two_degree_example():
    for d in (3, 4, 5):
        zero_k = (0,) * (d - 2)
        f = F.Signal(d, 1, {(0, zero_k): 1.0, (1, zero_k): 1.0})
        got = D.center_of_mass(f)[-1] * f.norm_sq()
        assert got == pytest.approx(2.0 * Q_d(d, 0, 0), rel=1e-14)


def test_xi0_spectral_rejects_zero_signal():
    with pytest.raises(DegenerateSignalError):
        D.center_of_mass(F.Signal(3, 2, {}))
    with pytest.raises(DegenerateSignalError):
        D.center_of_mass(F.Signal(4, 2, {(1, (0, 0)): 0.0}))


def test_xi0_numeric_constant_is_zero_vector():
    f = F.Signal(4, 0, {(0, (0, 0)): 2.0})
    assert np.max(np.abs(D.center_of_mass(f))) < 1e-14


def test_xi0_routes_agree_on_random_signals():
    # the coefficient route against the quadrature oracle, full vectors
    for d in (3, 4, 5, 6):
        for seed in (0, 1):
            f = F.random_signal(d, 8 if d < 6 else 4, seed=seed)
            assert np.max(np.abs(D.center_of_mass(f) - oracle.xi0_numeric_flat(f))) < 1e-14


def test_xi0_polar_split_matches_the_flat_rule_without_theta1():
    # without theta_1 every table that applies plane 1 or 2 shares no key with
    # one that does not, so the first two components are exactly zero
    for d in (3, 4, 5):
        coeffs = {key: c for key, c in F.random_signal(d, 7, seed=d).coeffs.items()
                  if key[1][-1] == 0}
        f = F.Signal(d, 7, coeffs)
        xi = D.center_of_mass(f)
        assert np.array_equal(xi[:2], [0.0, 0.0])
        assert np.max(np.abs(xi - oracle.xi0_numeric_flat(f))) < 1e-14


def test_xi0_spectral_is_the_sum_of_one_scalar_coupling_per_pair():
    # the array couplings equal scalar Q_d calls, summed in the same order
    for d in (3, 4, 5):
        f = F.random_signal(d, 9, seed=d)
        total = 0.0 + 0.0j
        for (n, k), c in f.coeffs.items():
            up = f.coeffs.get((n + 1, k))
            if up is not None:
                total += c * np.conj(up) * Q_d(d, k[0], n)
            if n >= 1:
                down = f.coeffs.get((n - 1, k))
                if down is not None:
                    total += c * np.conj(down) * Q_d(d, k[0], n - 1)
        assert D.center_of_mass(f)[-1] == float(total.real) / f.norm_sq()


def test_center_of_mass_rejects_an_invalid_multi_index():
    with pytest.raises(IndexSetError):
        D.center_of_mass(F.Signal(4, 2, {(2, (0, 0)): 1.0, (2, (1, 2)): 1.0}))


def test_center_of_mass_caps_its_tables_before_allocation(monkeypatch):
    # 2^23 tables X_S f, each of at most dim H_2^24 = 299 entries
    f = F.Signal(24, 2, {(2, (2,) + (0,) * 21): 1.0})
    count = 2 ** 23 * 299
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"center of mass would hold {count} nodes"):
            D.center_of_mass(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    # d = 4, one coefficient each at degrees 3 and 4: 8 tables of at most
    # 8 * 2 entries, fewer than dim H_3^4 + dim H_4^4 = 41
    f = F.Signal(4, 4, {(3, (1, 1)): 1.0, (4, (1, 1)): 0.5})
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(8 * 16 - 1))
    with pytest.raises(CapacityError, match="center of mass would hold 128 nodes"):
        D.center_of_mass(f)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(8 * 16))
    assert D.center_of_mass(f).shape == (4,)


def test_wavelet_center_of_mass_points_at_pole():
    spec = C.wavelet_spec(4, 4, 4, "kappa1")
    f = F.Signal(4, 16, spec.scales[4].coeffs)
    xi = D.center_of_mass(f)
    assert xi[-1] > 0.8
    assert np.max(np.abs(xi[:-1])) < 1e-12


@pytest.mark.parametrize("j", [0, 1])
def test_a_center_of_mass_zero_up_to_rounding_has_no_variance(j):
    # |xi| is about 5e-17 at j = 0 and 3e-16 at j = 1; 1/|xi|^2 would be noise
    spec = C.wavelet_spec(4, 4, 7, "kappa1")
    (r,) = D.localization_report(spec, [j])
    assert r.j == j and r.var_space is None and r.uncertainty_product is None
    assert np.linalg.norm(r.xi0_vec) <= 1e-12
    assert r.var_space_upper is None
    assert r.var_momentum == D.var_momentum(F.Signal(4, r.bandwidth, spec.scales[j].coeffs))
    # the next scale has a center of mass and keeps its value
    (defined,) = D.localization_report(spec, [2])
    assert defined.var_space > 0 and defined.uncertainty_product >= 2.25


@pytest.mark.parametrize("d,J", [(4, 5), (5, 2)])
def test_a_polar_component_zero_up_to_rounding_has_no_upper_bound(d, J):
    # curvelet scale 1 has xi_d about 1e-17; (1 - xi_d^2) / xi_d^2 would be noise
    (r,) = D.localization_report(C.curvelet_spec(d, J), [1])
    assert abs(r.xi0_d) <= 1e-12 and r.var_space_upper is None


@pytest.mark.parametrize("spec", [C.wavelet_spec(4, 4, 7, "kappa1"), C.zonal_spec(3, 5, "kappa2"),
                                  C.curvelet_spec(4, 5), C.curvelet_spec(5, 2)],
                         ids=["w7", "z5", "c5", "c52"])
def test_localization_report_defaults_to_every_scale(spec):
    records = D.localization_report(spec)
    assert [r.j for r in records] == [s.j for s in spec.scales]
    assert records[0].var_space is None and records[0].uncertainty_product is None
    assert [r.var_momentum for r in records] == [
        r.var_momentum for r in D.localization_report(spec, range(len(spec.scales)))]


def localization(f):
    """The localization record of a signal wrapped as a one-scale spec."""
    spec = F.FrameSpec(f.d, [F.Scale(0, f.degree, f.coeffs)])
    return D.localization_report(spec)[0]


def test_var_space_upper_dominates_exact():
    for seed in range(3):
        rec = localization(F.random_signal(4, 5, seed=seed))
        assert rec.var_space_upper >= rec.var_space > 0


def test_var_space_invariant_under_global_phase():
    f = F.random_signal(4, 5, seed=9)
    g = F.Signal(4, 5, {k: np.exp(0.7j) * c for k, c in f.coeffs.items()})
    assert localization(g).var_space == pytest.approx(localization(f).var_space,
                                                      rel=1e-10)


def test_var_momentum_values():
    assert D.var_momentum(F.Signal(4, 0, {(0, (0, 0)): 3.0})) == 0.0
    for d, n in ((3, 4), (4, 6)):
        k = H.index_set(d, n)[0]
        f = F.Signal(d, n, {(n, k): 1.0})
        assert D.var_momentum(f) == pytest.approx(n * (n + d - 2), rel=1e-14)
    f = F.random_signal(4, 7, seed=1)
    assert D.var_momentum(f) <= 7 * (7 + 2)


def test_var_momentum_rotation_invariance():
    rng = np.random.default_rng(4)
    d, n = 4, 3
    rule = Q.sphere_rule(d, n)
    f = F.random_signal(d, n, seed=2)
    g = oracle.random_rotation(d, rng)
    ev = H.ExpansionEvaluator(d, f.coeffs)
    vals = ev.eval_angles(oracle.cartesian_to_spherical(rule.points @ g))
    rotated = {}
    for m in range(n + 1):
        proj = np.conj(H.basis_matrix(d, m, rule.angles)) @ (rule.weights * vals)
        for i, k in enumerate(H.index_set(d, m)):
            rotated[(m, k)] = proj[i]
    fr = F.Signal(d, n, rotated)
    assert D.var_momentum(fr) == pytest.approx(D.var_momentum(f), rel=1e-10)


def test_uncertainty_product_lower_bound():
    for d in (3, 4, 5):
        bound = (d - 1) ** 2 / 4.0
        for seed in range(3):
            rec = localization(F.random_signal(d, 6, seed=seed))
            assert rec.uncertainty_product >= bound * (1 - 1e-10)


def test_zeta_parity_decouples_degrees_below_K():
    # Below the steerability order K the directionality components alternate
    # parity, so adjacent degrees share no index and contribute nothing to
    # the spectral center of mass.  A scale whose band starts below K is
    # therefore pre-asymptotic, which is why criterion 9 measures the N^-2 law
    # only from the first scale supported at degrees >= K.
    for K in (4, 9):
        for n in range(2 * K + 2):
            shared = set(C.zeta_table(4, n, K)) & set(C.zeta_table(4, n + 1, K))
            assert (not shared) == (n < K), (K, n)
    K = 9
    for window in ("kappa1", "kappa2"):
        spec = C.wavelet_spec(4, K, 6, window)
        band = spec.scales[4]
        full = F.Signal(4, band.bandwidth, band.coeffs)
        upper = F.Signal(4, band.bandwidth, {
            (n, k): c for (n, k), c in band.coeffs.items() if n >= K})
        assert D.center_of_mass(upper)[-1] * upper.norm_sq() == pytest.approx(
            D.center_of_mass(full)[-1] * full.norm_sq(), rel=1e-12)
        j0 = min(j for j in range(4, 7) if oracle.support(spec.scales[j])[0] >= K)
        scaled = {r.j: r.var_space * 4.0 ** r.j
                  for r in D.localization_report(spec, [4, j0])}
        assert scaled[4] > 3.0 * scaled[j0], (window, scaled)


def test_autocorrelation_identity_gives_energy():
    spec = C.wavelet_spec(4, 3, 3, "kappa1")
    val = D.autocorrelation(spec, 2, np.eye(4))
    assert val == pytest.approx(spec.scales[2].norm_sq(), rel=1e-12)


def test_autocorrelation_zonal_constant_in_h():
    spec = C.zonal_spec(4, 3)
    rng = np.random.default_rng(6)
    base = D.autocorrelation(spec, 2, np.eye(4))
    for _ in range(4):
        h = Q.embed_rotation(oracle.random_rotation(3, rng), 4)
        val = D.autocorrelation(spec, 2, h)
        assert abs(val - base) < 1e-12 * abs(base)


def test_autocorrelation_rejects_pole_moving_rotation():
    spec = C.zonal_spec(4, 2)
    rng = np.random.default_rng(7)
    with pytest.raises(ParameterError):
        D.autocorrelation(spec, 1, oracle.random_rotation(4, rng))


def _pole_fixing(alpha, d=4):
    h = np.eye(d)
    h[d - 3, d - 3] = h[d - 2, d - 2] = math.cos(alpha)
    h[d - 3, d - 2] = -math.sin(alpha)
    h[d - 2, d - 3] = math.sin(alpha)
    return h


def test_autocorrelation_rejects_what_is_not_a_rotation_stack():
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    h = _pole_fixing(0.7)
    h[0, 1] = math.nan
    with pytest.raises(ParameterError, match="not a rotation"):
        D.autocorrelation(spec, 3, h)
    with pytest.raises(ParameterError, match="not a rotation"):
        D.autocorrelation(spec, 3, np.diag([2.0, 2.0, 2.0, 1.0]))  # fixes the pole
    with pytest.raises(ParameterError, match="not a rotation: det h < 0"):
        D.autocorrelation(spec, 3, np.diag([-1.0, 1.0, 1.0, 1.0]))  # a reflection
    with pytest.raises(ParameterError, match="not a rotation: det h < 0"):
        D.autocorrelation(spec, 3, np.stack([_pole_fixing(0.7), np.diag([1.0, -1.0, 1.0, 1.0])]))
    with pytest.raises(ParameterError, match="m >= 1"):
        D.autocorrelation(spec, 3, np.empty((0, 4, 4)))
    with pytest.raises(ParameterError, match=r"shape \(4, 4\)"):
        D.autocorrelation(spec, 3, np.eye(3))


def test_autocorrelation_of_a_stack_matches_one_call_per_rotation():
    # base-rotated curvelet, so the stack also carries g0
    spec = C.curvelet_spec(4, 3)
    rng = np.random.default_rng(10)
    hs = Q.embed_rotation(np.stack([oracle.random_rotation(3, rng) for _ in range(5)]), 4)
    values = D.autocorrelation(spec, 2, hs)
    assert values.shape == (5,)
    for h, value in zip(hs, values):
        single = D.autocorrelation(spec, 2, h)
        assert isinstance(single, complex)
        assert abs(value - single) <= 1e-15 * abs(single)
    with pytest.raises(ParameterError):
        D.autocorrelation(spec, 2, np.stack([hs[0], oracle.random_rotation(4, rng)]))


def test_autocorrelation_caps_its_sweep_before_allocation(monkeypatch):
    # the sweep evaluates the scale at (m + 1) copies of sphere_rule(d, N_j)
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    hs = np.tile(np.eye(4), (50, 1, 1))
    count = 51 * Q.sphere_size(4, spec.scales[3].bandwidth)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(count - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError,
                           match=f"autocorrelation sweep would hold {count} nodes"):
            D.autocorrelation(spec, 3, hs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(count))
    assert D.autocorrelation(spec, 3, hs).shape == (50,)


def test_autocorrelation_closed_matches_numeric():
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    rng = np.random.default_rng(8)
    for _ in range(4):
        h = Q.embed_rotation(oracle.random_rotation(3, rng), 4)
        s = float(h[2, 2])
        closed = D.autocorrelation_closed(spec, 3, s)
        numeric = D.autocorrelation(spec, 3, h)
        assert abs(numeric - closed) < 1e-10 * max(1.0, abs(closed))


def test_autocorrelation_closed_of_an_array_is_the_scalar_calls():
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    s = np.cos(np.linspace(0.0, math.pi, 9)).reshape(3, 3)
    values = D.autocorrelation_closed(spec, 2, s)
    assert values.shape == (3, 3)
    for x, value in zip(s.ravel().tolist(), values.ravel().tolist()):
        assert value == D.autocorrelation_closed(spec, 2, x)
    with pytest.raises(ParameterError, match=r"\[-1, 1\]"):
        D.autocorrelation_closed(spec, 2, [0.5, math.nan])
    with pytest.raises(ParameterError, match=r"\[-1, 1\]"):
        D.autocorrelation_closed(spec, 2, [0.5, 1.5])


@pytest.mark.parametrize("factor", [-1.0, 1j, np.exp(0.3j)])
def test_autocorrelation_closed_takes_a_window_of_any_phase(factor):
    # sum_n |w_n|^2 s^min(K, n) holds for complex w_n; alpha = 0.7 on w3, j = 2
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    scales = [F.Scale(sc.j, sc.bandwidth, {k: factor * c for k, c in sc.coeffs.items()})
              for sc in spec.scales]
    turned = F.FrameSpec(4, scales, spec.steerable_K, spec.invariant_m)
    s = math.cos(0.7)
    assert D.autocorrelation_closed(turned, 2, s) == D.autocorrelation_closed(spec, 2, s)
    numeric = D.autocorrelation(turned, 2, _pole_fixing(0.7))
    assert abs(numeric - D.autocorrelation_closed(turned, 2, s)) < 1e-12 * abs(numeric)


def test_autocorrelation_closed_rejects_curvelet():
    spec = C.curvelet_spec(4, 2)
    with pytest.raises(TableShapeError):
        D.autocorrelation_closed(spec, 2, 0.5)


def test_autocorrelation_depends_on_overlap_only():
    # for the invariant steerable tables the value is a function of
    # <e^{d-1}, h e^{d-1}> alone
    spec = C.wavelet_spec(4, 3, 3, "kappa1")
    rng = np.random.default_rng(9)
    alpha = 1.1
    h1 = np.eye(4)
    h1[1, 1] = h1[2, 2] = math.cos(alpha)
    h1[1, 2] = -math.sin(alpha)
    h1[2, 1] = math.sin(alpha)
    h2 = np.eye(4)
    h2[0, 0] = h2[2, 2] = math.cos(alpha)
    h2[0, 2] = -math.sin(alpha)
    h2[2, 0] = math.sin(alpha)
    v1 = D.autocorrelation(spec, 3, h1)
    v2 = D.autocorrelation(spec, 3, h2)
    assert abs(v1 - v2) < 1e-11 * max(1.0, abs(v1))


def test_var_space_invariant_under_rotations_about_center_axis():
    # for a pole-centered table, rotating by the pole-fixing subgroup leaves
    # the spatial variance unchanged
    rng = np.random.default_rng(13)
    d = 4
    spec = C.wavelet_spec(d, 3, 3, "kappa1")
    f = F.Signal(d, 8, spec.scales[3].coeffs)
    base = localization(f).var_space
    h = Q.embed_rotation(oracle.random_rotation(d - 1, rng), d)
    rule = Q.sphere_rule(d, 8)
    ev = H.ExpansionEvaluator(d, f.coeffs)
    vals = ev.eval_angles(oracle.cartesian_to_spherical(rule.points @ h))
    rotated = {}
    for m in range(9):
        proj = np.conj(H.basis_matrix(d, m, rule.angles)) @ (rule.weights * vals)
        for i, k in enumerate(H.index_set(d, m)):
            if abs(proj[i]) > 1e-14:
                rotated[(m, k)] = proj[i]
    assert localization(F.Signal(d, 8, rotated)).var_space == pytest.approx(
        base, rel=1e-9)


def test_localization_report_curvelet_rotates_center():
    spec = C.curvelet_spec(4, 3)
    rec = D.localization_report(spec, [3])[0]
    assert rec.xi0_d > 0.5  # concentrated at the pole after the base rotation
    assert rec.uncertainty_product >= (4 - 1) ** 2 / 4.0 * (1 - 1e-10)


SCALE_ENTRIES = {
    "localization_report": lambda spec, j: D.localization_report(spec, [1, j]),
    "autocorrelation": lambda spec, j: D.autocorrelation(spec, j, np.eye(4)),
    "autocorrelation_closed": lambda spec, j: D.autocorrelation_closed(spec, j, 0.5),
}


@pytest.mark.parametrize("entry", SCALE_ENTRIES)
@pytest.mark.parametrize("j", [-1, 4])
def test_diagnostics_refuse_a_scale_outside_the_spec(entry, j):
    # a negative index would wrap to the last scale, and 4 would leak IndexError
    with pytest.raises(ParameterError, match=f"scale {j} is outside 0..3"):
        SCALE_ENTRIES[entry](C.wavelet_spec(4, 4, 3, "kappa2"), j)
