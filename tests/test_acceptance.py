"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantity (run with -s to see them).

Window choices: criteria that need the profile positive on the full closed
band 0..2^J (frame/dual certification, full-bandwidth reconstruction) use the
sine windows, which are positive at the dyadic band edges; the smooth-bump
windows vanish exactly at n = 2^j, leaving sigma = 0 at the top degree.

Scale choice for criterion 9: the N^-2 law is measured on four consecutive
scales starting at the first j >= 4 whose support begins at a degree >= the
steerability order K.  Below K the directionality components alternate
parity, so adjacent degrees share no index and a scale whose band starts
there is still pre-asymptotic (j = 4 at K = 9); that mechanism is pinned by
test_diagnostics.py::test_zeta_parity_decouples_degrees_below_K.
"""

import math
import time

import numpy as np
import pytest

import oracle
from sphereframe import constructions as C
from sphereframe import diagnostics as D
from sphereframe import frames as F
from sphereframe import harmonics as H
from sphereframe import quadrature as Q
from sphereframe import specfun as S


def report(criterion, ok, detail):
    # the project pytest config replays passed-test output (-rP), so these
    # lines land in plain `pytest` logs as well
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {tag}: {detail}")
    return ok


# -- 1: special functions ------------------------------------------------------

def test_criterion_01_special_functions():
    t0 = time.time()
    worst_rel = 0.0
    for lam in (0.5, 1.0, 1.5, 3.0):
        table = S.gegenbauer_table(lam, 64, 1.0)
        for n in range(65):
            want = math.comb(n + round(2 * lam) - 1, n)
            worst_rel = max(worst_rel, abs(table[n] - want) / want)
    worst_tail = 0.0
    for d in (3, 4, 5):
        for k1 in range(11):
            n = np.arange(max(2, k1 + 1), 10001)
            dq = np.abs(S.Q_d(d, k1, n - 1) - S.Q_d(d, k1, n))
            worst_tail = max(worst_tail, float(np.max(dq * n ** 3)))
    elapsed = time.time() - t0
    ok = worst_rel < 1e-12 and worst_tail < 500.0 and elapsed < 1.0
    assert report(1, ok,
                  f"C_n at 1 rel err {worst_rel:.2e} (tol 1e-12); "
                  f"max |dQ| n^3 = {worst_tail:.2f} (bounded); {elapsed:.2f}s")


# -- 2: addition theorem -------------------------------------------------------

def test_criterion_02_addition_theorem():
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst = 0.0
    for d in (3, 4, 5):
        pts = rng.standard_normal((50, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        theta = oracle.cartesian_to_spherical(pts)
        for n in range(21):
            dim = H.dim_harmonic(d, n)
            sums = np.sum(np.abs(H.basis_matrix(d, n, theta)) ** 2, axis=0)
            worst = max(worst, float(np.max(np.abs(sums - dim))) / dim)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(2, ok, f"max rel defect {worst:.2e} (tol 1e-10); {elapsed:.1f}s")


# -- 3: quadrature exactness ---------------------------------------------------

def test_criterion_03_quadrature_exactness():
    t0 = time.time()
    worst_sphere = 0.0
    for d in (3, 4):
        rule = Q.sphere_rule(d, 8)
        rows = np.vstack([H.basis_matrix(d, n, rule.angles) for n in range(9)])
        gram = (rows * rule.weights) @ rows.conj().T
        worst_sphere = max(worst_sphere,
                           float(np.max(np.abs(gram - np.eye(rows.shape[0])))))
    grid = Q.rotation_rule(4, 3, "general")
    sphere = Q.sphere_rule(4, 3)
    rows = []
    expected_diag = []
    for n in range(4):
        blocks = oracle.matrix_function_block(4, n, grid.rotations, sphere)
        dim = blocks.shape[1]
        rows.append(blocks.reshape(len(grid), dim * dim).T)
        expected_diag.extend([1.0 / dim] * (dim * dim))
    T = np.vstack(rows)
    gram = (T * grid.weights) @ T.conj().T
    worst_rot = float(np.max(np.abs(gram - np.diag(expected_diag))))
    elapsed = time.time() - t0
    ok = worst_sphere < 1e-12 and worst_rot < 1e-10 and elapsed < 120.0
    assert report(3, ok,
                  f"sphere Gram defect {worst_sphere:.2e} (tol 1e-12); "
                  f"matrix-function Gram defect {worst_rot:.2e} (tol 1e-10) "
                  f"over {len(grid)} rotations; {elapsed:.1f}s")


# -- 4: frame bounds and canonical dual ----------------------------------------

def test_criterion_04_frame_and_dual():
    t0 = time.time()
    spec = C.wavelet_spec(4, 4, 8, "kappa2")
    sigma = F.sigma_profile(spec, 256)
    dual = F.canonical_dual(spec, n_max=256)
    residual = float(np.max(F.dual_residuals(spec, dual, 256)))
    elapsed = time.time() - t0
    ok = bool(np.all(sigma > 0)) and residual < 1e-12 and elapsed < 30.0
    assert report(4, ok,
                  f"sigma in [{sigma.min():.3e}, {sigma.max():.3e}] on 0..256, "
                  f"all positive; dual residual {residual:.2e} (tol 1e-12); "
                  f"{elapsed:.1f}s")


# -- shared system for criteria 5 and 6 (d = 4) --------------------------------

@pytest.fixture(scope="module")
def wavelet_system_d4():
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    system = F.build_system(spec)
    assert system.variant == "steerable_so_d2"
    return spec, system


# -- 5: Parseval bridge ---------------------------------------------------------

def test_criterion_05_parseval_bridge(wavelet_system_d4):
    t0 = time.time()
    spec, system = wavelet_system_d4
    worst = 0.0
    for seed in (50, 51):
        f = F.random_signal(4, 8, seed=seed)
        gap = F.parseval_check(system, f)
        worst = max(worst, gap.rel_gap)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 120.0
    assert report(5, ok, f"max rel gap {worst:.2e} (tol 1e-10) on steerable "
                         f"grids {[len(g) for g in system.grids]}; {elapsed:.1f}s")


# -- 6: reconstruction -----------------------------------------------------------

def _roundtrip_error(spec, system, degree, seed):
    f = F.random_signal(spec.d, degree, seed=seed)
    coeffs = F.analysis(system, f)
    dual = F.canonical_dual(spec, n_max=degree)
    rec = F.synthesis(system, dual, coeffs, degree)
    err_sq = 0.0
    for key in set(f.coeffs) | set(rec.coeffs):
        err_sq += abs(rec.coeffs.get(key, 0.0) - f.coeffs.get(key, 0.0)) ** 2
    return math.sqrt(err_sq / f.norm_sq())


def test_criterion_06_reconstruction(wavelet_system_d4):
    t0 = time.time()
    zonal = C.zonal_spec(3, 4, "kappa2")
    zonal_system = F.build_system(zonal)
    err_d3 = _roundtrip_error(zonal, zonal_system, 16, seed=60)
    spec4, system4 = wavelet_system_d4
    err_d4 = _roundtrip_error(spec4, system4, 8, seed=61)
    elapsed = time.time() - t0
    ok = err_d3 < 1e-9 and err_d4 < 1e-9 and elapsed < 300.0
    assert report(6, ok,
                  f"rel coefficient error d=3 (J=4, N_f=16): {err_d3:.2e}, "
                  f"d=4 (J=3, N_f=8): {err_d4:.2e} (tol 1e-9); {elapsed:.1f}s")


# -- 7: approximation-operator flatness ------------------------------------------

def test_criterion_07_lambda_flatness():
    t0 = time.time()
    spec = C.zonal_spec(3, 8, "kappa1")
    worst = 0.0
    for J in range(1, 9):  # sigma_J is the profile of the scales j <= J
        sigma_J = F.sigma_profile(F.FrameSpec(3, spec.scales[: J + 1]), 2 ** (J - 1))
        worst = max(worst, float(np.max(np.abs(sigma_J - 1.0))))
    elapsed = time.time() - t0
    ok = worst < 1e-12
    assert report(7, ok, f"max |sigma_J - 1| = {worst:.2e} (tol 1e-12) for "
                         f"J <= 8, n <= 2^(J-1); {elapsed:.1f}s")


# -- 8: spectral center of mass vs quadrature ------------------------------------

def center_of_mass_gap(f) -> float:
    """The largest disagreement of the coefficient route and the quadrature
    oracle, over the full vectors."""
    return float(np.max(np.abs(D.center_of_mass(f) - oracle.xi0_numeric_flat(f))))


def test_criterion_08_center_of_mass_cross_validation():
    t0 = time.time()
    spec = C.wavelet_spec(4, 4, 4, "kappa1")
    gap_wavelet = center_of_mass_gap(F.Signal(4, 16, spec.scales[4].coeffs))
    worst_random = 0.0
    for d in (3, 4, 5):
        worst_random = max(worst_random,
                           center_of_mass_gap(F.random_signal(d, 12, seed=80 + d)))
    elapsed = time.time() - t0
    ok = gap_wavelet < 1e-8 and worst_random < 1e-10 and elapsed < 120.0
    assert report(8, ok,
                  f"wavelet gap {gap_wavelet:.2e} (tol 1e-8); random-signal "
                  f"gap {worst_random:.2e} (tol 1e-10, d in 3..5, deg 12); "
                  f"{elapsed:.1f}s")


# -- 9: localization scaling ------------------------------------------------------

@pytest.mark.parametrize("window,K", [("kappa1", 4), ("kappa1", 9),
                                      ("kappa2", 4), ("kappa2", 9)])
def test_criterion_09_localization_scaling(window, K):
    t0 = time.time()
    j0 = 4
    spec = C.wavelet_spec(4, K, j0 + 3, window)
    while oracle.support(spec.scales[j0])[0] < spec.steerable_K:
        j0 += 1
        spec = C.wavelet_spec(4, K, j0 + 3, window)
    scaled = []
    min_product = math.inf
    for rec in D.localization_report(spec, range(j0, j0 + 4)):
        scaled.append(rec.var_space * 4.0 ** rec.j)
        min_product = min(min_product, rec.uncertainty_product)
    ratio = max(scaled) / min(scaled)
    bound_ok = min_product >= 2.25 * (1 - 1e-10)
    elapsed = time.time() - t0
    ok = ratio <= 3.0 and bound_ok and elapsed < 300.0
    assert report(9, ok,
                  f"{window} K={K}: Var_S*4^j over j={j0}..{j0 + 3} = "
                  f"{[f'{v:.1f}' for v in scaled]}, max/min {ratio:.2f} "
                  f"(tol 3); min uncertainty product {min_product:.3f} "
                  f"(bound 2.25); {elapsed:.1f}s")


# -- 10: autocorrelation ------------------------------------------------------------

def test_criterion_10_autocorrelation():
    t0 = time.time()
    rng = np.random.default_rng(100)
    spec = C.wavelet_spec(4, 4, 4, "kappa1")
    worst = 0.0
    for _ in range(10):
        h = Q.embed_rotation(oracle.random_rotation(3, rng), 4)
        s = float(h[2, 2])
        numeric = D.autocorrelation(spec, 4, h)
        closed = D.autocorrelation_closed(spec, 4, s)
        worst = max(worst, abs(numeric - closed))
    zonal = C.zonal_spec(4, 3)
    base = D.autocorrelation(zonal, 3, np.eye(4))
    worst_zonal = 0.0
    for _ in range(5):
        h = Q.embed_rotation(oracle.random_rotation(3, rng), 4)
        worst_zonal = max(worst_zonal,
                          abs(D.autocorrelation(zonal, 3, h) - base))
    worst_zonal /= abs(base)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and worst_zonal < 1e-12
    assert report(10, ok,
                  f"closed vs quadrature gap {worst:.2e} (tol 1e-8) at 10 "
                  f"random h; zonal drift {worst_zonal:.2e} (tol 1e-12); "
                  f"{elapsed:.1f}s")


# -- 11: curvelet consistency --------------------------------------------------------

def test_criterion_11_curvelet_consistency():
    t0 = time.time()
    rng = np.random.default_rng(110)
    spec = C.curvelet_spec(4, 5)
    base = np.asarray(spec.base_rotation)
    worst = 0.0
    for j in range(1, 6):
        ev = H.ExpansionEvaluator(4, spec.scales[j].coeffs)
        pts = rng.standard_normal((20, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        via_table = ev.eval_cartesian(pts @ base)
        closed = np.array([oracle.curvelet_eval_closed(4, j, x) for x in pts])
        worst = max(worst, float(np.max(np.abs(via_table - closed))))
    sigma_gap = 0.0
    for s in spec.scales[1:]:
        by_degree = {}
        for (n, _), c in s.coeffs.items():
            by_degree[n] = by_degree.get(n, 0.0) + abs(c) ** 2
        for n, energy in by_degree.items():
            want = C.kappa1(4, s.j, n) ** 2
            sigma_gap = max(sigma_gap, abs(energy - want) / want)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and sigma_gap < 1e-12
    assert report(11, ok,
                  f"closed vs rotated-expansion gap {worst:.2e} (tol 1e-10) "
                  f"at 20 points, j <= 5; per-scale energy defect "
                  f"{sigma_gap:.2e}; {elapsed:.1f}s")


# -- 12: figure grids ------------------------------------------------------------------

def test_criterion_12_figure_grids():
    t0 = time.time()
    res = 256
    worst_eta = 0.0
    worst_sym = 0.0
    worst_peak = 0.0
    alt = np.array([0.6, 0.8])
    specs = [C.wavelet_spec(4, K, 7, "kappa1") for K in (4, 9)]
    specs.append(C.curvelet_spec(4, 7))
    for spec in specs:
        for j in (5, 6, 7):
            grid = C.polar_sample(spec, j, t_res=res, phi_res=res)
            other = C.polar_sample(spec, j, t_res=res, phi_res=res,
                                   eta_dprime=alt)
            worst_peak = max(worst_peak,
                             abs(float(np.max(np.abs(grid.values))) - 1.0))
            worst_eta = max(worst_eta,
                            float(np.max(np.abs(grid.values - other.values))))
            v = grid.values
            worst_sym = max(worst_sym,
                            float(np.max(np.abs(v[:, 1:] - v[:, :0:-1]))))
    elapsed = time.time() - t0
    ok = (worst_peak < 1e-12 and worst_eta < 1e-10 and worst_sym < 1e-10
          and elapsed < 600.0)
    assert report(12, ok,
                  f"max-after-rescale defect {worst_peak:.1e}; eta'' "
                  f"independence {worst_eta:.2e} (tol 1e-10); phi-reflection "
                  f"symmetry {worst_sym:.2e} (tol 1e-10); {res}x{res} grids "
                  f"for wavelets K in (4,9) and curvelets, j in 5..7; "
                  f"{elapsed:.1f}s")
