"""Example generators: smooth windows, dyadic band filters, directionality
components, directional wavelet / curvelet coefficient tables, and the polar
sampling used for figures.

The window pair (phi, kappa) is twice but not three times continuously
differentiable; kappa is supported on [1/2, 2] and its dyadic dilates form a
partition of unity in the square, which is what makes the induced band
filters telescope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .frames import FrameSpec, Scale
from .harmonics import ExpansionEvaluator, dim_harmonic
from .quadrature import capped_power, check_cap
from .specfun import validate_multi_index


def phi(t):
    """Non-increasing C^2 bump: 1 on [0, 1/2], 16(1-t)^3(12t^2-9t+2) on
    [1/2, 1], 0 beyond."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ParameterError("phi is defined for t >= 0")
    out = np.zeros_like(t_arr)
    out[t_arr < 0.5] = 1.0
    mid = (t_arr >= 0.5) & (t_arr <= 1.0)
    tm = t_arr[mid]
    out[mid] = 16.0 * (1.0 - tm) ** 3 * (12.0 * tm * tm - 9.0 * tm + 2.0)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def kappa(t):
    """sqrt(phi^2(t/2) - phi^2(t)); supported on [1/2, 2].

    Rounding can leave the radicand a hair below zero near the knots; that
    residue is clamped.  A radicand clearly below zero would mean the outer
    window is not non-increasing, which warrants a warning.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    radicand = phi(t_arr / 2.0) ** 2 - phi(t_arr) ** 2
    if np.any(radicand < -1e-12):
        warnings.warn("window radicand is negative beyond rounding; "
                      "the outer window is not non-increasing", stacklevel=2)
    out = np.sqrt(np.clip(radicand, 0.0, None))
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def _band_filter(d: int, j: int, n, shape):
    """2^{j(d-2)/2} shape(n), a float for a scalar n; scales j >= 1 only."""
    if j < 1:
        raise ParameterError("band filters are defined for scales j >= 1")
    try:
        amplitude = 2.0 ** (j * (d - 2) / 2.0)
    except OverflowError:
        raise ParameterError(f"band filter amplitude 2^{j * (d - 2) / 2.0:g} of scale {j} "
                             f"is past the float range") from None
    out = amplitude * shape(np.asarray(n, dtype=float))
    return float(out) if np.ndim(n) == 0 else out


def kappa1(d: int, j: int, n):
    """Band filter 2^{j(d-2)/2} kappa(n / 2^{j-1}); zero outside [2^{j-2}, 2^j]."""
    return _band_filter(d, j, n, lambda t: kappa(t / 2.0 ** (j - 1)))


def kappa2(d: int, j: int, n):
    """Sine band filter 2^{j(d-2)/2} sin(pi (n+1-2^{j-2}) / (3*2^{j-2}+2)) on
    the closed band [2^{j-2}, 2^j]; positive at both integer endpoints."""
    lo = 2.0 ** (j - 2)
    return _band_filter(d, j, n, lambda t: np.where(
        (t >= lo) & (t <= 2.0 ** j), np.sin(math.pi * (t + 1.0 - lo) / (3.0 * lo + 2.0)), 0.0))


_WINDOWS = {"kappa1": kappa1, "kappa2": kappa2}


def zeta(d: int, n: int, k, K: int) -> float:
    """Directionality component for d >= 4.

    Supported on indices with k_2 = 0, k_1 <= K_n = min(K, n), and K_n - k_1
    even; the value is a signed square root of a Gamma-ratio product,
    evaluated in the log domain.  The squares over a degree sum to one.
    """
    if d < 4:
        raise ParameterError(
            "directionality components are built in only for d >= 4; "
            "supply an external table for d = 3")
    k = validate_multi_index(d, n, k)
    if K < 0:
        raise ParameterError("steerability order K must be nonnegative")
    if k[1] != 0:
        return 0.0
    k1 = k[0]
    kn = min(K, n)
    if k1 > kn or (kn - k1) % 2 == 1:
        return 0.0
    lam = (d - 3) / 2.0
    log_sq = (math.lgamma(lam) + math.lgamma(kn + 1) + math.log(k1 + lam)
              + math.lgamma(d + k1 - 3)
              - math.lgamma(2 * lam) - kn * math.log(2.0)
              - math.lgamma((kn - k1) / 2 + 1)
              - math.lgamma(lam + (kn + k1) / 2 + 1) - math.lgamma(k1 + 1))
    return (-1.0) ** (k1 // 2) * math.exp(0.5 * log_sq)


def zeta_table(d: int, n: int, K: int) -> dict:
    """The nonzero directionality components of degree n, keyed by index."""
    table = {}
    tail = (0,) * (d - 3)
    kn = min(K, n)
    for k1 in range(kn % 2, kn + 1, 2):
        k = (k1,) + tail
        value = zeta(d, n, k, K)
        if value != 0.0:
            table[k] = value
    return table


def _dyadic_scales(d: int, J: int, window: str, component) -> list:
    """Scales 0..J of every builder: scale 0 is the constant, and scale j has
    bandwidth 2^j and, at each degree n of ceil(2^{j-2})..2^j (where the band
    filters live) with w = window(d, j, n) nonzero, the coefficients
    `component(j, n, w)`, keyed by k.  J is checked, and its 2^{J+1} - 1
    degrees capped, before the window is looked up.  Scales 1..J come
    first, so a band filter refuses a dimension whose amplitude is past the
    float range before scale 0's key of d - 2 zeros is formed; that key's
    length is checked against the node cap before it is formed."""
    if J < 0:
        raise ParameterError("J must be nonnegative")
    check_cap(capped_power(2, J + 1, f"scales 0..{J}") - 1, f"scales 0..{J}")
    if window not in _WINDOWS:
        raise ParameterError(f"unknown window kind {window!r}")
    scales = []
    for j in range(1, J + 1):
        coeffs = {}
        for n in range(max(1, math.ceil(2.0 ** (j - 2))), 2 ** j + 1):
            w = _WINDOWS[window](d, j, n)
            if w != 0.0:
                coeffs.update({(n, k): c for k, c in component(j, n, w).items()})
        scales.append(Scale(j, 2 ** j, coeffs))
    check_cap(d - 2, "scale 0's key of d - 2 labels")
    return [Scale(0, 0, {(0, (0,) * (d - 2)): 1.0 + 0.0j})] + scales


def wavelet_spec(d: int, K: int, J: int, window: str = "kappa1") -> FrameSpec:
    """Directional wavelet table: scale 0 is the constant, scale j >= 1 has
    coefficients (band filter at n) x (directionality component at k).

    The result is K-steerable and invariant under the subgroup fixing the
    last two axes.
    """
    if d < 4:
        raise ParameterError(
            "wavelet tables need the built-in directionality components (d >= 4); "
            "for d = 3 load an externally supplied table instead")
    if K < 0:
        raise ParameterError(f"K must be nonnegative, got {K}")
    scales = _dyadic_scales(d, J, window, lambda j, n, w: {
        k: complex(w * z) for k, z in zeta_table(d, n, K).items()})
    return FrameSpec(d, scales, steerable_K=K, invariant_m=d - 2)


def zonal_spec(d: int, J: int, window: str = "kappa1") -> FrameSpec:
    """Zonal table: only k = 0 coefficients, weighted by sqrt(dim H_n^d).

    With the kappa1 window the squared filters telescope, giving sigma_n = 1
    for 1 <= n <= 2^{J-1} (a Parseval frame on that range).
    """
    # bare window, without the 2^{j(d-2)/2} amplitude of the band filters
    scales = _dyadic_scales(d, J, window, lambda j, n, w: {
        (0,) * (d - 2): complex(w * 2.0 ** (-j * (d - 2) / 2.0)
                                * math.sqrt(dim_harmonic(d, n)))})
    return FrameSpec(d, scales, steerable_K=0, invariant_m=d - 1)


def make_g0(d: int) -> np.ndarray:
    """Signed permutation with g0 e^1 = e^{d-1}, g0 e^2 = e^d, e^i -> e^{i-2};
    the image of e^3 is negated if that is ever needed for det +1."""
    if d < 3:
        raise ParameterError(f"dimension must be at least 3, got d={d}")
    g = np.zeros((d, d))
    g[d - 2, 0] = 1.0
    g[d - 1, 1] = 1.0
    for i in range(3, d + 1):
        g[i - 3, i - 1] = 1.0
    if np.linalg.det(g) < 0:
        g[:, 2] = -g[:, 2]
    return g


def curvelet_spec(d: int, J: int) -> FrameSpec:
    """Curvelet table: per degree the two extreme indices (n, ..., n, +-n),
    each weighted by (band filter)/sqrt(2), stored pre-rotation with the
    axis-moving rotation g0 attached as metadata."""
    def extremes(j, n, w):
        head = (n,) * (d - 3)
        return dict.fromkeys((head + (n,), head + (-n,)), complex(w / math.sqrt(2.0)))
    return FrameSpec(d, _dyadic_scales(d, J, "kappa1", extremes), steerable_K=None,
                     invariant_m=d - 2, base_rotation=make_g0(d))


@dataclass
class PolarGrid:
    """Polar samples psi(t, phi) on [0, t_max] x [0, 2 pi), rescaled so the
    largest magnitude is 1; `scale` is the magnitude divided out."""
    t: np.ndarray
    phi: np.ndarray
    values: np.ndarray  # (len(t), len(phi)), real
    scale: float


def polar_sample(spec: FrameSpec, j: int, t_res: int = 256, phi_res: int = 256,
                 t_max: float = 1.0, eta_dprime=None) -> PolarGrid:
    """Sample scale j along geodesics leaving the pole.

    The sampled point is cos(t) e^d + sin(t) (cos(phi) e^{d-1} + sin(phi) v)
    where v embeds eta'' in the coordinates orthogonal to e^{d-1} and e^d.
    For tables invariant under the subgroup fixing those two axes the grid
    does not depend on the choice of eta''.  Without a base rotation the grid
    is one `eval_polar` product of the t axis and the directions
    cos(phi) e^{d-1} + sin(phi) v; a base rotation moves every point off that
    split, so such specs are evaluated point by point.
    """
    d = spec.d
    if d < 4:
        raise ParameterError("polar sampling needs d >= 4")
    scale = spec.scale(j)
    if eta_dprime is None:
        eta_dprime = np.zeros(d - 2)
        eta_dprime[-1] = 1.0
    eta_dprime = np.asarray(eta_dprime, dtype=float)
    if eta_dprime.shape != (d - 2,) or not abs(np.linalg.norm(eta_dprime) - 1.0) <= 1e-8:
        raise ParameterError("eta'' must be a unit vector of length d-2")
    check_cap(t_res * phi_res, "polar sample")
    v = np.zeros(d)
    v[: d - 2] = eta_dprime
    t = np.linspace(0.0, t_max, t_res)
    ph = np.linspace(0.0, 2.0 * math.pi, phi_res, endpoint=False)
    side = np.zeros(d)
    side[d - 2] = 1.0
    u = np.cos(ph)[:, None] * side + np.sin(ph)[:, None] * v  # last coordinate 0
    ev = ExpansionEvaluator(d, scale.coeffs)
    if spec.base_rotation is None:
        vals = ev.eval_polar(t, u[:, : d - 1])
    else:
        pole = np.zeros(d)
        pole[d - 1] = 1.0
        pts = np.cos(t)[:, None, None] * pole + np.sin(t)[:, None, None] * u
        flat = pts.reshape(-1, d) @ np.asarray(spec.base_rotation, dtype=float)
        vals = ev.eval_cartesian(flat)
    vals = np.real(vals).reshape(t_res, phi_res)
    peak = float(np.max(np.abs(vals)))
    factor = peak if peak > 0 else 1.0
    return PolarGrid(t, ph, vals / factor, factor)
