"""Command-line front end.

Exit codes: 0 success, 1 validation failure (not a frame, dual residual over
tolerance), 2 input or parse error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import _config, constructions, diagnostics, frames, io, quadrature
from .errors import CapacityError, NotAFrameError, ParameterError, SphereFrameError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _print_sigma_summary(spec, n_max):
    sigma = frames.sigma_profile(spec, n_max)
    zero = np.nonzero(sigma == 0.0)[0]
    print(f"sigma profile on 0..{n_max}: min {sigma.min():.6e}  max {sigma.max():.6e}")
    if zero.size:
        print(f"  zero at degrees: {', '.join(str(int(z)) for z in zero[:12])}"
              + (" ..." if zero.size > 12 else ""))
    step = max(1, (n_max + 1) // 16)
    for n in range(0, n_max + 1, step):
        print(f"  n={n:5d}  sigma={sigma[n]:.12e}")


def cmd_build(args) -> int:
    if args.kind == "wavelet":
        if args.K is None:
            raise SphereFrameError("wavelet build needs --K")
        spec = constructions.wavelet_spec(args.d, args.K, args.J, args.window)
    elif args.kind == "curvelet":
        spec = constructions.curvelet_spec(args.d, args.J)
    elif args.kind == "zonal":
        spec = constructions.zonal_spec(args.d, args.J, args.window)
    else:  # from-file
        if args.input is None:
            raise SphereFrameError("--kind from-file needs --input")
        spec = io.read_spec(args.input)
    io.write_spec(spec, args.out)
    print(f"wrote {args.out}: d={spec.d}, scales 0..{len(spec.scales) - 1}, "
          f"max bandwidth {spec.max_bandwidth()}")
    _print_sigma_summary(spec, spec.max_bandwidth())
    return EXIT_OK


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ParameterError(message)


def cmd_check(args) -> int:
    _require(args.n_max >= 0, f"--n-max must be nonnegative, got {args.n_max}")
    _require(math.isfinite(args.tol) and args.tol >= 0,
             f"--tol must be nonnegative and finite, got {args.tol}")
    spec = io.read_spec(args.spec)
    bounds = frames.frame_bounds(spec, args.n_max)
    sigma = frames.sigma_profile(spec, args.n_max)
    report = {
        "command": "check",
        "d": spec.d,
        "n_max": args.n_max,
        "C1": bounds.c1,
        "C2": bounds.c2,
        "is_frame_on_range": bounds.is_frame_on_range,
        "sigma": [float(s) for s in sigma],
        "zero_degrees": [int(n) for n in np.nonzero(sigma == 0.0)[0]],
    }
    failed = not bounds.is_frame_on_range
    if args.dual is not None:
        other = io.read_spec(args.dual)
        residuals = frames.dual_residuals(spec, other, args.n_max)
        report["dual_residuals"] = [float(r) for r in residuals]
        report["dual_max_residual"] = float(residuals.max())
        report["dual_tol"] = args.tol
        report["is_dual_pair"] = bool(residuals.max() <= args.tol)
        failed = failed or not report["is_dual_pair"]
    if args.out:
        io.write_report(report, args.out)
    print(f"C1={bounds.c1:.6e} C2={bounds.c2:.6e} "
          f"frame on 0..{args.n_max}: {bounds.is_frame_on_range}")
    if args.dual is not None:
        print(f"dual residual max {report['dual_max_residual']:.3e} "
              f"(tol {args.tol:g}) -> {report['is_dual_pair']}")
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_dual(args) -> int:
    _require(args.n_max is None or args.n_max >= 0,
             f"--n-max must be nonnegative, got {args.n_max}")
    spec = io.read_spec(args.spec)
    dual = frames.canonical_dual(spec, n_max=args.n_max)
    io.write_spec(dual, args.out)
    print(f"wrote canonical dual to {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    _require(args.random is None or args.random >= 0,
             f"--random must be a nonnegative degree, got {args.random}")
    _require(args.n_out is None or args.n_out >= 0,
             f"--n-out must be a nonnegative degree, got {args.n_out}")
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    spec = io.read_spec(args.spec)
    _require(frames.admits(spec, args.grid, args.K),
             f"the spec does not admit --grid {args.grid}"
             + ("" if args.K is None else f" --K {args.K}")
             + "; its grids would not reconstruct (use --grid auto)")
    if not args.signal and args.random is None:
        raise SphereFrameError("give --signal FILE or --random DEGREE")
    seed = None if args.signal else args.seed
    if args.signal:
        signal = io.read_signal(args.signal)
    else:
        signal = frames.random_signal(spec.d, args.random, seed=seed)
    # certified up to the signal's highest nonzero degree, before any grid is built
    highest = max(signal.energies(), default=0)
    dual = frames.canonical_dual(spec, n_max=highest)
    system = frames.build_system(spec, variant=args.grid, K=args.K)
    coeffs = frames.analysis(system, signal)
    n_out = signal.degree if args.n_out is None else args.n_out
    recovered = frames.synthesis(system, dual, coeffs, n_out)
    rel_err = frames.relative_error(signal, recovered)
    gap = frames.parseval_check(system, signal, coefficients=coeffs)
    errors = frames.degree_errors(signal, recovered)
    report = {
        "command": "reconstruct",
        "d": spec.d,
        "grid_variant": system.variant,
        "grid_choice": system.choice,
        "grid_sizes": [len(g) for g in system.grids],
        "signal_degree": signal.degree,
        "seed": seed,
        "relative_coefficient_error": rel_err,
        # error_n = |g_n - f_n| / |f_n| grows like 1/sigma_n where sigma is small
        "max_degree_error_times_sigma": max((err * gap.sigma[n] for n, err in errors.items()),
                                            default=0.0),
        "parseval_discrete": gap.discrete_sum,
        "parseval_spectral": gap.spectral_sum,
        "parseval_rel_gap": gap.rel_gap,
    }
    if args.out:
        io.write_report(report, args.out)
    print(f"grid={system.variant} sizes={report['grid_sizes']} seed={seed}")
    print(f"relative coefficient error: {rel_err:.3e}")
    print(f"parseval gap: {gap.rel_gap:.3e}")
    return EXIT_OK


def _parse_scales(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            # lazy: localization_report refuses the first index outside 0..J before reading on
            scales = range(int(lo), int(hi) + 1)
        else:
            scales = [int(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"--scales must look like 4..7 or 4,5,6, got {text!r}") from None
    _require(bool(scales), f"--scales {text!r} selects no scale")
    return scales


def cmd_localize(args) -> int:
    spec = io.read_spec(args.spec)
    scales = None if args.scales is None else _parse_scales(args.scales)
    records = diagnostics.localization_report(spec, scales)
    rows = []
    print(f"{'j':>3} {'N_j':>6} {'|Psi|^2':>14} {'xi0_d':>12} "
          f"{'Var_S':>12} {'Var_S*N^2':>12} {'Var_M':>14} {'VarS*VarM':>12}")
    for r in records:
        if r.var_space is None:
            var_s = scaled = product = f"{'undefined':>12}"
        else:
            var_s = f"{r.var_space:>12.4e}"
            try:
                scaled = f"{r.var_space * r.bandwidth**2:>12.6f}"
            except OverflowError:  # N^2 past the float range
                scaled = f"{math.inf:>12.6f}"
            product = f"{r.uncertainty_product:>12.6f}"
        print(f"{r.j:>3} {r.bandwidth:>6} {r.norm_sq:>14.6e} {r.xi0_d:>12.8f} "
              f"{var_s} {scaled} {r.var_momentum:>14.6e} {product}")
        rows.append({
            "j": r.j, "N_j": r.bandwidth, "norm_sq": r.norm_sq,
            "xi0_d": r.xi0_d, "xi0_vec": [float(v) for v in r.xi0_vec],
            "var_space": r.var_space,
            "var_space_upper": r.var_space_upper,
            "var_momentum": r.var_momentum,
            "uncertainty_product": r.uncertainty_product,
        })
    if args.out:
        io.write_report({"command": "localize", "d": spec.d, "scales": rows},
                        args.out)
    return EXIT_OK


def cmd_autocorr(args) -> int:
    _require(args.angles >= 1, f"--angles must be positive, got {args.angles}")
    spec = io.read_spec(args.spec)
    scale = spec.scale(args.j)
    d = spec.d
    # the library checks this sweep too, but only after the d x d stack per angle exists
    size = quadrature.sphere_size(d, scale.bandwidth)
    quadrature.check_cap((args.angles + 1) * size, "autocorrelation sweep")
    alphas = np.linspace(0.0, math.pi, args.angles)
    hs = np.tile(np.eye(d), (len(alphas), 1, 1))
    for h, alpha in zip(hs, alphas):
        c, s = math.cos(alpha), math.sin(alpha)
        h[d - 3, d - 3] = c
        h[d - 2, d - 2] = c
        h[d - 3, d - 2] = -s
        h[d - 2, d - 3] = s
    values = diagnostics.autocorrelation(spec, args.j, hs)
    overlaps = [math.cos(alpha) for alpha in alphas]
    try:  # a table without the closed form gets no closed column
        closed = diagnostics.autocorrelation_closed(spec, args.j, overlaps).tolist()
    except SphereFrameError:
        closed = None
    rows = []
    for i, (alpha, c, value) in enumerate(zip(alphas, overlaps, values)):
        value = complex(value)
        row = {"alpha": float(alpha), "s": float(c),
               "numeric_re": value.real, "numeric_im": value.imag}
        if closed is not None:
            row["closed"] = closed[i]
            row["gap"] = abs(value - closed[i])
        rows.append(row)
        closed_txt = f" closed={row['closed']:.6e}" if "closed" in row else ""
        print(f"alpha={alpha:.4f} s={c:+.4f} numeric={value.real:+.6e}{closed_txt}")
    if args.out:
        io.write_report({"command": "autocorr", "d": d, "j": args.j,
                         "norm_sq": scale.norm_sq(), "rows": rows}, args.out)
    return EXIT_OK


def cmd_figure(args) -> int:
    _require(args.resolution >= 1,
             f"--resolution must be positive, got {args.resolution}")
    _require(math.isfinite(args.t_max) and args.t_max > 0,
             f"--t-max must be positive and finite, got {args.t_max}")
    spec = io.read_spec(args.spec)
    spec.scale(args.j)  # refuses a --j outside 0..J before any warning
    if not frames.admits(spec, "so_d2_invariant"):
        print("warning: spec is not invariant under the subgroup fixing the "
              "last two axes; the sampled section depends on eta''",
              file=sys.stderr)
    eta = None
    if args.eta_dprime:
        try:
            eta = np.array(args.eta_dprime.split(","), dtype=float)
        except ValueError:
            raise ParameterError(f"--eta-dprime must be numbers, got {args.eta_dprime!r}") from None
    grid = constructions.polar_sample(
        spec, args.j, t_res=args.resolution, phi_res=args.resolution,
        t_max=args.t_max, eta_dprime=eta)
    if args.format == "csv":
        io.write_polar_csv(grid, args.out)
    else:
        io.write_polar_pgm(grid, args.out)
    print(f"wrote {args.out} ({args.resolution}x{args.resolution}, "
          f"t_max={args.t_max}, peak magnitude before rescale {grid.scale:.6e})")
    return EXIT_OK


def cmd_quadinfo(args) -> int:
    outer = quadrature.sphere_rule(args.d, args.N)
    rule = quadrature.rotation_rule(args.d, args.N, args.variant, K=args.K)
    print(f"sphere rule S^{args.d - 1}, target degree {2 * args.N}: "
          f"{len(outer)} nodes, weight sum {outer.weights.sum():.15f}")
    print(f"rotation rule variant={rule.variant} class={rule.class_degree}"
          + (f" K={rule.steer_K}" if rule.steer_K is not None else "")
          + f": {len(rule)} rotations, weight sum {rule.weights.sum():.15f}")
    if args.out:
        io.write_grid(rule, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereframe",
        description="rotated-polynomial frames on spheres: build, verify, "
                    "transform, and diagnose")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for autocorr's rotated evaluation "
                             "(default: hardware parallelism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a frame spec file")
    p.add_argument("--kind", required=True,
                   choices=["wavelet", "curvelet", "zonal", "from-file"])
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--J", type=int, default=5)
    p.add_argument("--window", default="kappa1", choices=["kappa1", "kappa2"])
    p.add_argument("--input", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="frame bounds and optional dual residuals")
    p.add_argument("--spec", required=True)
    p.add_argument("--dual", default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dual", help="write the canonical dual spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("reconstruct",
                       help="analysis + canonical-dual synthesis round trip")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", default="auto",
                   choices=["auto"] + list(quadrature.VARIANTS))
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--signal", default=None)
    p.add_argument("--random", type=int, default=None,
                   help="degree of a random unit-energy test signal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-out", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("localize", help="per-scale localization report")
    p.add_argument("--spec", required=True)
    p.add_argument("--scales", default=None, help="e.g. 4..7 or 4,5,6")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("autocorr", help="autocorrelation sweep at one scale")
    p.add_argument("--spec", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--angles", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("figure", help="polar-grid sample of one scale")
    p.add_argument("--spec", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--format", default="csv", choices=["csv", "pgm"])
    p.add_argument("--eta-dprime", default=None,
                   help="comma-separated unit vector of length d-2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("quadinfo", help="rule sizes; optionally export a grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--variant", default="general",
                   choices=list(quadrature.VARIANTS))
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quadinfo)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves a parser as
    it was, so every call of `main` can share one.  It holds the command
    functions it was built with."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    max_nodes = getattr(args, "max_nodes", None)
    try:
        _require(args.threads is None or args.threads >= 1,
                 f"--threads must be positive, got {args.threads}")
        _require(max_nodes is None or max_nodes >= 1,
                 f"--max-nodes must be positive, got {max_nodes}")
        with _config.command_flags(max_nodes, args.threads):
            return args.func(args)
    except CapacityError as exc:
        # name only the overrides this command accepts
        flag = "--max-nodes or " if hasattr(args, "max_nodes") else ""
        override = flag + _config.MAX_NODES_ENV
        print(f"capacity error: {exc}; raise {override} to override", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:  # under the node cap, but more than this machine holds
        detail = f" ({exc})" if str(exc) else ""
        print(f"capacity error: out of memory{detail}", file=sys.stderr)
        return EXIT_CAPACITY
    except NotAFrameError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SphereFrameError, OSError) as exc:  # OSError: missing, directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
