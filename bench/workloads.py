"""The benchmark's workloads: the `build` calls of their set-up, the CLI calls
of one session, and the check each call's output must pass.

A workload is a closed loop of one client, the CLI: each call starts when the
previous one has returned.  Every call names its thread count explicitly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# A check reads an op's output file and returns None, or what is wrong.
Check = Callable[[Path], "str | None"]


@dataclass(frozen=True)
class Op:
    label: str            # stable name of the op within a session
    argv: tuple           # arguments of sphereframe.cli.main
    out: Path             # the file the op writes
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builds: tuple         # argv tuples of `build` calls, relative to the spec dir
    session: Callable[[Path, Path, int], list]  # (spec dir, out dir, seed) -> [Op]


def _report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("kind") != "report":
        raise ValueError(f"{path.name} is not a report")
    return doc


def check_reconstruct(variant: str, sizes: list, degree: int, seed: int) -> Check:
    """Criteria 5 and 6: the round trip recovers the signal and the frame
    energy matches the spectral energy, on the expected grids."""
    def check(path):
        r = _report(path)
        if r["relative_coefficient_error"] >= 1e-9:
            return f"relative coefficient error {r['relative_coefficient_error']:.3e}"
        if r["parseval_rel_gap"] >= 1e-10:
            return f"parseval gap {r['parseval_rel_gap']:.3e}"
        if r["grid_variant"] != variant or r["grid_sizes"] != sizes:
            return f"grid {r['grid_variant']} {r['grid_sizes']}"
        if r["signal_degree"] != degree or r["seed"] != seed:
            return f"signal degree {r['signal_degree']} seed {r['seed']}"
        return None
    return check


def check_frame(path):
    c1 = _report(path)["C1"]
    return None if c1 > 0 else f"C1 = {c1}"


def check_spec(path):
    doc = json.loads(path.read_text())
    return None if doc.get("kind") == "frame_spec" else "not a frame spec"


def check_dual(path):
    r = _report(path)["dual_max_residual"]
    return None if r <= 1e-12 else f"dual residual {r:.3e}"


def check_localize(rows: int, bound: float) -> Check:
    """Every scale meets the uncertainty bound (d-1)^2/4."""
    def check(path):
        got = _report(path)["scales"]
        if len(got) != rows:
            return f"{len(got)} rows"
        bad = [r["j"] for r in got if not r["uncertainty_product"] >= bound]
        return f"uncertainty below {bound} at j={bad}" if bad else None
    return check


def check_pgm(res: int) -> Check:
    def check(path):
        data = path.read_bytes()
        header = f"P5\n{res} {res}\n255\n".encode("ascii")
        if not data.startswith(header):
            return "bad PGM header"
        if len(data) - len(header) != res * res:
            return f"{len(data) - len(header)} pixel bytes"
        return None
    return check


def check_autocorr(path):
    """At alpha = 0 the autocorrelation is the squared norm."""
    r = _report(path)
    row = r["rows"][0]
    if row["alpha"] != 0.0:
        return "first row is not alpha = 0"
    gap = abs(complex(row["numeric_re"], row["numeric_im"]) - r["norm_sq"])
    return None if gap <= 1e-12 * r["norm_sq"] else f"alpha=0 gap {gap:.3e}"


def check_grid(rotations: int, d: int) -> Check:
    def check(path):
        doc = json.loads(path.read_text())
        if doc.get("kind") != "rotation_grid" or doc.get("d") != d:
            return "not a rotation grid"
        if len(doc["rotations"]) != rotations or len(doc["weights"]) != rotations:
            return f"{len(doc['rotations'])} rotations"
        gap = abs(math.fsum(doc["weights"]) - 1.0)
        return None if gap <= 1e-12 else f"weight sum off by {gap:.3e}"
    return check


def same_bytes_as(first: Path, check: Check) -> Check:
    def same(path):
        if path.read_bytes() != first.read_bytes():
            return f"{path.name} differs from {first.name}"
        return check(path)
    return same


def cli_args(threads: int, *args) -> tuple:
    return ("--threads", str(threads)) + tuple(str(a) for a in args)


def roundtrip(spec_file: str, degree: int, threads: tuple, variant: str,
              sizes: list) -> Callable:
    """`reconstruct` of one seeded random signal, once per thread count; the
    reports must be byte-identical across thread counts."""
    def session(specs: Path, out: Path, seed: int) -> list:
        ops = []
        for n in threads:
            report = out / f"reconstruct_t{n}.json"
            argv = cli_args(n, "reconstruct", "--spec", specs / spec_file,
                         "--random", degree, "--seed", seed, "--out", report)
            check = check_reconstruct(variant, sizes, degree, seed)
            if ops:
                check = same_bytes_as(ops[0].out, check)
            ops.append(Op("reconstruct" + ("_mt" if n > 1 else ""), argv, report,
                          check))
        return ops
    return session


def tools_session(specs: Path, out: Path, seed: int) -> list:
    """Every spectral and diagnostic command once, at one thread.

    The seed picks the figure's eta'' direction; the spec is invariant under
    the subgroup that direction moves in, so the work does not depend on it.
    """
    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    eta = f"{math.cos(angle)!r},{math.sin(angle)!r}"
    w8, w7, c5 = (specs / name for name in ("w8.json", "w7.json", "c5.json"))
    p = {name: out / name for name in (
        "check.json", "dual.json", "check_dual.json", "localize.json",
        "figure.pgm", "autocorr.json", "grid.json")}
    return [
        Op("check", cli_args(1, "check", "--spec", w8, "--n-max", 256,
                          "--out", p["check.json"]),
           p["check.json"], check_frame),
        Op("dual", cli_args(1, "dual", "--spec", w8, "--n-max", 256,
                         "--out", p["dual.json"]),
           p["dual.json"], check_spec),
        Op("check_dual", cli_args(1, "check", "--spec", w8, "--dual", p["dual.json"],
                               "--n-max", 256, "--out", p["check_dual.json"]),
           p["check_dual.json"], check_dual),
        Op("localize", cli_args(1, "localize", "--spec", w7, "--scales", "4..7",
                             "--out", p["localize.json"]),
           p["localize.json"], check_localize(4, 2.25)),
        Op("figure", cli_args(1, "figure", "--spec", w7, "--j", 7, "--resolution", 256,
                           "--format", "pgm", f"--eta-dprime={eta}",
                           "--out", p["figure.pgm"]),
           p["figure.pgm"], check_pgm(256)),
        Op("autocorr", cli_args(1, "autocorr", "--spec", c5, "--j", 4, "--angles", 32,
                             "--out", p["autocorr.json"]),
           p["autocorr.json"], check_autocorr),
        Op("quadinfo", cli_args(1, "quadinfo", "--d", 4, "--N", 8, "--variant",
                             "steerable_so_d2", "--K", 4, "--out", p["grid.json"]),
           p["grid.json"], check_grid(61965, 4)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "directional-roundtrip",
        "criterion-5/6 system on steerable_so_d2 grids, at 1 and 2 threads: "
        "rotated evaluation and grid contraction dominate",
        (("build", "--kind", "wavelet", "--d", "4", "--K", "4", "--J", "3",
          "--window", "kappa2", "--out", "w3.json"),),
        roundtrip("w3.json", 4, (1, 2), "steerable_so_d2",
                  [45, 2025, 10125, 61965])),
    Workload(
        "zonal-roundtrip",
        "zonal grids have one inner rotation, so factoring has nothing to "
        "factor; degree-32 recurrences and projection dominate",
        (("build", "--kind", "zonal", "--d", "3", "--J", "5", "--window",
          "kappa2", "--out", "z5.json"),),
        roundtrip("z5.json", 32, (1,), "zonal", [1, 15, 45, 153, 561, 2145])),
    Workload(
        "tools",
        "no analysis or synthesis: spectral loops, JSON io, unrotated and "
        "base-rotated evaluation, and grid export",
        (("build", "--kind", "wavelet", "--d", "4", "--K", "4", "--J", "8",
          "--window", "kappa2", "--out", "w8.json"),
         ("build", "--kind", "wavelet", "--d", "4", "--K", "4", "--J", "7",
          "--window", "kappa1", "--out", "w7.json"),
         ("build", "--kind", "curvelet", "--d", "4", "--J", "5",
          "--out", "c5.json")),
        tools_session),
)}
