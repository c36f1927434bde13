"""CLI outputs pinned against a checked-in manifest, `cli_manifest.json`.

`COMMANDS` runs in one process, in a fresh directory.  Exit codes must match
exactly.  Spec, grid, PGM, CSV and `check` report files, and the stdout and
stderr of every command that writes one, must match by sha256.  The reports
of `reconstruct`, `localize` and `autocorr` carry numbers that a change of
summation order moves at rounding level: their structural fields (keys, row
counts, integers, strings, flags) must match exactly, and each float field
within the tolerance `REPORT_TOL` states for it.  Their stdout must match
with every decimal number masked.

The manifest records the outputs of the tree it was written from:
`PYTHONPATH=src python tests/test_cli_outputs.py DIR > tests/cli_manifest.json`
runs the list in DIR and prints it.  A change to the manifest is a change of
the program's outputs, and is listed in CHANGES.md with its reason.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

from sphereframe import _config, cli

MANIFEST = Path(__file__).resolve().parent / "cli_manifest.json"


def _quadinfo(d, N, variant, K=None):
    argv = ("quadinfo", "--d", d, "--N", N, "--variant", variant)
    if K is not None:
        argv += ("--K", K)
    return argv + ("--out", f"grid_d{d}_N{N}_{variant}.json")


def _commands():
    w3, z5, w7, w8 = "w3.json", "z5.json", "w7.json", "w8.json"
    c5, c3, c52 = "c5.json", "c3.json", "c52.json"
    cmds = [
        ("build", "--kind", "wavelet", "--d", 4, "--K", 4, "--J", 3, "--window", "kappa2",
         "--out", w3),
        ("build", "--kind", "zonal", "--d", 3, "--J", 5, "--window", "kappa2", "--out", z5),
        ("build", "--kind", "wavelet", "--d", 4, "--K", 4, "--J", 7, "--window", "kappa1",
         "--out", w7),
        ("build", "--kind", "wavelet", "--d", 4, "--K", 4, "--J", 8, "--window", "kappa2",
         "--out", w8),
        ("build", "--kind", "curvelet", "--d", 4, "--J", 5, "--out", c5),
        ("build", "--kind", "curvelet", "--d", 4, "--J", 3, "--out", c3),
        ("build", "--kind", "curvelet", "--d", 5, "--J", 2, "--out", c52),
    ]
    for seed in (0, 7):
        for threads in (1, 2):
            cmds.append(("--threads", threads, "reconstruct", "--spec", w3, "--random", 4,
                         "--seed", seed, "--out", f"rec_w3_s{seed}_t{threads}.json"))
    cmds += [
        ("reconstruct", "--spec", z5, "--random", 32, "--out", "rec_z5.json"),
        ("reconstruct", "--spec", c3, "--grid", "general", "--random", 3, "--seed", 1,
         "--out", "rec_c3.json"),
        ("reconstruct", "--spec", c52, "--random", 3, "--seed", 1, "--out", "rec_c52.json"),
        ("check", "--spec", w8, "--n-max", 256, "--out", "check_w8.json"),
        ("dual", "--spec", w8, "--n-max", 256, "--out", "w8_dual.json"),
        ("check", "--spec", w8, "--dual", "w8_dual.json", "--n-max", 256,
         "--out", "check_w8_dual.json"),
        ("localize", "--spec", w7, "--scales", "4..7", "--out", "loc_w7.json"),
        ("localize", "--spec", c5, "--out", "loc_c5.json"),
        ("localize", "--spec", c52, "--out", "loc_c52.json"),
        ("localize", "--spec", z5, "--out", "loc_z5.json"),
        ("autocorr", "--spec", c5, "--j", 4, "--angles", 32, "--out", "ac_c5.json"),
        ("autocorr", "--spec", w3, "--j", 2, "--angles", 8, "--out", "ac_w3.json"),
        ("figure", "--spec", w7, "--j", 7, "--format", "pgm", "--out", "w7_j7.pgm"),
        ("figure", "--spec", c5, "--j", 4, "--resolution", 64, "--out", "c5_j4.csv"),
    ]
    for d, N in ((3, 4), (4, 3)):
        for variant in ("general", "zonal", "so_d2_invariant"):
            cmds.append(_quadinfo(d, N, variant))
        for variant in ("steerable", "steerable_so_d2"):
            cmds.append(_quadinfo(d, N, variant, K=2))
    cmds += [_quadinfo(4, 8, "steerable_so_d2", K=4), _quadinfo(3, 5, "general")]
    return [[str(a) for a in argv] for argv in cmds]


COMMANDS = _commands()
REPORT_COMMANDS = ("reconstruct", "localize", "autocorr")

# (tol, scale) per float field of the reconstruct, localize and autocorr
# reports: |new - old| <= tol * max(|old|, scale), where the scale "norm_sq"
# is the report's |Psi^j|^2.  A float under any other name must match exactly.
REPORT_TOL = {
    # round-trip errors sit near 1e-14; the acceptance bound for them is 1e-12
    "relative_coefficient_error": (1e-12, 1.0),
    "parseval_rel_gap": (1e-12, 1.0),
    "parseval_discrete": (1e-12, 0.0),
    "parseval_spectral": (1e-12, 0.0),
    # the centre of mass is at most a unit vector, and its off-pole entries
    # are zero up to rounding, so its entries are compared on the unit scale
    "xi0_d": (1e-12, 1.0),
    "xi0_vec": (1e-12, 1.0),
    "norm_sq": (1e-12, 0.0),
    "var_momentum": (1e-12, 0.0),
    # (1 - |xi|^2) / |xi|^2 at N_j = 128 is 3.7e-3, so rounding in |xi|^2
    # moves it by about 1e-13 of itself (its two routes differ by 2.4e-13)
    "var_space": (1e-12, 0.0),
    "var_space_upper": (1e-12, 0.0),
    "uncertainty_product": (1e-12, 0.0),
    # autocorrelation rows lie in [-|Psi^j|^2, |Psi^j|^2]; near zero a row is
    # rounding of sums of that size
    "numeric_re": (1e-12, "norm_sq"),
    "numeric_im": (1e-12, "norm_sq"),
    "closed": (1e-12, "norm_sq"),
    "gap": (1e-12, "norm_sq"),
}

_DECIMAL = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=e))(?:e[-+]?\d+)?")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mask_numbers(text: str) -> str:
    """`text` with every decimal number (one with a point or an exponent)
    replaced by `#`; integers stay."""
    return _DECIMAL.sub("#", text)


def run_commands(directory) -> list:
    """Run COMMANDS in `directory` and return one manifest entry per command."""
    entries = []
    workers, cwd = _config.get_workers(), os.getcwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(argv)
            entry = {"argv": argv, "exit": code,
                     "warnings": [str(w.message) for w in caught],
                     "stderr": _sha256(err.getvalue().encode())}
            path = Path(argv[argv.index("--out") + 1])  # every command writes one file
            written = path.exists()
            command = argv[2] if argv[0] == "--threads" else argv[0]
            if command in REPORT_COMMANDS:
                entry["stdout_masked"] = mask_numbers(out.getvalue())
                entry["report"] = json.loads(path.read_text()) if written else None
            else:
                entry["stdout"] = _sha256(out.getvalue().encode())
                entry["file"] = _sha256(path.read_bytes()) if written else None
            entries.append(entry)
    finally:
        os.chdir(cwd)
        _config.set_workers(workers)
    return entries


def report_mismatches(want, got, path="report", field=None, norm_sq=None) -> list:
    """Where `got` departs from `want`: structure exactly, floats within the
    REPORT_TOL entry of the field that holds them.  `norm_sq` is the report's
    |Psi^j|^2, for the fields measured on that scale."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: keys {sorted(want)}, got {got!r:.80}"]
        return [m for key in want
                for m in report_mismatches(want[key], got[key], f"{path}.{key}", key, norm_sq)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: {len(want)} entries, got {got!r:.80}"]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in report_mismatches(a, b, f"{path}[{i}]", field, norm_sq)]
    if type(want) is float and type(got) is float and field in REPORT_TOL:
        tol, scale = REPORT_TOL[field]
        bound = tol * max(abs(want), norm_sq if scale == "norm_sq" else scale)
        if abs(got - want) <= bound:
            return []
        return [f"{path}: {got!r} differs from {want!r} by more than {bound:.3e}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_cli_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert [e["argv"] for e in manifest] == COMMANDS
    entries = run_commands(tmp_path)
    problems = []
    for want, got in zip(manifest, entries):
        where = " ".join(want["argv"])
        report_want, report_got = want.pop("report", None), got.pop("report", None)
        if want != got:
            diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got)
                    if want.get(k) != got.get(k)}
            problems.append(f"{where}: {diff}")
        if report_want is not None:
            problems += [f"{where}: {m}" for m in report_mismatches(
                report_want, report_got, norm_sq=report_want.get("norm_sq"))]
    assert problems == []


def test_manifest_comparison_catches_a_planted_change():
    report = {"command": "autocorr", "norm_sq": 1000.0, "rows": [
        {"alpha": 0.5, "numeric_re": 0.0, "xi0_vec": [0.0, 1.0]}]}
    near = json.loads(json.dumps(report))
    near["rows"][0].update(numeric_re=1e-10, xi0_vec=[1e-15, 1.0])
    assert report_mismatches(report, near, norm_sq=1000.0) == []
    for edit in (lambda r: r["rows"][0].update(alpha=0.5 + 1e-15),
                 lambda r: r["rows"][0].update(numeric_re=1e-8),
                 lambda r: r["rows"][0].update(xi0_vec=[1e-11, 1.0]),
                 lambda r: r["rows"][0].update(extra=1),
                 lambda r: r["rows"].append({}),
                 lambda r: r.update(command="check")):
        bad = json.loads(json.dumps(report))
        edit(bad)
        assert report_mismatches(report, bad, norm_sq=1000.0) != []
    assert mask_numbers("err 1.234e-15 gap 3.0 n=5 x=-.5 y=2e-3") == "err # gap # n=5 x=# y=#"


if __name__ == "__main__":
    json.dump(run_commands(sys.argv[1]), sys.stdout, indent=1)
    print()
