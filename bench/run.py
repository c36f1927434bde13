"""sphereframe benchmark: fixed, seeded CLI workloads driven in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the run sets up several times in fresh interpreters, then
repeats the workload's session until S seconds have passed, checks every
output, and reports the end-to-end metrics.  With --trace 1 it alternates
traced and untraced sessions, one new seed per pair, and reports the
per-layer metrics of the traced ones.  The last line of standard output is
the result as one JSON object; the exit code is 0 only when every check
passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_TRACE_PAIRS = 2

END_TO_END_UNITS = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMANDS = ("build", "check", "dual", "reconstruct", "localize", "autocorr",
            "figure", "quadinfo")

# Runs in a fresh interpreter: what a CLI user pays before any command works.
SETUP_CHILD = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from sphereframe import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"seconds": time.perf_counter() - t0, "codes": codes,
                  "module": cli.__file__}))
"""


class ProgramMissing(Exception):
    pass


def import_cli():
    """Import sphereframe.cli from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "sphereframe" / "__init__.py").is_file():
        raise ProgramMissing(f"no sphereframe package under {src}")
    sys.path.insert(0, str(src))
    from sphereframe import cli
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise ProgramMissing(f"sphereframe imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class OpRecord:
    label: str
    seconds: float
    error: str | None
    stdout: str


def _command(argv) -> str:
    return next(a for a in argv if a in COMMANDS)


def run_op(cli, label, argv, check=None, out=None, tracer=None) -> OpRecord:
    """One `cli.main` call, timed; a nonzero exit, an exception or a failed
    output check makes it a failed op."""
    buf = io.StringIO()
    span = (tracer.span(f"cli.{_command(argv)}") if tracer is not None
            else contextlib.nullcontext())
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None and check is not None:
        try:
            error = check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
    if error is not None:
        print(f"FAILED {label}: {error}", file=sys.stderr)
    return OpRecord(label, seconds, error, buf.getvalue())


def build_argv(argv, spec_dir: Path) -> list:
    """A `build` call with its --out placed in spec_dir."""
    return [str(spec_dir / a) if prev == "--out" else a
            for prev, a in zip((None,) + tuple(argv), argv)]


def run_session(cli, workload, spec_dir, out_dir, seed, tracer=None,
                with_builds=False) -> list:
    """One pass over the workload's commands; optionally its builds first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    if with_builds:
        for argv in workload.builds:
            records.append(run_op(cli, f"build {argv[-1]}",
                                  build_argv(argv, spec_dir), tracer=tracer))
    for op in workload.session(spec_dir, out_dir, seed):
        op.out.unlink(missing_ok=True)  # a check must never read an older output
        records.append(run_op(cli, op.label, op.argv, op.check, op.out, tracer))
    return records


def session_seconds(records) -> float:
    return sum(r.seconds for r in records)


def setup_once(workload, rep_dir: Path) -> tuple[float | None, str | None]:
    """Import sphereframe and run the workload's builds in a fresh interpreter."""
    rep_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(workload.builds)],
            cwd=rep_dir, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None, "set-up timed out"
    if proc.returncode != 0:
        return None, f"set-up exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(doc["codes"]):
        return None, f"build exit codes {doc['codes']}"
    if Path(doc["module"]).resolve().parents[1] != (ROOT / "src").resolve():
        return None, f"set-up imported {doc['module']}"
    return doc["seconds"], None


def spec_files(workload, spec_dir: Path) -> dict:
    return {argv[-1]: (spec_dir / argv[-1]).read_bytes() for argv in workload.builds}


def git_state(root: Path):
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None, None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip() or None, bool(status.stdout.strip())


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    sha, dirty = git_state(ROOT)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ops = workload.session(Path("<specs>"), Path("<out>"), 0)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_per_op": {op.label: int(op.argv[1]) for op in ops},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "argv": sys.argv,
    }


def op_summary(passes) -> dict:
    times = {}
    for records in passes:
        for r in records:
            if r.error is None:
                times.setdefault(r.label, []).append(r.seconds)
    return {label: {"median_s": statistics.median(v), "min_s": min(v),
                    "max_s": max(v), "n": len(v)} for label, v in times.items()}


def measure(cli, workload, args, run_dir: Path) -> dict:
    """Untraced: set-up times, then sessions until --seconds have passed."""
    failures, setups, spec_dirs = [], [], []
    for i in range(SETUP_REPEATS):
        seconds, error = setup_once(workload, run_dir / f"setup{i}")
        if error is None:
            setups.append(seconds)
            spec_dirs.append(run_dir / f"setup{i}")
        else:
            failures.append(error)
            print(f"FAILED set-up {i}: {error}", file=sys.stderr)
    if not setups:
        return {"attempted": SETUP_REPEATS, "failed": SETUP_REPEATS,
                "consistent": False, "metrics": None}
    spec_dir = spec_dirs[-1]
    consistent = all(spec_files(workload, d) == spec_files(workload, spec_dir)
                     for d in spec_dirs)
    if not consistent:
        print("FAILED set-up: builds differ between set-ups", file=sys.stderr)

    seeds = random.Random(args.seed)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_session(cli, workload, spec_dir, run_dir / "ops",
                                  seeds.randrange(2 ** 31)))
    good = [p for p in passes if all(r.error is None for r in p)]
    attempted = SETUP_REPEATS + sum(len(p) for p in passes)
    failed = len(failures) + sum(r.error is not None for p in passes for r in p)
    metrics = {
        "session_s": statistics.median(session_seconds(p) for p in (good or passes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"attempted": attempted, "failed": failed, "consistent": consistent,
            "metrics": metrics, "sessions": len(passes),
            "session_times": [session_seconds(p) for p in passes],
            "setup_times": setups, "ops": op_summary(passes)}


def _outputs(records, op_dir: Path) -> dict:
    """Op outputs with the run directory masked out, for comparing passes."""
    out = {r.label: r.stdout.replace(str(op_dir), "<dir>") for r in records}
    for path in sorted(op_dir.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(op_dir))] = path.read_bytes()
    return out


def measure_traced(cli, workload, args, run_dir: Path) -> dict:
    """Pairs of a traced and an untraced session on one new seed each, until
    --seconds have passed and at least two seeds were traced."""
    seeds = random.Random(args.seed)
    pairs = []   # (layer metrics, traced s, untraced s, outputs equal, tracer)
    failed = attempted = 0
    t0 = time.perf_counter()
    while len(pairs) < MIN_TRACE_PAIRS or time.perf_counter() - t0 < args.seconds:
        seed = seeds.randrange(2 ** 31)
        k = len(pairs)
        tracer = tracing.Tracer(f"{run_dir.name}/seed{seed}")
        traced_dir, plain_dir = run_dir / f"traced{k}", run_dir / f"plain{k}"
        with tracing.instrument(tracer):
            traced = run_session(cli, workload, traced_dir, traced_dir, seed,
                                 tracer, with_builds=True)
        plain = run_session(cli, workload, plain_dir, plain_dir, seed,
                            with_builds=True)
        same = _outputs(traced, traced_dir) == _outputs(plain, plain_dir)
        if not same:
            print(f"FAILED seed {seed}: traced outputs differ from untraced",
                  file=sys.stderr)
        attempted += len(traced) + len(plain)
        failed += sum(r.error is not None for r in traced + plain)
        pairs.append((tracing.layer_metrics(tracer.spans), session_seconds(traced),
                      session_seconds(plain), same, tracer))
    with open(run_dir / "spans.jsonl", "w") as fh:
        for *_, tracer in pairs:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    layers = [p[0] for p in pairs]
    counts = [{k: v for k, v in m.items()
               if tracing.PER_LAYER_UNITS.get(k) == "count"} for m in layers]
    differ = sorted({k for c in counts for k in c if c[k] != counts[0][k]})
    counts_repeat = not differ
    if differ:
        print(f"FAILED: count metrics differ between seeds: {differ}", file=sys.stderr)
    metrics = {name: counts[0][name] if name in counts[0]
               else statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(p[1] for p in pairs)
                                   - statistics.median(p[2] for p in pairs))
    return {"attempted": attempted, "failed": failed,
            "consistent": counts_repeat and all(p[3] for p in pairs),
            "metrics": metrics, "sessions": len(pairs),
            "traced_times": [p[1] for p in pairs],
            "untraced_times": [p[2] for p in pairs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        cli = import_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{workload.name}-seed{args.seed}-trace{args.trace}-", dir=WORK))
    try:
        if args.trace:
            result = measure_traced(cli, workload, args, run_dir)
            units = tracing.PER_LAYER_UNITS
        else:
            result = measure(cli, workload, args, run_dir)
            units = END_TO_END_UNITS
    finally:
        for path in run_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
    result["provenance"] = provenance(args, workload)
    result["workload"] = workload.name
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    correct = result["failed"] == 0 and result["consistent"]
    metrics = result["metrics"]
    if metrics is None:
        print("no session could run", file=sys.stderr)
        return 1
    for label, s in result.get("ops", {}).items():
        print(f"op {label:12s} median {s['median_s']:.4f} s  "
              f"[{s['min_s']:.4f}, {s['max_s']:.4f}] over {s['n']}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"sessions {result['sessions']}, result in {run_dir / 'result.json'}")
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
