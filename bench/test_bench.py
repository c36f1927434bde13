"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def tiny_session(specs, out, seed):
    w = specs / "w.json"
    p = {name: out / name for name in ("rec.json", "check.json", "dual.json",
                                       "check_dual.json", "loc.json", "fig.pgm",
                                       "ac.json", "grid.json")}
    argv = workloads.cli_args
    return [
        workloads.Op("reconstruct", argv(1, "reconstruct", "--spec", w, "--random", 2,
                                         "--seed", seed, "--out", p["rec.json"]),
                     p["rec.json"], workloads.check_reconstruct(
                         "steerable_so_d2", [15, 675, 3375], 2, seed)),
        workloads.Op("check", argv(1, "check", "--spec", w, "--n-max", 4,
                                   "--out", p["check.json"]),
                     p["check.json"], workloads.check_frame),
        workloads.Op("dual", argv(1, "dual", "--spec", w, "--n-max", 4,
                                  "--out", p["dual.json"]),
                     p["dual.json"], workloads.check_spec),
        workloads.Op("check_dual", argv(1, "check", "--spec", w, "--dual", p["dual.json"],
                                        "--n-max", 4, "--out", p["check_dual.json"]),
                     p["check_dual.json"], workloads.check_dual),
        workloads.Op("localize", argv(1, "localize", "--spec", w, "--scales", "1..2",
                                      "--out", p["loc.json"]),
                     p["loc.json"], workloads.check_localize(2, 2.25)),
        workloads.Op("figure", argv(1, "figure", "--spec", w, "--j", 2, "--resolution",
                                    16, "--format", "pgm", "--out", p["fig.pgm"]),
                     p["fig.pgm"], workloads.check_pgm(16)),
        workloads.Op("autocorr", argv(1, "autocorr", "--spec", w, "--j", 1, "--angles",
                                      4, "--out", p["ac.json"]),
                     p["ac.json"], workloads.check_autocorr),
        workloads.Op("quadinfo", argv(1, "quadinfo", "--d", 3, "--N", 2, "--variant",
                                      "zonal", "--out", p["grid.json"]),
                     p["grid.json"], workloads.check_grid(15, 3)),
    ]


TINY = workloads.Workload(
    "tiny", "self-test",
    (("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
      "--window", "kappa2", "--out", "w.json"),),
    tiny_session)


def bindings():
    """Every function or class a sphereframe module binds, and the evaluator's
    attributes."""
    out = {}
    for m in tracing.sphereframe_modules():
        for attr, value in vars(m).items():
            if callable(value):
                out[(m.__name__, attr)] = value
    cls = tracing.sphereframe_modules()[0].ExpansionEvaluator
    for attr, value in vars(cls).items():
        out[("ExpansionEvaluator", attr)] = value
    return out


def check_tree(spans):
    tree = tracing.SpanTree(spans)
    for s in spans:
        assert tree.self_time[s.id] >= 0.0, s
        if s.parent is not None:
            parent = tree.by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end, (parent, s)


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
    names = ([w["name"] for w in doc["workloads"]]
             + list(run.END_TO_END_UNITS) + list(tracing.PER_LAYER_UNITS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_traced_session_spans_and_restored_wrappers(cli, tmp_path):
    before = bindings()
    tracer = tracing.Tracer("tiny")
    with tracing.instrument(tracer):
        assert bindings() != before
        records = run.run_session(cli, TINY, tmp_path, tmp_path, 7, tracer,
                                  with_builds=True)
    assert bindings() == before
    assert [r.error for r in records] == [None] * len(records)
    check_tree(tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert all(v >= 0 for v in metrics.values())
    for name in ("frames.analysis_s", "frames.synthesis_s", "harmonics.rotated_eval_s",
                 "specfun.gegenbauer_s", "harmonics.projection_s", "io.write_s",
                 "diagnostics.autocorrelation_s", "constructions.polar_sample_s"):
        assert metrics[name] > 0, name
    assert metrics["quadrature.grid_rotations"] == 15 + 675 + 3375 + 15
    assert metrics["cli.self_s"] < sum(r.seconds for r in records)


def test_worker_thread_spans_nest_under_their_caller(cli):
    from sphereframe import harmonics, quadrature
    ev = harmonics.ExpansionEvaluator(4, {(2, (1, 1)): 1.0, (3, (2, -1)): 0.5j})
    rule = quadrature.sphere_rule(4, 2)
    rots = quadrature.rotation_rule(4, 2, "zonal").rotations
    expected = ev.rotated_apply(rots, rule.points, lambda v, sl: v.sum(axis=1),
                                max_block=len(rule) * 4, workers=1)
    tracer = tracing.Tracer("threads")
    with tracing.instrument(tracer):
        got = ev.rotated_apply(rots, rule.points, lambda v, sl: v.sum(axis=1),
                               max_block=len(rule) * 4, workers=2)
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))
    check_tree(tracer.spans)
    blocks = [s for s in tracer.spans if s.name == tracing.BLOCK]
    assert len(blocks) == len(got) > 1
    top = [s for s in tracer.spans if s.name == tracing.ROTATED]
    assert len(top) == 1 and all(b.parent == top[0].id for b in blocks)
    metrics = tracing.layer_metrics(tracer.spans)
    busy = sum(b.end - b.start for b in blocks)
    assert metrics["harmonics.rotated_eval_s"] + metrics["frames.contraction_s"] >= busy - 1e-9


def test_failed_op_is_counted(cli, tmp_path):
    record = run.run_op(cli, "missing", ("check", "--spec", tmp_path / "none.json",
                                         "--n-max", "4"))
    assert record.error == "exit code 2"
    record = run.run_op(cli, "bad flag", ("check", "--n-max", "-x"))
    assert record.error == "exit code 2"
    (tmp_path / "bad.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(10))
    assert workloads.check_pgm(16)(tmp_path / "bad.pgm") == "10 pixel bytes"


def test_traced_run_repeats_counts_and_outputs(cli, tmp_path):
    args = argparse.Namespace(seed=3, seconds=0.001)
    result = run.measure_traced(cli, TINY, args, tmp_path)
    assert result["failed"] == 0 and result["consistent"]
    assert result["sessions"] == run.MIN_TRACE_PAIRS
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    assert (tmp_path / "spans.jsonl").is_file()
