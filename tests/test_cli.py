import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sphereframe import _config, cli, diagnostics, io
from sphereframe import constructions as C
from sphereframe import frames as F
from sphereframe import quadrature as Q


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_build_wavelet_and_check(tmp_path, capsys):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "3", "--window", "kappa2", "--out", spec_path) == 0
    out = capsys.readouterr().out
    assert "sigma profile" in out
    spec = io.read_spec(spec_path)
    assert spec.steerable_K == 4 and spec.max_bandwidth() == 8

    report = tmp_path / "check.json"
    assert run("check", "--spec", spec_path, "--n-max", "8",
               "--out", report) == 0
    doc = io.read_report(report)
    assert doc["is_frame_on_range"] is True
    assert doc["C1"] > 0


def test_build_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert run("build", "--kind", "curvelet", "--d", "4", "--J", "3",
                   "--out", p) == 0
    assert p1.read_bytes() == p2.read_bytes()
    spec = io.read_spec(p1)
    assert np.array_equal(spec.base_rotation, C.make_g0(4))


def test_build_zonal_invariance(tmp_path):
    spec_path = tmp_path / "z.json"
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "5",
               "--out", spec_path) == 0
    assert F.invariance_order(io.read_spec(spec_path)) == 2  # d - 1


def test_build_wavelet_d3_is_input_error(tmp_path):
    assert run("build", "--kind", "wavelet", "--d", "3", "--K", "2",
               "--J", "2", "--out", tmp_path / "x.json") == cli.EXIT_INPUT


def test_build_from_file_round_trip(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "2",
               "--out", first) == 0
    assert run("build", "--kind", "from-file", "--input", first,
               "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_check_detects_profile_gap(tmp_path):
    spec_path = tmp_path / "gap.json"
    spec = C.zonal_spec(3, 2)
    del spec.scales[2].coeffs[(3, (0,))]
    io.write_spec(spec, spec_path)
    assert run("check", "--spec", spec_path, "--n-max", "4") == cli.EXIT_VALIDATION


def test_dual_and_dual_check(tmp_path):
    spec_path = tmp_path / "w.json"
    dual_path = tmp_path / "wd.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2",
               "--J", "3", "--window", "kappa2", "--out", spec_path) == 0
    assert run("dual", "--spec", spec_path, "--n-max", "8",
               "--out", dual_path) == 0
    report = tmp_path / "dc.json"
    assert run("check", "--spec", spec_path, "--dual", dual_path,
               "--n-max", "8", "--out", report) == 0
    assert io.read_report(report)["dual_max_residual"] < 1e-12
    # a non-dual pair fails with exit code 1
    assert run("check", "--spec", spec_path, "--dual", spec_path,
               "--n-max", "8") == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ("reconstruct", "--spec", "{w}", "--random", "12", "--seed", "1", "--out", "{out}"),
    # scale 3's grid of 61,965 rotations is over this cap, the signal's 819 terms are not
    ("reconstruct", "--spec", "{w}", "--random", "12", "--seed", "1", "--max-nodes", "1000",
     "--out", "{out}"),
    ("dual", "--spec", "{w}", "--n-max", "20", "--out", "{out}"),
])
def test_degrees_above_the_top_bandwidth_fail_validation(tmp_path, capsys, monkeypatch,
                                                        argv):
    # the top bandwidth is 8, and sigma vanishes above it; the spec alone
    # decides that, so no grid is built
    spec_path, out = tmp_path / "w.json", tmp_path / "out.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4", "--J", "3",
               "--window", "kappa2", "--out", spec_path) == 0
    capsys.readouterr()
    monkeypatch.setattr(F, "build_system", lambda *a, **k: pytest.fail("built a system"))
    assert run(*[a.format(w=spec_path, out=out) for a in argv]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation failure: sigma vanishes at degree 9; "
        "the system is not a frame on the requested range\n")
    assert not out.exists()


def test_reconstruct_command(tmp_path):
    spec_path = tmp_path / "w.json"
    report = tmp_path / "rec.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2",
               "--J", "2", "--window", "kappa2", "--out", spec_path) == 0
    assert run("reconstruct", "--spec", spec_path, "--random", "4",
               "--seed", "11", "--out", report) == 0
    doc = io.read_report(report)
    assert doc["seed"] == 11
    assert doc["relative_coefficient_error"] < 1e-9
    assert doc["parseval_rel_gap"] < 1e-10
    assert doc["grid_variant"] == "steerable_so_d2"


def test_reconstruct_capacity_exit_code(tmp_path):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "4", "--out", spec_path) == 0
    assert run("reconstruct", "--spec", spec_path, "--random", "4",
               "--max-nodes", "100") == cli.EXIT_CAPACITY


def peak_of(call):
    """(result, tracemalloc peak in bytes) of call()."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_check_caps_its_profile_before_allocation(tmp_path, capsys, monkeypatch):
    # the profile holds n_max + 1 degrees; the zonal spec has bandwidth 32, so
    # the profile vanishes above it and check reports no frame
    spec_path = tmp_path / "z.json"
    io.write_spec(C.zonal_spec(3, 5, "kappa1"), spec_path)
    n_max = 100_000
    for argv in (("check", "--spec", spec_path, "--n-max", n_max),
                 ("check", "--spec", spec_path, "--dual", spec_path, "--n-max", n_max)):
        monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(n_max))
        code, peak = peak_of(lambda: run(*argv))
        assert code == cli.EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: degree profile would hold {n_max + 1} nodes, exceeding the "
            f"cap {n_max}; raise SPHEREFRAME_MAX_NODES to override\n")
        assert peak < 1_000_000, peak
        monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(n_max + 1))
        assert run(*argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().out.startswith(
            f"C1=0.000000e+00 C2=1.000000e+00 frame on 0..{n_max}: False\n")


def test_reconstruct_caps_the_random_signal_before_drawing(tmp_path, capsys):
    # degree N at d = 3 has sum_{n <= N} (2n + 1) = (N + 1)^2 coefficients; the
    # grids and rules of this spec stay far below that
    spec_path = tmp_path / "z.json"
    io.write_spec(C.zonal_spec(3, 1, "kappa2"), spec_path)
    N = 200
    count = (N + 1) ** 2
    argv = ("reconstruct", "--spec", spec_path, "--random", N, "--seed", 3)
    code, peak = peak_of(lambda: run(*argv, "--max-nodes", count - 1))
    assert code == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == (
        f"capacity error: random signal would hold {count} nodes, exceeding the cap "
        f"{count - 1}; raise --max-nodes or SPHEREFRAME_MAX_NODES to override\n")
    assert peak < 1_000_000, peak
    # at the cap and without it the signal is drawn; its degrees above the
    # spec's bandwidth 2 carry no frame energy, so the round trip fails validation
    failure = ("validation failure: sigma vanishes at degree 3; "
               "the system is not a frame on the requested range\n")
    assert run(*argv, "--max-nodes", count) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == failure
    assert run(*argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == failure


def test_reconstruct_takes_sigma_only_up_to_the_signal_coefficients(tmp_path, monkeypatch):
    # a sparse signal of huge N_f: the profile is taken up to degree 2 only
    spec_path = tmp_path / "z.json"
    sig_path = tmp_path / "f.json"
    io.write_spec(C.zonal_spec(3, 2, "kappa2"), spec_path)
    io.write_signal(F.Signal(3, 10 ** 6, {(1, (0,)): 0.6, (2, (-1,)): 0.8j}), sig_path)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "100000")
    report = tmp_path / "rec.json"
    assert run("reconstruct", "--spec", spec_path, "--signal", sig_path, "--out", report) == 0
    doc = io.read_report(report)
    assert doc["signal_degree"] == 10 ** 6
    assert doc["relative_coefficient_error"] < 1e-12
    assert doc["parseval_rel_gap"] < 1e-12


@pytest.mark.parametrize("argv", [
    ("build", "--kind", "zonal", "--d", "3", "--J", "64"),
    ("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "40"),
    ("build", "--kind", "curvelet", "--d", "4", "--J", "64"),
])
def test_build_caps_its_scales_before_building(tmp_path, capsys, argv):
    # scales 0..J visit about 2^(J+1) degrees, far over the default cap
    code, peak = peak_of(lambda: run(*argv, "--out", tmp_path / "s.json"))
    assert code == cli.EXIT_CAPACITY
    J = int(argv[-1])
    assert capsys.readouterr().err == (
        f"capacity error: scales 0..{J} would hold {2 ** (J + 1) - 1} nodes, exceeding "
        f"the cap 10000000; raise SPHEREFRAME_MAX_NODES to override\n")
    assert peak < 1_000_000, peak
    assert not (tmp_path / "s.json").exists()


def test_build_runs_at_its_cap(tmp_path, monkeypatch):
    want = tmp_path / "want.json"
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "5", "--out", want) == 0
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "63")  # 2^6 - 1 degrees
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "5",
               "--out", tmp_path / "got.json") == 0
    assert (tmp_path / "got.json").read_bytes() == want.read_bytes()
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "62")
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "5",
               "--out", tmp_path / "over.json") == cli.EXIT_CAPACITY


def test_reconstruct_with_signal_file(tmp_path):
    spec_path = tmp_path / "z.json"
    sig_path = tmp_path / "f.json"
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "3",
               "--window", "kappa2", "--out", spec_path) == 0
    io.write_signal(F.random_signal(3, 6, seed=4), sig_path)
    report = tmp_path / "rec.json"
    assert run("reconstruct", "--spec", spec_path, "--signal", sig_path,
               "--out", report) == 0
    assert io.read_report(report)["relative_coefficient_error"] < 1e-9


def test_localize_command(tmp_path):
    spec_path = tmp_path / "w.json"
    report = tmp_path / "loc.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "4", "--out", spec_path) == 0
    assert run("localize", "--spec", spec_path, "--scales", "3..4",
               "--out", report) == 0
    rows = io.read_report(report)["scales"]
    assert [r["j"] for r in rows] == [3, 4]
    for r in rows:
        assert r["uncertainty_product"] >= 2.25 * (1 - 1e-10)


def test_autocorr_command(tmp_path):
    spec_path = tmp_path / "w.json"
    report = tmp_path / "ac.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "3", "--out", spec_path) == 0
    assert run("autocorr", "--spec", spec_path, "--j", "3",
               "--angles", "7", "--out", report) == 0
    rows = io.read_report(report)["rows"]
    assert len(rows) == 7
    assert all(abs(r["gap"]) < 1e-8 for r in rows if "gap" in r)


def test_autocorr_caps_its_sweep_before_allocation(tmp_path, capsys, monkeypatch):
    # the sweep evaluates the scale at (angles + 1) copies of its rule
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
               "--out", spec_path) == 0
    count = 6 * Q.sphere_size(4, io.read_spec(spec_path).scales[1].bandwidth)
    capsys.readouterr()
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(count - 1))
    tracemalloc.start()
    try:
        code = run("autocorr", "--spec", spec_path, "--j", "1", "--angles", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err == (f"capacity error: autocorrelation sweep would hold {count} nodes, "
                   f"exceeding the cap {count - 1}; raise SPHEREFRAME_MAX_NODES to override\n")
    assert peak < 1_000_000, peak
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(count))
    assert run("autocorr", "--spec", spec_path, "--j", "1", "--angles", "5") == 0
    # a million angles would need a 128 MB rotation stack: the cap comes first
    count = (10**6 + 1) * (count // 6)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", str(count - 1))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run("autocorr", "--spec", spec_path, "--j", "1", "--angles", str(10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CAPACITY
    assert f"autocorrelation sweep would hold {count} nodes" in capsys.readouterr().err
    assert peak < 1_000_000, peak


def test_localize_marks_an_undefined_variance_per_scale(tmp_path, capsys):
    spec_path = tmp_path / "w.json"
    report = tmp_path / "loc.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "7", "--window", "kappa1", "--out", spec_path) == 0
    capsys.readouterr()
    assert run("localize", "--spec", spec_path, "--scales", "0..2",
               "--out", report) == 0
    table = capsys.readouterr().out.splitlines()[1:]
    rows = io.read_report(report)["scales"]
    assert [r["j"] for r in rows] == [0, 1, 2]
    for line, r in zip(table[:2], rows[:2]):
        assert r["var_space"] is None and r["uncertainty_product"] is None
        assert r["var_momentum"] is not None and len(r["xi0_vec"]) == 4
        assert line.split()[4:6] == ["undefined", "undefined"]
        assert line.split()[-1] == "undefined"
    # a defined scale reads as it does on its own
    (record,) = diagnostics.localization_report(io.read_spec(spec_path), [2])
    assert rows[2]["var_space"] == record.var_space
    assert rows[2]["uncertainty_product"] == record.uncertainty_product
    assert "undefined" not in table[2]


def test_figure_command_formats(tmp_path):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "3", "--out", spec_path) == 0
    pgm = tmp_path / "f.pgm"
    assert run("figure", "--spec", spec_path, "--j", "3",
               "--resolution", "32", "--format", "pgm", "--out", pgm) == 0
    assert pgm.read_bytes().startswith(b"P5\n32 32\n255\n")
    csv = tmp_path / "f.csv"
    assert run("figure", "--spec", spec_path, "--j", "3",
               "--resolution", "16", "--format", "csv", "--out", csv) == 0
    assert csv.read_text().startswith("t/phi,")


def test_figure_warns_on_noninvariant_spec(tmp_path, capsys):
    spec_path = tmp_path / "odd.json"
    spec = F.FrameSpec(4, [F.Scale(0, 2, {(2, (2, 1)): 1.0})])
    io.write_spec(spec, spec_path)
    assert run("figure", "--spec", spec_path, "--j", "0",
               "--resolution", "8", "--out", tmp_path / "o.csv") == 0
    assert "warning" in capsys.readouterr().err


def test_figure_warns_from_the_structure_its_grids_use(tmp_path, capsys):
    # w3 moved by a signed permutation, untagged: its invariance is unknown,
    # and its section does depend on eta''
    spec = C.wavelet_spec(4, 4, 3, "kappa2")
    io.write_spec(spec, tmp_path / "w3.json")
    io.write_spec(F.FrameSpec(4, spec.scales, base_rotation=C.make_g0(4)),
                  tmp_path / "moved.json")
    capsys.readouterr()
    for name, warns in (("w3", False), ("moved", True)):
        for eta in ("1,0", "0,1"):
            assert run("figure", "--spec", tmp_path / f"{name}.json", "--j", "3",
                       "--resolution", "16", f"--eta-dprime={eta}",
                       "--out", tmp_path / f"{name}_{eta}.csv") == 0
            assert ("warning" in capsys.readouterr().err) == warns
        first, second = ((tmp_path / f"{name}_{eta}.csv").read_bytes() for eta in ("1,0", "0,1"))
        assert (first != second) == warns


def test_quadinfo_exports_grid(tmp_path):
    grid_path = tmp_path / "g.json"
    assert run("quadinfo", "--d", "4", "--N", "2", "--variant",
               "steerable_so_d2", "--K", "2", "--out", grid_path) == 0
    rule = io.read_grid(grid_path)
    assert len(rule) > 0 and abs(rule.weights.sum() - 1.0) < 1e-13


def test_figure_caps_its_sample_before_evaluating(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
               "--out", spec_path) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1000")
    monkeypatch.setattr(C, "ExpansionEvaluator", lambda *a: pytest.fail("evaluated"))
    assert run("figure", "--spec", spec_path, "--j", "1", "--resolution", "64",
               "--out", tmp_path / "f.csv") == cli.EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity error: polar sample would hold 4096")
    assert not (tmp_path / "f.csv").exists()


def test_quadinfo_capacity(tmp_path):
    assert run("quadinfo", "--d", "4", "--N", "8", "--variant", "general",
               "--max-nodes", "1000") == cli.EXIT_CAPACITY


def test_quadinfo_checks_K_before_printing(capsys):
    assert run("quadinfo", "--d", "4", "--N", "3", "--variant", "steerable",
               "--K", "-2") == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: K must be nonnegative, got -2\n"


def test_quadinfo_caps_its_sphere_rule_before_printing(capsys, monkeypatch):
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1000")
    assert run("quadinfo", "--d", "4", "--N", "20",
               "--variant", "zonal") == cli.EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity error: sphere rule would hold 18081")


def test_max_nodes_beats_the_environment_on_the_inner_grid(capsys, monkeypatch):
    # the d = 4 general grid of class 1 is 12 sphere nodes times the 18 of its
    # recursive SO(3) grid, which the flag must reach too
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "10")
    assert run("quadinfo", "--d", "4", "--N", "1", "--variant", "general",
               "--max-nodes", "1000000") == 0
    assert ": 216 rotations, weight sum " in capsys.readouterr().out


def test_max_nodes_beats_the_environment_on_the_degree_profiles(tmp_path, monkeypatch):
    spec_path = tmp_path / "z5.json"
    assert run("build", "--kind", "zonal", "--d", "3", "--J", "5", "--window", "kappa2",
               "--out", spec_path) == 0
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "20")  # a degree profile of z5 holds 33
    assert run("reconstruct", "--spec", spec_path, "--random", "1",
               "--max-nodes", "100000000") == 0


def test_flags_hold_for_their_command_only(monkeypatch):
    hardware = max(1, os.cpu_count() or 1)
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "777")
    assert run("--threads", "1", "quadinfo", "--d", "3", "--N", "1") == 0
    assert _config.worker_count() == hardware
    assert run("--threads", "1", "quadinfo", "--d", "4", "--N", "2",
               "--max-nodes", "5") == cli.EXIT_CAPACITY
    assert _config.worker_count() == hardware
    assert _config.node_cap() == 777


def test_autocorr_is_the_same_at_one_and_two_threads(tmp_path, capsys):
    # autocorr is the only command whose work --threads splits
    spec_path = tmp_path / "c5.json"
    assert run("build", "--kind", "curvelet", "--d", "4", "--J", "5", "--out", spec_path) == 0
    outputs = []
    for threads in (1, 2):
        report = tmp_path / f"ac_{threads}.json"
        capsys.readouterr()
        assert run("--threads", threads, "autocorr", "--spec", spec_path, "--j", "4",
                   "--angles", "32", "--out", report) == 0
        outputs.append((capsys.readouterr(), report.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ("figure", "--spec", "{w}", "--j", "1", "--resolution", "64", "--out", "{tmp}/f.csv"),
    ("localize", "--spec", "{w}", "--scales", "2"),
    ("autocorr", "--spec", "{w}", "--j", "2"),
    ("reconstruct", "--spec", "{w}", "--random", "4"),
    ("build", "--kind", "zonal", "--J", "5", "--out", "{tmp}/z.json"),
])
def test_capacity_error_names_only_the_overrides_the_command_accepts(
        tmp_path, capsys, monkeypatch, argv):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
               "--out", spec_path) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "30")  # the center of mass of scale 2 holds 200
    assert run(*[a.format(w=spec_path, tmp=tmp_path) for a in argv]) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1, err
    if argv[0] == "reconstruct":
        assert err.endswith("; raise --max-nodes or SPHEREFRAME_MAX_NODES to override\n")
    else:
        assert err.endswith("; raise SPHEREFRAME_MAX_NODES to override\n")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 4.31 GiB for an array with shape (1785, 162129)",
     "capacity error: out of memory (Unable to allocate 4.31 GiB for an array with shape "
     "(1785, 162129))\n"),
    ("", "capacity error: out of memory\n"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("module, argv", [
    (Q, ("quadinfo", "--d", "4", "--N", "2", "--out", "{tmp}/g.json")),
    (F, ("reconstruct", "--spec", "{w}", "--random", "2")),
], ids=["quadinfo", "reconstruct"])
def test_out_of_memory_is_one_capacity_line(tmp_path, capsys, monkeypatch,
                                            module, argv, message, line):
    spec_path = tmp_path / "w.json"
    io.write_spec(C.wavelet_spec(4, 4, 2, "kappa2"), spec_path)

    def rotation_rule(*args, **kwargs):  # a grid within the node cap, beyond the machine
        raise MemoryError(message)

    monkeypatch.setattr(module, "rotation_rule", rotation_rule)
    capsys.readouterr()
    assert run(*[a.format(w=spec_path, tmp=tmp_path) for a in argv]) == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == line


def test_missing_file_is_input_error(tmp_path):
    assert run("check", "--spec", tmp_path / "nope.json",
               "--n-max", "4") == cli.EXIT_INPUT


def test_parse_error_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run("check", "--spec", bad, "--n-max", "4") == cli.EXIT_INPUT


@pytest.mark.parametrize("env, argv", [
    ({"SPHEREFRAME_MAX_NODES": "abc"}, ("quadinfo", "--d", "4", "--N", "2")),
    ({}, ("localize", "--spec", "{w}", "--scales", "1..x")),
    ({}, ("localize", "--spec", "{w}", "--scales", "1..9")),
    ({}, ("autocorr", "--spec", "{w}", "--j", "9")),
    ({}, ("check", "--spec", "{w}", "--n-max", "-1")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--resolution", "0",
          "--out", "{tmp}/f.csv")),
    ({}, ("figure", "--spec", "{w}", "--j", "9", "--out", "{tmp}/f.csv")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "-1")),
    ({}, ("check", "--spec", "{tmp}/nan.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/inf.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/nan_signal.json")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/inf_signal.json")),
    ({}, ("autocorr", "--spec", "{w}", "--j", "1", "--angles", "0")),
    ({}, ("autocorr", "--spec", "{w}", "--j", "1", "--angles", "-3")),
    ({}, ("dual", "--spec", "{w}", "--n-max", "-1", "--out", "{tmp}/d.json")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "2", "--n-out", "-1")),
    ({}, ("localize", "--spec", "{w}", "--scales", "3..1")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--t-max", "nan", "--out", "{tmp}/f.csv")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--t-max", "inf", "--out", "{tmp}/f.csv")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--t-max", "0", "--out", "{tmp}/f.csv")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--t-max", "-1", "--out", "{tmp}/f.csv")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "2", "--max-nodes", "0")),
    ({}, ("quadinfo", "--d", "4", "--N", "2", "--max-nodes", "0")),
    ({"SPHEREFRAME_MAX_NODES": "0"}, ("quadinfo", "--d", "4", "--N", "2")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "2", "--grid", "zonal")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "2", "--grid", "steerable",
          "--K", "1")),
    ({}, ("reconstruct", "--spec", "{w}", "--random", "2", "--grid", "steerable_so_d2",
          "--K", "2")),
    ({}, ("reconstruct", "--spec", "{tmp}/scaled.json", "--random", "2",
          "--grid", "general")),
    ({}, ("localize", "--spec", "{tmp}/nan_rotation.json")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/low_signal.json")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/negative_signal.json")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--eta-dprime", "a,b",
          "--out", "{tmp}/f.csv")),
    ({}, ("figure", "--spec", "{w}", "--j", "1", "--eta-dprime", "nan,1",
          "--out", "{tmp}/f.csv")),
    ({}, ("check", "--spec", "{w}", "--dual", "{tmp}/dual.json", "--n-max", "8",
          "--tol", "-1")),
    ({}, ("check", "--spec", "{w}", "--dual", "{tmp}/dual.json", "--n-max", "8",
          "--tol", "nan")),
    ({}, ("build", "--kind", "zonal", "--d", "3", "--J", "2", "--out", "{tmp}")),
    ({}, ("check", "--spec", "{w}", "--n-max", "4", "--out", "{tmp}")),
    ({}, ("localize", "--spec", "{tmp}")),
    ({}, ("build", "--kind", "zonal", "--J", "-1", "--out", "{tmp}/z.json")),
    ({}, ("build", "--kind", "wavelet", "--K", "-1", "--J", "2", "--out", "{tmp}/k.json")),
    ({}, ("check", "--spec", "{tmp}/negative_K.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/negative_m.json", "--n-max", "8")),
    ({}, ("--threads", "0", "check", "--spec", "{w}", "--n-max", "4")),
    ({}, ("--threads", "-1", "check", "--spec", "{w}", "--n-max", "4")),
    ({}, ("check", "--spec", "{tmp}/float_n.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/float_k.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/bool_k.json", "--n-max", "8")),
    ({}, ("quadinfo", "--d", "4", "--N", "3", "--variant", "steerable", "--K", "-2")),
    ({}, ("reconstruct", "--spec", "{tmp}/zonal.json", "--random", "2", "--grid", "zonal",
          "--K", "-3")),
    ({}, ("check", "--spec", "{w}", "--dual", "{tmp}/short_dual.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{tmp}/steer_1.json", "--random", "4")),
    ({}, ("reconstruct", "--spec", "{tmp}/inv_3.json", "--random", "4")),
    ({}, ("reconstruct", "--spec", "{tmp}/inv_7.json", "--random", "2",
          "--grid", "so_d2_invariant")),
    ({}, ("check", "--spec", "{tmp}/float_d.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/float_N.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{tmp}/bool_K.json", "--random", "2")),
    ({}, ("check", "--spec", "{tmp}/list_meta.json", "--n-max", "8")),
    ({}, ("check", "--spec", "{tmp}/text_g0.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{tmp}/reflected_g0.json", "--random", "2")),
    ({}, ("autocorr", "--spec", "{tmp}/reflected_g0.json", "--j", "1")),
    ({}, ("check", "--spec", "{tmp}/utf16.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/deep.json")),
    ({}, ("check", "--spec", "{tmp}/huge.json", "--n-max", "8")),
    ({}, ("reconstruct", "--spec", "{tmp}/huge.json", "--random", "2")),
    ({}, ("localize", "--spec", "{tmp}/huge.json")),
    ({}, ("autocorr", "--spec", "{tmp}/huge.json", "--j", "1")),
    ({}, ("reconstruct", "--spec", "{w}", "--signal", "{tmp}/huge_signal.json")),
])
def test_bad_input_is_one_line_input_error(tmp_path, capsys, monkeypatch, env, argv):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "3", "--window", "kappa2", "--out", spec_path) == 0
    for name, bad in (("nan", math.nan), ("inf", math.inf)):
        spec = io.read_spec(spec_path)
        spec.scales[2].coeffs[next(iter(spec.scales[2].coeffs))] = bad
        io.write_spec(spec, tmp_path / f"{name}.json")
        io.write_signal(F.Signal(4, 0, {(0, (0, 0)): complex(1.0, bad)}),
                        tmp_path / f"{name}_signal.json")
    spec = io.read_spec(spec_path)
    io.write_spec(F.canonical_dual(spec), tmp_path / "dual.json")
    short = C.wavelet_spec(4, 4, 2, "kappa2")  # one scale fewer than w
    io.write_spec(F.canonical_dual(short), tmp_path / "short_dual.json")
    io.write_spec(C.zonal_spec(3, 2, "kappa2"), tmp_path / "zonal.json")
    for name, tag in (("negative_K", "steerable_K"), ("negative_m", "invariant_m")):
        io.write_spec(dataclasses.replace(spec, **{tag: -1}), tmp_path / f"{name}.json")
    nan_rotation = np.eye(4)
    nan_rotation[0, 1] = math.nan
    for name, g in (("scaled", np.diag([2.0, 1.0, 1.0, 1.0])), ("nan_rotation", nan_rotation)):
        spec.base_rotation = g
        io.write_spec(spec, tmp_path / f"{name}.json")
    curvelet = C.curvelet_spec(4, 2)
    curvelet.base_rotation[:, 0] = -curvelet.base_rotation[:, 0]  # orthogonal, det -1
    io.write_spec(curvelet, tmp_path / "reflected_g0.json")
    for name, degree in (("low", 1), ("negative", -2)):
        io.write_signal(F.Signal(4, degree, {(3, (1, 0)): 1.0}),
                        tmp_path / f"{name}_signal.json")
    # indices that int() would read as a valid key: n 1.7, k_1 0.4 or true
    for name, (n, k1) in (("float_n", (1.7, 1)), ("float_k", (1, 0.4)),
                          ("bool_k", (1, True))):
        doc = json.loads(spec_path.read_text())
        doc["scales"][2]["coeffs"][0][:2] = [n, [k1, 0]]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # tags the table contradicts, and integer fields that int() would read as valid
    edits = {"steer_1": lambda doc: doc["metadata"].update(steerable_K=1),
             "inv_3": lambda doc: doc["metadata"].update(invariant_m=3),
             "inv_7": lambda doc: doc["metadata"].update(invariant_m=7),
             "float_d": lambda doc: doc.update(d=4.5),
             "float_N": lambda doc: doc["scales"][1].update(N_j=2.9),
             "bool_K": lambda doc: doc["metadata"].update(steerable_K=True),
             "list_meta": lambda doc: doc.update(metadata=[]),
             "text_g0": lambda doc: doc["metadata"].update(base_rotation="abc")}
    for name, edit in edits.items():
        doc = json.loads(spec_path.read_text())
        edit(doc)
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # a spec saved as UTF-16 with its byte-order mark, and JSON nested past the parser's stack
    (tmp_path / "utf16.json").write_bytes(spec_path.read_text().encode("utf-16"))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # finite coefficients whose squares overflow: the energy sum |c|^2 is infinite
    huge = io.read_spec(spec_path)
    for key in list(huge.scales[2].coeffs)[:2]:
        huge.scales[2].coeffs[key] = 1e308
    io.write_spec(huge, tmp_path / "huge.json")
    io.write_signal(F.Signal(4, 0, {(0, (0, 0)): complex(1e308, 1e308)}),
                    tmp_path / "huge_signal.json")
    capsys.readouterr()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.format(w=spec_path, tmp=tmp_path) for a in argv]
    assert run(*argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_scale_index_is_refused_by_the_library_check(tmp_path, capsys):
    spec_path = tmp_path / "w.json"
    io.write_spec(C.wavelet_spec(4, 4, 3, "kappa2"), spec_path)
    capsys.readouterr()
    for argv in (("autocorr", "--spec", spec_path, "--j", "9"),
                 ("figure", "--spec", spec_path, "--j", "-1", "--out", tmp_path / "f.csv")):
        assert run(*argv) == cli.EXIT_INPUT
        j = argv[argv.index("--j") + 1]
        assert capsys.readouterr().err == f"error: scale {j} is outside 0..3\n"


def test_reconstruct_checks_the_grid_before_building(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
               "--window", "kappa2", "--out", spec_path) == 0
    report = tmp_path / "r.json"
    assert run("reconstruct", "--spec", spec_path, "--random", "3", "--grid",
               "so_d2_invariant", "--out", report) == 0
    assert io.read_report(report)["relative_coefficient_error"] < 1e-12
    capsys.readouterr()
    monkeypatch.setattr(F, "build_system", lambda *a, **k: pytest.fail("built a system"))
    assert run("reconstruct", "--spec", spec_path, "--random", "3",
               "--grid", "steerable", "--K", "1") == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: the spec does not admit")


def test_main_builds_its_parser_once_and_parses_afresh_after_errors(tmp_path, capsys,
                                                                    monkeypatch):
    # the parser outlives a call, also one that argparse rejects (exit 2) or that
    # ends in a capacity error (exit 3); the next call prints what a new process does
    spec_path = tmp_path / "z.json"
    io.write_spec(C.zonal_spec(3, 3, "kappa2"), spec_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    argv = ["reconstruct", "--spec", str(spec_path), "--random", "6"]
    assert run(*argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for bad, want in ((["check", "--spec", str(spec_path), "--n-max"], cli.EXIT_INPUT),
                      (["--threads", "2", "reconstruct", "--spec", str(spec_path),
                        "--random", "6", "--seed", "5", "--grid", "general",
                        "--max-nodes", "10"], cli.EXIT_CAPACITY)):
        capsys.readouterr()
        try:
            code = run(*bad)
        except SystemExit as exc:
            code = exc.code
        assert code == want
        assert run(*argv) == 0
        got = capsys.readouterr()
        fresh = [subprocess.run([sys.executable, "-m", "sphereframe.cli", *args], env=env,
                                capture_output=True, text=True, timeout=120)
                 for args in (bad, argv)]
        assert [p.returncode for p in fresh] == [code, 0]
        assert got.out == fresh[0].stdout + fresh[1].stdout
        assert got.err == fresh[0].stderr + fresh[1].stderr
    assert built == []
