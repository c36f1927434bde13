import dataclasses
import json
import math

import numpy as np
import pytest

from sphereframe import cli, io
from sphereframe import constructions as C
from sphereframe import frames as F


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
    from sphereframe import diagnostics as D
    assert D.invariance_order(io.read_spec(spec_path)) == 2  # d - 1


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


def test_quadinfo_caps_its_sphere_rule_before_printing(capsys, monkeypatch):
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "1000")
    assert run("quadinfo", "--d", "4", "--N", "20",
               "--variant", "zonal") == cli.EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity error: sphere rule would hold 18081")


@pytest.mark.parametrize("argv", [
    ("figure", "--spec", "{w}", "--j", "1", "--resolution", "64", "--out", "{tmp}/f.csv"),
    ("localize", "--spec", "{w}", "--scales", "2"),
    ("autocorr", "--spec", "{w}", "--j", "2"),
    ("reconstruct", "--spec", "{w}", "--random", "4"),
])
def test_capacity_error_names_only_the_overrides_the_command_accepts(
        tmp_path, capsys, monkeypatch, argv):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "2", "--J", "2",
               "--out", spec_path) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPHEREFRAME_MAX_NODES", "30")  # the polar rule of scale 2 has 36
    assert run(*[a.format(w=spec_path, tmp=tmp_path) for a in argv]) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1, err
    if argv[0] == "reconstruct":
        assert err.endswith("; raise --max-nodes or SPHEREFRAME_MAX_NODES to override\n")
    else:
        assert err.endswith("; raise SPHEREFRAME_MAX_NODES to override\n")


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
    for name, tag in (("negative_K", "steerable_K"), ("negative_m", "invariant_m")):
        io.write_spec(dataclasses.replace(spec, **{tag: -1}), tmp_path / f"{name}.json")
    nan_rotation = np.eye(4)
    nan_rotation[0, 1] = math.nan
    for name, g in (("scaled", np.diag([2.0, 1.0, 1.0, 1.0])), ("nan_rotation", nan_rotation)):
        spec.base_rotation = g
        io.write_spec(spec, tmp_path / f"{name}.json")
    for name, degree in (("low", 1), ("negative", -2)):
        io.write_signal(F.Signal(4, degree, {(3, (1, 0)): 1.0}),
                        tmp_path / f"{name}_signal.json")
    # indices that int() would read as a valid key: n 1.7, k_1 0.4 or true
    for name, (n, k1) in (("float_n", (1.7, 1)), ("float_k", (1, 0.4)),
                          ("bool_k", (1, True))):
        doc = json.loads(spec_path.read_text())
        doc["scales"][2]["coeffs"][0][:2] = [n, [k1, 0]]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    capsys.readouterr()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.format(w=spec_path, tmp=tmp_path) for a in argv]
    assert run(*argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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
