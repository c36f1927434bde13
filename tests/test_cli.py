import json

import numpy as np
import pytest

from sphereframe import cli, io
from sphereframe import constructions as C


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
    from sphereframe import frames as F
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
    from sphereframe import frames as F
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


def test_quadinfo_capacity(tmp_path):
    assert run("quadinfo", "--d", "4", "--N", "8", "--variant", "general",
               "--max-nodes", "1000") == cli.EXIT_CAPACITY


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
])
def test_bad_input_is_one_line_input_error(tmp_path, capsys, monkeypatch, env, argv):
    spec_path = tmp_path / "w.json"
    assert run("build", "--kind", "wavelet", "--d", "4", "--K", "4",
               "--J", "3", "--window", "kappa2", "--out", spec_path) == 0
    capsys.readouterr()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.format(w=spec_path, tmp=tmp_path) for a in argv]
    assert run(*argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
