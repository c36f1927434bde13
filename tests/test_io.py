import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sphereframe import constructions as C
from sphereframe import frames as F
from sphereframe import harmonics as H
from sphereframe import io
from sphereframe import quadrature as Q
from sphereframe.errors import FormatError


def test_spec_round_trip_byte_identical(tmp_path):
    spec = C.curvelet_spec(4, 3)  # exercises metadata incl. base rotation
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    io.write_spec(spec, p1)
    io.write_spec(io.read_spec(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_round_trip_preserves_values(tmp_path):
    spec = C.wavelet_spec(4, 4, 4, "kappa1")
    path = tmp_path / "w.json"
    io.write_spec(spec, path)
    back = io.read_spec(path)
    assert back.d == spec.d
    assert back.steerable_K == 4 and back.invariant_m == 2
    for s1, s2 in zip(spec.scales, back.scales):
        assert s1.bandwidth == s2.bandwidth
        assert s1.coeffs == s2.coeffs


def test_signal_round_trip(tmp_path):
    f = F.random_signal(4, 5, seed=3)
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    io.write_signal(f, p1)
    back = io.read_signal(p1)
    assert back.coeffs == f.coeffs and back.degree == f.degree
    io.write_signal(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_round_trip(tmp_path):
    rule = Q.rotation_rule(4, 2, "steerable_so_d2", K=2)
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    io.write_grid(rule, p1)
    back = io.read_grid(p1)
    assert np.array_equal(back.rotations, rule.rotations)
    assert np.array_equal(back.weights, rule.weights)
    assert back.variant == rule.variant and back.steer_K == 2
    io.write_grid(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def grid_cases():
    for d in (2, 3, 4, 5):
        for variant in Q.VARIANTS if d > 2 else ("general",):
            for N in range(3 if d < 5 else 2):
                for K in range(N + 1) if variant.startswith("steerable") else (None,):
                    yield d, variant, N, K


def test_grid_writer_matches_the_json_encoder(tmp_path):
    path = tmp_path / "g.json"
    signed_zero = False
    for d, variant, N, K in grid_cases():
        rule = Q.rotation_rule(d, N, variant, K=K)
        io.write_grid(rule, path)
        assert path.read_text() == json.dumps(oracle.grid_to_dict(rule), indent=2) + "\n", \
            (d, variant, N, K)
        signed_zero |= bool(np.any(np.signbit(rule.rotations) & (rule.rotations == 0)))
    assert signed_zero  # the d=2 general grids export a -0.0


def test_grid_rejects_nonpositive_weights(tmp_path):
    rule = Q.rotation_rule(3, 1, "zonal")
    doc = oracle.grid_to_dict(rule)
    doc["weights"][0] = 0.0
    with pytest.raises(FormatError):
        io.grid_from_dict(doc)


def test_grid_rejects_rotations_off_the_declared_rule():
    # a grid file is read back as the rule it declares
    doc = oracle.grid_to_dict(Q.rotation_rule(3, 1, "zonal"))
    doc["rotations"][1][0] += 1e-15
    with pytest.raises(FormatError, match="differ from the declared zonal grid"):
        io.grid_from_dict(doc)


def test_report_round_trip(tmp_path):
    path = tmp_path / "r.json"
    io.write_report({"command": "check", "C1": 1.0}, path)
    doc = io.read_report(path)
    assert doc["command"] == "check" and doc["C1"] == 1.0


def test_kind_mismatch_raises(tmp_path):
    path = tmp_path / "x.json"
    io.write_report({"command": "check"}, path)
    with pytest.raises(FormatError):
        io.read_spec(path)


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(FormatError):
        io.read_spec(path)


def test_polar_csv_and_pgm(tmp_path):
    spec = C.wavelet_spec(4, 4, 4, "kappa1")
    grid = C.polar_sample(spec, 3, t_res=32, phi_res=40)
    csv_path = tmp_path / "g.csv"
    io.write_polar_csv(grid, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 33  # header + one row per t
    assert lines[0].startswith("t/phi,")
    assert len(lines[1].split(",")) == 41
    # values survive the text round trip exactly
    row5 = np.array([float(v) for v in lines[6].split(",")[1:]])
    assert np.array_equal(row5, grid.values[5])

    pgm_path = tmp_path / "g.pgm"
    io.write_polar_pgm(grid, pgm_path)
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n40 32\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.size == 32 * 40
    # the rescaled extreme (magnitude 1) maps to an endpoint of the gray range
    assert pixels.max() == 255 or pixels.min() == 0


def test_pgm_rounding_half_away_from_zero(tmp_path):
    g = C.PolarGrid(np.array([0.0]), np.array([0.0, 0.0, 0.0]),
                    np.array([[-1.0, 1.0 / 255.0, 1.0]]), 1.0)
    path = tmp_path / "p.pgm"
    io.write_polar_pgm(g, path)
    vals = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    # (1/255 + 1) * 127.5 = 128.0 exactly -> rounds to 128
    assert list(vals) == [0, 128, 255]


# -- write -> read -> write of random documents --------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    keys = [(n, k) for n in range(4) for k in H.index_set(d, n)]
    scales = []
    for j in range(draw(st.integers(0, 3))):
        chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
        scales.append(F.Scale(j, 3, {key: complex(draw(finite), draw(finite))
                                     for key in chosen}))
    tag = st.none() | st.integers(0, d)
    base = None
    if draw(st.booleans()):
        base = oracle.random_rotation(d, np.random.default_rng(draw(st.integers(0, 99))))
    return F.FrameSpec(d, scales, draw(tag), draw(tag), base)


@st.composite
def signals(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    degree = draw(st.integers(0, 4))
    keys = [(n, k) for n in range(degree + 1) for k in H.index_set(d, n)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=8, unique=True))
    return F.Signal(d, degree, {key: complex(draw(finite), draw(finite))
                                for key in chosen})


@settings(max_examples=50, deadline=None)
@given(specs())
def test_random_spec_write_read_write_is_byte_identical(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("spec")
    io.write_spec(spec, tmp / "a.json")
    back = io.read_spec(tmp / "a.json")
    io.write_spec(back, tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    assert back.scales == [F.Scale(s.j, s.bandwidth, {k: complex(c) for k, c in
                                                      s.coeffs.items()})
                           for s in spec.scales]


@settings(max_examples=50, deadline=None)
@given(signals())
def test_random_signal_write_read_write_is_byte_identical(tmp_path_factory, signal):
    tmp = tmp_path_factory.mktemp("signal")
    io.write_signal(signal, tmp / "a.json")
    back = io.read_signal(tmp / "a.json")
    io.write_signal(back, tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    assert back.coeffs == signal.coeffs and back.degree == signal.degree


@pytest.mark.parametrize("block", [1, 3, 7])
def test_grid_writer_blocks_join_to_the_encoder_bytes(tmp_path, monkeypatch, block):
    # 75 rotations: full blocks, a short last block, and single-row blocks
    monkeypatch.setattr(io, "GRID_BLOCK_ROWS", block)
    rule = Q.rotation_rule(3, 2, "general")
    path = tmp_path / "g.json"
    io.write_grid(rule, path)
    assert path.read_text() == json.dumps(oracle.grid_to_dict(rule), indent=2) + "\n"
