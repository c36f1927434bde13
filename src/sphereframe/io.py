"""File formats.

Every artifact is a JSON document with a version field; floats are written
with Python's shortest round-trip rendering, so write -> read -> write is
byte-identical.  Polar grids additionally export as CSV and as binary PGM.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

import numpy as np

from .constructions import PolarGrid
from .errors import FormatError
from .frames import FrameSpec, Scale, Signal
from .quadrature import RotationRule, rotation_rule

FORMAT_VERSION = 1


def _dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def _expect(doc: dict, kind: str, path) -> None:
    if doc.get("kind") != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {doc.get('version')!r}")


def _coeff_rows(coeffs: dict) -> list:
    rows = []
    for (n, k), c in sorted(coeffs.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        c = complex(c)
        rows.append([int(n), [int(v) for v in k], c.real, c.imag])
    return rows


def _coeffs_from_rows(rows) -> dict:
    """Parse coefficient rows; the callers prefix the file name to errors."""
    coeffs = {}
    for row in rows:
        try:
            n, k, re, im = row
            c = complex(float(re), float(im))
            coeffs[(int(n), tuple(int(v) for v in k))] = c
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed coefficient row {row!r}") from exc
        if not cmath.isfinite(c):
            raise FormatError(f"non-finite coefficient in row {row!r}")
    return coeffs


# -- frame specs -------------------------------------------------------------

def spec_to_dict(spec: FrameSpec) -> dict:
    metadata = {}
    if spec.steerable_K is not None:
        metadata["steerable_K"] = int(spec.steerable_K)
    if spec.invariant_m is not None:
        metadata["invariant_m"] = int(spec.invariant_m)
    if spec.base_rotation is not None:
        metadata["base_rotation"] = [[float(v) for v in row]
                                     for row in np.asarray(spec.base_rotation)]
    return {
        "version": FORMAT_VERSION,
        "kind": "frame_spec",
        "d": int(spec.d),
        "metadata": metadata,
        "scales": [{"j": int(s.j), "N_j": int(s.bandwidth),
                    "coeffs": _coeff_rows(s.coeffs)} for s in spec.scales],
    }


def spec_from_dict(doc: dict, path="<doc>") -> FrameSpec:
    _expect(doc, "frame_spec", path)
    try:
        d = int(doc["d"])
        meta = doc.get("metadata", {})
        scales = [Scale(int(s["j"]), int(s["N_j"]),
                        _coeffs_from_rows(s["coeffs"]))
                  for s in doc["scales"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed frame spec ({exc})") from exc
    base = meta.get("base_rotation")
    spec = FrameSpec(
        d, scales,
        steerable_K=None if meta.get("steerable_K") is None else int(meta["steerable_K"]),
        invariant_m=None if meta.get("invariant_m") is None else int(meta["invariant_m"]),
        base_rotation=None if base is None else np.asarray(base, dtype=float))
    spec.validate()
    return spec


def write_spec(spec: FrameSpec, path) -> None:
    _dump(spec_to_dict(spec), path)


def read_spec(path) -> FrameSpec:
    return spec_from_dict(_load(path), path)


# -- signals -----------------------------------------------------------------

def signal_to_dict(signal: Signal) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "signal",
        "d": int(signal.d),
        "N_f": int(signal.degree),
        "coeffs": _coeff_rows(signal.coeffs),
    }


def signal_from_dict(doc: dict, path="<doc>") -> Signal:
    _expect(doc, "signal", path)
    try:
        signal = Signal(int(doc["d"]), int(doc["N_f"]),
                        _coeffs_from_rows(doc["coeffs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed signal ({exc})") from exc
    if signal.degree < 0:
        raise FormatError(f"{path}: N_f must be nonnegative, got {signal.degree}")
    top = max((n for n, _ in signal.coeffs), default=0)
    if top > signal.degree:
        raise FormatError(f"{path}: coefficient at degree {top} exceeds N_f {signal.degree}")
    return signal


def write_signal(signal: Signal, path) -> None:
    _dump(signal_to_dict(signal), path)


def read_signal(path) -> Signal:
    return signal_from_dict(_load(path), path)


# -- rotation grids ----------------------------------------------------------

def grid_from_dict(doc: dict, path="<doc>") -> RotationRule:
    """Rebuild the rule a grid file declares and check the file against it.

    A grid file is the export of `rotation_rule(d, class_degree, variant,
    steer_K)`; the rebuilt rule keeps the factor structure that analysis and
    synthesis need, so a file whose rotations or weights differ is rejected.
    """
    _expect(doc, "rotation_grid", path)
    try:
        rule = rotation_rule(int(doc["d"]), int(doc["class_degree"]), doc["variant"],
                             K=doc.get("steer_K"))
        rotations = np.asarray(doc["rotations"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed rotation grid ({exc})") from exc
    if not (np.array_equal(rotations, rule.rotations.reshape(len(rule), -1))
            and np.array_equal(weights, rule.weights)):
        raise FormatError(f"{path}: rotations or weights differ from the declared "
                          f"{rule.variant} grid")
    return rule


def _float_block(values: np.ndarray, indent: str) -> str:
    """The `json.dumps(values.tolist(), indent=2)` text of a 1-d or 2-d float
    array whose opening bracket sits `indent` deep.  Each distinct bit
    pattern is rendered once, with `float.__repr__` as the encoder does;
    keyed by bits, -0.0 keeps its sign."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.uint64),
                              return_inverse=True)
    text = np.array([float.__repr__(v) for v in bits.view(float).tolist()], dtype=object)
    text = text[inverse.reshape(-1)].reshape(values.shape).tolist()
    inner = indent + "  "
    if values.ndim == 1:
        return "[\n" + inner + (",\n" + inner).join(text) + "\n" + indent + "]"
    leaf = inner + "  "
    rows = ((",\n" + leaf).join(row) for row in text)
    return ("[\n" + inner + "[\n" + leaf
            + ("\n" + inner + "],\n" + inner + "[\n" + leaf).join(rows)
            + "\n" + inner + "]\n" + indent + "]")


def write_grid(rule: RotationRule, path) -> None:
    """Write the grid as `_dump` would write its document, byte for byte,
    with the float arrays rendered by `_float_block` rather than the
    pure-Python encoder that `indent` selects."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": "rotation_grid",
        "d": int(rule.d),
        "class_degree": int(rule.class_degree),
        "variant": rule.variant,
    }
    if rule.steer_K is not None:
        doc["steer_K"] = int(rule.steer_K)
    head = json.dumps(doc, indent=2)[:-2]  # without the closing "\n}"
    Path(path).write_text(
        head + ',\n  "rotations": '
        + _float_block(rule.rotations.reshape(len(rule), -1), "  ")
        + ',\n  "weights": ' + _float_block(rule.weights, "  ") + "\n}\n")


def read_grid(path) -> RotationRule:
    return grid_from_dict(_load(path), path)


# -- reports -----------------------------------------------------------------

def write_report(doc: dict, path) -> None:
    out = {"version": FORMAT_VERSION, "kind": "report"}
    out.update(doc)
    _dump(out, path)


def read_report(path) -> dict:
    doc = _load(path)
    _expect(doc, "report", path)
    return doc


# -- polar grid exports --------------------------------------------------------

def write_polar_csv(grid: PolarGrid, path) -> None:
    """Row-major CSV: header row carries the phi axis, first column the t axis."""
    lines = ["t/phi," + ",".join(repr(float(p)) for p in grid.phi)]
    for i, t in enumerate(grid.t):
        lines.append(repr(float(t)) + ","
                     + ",".join(repr(float(v)) for v in grid.values[i]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_polar_pgm(grid: PolarGrid, path) -> None:
    """8-bit binary PGM via the affine map [-1,1] -> [0,255], rounding half
    away from zero."""
    v = np.clip(grid.values, -1.0, 1.0)
    u = (v + 1.0) * 127.5
    pix = np.clip(np.floor(u + 0.5), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
