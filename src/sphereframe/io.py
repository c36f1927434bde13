"""File formats.

Every artifact is a JSON document with a version field; floats are written
with Python's shortest round-trip rendering, so write -> read -> write is
byte-identical.  Polar grids additionally export as CSV and as binary PGM.
"""

from __future__ import annotations

import cmath
import json
import math
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
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply ({exc})") from exc
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


def _index(v) -> int:
    """An integer field or coefficient index as read from JSON: an integer,
    or a float with an integral value.  Anything else, a bool or a string
    included, raises ValueError."""
    if type(v) is int or (type(v) is float and v.is_integer()):
        return int(v)
    raise ValueError(f"{v!r} is not an integer")


def _optional_index(v) -> int | None:
    return None if v is None else _index(v)


def _coeffs_from_rows(rows) -> dict:
    """Parse coefficient rows; the callers prefix the file name to errors."""
    coeffs = {}
    for row in rows:
        try:
            n, k, re, im = row
            c = complex(float(re), float(im))
            coeffs[(_index(n), tuple(_index(v) for v in k))] = c
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed coefficient row {row!r} ({exc})") from exc
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
        d = _index(doc["d"])
        meta = doc.get("metadata", {})  # not an object: AttributeError at .get
        scales = [Scale(_index(s["j"]), _index(s["N_j"]),
                        _coeffs_from_rows(s["coeffs"]))
                  for s in doc["scales"]]
        steerable_K = _optional_index(meta.get("steerable_K"))
        invariant_m = _optional_index(meta.get("invariant_m"))
        base = meta.get("base_rotation")
        base_rotation = None if base is None else np.asarray(base, dtype=float)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed frame spec ({exc})") from exc
    spec = FrameSpec(d, scales, steerable_K=steerable_K, invariant_m=invariant_m,
                     base_rotation=base_rotation)
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
        signal = Signal(_index(doc["d"]), _index(doc["N_f"]),
                        _coeffs_from_rows(doc["coeffs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed signal ({exc})") from exc
    if signal.degree < 0:
        raise FormatError(f"{path}: N_f must be nonnegative, got {signal.degree}")
    top = max((n for n, _ in signal.coeffs), default=0)
    if top > signal.degree:
        raise FormatError(f"{path}: coefficient at degree {top} exceeds N_f {signal.degree}")
    if not math.isfinite(signal.norm_sq()):
        raise FormatError(f"{path}: the signal's energy sum |c|^2 is not finite")
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
        d = _index(doc["d"])
        rotations = np.asarray(doc["rotations"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
        if rotations.ndim != 2 or rotations.shape[1] != d * d:  # before (N+1)^(d-2) nodes
            raise ValueError("its rows are not d x d matrices")
        rule = rotation_rule(d, _index(doc["class_degree"]), doc["variant"],
                             K=_optional_index(doc.get("steer_K")))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed rotation grid ({exc})") from exc
    if not (np.array_equal(rotations, rule.rotations.reshape(len(rule), -1))
            and np.array_equal(weights, rule.weights)):
        raise FormatError(f"{path}: rotations or weights differ from the declared "
                          f"{rule.variant} grid")
    return rule


GRID_BLOCK_ROWS = 4096  # rows of a grid array rendered and written at a time


def _write_floats(fh, values: np.ndarray, indent: str) -> None:
    """Write the `json.dumps(values.tolist(), indent=2)` text of a non-empty
    1-d or 2-d float array whose opening bracket sits `indent` deep, a block
    of GRID_BLOCK_ROWS rows at a time.  In each block every distinct bit
    pattern is rendered once, with `float.__repr__` as the encoder does;
    keyed by bits, -0.0 keeps its sign."""
    inner = indent + "  "
    sep = ",\n" + inner + "  "
    fh.write("[\n")
    for lo in range(0, len(values), GRID_BLOCK_ROWS):
        block = np.ascontiguousarray(values[lo:lo + GRID_BLOCK_ROWS], dtype=float)
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([float.__repr__(v) for v in bits.view(float).tolist()], dtype=object)
        rows = text[inverse.reshape(block.shape)].tolist()
        if block.ndim == 1:
            items = [inner + v for v in rows]
        else:
            items = [inner + "[" + sep[1:] + sep.join(row) + "\n" + inner + "]"
                     for row in rows]
        fh.write((",\n" if lo else "") + ",\n".join(items))
    fh.write("\n" + indent + "]")


def write_grid(rule: RotationRule, path) -> None:
    """Write the grid as `_dump` would write its document, byte for byte,
    with the float arrays rendered by `_write_floats` rather than the
    pure-Python encoder that `indent` selects, and streamed to the file a
    block of rows at a time."""
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
    with Path(path).open("w") as fh:
        fh.write(head + ',\n  "rotations": ')
        _write_floats(fh, rule.rotations.reshape(len(rule), -1), "  ")
        fh.write(',\n  "weights": ')
        _write_floats(fh, rule.weights, "  ")
        fh.write("\n}\n")


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
