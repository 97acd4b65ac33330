"""Frame files: a JSON schema for persisting frames bit-exactly.

Layout::

    {
      "field": "real" | "complex",
      "p": <number>,
      "dimension": <int>,
      "atoms": [ {"weight": w, "functional": [s, ...], "vector": [s, ...]}, ... ]
    }

Real scalars are plain numbers; complex scalars are two-element arrays
``[re, im]``.  Doubles survive a write/read cycle bit-identically because the
writer emits shortest round-trip decimals.

One conversion, ``_cells``, turns scalar tables into these JSON cells; the
file writer, ``frame_to_obj`` and ``vector_to_obj`` all take their cells
from it.

The text layout is a fixed contract: it is exactly the bytes of
``json.dumps(frame_to_obj(frame), indent=2)`` (2-space indent, one scalar or
bracket per line, ``float.__repr__`` decimals).  ``frame_json`` writes that
text directly rather than through the pure-Python indenting encoder, and
``tests/test_frame_io.py`` pins it against a frozen copy of the per-scalar
encoder; digests and saved files depend on every byte of it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .frames import COMPLEX, REAL, FrameError, MeasureSpace, PSchauderFrame


def _cells(array, field: str) -> np.ndarray:
    """JSON cells of a scalar array: float64 values for a real field, and
    for a complex one a ``(..., 2)`` array of ``[re, im]`` pairs."""
    if field == COMPLEX:
        z = np.asarray(array, dtype=np.complex128)
        return np.stack([z.real, z.imag], axis=-1)
    return np.real(array).astype(np.float64, copy=False)


def _decode_number(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise FrameError(f"{what} must be a plain number")
    try:
        return float(obj)
    except OverflowError:
        raise FrameError(f"{what} is out of range") from None


def _decode_scalar(obj, field: str):
    if field == COMPLEX:
        if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
            raise FrameError("complex scalars must be [re, im] pairs")
        # float() keeps every file that loaded before loading to the same
        # bits (numeric strings such as "1.0" included); anything it cannot
        # read is a malformed file, not a crash.
        try:
            return complex(float(obj[0]), float(obj[1]))
        except (TypeError, ValueError, OverflowError):
            raise FrameError("complex scalar parts must be numbers") from None
    return _decode_number(obj, "a real scalar")


def _decode_row(obj, field: str, what: str) -> list:
    if not isinstance(obj, list):
        raise FrameError(f"{what} must hold a JSON array")
    return [_decode_scalar(s, field) for s in obj]


def frame_to_obj(frame: PSchauderFrame) -> dict:
    rows = zip(
        frame.space.weights.tolist(),
        _cells(frame.functionals, frame.field).tolist(),
        _cells(frame.vectors, frame.field).tolist(),
    )
    return {
        "field": frame.field,
        "p": float(frame.p),
        "dimension": frame.dimension,
        "atoms": [{"weight": w, "functional": f, "vector": v} for w, f, v in rows],
    }


def frame_from_obj(obj) -> PSchauderFrame:
    if not isinstance(obj, dict):
        raise FrameError("frame file must hold a JSON object")
    missing = {"field", "p", "dimension", "atoms"} - obj.keys()
    if missing:
        raise FrameError(f"frame file missing keys: {sorted(missing)}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise FrameError(f"unknown field {field!r}")
    dim = obj["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FrameError("dimension must be a positive integer")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise FrameError("frame file needs at least one atom")
    weights, functionals, vectors = [], [], []
    for k, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise FrameError(f"atom {k} must be an object")
        try:
            weights.append(_decode_number(atom["weight"], f"atom {k} weight"))
            fun = _decode_row(atom["functional"], field, f"atom {k} functional")
            vec = _decode_row(atom["vector"], field, f"atom {k} vector")
        except KeyError as exc:
            raise FrameError(f"atom {k} missing {exc}") from None
        if len(fun) != dim or len(vec) != dim:
            raise FrameError(f"atom {k} rows must have length {dim}")
        functionals.append(fun)
        vectors.append(vec)
    # both constructors convert the decoded lists and keep their own copies
    return PSchauderFrame(
        space=MeasureSpace(weights),
        p=_decode_number(obj["p"], "p"),
        functionals=functionals,
        vectors=vectors,
        field=field,
    )


def frame_json(frame: PSchauderFrame) -> str:
    """Canonical text form; also the hashing preimage for frame digests.

    Byte-identical to ``json.dumps(frame_to_obj(frame), indent=2)``: ``%r``
    of a Python float is the ``float.__repr__`` the encoder emits, and
    frames hold only finite doubles, so no ``NaN``/``Infinity`` spelling
    can arise.
    """
    cell = "[\n          %r,\n          %r\n        ]" if frame.field == COMPLEX else "%r"
    row = ",\n        ".join([cell] * frame.dimension)
    atom = (
        '    {\n      "weight": %r,\n      "functional": [\n        ' + row
        + '\n      ],\n      "vector": [\n        ' + row + "\n      ]\n    }"
    )
    n = frame.n_atoms
    table = np.hstack(
        [
            frame.space.weights[:, None],
            _cells(frame.functionals, frame.field).reshape(n, -1),
            _cells(frame.vectors, frame.field).reshape(n, -1),
        ]
    ).tolist()
    header = '{\n  "field": %s,\n  "p": %r,\n  "dimension": %d,\n  "atoms": [\n' % (
        json.dumps(frame.field),
        frame.p,
        frame.dimension,
    )
    return header + ",\n".join([atom % tuple(values) for values in table]) + "\n  ]\n}"


def frame_digest(frame: PSchauderFrame) -> str:
    import hashlib  # only digests need it; keeps it out of every CLI start-up

    return hashlib.sha256(frame_json(frame).encode()).hexdigest()


def save_frame(frame: PSchauderFrame, path) -> None:
    Path(path).write_text(frame_json(frame) + "\n")


def read_json(path, what: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8
    text, not JSON, or nested deeper than the decoder can recurse raises
    ``FrameError``; an ``OSError`` is left to the caller."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(f"not a JSON {what} file: {exc}") from None


def load_frame(path) -> PSchauderFrame:
    return frame_from_obj(read_json(path, "frame"))


def json_number(value: float):
    """A report number that stays strictly JSON: non-finite values become
    the labels ``"unbounded"`` / ``"-unbounded"``."""
    return value if math.isfinite(value) else ("unbounded" if value > 0 else "-unbounded")


def vector_to_obj(x: np.ndarray, field: str) -> list:
    return _cells(x, field).tolist()


def vector_from_obj(obj, field: str) -> np.ndarray:
    values = _decode_row(obj, field, "vector file")
    dtype = np.complex128 if field == COMPLEX else np.float64
    return np.array(values, dtype=dtype)
