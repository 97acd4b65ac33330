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
writer emits shortest round-trip decimals.  One conversion, ``_cells``, turns
scalar tables into these JSON cells for the writer, ``frame_to_obj`` and
``vector_to_obj``.

The text layout is a fixed contract: it is exactly the bytes of
``json.dumps(frame_to_obj(frame), indent=2)`` (2-space indent, one scalar or
bracket per line, ``float.__repr__`` decimals), and digests and saved files
depend on every byte of it.  ``frame_json`` writes it directly, spelling each
distinct double once.  The reader screens each row with whole-row passes and
reads every number with ``float`` in one pass.  ``tests/test_frame_io.py``
pins both against frozen per-scalar copies.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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


def _screen(obj, field: str, what: str, rows: list) -> int:
    """Queue the JSON array ``obj`` on ``rows`` and return its length, or refuse its first malformed cell."""
    if not isinstance(obj, list):
        raise FrameError(f"{what} must hold a JSON array")
    pairs = field == COMPLEX
    kinds = (list, tuple) if pairs else (int, float)
    end = len(obj)
    if not set(map(type, obj)) <= set(kinds) or pairs and not set(map(len, obj)) <= {2}:
        bad = (isinstance(s, bool) or not isinstance(s, kinds) or pairs and len(s) != 2 for s in obj)
        end = next((i for i, b in enumerate(bad) if b), end)
    if end < len(obj):
        _numbers([obj[:end]], field)  # a malformed number before the malformed cell is refused first
        raise FrameError("complex scalars must be [re, im] pairs" if pairs else "a real scalar must be a plain number")
    rows.append(obj)
    return end


def _numbers(rows: list, field: str) -> np.ndarray:
    """The queued cells as one array.  ``float`` keeps every file that loaded
    before loading to the same bits (numeric strings such as "1.0" in complex
    parts included), and of a plain number it can only overflow."""
    pairs = field == COMPLEX
    cells = chain.from_iterable(rows)
    count = sum(map(len, rows)) * (1 + pairs)
    try:
        values = np.fromiter(map(float, chain.from_iterable(cells) if pairs else cells), np.float64, count)
    except (TypeError, ValueError, OverflowError) if pairs else OverflowError:
        raise FrameError("complex scalar parts must be numbers" if pairs else "a real scalar is out of range") from None
    return values.view(np.complex128) if pairs else values


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
    # a malformed number queued before a refusal is refused first
    weights, rows = [], []
    try:
        for k, atom in enumerate(atoms):
            if not isinstance(atom, dict):
                raise FrameError(f"atom {k} must be an object")
            try:
                weights.append(_decode_number(atom["weight"], f"atom {k} weight"))
                fun = _screen(atom["functional"], field, f"atom {k} functional", rows)
                vec = _screen(atom["vector"], field, f"atom {k} vector", rows)
            except KeyError as exc:
                raise FrameError(f"atom {k} missing {exc}") from None
            if fun != dim or vec != dim:
                raise FrameError(f"atom {k} rows must have length {dim}")
    except FrameError:
        _numbers(rows, field)
        raise
    tables = _numbers(rows, field).reshape(len(atoms), 2, dim)
    # both constructors keep their own copies
    return PSchauderFrame(
        space=MeasureSpace(weights),
        p=_decode_number(obj["p"], "p"),
        functionals=tables[:, 0],
        vectors=tables[:, 1],
        field=field,
    )


def _text_pieces(frame: PSchauderFrame):
    """``frame_json``'s text, in pieces of at most one atom."""
    cell = "[\n          %s,\n          %s\n        ]" if frame.field == COMPLEX else "%s"
    row = ",\n        ".join([cell] * frame.dimension)
    atom = (
        '    {\n      "weight": %s,\n      "functional": [\n        ' + row
        + '\n      ],\n      "vector": [\n        ' + row + "\n      ]\n    }"
    )
    n = frame.n_atoms
    tables = [_cells(t, frame.field).reshape(n, -1) for t in (frame.functionals, frame.vectors)]
    bits, inverse = np.unique(np.hstack([frame.space.weights[:, None], *tables]).view(np.uint64), return_inverse=True)
    decimals = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    inverse = inverse.reshape(n, -1)  # its shape differs between numpy 2.0.x releases
    head = '{\n  "field": %s,\n  "p": %r,\n  "dimension": %d,\n  "atoms": [\n'
    sep = head % (json.dumps(frame.field), frame.p, frame.dimension)
    for start in range(0, n, 64):  # the cells of 64 atoms at a time are objects
        for values in decimals[inverse[start:start + 64]].tolist():
            yield sep + atom % tuple(values)
            sep = ",\n"
    yield "\n  ]\n}"


def frame_json(frame: PSchauderFrame) -> str:
    """Canonical text form, and the hashing preimage for frame digests:
    ``json.dumps(frame_to_obj(frame), indent=2)``.  Each distinct double (by
    bit pattern, so -0.0 and 0.0 stay apart) is spelled once by the
    ``float.__repr__`` the encoder emits; frames hold only finite doubles, so
    no ``NaN``/``Infinity`` spelling can arise."""
    return "".join(_text_pieces(frame))


def frame_digest(frame: PSchauderFrame) -> str:
    import hashlib  # only digests need it; keeps it out of every CLI start-up

    return hashlib.sha256(frame_json(frame).encode()).hexdigest()


def save_frame(frame: PSchauderFrame, path) -> None:
    # atom by atom, so the whole text is never held in memory
    with open(path, "w") as out:
        out.writelines(chain(_text_pieces(frame), ["\n"]))


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
    _screen(obj, field, "vector file", [])
    return _numbers([obj], field)
