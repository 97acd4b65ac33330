"""Frame files: a JSON schema for persisting frames bit-exactly.

Layout::

    {
      "field": "real" | "complex",
      "p": <number>,
      "dimension": <int>,
      "atoms": [ {"weight": w, "functional": [s, ...], "vector": [s, ...]}, ... ]
    }

Real scalars are plain numbers; complex scalars are two-element arrays
``[re, im]``.  Every number in a file (weight, ``p``, cell or part) is a
JSON integer or fraction that fits a double, never a boolean or a string.
Doubles survive a write/read cycle bit-identically because the writer emits
shortest round-trip decimals.  One conversion, ``_cells``, turns scalar
tables into these JSON cells for the writer, ``frame_to_obj`` and
``vector_to_obj``.

The text layout is a fixed contract: it is exactly the bytes of
``json.dumps(frame_to_obj(frame), indent=2)`` (2-space indent, one scalar or
bracket per line, ``float.__repr__`` decimals), and digests and saved files
depend on every byte of it.  ``frame_json`` writes it directly, spelling each
distinct double once.

The reader's ``object_pairs_hook`` (``_atom``) turns each atom's rows of
doubles, or of ``[re, im]`` pairs of doubles, into float64 arrays as soon as
JSON has parsed the atom.  ``_screen`` does the same for the rows of a
Python-built object or a vector file, and decodes any other row cell by
cell, so its first malformed cell decides the refusal.
``tests/test_frame_io.py`` pins the writer and the reader against frozen
per-scalar copies.
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


class _Row(np.ndarray):
    """A row read by ``_row``, shown as the JSON list it was parsed from, so
    a refusal that quotes a parsed value quotes it as before."""

    def __repr__(self):
        return repr(self.tolist())


def _row(obj):
    """A row of doubles as a ``(d,)`` float64 ``_Row`` and a row of ``[re, im]``
    pairs of doubles as a ``(d, 2)`` one; any other value as it is."""
    if type(obj) is not list:
        return obj
    kinds = set(map(type, obj))
    if kinds == {float}:
        return np.fromiter(obj, np.float64, len(obj)).view(_Row)
    if kinds == {list} and set(map(len, obj)) == {2} and set(map(type, chain.from_iterable(obj))) == {float}:
        return np.fromiter(chain.from_iterable(obj), np.float64, 2 * len(obj)).reshape(-1, 2).view(_Row)
    return obj


def _atom(pairs: list) -> dict:
    """A parsed JSON object, its rows read by ``_row`` as soon as they are
    parsed, so a file's cells are never all held as Python objects."""
    obj = dict(pairs)
    for key in ("functional", "vector"):
        if key in obj:
            obj[key] = _row(obj[key])
    return obj


def _screen(obj, field: str, what: str) -> np.ndarray:
    """The row ``obj`` (a JSON array, or the ``_Row`` the reader made of
    one) as a float64 array, ``(d,)`` for a real field and ``(d, 2)`` for a
    complex one, or refuse its first malformed cell."""
    pairs = field == COMPLEX
    row = _row(obj)
    if type(row) is _Row:
        if row.ndim == 1 + pairs:
            return row.view(np.ndarray)
        row = row.tolist()  # a row of the other field: its first cell is malformed
    elif not isinstance(row, list):
        raise FrameError(f"{what} must hold a JSON array")
    return np.array([_decode_cell(s, pairs) for s in row], np.float64).reshape((-1, 2) if pairs else -1)


def _decode_cell(obj, pairs: bool):
    """A real cell as a double, or a complex one as its ``[re, im]`` doubles;
    every number in either is judged as ``_decode_number`` judges it."""
    if not pairs:
        return _decode_number(obj, "a real scalar")
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise FrameError("complex scalars must be [re, im] pairs")
    try:
        return [_decode_number(part, "a complex scalar part") for part in obj]
    except FrameError:
        raise FrameError("complex scalar parts must be numbers") from None


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
    """The frame a JSON value describes, or ``FrameError`` for its first
    fault: the top-level keys, then atom by atom (weight, functional,
    vector), then the weights as a measure and ``p``."""
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
    weights, rows = [], []
    for k, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise FrameError(f"atom {k} must be an object")
        try:
            weights.append(_decode_number(atom["weight"], f"atom {k} weight"))
            rows.append(_screen(atom["functional"], field, f"atom {k} functional"))
            rows.append(_screen(atom["vector"], field, f"atom {k} vector"))
        except KeyError as exc:
            raise FrameError(f"atom {k} missing {exc}") from None
        if len(rows[-2]) != dim or len(rows[-1]) != dim:
            raise FrameError(f"atom {k} rows must have length {dim}")
    tables = np.concatenate(rows)
    if field == COMPLEX:
        tables = tables.view(np.complex128)
    tables = tables.reshape(len(atoms), 2, dim)
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

    digest = hashlib.sha256()
    for piece in _text_pieces(frame):  # the whole text is never held
        digest.update(piece.encode())
    return digest.hexdigest()


def save_frame(frame: PSchauderFrame, path) -> None:
    # atom by atom, so the whole text is never held in memory
    with open(path, "w") as out:
        out.writelines(chain(_text_pieces(frame), ["\n"]))


def read_json(path, what: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8
    text, not JSON, or nested deeper than the decoder can recurse raises
    ``FrameError``; an ``OSError`` is left to the caller."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_atom)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(f"not a JSON {what} file: {exc}") from None


def load_frame(path) -> PSchauderFrame:
    """The frame in the file at ``path``, refused as ``frame_from_obj``
    refuses its JSON value.  The file's cells are never all held as Python
    objects, so a load's peak memory is about twice the file: its bytes and
    its text, which the read holds together while decoding."""
    return frame_from_obj(read_json(path, "frame"))


def json_number(value: float):
    """A report number that stays strictly JSON: non-finite values become
    the labels ``"unbounded"`` / ``"-unbounded"``."""
    return value if math.isfinite(value) else ("unbounded" if value > 0 else "-unbounded")


def vector_to_obj(x: np.ndarray, field: str) -> list:
    return _cells(x, field).tolist()


def vector_from_obj(obj, field: str) -> np.ndarray:
    row = _screen(obj, field, "vector file")
    return row.view(np.complex128)[:, 0] if field == COMPLEX else row
