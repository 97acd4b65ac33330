import hashlib
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelab import (
    FrameError,
    MeasureSpace,
    PSchauderFrame,
    default_zoo,
    dft_pair,
    frame_digest,
    frame_from_obj,
    frame_json,
    frame_to_obj,
    harmonic_discretization,
    load_frame,
    mercedes_benz,
    save_frame,
    weighted_split,
)
from framelab.frame_io import vector_from_obj, vector_to_obj


def test_round_trip_reproduces_every_double(zoo_frames, tmp_path):
    for name, frame in zoo_frames:
        path = tmp_path / f"{name}.json"
        save_frame(frame, path)
        back = load_frame(path)
        assert np.array_equal(back.functionals, frame.functionals), name
        assert np.array_equal(back.vectors, frame.vectors), name
        assert np.array_equal(back.space.weights, frame.space.weights), name
        assert back.p == frame.p and back.field == frame.field


def test_second_write_is_byte_identical(zoo_frames, tmp_path):
    name, frame = zoo_frames[-1]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_frame(frame, first)
    save_frame(load_frame(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_complex_scalars_encoded_as_pairs():
    from framelab import dft_pair

    _, fourier = dft_pair(2)
    obj = frame_to_obj(fourier)
    assert obj["field"] == "complex"
    entry = obj["atoms"][0]["vector"][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_digest_stable_across_copies():
    from framelab import mercedes_benz

    assert frame_digest(mercedes_benz()) == frame_digest(mercedes_benz())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("field"),
        lambda o: o.update(field="quaternion"),
        lambda o: o.update(dimension=-1),
        lambda o: o.update(atoms=[]),
        lambda o: o["atoms"][0].update(weight=-1.0),
        lambda o: o["atoms"][0].update(functional=[1.0]),
        lambda o: o["atoms"][0].update(weight=None),
        lambda o: o["atoms"][0].update(weight="1.0"),
        lambda o: o["atoms"][0].update(weight=True),
        lambda o: o["atoms"][0].update(weight=10**400),
        lambda o: o["atoms"][0].update(functional=1.0),
        lambda o: o["atoms"][1].update(vector=1.0),
        lambda o: o.update(p="2"),
        lambda o: o.update(p=True),
    ],
)
def test_malformed_frame_objects_rejected(mutate):
    from framelab import canonical_lp

    obj = frame_to_obj(canonical_lp(2, 2.0))
    mutate(obj)
    with pytest.raises(FrameError):
        frame_from_obj(obj)


def _frame_obj_refusals():
    def atom(k, **change):
        def mutate(o):
            o["atoms"][k].update(change)
            return o
        return mutate

    def drop(key):
        def mutate(o):
            del o["atoms"][1][key]
            return o
        return mutate

    def weights(*ws):
        def mutate(o):
            for a, w in zip(o["atoms"], ws):
                a["weight"] = w
            return o
        return mutate

    real, cplx = mercedes_benz(), dft_pair(2)[1]
    return [
        # (label, frame, object -> malformed object, message)
        ("list", real, lambda o: [o], "frame file must hold a JSON object"),
        ("missing-keys", real, lambda o: {"p": 2.0, "atoms": []}, "frame file missing keys: ['dimension', 'field']"),
        ("atom-not-object", real, lambda o: {**o, "atoms": [o["atoms"][0], 1.0]}, "atom 1 must be an object"),
        ("atom-missing-weight", real, drop("weight"), "atom 1 missing 'weight'"),
        ("atom-missing-vector", real, drop("vector"), "atom 1 missing 'vector'"),
        ("complex-scalar-not-pair", cplx, atom(0, vector=[1.0, [0.0, 1.0]]), "complex scalars must be [re, im] pairs"),
        ("row-length", real, atom(2, functional=[1.0]), "atom 2 rows must have length 2"),
        ("weight-zero", real, weights(1.0, 0.0), "every atom weight must be strictly positive"),
        ("weights-overflow", real, weights(1e308, 1e308), "the total weight overflows a double"),
        ("p-one", real, lambda o: {**o, "p": 1.0}, "exponent p must be finite with 1 < p < inf"),
    ]


@pytest.mark.parametrize("case", _frame_obj_refusals(), ids=lambda c: c[0])
def test_frame_obj_refusals_keep_their_message(case):
    # the decoded lists go straight to MeasureSpace and PSchauderFrame, whose
    # refusals the loader passes on unchanged
    _, frame, malform, message = case
    with pytest.raises(FrameError) as info:
        frame_from_obj(malform(frame_to_obj(frame)))
    assert type(info.value) is FrameError
    assert str(info.value) == message


def test_boolean_dimension_rejected():
    from framelab import canonical_lp

    obj = frame_to_obj(canonical_lp(1, 2.0))
    obj["dimension"] = True  # a bool, though it equals 1
    with pytest.raises(FrameError):
        frame_from_obj(obj)


def test_integer_entries_load_as_the_same_doubles():
    from framelab import canonical_lp

    frame = canonical_lp(2, 2.0)
    obj = frame_to_obj(frame)
    obj["p"] = 2
    for atom in obj["atoms"]:
        atom["weight"] = 1
        atom["vector"] = [int(v) for v in atom["vector"]]
    back = frame_from_obj(obj)
    assert back.p == 2.0
    assert np.array_equal(back.vectors, frame.vectors)
    assert np.array_equal(back.space.weights, frame.space.weights)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(FrameError):
        load_frame(path)


def test_file_schema_shape(tmp_path):
    from framelab import weighted_split, canonical_lp

    frame = weighted_split(canonical_lp(2, 2.0), 0, 2)
    path = tmp_path / "f.json"
    save_frame(frame, path)
    obj = json.loads(path.read_text())
    assert set(obj) == {"field", "p", "dimension", "atoms"}
    assert [a["weight"] for a in obj["atoms"]] == [0.5, 0.5, 1.0]


@pytest.mark.parametrize("scalar", [["a", 0], [None, 0], [0, [1.0]], [10**400, 0]])
def test_complex_scalar_parts_must_be_numbers(scalar):
    from framelab import dft_pair

    obj = frame_to_obj(dft_pair(2)[1])
    obj["atoms"][0]["vector"][1] = scalar
    with pytest.raises(FrameError, match="complex scalar"):
        frame_from_obj(obj)


@pytest.mark.parametrize(
    "part", [True, "1.0", "1_0", " 1 ", "١"], ids=["true", "decimal-string", "underscore", "spaced", "arabic-indic"]
)
def test_non_number_complex_parts_are_refused(part):
    # a complex part is read by the rule of a weight or a real cell, so a
    # string that float() would read is refused, as is a boolean
    obj = frame_to_obj(dft_pair(2)[1])
    obj["atoms"][0]["vector"][0][0] = part
    for read, args in ((frame_from_obj, (obj,)), (vector_from_obj, ([[1.0, 0.0], [0.0, part]], "complex"))):
        with pytest.raises(FrameError) as excinfo:
            read(*args)
        assert str(excinfo.value) == "complex scalar parts must be numbers"


# ------------------------------------------------ writer == json.dumps oracle

_EDGE = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, -2.5e-17]


def _hand_built_frames():
    real = np.array(_EDGE).reshape(4, 2)
    yield "real_edges_p1.5", PSchauderFrame(
        MeasureSpace([0.1, 5e-324, 1.7976931348623157e308, 1.0]), 1.5, real, real[::-1], "real"
    )
    cplx = real.astype(complex)  # set parts directly: complex arithmetic would lose -0.0
    cplx.imag = real[::-1]
    yield "complex_edges_p3", PSchauderFrame(
        MeasureSpace([0.1, 1e-300, 3.0, 0.5]), 3.0, cplx, -cplx, "complex"
    )
    yield "real_d1", PSchauderFrame(MeasureSpace([0.1]), 3.0, [[-0.0]], [[5e-324]], "real")
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0]])  # equal, but written apart
    yield "signed_zeros", PSchauderFrame(MeasureSpace([1.0, 1.0]), 2.0, zeros, zeros[::-1], "real")
    yield "complex_d1", PSchauderFrame(
        MeasureSpace([0.1, 0.2]),
        1.5,
        [[complex(-0.0, 5e-324)], [complex(1e-300, -0.0)]],
        [[complex(-0.0, 0.1)], [1.0]],
        "complex",
    )


def _oracle_frames():
    big = harmonic_discretization(32, 512)
    yield from default_zoo()
    yield "harmonic_32x512", big
    yield "harmonic_32x512_split", weighted_split(big, 7, 2)
    yield from zip(("dft_pair16_canonical", "dft_pair16_transform"), dft_pair(16))
    yield "mercedes_benz", mercedes_benz()
    yield from _hand_built_frames()


def _assert_writer_matches_oracle(frame):
    text = oracles.legacy_frame_json(frame)
    got = frame_json(frame)
    if got != text:
        # a plain == on megabyte strings makes pytest's diff run for minutes
        at = len(os.path.commonprefix([got, text]))
        pytest.fail(f"writer differs at char {at}: {got[at - 30:at + 30]!r} != {text[at - 30:at + 30]!r}")
    assert frame_digest(frame) == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _oracle_frames()])
def test_writer_bytes_match_json_dumps_oracle(frame):
    _assert_writer_matches_oracle(frame)


def test_hand_built_frames_carry_the_edge_spellings():
    text = "".join(frame_json(frame) for _, frame in _hand_built_frames())
    for spelling in ("-0.0", "5e-324", "1e-300", "1.7976931348623157e+308", "0.1"):
        assert spelling in text


def test_saved_file_is_writer_text_plus_newline(tmp_path):
    frame = dict(_hand_built_frames())["complex_edges_p3"]
    path = tmp_path / "f.json"
    save_frame(frame, path)
    assert path.read_bytes() == (oracles.legacy_frame_json(frame) + "\n").encode()
    back = load_frame(path)
    assert back.vectors.tobytes() == frame.vectors.tobytes()
    assert back.space.weights.tobytes() == frame.space.weights.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _random_frames(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    field = draw(st.sampled_from(["real", "complex"]))
    parts = 2 if field == "complex" else 1
    cells = st.lists(_finite, min_size=2 * n * d * parts, max_size=2 * n * d * parts)
    values = np.array(draw(cells)).reshape(2, n, d, parts)
    # a view keeps every part exactly, -0.0 included
    tables = values.view(np.complex128)[..., 0] if field == "complex" else values[..., 0]
    # at most 4 atoms of at most a quarter of the largest double each, so the
    # total weight is a double, as MeasureSpace requires
    heaviest = sys.float_info.max / 4
    weights = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, max_value=heaviest), min_size=n, max_size=n))
    p = draw(st.floats(min_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=False))
    return PSchauderFrame(MeasureSpace(weights), p, tables[0], tables[1], field)


@settings(max_examples=150, deadline=None)
@given(frame=_random_frames())
def test_writer_matches_oracle_on_random_finite_tables(frame):
    _assert_writer_matches_oracle(frame)


# ------------------------------------- objects == frozen per-scalar encoder


def _assert_obj_matches_frozen_encoder(frame):
    got, want = frame_to_obj(frame), oracles.legacy_frame_to_obj(frame)
    assert got == want
    # bytes too: == on floats cannot tell -0.0 from 0.0
    got_text, want_text = json.dumps(got, indent=2), json.dumps(want, indent=2)
    if got_text != want_text:
        at = len(os.path.commonprefix([got_text, want_text]))
        pytest.fail(f"object differs at char {at}: {got_text[at - 30:at + 30]!r}")


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _oracle_frames()])
def test_frame_obj_matches_frozen_encoder(frame):
    _assert_obj_matches_frozen_encoder(frame)


@settings(max_examples=150, deadline=None)
@given(frame=_random_frames())
def test_frame_obj_matches_frozen_encoder_on_random_finite_tables(frame):
    _assert_obj_matches_frozen_encoder(frame)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "values",
    [
        np.array([3, -1, 0]),
        np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1]),
        np.array([complex(-0.0, 5e-324), complex(5e-324, -0.0), 1 - 2.5j]),
    ],
    ids=["int", "float", "complex"],
)
def test_vector_obj_matches_frozen_encoder(values, field):
    got, want = vector_to_obj(values, field), oracles.legacy_encode_values(values, field)
    assert got == want
    assert json.dumps(got) == json.dumps(want)


# ------------------------------- writer on repeated values == frozen encoder

# Doubles that repeat and differ only in sign or in their last bits, so the
# writer's one decimal per distinct double meets equal and near-equal cells.
_POOL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.1]


@st.composite
def _pooled_frames(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    field = draw(st.sampled_from(["real", "complex"]))
    parts = 2 if field == "complex" else 1
    cells = draw(st.lists(st.sampled_from(_POOL), min_size=2 * n * d * parts, max_size=2 * n * d * parts))
    values = np.array(cells).reshape(2, n, d, parts)
    tables = values.view(np.complex128)[..., 0] if field == "complex" else values[..., 0]
    weights = draw(st.lists(st.sampled_from([5e-324, 0.1, 1.0]), min_size=n, max_size=n))
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    return PSchauderFrame(MeasureSpace(weights), p, tables[0], tables[1], field)


@settings(max_examples=150, deadline=None)
@given(frame=_pooled_frames())
def test_writer_matches_oracle_on_repeated_and_signed_values(frame):
    _assert_writer_matches_oracle(frame)
    back = frame_from_obj(json.loads(frame_json(frame)))
    for got, want in zip(
        (back.space.weights, back.functionals, back.vectors), (frame.space.weights, frame.functionals, frame.vectors)
    ):
        assert got.tobytes() == want.tobytes()


# --------------------------------------- reader == frozen per-cell reader

# Cells, complex parts and atoms that a hand-edited or corrupted file may
# hold.  The numeric strings and ``true`` are refused as complex parts, as
# they are as weights and real cells.
_BAD_CELLS = [True, False, "1.0", "x", None, 10**400, -(10**400), {}, [], [[1.0, 0.0]], [1.0], [1.0, 0.0, 0.0]]
_PARTS = [True, "1.0", "1_0", " 1 ", "١", "nan", "1e999", "x", None, 10**400, [1.0], {}, 3]
_NUMERIC_PARTS = [True, "1.0", "1_0", " 1 ", "١", "-0", 3]
_INTS = [3, -(2**60), 2**1023, 2**1100, 10**400]  # the last two overflow a double
_NOT_OBJECTS = [1.0, [], "atom", None]


def _rows(obj):
    """(atom, key) of every row that is still a nonempty JSON array."""
    atoms = obj.get("atoms")
    if not isinstance(atoms, list):
        return []
    return [
        (atom, key)
        for atom in atoms
        if isinstance(atom, dict)
        for key in ("functional", "vector")
        if isinstance(atom.get(key), list) and atom[key]
    ]


def _fault_cell(draw, row):
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_CELLS))


def _fault_part(draw, row, parts=_PARTS, numbers=_INTS):
    """A complex part replaced by one of ``parts``, or a real cell by one of ``numbers``."""
    i = draw(st.integers(0, len(row) - 1))
    if isinstance(row[i], list) and len(row[i]) == 2:
        row[i] = list(row[i])
        row[i][draw(st.integers(0, 1))] = draw(st.sampled_from(parts))
    else:
        row[i] = draw(st.sampled_from(numbers))


def _fault_loadable(draw, row):
    _fault_part(draw, row, _NUMERIC_PARTS, _INTS[:3])


def _fault_nest(draw, row):
    i = draw(st.integers(0, len(row) - 1))
    row[i] = [row[i]]


def _fault_pair_length(draw, row):
    i = draw(st.integers(0, len(row) - 1))
    cell = row[i] if isinstance(row[i], list) else [row[i]]
    row[i] = cell[:1] if draw(st.booleans()) else [*cell, 0.0]


def _fault_short(draw, row):
    del row[draw(st.integers(0, len(row) - 1)):]


# the faults that may load twice, so that about one frame object in fifteen still loads
_ROW_FAULTS = [_fault_cell, _fault_part, _fault_loadable, _fault_loadable, _fault_nest, _fault_pair_length, _fault_short]


@st.composite
def _faulty_frame_objs(draw):
    obj = frame_to_obj(draw(_random_frames()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["row", "row", "row", "drop", "atom", "weight", "not-array", "top"]))
        rows = _rows(obj)
        atoms = [a for a in obj["atoms"] if isinstance(a, dict)] if isinstance(obj.get("atoms"), list) else []
        if kind == "row" and rows:
            atom, key = draw(st.sampled_from(rows))
            draw(st.sampled_from(_ROW_FAULTS))(draw, atom[key])
        elif kind == "drop" and atoms:
            atom = draw(st.sampled_from(atoms))
            atom.pop(draw(st.sampled_from(["weight", "functional", "vector"])), None)
        elif kind == "atom" and isinstance(obj.get("atoms"), list) and obj["atoms"]:  # a "top" fault may leave []
            obj["atoms"][draw(st.integers(0, len(obj["atoms"]) - 1))] = draw(st.sampled_from(_NOT_OBJECTS))
        elif kind == "weight" and atoms:
            draw(st.sampled_from(atoms))["weight"] = draw(st.sampled_from(_BAD_CELLS + [2]))
        elif kind == "not-array" and atoms:
            atom = draw(st.sampled_from(atoms))
            atom[draw(st.sampled_from(["functional", "vector"]))] = draw(st.sampled_from([1.0, "x", {}, None]))
        elif kind == "top":
            key = draw(st.sampled_from(["p", "dimension", "field", "atoms"]))
            obj[key] = draw(st.sampled_from([None, True, 2, 10**400, "real", "complex", [], 0]))
    return obj


@st.composite
def _faulty_vectors(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    values = draw(st.lists(_finite, min_size=2, max_size=10))
    row = vector_to_obj(np.array(values).view(np.complex128) if field == "complex" and len(values) % 2 == 0
                        else np.array(values), field)
    for _ in range(draw(st.integers(1, 3))):
        if not row:
            break
        draw(st.sampled_from(_ROW_FAULTS))(draw, row)
    obj = row if draw(st.integers(0, 9)) else draw(st.sampled_from([1.0, "x", {}, None]))
    return obj, field


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the outcome compared, refusal or not
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), (got, want)
    if isinstance(want, PSchauderFrame):
        assert (got.field, got.p, got.dimension) == (want.field, want.p, want.dimension)
        for a, b in ((got.space.weights, want.space.weights), (got.functionals, want.functionals),
                     (got.vectors, want.vectors)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(obj=_faulty_frame_objs())
def test_reader_matches_frozen_per_cell_reader_on_faulty_objects(obj):
    _assert_same_outcome(_outcome(frame_from_obj, obj), _outcome(oracles.legacy_frame_from_obj, obj))


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("frame_files")


@st.composite
def _faulty_frame_files(draw):
    """A faulty frame object's text, with or without indent, its top-level
    and atom keys in a drawn order.  A top-level value may be an atom, whose
    rows a refusal then quotes as parsed."""
    obj = draw(_faulty_frame_objs())
    atoms = [a for a in obj["atoms"] if isinstance(a, dict)] if isinstance(obj.get("atoms"), list) else []
    if atoms and draw(st.integers(0, 4)) == 0:
        obj[draw(st.sampled_from(["field", "p", "dimension"]))] = draw(st.sampled_from(atoms))
    obj = {key: obj[key] for key in draw(st.permutations(list(obj)))}
    order = draw(st.permutations(["weight", "functional", "vector"]))
    if isinstance(obj.get("atoms"), list):
        obj["atoms"] = [
            {key: atom[key] for key in order if key in atom} if isinstance(atom, dict) else atom
            for atom in obj["atoms"]
        ]
    return json.dumps(obj, indent=draw(st.sampled_from([None, 2])))


@settings(max_examples=300, deadline=None)
@given(text=_faulty_frame_files())
def test_file_reader_matches_frozen_per_cell_reader_on_faulty_files(text, file_dir):
    path = file_dir / "frame.json"
    path.write_text(text)
    _assert_same_outcome(_outcome(load_frame, path), _outcome(oracles.legacy_frame_from_obj, json.loads(text)))


@settings(max_examples=300, deadline=None)
@given(case=_faulty_vectors())
def test_vector_reader_matches_frozen_per_cell_reader(case):
    obj, field = case
    _assert_same_outcome(_outcome(vector_from_obj, obj, field), _outcome(oracles.legacy_vector_from_obj, obj, field))


@pytest.mark.parametrize(
    "row",
    [
        [[10**400, 0.0], "x"],  # a bad part before a bad cell: the part decides
        ["x", [10**400, 0.0]],
        [[1.0, 0.0], [1.0, 0.0, 0.0]],
        [[True, "1_0"], [" 1 ", "١"]],
        [10**400, "x"],
    ],
    ids=["part-then-cell", "cell-then-part", "triple", "numeric-strings", "overflow-then-string"],
)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_first_malformed_cell_decides_as_in_the_frozen_reader(row, field):
    obj = frame_to_obj(dft_pair(2)[1] if field == "complex" else mercedes_benz())
    obj["atoms"][0]["vector"] = row
    obj["atoms"][1]["functional"] = "not a row"  # a later refusal never wins
    _assert_same_outcome(_outcome(frame_from_obj, obj), _outcome(oracles.legacy_frame_from_obj, obj))
    _assert_same_outcome(_outcome(vector_from_obj, row, field), _outcome(oracles.legacy_vector_from_obj, row, field))


@pytest.mark.parametrize(
    "field, row, message",
    [
        ("complex", [1.0, 0.0], "complex scalars must be [re, im] pairs"),
        ("real", [[1.0, 0.0], [0.0, 1.0]], "a real scalar must be a plain number"),
    ],
)
def test_a_file_row_of_the_other_field_is_refused_as_in_the_frozen_reader(field, row, message, tmp_path):
    # the file reader parses a well-formed row of either field into an array
    # before it knows the frame's field; that row is then refused at its first cell
    obj = frame_to_obj(dft_pair(2)[1] if field == "complex" else mercedes_benz())
    obj["atoms"][0]["functional"] = row
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(obj))
    got = _outcome(load_frame, path)
    _assert_same_outcome(got, _outcome(oracles.legacy_frame_from_obj, obj))
    assert (type(got), str(got)) == (FrameError, message)


def test_reader_loads_every_oracle_frame_to_the_frozen_readers_bits():
    for name, frame in _oracle_frames():
        obj = json.loads(frame_json(frame))
        _assert_same_outcome(frame_from_obj(obj), oracles.legacy_frame_from_obj(obj))


# ------------------------------------------------- memory of a big frame file


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "harmonic_32x512.json"
    save_frame(harmonic_discretization(32, 512), path)
    return path


def _peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_load_peaks_near_the_read_of_the_file(big_file):
    # the read holds the file's bytes and its text together (2x the file);
    # the cells are arrays as soon as each atom is parsed, so nothing of
    # the JSON cell tree adds to that (it took 2.8x when held whole)
    frame, peak = _peak(load_frame, big_file)
    assert frame.n_atoms == 512
    assert peak <= 2.25 * big_file.stat().st_size


def test_the_digest_hashes_the_saved_text_piece_by_piece(big_file):
    # the saved file is the digest's preimage plus a newline; hashed piece
    # by piece, the whole text and its bytes are never held (2x the file)
    frame = load_frame(big_file)
    digest, peak = _peak(frame_digest, frame)
    text = big_file.read_bytes()
    assert text.endswith(b"\n")
    assert digest == hashlib.sha256(text[:-1]).hexdigest()
    assert peak <= 1.6 * len(text)
