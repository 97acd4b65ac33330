import hashlib
import json
import os
import sys

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
from framelab.frame_io import vector_to_obj


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


def test_numeric_string_complex_parts_still_load_to_the_same_bits():
    from framelab import dft_pair

    frame = dft_pair(2)[1]
    obj = frame_to_obj(frame)
    re, im = obj["atoms"][0]["vector"][0]
    obj["atoms"][0]["vector"][0] = [repr(re), im]
    back = frame_from_obj(obj)
    assert back.vectors.tobytes() == frame.vectors.tobytes()


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
