import json

import numpy as np
import pytest

from framelab import FrameError, frame_digest, frame_from_obj, frame_to_obj, load_frame, save_frame


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
