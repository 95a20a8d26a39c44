import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from roteq import data
from roteq.data import (
    Dataset,
    IdxFormatError,
    dump_idx_images,
    dump_idx_labels,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    rotate_dataset_arbitrary,
    rotate_dataset_exact,
    split,
    synth_glyphs,
)
from roteq.tensor import rotate90

import reference


def test_idx_image_decode_trivial():
    raw = struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8))
    t = load_idx_images(raw)
    assert t.shape == (2, 1, 2, 2) and t.dtype == np.float32
    np.testing.assert_allclose(t.reshape(-1), np.arange(8) / 255.0, rtol=1e-7)


def test_idx_label_decode():
    raw = struct.pack(">II", 0x801, 3) + bytes([7, 0, 9])
    np.testing.assert_array_equal(load_idx_labels(raw), [7, 0, 9])


def test_idx_bad_magic_names_expected_and_found():
    raw = struct.pack(">IIII", 0x801, 1, 1, 1) + bytes(1)
    with pytest.raises(IdxFormatError, match="0x00000803.*0x00000801"):
        load_idx_images(raw)
    with pytest.raises(IdxFormatError, match="0x00000801"):
        load_idx_labels(struct.pack(">II", 0x803, 1) + bytes(1))


def test_idx_truncation_detected():
    raw = struct.pack(">IIII", 0x803, 10, 28, 28) + bytes(100)
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx_images(raw)
    with pytest.raises(IdxFormatError, match="header"):
        load_idx_images(bytes(4))
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx_labels(struct.pack(">II", 0x801, 50) + bytes(10))


def test_idx_round_trip_bit_exact(rng):
    raw_pixels = rng.integers(0, 256, size=3 * 5 * 5, dtype=np.uint8)
    raw = struct.pack(">IIII", 0x803, 3, 5, 5) + raw_pixels.tobytes()
    decoded = load_idx_images(raw)
    assert dump_idx_images(decoded) == raw
    np.testing.assert_array_equal(load_idx_images(dump_idx_images(decoded)), decoded)

    labels = rng.integers(0, 10, size=9).astype(np.int64)
    assert load_idx_labels(dump_idx_labels(labels)).tolist() == labels.tolist()


def test_idx_trailing_bytes_rejected():
    raw = dump_idx_labels(np.array([1, 2, 3])) + b"garbage"
    with pytest.raises(IdxFormatError, match="trailing bytes: header promises 3 label bytes, file holds 10"):
        load_idx_labels(raw)
    raw = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(5)
    with pytest.raises(IdxFormatError, match="trailing bytes: header promises 4 image bytes, file holds 5"):
        load_idx_images(raw)


def test_load_dataset_rejects_image_and_label_counts_that_disagree():
    images = dump_idx_images(synth_glyphs(6, size=10).images)
    with pytest.raises(IdxFormatError, match="6 images but 5 labels"):
        load_dataset(images, dump_idx_labels(np.arange(5)))
    assert len(load_dataset(images, dump_idx_labels(np.arange(6)))) == 6


IDX_FILES = {  # name -> (valid file, its loader, its writer)
    "images": (dump_idx_images(synth_glyphs(6, size=10).images), load_idx_images, dump_idx_images),
    "labels": (dump_idx_labels(np.arange(6) % 10), load_idx_labels, dump_idx_labels),
}


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(IDX_FILES)),
    at=st.integers(0, 10_000),
    mask=st.integers(1, 255),
    truncate=st.booleans(),
)
@example(name="labels", at=7, mask=2, truncate=False)  # count 6 -> 4: two bytes left over
@example(name="images", at=7, mask=7, truncate=False)  # 6 images -> 1
def test_truncated_or_flipped_idx_loads_or_is_rejected(name, at, mask, truncate):
    valid, load, dump = IDX_FILES[name]
    raw = bytearray(valid)
    if truncate:
        raw = raw[: at % len(raw)]
    else:
        raw[at % len(raw)] ^= mask
    assert_loads_whole_or_is_rejected(load, dump, bytes(raw))


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(IDX_FILES)),
    flips=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 255)), min_size=2, max_size=8),
)
def test_multi_byte_flipped_idx_loads_or_is_rejected(name, flips):
    valid, load, dump = IDX_FILES[name]
    raw = bytearray(valid)
    for at, mask in flips:
        raw[at % len(raw)] ^= mask
    assert_loads_whole_or_is_rejected(load, dump, bytes(raw))


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(
    big=st.lists(st.integers(2**20 + 1, 2**32 - 1), min_size=2, max_size=2),
    free=st.integers(1, 2**32 - 1),
    at=st.integers(0, 2),
    payload=st.binary(max_size=64),
)
def test_idx_header_promising_past_2_to_the_40_is_rejected(big, free, at, payload):
    dims = big[:at] + [free] + big[at:]  # any order; the two big ones alone pass 2**40
    raw = struct.pack(">4I", data.IMAGE_MAGIC, *dims) + payload
    assert not assert_loads_whole_or_is_rejected(load_idx_images, dump_idx_images, raw)


def assert_loads_whole_or_is_rejected(load, dump, raw) -> bool:
    """`raw` loads and writes back to the same bytes (True), or raises
    IdxFormatError (False); either way loading allocates under 1 MB,
    whatever the header promises."""
    tracemalloc.start()
    try:
        loaded = load(raw)
    except IdxFormatError:
        loaded = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    if loaded is None:
        return False
    # what loads is the whole file: writing it back gives the same bytes
    assert dump(loaded) == raw
    return True


def test_dataset_validation():
    with pytest.raises(ValueError, match="images"):
        Dataset(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="0, 1"):
        Dataset(np.full((1, 1, 2, 2), 2.0), np.zeros(1, dtype=np.int64))


def test_rotate_exact_reproducible_and_label_preserving():
    ds = synth_glyphs(50, size=12, seed=0)
    a = rotate_dataset_exact(ds, seed=5)
    b = rotate_dataset_exact(ds, seed=5)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, ds.labels)
    c = rotate_dataset_exact(ds, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_rotate_exact_pixel_multiset_preserved():
    ds = synth_glyphs(30, size=12, seed=1)
    rot = rotate_dataset_exact(ds, seed=2)
    for i in range(len(ds)):
        np.testing.assert_array_equal(
            np.sort(rot.images[i].ravel()), np.sort(ds.images[i].ravel())
        )


def test_rotate_exact_turn_histogram_uniform():
    # recover each image's turn count and chi-square it against uniform
    ds = synth_glyphs(10000, size=10, seed=3)
    rot = rotate_dataset_exact(ds, seed=4)
    counts = np.zeros(4, dtype=int)
    for i in range(len(ds)):
        for k in range(4):
            if np.array_equal(rot.images[i], rotate90(ds.images[i : i + 1], k)[0]):
                counts[k] += 1
                break
    assert counts.sum() == len(ds)
    chi2 = ((counts - 2500.0) ** 2 / 2500.0).sum()
    assert chi2 < 16.27  # 99.9% quantile, 3 degrees of freedom


def test_bilinear_zero_angle_identity(rng):
    img = rng.random((9, 9))
    np.testing.assert_array_equal(data._rotate_bilinear(img, 0.0), img)


def test_bilinear_quarter_turn_matches_exact_path(rng):
    img = rng.random((13, 13))
    got = data._rotate_bilinear(img, np.pi / 2)
    want = rotate90(img.reshape(1, 1, 13, 13))[0, 0]
    np.testing.assert_array_equal(got, want)


def test_arbitrary_rotation_bounds_and_determinism():
    ds = synth_glyphs(40, size=13, seed=7)
    a = rotate_dataset_arbitrary(ds, seed=8)
    b = rotate_dataset_arbitrary(ds, seed=8)
    np.testing.assert_array_equal(a.images, b.images)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    np.testing.assert_array_equal(a.labels, ds.labels)


@pytest.mark.parametrize("seed", [0, 7919])
def test_arbitrary_rotation_matches_one_image_at_a_time(seed):
    # blocks of images give each image the bytes of its own rotation, zero fill
    # and grid snapping included; 150 images leave a partial last block
    ds = synth_glyphs(150, size=28, seed=seed)
    got = rotate_dataset_arbitrary(ds, seed=seed + 1).images
    assert got.tobytes() == reference.per_image_rotate_dataset_arbitrary(ds.images, seed + 1).tobytes()


def test_split_is_disjoint_partition():
    ds = synth_glyphs(100, size=10, seed=0)
    tr, va, te = split(ds, 60, 20, 20, seed=1)
    assert len(tr) == 60 and len(va) == 20 and len(te) == 20
    stacked = np.concatenate([tr.images, va.images, te.images])
    # every original image appears exactly once across the three parts
    orig = {ds.images[i].tobytes() for i in range(100)}
    got = [stacked[i].tobytes() for i in range(100)]
    assert len(set(got)) == 100 and set(got) == orig


def test_split_rejects_oversized_request():
    ds = synth_glyphs(10, size=10, seed=0)
    with pytest.raises(ValueError, match="requested"):
        split(ds, 8, 2, 2, seed=0)


def test_synth_determinism_and_balance():
    a = synth_glyphs(200, size=14, seed=9)
    b = synth_glyphs(200, size=14, seed=9)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(np.bincount(a.labels), np.full(10, 20))
    c = synth_glyphs(25, size=14, seed=9)
    counts = np.bincount(c.labels, minlength=10)
    assert counts.max() - counts.min() == 1  # off by one when n % 10 != 0


def test_synth_rejects_tiny_canvas():
    with pytest.raises(ValueError, match="size"):
        synth_glyphs(10, size=6, seed=0)


def test_exact_rotation_commutes_with_idx_round_trip():
    ds = synth_glyphs(20, size=12, seed=4)
    rot_then_dump = load_idx_images(dump_idx_images(rotate_dataset_exact(ds, seed=5).images))
    dump_then_rot = rotate_dataset_exact(
        Dataset(load_idx_images(dump_idx_images(ds.images)), ds.labels), seed=5
    ).images
    np.testing.assert_array_equal(rot_then_dump, dump_then_rot)


def test_glyphs_are_learnable_in_five_epochs():
    # regression bound measured once and pinned: a small tied model gets
    # well under 15% test error after 5 epochs on 2000 unrotated glyphs
    from roteq.network import TrainConfig, build_model, evaluate, preset_stack, train

    ds = synth_glyphs(2500, size=14, seed=0)
    tr, va, te = split(ds, 2000, 250, 250, seed=1)
    model = build_model(preset_stack("dren-small"), in_channels=1, seed=0, input_size=14)
    train(model, tr, va, TrainConfig(lr=0.01, epochs=5, seed=0))
    assert evaluate(model, te) < 0.15


def test_template_rotation_orbits_are_separated():
    # no orientation of one class coincides with any orientation of another,
    # so quarter-turn augmentation never maps one class onto a different one
    size = 14
    templates = [data._glyph_template(c, size) for c in range(10)]
    orbits = [[np.rot90(t, k) for k in range(4)] for t in templates]
    for c in range(10):
        for other in range(c + 1, 10):
            gap = min(
                np.abs(a - b).sum() for a in orbits[c] for b in orbits[other]
            )
            assert gap > 3.0, (c, other, gap)
