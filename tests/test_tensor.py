import numpy as np
import pytest

from roteq.tensor import LayoutError, cyclic_permute, group_count, rotate90

from reference import rot90_ccw_permutation, rot180_permutation


def test_rotate90_index_formula():
    t = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    expected = np.array([[2.0, 4.0], [1.0, 3.0]]).reshape(1, 1, 2, 2)
    np.testing.assert_array_equal(rotate90(t, 1), expected)


def test_rotate90_four_times_is_identity(rng):
    t = rng.standard_normal((2, 3, 5, 7))
    np.testing.assert_array_equal(rotate90(t, 4), t)
    np.testing.assert_array_equal(rotate90(t, 0), t)


def test_rotate90_twice_matches_permutation_oracle(rng):
    t = rng.standard_normal((1, 1, 5, 5))
    np.testing.assert_array_equal(rotate90(t, 2)[0, 0], rot180_permutation(t[0, 0]))


def test_rotate90_once_matches_permutation_oracle(rng):
    t = rng.standard_normal((1, 1, 6, 4))
    np.testing.assert_array_equal(rotate90(t, 1)[0, 0], rot90_ccw_permutation(t[0, 0]))


def test_rotate90_composition(rng):
    t = rng.standard_normal((1, 2, 4, 4))
    for k in range(-4, 5):
        for m in range(-4, 5):
            np.testing.assert_array_equal(rotate90(rotate90(t, m), k), rotate90(t, k + m))


def test_rotate90_swaps_dims_and_preserves_multiset(rng):
    t = rng.standard_normal((2, 1, 3, 6))
    r = rotate90(t)
    assert r.shape == (2, 1, 6, 3)
    assert np.isclose(r.sum(), t.sum())
    assert r.min() == t.min() and r.max() == t.max()
    np.testing.assert_array_equal(np.sort(r.ravel()), np.sort(t.ravel()))


def test_cyclic_permute_shifts_forward():
    t = np.arange(1, 5, dtype=float).reshape(1, 4, 1, 1)
    out = cyclic_permute(t, 1)
    np.testing.assert_array_equal(out.ravel(), [4.0, 1.0, 2.0, 3.0])


def test_cyclic_permute_period_and_inverse(rng):
    t = rng.standard_normal((2, 8, 3, 3))
    np.testing.assert_array_equal(cyclic_permute(t, 4), t)
    for k in range(4):
        np.testing.assert_array_equal(cyclic_permute(cyclic_permute(t, k), 4 - k), t)


def test_cyclic_permute_composition(rng):
    t = rng.standard_normal((1, 12, 2, 2))
    three_steps = cyclic_permute(cyclic_permute(cyclic_permute(t)))
    np.testing.assert_array_equal(three_steps, cyclic_permute(t, 3))


def test_cyclic_permute_groups_independent(rng):
    t = rng.standard_normal((1, 8, 2, 2))
    out = cyclic_permute(t, 1)
    np.testing.assert_array_equal(out[:, :4], cyclic_permute(t[:, :4], 1))
    np.testing.assert_array_equal(out[:, 4:], cyclic_permute(t[:, 4:], 1))


def test_rotate_and_permute_commute(rng):
    t = rng.standard_normal((2, 4, 5, 5))
    np.testing.assert_array_equal(
        rotate90(cyclic_permute(t)), cyclic_permute(rotate90(t))
    )


def test_layout_errors():
    assert group_count(12) == 3
    with pytest.raises(LayoutError):
        group_count(6)
    with pytest.raises(LayoutError):
        cyclic_permute(np.zeros((1, 6, 2, 2)), 1)


def test_rotate90_rejects_an_array_that_is_not_rank_4():
    with pytest.raises(ValueError, match=r"expected a rank-4 array, got shape \(2, 3, 3\)"):
        rotate90(np.zeros((2, 3, 3)))
