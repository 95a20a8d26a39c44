import numpy as np
import pytest

from roteq.conv import ConvGeometry
from roteq.eqlayers import (
    forward_cycle,
    forward_decycle,
    forward_isotonic,
    group_cross_channel_pool,
)
from roteq.oracle import (
    compare_paths,
    oracle_cycle,
    oracle_decycle,
    oracle_isotonic,
    relative_deviation,
)
from roteq.tensor import cyclic_permute, rotate90

from reference import max_rel


def test_oracle_cycle_1x1_bit_exact(rng):
    # 1x1 kernels are rotation-fixed and each output pixel is one dot product
    x = rng.standard_normal((2, 3, 5, 5))
    p = rng.standard_normal((2, 3, 1, 1))
    np.testing.assert_array_equal(oracle_cycle(p, x), forward_cycle(p, x))


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("size", [5, 8, 9])
def test_oracle_cycle_matches_filter_path(rng, kernel, size):
    x = rng.standard_normal((2, 2, size, size))
    p = rng.standard_normal((2, 2, kernel, kernel))
    assert max_rel(oracle_cycle(p, x), forward_cycle(p, x)) <= 1e-12


def test_oracle_cycle_rotated_input_composition(rng):
    x = rng.standard_normal((1, 2, 7, 7))
    p = rng.standard_normal((2, 2, 3, 3))
    lhs = oracle_cycle(p, rotate90(x))
    rhs = rotate90(cyclic_permute(oracle_cycle(p, x)))
    assert max_rel(lhs, rhs) <= 1e-12


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("g", [1, 2])
def test_oracle_isotonic_matches_filter_path(rng, kernel, g):
    x = rng.standard_normal((2, 4 * g, 8, 8))
    p = rng.standard_normal((g, 4, g, kernel, kernel))
    assert max_rel(oracle_isotonic(p, x), forward_isotonic(p, x)) <= 1e-12


def test_oracle_isotonic_symmetric_base_slots_equal(rng):
    base = np.broadcast_to(rng.standard_normal((1, 1, 1, 1, 1)), (1, 4, 1, 1, 1)).copy()
    x = rng.standard_normal((1, 4, 5, 5))
    # all generators equal and rotation-fixed: the four output slots carry
    # the same aggregate, shifted across the cyclic input order
    y = oracle_isotonic(base, x)
    sums = x.sum(axis=1)
    for j in range(4):
        np.testing.assert_allclose(y[:, j], base.ravel()[0] * sums, rtol=1e-12)


def test_oracle_isotonic_diagonal_base_per_channel_path(rng):
    # with B=C=D=0 every slot is an independent rotated-copy path:
    # y_slot_j = R^j(A * R^-j x_slot_j)
    g = 2
    base = np.zeros((g, 4, g, 3, 3))
    base[:, 0] = rng.standard_normal((g, g, 3, 3))
    x = rng.standard_normal((2, 4 * g, 8, 8))
    got = oracle_isotonic(base, x)
    from roteq.conv import correlate2d

    xg = x.reshape(2, g, 4, 8, 8)
    want = np.empty_like(got.reshape(2, g, 4, 6, 6))
    for j in range(4):
        slot = np.ascontiguousarray(xg[:, :, j])
        y = correlate2d(rotate90(slot, -j), base[:, 0])
        want[:, :, j] = rotate90(y, j)
    assert max_rel(got, want.reshape(got.shape)) <= 1e-12
    assert max_rel(got, forward_isotonic(base, x)) <= 1e-12


def test_oracle_decycle_mean_pool_reduction(rng):
    p = np.full((1, 1, 1, 1), 0.25)
    x = rng.standard_normal((2, 4, 6, 6))
    np.testing.assert_allclose(
        oracle_decycle(p, x),
        group_cross_channel_pool(x, "mean"),
        rtol=1e-14,
        atol=1e-14,
    )


def test_oracle_decycle_zero_base(rng):
    p = np.zeros((3, 2, 3, 3))
    x = rng.standard_normal((1, 8, 6, 6))
    assert not oracle_decycle(p, x).any()


@pytest.mark.parametrize("kernel", [1, 3])
def test_oracle_decycle_matches_filter_path(rng, kernel):
    x = rng.standard_normal((2, 8, 9, 9))
    p = rng.standard_normal((5, 2, kernel, kernel))
    assert max_rel(oracle_decycle(p, x), forward_decycle(p, x)) <= 1e-12


def test_oracle_with_stride_and_pad(rng):
    geom = ConvGeometry(stride=2, pad=1)
    x = rng.standard_normal((1, 4, 7, 7))  # padded size 9, (9-3)%2==0
    p = rng.standard_normal((1, 4, 1, 3, 3))
    assert max_rel(oracle_isotonic(p, x, geom), forward_isotonic(p, x, geom)) <= 1e-12


def test_compare_paths_report(rng):
    x64 = rng.standard_normal((1, 4, 6, 6))
    p = rng.standard_normal((1, 4, 1, 3, 3))
    report = compare_paths("isotonic", p, x64)
    assert report.passed and report.tolerance == 1e-12
    assert report.max_abs_diff >= 0 and report.max_rel_diff <= 1e-12

    x32 = x64.astype(np.float32)
    p32 = p.astype(np.float32)
    report32 = compare_paths("isotonic", p32, x32)
    assert report32.tolerance == 1e-5 and report32.passed

    strict = compare_paths("isotonic", p, x64, tolerance=0.0)
    assert not strict.passed  # floating summation order differs between paths

    with pytest.raises(ValueError):
        compare_paths("pooling", p, x64)


def test_relative_deviation_zero_tensors():
    z = np.zeros((1, 1, 2, 2))
    assert relative_deviation(z, z) == (0.0, 0.0)
