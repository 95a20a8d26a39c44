import ast
from pathlib import Path

import numpy as np
import pytest

from roteq import eqlayers, oracle
from roteq.conv import ConvGeometry, correlate2d
from roteq.eqlayers import (
    expand_cycle,
    expand_decycle,
    expand_isotonic,
    group_cross_channel_pool,
)
from roteq.oracle import (
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
    np.testing.assert_array_equal(oracle_cycle(p, x), correlate2d(x, expand_cycle(p)))


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("size", [5, 8, 9])
def test_oracle_cycle_matches_filter_path(rng, kernel, size):
    x = rng.standard_normal((2, 2, size, size))
    p = rng.standard_normal((2, 2, kernel, kernel))
    assert max_rel(oracle_cycle(p, x), correlate2d(x, expand_cycle(p))) <= 1e-12


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
    assert max_rel(oracle_isotonic(p, x), correlate2d(x, expand_isotonic(p))) <= 1e-12
    # in single precision the two summation orders agree to 1e-5
    x32, p32 = x.astype(np.float32), p.astype(np.float32)
    assert max_rel(oracle_isotonic(p32, x32), correlate2d(x32, expand_isotonic(p32))) <= 1e-5


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
    xg = x.reshape(2, g, 4, 8, 8)
    want = np.empty_like(got.reshape(2, g, 4, 6, 6))
    for j in range(4):
        slot = np.ascontiguousarray(xg[:, :, j])
        y = correlate2d(rotate90(slot, -j), base[:, 0])
        want[:, :, j] = rotate90(y, j)
    assert max_rel(got, want.reshape(got.shape)) <= 1e-12
    assert max_rel(got, correlate2d(x, expand_isotonic(base))) <= 1e-12


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
    assert max_rel(oracle_decycle(p, x), correlate2d(x, expand_decycle(p))) <= 1e-12


def test_oracle_with_stride_and_pad(rng):
    geom = ConvGeometry(stride=2, pad=1)
    x = rng.standard_normal((1, 4, 7, 7))  # padded size 9, (9-3)%2==0
    p = rng.standard_normal((1, 4, 1, 3, 3))
    assert max_rel(oracle_isotonic(p, x, geom), correlate2d(x, expand_isotonic(p), geom)) <= 1e-12


def test_relative_deviation_zero_tensors():
    z = np.zeros((1, 1, 2, 2))
    assert relative_deviation(z, z) == (0.0, 0.0)


def roteq_imports(module) -> set:
    """Names of the roteq modules that `module`'s source imports from."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("roteq.")}
        elif isinstance(node, ast.ImportFrom):
            path = ("roteq." if node.level else "") + (node.module or "")
            parts = path.strip(".").split(".")
            if parts[0] == "roteq":
                found |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
    return found


def test_oracle_and_eqlayers_import_nothing_they_witness():
    # the oracle is an independent witness of the tied layers, and the tied
    # gathers know nothing of the correlation that applies them
    assert roteq_imports(oracle) == {"conv", "tensor"}
    assert roteq_imports(eqlayers) == {"tensor"}
