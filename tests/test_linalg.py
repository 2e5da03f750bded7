import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lieforge.errors import ContractViolation
from lieforge.linalg import (
    EPS,
    as_field_matrix,
    commutator,
    inf_norm,
    null_residual_tol,
    rank_and_left_null,
    trace,
)


def test_as_field_matrix_coerces_and_validates():
    m = as_field_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    c = as_field_matrix(np.array([[1j, 0], [0, 1]]))
    assert c.dtype == np.complex128
    with pytest.raises(ContractViolation):
        as_field_matrix(np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        as_field_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_commutator_hand_value():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(commutator(a, b), np.diag([1.0, -1.0]))


def test_inf_norm_is_entrywise_max():
    assert inf_norm(np.array([[1.0, -3.5], [2.0, 0.5]])) == 3.5
    assert inf_norm(np.array([3.0 + 4.0j])) == 5.0
    assert inf_norm(np.empty((0, 0))) == 0.0


def _inf_norm_cases():
    rng = np.random.default_rng(5)
    real = {
        "1d": rng.standard_normal(7),
        "1d-many-slabs": rng.standard_normal(200_000),
        "2d": rng.standard_normal((9, 4)),
        "3d": rng.standard_normal((6, 6, 6)),
        "3d-row-above-chunk": rng.standard_normal((3, 300, 300)),
        "all-negative-zero": np.full((3, 4), -0.0),
        "all-negative-zero-large": np.full((300, 300), -0.0),
        "mixed-signed-zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
        "mixed-signed-zeros-large": np.where(rng.random((300, 300)) < 0.5, 0.0, -0.0),
        "single": np.array([-2.5]),
        "scalar": np.array(-3.0),
        "empty": np.empty((0, 0)),
        "empty-rows": np.empty((3, 0)),
    }
    cases = dict(real)
    for name, a in real.items():
        cases[f"{name}-complex"] = a + 1j * np.roll(a, 1) if a.size else a.astype(complex)
    cases["all-negative-zero-complex"] = np.full((300, 300), complex(-0.0, -0.0))
    cases["uint8-large"] = np.full((70, 1000), 5, dtype=np.uint8)
    cases["int-large"] = rng.integers(-9, 9, (3, 300, 300))
    cases["bool-large"] = rng.random((300, 300)) < 0.5
    for name in ("3d", "3d-complex", "3d-row-above-chunk-complex"):
        cases[f"{name}-transposed"] = cases[name].transpose(0, 2, 1)
    return cases


@pytest.mark.parametrize("name, a", _inf_norm_cases().items())
def test_inf_norm_matches_abs_max_bitwise(name, a):
    expect = float(np.abs(a).max()) if a.size else 0.0
    got = inf_norm(a)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()


@pytest.mark.parametrize("shape", [(4, 5), (400, 300)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_inf_norm_propagates_nan(dtype, shape):
    a = np.ones(shape, dtype=dtype)
    a[-1, -1] = np.nan  # in the last slab, after a finite peak
    assert np.isnan(inf_norm(a)) and np.isnan(inf_norm(a.T))


def test_trace_matches_numpy():
    m = np.arange(9.0).reshape(3, 3)
    assert trace(m) == np.trace(m)


def test_rank_of_diagonal_example():
    rank, n, _ = rank_and_left_null(np.diag([0.0, 1.0]))
    assert rank == 1
    np.testing.assert_array_equal(n, [1.0, 0.0])


def test_rank_full_matrix_has_no_null_vector():
    rank, n, _ = rank_and_left_null(np.eye(3))
    assert rank == 3
    assert n is None


def test_singular_values_returned_sorted():
    rank, n, svals = rank_and_left_null(np.diag([0.0, 2.0, 5.0]))
    assert rank == 2
    np.testing.assert_allclose(svals, [5.0, 2.0, 0.0], atol=1e-15)


def test_null_vector_is_unit_and_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m[:, 0] = 0.0
        rank, n, _ = rank_and_left_null(m)
        assert rank == 5
        assert abs(np.linalg.norm(n) - 1.0) <= 4 * EPS
        assert inf_norm(n @ m) <= null_residual_tol(m)


def test_phase_convention_real_first_entry_positive():
    m = np.zeros((3, 3))
    m[1, 1] = m[2, 2] = 1.0
    _, n, _ = rank_and_left_null(m)
    assert n[0] > 0


def test_phase_convention_complex_anchor_real():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[:, 0] = 0.0
    _, n, _ = rank_and_left_null(m)
    anchor = next(v for v in n if abs(v) > 1e-12)
    assert abs(anchor.imag) <= 1e-12 * abs(anchor)
    assert anchor.real > 0


@given(
    arrays(np.float64, (5, 4), elements=st.floats(-10, 10, allow_nan=False)),
    st.permutations(list(range(5))),
)
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_permutation(block, perm):
    m = np.zeros((5, 5))
    m[:, 1:] = block
    rank_m = rank_and_left_null(m)[0]
    rank_p = rank_and_left_null(m[perm, :])[0]
    assert rank_m == rank_p


@given(
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5, allow_nan=False)),
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5, allow_nan=False)),
)
@settings(max_examples=40, deadline=None)
def test_commutator_antisymmetry_is_exact(a, b):
    np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))
