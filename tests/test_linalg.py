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
