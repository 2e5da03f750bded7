"""Literal references that tests compare the library's closed forms against."""

import numpy as np

from lieforge.errors import ContractViolation
from lieforge.linalg import as_field_matrix


def _check_same_space(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ContractViolation(f"operands must share a shape, got {a.shape} and {b.shape}")
    if (a.dtype.kind == "c") != (b.dtype.kind == "c"):
        raise ContractViolation("operands must live over the same field")


def commutator(a, b) -> np.ndarray:
    """[a, b] = a @ b - b @ a, evaluated literally (no algebraic shortcuts)."""
    a = as_field_matrix(a, "a")
    b = as_field_matrix(b, "b")
    _check_same_space(a, b)
    return a @ b - b @ a


def transfer_matrix(null_vector: np.ndarray, k: int) -> np.ndarray:
    """Materialize T_k = n{k} * I - e_k (x) n (k zero-based)."""
    n = np.asarray(null_vector)
    dim = n.shape[0]
    if not 0 <= k < dim:
        raise ContractViolation(f"index {k} out of range for dimension {dim}")
    t = n[k] * np.eye(dim, dtype=n.dtype)
    t[k, :] -= n
    return t


def _pair_rank(p: int, q: int, dim: int) -> int:
    # rank of (p, q) in lexicographic order over 1 <= p < q <= dim-1
    before = (p - 1) * (dim - 1) - (p - 1) * p // 2
    return before + (q - p - 1)


def unknown_position(i: int, j: int, k: int, dim: int) -> int:
    """Column of the oracle's unknown f{i,j,k}; zero-based, 1 <= i < j <= dim-1, 0 <= k < dim."""
    if not (1 <= i < j <= dim - 1 and 0 <= k < dim):
        raise ContractViolation(f"({i}, {j}, {k}) is not a valid unknown for dim {dim}")
    return _pair_rank(i, j, dim) * dim + k


def equation_position(j: int, k: int, m: int, dim: int) -> int:
    """Row of the oracle's equation (j,k,m); zero-based, 1 <= j < k <= dim-1, 0 <= m < dim."""
    if not (1 <= j < k <= dim - 1 and 0 <= m < dim):
        raise ContractViolation(f"({j}, {k}, {m}) is not a valid equation for dim {dim}")
    return _pair_rank(j, k, dim) * dim + m
