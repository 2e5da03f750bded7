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
