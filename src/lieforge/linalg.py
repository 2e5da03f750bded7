"""Dense linear-algebra kernel: commutators, rank, and left null vectors.

Factorizations delegate to the platform SVD/BLAS through numpy; the policy
layered on top (rank threshold, residual bands, null-vector sign convention)
is what this module owns.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

__all__ = [
    "EPS",
    "as_field_matrix",
    "commutator",
    "trace",
    "inf_norm",
    "null_residual_tol",
    "rank_and_left_null",
]

EPS = float(np.finfo(np.float64).eps)

# entries per temporary in every chunked N^3 kernel (build_adjoint, the
# identity slabs, inf_norm): 1 MB of complex128, so a chunk works in cache
_SLAB_CHUNK = 1 << 16

# components smaller than this are never used as the sign/phase anchor;
# a unit vector always has a component >= 1/sqrt(N), far above it
_ANCHOR_CUTOFF = 1e-12


def as_field_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square float64 or complex128 array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {arr.shape}")
    if arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    elif arr.dtype.kind in "fiub":
        arr = arr.astype(np.float64, copy=False)
    else:
        raise ContractViolation(f"{name} has unsupported dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return arr


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


def trace(a) -> float | complex:
    a = as_field_matrix(a, "a")
    t = np.trace(a)
    return complex(t) if a.dtype.kind == "c" else float(t)


def inf_norm(a: np.ndarray) -> float:
    """Max absolute entry; 0.0 for empty input.

    Equals float(np.abs(a).max()) bit for bit, NaN included. |.| is taken
    over slabs along axis 0, so no temporary holds more than
    max(_SLAB_CHUNK, a.size // a.shape[0]) entries; an input of one chunk or
    less is a single slab. Non-contiguous views are read in place.
    """
    a = np.asarray(a)
    if not a.size:
        return 0.0
    if not a.ndim:
        a = a.reshape(1)
    rows = a.shape[0]
    step = max(1, _SLAB_CHUNK * rows // a.size)
    peak = np.abs(a[:step]).max()
    for i in range(step, rows, step):
        # np.maximum, unlike builtin max, propagates NaN
        peak = np.maximum(peak, np.abs(a[i : i + step]).max())
    return float(peak)


def null_residual_tol(p: np.ndarray) -> float:
    """Residual band for an SVD-derived left null vector: 64 * N * eps * ||P||_inf."""
    p = as_field_matrix(p, "p")
    return 64.0 * p.shape[0] * EPS * inf_norm(p)


def _fix_phase(n: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component real and positive."""
    anchors = np.nonzero(np.abs(n) > _ANCHOR_CUTOFF)[0]
    if anchors.size == 0:
        raise ContractViolation("null vector has no usable anchor component")
    a = n[anchors[0]]
    if n.dtype.kind == "c":
        # multiplying by conj(a) makes the anchor exactly real; |a| rescales it
        n = n * (np.conjugate(a) / abs(a))
        n[anchors[0]] = abs(n[anchors[0]])
        return n
    return -n if a < 0 else n


def rank_and_left_null(p, tol_rank: float = 0.0):
    """Numerical rank of `p` and, when the rank is N-1, a unit left null vector.

    The effective threshold is max(tol_rank, N * eps * sigma_max); singular
    values strictly above it count toward the rank. The null vector `n`
    satisfies n @ p ~ 0 (within ``null_residual_tol(p)`` under the default
    threshold), has unit 2-norm, and its first component above 1e-12 in
    magnitude is made real and positive so the result is reproducible.

    Returns (rank, n, singular_values), where n is None unless rank == N-1
    and the singular values are in descending order.
    """
    p = as_field_matrix(p, "p")
    if tol_rank < 0:
        raise ContractViolation("tol_rank must be nonnegative")
    u, s, _ = np.linalg.svd(p)
    tau = max(float(tol_rank), p.shape[0] * EPS * float(s[0]))
    rank = int(np.count_nonzero(s > tau))
    n = None
    if rank == p.shape[0] - 1:
        n = _fix_phase(np.conjugate(u[:, -1]).copy())
    return rank, n, s
