"""Dense linear-algebra kernel: rank, left null vectors, and chunked reads.

Factorizations delegate to the platform LAPACK/BLAS through numpy; the
policy layered on top (rank threshold, residual bands, null-vector
normalisation, and the one pin of a validation to one BLAS thread) is what
this module owns. Every chunked pass runs on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from .errors import ContractViolation

__all__ = [
    "EPS",
    "as_field_matrix",
    "inf_norm",
    "null_residual_tol",
    "rank_and_left_null",
]

EPS = float(np.finfo(np.float64).eps)

# entries per temporary in every chunked kernel (the adjoint build, the
# payload check's rebuild and the series' row sums, one block of adjoint
# matrices built from (P, n) a chunk; the scale pass's rows; inf_norm; a pass
# of normal draws): 1 MB of complex128, so a chunk works in cache
_SLAB_CHUNK = 1 << 16


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


def _row_chunks(stop: int, row: int, chunk: int | None = None) -> list[slice]:
    """Slices covering range(stop) in order, for rows of `row` entries.

    Each slice holds as many rows as fit in `chunk` entries (by default
    _SLAB_CHUNK), and at least one, so a chunked loop over them keeps its
    temporaries in cache.
    """
    step = max(1, (_SLAB_CHUNK if chunk is None else chunk) // row)
    return [slice(i, min(i + step, stop)) for i in range(0, stop, step)]


def inf_norm(a: np.ndarray) -> float:
    """Max absolute entry; 0.0 for empty input.

    Equals float(np.abs(a).max()) bit for bit, NaN included. An input of one
    chunk or less is read at once; a larger one is read in _row_chunks along
    axis 0, so no temporary holds more than max(_SLAB_CHUNK, a.size //
    a.shape[0]) entries. Non-contiguous views are read in place.
    """
    a = np.asarray(a)
    if not a.size:
        return 0.0
    if a.size <= _SLAB_CHUNK:
        return float(np.abs(a).max())
    chunks = _row_chunks(a.shape[0], a.size // a.shape[0])
    # np.max, unlike builtin max, propagates NaN
    return float(np.max([np.abs(a[rows]).max() for rows in chunks]))


def null_residual_tol(p: np.ndarray) -> float:
    """Residual band for a computed left null vector: 64 * N * eps * ||P||_inf."""
    p = as_field_matrix(p, "p")
    return 64.0 * p.shape[0] * EPS * inf_norm(p)


@functools.lru_cache(maxsize=None)
def _blas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS; None without one.

    The library is found in numpy's wheel folders (numpy.libs, numpy/.dylibs)
    and its symbol under the names numpy 2.x (scipy_openblas*) and numpy 1.x
    (openblas*) give it. numpy has loaded it already, so this handle is the
    library numpy calls.
    """
    root = Path(np.__file__).resolve().parent
    for folder in (root.parent / "numpy.libs", root / ".dylibs"):
        for lib in sorted(folder.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of numpy's OpenBLAS, then restore its count.

    The count is process-wide, so a BLAS call another thread makes meanwhile
    runs on one thread too. Without a bundled OpenBLAS the block runs unpinned.
    """
    calls = _blas_thread_calls()
    before = calls[0]() if calls else 1
    if before == 1:
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](before)


def _ldexp(m: np.ndarray, up: int) -> np.ndarray:
    """m * 2^up, exact barring over- or underflow; a complex m scales on its float64 view."""
    if m.dtype.kind == "c":
        return np.ldexp(np.ascontiguousarray(m).view(np.float64), up).view(m.dtype)
    return np.ldexp(m, up)


def _left_null(p: np.ndarray) -> np.ndarray | None:
    """[1, x] / ||[1, x]|| for the x that solves P[1:, 1:]^T x = -P[0, 1:].

    One LU solve, on P * 2^-e with e the exponent of max |P|: the scaling is
    exact barring underflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2.1), so P * 2^k gives n bit for bit, also where an unscaled
    elimination overflows. None where P[1:, 1:] is singular to working
    precision: LAPACK meets a zero pivot, or ||[1, x]|| overflows.
    """
    p = _ldexp(p, -math.frexp(inf_norm(p))[1])
    try:
        x = np.linalg.solve(p[1:, 1:].T, -p[0, 1:])
    except np.linalg.LinAlgError:
        return None
    n = np.concatenate([np.ones(1, p.dtype), x])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(n)
    # + 0.0 turns the -0.0 a solve can give into 0.0
    return n / norm + 0.0 if np.isfinite(norm) else None


def rank_and_left_null(p, tol_rank: float = 0.0):
    """Numerical rank of `p` and, when the rank is N-1, a unit left null vector.

    The rank counts the singular values strictly above max(tol_rank, N * eps
    * sigma_max); no singular vector is computed. The null vector is
    _left_null's [1, x] / ||[1, x]||. It satisfies n @ p ~ 0 (within
    ``null_residual_tol(p)`` under the default threshold), has unit 2-norm, a
    real positive first component, and no -0.0.

    The singular values and the LU solve run inside one pin to one thread of
    numpy's bundled OpenBLAS, one switch of the thread count, so their bits,
    the rank and n do not follow that count. Measured on 2 CPUs against two
    threads, one thread is also the faster SVD up to about real N = 512 and
    complex N = 362; about level at real N = 640, and about a quarter slower
    at complex N = 500.

    Returns (rank, n, singular_values), the singular values in descending
    order. n is None unless rank == N-1 and P[1:, 1:] is nonsingular to
    working precision; for a p whose first column is zero, as a parameter
    matrix's is, a singular P[1:, 1:] at rank N-1 means n{1} = 0.
    """
    p = as_field_matrix(p, "p")
    if tol_rank < 0:
        raise ContractViolation("tol_rank must be nonnegative")
    with _one_blas_thread():
        s = np.linalg.svd(p, compute_uv=False)
        tau = max(float(tol_rank), p.shape[0] * EPS * float(s[0]))
        rank = int(np.count_nonzero(s > tau))
        n = _left_null(p) if rank == p.shape[0] - 1 else None
    return rank, n, s
