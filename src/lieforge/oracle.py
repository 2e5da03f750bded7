"""Independent cross-check: recover structure constants from a linear system.

Given only the a-priori slice a[j, l] = f{1, j, l} (zero-based: row j of the
first adjoint matrix data), the remaining constants f{i, j, k} with
1 <= i < j <= N-1 (zero-based) satisfy one linear equation per index triple
(j, k, m) with 1 <= j < k <= N-1, 0 <= m < N:

    sum_l  a[j,l] f{k,l,m}  -  a[k,l] f{j,l,m}  +  a[l,m] f{j,k,l}  =  0

Each product routes to the coefficient matrix when its second factor is an
unknown (canonicalized to ascending first index pair with a sign flip, since
f{q,p,r} = -f{p,q,r}) or to the right-hand side when it is known (second
index 0 rewrites through antisymmetry to a-priori data; equal indices vanish).
The unknown count N(N-1)(N-2)/2 equals the equation count, the system is
square, and for non-degenerate a-priori data its unique solution must match
the closed-form generator. This module exists purely as that end-to-end
oracle; it is deliberately dense, loop-based, and desk-scale only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractViolation, SingularSystemError, SystemSizeError
from .linalg import EPS, inf_norm
from .sampler import LieAlgebraSample

__all__ = [
    "MAX_SYSTEM_DIM",
    "AssembledSystem",
    "SolveDiagnostics",
    "ComparisonReport",
    "count_equations",
    "unknown_position",
    "equation_position",
    "assemble_system",
    "solve_system",
    "extract_unknowns",
    "oracle_structure_constants",
    "compare_tensors",
]

MAX_SYSTEM_DIM = 4000


def count_equations(dim: int) -> int:
    """Number of equations (= unknowns) for dimension N: N(N-1)(N-2)/2."""
    if dim < 2:
        raise ContractViolation(f"dimension must be at least 2, got {dim}")
    return dim * (dim - 1) * (dim - 2) // 2


def _pair_rank(p: int, q: int, dim: int) -> int:
    # rank of (p, q) in lexicographic order over 1 <= p < q <= dim-1
    before = (p - 1) * (dim - 1) - (p - 1) * p // 2
    return before + (q - p - 1)


def _pair_at(rank: int, dim: int) -> tuple[int, int]:
    p = 1
    while rank >= dim - 1 - p:
        rank -= dim - 1 - p
        p += 1
    return p, p + 1 + rank


def unknown_position(i: int, j: int, k: int, dim: int) -> int:
    """Column of unknown f{i,j,k}; zero-based, 1 <= i < j <= dim-1, 0 <= k < dim."""
    if not (1 <= i < j <= dim - 1 and 0 <= k < dim):
        raise ContractViolation(f"({i}, {j}, {k}) is not a valid unknown for dim {dim}")
    return _pair_rank(i, j, dim) * dim + k


def equation_position(j: int, k: int, m: int, dim: int) -> int:
    """Row of equation (j,k,m); zero-based, 1 <= j < k <= dim-1, 0 <= m < dim."""
    if not (1 <= j < k <= dim - 1 and 0 <= m < dim):
        raise ContractViolation(f"({j}, {k}, {m}) is not a valid equation for dim {dim}")
    return _pair_rank(j, k, dim) * dim + m


@dataclass(frozen=True)
class AssembledSystem:
    dim: int
    dim_sys: int
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SolveDiagnostics:
    residual: float
    condition_estimate: float


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_diff: float
    where: tuple[int, int, int] | None
    threshold: float
    passed: bool


def assemble_system(a_priori: np.ndarray) -> AssembledSystem:
    """Build the dense square system from the a-priori slice a[j,l] = f{1,j,l}.

    Requires a[0, :] == 0 exactly (it stands for f at equal first indices).
    Assembly is plain nested loops on purpose: the bookkeeping is the entire
    point of this module and stays auditable this way.
    """
    a = np.asarray(a_priori)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"a-priori slice must be square, got shape {a.shape}")
    dim = a.shape[0]
    if dim < 2:
        raise ContractViolation("dimension must be at least 2")
    if np.any(a[0, :] != 0):
        raise ContractViolation("a-priori slice row 0 must be zero (f at equal indices)")
    dim_sys = count_equations(dim)
    dtype = np.complex128 if a.dtype.kind == "c" else np.float64
    matrix = np.zeros((dim_sys, dim_sys), dtype=dtype)
    rhs = np.zeros(dim_sys, dtype=dtype)

    for j in range(1, dim):
        for k in range(j + 1, dim):
            for m in range(dim):
                row = equation_position(j, k, m, dim)
                rhs[row] = a[j, 0] * a[k, m] - a[k, 0] * a[j, m]
                # term 1: + a[j,l] f{k,l,m}, known parts handled above/dropped
                for l in range(1, dim):
                    if l == k:
                        continue
                    coeff = a[j, l]
                    if k < l:
                        matrix[row, unknown_position(k, l, m, dim)] += coeff
                    else:
                        matrix[row, unknown_position(l, k, m, dim)] -= coeff
                # term 2: - a[k,l] f{j,l,m}
                for l in range(1, dim):
                    if l == j:
                        continue
                    coeff = a[k, l]
                    if j < l:
                        matrix[row, unknown_position(j, l, m, dim)] -= coeff
                    else:
                        matrix[row, unknown_position(l, j, m, dim)] += coeff
                # term 3: + a[l,m] f{j,k,l}, always an unknown
                for l in range(dim):
                    matrix[row, unknown_position(j, k, l, dim)] += a[l, m]
    return AssembledSystem(dim=dim, dim_sys=dim_sys, matrix=matrix, rhs=rhs)


def solve_system(system: AssembledSystem) -> tuple[np.ndarray, SolveDiagnostics]:
    """LU solve with partial pivoting, pivot breakdown guard, condition estimate."""
    m, rhs = system.matrix, system.rhs
    if system.dim_sys == 0:
        return np.zeros(0, dtype=m.dtype), SolveDiagnostics(0.0, 1.0)
    tau_pivot = system.dim_sys * EPS * inf_norm(m)
    with warnings.catch_warnings():
        # a singular matrix triggers a LinAlgWarning; the pivot check below owns it
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(m)
    min_pivot = float(np.abs(np.diag(lu)).min())
    if min_pivot <= tau_pivot:
        raise SingularSystemError(
            f"pivot {min_pivot:.3e} at or below breakdown threshold {tau_pivot:.3e};"
            " a-priori data violates the non-degeneracy assumption"
        )
    u = scipy.linalg.lu_solve((lu, piv), rhs)
    anorm = float(np.linalg.norm(m, 1))
    gecon = scipy.linalg.lapack.zgecon if m.dtype.kind == "c" else scipy.linalg.lapack.dgecon
    rcond, _ = gecon(lu, anorm, norm="1")
    condition = float(1.0 / rcond) if rcond > 0 else float("inf")
    residual = inf_norm(m @ u - rhs)
    return u, SolveDiagnostics(residual=residual, condition_estimate=condition)


def extract_unknowns(f: np.ndarray) -> np.ndarray:
    """Flatten a structure tensor's unknown entries in column order."""
    f = np.asarray(f)
    dim = f.shape[0]
    out = np.empty(count_equations(dim), dtype=f.dtype)
    for i in range(1, dim):
        for j in range(i + 1, dim):
            base = _pair_rank(i, j, dim) * dim
            out[base : base + dim] = f[i, j, :]
    return out


def oracle_structure_constants(
    sample: LieAlgebraSample, return_diagnostics: bool = False
):
    """Full structure tensor recovered from the sample's a-priori slice alone.

    Assembles and solves the linear system, then scatters the solution back
    with antisymmetry (f{j,i,k} = -f{i,j,k}, zero diagonal). Raises
    SystemSizeError when the dense system would exceed MAX_SYSTEM_DIM rows
    and SingularSystemError when elimination breaks down (as it must for an
    all-zero a-priori slice, e.g. nilpotent samples with A_1 = 0).
    """
    dim = sample.dim
    dim_sys = count_equations(dim)
    if dim_sys > MAX_SYSTEM_DIM:
        raise SystemSizeError(
            f"system dimension {dim_sys} exceeds the dense-solver guard {MAX_SYSTEM_DIM}"
        )
    a = np.array(sample.structure[0])
    system = assemble_system(a)
    u, diagnostics = solve_system(system)
    out = np.zeros((dim, dim, dim), dtype=a.dtype)
    out[0, :, :] = a
    out[1:, 0, :] = -a[1:, :]
    for pair in range(dim_sys // dim if dim >= 3 else 0):
        i, j = _pair_at(pair, dim)
        vals = u[pair * dim : (pair + 1) * dim]
        out[i, j, :] = vals
        out[j, i, :] = -vals
    if return_diagnostics:
        return out, diagnostics
    return out


def compare_tensors(fa: np.ndarray, fb: np.ndarray, tol: float) -> ComparisonReport:
    """Entrywise comparison; passes iff max |fa - fb| <= tol * (1 + max |fa|)."""
    fa = np.asarray(fa)
    fb = np.asarray(fb)
    if fa.shape != fb.shape:
        raise ContractViolation(f"tensor shapes differ: {fa.shape} vs {fb.shape}")
    diff = np.abs(fa - fb)
    threshold = tol * (1.0 + (float(np.abs(fa).max()) if fa.size else 0.0))
    if diff.size == 0:
        return ComparisonReport(0.0, None, threshold, True)
    flat_pos = int(np.argmax(diff))
    where = tuple(int(x) for x in np.unravel_index(flat_pos, diff.shape))
    max_diff = float(diff.flat[flat_pos])
    return ComparisonReport(
        max_abs_diff=max_diff,
        where=where,
        threshold=threshold,
        passed=max_diff <= threshold,
    )
