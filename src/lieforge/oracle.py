"""Independent cross-check: recover structure constants from a linear system.

Given only the a-priori slice a[j, l] = f{1, j, l} (zero-based: row j of the
first adjoint matrix data), the remaining constants f{i, j, k} with
1 <= i < j <= N-1 (zero-based) satisfy one linear equation per index triple
(j, k, m) with 1 <= j < k <= N-1, 0 <= m < N:

    sum_l  a[j,l] f{k,l,m}  -  a[k,l] f{j,l,m}  +  a[l,m] f{j,k,l}  =  0

Collect the unknowns as X[(p, q), m] = f{p, q, m}, one row per pair
1 <= p < q <= N-1 in lexicographic order. The l = 0 terms are known
(f{k,0,m} = -a[k,m]) and form the right-hand side R. The third term is
(X a)[(j, k), m]. The first two touch rows (k, l) and (j, l) of X, with a sign
flip where the pair is descending (f{q,p,r} = -f{p,q,r}); they form a linear
map K on the P = (N-1)(N-2)/2 rows. So the N(N-1)(N-2)/2 equations are the
Sylvester equation

    K X + X a = R,

whose dense matrix M = K (x) I + I (x) a^T on X flattened row-major is never
formed, and neither is K. K and R come from a alone, so the oracle stays
independent of the generator. Column m of X is the upper triangle of an
antisymmetric (N-1) x (N-1) matrix G_m, and K G = -(b G + G b^T) with
b = a[1:, 1:]; the solve and the residual apply K in that form, and the norms
of M follow from the row and column sums of |b| and |a|. Bartels-Stewart in three modes takes complex Schur forms
b = U T U^H and a = V S V^H, rotates every G_m by U and mixes the m index by
V, then makes one triangular Sylvester solve (LAPACK ?trsyl) of order N-1 per
eigenvalue of a: O(N^4) in all, against O(P^3) = O(N^6) for a Schur form of K.
The eigenvalues of the system are mu_r - lambda_p - lambda_q (p < q), lambda
of b and mu of a, so it is singular exactly when one of them vanishes, as for
nilpotent samples (a = 0). For non-degenerate a-priori data the unique
solution must match the closed-form generator; this module exists purely as
that end-to-end oracle.

scipy (schur, ztrsyl) serves this solve alone, so it is imported on the first
solve in a process, not with the package: that first solve pays about 0.3 s
for the import, and every other command runs on numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularSystemError, SystemSizeError
from .linalg import EPS, inf_norm
from .sampler import LieAlgebraSample

__all__ = [
    "MAX_SYSTEM_DIM",
    "AssembledSystem",
    "SolveDiagnostics",
    "ComparisonReport",
    "count_equations",
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


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """K X + X a = R: K comes from a, and R is flattened in pair-major order as rhs."""

    dim: int
    dim_sys: int
    a: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SolveDiagnostics:
    """Residual, condition estimate, and the separation min |eig(M)| with its singularity threshold."""

    residual: float
    condition_estimate: float
    separation: float
    separation_threshold: float


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_diff: float
    where: tuple[int, int, int] | None
    threshold: float
    passed: bool


def assemble_system(a_priori: np.ndarray) -> AssembledSystem:
    """Build R of K X + X a = R from the a-priori slice a[j,l] = f{1,j,l}.

    Requires a[0, :] == 0 exactly (it stands for f at equal first indices).
    K needs no assembly: it is the action G -> -(b G + G b^T), b = a[1:, 1:],
    on the antisymmetric G_m whose upper triangles are the columns of X.
    """
    a = np.asarray(a_priori)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"a-priori slice must be square, got shape {a.shape}")
    dim = a.shape[0]
    if dim < 2:
        raise ContractViolation("dimension must be at least 2")
    if np.any(a[0, :] != 0):
        raise ContractViolation("a-priori slice row 0 must be zero (f at equal indices)")
    a = np.array(a, dtype=np.complex128 if a.dtype.kind == "c" else np.float64)
    # pairs (j, k) of indices 1..N-1 in row order
    j0, k0 = (idx + 1 for idx in np.triu_indices(dim - 1, 1))
    rhs = a[j0, 0, None] * a[k0, :] - a[k0, 0, None] * a[j0, :]
    return AssembledSystem(dim=dim, dim_sys=count_equations(dim), a=a, rhs=rhs.reshape(-1))


def _antisymmetric_stack(x: np.ndarray, n: int) -> np.ndarray:
    """The n x n antisymmetric G_m whose upper triangles, in row order, are the columns x[:, m]."""
    p, q = np.triu_indices(n, 1)
    g = np.zeros((x.shape[1], n, n), dtype=x.dtype)
    g[:, p, q] = x.T
    g[:, q, p] = -x.T
    return g


def _kron_sum_norms(a: np.ndarray) -> tuple[float, float]:
    """||M||_1 and ||M||_inf of M = K (x) I + I (x) a^T, from |b| and |a| alone.

    Row (j, k) of K holds +-b[j, l] at pair {k, l} and +-b[k, l] at pair {j, l}
    for l outside {j, k}, and -b[j, j] - b[k, k] on the diagonal, so its
    off-diagonal mass is s[j] + s[k] - |b_jj| - |b_kk| - |b_jk| - |b_kj| with s
    the row sums of |b|; columns are the same with the column sums. A column
    (row) of M adds one of K to a row (column) of a on the diagonal K_rr + a_ll.
    """
    b = a[1:, 1:]
    p, q = np.triu_indices(b.shape[0], 1)
    mag_b, mag_a = np.abs(b), np.abs(a)
    diag_b = np.diag(b)
    own = np.abs(diag_b[p]) + np.abs(diag_b[q]) + mag_b[p, q] + mag_b[q, p]
    shared = np.abs(np.diag(a) - (diag_b[p] + diag_b[q])[:, None])  # |K_rr + a_ll|

    def norm(axis: int) -> float:
        """axis 0: column sums of K and row sums of a (the 1-norm); axis 1: the reverse."""
        sums = mag_b.sum(axis=axis)
        off_k = sums[p] + sums[q] - own
        off_a = mag_a.sum(axis=1 - axis) - np.abs(np.diag(a))
        return float((off_k[:, None] + off_a[None, :] + shared).max())

    return norm(0), norm(1)


def _schur_solver(a: np.ndarray):
    """Solves of K X + X a = C (adjoint=False) and K^H X + X a^H = C in three-mode form.

    Column m of X is the upper triangle of an antisymmetric G_m, and K acts as
    G -> -(b G + G b^T) with b = a[1:, 1:]. From b = U T U^H and a = V S V^H,
    Y_r = sum_m U^H G_m conj(U) V[m, r] turns the forward equation into
        (T - S_rr I) Y_r + Y_r T^T = -(C_r - sum_{r' < r} S[r', r] Y_r'),
    one ?trsyl per r in S's order; the adjoint runs r backward with conj(S[r, r' > r])
    and (T - S_rr I)^H Y_r + Y_r conj(T). Each solve is N triangular solves of
    order N-1: O(N^4), against O(P^3) = O(N^6) for a Schur form of K.

    ?trsyl solves on all of C^{(N-1) x (N-1)}, so it also meets the symmetric
    modes 2 lambda_p - mu_r that K lacks, and reports info = 1 when it has to
    perturb one. The operator keeps symmetric and antisymmetric parts apart and
    the antisymmetric part (G - G^T) / 2 is what is returned, so only info < 0
    is an error. Also returns the separation min |mu_r - lambda_p - lambda_q| over
    p < q, with lambda and mu read off the diagonals of T and S.
    """
    import scipy.linalg  # the package's only scipy use: loaded on the first solve

    t, u = scipy.linalg.schur(a[1:, 1:], output="complex")
    s, v = scipy.linalg.schur(a, output="complex")
    n, dim = t.shape[0], s.shape[0]
    p, q = np.triu_indices(n, 1)
    shifted = [t - s[r, r] * np.eye(n) for r in range(dim)]
    t_conj, uh, u_conj = t.conj(), u.conj().T, u.conj()
    real = a.dtype.kind != "c"

    def solve(c: np.ndarray, adjoint: bool = False) -> np.ndarray:
        g = _antisymmetric_stack(c, n)
        rhs = np.tensordot(v.T, uh @ g @ u_conj, axes=1)
        y = np.empty_like(rhs)
        for r in range(dim - 1, -1, -1) if adjoint else range(dim):
            if adjoint:
                known = np.tensordot(s[r, r + 1 :].conj(), y[r + 1 :], axes=1)
                trans = {"trana": "C"}
            else:
                known = np.tensordot(s[:r, r], y[:r], axes=1)
                trans = {"tranb": "C"}
            y[r], scale, info = scipy.linalg.lapack.ztrsyl(
                shifted[r], t_conj, known - rhs[r], **trans
            )
            if info < 0:
                raise ContractViolation(f"triangular Sylvester solve rejected argument {-info}")
            y[r] /= scale
        g = u @ np.tensordot(v.conj(), y, axes=1) @ u.T
        x = 0.5 * (g[:, p, q] - g[:, q, p]).T
        return x.real if real else x

    lam = np.diag(t)
    separation = float(np.abs(np.diag(s)[None, :] - (lam[p] + lam[q])[:, None]).min())
    return solve, separation


def _sign(v: np.ndarray) -> np.ndarray:
    """v / |v| entrywise, 1 where v = 0."""
    mag = np.abs(v)
    return np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 1.0)


def _inverse_norm1_estimate(solve, shape: tuple[int, int], dtype) -> float:
    """Lower bound on ||M^-1||_1 that is rarely off by more than 3x (LAPACK ?lacon).

    Hager's power iteration on the unit 1-norm ball with Higham's safeguards:
    stop after five steps, or when the estimate stops growing or the
    maximizing index repeats, then take the larger of it and
    2/(3n) ||M^-1 b||_1 for the alternating vector b_i = (-1)^i (1 + i/(n-1)).
    The solves with M^-1 and M^-H reuse the Schur factors; n = P * N >= 3.
    """
    size = shape[0] * shape[1]
    v = solve(np.full(shape, 1.0 / size, dtype))
    est = float(np.abs(v).sum())
    j = int(np.argmax(np.abs(solve(_sign(v), adjoint=True))))
    for _ in range(4):
        x = np.zeros(shape, dtype)
        x.flat[j] = 1.0
        v = solve(x)
        new = float(np.abs(v).sum())
        if new <= est:
            break
        est = new
        z = np.abs(solve(_sign(v), adjoint=True))
        j_last, j = j, int(np.argmax(z))
        if z.flat[j_last] == z.flat[j]:
            break
    steps = np.arange(size)
    alt = np.where(steps % 2 == 0, 1.0, -1.0) * (1.0 + steps / (size - 1))
    return max(est, 2.0 * float(np.abs(solve(alt.reshape(shape).astype(dtype))).sum()) / (3.0 * size))


def solve_system(system: AssembledSystem) -> tuple[np.ndarray, SolveDiagnostics]:
    """Three-mode Bartels-Stewart solve with a separation guard and a 1-norm condition estimate.

    The eigenvalues of M = K (x) I + I (x) a^T are mu_r - lambda_p - lambda_q over
    p < q, with lambda from b = a[1:, 1:] and mu from a, so the separation
    min |eig(M)| comes in closed form from the two Schur diagonals. At or below
    dim_sys * eps * ||M||_inf it raises SingularSystemError before any solve.
    The residual is ||K X + X a - R||_inf over entries (= ||M u - rhs||_inf), with
    K applied to the G stack of X, and the condition estimate is ||M||_1 times
    the estimate of ||M^-1||_1. Both norms of M are read off |b| and |a|.
    """
    a = system.a
    if system.dim_sys == 0:
        return np.zeros(0, dtype=a.dtype), SolveDiagnostics(0.0, 1.0, math.inf, 0.0)
    r = system.rhs.reshape(-1, system.dim)
    solve, separation = _schur_solver(a)
    norm1, norm_inf = _kron_sum_norms(a)
    tau_sep = system.dim_sys * EPS * norm_inf
    if separation <= tau_sep:
        raise SingularSystemError(
            f"singular system: eigenvalue separation {separation:.3e} at or below"
            f" breakdown threshold {tau_sep:.3e}; a-priori data violates the"
            " non-degeneracy assumption"
        )
    x = solve(r)
    b = a[1:, 1:]
    g = _antisymmetric_stack(x, b.shape[0])
    lhs = np.tensordot(a.T, g, axes=1) - (b @ g + g @ b.T)  # K X + X a, as G stacks
    p, q = np.triu_indices(b.shape[0], 1)
    residual = inf_norm(lhs[:, p, q].T - r)
    condition = norm1 * _inverse_norm1_estimate(solve, r.shape, a.dtype)
    return x.reshape(-1), SolveDiagnostics(
        residual=residual,
        condition_estimate=condition,
        separation=separation,
        separation_threshold=tau_sep,
    )


def extract_unknowns(f: np.ndarray) -> np.ndarray:
    """Flatten a structure tensor's unknown entries in column order."""
    f = np.asarray(f)
    p, q = np.triu_indices(f.shape[0] - 1, 1)
    return f[1:, 1:][p, q].reshape(-1)


def oracle_structure_constants(sample: LieAlgebraSample) -> tuple[np.ndarray, SolveDiagnostics]:
    """Full structure tensor recovered from the sample's a-priori slice alone.

    Assembles and solves the Sylvester equation, then scatters the solution
    back with antisymmetry (f{j,i,k} = -f{i,j,k}, zero diagonal). Returns the
    tensor and the solve's diagnostics. Raises
    SystemSizeError when the system would exceed MAX_SYSTEM_DIM unknowns and
    SingularSystemError when K and -a share an eigenvalue (as they must for
    an all-zero a-priori slice, e.g. nilpotent samples with A_1 = 0).
    """
    dim = sample.dim
    dim_sys = count_equations(dim)
    if dim_sys > MAX_SYSTEM_DIM:
        raise SystemSizeError(
            f"system dimension {dim_sys} exceeds the solver guard {MAX_SYSTEM_DIM}"
        )
    a = np.array(sample.structure[0])
    u, diagnostics = solve_system(assemble_system(a))
    out = np.zeros((dim, dim, dim), dtype=a.dtype)
    out[0, :, :] = a
    out[1:, 0, :] = -a[1:, :]
    p, q = np.triu_indices(dim - 1, 1)
    vals = u.reshape(-1, dim)
    out[1:, 1:][p, q] = vals
    out[1:, 1:][q, p] = -vals
    return out, diagnostics


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
