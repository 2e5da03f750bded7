"""Literal references that tests compare the library's closed forms against."""

import json

import numpy as np

from lieforge.errors import ContractViolation
from lieforge.linalg import EPS, as_field_matrix


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


def svd_left_null(p, tol_rank: float = 0.0):
    """(rank, n) from a full SVD, as the library took them before its LU solve.

    The rank counts singular values above max(tol_rank, N * eps * sigma_max).
    n is the conjugated last left singular vector, its first component above
    1e-12 in magnitude made real and positive; None unless rank == N-1.
    """
    p = as_field_matrix(p, "p")
    u, s, _ = np.linalg.svd(p)
    rank = int(np.count_nonzero(s > max(tol_rank, p.shape[0] * EPS * s[0])))
    if rank != p.shape[0] - 1:
        return rank, None
    n = np.conjugate(u[:, -1])
    anchor = n[np.flatnonzero(np.abs(n) > 1e-12)[0]]
    return rank, n * (np.conjugate(anchor) / abs(anchor))


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


# --- exhaustive identity kernels ------------------------------------------
# Each evaluates its identity at every index tuple, as the library did before
# its checks became seeded probes; tests compare the probes' verdicts with
# these. A NaN anywhere in the input becomes the result.


def jacobi_residual_at(f: np.ndarray, i: int, j: int, k: int, m: int) -> float:
    """|J(i, j, k, m)| at one index quadruple, scalar arithmetic."""
    total = f[i, j, :] @ f[k, :, m] + f[k, i, :] @ f[j, :, m] + f[j, k, :] @ f[i, :, m]
    return float(abs(total))


def jacobi_tensor(f: np.ndarray) -> np.ndarray:
    """J(i, j, k, m) of jacobi_residual_at at every quadruple, as an (N, N, N, N) array."""
    a = np.einsum("ijl,klm->ijkm", f, f)  # a[i, j, k, m] = f[i, j, :] @ f[k, :, m]
    return a + np.einsum("kijm->ijkm", a) + np.einsum("jkim->ijkm", a)


def exhaustive_jacobi(f: np.ndarray) -> float:
    """max |J(i, j, k, m)| over every quadruple with i < j < k; 0 below N = 3."""
    i, j, k = np.indices(f.shape)
    return float(np.abs(jacobi_tensor(f)[(i < j) & (j < k)]).max(initial=0.0))


def exhaustive_closure(adj: np.ndarray) -> float:
    """max over pairs i < j of ||[A_i, A_j] - sum_k A_i{k,j} A_k||_inf."""
    dim = adj.shape[0]
    flat = adj.reshape(dim, dim * dim)
    worst = 0.0
    for i in range(dim):
        rest = adj[i + 1 :]
        residual = adj[i] @ rest - rest @ adj[i]
        residual -= (adj[i][:, i + 1 :].T @ flat).reshape(rest.shape)  # sum_k A_i{k,j} A_k
        worst = np.max([worst, np.abs(residual).max(initial=0.0)])
    return float(worst)


def exhaustive_derived(adj: np.ndarray) -> float:
    """max over pairs of pairs p < q of ||[B_p, B_q]||_inf, B_p = [A_i, A_j] for i < j.

    For each p, the products B_p B_q and B_q B_p for every q > p come out of
    two GEMMs.
    """
    dim = adj.shape[0]
    first, second = np.triu_indices(dim, 1)
    a, c = adj[first], adj[second]
    b = a @ c - c @ a
    pairs = len(b)
    rows = b.reshape(pairs * dim, dim)  # row (q, a) is row a of B_q
    cols = np.ascontiguousarray(b.transpose(1, 0, 2)).reshape(dim, pairs * dim)  # column (q, c)
    worst = 0.0
    for p in range(pairs - 1):
        later = pairs - p - 1
        brackets = (b[p] @ cols[:, (p + 1) * dim :]).reshape(dim, later, dim)  # [a, q, c]
        brackets -= (rows[(p + 1) * dim :] @ b[p]).reshape(later, dim, dim).transpose(1, 0, 2)
        worst = np.max([worst, np.abs(brackets).max()])
    return float(worst)


def exhaustive_cartan(adj: np.ndarray) -> float:
    """max |trace(A_i [A_j, A_k])| over every triple."""
    dim = adj.shape[0]
    # products[j, a, k, c] = (A_j A_k)[a, c]
    products = adj.reshape(dim * dim, dim) @ adj.transpose(1, 0, 2).reshape(dim, dim * dim)
    products = products.reshape(dim, dim, dim, dim)
    brackets = products - products.transpose(2, 1, 0, 3)
    return float(np.abs(np.einsum("ica,jakc->ijk", adj, brackets)).max(initial=0.0))


def exhaustive_tproduct(null_vector: np.ndarray, adj: np.ndarray) -> float:
    """max over pairs (j, k) of ||A_j T_k - n{j} A_k||_inf, every T_k materialized."""
    n = np.asarray(null_vector)
    dim = adj.shape[0]
    t = np.stack([transfer_matrix(n, k) for k in range(dim)])
    # products[j, a, k, c] = (A_j T_k)[a, c]
    products = adj.reshape(dim * dim, dim) @ t.transpose(1, 0, 2).reshape(dim, dim * dim)
    residual = products.reshape(dim, dim, dim, dim)
    residual -= n[:, None, None, None] * adj.transpose(1, 0, 2)
    return float(np.abs(residual).max(initial=0.0))



def exhaustive_almost_abelian(null_vector: np.ndarray, adj: np.ndarray) -> float:
    """The larger of max |n.[e_i, e_j]| over every pair and max |[v, w]| over
    every pair of an orthonormal basis of ker n, with [u, v] = A_u v.

    ker n = {v : sum_i n{i} v{i} = 0}: the right singular vectors of the row
    n past the first, conjugated, so that n @ basis = 0 over either field.
    """
    n = np.asarray(null_vector)
    outside = np.einsum("r,irj->ij", n, adj)  # n.[e_i, e_j] = n @ A_i[:, j]
    basis = np.linalg.svd(n[None, :])[2][1:].conj().T  # (N, N - 1)
    a_basis = np.einsum("ip,irc->prc", basis, adj)  # A_v for each basis vector v
    inside = a_basis @ basis  # [v_p, v_q] as (p, r, q)
    return float(np.max([np.abs(outside).max(initial=0.0), np.abs(inside).max(initial=0.0)]))


# --- the lieforge/1 encoder ------------------------------------------------
# The writer as it was before it streamed: every payload turned into Python
# lists and the whole document through one json.dumps. Tests compare the
# streamed writer's bytes with it.


def _leaves(arr) -> list:
    """JSON leaves of an array, flattened row-major; complex values as [re, im]."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.dtype.kind == "c":
        return flat.view(np.float64).reshape(-1, 2).tolist()
    return flat.tolist()


def _sparse_structure(structure: np.ndarray) -> list:
    rows, cols = np.triu_indices(structure.shape[0], k=1)
    half = structure[rows, cols]
    pair, k = np.nonzero(half)
    columns = (rows[pair].tolist(), cols[pair].tolist(), k.tolist(), _leaves(half[pair, k]))
    return [list(entry) for entry in zip(*columns)]


def encode_sample(sample, include_adjoint: bool = False, include_structure: bool = True) -> str:
    """A sample's lieforge/1 document through one json.dumps of its lists."""
    c = sample.null.scale_factor
    doc: dict = {
        "format_version": "lieforge/1",
        "dim": sample.dim,
        "field": sample.field,
        "mode": sample.mode,
        "seed": int(sample.seed),
        "rng_id": sample.rng_id,
        "attempts": int(sample.attempts),
        "tolerances": sample.tolerances.as_dict(),
        "p_matrix": _leaves(sample.p.matrix),
        "null_vector": _leaves(sample.null.vector),
        "c": None if c is None else _leaves(c)[0],
    }
    if include_adjoint:
        doc["adjoint"] = [_leaves(a) for a in sample.adjoint]
    if include_structure:
        doc["structure_constants"] = _sparse_structure(sample.structure)
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"
