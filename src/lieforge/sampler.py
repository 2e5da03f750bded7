"""Random solvable Lie algebra generation.

The construction: draw an N x N parameter matrix P whose first column is zero
(generic mode) or which is strictly upper triangular (nilpotent mode). When P
has rank N-1 it has a one-dimensional left null space spanned by a unit row
vector n, and the matrices

    A_k = n{k} * P - p_k (x) n        (p_k = k-th column of P)

close under commutation and define the adjoint representation of a solvable
Lie algebra with structure constants f{i,j,k} = A_i{k,j}. The rank-one form
above equals P @ T_k with the transfer matrix T_k = n{k}*I - e_k (x) n but
costs O(N^3) total instead of O(N^4).

Draws that fail validation (rank defect, or |n{1}| below cutoff in generic
mode) are rejected and resampled from the same stream; both failures are
measure-zero under normal sampling.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateParametersError,
    GenerationFailedError,
    NullFirstComponentError,
)
from .linalg import _SLAB_CHUNK, as_field_matrix, inf_norm, rank_and_left_null
from .rng import RNG_ID, NormalStream

__all__ = [
    "FIELDS",
    "MODES",
    "Tolerances",
    "ParameterMatrix",
    "NullData",
    "LieAlgebraSample",
    "sample_parameter_matrix",
    "validate_parameter_matrix",
    "build_adjoint",
    "adjoint_rows",
    "adjoint_to_structure",
    "transfer_matrix",
    "assemble_sample",
    "generate",
]

log = logging.getLogger(__name__)

FIELDS = ("real", "complex")
MODES = ("generic", "nilpotent")


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs carried with every sample.

    tol_rank: absolute floor for the rank threshold (0 = machine policy only).
    tau_n1: cutoff on |n{1}| below which the scale factor 1/n{1} is unusable.
    tau_ver: verification tolerance, applied relative to scale^2 for bilinear
        identities and scale^(L+2) for depth-L series checks.

    Every field is finite, tol_rank >= 0, and tau_n1 and tau_ver are > 0.
    """

    tol_rank: float = 0.0
    tau_n1: float = 1e-10
    tau_ver: float = 1e-9

    def __post_init__(self):
        values = (self.tol_rank, self.tau_n1, self.tau_ver)
        if not (
            all(math.isfinite(v) for v in values)
            and self.tol_rank >= 0
            and self.tau_n1 > 0
            and self.tau_ver > 0
        ):
            raise ContractViolation(
                "tolerances need finite tol_rank >= 0, tau_n1 > 0 and tau_ver > 0, "
                f"got {self.as_dict()}"
            )

    def as_dict(self) -> dict:
        return {"tol_rank": self.tol_rank, "tau_n1": self.tau_n1, "tau_ver": self.tau_ver}


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParameterMatrix:
    """Square parameter matrix plus the sampling mode it must conform to."""

    matrix: np.ndarray
    mode: str

    def __post_init__(self):
        m = as_field_matrix(self.matrix, "parameter matrix")
        if m.shape[0] < 2:
            raise ContractViolation("dimension must be at least 2")
        if self.mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        if np.any(m[:, 0] != 0):
            raise ContractViolation("first column of the parameter matrix must be zero")
        if self.mode == "nilpotent" and np.any(np.tril(m) != 0):
            raise ContractViolation("nilpotent mode requires a strictly upper-triangular matrix")
        object.__setattr__(self, "matrix", _freeze(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def field(self) -> str:
        return "complex" if self.matrix.dtype.kind == "c" else "real"


@dataclass(frozen=True)
class NullData:
    """Unit left null vector of P with derived quantities.

    scale_factor is 1/n{1} when |n{1}| >= tau_n1 and None otherwise (always
    None in practice for nilpotent mode, where n{1} = 0 exactly in theory).
    smallest_retained_sv is the smallest singular value counted toward the
    rank, a conditioning diagnostic.
    """

    vector: np.ndarray
    scale_factor: float | complex | None
    smallest_retained_sv: float

    def __post_init__(self):
        v = np.asarray(self.vector)
        if v.ndim != 1:
            raise ContractViolation("null vector must be one-dimensional")
        object.__setattr__(self, "vector", _freeze(v.copy()))


@dataclass(frozen=True)
class LieAlgebraSample:
    """A generated algebra: parameters, null data, and both representations.

    adjoint[k] is the k-th adjoint matrix A_k; structure[i, j, k] is the
    coefficient of g_k in [g_i, g_j] (indices zero-based). The arrays are
    read-only; structure is a transposed view of adjoint.
    """

    dim: int
    field: str
    mode: str
    seed: int
    rng_id: str
    attempts: int
    tolerances: Tolerances
    p: ParameterMatrix
    null: NullData
    adjoint: np.ndarray = field(repr=False)
    structure: np.ndarray = field(repr=False)

    @property
    def scale(self) -> float:
        """max_k ||A_k||_inf; the magnitude all verification bands scale with."""
        return inf_norm(self.adjoint)


def sample_parameter_matrix(
    dim: int, rng: NormalStream, field: str = "real", mode: str = "generic"
) -> ParameterMatrix:
    """Draw a parameter matrix from the normal stream.

    Draw order is part of the format contract: row-major over the free
    positions (generic: every row's columns 2..N; nilpotent: each row's
    strictly-upper positions). For the complex field, all real parts are
    drawn first in that order, then all imaginary parts in the same order.
    """
    if dim < 2:
        raise ContractViolation(f"dimension must be at least 2, got {dim}")
    if field not in FIELDS:
        raise ContractViolation(f"field must be one of {FIELDS}, got {field!r}")
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")

    if mode == "generic":
        count = dim * (dim - 1)
    else:
        count = dim * (dim - 1) // 2

    def draw() -> np.ndarray:
        vals = rng.normals(count)
        m = np.zeros((dim, dim))
        if mode == "generic":
            m[:, 1:] = vals.reshape(dim, dim - 1)
        else:
            m[np.triu_indices(dim, k=1)] = vals
        return m

    matrix = draw()
    if field == "complex":
        matrix = matrix + 1j * draw()
    return ParameterMatrix(matrix=matrix, mode=mode)


def validate_parameter_matrix(
    pm: ParameterMatrix, tolerances: Tolerances | None = None
) -> NullData:
    """Check rank N-1 and extract the left null vector.

    Raises DegenerateParametersError when the rank is off and, in generic
    mode, NullFirstComponentError when |n{1}| < tau_n1 (1/n{1} would blow up).
    Both are retryable rejection events, not hard failures.
    """
    tol = tolerances or Tolerances()
    n_dim = pm.dim
    rank, nvec, svals = rank_and_left_null(pm.matrix, tol.tol_rank)
    if rank != n_dim - 1:
        smallest = float(svals[rank - 1]) if rank > 0 else 0.0
        raise DegenerateParametersError(
            f"parameter matrix rank {rank} != {n_dim - 1}"
            f" (smallest retained singular value {smallest:.3e})"
        )
    first = nvec[0]
    usable = abs(first) >= tol.tau_n1
    if pm.mode == "generic" and not usable:
        raise NullFirstComponentError(
            f"|n{{1}}| = {abs(first):.3e} below cutoff {tol.tau_n1:.1e};"
            " scale factor 1/n{1} undefined"
        )
    if usable:
        c = 1.0 / first
        c = complex(c) if pm.field == "complex" else float(c)
    else:
        c = None
    return NullData(
        vector=nvec,
        scale_factor=c,
        smallest_retained_sv=float(svals[rank - 1]),
    )


def build_adjoint(p: np.ndarray, null_vector: np.ndarray) -> np.ndarray:
    """All adjoint matrices at once: adj[k] = n{k} * P - p_k (x) n.

    Equals P @ T_k for each k but runs in O(N^3) total. Every product
    n{a} * P{r,c} is computed exactly once and the second term reuses those
    floats through a transpose, so the structure tensor's antisymmetry (and
    its zero i = j slice) is bitwise exact; different multiply kernels would
    otherwise disagree in the last ulp on complex input. The rows r are built
    by adjoint_rows in chunks of at most _SLAB_CHUNK products (at least one
    row), so each chunk's transpose runs in cache; the chunk size cannot
    change the result.
    """
    p = np.asarray(p)
    n = np.asarray(null_vector)
    dim = p.shape[0]
    if n.shape != (dim,):
        raise ContractViolation("null vector length must match matrix dimension")
    out = np.empty((dim, dim, dim), dtype=np.promote_types(p.dtype, n.dtype))
    step = max(1, _SLAB_CHUNK // (dim * dim))
    for start in range(0, dim, step):
        sl = slice(start, min(start + step, dim))
        adjoint_rows(p, n, sl, out=out[:, sl, :])
    return out


def adjoint_rows(
    p: np.ndarray, null_vector: np.ndarray, rows: slice, out: np.ndarray | None = None
) -> np.ndarray:
    """build_adjoint(p, null_vector)[:, rows, :], bit for bit.

    The products are laid out as prod[r, a, c] = n{a} * P{r, c}, so row r's
    N x N block is contiguous and adj[a, r, c] = prod[r, a, c] - prod[r, c, a]
    transposes within that block. The difference is written through a
    (1, 0, 2) view of `out` (a fresh array when `out` is None), whose shape is
    that of adj[:, rows, :].
    """
    n = np.asarray(null_vector)
    prod = n[None, :, None] * np.asarray(p)[rows, None, :]
    if out is None:
        out = np.empty_like(prod.transpose(1, 0, 2), order="C")
    np.subtract(prod, prod.transpose(0, 2, 1), out=out.transpose(1, 0, 2))
    return out


def adjoint_to_structure(adjoint: np.ndarray) -> np.ndarray:
    """Structure constants as a view: f[i, j, k] = adjoint[i, k, j]."""
    if adjoint.ndim != 3 or len(set(adjoint.shape)) != 1:
        raise ContractViolation(f"adjoint stack must be cubic, got shape {adjoint.shape}")
    return adjoint.transpose(0, 2, 1)


def transfer_matrix(null_vector: np.ndarray, k: int) -> np.ndarray:
    """Materialize T_k = n{k} * I - e_k (x) n (k zero-based)."""
    n = np.asarray(null_vector)
    dim = n.shape[0]
    if not 0 <= k < dim:
        raise ContractViolation(f"index {k} out of range for dimension {dim}")
    t = n[k] * np.eye(dim, dtype=n.dtype)
    t[k, :] -= n
    return t


def assemble_sample(
    pm: ParameterMatrix,
    null: NullData,
    seed: int,
    rng_id: str = RNG_ID,
    attempts: int = 1,
    tolerances: Tolerances | None = None,
    adjoint: np.ndarray | None = None,
    structure: np.ndarray | None = None,
) -> LieAlgebraSample:
    """Bundle validated pieces into a sample, rebuilding anything absent."""
    if adjoint is None:
        adjoint = build_adjoint(pm.matrix, null.vector)
    adjoint = _freeze(np.ascontiguousarray(adjoint))
    if structure is None:
        structure = adjoint_to_structure(adjoint)
    return LieAlgebraSample(
        dim=pm.dim,
        field=pm.field,
        mode=pm.mode,
        seed=seed,
        rng_id=rng_id,
        attempts=attempts,
        tolerances=tolerances or Tolerances(),
        p=pm,
        null=null,
        adjoint=adjoint,
        structure=structure,
    )


def generate(
    dim: int,
    seed: int,
    field: str = "real",
    mode: str = "generic",
    max_attempts: int = 16,
    tolerances: Tolerances | None = None,
) -> LieAlgebraSample:
    """Generate one algebra, resampling on validation failure.

    A single normal stream seeded with `seed` feeds all attempts, so the
    document produced for a given (dim, field, mode, seed) is unique even
    when early draws are rejected. Raises GenerationFailedError after
    `max_attempts` rejections.
    """
    if dim < 2:
        raise ContractViolation(f"dimension must be at least 2, got {dim}")
    if max_attempts < 1:
        raise ContractViolation("max_attempts must be at least 1")
    tol = tolerances or Tolerances()
    stream = NormalStream(seed)
    last_error: Exception | None = None
    for attempt in range(1, max_attempts + 1):
        pm = sample_parameter_matrix(dim, stream, field=field, mode=mode)
        try:
            null = validate_parameter_matrix(pm, tol)
        except (DegenerateParametersError, NullFirstComponentError) as err:
            log.debug("attempt %d/%d rejected: %s", attempt, max_attempts, err)
            last_error = err
            continue
        return assemble_sample(
            pm, null, seed=seed, rng_id=RNG_ID, attempts=attempt, tolerances=tol
        )
    raise GenerationFailedError(
        f"no valid sample after {max_attempts} attempts; last failure: {last_error}",
        last_error,
    )
