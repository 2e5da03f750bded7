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
import posixpath
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateParametersError,
    GenerationFailedError,
    NullFirstComponentError,
    SystemSizeError,
)
from .linalg import EPS, _row_chunks, as_field_matrix, rank_and_left_null
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
    "adjoint_to_structure",
    "assemble_sample",
    "generate",
]

log = logging.getLogger(__name__)

FIELDS = ("real", "complex")
MODES = ("generic", "nilpotent")
# the dtype of each field's arrays
_DTYPES = {"real": np.dtype(np.float64), "complex": np.dtype(np.complex128)}


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs carried with every sample.

    tol_rank: absolute floor for the rank threshold (0 = machine policy only).
    tau_n1: cutoff on |n{1}| below which the scale factor 1/n{1} is unusable.
    tau_ver: verification tolerance, applied relative to scale^d for a
        degree-d probe identity (scale the largest adjoint entry) and
        (2S)^(L+2) for the depth-L series check (S the largest row sum).

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
        return asdict(self)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class NullData:
    """Unit left null vector of P with derived quantities.

    In generic mode vector is rank_and_left_null's n, with a real positive
    n{1}; in nilpotent mode it is e_N exactly. scale_factor is 1/n{1} when
    |n{1}| >= tau_n1 and None otherwise: always None in nilpotent mode,
    where n{1} = 0. smallest_retained_sv is sigma_{N-1} of P in generic
    mode, a conditioning diagnostic, and None in nilpotent mode, where the
    superdiagonal decides the rank and no singular value is taken.
    """

    vector: np.ndarray
    scale_factor: float | complex | None
    smallest_retained_sv: float | None

    def __post_init__(self):
        v = np.asarray(self.vector)
        if v.ndim != 1:
            raise ContractViolation("null vector must be one-dimensional")
        object.__setattr__(self, "vector", _freeze(v.copy()))


@dataclass(frozen=True, eq=False)
class LieAlgebraSample:
    """A generated algebra: parameters, null data, and the payloads it was given.

    The algebra is fixed by P and n; adjoint, structure and scale are derived
    on first use and kept. adjoint[k] is the k-th adjoint matrix A_k: the
    given adjoint, else the given structure's (0, 2, 1) transpose, else
    build_adjoint(P, n), which is sized then and only then. structure[i, j, k]
    is the coefficient of g_k in [g_i, g_j] (indices zero-based): the given
    structure, else a transposed view of adjoint. Every array is read-only.
    scale is max |A_k{r,c}| of build_adjoint(P, n), the magnitude every
    probe band scales with, taken by _adjoint_scale from (P, n) alone with
    no stack: a stored payload neither moves it nor is read for it. stored
    names the payloads given, in ("structure", "adjoint") order.
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
    stored_structure: np.ndarray | None = field(default=None, repr=False)
    stored_adjoint: np.ndarray | None = field(default=None, repr=False)

    @property
    def stored(self) -> tuple[str, ...]:
        given = (("structure", self.stored_structure), ("adjoint", self.stored_adjoint))
        return tuple(name for name, arr in given if arr is not None)

    @cached_property
    def adjoint(self) -> np.ndarray:
        if self.stored_adjoint is not None:
            return self.stored_adjoint
        if self.stored_structure is not None:
            # its own inverse, with no copy for the reader's layout
            return _freeze(np.ascontiguousarray(adjoint_to_structure(self.stored_structure)))
        return _freeze(build_adjoint(self.p.matrix, self.null.vector))

    @cached_property
    def structure(self) -> np.ndarray:
        if self.stored_structure is not None:
            return self.stored_structure
        return adjoint_to_structure(self.adjoint)

    @cached_property
    def scale(self) -> float:
        return _adjoint_scale(self.p.matrix, self.null.vector)


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

    Generic mode takes the rank and n from rank_and_left_null, under the
    threshold max(tol_rank, N * eps * sigma_max). Nilpotent mode reads them
    off P's structure: a strictly upper-triangular P has a zero last row, so
    n = e_N exactly, and its rank is N-1 exactly when no superdiagonal entry
    is zero. There tol_rank is the floor that every |P{i, i+1}| must exceed,
    no LAPACK call is made, and smallest_retained_sv is None; in generic mode
    it is sigma_{N-1} of P.

    Raises DegenerateParametersError when the rank is off and, in generic
    mode, NullFirstComponentError when |n{1}| < tau_n1 (1/n{1} would blow up).
    Both are retryable rejection events, not hard failures.
    """
    tol = tolerances or Tolerances()
    n_dim = pm.dim
    if pm.mode == "nilpotent":
        superdiagonal = np.abs(np.diagonal(pm.matrix, 1))
        if not np.all(superdiagonal > tol.tol_rank):
            i = int(np.argmin(superdiagonal))
            raise DegenerateParametersError(
                f"parameter matrix not of rank {n_dim - 1} at tol_rank {tol.tol_rank:.1e}:"
                f" superdiagonal entry |P{{{i + 1},{i + 2}}}| = {superdiagonal[i]:.3e}"
                " is not above it"
            )
        nvec = np.zeros(n_dim, pm.matrix.dtype)
        nvec[-1] = 1.0
        return NullData(vector=nvec, scale_factor=None, smallest_retained_sv=None)
    rank, nvec, svals = rank_and_left_null(pm.matrix, tol.tol_rank)
    if rank != n_dim - 1:
        smallest = float(svals[rank - 1]) if rank > 0 else 0.0
        raise DegenerateParametersError(
            f"parameter matrix rank {rank} != {n_dim - 1}"
            f" (smallest retained singular value {smallest:.3e})"
        )
    # no n: P[1:, 1:] is singular, so n{1} = 0
    first = 0.0 if nvec is None else nvec[0]
    if abs(first) < tol.tau_n1:
        raise NullFirstComponentError(
            f"|n{{1}}| = {abs(first):.3e} below cutoff {tol.tau_n1:.1e};"
            " scale factor 1/n{1} undefined"
        )
    c = 1.0 / first
    c = complex(c) if pm.field == "complex" else float(c)
    return NullData(
        vector=nvec,
        scale_factor=c,
        smallest_retained_sv=float(svals[rank - 1]),
    )


# a cgroup memory limit at or above this many bytes means none: cgroup v1
# reports "unlimited" as 2^63 rounded down to a page
_UNLIMITED = 1 << 62


def _read_int(path: str) -> int | None:
    """The integer a one-line file holds; None where it is absent or not an integer ("max")."""
    try:
        with open(path, "rb") as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return None


def _cgroup_headroom(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> int | None:
    """Bytes the process's memory cgroups still let it allocate; None under no limit.

    proc lists the process's cgroups. A v2 line "0::<path>" is limited by
    memory.max - memory.current under root/<path>; a v1 line whose
    controllers include memory by memory.limit_in_bytes -
    memory.usage_in_bytes under root/memory/<path>. Every ancestor of the
    path limits too, so the smallest headroom over them counts. A missing
    file, "max" or a limit of at least _UNLIMITED is no limit; a missing
    usage file counts as no usage.
    """
    try:
        with open(proc, "rb") as fh:
            lines = fh.read().decode("ascii", "replace").splitlines()
    except OSError:
        return None
    rooms = []
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        if parts[:2] == ["0", ""]:
            base, limit_file, usage_file = root, "memory.max", "memory.current"
        elif "memory" in parts[1].split(","):
            base = posixpath.join(root, "memory")
            limit_file, usage_file = "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        names = [name for name in parts[2].split("/") if name]
        for depth in range(len(names), -1, -1):  # the cgroup, then each ancestor
            directory = posixpath.join(base, *names[:depth])
            limit = _read_int(posixpath.join(directory, limit_file))
            if limit is not None and limit < _UNLIMITED:
                usage = _read_int(posixpath.join(directory, usage_file)) or 0
                rooms.append(max(limit - usage, 0))
    return min(rooms, default=None)


def _available_memory() -> int | None:
    """Bytes this process can still allocate: the smaller of MemAvailable in
    /proc/meminfo and its cgroup headroom; None where neither is known."""
    meminfo = None
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    meminfo = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    return min((m for m in (meminfo, _cgroup_headroom()) if m is not None), default=None)


def _check_fits(nbytes: int, what: str, available: int | None = None) -> None:
    """Raise SystemSizeError when `what` needs more than `available` bytes, by
    default a fresh _available_memory() read; no check where that is unknown."""
    if available is None:
        available = _available_memory()
    if available is not None and nbytes > available:
        raise SystemSizeError(
            f"{what} needs {nbytes / 2**20:.0f} MiB,"
            f" more than the {available / 2**20:.0f} MiB available"
        )


def _check_stack_fits(dim: int, dtype, stacks: int = 1, available: int | None = None) -> None:
    """_check_fits for `stacks` N^3 stacks of dtype."""
    what = f"the N={dim} adjoint stack" if stacks == 1 else f"holding {stacks} N={dim} stacks"
    _check_fits(stacks * dim**3 * np.dtype(dtype).itemsize, what, available)


# a draw and its validation hold at most this many N x N arrays of the
# field's dtype at once. Measured at N = 500-2500, both fields and modes: the
# tracemalloc peak of sample_parameter_matrix plus validate_parameter_matrix
# is 2.0-2.6 of them, and the process's peak RSS grows by 2.3-3.1, the rest
# being the copies LAPACK's singular-value and LU calls work on, out of
# tracemalloc's sight. A full SVD's U and V^H took it to 8.7-10.8
_WORKING_SET_MATRICES = 4


def _pn(p, null_vector) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """P and n as arrays of matching length, and the dtype of their adjoint stack."""
    p = np.asarray(p)
    n = np.asarray(null_vector)
    if n.shape != (p.shape[0],):
        raise ContractViolation("null vector length must match matrix dimension")
    return p, n, np.promote_types(p.dtype, n.dtype)


def build_adjoint(p: np.ndarray, null_vector: np.ndarray) -> np.ndarray:
    """All adjoint matrices at once, adj[k] = n{k} * P - p_k (x) n.

    Equals P @ T_k for each k but runs in O(N^3) total, in one pass over
    _row_chunks on this thread: each chunk of rows a is built by
    _adjoint_block straight into the stack, with at most max(_SLAB_CHUNK,
    N^2) entries of temporaries. A sample's scale comes from
    _adjoint_scale, which builds a few rows and no stack. Raises
    SystemSizeError, before it allocates, when the N^3 stack exceeds the
    memory the OS reports available.
    """
    p, n, dtype = _pn(p, null_vector)
    dim = p.shape[0]
    _check_stack_fits(dim, dtype)
    out = np.empty((dim, dim, dim), dtype=dtype)
    for rows in _row_chunks(dim, dim * dim):
        _adjoint_block(p, n, rows, out=out[rows])
    return out


def _adjoint_scale(p: np.ndarray, null_vector: np.ndarray) -> float:
    """inf_norm(build_adjoint(p, n)), bit for bit, NaN and inf included, in O(N^2) memory.

    Entry (a, r, c) is n{a} P{r, c} - n{c} P{r, a}, so row (a, r) is capped by
    B = |n{a}| max_c |P{r, c}| + max |n| |P{r, a}| in exact arithmetic. With
    u = EPS / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.5), the computed entry exceeds B by at most the rounding of a
    product (u real, sqrt(5) u complex), of the subtraction (u) and of the
    complex modulus (u): a factor (1 + sqrt(5) u)(1 + u)^2 < 1 + 5 u. The
    bound _row_bounds computes falls short of B by at most the rounding of
    |n{a}|, of the two products, of the sum and of the slack's product: a
    factor (1 - u)^5. Its slack 1 + 16 EPS = 1 + 32 u covers both. Underflow
    breaks relative bounds: each real product may then err by half a
    subnormal besides, which moves an entry by at most 2 sqrt(2) subnormals
    and the bound by 1, and 8 smallest subnormals cover that. An inf or NaN
    bound only keeps its row.

    The N rows of largest bound are built first, and their max |entry| is a
    floor `low` on the answer. A row whose bound is below `low` cannot reach
    the max, so only the others are built, _SLAB_CHUNK entries at a time, by
    _adjoint_rows_max with the build's bits. On Gaussian draws at N = 100-1000
    0.015-0.8% of the N^2 rows are left, and the pass takes O(N^2) time. With
    every |P{r, c}| and every |n{c}| equal no row is pruned, and it takes
    O(N^3) time, still in O(N^2) memory.
    """
    p, n, _ = _pn(p, null_vector)
    dim = p.shape[0]
    bound = _row_bounds(p, n).ravel()
    top = np.argpartition(bound, -dim)[-dim:]
    low = _adjoint_rows_max(p, n, top)
    if math.isnan(low):
        return low
    # not (bound < low), so a NaN bound keeps its row too
    kept = np.flatnonzero(~(bound < low))
    maxima = [_adjoint_rows_max(p, n, kept[chunk]) for chunk in _row_chunks(kept.size, dim)]
    # np.max, unlike builtin max, propagates NaN
    return float(np.max([low, *maxima]))


def _adjoint_row_sum(p: np.ndarray, null_vector: np.ndarray) -> float:
    """max_k ||A_k||_inf of build_adjoint(p, n), bit for bit, NaN included, built
    one _adjoint_block chunk at a time: O(N^3) time in O(N^2) memory, no stack."""
    p, n, _ = _pn(p, null_vector)
    chunks = _row_chunks(p.shape[0], p.size)
    return float(np.max([np.abs(_adjoint_block(p, n, ks)).sum(axis=2).max() for ks in chunks]))


def _row_bounds(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """bound[a, r] >= max |adj[a, r, :]| as computed, by _adjoint_scale's argument;
    inf or NaN where the bound overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        abs_p, abs_n = np.abs(p), np.abs(n)
        bound = abs_n[:, None] * abs_p.max(axis=1)
        bound += abs_n.max() * abs_p.T
        bound *= 1 + 16 * EPS
        bound += 8 * math.ulp(0.0)  # the smallest subnormal
    return bound


def _adjoint_rows_max(p: np.ndarray, n: np.ndarray, flat: np.ndarray) -> float:
    """max |adj[a, r, :]| over the rows a * N + r in `flat`, with _adjoint_block's bits."""
    a, r = np.divmod(flat, p.shape[0])
    rows = np.multiply(n[a, None], p[r])
    rows -= np.multiply(n, p[r, a][:, None])
    return float(np.abs(rows).max())


def _adjoint_block(
    p: np.ndarray, n: np.ndarray, rows: slice, out: np.ndarray | None = None
) -> np.ndarray:
    """build_adjoint(p, n)[rows], bit for bit: adj[a] = n{a} * P - P[:, a] (x) n.

    The block is written to `out` (a fresh array when `out` is None). Both
    products put n first, so entry (a, r, c) is n{a} * P{r, c} - n{c} * P{r, a}:
    numpy's complex multiply rounds by operand order, and the same order on
    both sides keeps the structure tensor's antisymmetry bitwise exact.
    """
    block = np.multiply(n[rows, None, None], p, out=out)
    # outer[a, r, c] = n{c} * P{r, a}, laid out like block, not like p.T
    outer = np.multiply(n, p.T[rows, :, None], order="C")
    return np.subtract(block, outer, out=block)


def adjoint_to_structure(adjoint: np.ndarray) -> np.ndarray:
    """Structure constants as a view: f[i, j, k] = adjoint[i, k, j]."""
    if adjoint.ndim != 3 or len(set(adjoint.shape)) != 1:
        raise ContractViolation(f"adjoint stack must be cubic, got shape {adjoint.shape}")
    return adjoint.transpose(0, 2, 1)


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
    """Bundle validated pieces into a sample that holds the payloads it is given.

    Each payload is frozen; an adjoint is made C-contiguous first. Nothing is
    built here: the sample derives adjoint, structure and scale on first use.
    """
    if adjoint is not None:
        adjoint = _freeze(np.ascontiguousarray(adjoint))
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
        stored_structure=None if structure is None else _freeze(structure),
        stored_adjoint=adjoint,
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
    `max_attempts` rejections, and SystemSizeError before the first draw
    when a draw and its validation would not fit in memory. The N^3 adjoint stack
    is neither sized nor built here: the sample builds it on first use.
    """
    if dim < 2:
        raise ContractViolation(f"dimension must be at least 2, got {dim}")
    if max_attempts < 1:
        raise ContractViolation("max_attempts must be at least 1")
    if field not in FIELDS:
        raise ContractViolation(f"field must be one of {FIELDS}, got {field!r}")
    _check_fits(
        _WORKING_SET_MATRICES * dim * dim * _DTYPES[field].itemsize,
        f"the working set of the N={dim} draw",
    )
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
