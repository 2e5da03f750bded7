"""Identity and classification checks for generated algebras.

Every check here verifies a statement that holds exactly in exact arithmetic:
the stored payloads equal their rebuild from (P, n), the Jacobi identity,
the almost-abelian structure <x> + ker n with g' inside ker n and ker n
abelian (Freibert, Ann. Global Anal. Geom. 42, 2012), bracket closure of the
adjoint matrices, commutativity of the derived subalgebra, vanishing of
trace(A_i [A_j, A_k]) (Cartan), the closed form of the lower central series,
and the transfer-matrix product identity. Residuals are therefore pure
rounding noise. Each probe identity is a form of degree d in the tensor
(1: almost_abelian, tproduct; 2: jacobi, closure; 3: killing; 4: derived),
tested against tau_ver * scale^d, scale = max |A_k{r,c}| of the adjoint
built from P and n. P * 2^k moves residual and band by the same exact
2^(k d) (Higham, Accuracy and Stability of Numerical Algorithms, section
2.1), so residual / tolerance is unit-free bit for bit. The series runs in
units of sigma, the smallest power of two at or above 2S, where S = max_k
||A_k||_inf is the largest row sum of the adjoint built from P and n; since
||[A, D]||_inf <= 2 ||A||_inf ||D||_inf, its depth-L level is tested against
tau_ver * (2S)^(L+2). A stored payload is only ever the tensor under test,
never a band's source. A NaN in an evaluation is its residual, and fails it.

Both claims of the paper follow from the almost-abelian structure: it makes
g' abelian and, with Jacobi, the algebra solvable. So almost_abelian, payload
and jacobi cover what closure, derived, killing and tproduct test: closure
is the Jacobi probe on the tensor the adjoint stack spells, tproduct holds
for any (P, n), and derived and killing test the claims at degree 4 and 3.

Each probe identity is a multilinear form in the basis elements, so it is
checked by one evaluation on a few seeded random vectors instead of on
every index tuple. A nonzero multilinear form vanishes on Gaussian vectors
with probability zero (Schwartz, J. ACM 27(4), 1980; the argument of
Freivalds' matrix-product check, IFIP Congress 1977), and every entry of
the tensor enters every probe. A check contracts the tensor with all its
probes in one GEMM, one pass over its N^3 entries, and evaluates the
identity on the resulting N x N matrices: O(N^3) in all, at every N.
Each check draws _PROBE_SETS sets of unit-norm real Gaussian vectors from a
NormalStream seeded by (seed, check name), so a report is a pure function of
(sample, seed) and a check run alone gives its value in a full run. The
transfer-matrix identity is evaluated in closed form, without forming any T_k.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import EPS, _ldexp, _row_chunks, inf_norm
from .rng import NormalStream, SplitMix64, _check_seed
from .sampler import LieAlgebraSample, _adjoint_block, _adjoint_row_sum

__all__ = [
    "CHECK_NAMES",
    "KillingReport",
    "SeriesReport",
    "CheckResult",
    "VerificationReport",
    "VerifyConfig",
    "jacobi_residual",
    "closure_residual",
    "derived_abelian_residual",
    "cartan_residual",
    "lower_central_series",
    "t_product_residual",
    "verify_all",
]

# series iterates whose size falls below this are lifted by an exact power
# of two, far above the subnormal range where a closed form would lose
# digits and then underflow into a false termination
_LIFT_BELOW = 2.0**-500

# probe sets per probe check, each the few vectors its identity takes
_PROBE_SETS = 4
# the series check runs min(N, _SERIES_MAX_LEVELS) levels per path
_SERIES_MAX_LEVELS = 64


def _matrix_of(p) -> np.ndarray:
    return np.asarray(getattr(p, "matrix", p))


def _vector_of(n) -> np.ndarray:
    return np.asarray(getattr(n, "vector", n))


def _check_cubic(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise ContractViolation(f"{name} must have shape (N, N, N), got {arr.shape}")
    return arr


def _probe_rows(seed: int, check: str, count: int, dim: int) -> np.ndarray:
    """count unit-norm real Gaussian vectors of length dim, as (count, dim).

    Drawn from a NormalStream seeded by (seed, check), so each check has
    probes of its own and a run of one check reproduces its value in a run
    of all.
    """
    stream = NormalStream(SplitMix64(_check_seed(seed) ^ zlib.crc32(check.encode())).next_uint64())
    probes = stream.normals(count * dim).reshape(count, dim)
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    return probes


def _contract(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """M_u = sum_i u_i t[i] for each real row u, as (len(rows), N, N), in one GEMM.

    One pass over t, which every check gives in adjoint layout; a
    non-contiguous t is copied once. A complex128 t is contracted as its
    float64 (re, im) view, one real GEMM, since a complex GEMM would cast
    the real rows to complex and do twice the multiplications.
    """
    dim = t.shape[0]
    flat = np.ascontiguousarray(t).reshape(dim, dim * dim)
    if flat.dtype == np.complex128:
        mats = (rows @ flat.view(np.float64)).view(np.complex128)
    else:
        mats = rows @ flat
    return mats.reshape(len(rows), dim, dim)


def _probe(t: np.ndarray, seed: int, check: str, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """The probes a check evaluates its identity on, and their matrices in t.

    arity * _PROBE_SETS vectors from _probe_rows, as (arity, _PROBE_SETS, N),
    and their _contract matrices as (arity, _PROBE_SETS, N, N).
    """
    dim = t.shape[0]
    probes = _probe_rows(seed, check, arity * _PROBE_SETS, dim)
    shape = (arity, _PROBE_SETS, dim)
    return probes.reshape(shape), _contract(t, probes).reshape(*shape, dim)


def _power_of_two_above(x: float) -> float:
    """The smallest power of two at or above x, or 2^1023, the largest float
    power of two, where x is above that; 1.0 unless x > 0 is finite."""
    if not x > 0.0:
        return 1.0
    # frexp's mantissa is in [1/2, 1); a mantissa of exactly 1/2 is a power of two
    mantissa, exponent = math.frexp(x)
    return math.ldexp(1.0, min(exponent - (mantissa == 0.5), 1023))


def _lift(size: float) -> int:
    """The up with size * 2^up in [1/2, 1) once 0 < size < _LIFT_BELOW, else 0."""
    return -math.frexp(size)[1] if 0.0 < size < _LIFT_BELOW else 0


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True, eq=False)
class KillingReport:
    """Killing form K{i,j} = trace(A_i A_j) plus the Cartan-criterion residual."""

    matrix: np.ndarray
    max_cartan_residual: float


@dataclass(frozen=True)
class SeriesReport:
    """Lower-central series trace along one index path.

    Levels are numbered from 0 (the base bracket [A_j, A_k]); level L applies
    L further brackets. S = max_k ||A_k||_inf is the largest row sum of the
    adjoint built from (P, n), and sigma the smallest power of two at or
    above 2S (1 when S = 0). The series runs on A/sigma and P/sigma, so
    norm_per_level and discrepancy_per_level hold max-entry norms in units
    of sigma^(L+2), where a bracket cannot grow a level past 1/2.
    """

    terminated: bool
    norm_per_level: tuple[float, ...]
    discrepancy_per_level: tuple[float, ...]
    termination_level: int | None
    base_pair: tuple[int, int]
    inner_indices: tuple[int, ...]
    sigma: float
    S: float

    def _bands(self, tau_ver: float, scale: float) -> list[float]:
        """Each level's band tau_ver * scale^(L+2), in units of sigma^(L+2)."""
        unit = scale / self.sigma
        return [tau_ver * unit ** (level + 2) for level in range(len(self.discrepancy_per_level))]

    def discrepancies_within(self, tau_ver: float, scale: float) -> bool:
        """True when every level's |direct - closed| fits tau_ver * scale^(L+2)."""
        return all(d <= b for d, b in zip(self.discrepancy_per_level, self._bands(tau_ver, scale)))

    def binding_level(self, tau_ver: float, scale: float) -> tuple[int, float]:
        """Level with the least margin, as (level, discrepancy / band)."""
        ratios = [
            d / b if b > 0.0 else (0.0 if d == 0.0 else math.inf)
            for d, b in zip(self.discrepancy_per_level, self._bands(tau_ver, scale))
        ]
        level = int(np.argmax(ratios))  # the first maximum, or the first NaN
        return level, ratios[level]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of all requested checks on one sample."""

    dim: int
    field: str
    mode: str
    seed: int
    rng_id: str
    scale: float
    tau_ver: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        """The fields, passed before checks, with non-finite floats as their repr."""
        fields = asdict(self, dict_factory=_json_ready)
        checks = fields.pop("checks")
        return {**fields, "passed": self.passed, "checks": list(checks)}


def _json_ready(pairs: list[tuple[str, object]]) -> dict:
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in pairs}


# ---------------------------------------------------------------------------
# jacobi identity, closure


def _jacobiator(adj: np.ndarray, seed: int, check: str) -> float:
    """Largest |entry| of J(x, y, z) over the check's probe sets x, y, z.

    For f{i,j,k} = adj[i, k, j], M_u = sum_i u_i f[i] is the transpose of
    the probe matrix of u in adj, and the bracket is [u, v] = v @ M_u, so
    J = [z, [x, y]] + [y, [z, x]] + [x, [y, z]]
      = (y @ M_x) @ M_z + (z @ M_y) @ M_x + (x @ M_z) @ M_y,
    which is sum_ijk x_i y_j z_k J(i, j, k, :) for the scalar J of every
    index quadruple (i, j, k, m).
    """
    (x, y, z), mats = _probe(adj, seed, check, 3)
    mx, my, mz = mats.transpose(0, 1, 3, 2)
    x, y, z = x[:, None], y[:, None], z[:, None]
    return inf_norm((y @ mx) @ mz + (z @ my) @ mx + (x @ mz) @ my)


def jacobi_residual(f: np.ndarray, seed: int = 0) -> float:
    """Jacobi identity of the structure tensor f on seeded probe vectors.

    J(x, y, z) = [z, [x, y]] + [y, [z, x]] + [x, [y, z]] is trilinear, so
    each probe set weighs every index quadruple; see _jacobiator.
    """
    f = _check_cubic(f, "structure tensor")
    return _jacobiator(f.transpose(0, 2, 1), seed, "jacobi")


def closure_residual(adj: np.ndarray, seed: int = 0) -> float:
    """Closure [A_x, A_y] = sum_k [x, y]_k A_k of the adjoint stack on probe vectors.

    Entry (a, b) of [A_i, A_j] - sum_k A_i{k,j} A_k is the Jacobi residual
    J(i, j, b, a) of the tensor f{i,j,k} = A_i{k,j} (ad is a representation
    iff Jacobi holds), so this is the Jacobi probe on adj, with probes of
    its own.
    """
    adj = _check_cubic(adj, "adjoint stack")
    return _jacobiator(adj, seed, "closure")


# ---------------------------------------------------------------------------
# derived subalgebra, Killing form / Cartan criterion


def derived_abelian_residual(adj: np.ndarray, seed: int = 0) -> float:
    """Largest ||[[A_x, A_y], [A_z, A_w]]||_inf over the probe sets.

    A_u = sum_i u_i A_i, so each probe set weighs every pair of pairs
    [[A_i, A_j], [A_k, A_l]].
    """
    adj = _check_cubic(adj, "adjoint stack")
    _, (ax, ay, az, aw) = _probe(adj, seed, "derived", 4)
    left, right = ax @ ay - ay @ ax, az @ aw - aw @ az
    return inf_norm(left @ right - right @ left)


def _cartan(adj: np.ndarray, seed: int) -> float:
    """Largest |trace(A_x [A_y, A_z])| over the probe sets."""
    _, (ax, ay, az) = _probe(adj, seed, "killing", 3)
    return inf_norm(np.einsum("sab,sba->s", ax, ay @ az - az @ ay))


def cartan_residual(adj: np.ndarray, seed: int = 0) -> KillingReport:
    """Killing form and the Cartan traces trace(A_x [A_y, A_z]) on probe vectors.

    The traces are trilinear, so each probe set weighs every triple
    trace(A_i [A_j, A_k]); they vanish for solvable algebras.
    """
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    killing = adj.reshape(dim, -1) @ adj.transpose(0, 2, 1).reshape(dim, -1).T
    killing.setflags(write=False)
    return KillingReport(matrix=killing, max_cartan_residual=_cartan(adj, seed))


# ---------------------------------------------------------------------------
# almost-abelian structure: g' inside ker n, and ker n abelian


def _almost_abelian(adj: np.ndarray, n: np.ndarray, seed: int) -> float:
    """Largest |entry| of n.[x, y] and of [x', y'] over the probe sets.

    The bracket is [u, v] = A_u v, and x' = x - (n.x) nbar, nbar = conj(n),
    lies in ker n since n.nbar = ||n||^2 = 1. n.[x, y] vanishes for all x, y
    iff g' lies in ker n, and [x', y'] = (A_x - (n.x) A_nbar) y' for all x,
    y iff ker n is abelian; both are linear in the tensor. A_nbar comes out
    of the probes' GEMM as one more row, two for a complex n (its re and im
    parts, since the rows are real), and only the x probes need matrices.
    """
    dim = adj.shape[0]
    x, y = _probe_rows(seed, "almost_abelian", 2 * _PROBE_SETS, dim).reshape(2, _PROBE_SETS, dim)
    nbar = np.conjugate(n)
    parts = (nbar.real, nbar.imag) if nbar.dtype.kind == "c" else (nbar,)
    mats = _contract(adj, np.vstack([x, *parts]))
    ax, a_nbar = mats[:_PROBE_SETS], mats[_PROBE_SETS]
    if len(parts) == 2:
        a_nbar = a_nbar + 1j * mats[-1]
    outside = n @ (ax @ y[:, :, None])  # n.[x, y]
    y_in = y - (y @ n)[:, None] * nbar
    inside = (ax - (x @ n)[:, None, None] * a_nbar) @ y_in[:, :, None]  # [x', y']
    # np.max, unlike builtin max, propagates NaN
    return float(np.max([inf_norm(outside), inf_norm(inside)]))


# ---------------------------------------------------------------------------
# series


def canonical_series_path(dim: int, depth: int) -> tuple[tuple[int, int], tuple[int, ...]]:
    """Fixed path: base pair (2,3) (or (1,2) at N=2), every inner index 1, one-based."""
    base = (1, 2) if dim >= 3 else (0, 1)
    return base, (0,) * depth


def lower_central_series(
    adj: np.ndarray,
    p,
    null,
    depth: int | None = None,
    base_pair: tuple[int, int] | None = None,
    inner_indices: tuple[int, ...] | None = None,
) -> SeriesReport:
    """Cross-check nested brackets against their closed form, level by level.

    Level 0 is D_0 = [A_j, A_k] for the base pair; level L is
    D_L = [A_{i_L}, D_{L-1}] along the inner index path. The closed form is
    C_0 = P^2 @ m (x) n, m = n{k} e_j - n{j} e_k, and
    C_L = n{i_L} * (P @ C_{L-1}); it stays rank one, so only its column
    P^(L+2) @ m times the n{i} is carried. Both run on A/sigma and P/sigma,
    sigma the smallest power of two at or above 2S, S = max_k ||A_k||_inf of
    the adjoint built from (P, n) by _adjoint_row_sum; adj is read, and
    scaled, only in the slices the path touches. Scaling by a power of two
    is exact, and since ||[A, D]||_inf <= 2 ||A||_inf ||D||_inf no level can
    grow, so nothing overflows. Only where 2S exceeds 2^1023, the largest
    float power of two, is sigma held there, and a level may overflow to inf
    or NaN. Against underflow, the iterates are lifted by an exact power of
    two (_lift) once their peak falls below _LIFT_BELOW, and the lift is
    divided out of the reported values.

    The default path is the canonical one. Termination is decided on the
    closed-form iterate, which is free of the direct path's cancellation
    noise: a level terminates the series iff its closed form is exactly
    zero. Strictly upper-triangular P reaches an exact zero (triangular
    zero patterns are exact under floating-point products) by level N - 2
    at the latest, while a generic sample's closed form decays smoothly
    but never vanishes, however far below tau_ver * scale its direct-path
    norm sinks into rounding noise.
    """
    adj = _check_cubic(adj, "adjoint stack")
    row_sum = _adjoint_row_sum(_matrix_of(p), _vector_of(null))
    return _series(adj, p, null, depth, base_pair, inner_indices, row_sum)


def _series(adj, p, null, depth, base_pair, inner_indices, row_sum: float) -> SeriesReport:
    """lower_central_series on a cubic adj, in the unit S = row_sum, which
    _check_series takes once for its two paths."""
    n = _vector_of(null)
    dim = adj.shape[0]
    if depth is None:
        depth = dim
    if depth < 0:
        raise ContractViolation("depth must be nonnegative")
    if base_pair is None or inner_indices is None:
        canon_pair, canon_inner = canonical_series_path(dim, depth)
        base_pair = base_pair if base_pair is not None else canon_pair
        inner_indices = inner_indices if inner_indices is not None else canon_inner
    if len(inner_indices) != depth:
        raise ContractViolation("inner_indices length must equal depth")
    j, k = base_pair
    if not (0 <= j < dim and 0 <= k < dim):
        raise ContractViolation(f"base pair {base_pair} out of range")
    for idx in inner_indices:
        if not 0 <= idx < dim:
            raise ContractViolation(f"inner index {idx} out of range")

    sigma = _power_of_two_above(2.0 * row_sum)
    unit = 1.0 / sigma  # exact: a product with it scales without a complex division
    pm = _matrix_of(p) * unit
    a, b = adj[j] * unit, adj[k] * unit
    direct = a @ b - b @ a
    # the closed form stays rank one, C_L = column (x) n
    m = np.zeros(dim, dtype=n.dtype)
    m[j] = n[k]
    m[k] -= n[j]  # j == k leaves an exact zero
    column = pm @ (pm @ m)
    lift = 0  # both iterates carry an exact factor 2^lift

    norms: list[float] = []
    discs: list[float] = []
    termination_level: int | None = None
    for level in range(depth + 1):
        if level:
            idx = inner_indices[level - 1]
            a = adj[idx] * unit
            direct = a @ direct - direct @ a
            column = n[idx] * (pm @ column)
        closed = np.outer(column, n)
        direct_norm, closed_norm = inf_norm(direct), inf_norm(closed)
        norms.append(math.ldexp(direct_norm, -lift))
        discs.append(math.ldexp(inf_norm(direct - closed), -lift))
        if termination_level is None and closed_norm == 0.0:
            termination_level = level
        up = _lift(max(direct_norm, closed_norm))
        if up:
            direct, column, lift = _ldexp(direct, up), _ldexp(column, up), lift + up

    return SeriesReport(
        terminated=termination_level is not None,
        norm_per_level=tuple(norms),
        discrepancy_per_level=tuple(discs),
        termination_level=termination_level,
        base_pair=(int(j), int(k)),
        inner_indices=tuple(int(x) for x in inner_indices),
        sigma=sigma,
        S=row_sum,
    )


# ---------------------------------------------------------------------------
# transfer-matrix products


def t_product_residual(null, adj: np.ndarray, seed: int = 0) -> float:
    """||A_j T_k - n{j} A_k||_inf on probe vectors, with T_k = n{k} I - e_k (x) n.

    A_j T_k = n{k} A_j - A_j[:, k] (x) n, so no T_k is formed, and the sum
    over (j, k) weighted by x_j y_k is (n.y) A_x - (A_x y) (x) n - (n.x) A_y.
    The companion T_j T_k = n{j} T_k holds for every n, so it is not checked.
    """
    adj = _check_cubic(adj, "adjoint stack")
    n = _vector_of(null)
    if n.shape != (adj.shape[0],):
        raise ContractViolation("null vector length must match adjoint dimension")
    (x, y), (ax, ay) = _probe(adj, seed, "tproduct", 2)
    residual = (y @ n)[:, None, None] * ax - (ax @ y[:, :, None]) * n
    residual -= (x @ n)[:, None, None] * ay
    return inf_norm(residual)


# ---------------------------------------------------------------------------
# aggregate runner: each check is fn(sample, seed, tau) -> (residual,
# tolerance, passed, detail), seed the probe seed and tau the band factor


def _check_payload(sample: LieAlgebraSample, seed: int, tau: float) -> tuple:
    """Max |stored - rebuilt| and its index per payload in sample.stored.

    The rebuild runs the build's own kernel, _adjoint_block, one block of
    adjoint matrices at a time on the stored (P, n), so a payload written
    from that sample matches it bit for bit. The band is the rounding bound
    8 * eps * ||P||_inf * ||n||_inf of A_k = n{k} P - p_k (x) n, which no
    tau moves; no stored payload passes at 0 and builds nothing.
    """
    p, n = sample.p.matrix, sample.null.vector
    band = 8 * EPS * inf_norm(p) * inf_norm(n)
    if not sample.stored:
        return 0.0, band, True, "no stored payload"
    # adjoint[a, r, c] == structure[a, c, r]; both are compared in adjoint layout
    layouts = {"structure": sample.structure.transpose(0, 2, 1), "adjoint": sample.adjoint}

    def compare(rows: slice) -> list:
        rebuilt, hits = _adjoint_block(p, n, rows), []
        for name in sample.stored:
            diff = np.abs(layouts[name][rows] - rebuilt)
            a, r, c = np.unravel_index(int(np.argmax(diff)), diff.shape)
            where = (rows.start + a, r, c) if name == "adjoint" else (rows.start + a, c, r)
            hits.append((float(diff[a, r, c]), tuple(int(x) for x in where)))
        return hits

    found = [compare(rows) for rows in _row_chunks(sample.dim, sample.dim**2)]
    # np.argmax keeps the first maximum and the first NaN, across chunks as within one
    worst = {
        name: hits[int(np.argmax([d for d, _ in hits]))]
        for name, hits in zip(sample.stored, zip(*found))
    }
    residual = float(np.max([d for d, _ in worst.values()]))
    detail = "max |stored - rebuilt|: " + ", ".join(
        f"{name} {d:.3e}" + (f" at {where}" if not d <= 0.0 else "")
        for name, (d, where) in worst.items()
    )
    return residual, band, residual <= band, detail


def _banded(residual, degree: int):
    """The check of a probe residual(sample, seed), banded by tau * scale^degree."""

    def check(sample: LieAlgebraSample, seed: int, tau: float) -> tuple:
        # left to right, tau * scale * scale for degree 2
        value, band = residual(sample, seed), math.prod([tau, *[sample.scale] * degree])
        return value, band, value <= band, f"{_PROBE_SETS} probe sets"

    return check


def _check_series(sample: LieAlgebraSample, seed: int, tau: float) -> tuple:
    """The series on the canonical path and one seeded random path.

    Every level must agree with its closed form within tau * (2S)^(L+2),
    S = max_k ||A_k||_inf of the adjoint built from (P, n), which no stored
    stack moves, and the paths must terminate as the mode says: generic
    none within the tested depth, nilpotent both. The residual is the
    binding level's |direct - closed| / (2S)^(L+2) and the tolerance tau. A
    nilpotent-mode P is strictly upper triangular, so P^N is exactly zero.
    """
    dim = sample.dim
    depth = min(dim, _SERIES_MAX_LEVELS)
    rng = SplitMix64(seed)
    # the random path's base pair is drawn until j < k; N=2 has one pair
    j, k = (0, 1) if dim < 3 else (1, 0)
    while j >= k:
        j, k = (int(x) for x in rng.integers(2, dim))
    inner = tuple(int(x) for x in rng.integers(depth, dim))
    adj, p, null = sample.adjoint, sample.p, sample.null
    row_sum = _adjoint_row_sum(p.matrix, null.vector)
    paths = {
        "canonical": _series(adj, p, null, depth, None, None, row_sum),
        "random": _series(adj, p, null, depth, (j, k), inner, row_sum),
    }
    ends = [rep.terminated for rep in paths.values()]
    ok = all(ends) if sample.mode == "nilpotent" else not any(ends)
    # ||[A_i, D]||_inf <= 2S ||D||_inf, so level L is banded by tau * (2S)^(L+2)
    two_s = 2.0 * paths["canonical"].S
    ok &= all(rep.discrepancies_within(tau, two_s) for rep in paths.values())
    levels = [rep.binding_level(tau, two_s) for rep in paths.values()]
    level, ratio = levels[int(np.argmax([r for _, r in levels]))]
    detail = f"depth {depth}, binding level {level}, S {two_s / 2:.3e}; " + "; ".join(
        f"{label}: terminated={rep.terminated}" for label, rep in paths.items()
    )
    return ratio * tau, tau, bool(ok), detail


# the checks verify_all runs, in this order, each probe check banded at its
# identity's degree; closure is the Jacobi probe on the adjoint stack, and
# killing the Cartan traces trace(A_x [A_y, A_z]) alone, since trace(A_i A_j)
# = trace(A_j A_i) holds for any matrices. almost_abelian, payload and jacobi
# imply closure, derived, killing and tproduct (see the module docstring);
# those four stay in the table while perfbench's traced run reads a span per name
_CHECKS = {
    "payload": _check_payload,
    "jacobi": _banded(lambda s, seed: jacobi_residual(s.structure, seed), 2),
    "almost_abelian": _banded(lambda s, seed: _almost_abelian(s.adjoint, s.null.vector, seed), 1),
    "closure": _banded(lambda s, seed: closure_residual(s.adjoint, seed), 2),
    "derived": _banded(lambda s, seed: derived_abelian_residual(s.adjoint, seed), 4),
    "killing": _banded(lambda s, seed: _cartan(s.adjoint, seed), 3),
    "series": _check_series,
    "tproduct": _banded(lambda s, seed: t_product_residual(s.null, s.adjoint, seed), 1),
}
CHECK_NAMES = tuple(_CHECKS)


@dataclass(frozen=True)
class VerifyConfig:
    """What verify_all runs: the band, the probe seed and the checks.

    tau_ver is the probe and series band factor; None means "use the
    tolerance stored with the sample", and a given value must be finite and
    positive. seed, a uint64, picks every probe check's vectors, each
    check's own, and the series check's random path. checks is a nonempty
    subset of CHECK_NAMES; they always run in CHECK_NAMES order.
    """

    tau_ver: float | None = None
    seed: int = 0
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        tau = self.tau_ver
        if tau is not None and not (math.isfinite(tau) and tau > 0):
            raise ContractViolation(f"tau_ver must be finite and positive, got {tau!r}")
        _check_seed(self.seed)
        if not self.checks:
            raise ContractViolation("checks must name at least one check")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ContractViolation(
                f"unknown checks {sorted(unknown)}; valid names: {', '.join(CHECK_NAMES)}"
            )


def verify_all(sample: LieAlgebraSample, config: VerifyConfig | None = None) -> VerificationReport:
    """Run the configured checks, in CHECK_NAMES order, and time each one.

    Check failures become report entries; nothing raises. The probe checks
    each evaluate their identity on _PROBE_SETS seeded probe sets and pass
    at tau_ver * scale^d, d their identity's degree (_CHECKS).
    _check_payload and _check_series give the other two bands.
    """
    cfg = config or VerifyConfig()
    tau = cfg.tau_ver if cfg.tau_ver is not None else sample.tolerances.tau_ver
    scale = sample.scale  # read first, so no check's seconds hold the scale pass
    results: list[CheckResult] = []
    for name, check in _CHECKS.items():
        if name not in cfg.checks:
            continue
        begin = time.perf_counter()
        # an inf entry makes inf - inf somewhere, and entries near the float
        # range overflow: the inf or NaN is the residual, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            residual, tolerance, passed, detail = check(sample, cfg.seed, tau)
        results.append(
            CheckResult(name, residual, tolerance, passed, time.perf_counter() - begin, detail)
        )
    return VerificationReport(
        dim=sample.dim,
        field=sample.field,
        mode=sample.mode,
        seed=sample.seed,
        rng_id=sample.rng_id,
        scale=scale,
        tau_ver=tau,
        checks=tuple(results),
    )
