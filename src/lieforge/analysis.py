"""Identity and classification checks for generated algebras.

Every check here verifies a statement that holds exactly in exact arithmetic:
the stored payloads equal their rebuild from (P, n), the Jacobi identity,
bracket closure of the adjoint matrices, commutativity of the derived
subalgebra, vanishing of trace(A_i [A_j, A_k]) (Cartan), the closed form of
the lower central series, and the transfer-matrix product identity.
Residuals are therefore pure rounding noise. The bilinear identities are
tested against tau_ver * scale^2, with scale = max_k ||A_k||_inf the largest
entry. The series runs in units of sigma, the smallest power of two at or
above 2S, where S = max_k ||A_k||_inf is the largest row sum; since
||[A, D]||_inf <= 2 ||A||_inf ||D||_inf, its depth-L level is tested against
tau_ver * (2S)^(L+2). A NaN anywhere in a check's evaluation becomes its
residual, so the check fails.

Each identity has one evaluation. Closure is not a kernel of its own: its
entries are the Jacobi residuals of the tensor the adjoint stack spells, so
it runs the Jacobi kernel on that view. The transfer-matrix identity is
evaluated in closed form, without forming any T_k. Each bilinear kernel
evaluates every index tuple that shares a leading index (one "slab") with a
few array products, one row of its second index at a time. One scanner,
_scan, decides which tuples run, under one policy, the (cap, budget) table
_SAMPLING: up to its cap a check runs every slab ("full"); above it the
check runs the same kernel on a seeded subset of slabs ("sampled"): leading
indices are taken in a SplitMix64(seed) order until their tuple counts cover
the budget, and the last one is cut after the row that covers it. The
checked subset is a pure function of (seed, N), picked slabs run in
ascending order, and every reported count is the number of tuples actually
checked. Rows are taken in linalg._row_chunks, so temporaries stay under
_SLAB_CHUNK entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import EPS, _row_chunks, inf_norm
from .rng import SplitMix64
from .sampler import LieAlgebraSample, adjoint_rows

__all__ = [
    "CHECK_NAMES",
    "JacobiReport",
    "BracketFactorization",
    "KillingReport",
    "SeriesReport",
    "CheckResult",
    "VerificationReport",
    "VerifyConfig",
    "bracket_factorization",
    "jacobi_residual",
    "jacobi_residual_at",
    "closure_residual",
    "derived_abelian_residual",
    "cartan_residual",
    "lower_central_series",
    "nilpotency_check",
    "t_product_residual",
    "verify_all",
]

CHECK_NAMES = ("payload", "jacobi", "closure", "derived", "killing", "series", "tproduct")

# series and power iterates whose size falls below this are lifted by an
# exact power of two, far above the subnormal range where a closed form would
# lose digits and then underflow into a false termination
_LIFT_BELOW = 2.0**-500

# (cap, budget) per check, in tuples of the commented kind. Up to cap (the
# dimension N) a check scans every slab; above it, seeded slabs until they
# hold budget tuples, the last one cut after the row that reaches it. closure
# runs the jacobi kernel, so it shares that entry.
# These values keep verify_all interactive up to N = 100.
_SAMPLING = {
    "jacobi": (30, 1_000_000),  # quadruples (i < j < k, m)
    "derived": (14, 256),  # pair-pairs (p < q)
    "killing": (60, 128),  # triples (i, j < k)
    "tproduct": (64, 128),  # pairs (j, k)
}
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


def _budget(check: str, dim: int) -> int | None:
    """The check's tuple budget at dimension dim, or None to scan every slab."""
    cap, budget = _SAMPLING[check]
    return None if dim <= cap else budget


def _pick_slabs(sizes: np.ndarray, budget: int | None, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading indices to scan, ascending, and the tuples to check in each.

    sizes[s] is the tuple count of slab s. budget=None takes every nonempty
    slab whole. Otherwise nonempty slabs are taken in a SplitMix64(seed)
    order while the budget has tuples left, each whole but the last, whose
    limit is what the budget has left.
    """
    live = np.flatnonzero(sizes)
    if budget is None:
        return live, sizes[live]
    order = live[np.argsort(SplitMix64(seed).uint64s(live.size), kind="stable")]
    whole = sizes[order]
    left = budget - (np.cumsum(whole) - whole)  # the budget left as each slab comes up
    picked, limits = order[left > 0], np.minimum(whole, left)[left > 0]
    ascending = np.argsort(picked)
    return picked[ascending], limits[ascending]


def _scan(check: str, dim: int, sizes: np.ndarray, seed: int, kernel) -> tuple[float, object, int]:
    """Worst kernel value over the check's slabs, where it lies, and the tuples checked.

    kernel(s, limit) evaluates whole rows of slab s's second index until
    they hold at least limit tuples and returns (value, where, checked).
    The slabs and limits come from _pick_slabs under the check's _SAMPLING
    entry at dimension dim, and run in ascending order; the first worst
    value is kept, NaN ranked above every number.
    """
    slabs, limits = _pick_slabs(sizes, _budget(check, dim), seed)
    results = [kernel(int(s), int(limit)) for s, limit in zip(slabs, limits)]
    # max keeps the first of equal values
    worst, where, _ = max(results, key=lambda r: _nan_last(r[0]), default=(0.0, None, 0))
    return float(worst), where, sum(r[2] for r in results)


def _power_of_two_above(x: float) -> float:
    """The smallest power of two at or above x; 1.0 unless x > 0 is finite."""
    if not x > 0.0:
        return 1.0
    # frexp's mantissa is in [1/2, 1); a mantissa of exactly 1/2 is a power of two
    mantissa, exponent = math.frexp(x)
    return math.ldexp(1.0, exponent - (mantissa == 0.5))


def _nan_last(value: float) -> tuple[bool, float]:
    """Sort key that ranks NaN above every number, so a max keeps it."""
    return math.isnan(value), value


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class JacobiReport:
    """Outcome of a Jacobi-identity scan.

    worst_indices is the zero-based (i, j, k, m) quadruple realizing
    max_residual, the lexicographically smallest on ties, or None when no
    quadruple exists (N < 3 or a zero sample budget). max_residual is
    recomputed at that quadruple with the scalar formula, so
    ``jacobi_residual_at(f, *worst_indices)`` reproduces it exactly.
    checked_count is the number of quadruples checked.
    """

    max_residual: float
    worst_indices: tuple[int, int, int, int] | None
    checked_count: int
    sampled: bool


@dataclass(frozen=True)
class BracketFactorization:
    """Rank-one factorization of one adjoint bracket.

    For the pair (i, j), m_vector is the column with n{j} at position i and
    -n{i} at position j, and value = P^2 @ m_vector (x) n equals
    [A_i, A_j] = A_i A_j - A_j A_i up to rounding.
    """

    i: int
    j: int
    m_vector: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class KillingReport:
    """Killing form K{i,j} = trace(A_i A_j) plus the Cartan-criterion residual."""

    matrix: np.ndarray
    max_cartan_residual: float


@dataclass(frozen=True)
class SeriesReport:
    """Lower-central series trace along one index path.

    Levels are numbered from 0 (the base bracket [A_j, A_k]); level L applies
    L further brackets. S = max_k ||A_k||_inf is the largest row sum of the
    adjoint stack, and sigma the smallest power of two at or above 2S (1 when
    S = 0). The series runs on A/sigma and P/sigma, so norm_per_level and
    discrepancy_per_level hold max-entry norms in units of sigma^(L+2). In
    those units a bracket cannot grow a level, so none exceeds 1/2.
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
        level = max(range(len(ratios)), key=lambda lv: _nan_last(ratios[lv]))
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
        def num(x: float):
            return x if math.isfinite(x) else repr(x)

        return {
            "dim": self.dim,
            "field": self.field,
            "mode": self.mode,
            "seed": self.seed,
            "rng_id": self.rng_id,
            "scale": num(self.scale),
            "tau_ver": self.tau_ver,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": num(c.residual),
                    "tolerance": num(c.tolerance),
                    "passed": c.passed,
                    "seconds": c.seconds,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class VerifyConfig:
    """What verify_all runs: the band, the sampling seed and the checks.

    tau_ver is the bilinear and series band factor; None means "use the
    tolerance stored with the sample", and a given value must be finite and
    positive. seed picks the slabs of every check above its cap in _SAMPLING
    and the series check's random path. checks is a subset of CHECK_NAMES;
    they always run in CHECK_NAMES order.
    """

    tau_ver: float | None = None
    seed: int = 0
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        if self.tau_ver is not None and not (math.isfinite(self.tau_ver) and self.tau_ver > 0):
            raise ContractViolation(f"tau_ver must be finite and positive, got {self.tau_ver!r}")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ContractViolation(
                f"unknown checks {sorted(unknown)}; valid names: {', '.join(CHECK_NAMES)}"
            )


# ---------------------------------------------------------------------------
# jacobi identity


def jacobi_residual_at(f: np.ndarray, i: int, j: int, k: int, m: int) -> float:
    """|J^A + J^B + J^C| at one index quadruple, scalar arithmetic."""
    total = f[i, j, :] @ f[k, :, m] + f[k, i, :] @ f[j, :, m] + f[j, k, :] @ f[i, :, m]
    return float(abs(total))


def _jacobi_slab(f: np.ndarray, i: int, limit: int) -> tuple[float, tuple[int, int, int, int], int]:
    """Largest |J| over (i, j > i, k > j, m), on rows j until they hold limit quadruples.

    Returns (value, quadruple, checked), the quadruple first in (j, k, m)
    order on ties. For fixed i the three terms over every (j, k, m) are
    stacked products: f[i, j, :] @ f[k], f[k, i, :] @ f[j] and
    f[j, k, :] @ f[i]. Rows j are taken in chunks; each chunk evaluates
    every k after its first row and masks the pairs with k <= j.
    """
    dim = f.shape[0]
    left = np.ascontiguousarray(f[:, i, :])  # (k; l), too strided for BLAS as a view
    checked, stop = 0, i + 1
    while checked < limit:  # whole rows j, of dim * (dim - 1 - j) quadruples each
        checked += dim * (dim - 1 - stop)
        stop += 1
    best = (-1.0, (i, i + 1, i + 2, 0))
    for js in _row_chunks(i + 1, stop, dim * dim):
        ks = slice(js.start + 1, dim)
        total = (f[i, js] @ f[ks]).transpose(1, 0, 2) + left[ks] @ f[js]
        total += f[js, ks] @ f[i]
        vals = np.abs(total)
        vals[np.arange(ks.start, dim) <= np.arange(js.start, js.stop)[:, None]] = -1.0
        pos = np.unravel_index(int(np.argmax(vals)), vals.shape)  # a NaN wins argmax
        if _nan_last(vals[pos]) > _nan_last(best[0]):
            best = (float(vals[pos]), (i, js.start + int(pos[0]), ks.start + int(pos[1]), int(pos[2])))
    return best[0], best[1], checked


def jacobi_residual(f: np.ndarray, seed: int = 0) -> JacobiReport:
    """Scan |J^A + J^B + J^C| over quadruples (i < j < k, m).

    Up to the jacobi cap in _SAMPLING every leading index i runs (O(N^5) work
    in BLAS products); above it, leading indices run in a SplitMix64(seed)
    order until their quadruples cover the budget, the last one cut after
    the row j that reaches it, and checked_count says how many that was. The
    reported maximum is recomputed at the winning quadruple with scalar dot
    products; ties go to the lexicographically smallest quadruple checked.
    """
    f = _check_cubic(f, "structure tensor")
    dim = f.shape[0]
    rest = dim - 1 - np.arange(dim)
    sizes = dim * rest * (rest - 1) // 2  # quadruples with leading index i
    _, quad, checked = _scan("jacobi", dim, sizes, seed, lambda i, limit: _jacobi_slab(f, i, limit))
    sampled = _budget("jacobi", dim) is not None
    if quad is None:
        return JacobiReport(0.0, None, 0, sampled)
    return JacobiReport(jacobi_residual_at(f, *quad), quad, checked, sampled)


# ---------------------------------------------------------------------------
# closure, derived subalgebra, Killing form / Cartan criterion


def closure_residual(adj: np.ndarray, seed: int = 0) -> float:
    """max over pairs i < j of ||[A_i, A_j] - sum_k A_i{k,j} A_k||_inf.

    Entry (a, b) of the pair (i, j) is the Jacobi residual J(i, j, b, a) of
    the tensor f{i,j,k} = A_i{k,j} (ad is a representation iff Jacobi holds),
    so this is jacobi_residual on that view, under Jacobi's cap and budget in
    _SAMPLING. For f antisymmetric in its first two indices, J is
    antisymmetric in its first three and vanishes when two of them meet, so
    Jacobi's i < j < k domain covers every pair and entry.
    """
    adj = _check_cubic(adj, "adjoint stack")
    return jacobi_residual(adj.transpose(0, 2, 1), seed).max_residual


def _derived(adj, seed) -> tuple[float, None, int]:
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    first, second = np.triu_indices(dim, 1)  # pair p = (first[p], second[p])

    def slab(p: int, limit: int):
        a, b = adj[first[p]], adj[second[p]]
        b_p = a @ b - b @ a
        worst = 0.0
        for qs in _row_chunks(p + 1, p + 1 + limit, dim * dim):  # a row q is one pair-pair
            a, b = adj[first[qs]], adj[second[qs]]
            b_q = a @ b
            b_q -= b @ a
            cross = b_p @ b_q
            cross -= b_q @ b_p
            worst = np.maximum(worst, inf_norm(cross))
        return worst, None, limit

    sizes = first.size - 1 - np.arange(first.size)  # pair-pairs (p, q > p)
    return _scan("derived", dim, sizes, seed, slab)


def derived_abelian_residual(adj: np.ndarray, seed: int = 0) -> float:
    """max over pair-pairs p < q of ||[[A_i,A_j],[A_k,A_l]]||_inf.

    A slab is every pair-pair whose first pair is p = (i < j), and a row one
    second pair q. All slabs up to the derived cap in _SAMPLING; beyond it,
    seeded slabs until they hold the budget, the last one cut at the budget.
    [B_q, B_p] = -[B_p, B_q] and [B_p, B_p] = 0 exactly, so q > p covers
    every pair-pair.
    """
    return _derived(adj, seed)[0]


def _cartan(adj, seed) -> tuple[float, None, int]:
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    flat = adj.reshape(dim, dim * dim)

    def slab(j: int, limit: int):
        stop = j + 1 + -(-limit // dim)  # a row k holds the dim triples (i, j, k)
        worst = 0.0
        for ks in _row_chunks(j + 1, stop, dim * dim):
            rest = adj[ks]
            brackets = adj[j] @ rest - rest @ adj[j]
            # trace(A_i B) = sum_ab A_i{a,b} B{b,a}, for every i at once
            traces = flat @ brackets.transpose(0, 2, 1).reshape(rest.shape[0], -1).T
            worst = np.maximum(worst, inf_norm(traces))
        return worst, None, dim * (stop - j - 1)

    sizes = dim * (dim - 1 - np.arange(dim))  # triples (i, j, k > j)
    return _scan("killing", dim, sizes, seed, slab)


def cartan_residual(adj: np.ndarray, seed: int = 0) -> KillingReport:
    """Killing form and max |trace(A_i [A_j, A_k])| (zero for solvable algebras).

    A slab is every triple (i, j, k > j) with pair leading index j, and a row
    the N triples of one k. All slabs up to the killing cap in _SAMPLING;
    beyond it, seeded slabs until they hold the budget, the last one cut
    after the row that reaches it.
    """
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    killing = adj.reshape(dim, -1) @ adj.transpose(0, 2, 1).reshape(dim, -1).T
    killing.setflags(write=False)
    return KillingReport(matrix=killing, max_cartan_residual=_cartan(adj, seed)[0])


# ---------------------------------------------------------------------------
# series


def bracket_factorization(p, null, i: int, j: int) -> BracketFactorization:
    """Closed form of [A_i, A_j] as P^2 @ m (x) n, indices zero-based."""
    pm = _matrix_of(p)
    n = _vector_of(null)
    dim = pm.shape[0]
    if not (0 <= i < dim and 0 <= j < dim):
        raise ContractViolation(f"pair ({i}, {j}) out of range for dimension {dim}")
    m_vector = np.zeros(dim, dtype=n.dtype)
    m_vector[i] = n[j]
    m_vector[j] = m_vector[j] - n[i]  # j == i leaves an exact zero
    value = np.outer(pm @ (pm @ m_vector), n)
    return BracketFactorization(i=i, j=j, m_vector=m_vector, value=value)


def canonical_series_path(dim: int, depth: int) -> tuple[tuple[int, int], tuple[int, ...]]:
    """Fixed path: base pair (2,3) (or (1,2) at N=2), every inner index 1, one-based."""
    base = (1, 2) if dim >= 3 else (0, 1)
    return base, (0,) * depth


def _row_sum_norm(adj: np.ndarray) -> float:
    """max_k ||A_k||_inf, read in _row_chunks; NaN propagates."""
    dim = adj.shape[0]
    sums = [np.abs(adj[ks]).sum(axis=2).max() for ks in _row_chunks(0, dim, dim * dim)]
    return float(np.max(sums))


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
    C_0 = P^2 @ m_{k,j} (x) n and C_L = n{i_L} * (P @ C_{L-1}); it stays
    rank one, so only its column P^(L+2) @ m times the n{i} is carried. Both
    run on A/sigma and P/sigma, sigma the smallest power of two at or above
    2 max_k ||A_k||_inf, scaling only the adjoint slices the path touches.
    Scaling by a power of two is exact, and since
    ||[A, D]||_inf <= 2 ||A||_inf ||D||_inf no level can grow, so nothing
    overflows. Against underflow, the iterates are lifted by an exact power
    of two once their peak falls below _LIFT_BELOW, and the lift is divided
    out of the reported values.

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
    return _series(adj, p, null, depth, base_pair, inner_indices, _row_sum_norm(adj))


def _series(adj, p, null, depth, base_pair, inner_indices, row_sum: float) -> SeriesReport:
    """lower_central_series on a cubic adj whose S, max_k ||A_k||_inf, is row_sum.

    verify_all runs two paths on one adjoint, and reads S once for both.
    """
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
    column = pm @ (pm @ bracket_factorization(pm, n, j, k).m_vector)
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
        peak = max(direct_norm, closed_norm)
        if 0.0 < peak < _LIFT_BELOW:
            up = -math.frexp(peak)[1]
            direct, column = _times_power_of_two(direct, up), _times_power_of_two(column, up)
            lift += up

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


def _times_power_of_two(m: np.ndarray, up: int) -> np.ndarray:
    """m * 2^up as two exact factors, since 2.0**up alone overflows once up > 1023."""
    return m * 2.0 ** (up // 2) * 2.0 ** (up - up // 2)


def _lifted(m: np.ndarray, lift: int) -> tuple[np.ndarray, int]:
    """(m * 2^up, lift + up) once m's largest row sum is below _LIFT_BELOW, else (m, lift).

    up is the integer that brings that row sum into [1/2, 1).
    """
    rows = float(np.abs(m).sum(axis=1).max())
    if not 0.0 < rows < _LIFT_BELOW:
        return m, lift
    up = -math.frexp(rows)[1]
    return _times_power_of_two(m, up), lift + up


def nilpotency_check(p, tau_ver: float = 1e-9) -> bool:
    """True iff ||P^N||_inf <= tau_ver * ||P||_inf^N, by repeated squaring.

    Runs on B = P/sigma, sigma the smallest power of two at or above the
    largest row sum of P, so that no power of B has a row sum above 1 and
    nothing overflows. Each iterate carries an integer exponent: once its
    largest row sum falls below _LIFT_BELOW it is lifted by an exact power
    of two (_lifted). Both sides of the bound are compared in base-2
    logarithms, so the answer is meaningful where ||P||^N leaves the
    float64 range.
    """
    pm = _matrix_of(p)
    if not pm.any():
        return True
    dim = pm.shape[0]
    power = pm * (1.0 / _power_of_two_above(float(np.abs(pm).sum(axis=1).max())))
    bound = math.log2(tau_ver) + dim * math.log2(inf_norm(power))
    power_lift = 0  # power is B^(2^t) * 2^power_lift
    result, result_lift = None, 0
    bits = dim
    while True:
        if bits & 1:
            if result is None:
                result, result_lift = power, power_lift
            else:
                result, result_lift = _lifted(result @ power, result_lift + power_lift)
            if not result.any():
                return True
        bits >>= 1
        if not bits:
            return math.log2(inf_norm(result)) - result_lift <= bound
        power, power_lift = _lifted(power @ power, 2 * power_lift)
        if not power.any():
            # the leading bit still multiplies this zero into the result
            return True


# ---------------------------------------------------------------------------
# transfer-matrix products


def _tproduct(null, adj, seed) -> tuple[float, None, int]:
    adj = _check_cubic(adj, "adjoint stack")
    n = _vector_of(null)
    dim = adj.shape[0]
    if n.shape != (dim,):
        raise ContractViolation("null vector length must match adjoint dimension")

    def slab(j: int, limit: int):
        worst = 0.0
        for ks in _row_chunks(0, limit, dim * dim):  # a row k is one pair
            # A_j T_k - n{j} A_k = n{k} A_j - A_j[:, k] (x) n - n{j} A_k, for every k at once
            residual = n[ks, None, None] * adj[j]
            residual -= adj[j][:, ks].T[:, :, None] * n
            residual -= n[j] * adj[ks]
            worst = np.maximum(worst, inf_norm(residual))
        return worst, None, limit

    sizes = np.full(dim, dim)  # pairs (j, k) with leading index j
    return _scan("tproduct", dim, sizes, seed, slab)


def t_product_residual(null, adj: np.ndarray, seed: int = 0) -> float:
    """max over pairs (j, k) of ||A_j T_k - n{j} A_k||_inf, with T_k = n{k} I - e_k (x) n.

    A_j T_k = n{k} A_j - A_j[:, k] (x) n, so no T_k is formed. The companion
    T_j T_k = n{j} T_k holds for every n, so it is not checked. A slab is
    every pair with leading index j. All slabs up to the tproduct cap in
    _SAMPLING; beyond it, seeded slabs until they hold the budget, the last
    one cut at the budget.
    """
    return _tproduct(null, adj, seed)[0]


# ---------------------------------------------------------------------------
# aggregate runner


def _random_series_path(
    rng: SplitMix64, dim: int, depth: int
) -> tuple[tuple[int, int], tuple[int, ...]]:
    if dim >= 3:
        while True:
            j, k = (int(x) for x in rng.integers(2, dim))
            if j < k:
                break
    else:
        j, k = 0, 1
    inner = tuple(int(x) for x in rng.integers(depth, dim))
    return (j, k), inner


def _payload_diffs(sample: LieAlgebraSample) -> dict:
    """Max |stored - rebuilt| and its index per payload.

    The rebuild runs adjoint_rows, which equals build_adjoint bit for bit, on
    the stored (P, n), so a payload written from that sample matches it bit
    for bit.
    """
    p, n = sample.p.matrix, sample.null.vector
    dim = sample.dim
    # adjoint[a, r, c] == structure[a, c, r]; both are compared in adjoint layout
    stored = {"structure": sample.structure.transpose(0, 2, 1), "adjoint": sample.adjoint}
    best = {name: (0.0, (0, 0, 0)) for name in stored}
    for rows in _row_chunks(0, dim, dim * dim):
        rebuilt = adjoint_rows(p, n, rows)
        for name, arr in stored.items():
            diff = np.abs(arr[:, rows, :] - rebuilt)
            a, r, c = np.unravel_index(int(np.argmax(diff)), diff.shape)
            if _nan_last(diff[a, r, c]) > _nan_last(best[name][0]):  # a NaN wins argmax
                where = (a, rows.start + r, c) if name == "adjoint" else (a, c, rows.start + r)
                best[name] = (float(diff[a, r, c]), tuple(int(x) for x in where))
    return best


def verify_all(sample: LieAlgebraSample, config: VerifyConfig | None = None) -> VerificationReport:
    """Run the configured checks and collect residual/tolerance/time per check.

    Check failures become report entries; nothing raises. The payload check
    passes at the rounding bound 8 * eps * ||P||_inf * ||n||_inf of
    A_k = n{k} P - p_k (x) n, which no tau_ver moves. The bilinear checks
    (jacobi, closure, derived, killing, tproduct) pass at tau_ver * scale^2;
    closure is Jacobi on the adjoint stack's view and counts its quadruples;
    killing is the Cartan traces trace(A_i [A_j, A_k]) alone, since
    trace(A_i A_j) = trace(A_j A_i) holds for any matrices. The series check
    requires per-level closed-form agreement within tau_ver * (2S)^(L+2),
    S = max_k ||A_k||_inf the largest row sum, on the canonical path and one
    seeded random path, plus the mode-appropriate termination behavior
    (generic: none within the tested depth; nilpotent: termination). Its
    residual is the binding level's |direct - closed| / (2S)^(L+2) and its
    tolerance tau_ver. A nilpotent-mode P is strictly upper triangular, so
    P^N is exactly zero and needs no check of its own.
    """
    cfg = config or VerifyConfig()
    tau = cfg.tau_ver if cfg.tau_ver is not None else sample.tolerances.tau_ver
    scale = sample.scale
    band2 = tau * scale * scale
    dim = sample.dim
    results: list[CheckResult] = []

    def run(name: str, fn) -> None:
        if name not in cfg.checks:
            return
        begin = time.perf_counter()
        residual, tolerance, passed, detail = fn()
        results.append(
            CheckResult(
                name=name,
                residual=residual,
                tolerance=tolerance,
                passed=passed,
                seconds=time.perf_counter() - begin,
                detail=detail,
            )
        )

    def check_payload():
        diffs = _payload_diffs(sample)
        residual = max((d for d, _ in diffs.values()), key=_nan_last)
        band = 8 * EPS * inf_norm(sample.p.matrix) * inf_norm(sample.null.vector)
        detail = "max |stored - rebuilt|: " + ", ".join(
            f"{name} {d:.3e}" + (f" at {where}" if d > 0.0 else "")
            for name, (d, where) in diffs.items()
        )
        return residual, band, residual <= band, detail

    def bilinear(name: str, policy: str, unit: str, scan) -> None:
        """Run a bilinear check; scan() gives (residual, where, checked) under policy."""

        def check():
            res, where, count = scan()
            detail = f"{'full' if _budget(policy, dim) is None else 'sampled'}, {count} {unit}"
            if where is not None:
                detail += f", worst at {where}"
            return res, band2, res <= band2, detail

        run(name, check)

    def jacobi(f):
        rep = jacobi_residual(f, seed=cfg.seed)
        return rep.max_residual, rep.worst_indices, rep.checked_count

    def check_series():
        depth = min(dim, _SERIES_MAX_LEVELS)
        pair, inner = _random_series_path(SplitMix64(cfg.seed), dim, depth)
        row_sum = _row_sum_norm(sample.adjoint)
        adj, p, null = sample.adjoint, sample.p, sample.null
        paths = {
            "canonical": _series(adj, p, null, depth, None, None, row_sum),
            "random": _series(adj, p, null, depth, pair, inner, row_sum),
        }
        ends = [rep.terminated for rep in paths.values()]
        ok = all(ends) if sample.mode == "nilpotent" else not any(ends)
        # ||[A_i, D]||_inf <= 2S ||D||_inf, so level L is banded by tau * (2S)^(L+2)
        two_s = 2.0 * paths["canonical"].S
        worst = (0, 0.0)
        for rep in paths.values():
            ok &= rep.discrepancies_within(tau, two_s)
            worst = max(worst, rep.binding_level(tau, two_s), key=lambda t: _nan_last(t[1]))
        level, ratio = worst
        detail = f"depth {depth}, binding level {level}, S {two_s / 2:.3e}; " + "; ".join(
            f"{label}: terminated={rep.terminated}" for label, rep in paths.items()
        )
        return ratio * tau, tau, bool(ok), detail

    run("payload", check_payload)
    bilinear("jacobi", "jacobi", "quadruples", lambda: jacobi(sample.structure))
    # closure is Jacobi on the tensor the adjoint payload spells, f{i,j,k} = A_i{k,j}
    bilinear("closure", "jacobi", "quadruples", lambda: jacobi(sample.adjoint.transpose(0, 2, 1)))
    bilinear("derived", "derived", "pair-pairs", lambda: _derived(sample.adjoint, cfg.seed))
    bilinear("killing", "killing", "triples", lambda: _cartan(sample.adjoint, cfg.seed))
    run("series", check_series)
    bilinear("tproduct", "tproduct", "pairs", lambda: _tproduct(sample.null, sample.adjoint, cfg.seed))

    return VerificationReport(
        dim=dim,
        field=sample.field,
        mode=sample.mode,
        seed=sample.seed,
        rng_id=sample.rng_id,
        scale=scale,
        tau_ver=tau,
        checks=tuple(results),
    )
