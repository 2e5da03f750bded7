"""Identity and classification checks for generated algebras.

Every check here verifies a statement that holds exactly in exact arithmetic:
the stored payloads equal their rebuild from (P, n), the Jacobi identity,
bracket closure of the adjoint matrices, commutativity of the derived
subalgebra, vanishing of trace(A_i [A_j, A_k]) (Cartan), the closed form of
the lower central series, and the transfer-matrix product identities.
Residuals are therefore pure rounding noise and are tested against
tau_ver * scale^2 (bilinear identities) or tau_ver * scale^(L+2) (depth-L
series), with scale = max_k ||A_k||_inf.

Each bilinear identity has one kernel, which evaluates every index tuple that
shares a leading index (one "slab") with a few BLAS products. Which slabs run
is one policy, the (cap, budget) table _SAMPLING: up to its cap a check runs
every slab in ascending order ("full"); above it the check runs the same
kernel on a seeded subset of slabs ("sampled"): leading indices are taken in
a SplitMix64(seed) order until their tuple counts cover the budget, so the
checked subset is a pure function of (seed, N) and every reported count is
the number of tuples actually checked. Inside a slab, the second index is
split so that temporaries stay under _SLAB_CHUNK entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .linalg import _SLAB_CHUNK, EPS, commutator, inf_norm
from .rng import SplitMix64
from .sampler import LieAlgebraSample, adjoint_rows, transfer_matrix

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

# rescale running series/power iterates outside this window to dodge overflow
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

# (cap, budget) per check, in tuples of the commented kind. Up to cap (the
# dimension N) a check scans every slab; above it, seeded slabs until they
# hold budget tuples. These values keep verify_all interactive up to N = 100.
_SAMPLING = {
    "jacobi": (30, 1_000_000),  # quadruples (i < j < k, m)
    "closure": (60, 128),  # pairs (i < j)
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


def _pick_slabs(sizes: np.ndarray, budget: int | None, seed: int) -> np.ndarray:
    """Leading indices to scan, given each slab's tuple count.

    budget=None takes every nonempty slab, in ascending order. Otherwise
    nonempty slabs are taken in a SplitMix64(seed) order until their tuple
    counts cover the budget, and are returned in that order.
    """
    live = np.flatnonzero(sizes)
    if budget is None:
        return live
    if budget <= 0:
        return live[:0]
    order = live[np.argsort(SplitMix64(seed).uint64s(live.size), kind="stable")]
    take = int(np.searchsorted(np.cumsum(sizes[order]), budget)) + 1
    return order[:take]


def _scan(sizes: np.ndarray, budget: int | None, seed: int, kernel) -> tuple[float, int]:
    """Largest kernel(slab) over the picked slabs, and the tuples they hold."""
    slabs = _pick_slabs(sizes, budget, seed)
    worst = max((kernel(int(s)) for s in slabs), default=0.0)
    return worst, int(sizes[slabs].sum())


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
    checked_count is the number of quadruples the scanned slabs hold.
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
    commutator(A_i, A_j) up to rounding.
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
    """Lower-central (or derived) series trace along one index path.

    Levels are numbered from 0 (the base bracket [A_j, A_k]); level L applies
    L further brackets. Norm and discrepancy values that overflow float64 are
    reported as inf, with exact natural-log companions in norm_logs and
    discrepancy_logs (-inf marks exact zeros); all pass/fail arithmetic uses
    the log values.
    """

    kind: str
    depth_tested: int
    terminated: bool
    max_norm_per_level: tuple[float, ...]
    discrepancy_per_level: tuple[float, ...]
    norm_logs: tuple[float, ...] = field(repr=False)
    discrepancy_logs: tuple[float, ...] = field(repr=False)
    max_discrepancy: float
    termination_level: int | None
    base_pair: tuple[int, int]
    inner_indices: tuple[int, ...]

    def discrepancies_within(self, tau_ver: float, scale: float) -> bool:
        """True when every level's |direct - closed| fits tau_ver * scale^(L+2)."""
        for level, dlog in enumerate(self.discrepancy_logs):
            if dlog == -math.inf:
                continue
            if scale == 0.0:
                return False
            if dlog > math.log(tau_ver) + (level + 2) * math.log(scale):
                return False
        return True

    def binding_level(self, tau_ver: float, scale: float) -> tuple[int, float, float]:
        """Level with the least margin, as (level, discrepancy, band)."""
        best = (0, 0.0, tau_ver * scale * scale)
        best_margin = -math.inf
        for level, dlog in enumerate(self.discrepancy_logs):
            if dlog == -math.inf:
                continue
            band_log = (
                math.log(tau_ver) + (level + 2) * math.log(scale)
                if scale > 0.0
                else -math.inf
            )
            margin = dlog - band_log
            if margin > best_margin:
                best_margin = margin
                best = (
                    level,
                    self.discrepancy_per_level[level],
                    math.exp(band_log) if band_log < 700 else math.inf,
                )
        return best


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


def _jacobi_slab(f: np.ndarray, i: int) -> tuple[float, tuple[int, int, int, int]]:
    """Largest |J| over (i, j > i, k > j, m), the first in (j, k, m) order on ties.

    For fixed i the three terms over every (j, k, m) are stacked products:
    f[i, j, :] @ f[k], f[k, i, :] @ f[j] and f[j, k, :] @ f[i]. Rows j are
    taken in chunks; each chunk evaluates every k after its first row and
    masks the pairs with k <= j.
    """
    dim = f.shape[0]
    left = np.ascontiguousarray(f[:, i, :])  # (k; l), too strided for BLAS as a view
    step = max(1, _SLAB_CHUNK // (dim * dim))
    best = (-1.0, (i, i + 1, i + 2, 0))
    for j0 in range(i + 1, dim - 1, step):
        js, ks = slice(j0, min(j0 + step, dim - 1)), slice(j0 + 1, dim)
        total = (f[i, js] @ f[ks]).transpose(1, 0, 2) + left[ks] @ f[js]
        total += f[js, ks] @ f[i]
        vals = np.abs(total)
        vals[np.arange(ks.start, dim) <= np.arange(js.start, js.stop)[:, None]] = -1.0
        pos = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[pos] > best[0]:
            best = (float(vals[pos]), (i, j0 + int(pos[0]), j0 + 1 + int(pos[1]), int(pos[2])))
    return best


def jacobi_residual(f: np.ndarray, seed: int = 0) -> JacobiReport:
    """Scan |J^A + J^B + J^C| over quadruples (i < j < k, m).

    Up to the jacobi cap in _SAMPLING every leading index i runs (O(N^5) work
    in BLAS products); above it, leading indices run in a SplitMix64(seed)
    order until their quadruples cover the budget, and checked_count says how
    many that was. The reported maximum is recomputed at the winning
    quadruple with scalar dot products; ties go to the lexicographically
    smallest quadruple.
    """
    f = _check_cubic(f, "structure tensor")
    dim = f.shape[0]
    rest = dim - 1 - np.arange(dim)
    sizes = dim * rest * (rest - 1) // 2  # quadruples with leading index i
    budget = _budget("jacobi", dim)
    slabs = np.sort(_pick_slabs(sizes, budget, seed))
    if slabs.size == 0:
        return JacobiReport(0.0, None, 0, budget is not None)
    # max keeps the first of equal values, and slabs run in ascending order
    _, quad = max((_jacobi_slab(f, int(i)) for i in slabs), key=lambda r: r[0])
    return JacobiReport(
        max_residual=jacobi_residual_at(f, *quad),
        worst_indices=quad,
        checked_count=int(sizes[slabs].sum()),
        sampled=budget is not None,
    )


# ---------------------------------------------------------------------------
# closure, derived subalgebra, Killing form / Cartan criterion


def _closure(adj, seed) -> tuple[float, int]:
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    flat = adj.reshape(dim, dim * dim)
    step = max(1, _SLAB_CHUNK // (dim * dim))

    def slab(i: int) -> float:
        worst = 0.0
        for j0 in range(i + 1, dim, step):
            rest = adj[j0 : j0 + step]
            residual = adj[i] @ rest
            residual -= rest @ adj[i]
            # sum_k A_i{k,j} A_k for every j in the chunk
            residual -= (adj[i][:, j0 : j0 + step].T @ flat).reshape(rest.shape)
            worst = max(worst, inf_norm(residual))
        return worst

    sizes = dim - 1 - np.arange(dim)  # pairs (i, j > i)
    return _scan(sizes, _budget("closure", dim), seed, slab)


def closure_residual(adj: np.ndarray, seed: int = 0) -> float:
    """max over pairs i < j of ||[A_i, A_j] - sum_k A_i{k,j} A_k||_inf.

    A slab is every pair with leading index i. All slabs up to the closure
    cap in _SAMPLING; beyond it, seeded slabs until they hold the budget.
    """
    return _closure(adj, seed)[0]


def _derived(adj, seed) -> tuple[float, int]:
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    first, second = np.triu_indices(dim, 1)  # pair p = (first[p], second[p])
    step = max(1, _SLAB_CHUNK // (dim * dim))
    sizes = first.size - 1 - np.arange(first.size)  # pair-pairs (p, q > p)
    budget = _budget("derived", dim)
    worst, checked = 0.0, 0
    for p in _pick_slabs(sizes, budget, seed):
        # one slab holds up to N^2/2 pair-pairs, far above a sampled budget,
        # so the last slab taken stops where the budget runs out
        stop = first.size if budget is None else min(first.size, p + 1 + budget - checked)
        checked += stop - p - 1
        b_p = commutator(adj[first[p]], adj[second[p]])
        for q0 in range(p + 1, stop, step):
            qs = slice(q0, min(q0 + step, stop))
            a, b = adj[first[qs]], adj[second[qs]]
            b_q = a @ b
            b_q -= b @ a
            cross = b_p @ b_q
            cross -= b_q @ b_p
            worst = max(worst, inf_norm(cross))
    return worst, checked


def derived_abelian_residual(adj: np.ndarray, seed: int = 0) -> float:
    """max over pair-pairs p < q of ||[[A_i,A_j],[A_k,A_l]]||_inf.

    A slab is every pair-pair whose first pair is p = (i < j). All slabs up to
    the derived cap in _SAMPLING; beyond it, seeded slabs until they hold the
    budget, the last one cut at the budget. [B_q, B_p] = -[B_p, B_q] and
    [B_p, B_p] = 0 exactly, so q > p covers every pair-pair.
    """
    return _derived(adj, seed)[0]


def _cartan(adj, seed) -> tuple[KillingReport, int]:
    adj = _check_cubic(adj, "adjoint stack")
    dim = adj.shape[0]
    flat = adj.reshape(dim, dim * dim)
    flat_t = adj.transpose(0, 2, 1).reshape(dim, dim * dim)
    killing = flat @ flat_t.T
    killing.setflags(write=False)
    step = max(1, _SLAB_CHUNK // (dim * dim))

    def slab(j: int) -> float:
        worst = 0.0
        for k0 in range(j + 1, dim, step):
            rest = adj[k0 : k0 + step]
            brackets = adj[j] @ rest - rest @ adj[j]
            # trace(A_i B) = sum_ab A_i{a,b} B{b,a}, for every i at once
            traces = flat @ brackets.transpose(0, 2, 1).reshape(rest.shape[0], -1).T
            worst = max(worst, inf_norm(traces))
        return worst

    sizes = dim * (dim - 1 - np.arange(dim))  # triples (i, j, k > j)
    worst, count = _scan(sizes, _budget("killing", dim), seed, slab)
    return KillingReport(matrix=killing, max_cartan_residual=worst), count


def cartan_residual(adj: np.ndarray, seed: int = 0) -> KillingReport:
    """Killing form and max |trace(A_i [A_j, A_k])| (zero for solvable algebras).

    A slab is every triple (i, j, k > j) with pair leading index j. All slabs
    up to the killing cap in _SAMPLING; beyond it, seeded slabs until they
    hold the budget.
    """
    return _cartan(adj, seed)[0]


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
    value = (pm @ pm) @ np.outer(m_vector, n)
    return BracketFactorization(i=i, j=j, m_vector=m_vector, value=value)


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
    C_0 = P^2 @ m_{k,j} (x) n and C_L = n{i_L} * (P @ C_{L-1}). Both
    recursions are linear, so a shared running rescale (applied identically
    to D and C once their magnitude leaves [1e-100, 1e100]) keeps the
    comparison meaningful far beyond float64 range; true norms and
    discrepancies are recovered through an accumulated log factor.

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
    pm = _matrix_of(p)
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

    direct = commutator(adj[j], adj[k])
    closed = bracket_factorization(pm, n, j, k).value
    log_factor = 0.0

    norms: list[float] = []
    norm_logs: list[float] = []
    discs: list[float] = []
    disc_logs: list[float] = []
    termination_level: int | None = None

    def record(level: int) -> bool:
        """Log current level; True when both iterates are exactly zero."""
        nonlocal termination_level
        nd = inf_norm(direct)
        dd = inf_norm(direct - closed)
        nlog = math.log(nd) + log_factor if nd > 0.0 else -math.inf
        dlog = math.log(dd) + log_factor if dd > 0.0 else -math.inf
        norm_logs.append(nlog)
        disc_logs.append(dlog)
        norms.append(math.exp(nlog) if nlog < 700 else math.inf)
        discs.append(math.exp(dlog) if dlog < 700 else math.inf)
        if termination_level is None and inf_norm(closed) == 0.0:
            termination_level = level
        return nd == 0.0 and inf_norm(closed) == 0.0

    dead = record(0)
    for level in range(1, depth + 1):
        if dead:
            # exact zero propagates; later levels are identically zero
            norms.append(0.0)
            discs.append(0.0)
            norm_logs.append(-math.inf)
            disc_logs.append(-math.inf)
            continue
        idx = inner_indices[level - 1]
        if not 0 <= idx < dim:
            raise ContractViolation(f"inner index {idx} out of range")
        direct = commutator(adj[idx], direct)
        closed = n[idx] * (pm @ closed)
        peak = max(inf_norm(direct), inf_norm(closed))
        if peak > _RESCALE_HI or (0.0 < peak < _RESCALE_LO):
            direct = direct / peak
            closed = closed / peak
            log_factor += math.log(peak)
        dead = record(level)

    finite_discs = [d for d in discs if math.isfinite(d)]
    return SeriesReport(
        kind="lower_central",
        depth_tested=depth,
        terminated=termination_level is not None,
        max_norm_per_level=tuple(norms),
        discrepancy_per_level=tuple(discs),
        norm_logs=tuple(norm_logs),
        discrepancy_logs=tuple(disc_logs),
        max_discrepancy=max(finite_discs) if finite_discs else 0.0,
        termination_level=termination_level,
        base_pair=(int(j), int(k)),
        inner_indices=tuple(int(x) for x in inner_indices),
    )


def nilpotency_check(p, tau_ver: float = 1e-9) -> bool:
    """True iff ||P^N||_inf <= tau_ver * ||P||_inf^N, by repeated squaring.

    Computed on P/||P||_inf with per-step renormalization and an accumulated
    log factor, so the answer is meaningful at dimensions where ||P||^N
    overflows float64.
    """
    pm = _matrix_of(p)
    dim = pm.shape[0]
    base_norm = inf_norm(pm)
    if base_norm == 0.0:
        return True
    base = pm / base_norm
    base_log = 0.0
    result: np.ndarray | None = None
    result_log = 0.0
    exponent = dim
    while exponent:
        if exponent & 1:
            result = base.copy() if result is None else result @ base
            result_log += base_log
            norm = inf_norm(result)
            if norm == 0.0:
                return True
            if norm > _RESCALE_HI or norm < _RESCALE_LO:
                result = result / norm
                result_log += math.log(norm)
        exponent >>= 1
        if exponent:
            base = base @ base
            base_log *= 2
            norm = inf_norm(base)
            if norm == 0.0:
                # the leading bit still multiplies this zero into the result
                return True
            if norm > _RESCALE_HI or norm < _RESCALE_LO:
                base = base / norm
                base_log += math.log(norm)
    assert result is not None
    return math.log(inf_norm(result)) + result_log <= math.log(tau_ver)


# ---------------------------------------------------------------------------
# transfer-matrix products


def _tproduct(null, adj, seed) -> tuple[float, int]:
    adj = _check_cubic(adj, "adjoint stack")
    n = _vector_of(null)
    dim = adj.shape[0]
    if n.shape != (dim,):
        raise ContractViolation("null vector length must match adjoint dimension")
    sizes = np.full(dim, dim)  # pairs (j, k) with leading index j
    slabs = _pick_slabs(sizes, _budget("tproduct", dim), seed)
    step = max(1, _SLAB_CHUNK // (dim * dim))
    worst = 0.0
    # the k chunks are the outer loop so each T_k stack is built once
    for k0 in range(0, dim, step):
        ks = range(k0, min(k0 + step, dim))
        t_ks = np.stack([transfer_matrix(n, k) for k in ks])
        right = t_ks.transpose(1, 0, 2).reshape(dim, -1)  # (b; k, c)
        for j in slabs:
            for left, expect in ((transfer_matrix(n, j), t_ks), (adj[j], adj[k0 : ks.stop])):
                prod = (left @ right).reshape(dim, len(ks), dim)  # (a, k, c)
                worst = max(worst, inf_norm(prod - n[j] * expect.transpose(1, 0, 2)))
    return worst, int(sizes[slabs].sum())


def t_product_residual(null, adj: np.ndarray, seed: int = 0) -> float:
    """max over (j,k) of ||T_j T_k - n{j} T_k||_inf and ||A_j T_k - n{j} A_k||_inf.

    A slab is every pair with leading index j. All slabs up to the tproduct
    cap in _SAMPLING; beyond it, seeded slabs until they hold the budget.
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

    The rebuild runs build_adjoint's row-chunk kernel on the stored (P, n), so
    a payload written from that sample matches it bit for bit.
    """
    p, n = sample.p.matrix, sample.null.vector
    dim = sample.dim
    # adjoint[a, r, c] == structure[a, c, r]; both are compared in adjoint layout
    stored = {"structure": sample.structure.transpose(0, 2, 1), "adjoint": sample.adjoint}
    best = {name: (0.0, (0, 0, 0)) for name in stored}
    step = max(1, _SLAB_CHUNK // (dim * dim))
    for r0 in range(0, dim, step):
        rows = slice(r0, min(r0 + step, dim))
        rebuilt = adjoint_rows(p, n, rows)
        for name, arr in stored.items():
            diff = np.abs(arr[:, rows, :] - rebuilt)
            a, r, c = np.unravel_index(int(np.argmax(diff)), diff.shape)
            if diff[a, r, c] > best[name][0]:
                where = (a, r0 + r, c) if name == "adjoint" else (a, c, r0 + r)
                best[name] = (float(diff[a, r, c]), tuple(int(x) for x in where))
    return best


def verify_all(sample: LieAlgebraSample, config: VerifyConfig | None = None) -> VerificationReport:
    """Run the configured checks and collect residual/tolerance/time per check.

    Check failures become report entries; nothing raises. The payload check
    passes at the rounding bound 8 * eps * ||P||_inf * ||n||_inf of
    A_k = n{k} P - p_k (x) n, which no tau_ver moves. The bilinear checks
    (jacobi, closure, derived, killing, tproduct) pass at tau_ver * scale^2;
    the series check requires per-level closed-form agreement on the
    canonical path and one seeded random path, plus the mode-appropriate
    termination behavior (generic: none within the tested depth; nilpotent:
    termination and ||P^N||_inf <= tau_ver * ||P||_inf^N).
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
        residual = max(d for d, _ in diffs.values())
        band = 8 * EPS * inf_norm(sample.p.matrix) * inf_norm(sample.null.vector)
        detail = "max |stored - rebuilt|: " + ", ".join(
            f"{name} {d:.3e}" + (f" at {where}" if d > 0.0 else "")
            for name, (d, where) in diffs.items()
        )
        return residual, band, residual <= band, detail

    def scanned(name: str, count: int, unit: str) -> str:
        return f"{'full' if _budget(name, dim) is None else 'sampled'}, {count} {unit}"

    def counted(name: str, unit: str, scan) -> None:
        def check():
            res, count = scan()
            return res, band2, res <= band2, scanned(name, count, unit)

        run(name, check)

    def check_jacobi():
        rep = jacobi_residual(sample.structure, seed=cfg.seed)
        detail = scanned("jacobi", rep.checked_count, "quadruples")
        if rep.worst_indices is not None:
            detail += f", worst at {rep.worst_indices}"
        return rep.max_residual, band2, rep.max_residual <= band2, detail

    def check_killing():
        rep, count = _cartan(sample.adjoint, cfg.seed)
        asym = inf_norm(rep.matrix - rep.matrix.T)
        residual = max(rep.max_cartan_residual, asym)
        detail = (
            f"{scanned('killing', count, 'triples')}; "
            f"cartan {rep.max_cartan_residual:.3e}, asymmetry {asym:.3e}"
        )
        return residual, band2, residual <= band2, detail

    def check_series():
        depth = min(dim, _SERIES_MAX_LEVELS)
        canonical = lower_central_series(sample.adjoint, sample.p, sample.null, depth=depth)
        pair, inner = _random_series_path(SplitMix64(cfg.seed), dim, depth)
        random_path = lower_central_series(
            sample.adjoint,
            sample.p,
            sample.null,
            depth=depth,
            base_pair=pair,
            inner_indices=inner,
        )
        ok = True
        notes = []
        for label, rep in (("canonical", canonical), ("random", random_path)):
            ok &= rep.discrepancies_within(tau, scale)
            notes.append(f"{label}: terminated={rep.terminated}")
        if sample.mode == "generic":
            termination_ok = not canonical.terminated and not random_path.terminated
        else:
            nil = nilpotency_check(sample.p, tau_ver=tau)
            termination_ok = canonical.terminated and random_path.terminated and nil
            notes.append(f"nilpotency_check={nil}")
        ok &= termination_ok
        level, disc, band = max(
            (rep.binding_level(tau, scale) for rep in (canonical, random_path)),
            key=lambda t: (t[1] / t[2]) if t[2] > 0 else (0.0 if t[1] == 0.0 else math.inf),
        )
        detail = f"depth {depth}, binding level {level}; " + "; ".join(notes)
        return disc, band, bool(ok), detail

    run("payload", check_payload)
    run("jacobi", check_jacobi)
    counted("closure", "pairs", lambda: _closure(sample.adjoint, cfg.seed))
    counted("derived", "pair-pairs", lambda: _derived(sample.adjoint, cfg.seed))
    run("killing", check_killing)
    run("series", check_series)
    counted("tproduct", "pairs", lambda: _tproduct(sample.null, sample.adjoint, cfg.seed))

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
