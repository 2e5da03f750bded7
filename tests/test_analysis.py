"""Identity checks, series behavior, and the aggregate verifier."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforge import analysis, linalg
from lieforge.analysis import (
    CHECK_NAMES,
    VerifyConfig,
    bracket_factorization,
    canonical_series_path,
    cartan_residual,
    closure_residual,
    derived_abelian_residual,
    jacobi_residual,
    jacobi_residual_at,
    lower_central_series,
    nilpotency_check,
    t_product_residual,
    verify_all,
)
from lieforge.errors import ContractViolation
from lieforge.linalg import inf_norm
from lieforge.sampler import (
    ParameterMatrix,
    Tolerances,
    assemble_sample,
    generate,
    validate_parameter_matrix,
)
from lieforge.serialize import read_sample, write_sample
from reference import commutator, transfer_matrix

HEISENBERG_P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def _sample_from(matrix, mode="generic"):
    pm = ParameterMatrix(np.asarray(matrix, dtype=np.float64), mode)
    return assemble_sample(pm, validate_parameter_matrix(pm, Tolerances()), seed=0)


def _band(sample, tau=1e-9):
    return tau * sample.scale**2


def _rescaled(s, factor):
    """s with P multiplied by factor and revalidated, in the same mode."""
    pm = ParameterMatrix(s.p.matrix * factor, s.mode)
    return assemble_sample(pm, validate_parameter_matrix(pm, Tolerances()), seed=s.seed)


# --- jacobi ---------------------------------------------------------------


def test_jacobi_no_quadruples_below_three_dims():
    rep = jacobi_residual(np.zeros((2, 2, 2)))
    assert rep.checked_count == 0
    assert rep.max_residual == 0.0
    assert rep.worst_indices is None


def test_jacobi_zero_tensor_passes():
    rep = jacobi_residual(np.zeros((5, 5, 5)))
    assert rep.max_residual == 0.0


def test_jacobi_full_quadruple_count():
    dim = 6
    rep = jacobi_residual(np.zeros((dim, dim, dim)))
    assert rep.checked_count == dim * math.comb(dim, 3)


def test_jacobi_max_is_reproducible_at_worst_indices():
    s = generate(7, 13)
    rep = jacobi_residual(s.structure)
    assert rep.max_residual == jacobi_residual_at(s.structure, *rep.worst_indices)


def _one_row_per_chunk(monkeypatch, dim, chunk):
    """Set the chunk size that linalg._row_chunks reads, and check that it
    gives the bilinear kernels, whose rows hold N^2 entries, one row a chunk."""
    monkeypatch.setattr(linalg, "_SLAB_CHUNK", chunk)
    assert linalg._row_chunks(0, dim, dim * dim) == [slice(r, r + 1) for r in range(dim)]


def _set_sampling(monkeypatch, cap, budget, names=("jacobi",)):
    """Set the named checks' sampling policy to (cap, budget); each must have an entry."""
    for name in names:
        assert name in analysis._SAMPLING, name
        monkeypatch.setitem(analysis._SAMPLING, name, (cap, budget))


def test_jacobi_sampled_agrees_with_full_on_verdict(monkeypatch):
    s = generate(6, 4)
    band = _band(s)
    broken = s.structure.copy()
    broken[1, 2, 3] += 0.5
    broken[2, 1, 3] -= 0.5
    full = jacobi_residual(s.structure)
    assert not full.sampled and full.max_residual <= band
    assert jacobi_residual(broken).max_residual > band

    _set_sampling(monkeypatch, 0, 20_000)
    sampled = jacobi_residual(s.structure, seed=1)
    assert sampled.sampled and sampled.max_residual <= band
    assert jacobi_residual(broken, seed=1).max_residual > band


def _brute_jacobi(f, quads=None):
    """Scalar scan of quads (every i < j < k by default); the first maximum in lexicographic order."""
    dim = f.shape[0]
    if quads is None:
        quads = [q for q in itertools.product(range(dim), repeat=4) if q[0] < q[1] < q[2]]
    best, where = -1.0, None
    for quad in sorted(quads):
        value = jacobi_residual_at(f, *quad)
        if value > best:
            best, where = value, quad
    return best, where


def _jacobi_inputs(kind, dim):
    rng = np.random.default_rng(dim)
    if kind == "real":
        return generate(dim, 40 + dim).structure
    if kind == "complex":
        return generate(dim, 40 + dim, field="complex").structure
    if kind in ("random", "chunked"):
        return rng.standard_normal((dim, dim, dim))
    # every other entry of a larger random tensor: a layout BLAS cannot take as is
    return rng.standard_normal((2 * dim, 2 * dim, 2 * dim))[::2, ::-2, ::2]


@pytest.mark.parametrize("kind", ["real", "complex", "random", "strided", "chunked"])
@pytest.mark.parametrize("dim", [5, 6, 7, 8])
def test_jacobi_matches_scalar_reference(kind, dim, monkeypatch):
    if kind == "chunked":
        _one_row_per_chunk(monkeypatch, dim, dim * dim)
    f = _jacobi_inputs(kind, dim)
    best, where = _brute_jacobi(f)
    rep = jacobi_residual(f)
    assert rep.checked_count == dim * math.comb(dim, 3)
    assert rep.max_residual == jacobi_residual_at(f, *rep.worst_indices)
    # a few ulps of the largest product term that enters a residual
    ulps = 4 * 3 * dim * np.finfo(float).eps * float(np.abs(f).max()) ** 2
    assert abs(rep.max_residual - best) <= ulps
    if kind in ("random", "strided", "chunked"):
        assert rep.worst_indices == where


@pytest.mark.parametrize("chunk", [None, 1])
def test_jacobi_ties_go_to_smallest_quadruple(chunk, monkeypatch):
    if chunk is not None:  # one row j per chunk, so ties also span chunks
        _one_row_per_chunk(monkeypatch, 7, chunk)
    # small integers: every product and sum is exact, so ties are exact
    f = np.random.default_rng(3).integers(-1, 2, size=(7, 7, 7)).astype(float)
    best, where = _brute_jacobi(f)
    rep = jacobi_residual(f)
    assert (rep.max_residual, rep.worst_indices) == (best, where)
    _set_sampling(monkeypatch, 0, 10**9)
    assert jacobi_residual(f).worst_indices == where


@pytest.mark.parametrize("chunk", [None, 1])
def test_jacobi_zero_tensor_reports_first_valid_quadruple(chunk, monkeypatch):
    if chunk is not None:
        _one_row_per_chunk(monkeypatch, 5, chunk)
    for cap in (5, 4):  # full, then sampled
        _set_sampling(monkeypatch, cap, 10**6)
        rep = jacobi_residual(np.zeros((5, 5, 5)))
        assert rep.worst_indices == (0, 1, 2, 0) and rep.sampled == (cap == 4)


def test_jacobi_sampled_is_a_pure_function_of_seed(monkeypatch):
    f = generate(12, 5).structure
    total = 12 * math.comb(12, 3)
    full = jacobi_residual(f)

    def sampled(budget, seed):
        _set_sampling(monkeypatch, 0, budget)
        return jacobi_residual(f, seed=seed)

    first = sampled(500, 9)
    assert first == sampled(500, 9)
    assert first.sampled and 500 <= first.checked_count < total
    picks = {sampled(500, s).checked_count for s in range(8)}
    assert len(picks) > 1  # different seeds pick different slabs
    for budget in (total, total + 1, 10**9):
        rep = sampled(budget, 9)
        assert rep.checked_count == total
        assert rep == dataclasses.replace(full, sampled=True)
    assert sampled(0, 0).checked_count == 0


# --- bilinear identity residuals -----------------------------------------


@pytest.mark.parametrize("field", ["real", "complex"])
def test_identity_residuals_small_on_fresh_samples(field):
    s = generate(8, 21, field=field)
    band = _band(s)
    assert jacobi_residual(s.structure).max_residual <= band
    assert closure_residual(s.adjoint) <= band
    assert derived_abelian_residual(s.adjoint) <= band
    rep = cartan_residual(s.adjoint)
    assert rep.max_cartan_residual <= band
    assert inf_norm(rep.matrix - rep.matrix.T) <= band
    assert t_product_residual(s.null, s.adjoint) <= band


def test_closure_detects_broken_adjoint():
    s = generate(5, 8)
    adj = s.adjoint.copy()
    adj[2, 0, 1] += 1.0
    assert closure_residual(adj) > _band(s)


def _closure_reference(adj, quads=None):
    """The pair-slab closure kernel closure_residual replaced, over every pair i < j.

    Entry (m, k) of pair (i, j) is the Jacobi residual J(i, j, k, m) of the
    tensor the adjoint stack spells, so quads, if given, picks those entries.
    """
    dim = adj.shape[0]
    flat = adj.reshape(dim, dim * dim)
    pair = {}
    for i in range(dim):
        rest = adj[i + 1 :]
        residual = adj[i] @ rest - rest @ adj[i]
        # sum_k A_i{k,j} A_k for every j > i
        residual -= (adj[i][:, i + 1 :].T @ flat).reshape(rest.shape)
        pair.update({(i, j): residual[j - i - 1] for j in range(i + 1, dim)})
    if quads is None:
        return max((inf_norm(r) for r in pair.values()), default=0.0)
    return max(abs(pair[i, j][m, k]) for i, j, k, m in quads)


def _tproduct_reference(n, adj, pairs=None):
    """The transfer-matrix GEMM form t_product_residual replaced, over pairs (j, k), all by default."""
    dim = adj.shape[0]
    t = np.stack([transfer_matrix(n, k) for k in range(dim)])
    if pairs is None:
        pairs = itertools.product(range(dim), repeat=2)
    return max(
        inf_norm(left[j] @ t[k] - n[j] * left[k]) for j, k in pairs for left in (t, adj)
    )


def _random_bilinear_inputs(dim, field, seed):
    """An antisymmetric tensor that satisfies no identity, as an adjoint stack, and a random n."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    f = draw(dim, dim, dim)
    f -= f.transpose(1, 0, 2)
    return np.ascontiguousarray(f.transpose(0, 2, 1)), draw(dim)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", range(3, 13))
def test_rewritten_kernels_match_their_references(dim, field):
    eps = np.finfo(float).eps
    for seed in range(3):
        adj, n = _random_bilinear_inputs(dim, field, seed)
        want = _closure_reference(adj)
        assert abs(closure_residual(adj) - want) <= 8 * eps * want, (seed, want)
        want = _tproduct_reference(n, adj)
        assert abs(t_product_residual(n, adj) - want) <= 8 * eps * want, (seed, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_one_moved_adjoint_entry_fails_closure_and_tproduct(field):
    s = generate(6, 14, field=field)
    band = _band(s)
    n = s.null.vector
    assert max(closure_residual(s.adjoint), t_product_residual(n, s.adjoint)) <= band
    adj = s.adjoint.copy()
    adj[3, 1, 4] += 1.0
    for residual in (closure_residual(adj), _closure_reference(adj)):
        assert residual > band
    for residual in (t_product_residual(n, adj), _tproduct_reference(n, adj)):
        assert residual > band


def test_jacobi_reports_a_nan_entry():
    f = np.array(generate(6, 1).structure)
    f[1, 2, 3] = np.nan
    rep = jacobi_residual(f)
    assert math.isnan(rep.max_residual)
    assert math.isnan(jacobi_residual_at(f, *rep.worst_indices))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_nan_adjoint_entry_becomes_the_residual(field):
    s = generate(6, 14, field=field)
    adj = np.array(s.adjoint)
    adj[3, 1, 4] = np.nan
    residuals = (
        closure_residual(adj),
        derived_abelian_residual(adj),
        cartan_residual(adj).max_cartan_residual,
        t_product_residual(s.null, adj),
    )
    assert all(math.isnan(r) for r in residuals), residuals


def _overflowing_sample():
    """A valid seed-3, N=6 sample with P scaled by 1e150: derived's products overflow."""
    return _rescaled(generate(6, 3), 1e150)


def test_derived_reports_overflowed_products():
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(derived_abelian_residual(_overflowing_sample().adjoint))


def test_verify_all_reports_an_overflowing_document():
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_all(read_sample(write_sample(_overflowing_sample())))
    checks = {c.name: c for c in report.checks}
    assert tuple(checks) == CHECK_NAMES
    assert not checks["derived"].passed and math.isnan(checks["derived"].residual)
    assert checks["series"].passed and checks["payload"].passed


def test_killing_check_is_the_cartan_traces():
    s = generate(9, 4, field="complex")
    (check,) = verify_all(s, VerifyConfig(checks=("killing",))).checks
    assert check.residual == cartan_residual(s.adjoint).max_cartan_residual
    assert check.detail == "full, 324 triples"


# closure has no _SAMPLING entry of its own: it runs under jacobi's
BILINEAR = ("jacobi", "derived", "killing", "tproduct")


def _bilinear_residuals(s, seed=3):
    return (
        closure_residual(s.adjoint, seed=seed),
        derived_abelian_residual(s.adjoint, seed=seed),
        cartan_residual(s.adjoint, seed=seed).max_cartan_residual,
        t_product_residual(s.null, s.adjoint, seed=seed),
    )


def test_sampled_paths_match_full_verdicts(monkeypatch):
    s = generate(9, 2)
    band = _band(s)
    _set_sampling(monkeypatch, 4, 64, BILINEAR)
    assert all(res <= band for res in _bilinear_residuals(s))


def test_sampled_slabs_cover_the_full_scan_when_the_budget_does(monkeypatch):
    s = generate(9, 2)
    full = _bilinear_residuals(s)
    _set_sampling(monkeypatch, 4, 10**6, BILINEAR)
    assert _bilinear_residuals(s) == full


def test_verify_all_reports_checked_counts(monkeypatch):
    for name, budget in (
        ("jacobi", 100),
        ("derived", 50),
        ("killing", 30),
        ("tproduct", 20),
    ):
        _set_sampling(monkeypatch, 4, budget, (name,))
    cfg = VerifyConfig(seed=5)
    sample = generate(9, 2)
    report = verify_all(sample, cfg)
    assert report.passed
    again = verify_all(sample, cfg)
    assert [(c.residual, c.detail) for c in report.checks] == [
        (c.residual, c.detail) for c in again.checks
    ]
    detail = {c.name: c.detail.split(",") for c in report.checks}
    assert detail["derived"] == ["sampled", " 50 pair-pairs"]
    # closure runs the jacobi kernel under jacobi's policy, so it picks the same slabs
    assert detail["closure"][:2] == detail["jacobi"][:2]
    for name, budget, whole in (
        ("jacobi", 100, 9 * math.comb(9, 3)),
        ("closure", 100, 9 * math.comb(9, 3)),
        ("killing", 30, 9 * 36),
        ("tproduct", 20, 81),
    ):
        mode, count = detail[name][0], int(detail[name][1].split()[0])
        assert mode == "sampled" and budget <= count < whole, name


def test_default_policy_samples_above_each_cap():
    for name, (cap, budget) in analysis._SAMPLING.items():
        assert analysis._budget(name, cap) is None and analysis._budget(name, cap + 1) == budget
    dim = 65
    policy = {**analysis._SAMPLING, "closure": analysis._SAMPLING["jacobi"]}
    report = verify_all(generate(dim, 3), VerifyConfig(checks=tuple(policy)))
    assert {c.name for c in report.checks} == set(policy)
    for check in report.checks:
        cap, budget = policy[check.name]
        mode, count = check.detail.split(",")[:2]
        count = int(count.split()[0])
        assert check.passed, check
        if cap < dim:
            assert mode == "sampled" and count >= budget, check
        else:
            assert mode == "full", check


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sampled_counts_stop_within_one_row_of_the_budget(field):
    """Above every cap each count lies in [budget, budget + row), where a row
    is the tuples of one second index: at most N(N-2) for jacobi and closure."""
    dim = 65
    quads = dim * (dim - 2)
    rows = {"jacobi": quads, "closure": quads, "derived": 1, "killing": dim, "tproduct": 1}
    report = verify_all(generate(dim, 3, field=field), VerifyConfig(checks=tuple(rows)))
    assert [c.name for c in report.checks] == list(rows)
    for check in report.checks:
        _, budget = analysis._SAMPLING["jacobi" if check.name == "closure" else check.name]
        mode, count = check.detail.split(",")[:2]
        count = int(count.split()[0])
        assert check.passed and mode == "sampled", check
        assert budget <= count < budget + rows[check.name], check


def _counted_tuples(rows_of, slabs, budget, seed):
    """The tuples a sampled check evaluates: whole rows of each picked slab until its limit.

    rows_of(s) lists slab s's rows, each a list of tuples. Also says whether
    some slab was cut.
    """
    sizes = np.array([sum(map(len, rows_of(s))) for s in range(slabs)])
    tuples, cut = [], False
    for s, limit in zip(*analysis._pick_slabs(sizes, budget, seed)):
        held = 0
        for row in rows_of(int(s)):
            if held >= limit:
                break
            tuples += row
            held += len(row)
        cut |= held < sizes[s]
    return tuples, cut


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "budgets",
    [
        # each cuts the first slab it picks
        {"jacobi": 40, "derived": 5, "killing": 5, "tproduct": 3},
        # each takes a few slabs and cuts the last
        {"jacobi": 100, "derived": 30, "killing": 50, "tproduct": 20},
    ],
    ids=["one-slab", "several-slabs"],
)
def test_a_cut_slab_checks_exactly_the_tuples_it_counts(budgets, field, monkeypatch):
    """Each residual is the brute-force maximum over the tuples its detail counts."""
    dim, seed = 7, 2
    s = generate(dim, 4, field=field)
    adj, _ = _random_bilinear_inputs(dim, field, 5)
    n, f = s.null.vector, adj.transpose(0, 2, 1)
    pairs = list(zip(*np.triu_indices(dim, 1)))
    policy = {  # check: (slabs, rows of a slab)
        "jacobi": (dim, lambda i: [
            [(i, j, k, m) for k in range(j + 1, dim) for m in range(dim)]
            for j in range(i + 1, dim - 1)
        ]),
        "derived": (len(pairs), lambda p: [[(p, q)] for q in range(p + 1, len(pairs))]),
        "killing": (dim, lambda j: [[(i, j, k) for i in range(dim)] for k in range(j + 1, dim)]),
        "tproduct": (dim, lambda j: [[(j, k)] for k in range(dim)]),
    }
    tuples = {}
    for name, (slabs, rows_of) in policy.items():
        budget = budgets[name]
        _set_sampling(monkeypatch, 0, budget, (name,))
        tuples[name], cut = _counted_tuples(rows_of, slabs, budget, seed)
        assert cut, name
    tuples["closure"] = tuples["jacobi"]
    sample = assemble_sample(s.p, s.null, seed=s.seed, adjoint=adj, structure=f)
    report = verify_all(sample, VerifyConfig(seed=seed, checks=tuple(tuples)))
    checks = {c.name: c for c in report.checks}

    best, where = _brute_jacobi(f, tuples["jacobi"])
    for name in ("jacobi", "closure"):
        assert checks[name].detail == f"sampled, {len(tuples[name])} quadruples, worst at {where}"
    assert checks["jacobi"].residual == best

    def bracket(p):
        return commutator(adj[pairs[p][0]], adj[pairs[p][1]])

    want = {
        "closure": _closure_reference(adj, tuples["closure"]),
        "derived": max(inf_norm(commutator(bracket(p), bracket(q))) for p, q in tuples["derived"]),
        "killing": max(
            abs(np.trace(adj[i] @ commutator(adj[j], adj[k]))) for i, j, k in tuples["killing"]
        ),
        "tproduct": _tproduct_reference(n, adj, tuples["tproduct"]),
    }
    for name, unit in (("derived", "pair-pairs"), ("killing", "triples"), ("tproduct", "pairs")):
        assert checks[name].detail == f"sampled, {len(tuples[name])} {unit}"
    for name, value in want.items():
        assert math.isclose(checks[name].residual, value, rel_tol=1e-12), (name, value)


def test_killing_form_of_affine_line():
    s = _sample_from(np.array([[0.0, 0.0], [0.0, 1.0]]))
    rep = cartan_residual(s.adjoint)
    np.testing.assert_array_equal(rep.matrix, [[1.0, 0.0], [0.0, 0.0]])
    assert rep.max_cartan_residual == 0.0


def test_abelian_tensor_passes_everything():
    dim = 4
    adj = np.zeros((dim, dim, dim))
    assert closure_residual(adj) == 0.0
    assert derived_abelian_residual(adj) == 0.0
    assert cartan_residual(adj).max_cartan_residual == 0.0


# --- bracket factorization ------------------------------------------------


def test_bracket_factorization_matches_commutator():
    s = generate(6, 30)
    for i, j in ((0, 1), (2, 5), (1, 4)):
        fact = bracket_factorization(s.p, s.null, i, j)
        direct = commutator(s.adjoint[i], s.adjoint[j])
        assert inf_norm(fact.value - direct) <= _band(s)
        assert (fact.i, fact.j) == (i, j)


def test_bracket_factorization_m_vector_pattern():
    s = generate(5, 12)
    n = s.null.vector
    fact = bracket_factorization(s.p, s.null, 1, 3)
    expected = np.zeros(5)
    expected[1] = n[3]
    expected[3] = -n[1]
    np.testing.assert_array_equal(fact.m_vector, expected)


# --- series ---------------------------------------------------------------


def test_canonical_path_shapes():
    pair, inner = canonical_series_path(5, 3)
    assert pair == (1, 2)
    assert inner == (0, 0, 0)
    pair2, inner2 = canonical_series_path(2, 4)
    assert pair2 == (0, 1)
    assert inner2 == (0, 0, 0, 0)


def test_series_two_dim_never_terminates():
    """[g1,[g1,g2]] = g2 forever: every level has unit norm."""
    s = _sample_from(np.array([[0.0, 0.0], [0.0, 1.0]]))
    rep = lower_central_series(s.adjoint, s.p, s.null, depth=6)
    assert not rep.terminated
    assert rep.termination_level is None
    # levels are in units of sigma^(L+2), a power of two, so the raw norms are exact
    units = rep.sigma ** (np.arange(7) + 2)
    np.testing.assert_array_equal(np.array(rep.norm_per_level) * units, np.ones(7))
    assert max(np.array(rep.discrepancy_per_level) * units) <= 1e-9


def test_series_heisenberg_terminates_immediately():
    s = _sample_from(HEISENBERG_P, mode="nilpotent")
    rep = lower_central_series(s.adjoint, s.p, s.null)
    assert rep.terminated
    assert rep.termination_level <= 1
    assert rep.norm_per_level[rep.termination_level] == 0.0


def test_series_zero_algebra_terminates_at_base():
    dim = 3
    pm = np.zeros((dim, dim))
    null = np.array([1.0, 0.0, 0.0])
    rep = lower_central_series(np.zeros((dim, dim, dim)), pm, null, depth=2)
    assert rep.terminated and rep.termination_level == 0


@pytest.mark.parametrize("mode,expect_terminated", [("generic", False), ("nilpotent", True)])
def test_series_mode_dichotomy(mode, expect_terminated):
    for seed in (1, 5, 9):
        s = generate(6, seed, mode=mode)
        rep = lower_central_series(s.adjoint, s.p, s.null, depth=6)
        assert rep.terminated is expect_terminated, (mode, seed)
        # discrepancies are in units of sigma^(L+2), so the band is taken in them too
        for scale in (s.scale, 2 * rep.S):
            bands = [1e-9 * (scale / rep.sigma) ** (lv + 2) for lv in range(7)]
            ratios = [d / b for d, b in zip(rep.discrepancy_per_level, bands)]
            assert max(ratios) <= 1.0, (mode, seed, scale)
            assert rep.discrepancies_within(1e-9, scale)
            assert rep.binding_level(1e-9, scale) == max(enumerate(ratios), key=lambda t: t[1])


def test_series_custom_path_validated():
    s = generate(4, 3)
    with pytest.raises(ContractViolation):
        lower_central_series(s.adjoint, s.p, s.null, depth=2, base_pair=(0, 9))
    with pytest.raises(ContractViolation):
        lower_central_series(
            s.adjoint, s.p, s.null, depth=2, base_pair=(0, 1), inner_indices=(0,)
        )


def test_series_deep_levels_stay_finite():
    """At depth 200 with P scaled by 40 the raw level norms would overflow
    float64. In units of sigma^(L+2) a bracket cannot grow a level, so every
    level is finite and at most 1/2, and the generic closed form is lifted
    before it can underflow into a termination."""
    big = _rescaled(generate(4, 6), 40.0)
    rep = lower_central_series(big.adjoint, big.p, big.null, depth=200)
    assert not rep.terminated
    assert rep.sigma >= 2 * rep.S > 0.0
    for values in (rep.norm_per_level, rep.discrepancy_per_level):
        assert len(values) == 201
        assert all(math.isfinite(x) and 0.0 <= x <= 0.5 for x in values)
    assert rep.norm_per_level[-1] > 0.0
    level, ratio = rep.binding_level(1e-9, 2 * rep.S)
    assert 0 <= level <= 200 and 0.0 <= ratio <= 1.0
    # by depth 400 the closed form would underflow to zero without the lift;
    # only the reported levels, divided by it, reach zero
    deeper = lower_central_series(big.adjoint, big.p, big.null, depth=400)
    assert not deeper.terminated and deeper.norm_per_level[-1] == 0.0


def _series_check(sample):
    (check,) = verify_all(sample, VerifyConfig(checks=("series",))).checks
    return check


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [5, 12, 30])
def test_series_ratio_is_bitwise_invariant_under_powers_of_two(dim, field):
    s = generate(dim, 3, field=field)
    reports, checks = [], []
    for k in (-40, 0, 40):
        scaled = _rescaled(s, 2.0**k)
        # the SVD of P * 2^k gives the same n, so the adjoint scales exactly
        np.testing.assert_array_equal(scaled.null.vector, s.null.vector)
        reports.append(lower_central_series(scaled.adjoint, scaled.p, scaled.null))
        checks.append(_series_check(scaled))
    assert all(c.passed for c in checks)
    assert len({c.residual for c in checks}) == 1
    assert len({(r.norm_per_level, r.discrepancy_per_level) for r in reports}) == 1
    assert [r.sigma for r in reports] == [reports[1].sigma * 2.0**k for k in (-40, 0, 40)]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_series_passes_clean_samples(field):
    """The max-entry band of level L failed some of these; the row-sum band passes all."""
    failures = []
    for dim in range(14, 65):
        for seed in range(1, 11):
            check = _series_check(generate(dim, seed, field=field))
            if not check.passed:
                failures.append((dim, seed, check.residual, check.detail))
    assert not failures, failures[:5]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [6, 12, 24])
def test_series_fails_a_moved_adjoint_entry_on_the_path(dim, field):
    s = generate(dim, 7, field=field)
    assert _series_check(s).passed
    # the canonical path brackets A_1 with A_2, then with A_0 at every level
    for k in (0, 1, 2):
        adj = np.array(s.adjoint)
        adj[k, 1, 2] += 1.0
        moved = assemble_sample(s.p, s.null, seed=s.seed, adjoint=adj, structure=s.structure)
        check = _series_check(moved)
        assert not check.passed and check.residual > check.tolerance, (k, check)


# --- nilpotency -----------------------------------------------------------


def test_nilpotency_check_cases():
    assert nilpotency_check(np.zeros((3, 3)))
    assert nilpotency_check(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert nilpotency_check(HEISENBERG_P)
    assert not nilpotency_check(np.diag([0.0, 1.0]))
    assert not nilpotency_check(np.array([[0.0, 1.0], [1e-6, 0.0]]))


def test_nilpotency_check_handles_extreme_norms():
    assert nilpotency_check(np.array([[0.0, 1e200], [0.0, 0.0]]))
    assert not nilpotency_check(np.diag([1e-200, 1e-200]))


def test_nilpotency_check_lifts_powers_below_the_float_range():
    # P^2 = 1e-320 I: the lift of a subnormal row sum needs 2^1063
    assert nilpotency_check(np.array([[0.0, 1.0], [1e-320, 0.0]]))
    # a random sign matrix's powers shrink like N^(-k/2), so P^400 / sigma^400
    # is far below the float range, yet far above tau * ||P||^400
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(400, 400))
    assert not nilpotency_check(signs)


def test_series_lifts_a_subnormal_level_without_overflow():
    # the closed form's peak row sum is 1e-320, so its lift needs 2^1063;
    # the lift is exact, so dividing it out gives that row sum back
    n = np.array([1.0, 1e-320, 0.0])
    report = lower_central_series(np.zeros((3, 3, 3)), np.eye(3), n, depth=1)
    assert report.norm_per_level == (0.0, 0.0)
    assert report.discrepancy_per_level == (1e-320, 1e-320)
    assert not report.terminated


# --- aggregate verifier ---------------------------------------------------


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
def test_verify_all_passes_fresh_samples(field, mode):
    report = verify_all(generate(7, 19, field=field, mode=mode))
    assert report.passed, [(c.name, c.residual, c.tolerance) for c in report.checks]
    assert tuple(c.name for c in report.checks) == CHECK_NAMES


def test_verify_all_check_selection():
    report = verify_all(generate(4, 2), VerifyConfig(checks=("killing",)))
    assert [c.name for c in report.checks] == ["killing"]


def test_verify_all_rejects_unknown_check():
    with pytest.raises(ContractViolation):
        VerifyConfig(checks=("jacobi", "unitarity"))


@pytest.mark.parametrize("tau_ver", [0.0, -1.0, math.inf, math.nan])
def test_verify_config_rejects_bad_tolerance(tau_ver):
    with pytest.raises(ContractViolation):
        VerifyConfig(tau_ver=tau_ver)


def test_verify_all_tolerance_override():
    sample = generate(5, 3)
    strict = verify_all(sample, VerifyConfig(tau_ver=1e-20))
    assert not strict.passed
    assert strict.tau_ver == 1e-20


def test_verify_all_flags_corrupted_structure():
    s = generate(6, 14)
    f = s.structure.copy()
    f[0, 1, 2] += 1.0
    f[1, 0, 2] -= 1.0
    broken = assemble_sample(
        s.p, s.null, seed=s.seed, attempts=s.attempts, structure=f, adjoint=s.adjoint
    )
    report = verify_all(broken)
    failed = {c.name for c in report.checks if not c.passed}
    assert "jacobi" in failed or "closure" in failed


@pytest.mark.parametrize("field", ["real", "complex"])
def test_payload_check_binds_stored_tensors_to_p_and_n(field):
    s = generate(6, 14, field=field)
    other = generate(6, 15, field=field)

    def payload(tau_ver=None, **stored):
        sample = assemble_sample(s.p, s.null, seed=s.seed, attempts=s.attempts, **stored)
        (check,) = verify_all(sample, VerifyConfig(tau_ver, checks=("payload",))).checks
        return check

    clean = payload(structure=np.array(s.structure), adjoint=np.array(s.adjoint))
    assert clean.passed and clean.residual == 0.0
    doubled = payload(structure=2 * s.structure)
    assert not doubled.passed
    assert doubled.residual == inf_norm(s.structure)
    # the band is the rebuild's rounding bound, which no tau_ver widens
    loose = payload(1e300, structure=2 * s.structure)
    assert not loose.passed and loose.tolerance == doubled.tolerance
    swapped = payload(structure=other.structure)
    assert not swapped.passed and "structure" in swapped.detail
    moved_f = np.array(s.structure)
    moved_f[1, 2, 3] += 1.0
    assert "structure 1.000e+00 at (1, 2, 3)" in payload(structure=moved_f).detail
    moved = np.array(s.adjoint)
    moved[4, 1, 3] += 1.0
    bad_adjoint = payload(adjoint=moved, structure=s.structure)
    assert bad_adjoint.residual == 1.0
    assert "adjoint 1.000e+00 at (4, 1, 3)" in bad_adjoint.detail
    scaled = payload(adjoint=1e12 * s.adjoint)
    assert not scaled.passed and scaled.tolerance == clean.tolerance


def test_verify_report_as_dict_is_json_ready():
    import json

    report = verify_all(generate(4, 9))
    text = json.dumps(report.as_dict())
    assert '"passed": true' in text


def test_verify_report_seconds_are_recorded():
    report = verify_all(generate(4, 1))
    assert all(c.seconds >= 0.0 for c in report.checks)


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_property_generic_samples_verify_clean(dim, seed):
    s = generate(dim, seed)
    band = _band(s)
    assert jacobi_residual(s.structure).max_residual <= band
    assert closure_residual(s.adjoint) <= band
    rep = lower_central_series(s.adjoint, s.p, s.null, depth=dim)
    assert not rep.terminated


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_property_nilpotent_samples_terminate(dim, seed):
    s = generate(dim, seed, mode="nilpotent")
    rep = lower_central_series(s.adjoint, s.p, s.null, depth=dim)
    assert rep.terminated
    assert rep.termination_level <= dim
    assert nilpotency_check(s.p.matrix)
