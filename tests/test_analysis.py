"""Identity checks, series behavior, and the aggregate verifier."""

import itertools
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieforge.rng as rng_module
from lieforge import analysis, linalg
from lieforge.analysis import (
    CHECK_NAMES,
    VerifyConfig,
    canonical_series_path,
    cartan_residual,
    closure_residual,
    derived_abelian_residual,
    jacobi_residual,
    lower_central_series,
    t_product_residual,
    verify_all,
)
from lieforge.errors import ContractViolation
from lieforge.linalg import inf_norm
from lieforge.sampler import (
    ParameterMatrix,
    Tolerances,
    assemble_sample,
    build_adjoint,
    generate,
    validate_parameter_matrix,
)
from lieforge.serialize import read_sample, write_sample
from reference import (
    exhaustive_almost_abelian,
    exhaustive_cartan,
    exhaustive_closure,
    exhaustive_derived,
    exhaustive_jacobi,
    exhaustive_tproduct,
    jacobi_residual_at,
    jacobi_tensor,
    transfer_matrix,
)

HEISENBERG_P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def _sample_from(matrix, mode="generic"):
    pm = ParameterMatrix(np.asarray(matrix, dtype=np.float64), mode)
    return assemble_sample(pm, validate_parameter_matrix(pm, Tolerances()), seed=0)


def _band(sample, tau=1e-9):
    """The band of a degree-2 probe check, jacobi's and closure's."""
    return tau * sample.scale**2


def _rescaled(s, factor):
    """s with P multiplied by factor and revalidated, in the same mode."""
    pm = ParameterMatrix(s.p.matrix * factor, s.mode)
    return assemble_sample(pm, validate_parameter_matrix(pm, Tolerances()), seed=s.seed)


# --- probes ---------------------------------------------------------------

# the probe checks verify_all runs, and the degree of each one's identity in
# the tensor, which is the degree of its band in scale
DEGREE = {"jacobi": 2, "almost_abelian": 1, "closure": 2, "derived": 4, "killing": 3, "tproduct": 1}
PROBE_CHECKS = tuple(DEGREE)


def _probe_vectors(check, arity, dim, seed=0):
    """The probe vectors check draws at dimension dim, as (arity, sets, dim)."""
    return analysis._probe(np.zeros((dim, dim, dim)), seed, check, arity)[0]


def _ulps(f, dim):
    """A rounding allowance for one Jacobi evaluation with unit probes on f."""
    return 8 * dim**2 * np.finfo(float).eps * float(np.abs(f).max()) ** 2


# --- jacobi ---------------------------------------------------------------


def test_jacobi_no_quadruples_below_three_dims():
    """Below N = 3 no quadruple i < j < k exists, so the exhaustive scan reads
    0, and the probe of an antisymmetric tensor there is rounding alone."""
    rng = np.random.default_rng(2)
    for dim in (1, 2):
        f = rng.standard_normal((dim, dim, dim))
        f -= f.transpose(1, 0, 2)
        assert exhaustive_jacobi(f) == 0.0
        assert jacobi_residual(f) <= _ulps(f, dim)


def test_jacobi_zero_tensor_passes():
    assert jacobi_residual(np.zeros((5, 5, 5))) == 0.0


def test_jacobi_sampled_agrees_with_full_on_verdict():
    """The probe, on sampled vectors, and the exhaustive scan, over every
    quadruple, agree on a clean tensor and on one with an entry moved."""
    s = generate(6, 4)
    band = _band(s)
    broken = s.structure.copy()
    broken[1, 2, 3] += 0.5
    broken[2, 1, 3] -= 0.5
    for f, fails in ((s.structure, False), (broken, True)):
        assert (exhaustive_jacobi(f) > band) is fails
        for seed in range(4):
            assert (jacobi_residual(f, seed) > band) is fails, seed


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
    """The probe is sum_ijk x_i y_j z_k J(i, j, k, :) for the scalar J of every
    quadruple. A sample's structure is a (0, 2, 1) view of its adjoint stack,
    which the probe reads in place. The chunked kind reads the residual of
    the probe sets one set per chunk, and gets the unchunked value exactly."""
    f = _jacobi_inputs(kind, dim)
    if kind == "chunked":
        whole = jacobi_residual(f)
        # the residual holds one row of N entries per probe set
        monkeypatch.setattr(linalg, "_SLAB_CHUNK", dim)
        sets = analysis._PROBE_SETS
        assert linalg._row_chunks(sets, dim) == [slice(s, s + 1) for s in range(sets)]
        assert jacobi_residual(f) == whole
    jac = jacobi_tensor(f)
    for quad in itertools.product(range(dim), repeat=4):
        assert math.isclose(abs(jac[quad]), jacobi_residual_at(f, *quad), abs_tol=_ulps(f, dim))
    x, y, z = _probe_vectors("jacobi", 3, dim)
    want = inf_norm(np.einsum("si,sj,sk,ijkm->sm", x, y, z, jac))
    got = jacobi_residual(f)
    assert abs(got - want) <= _ulps(f, dim) + 1e-12 * want


def test_jacobi_sampled_is_a_pure_function_of_seed():
    f = generate(12, 5).structure
    first = jacobi_residual(f, seed=9)
    assert first == jacobi_residual(f, seed=9)
    assert len({jacobi_residual(f, seed=s) for s in range(8)}) > 1
    probes = _probe_vectors("jacobi", 3, 12, seed=9)
    np.testing.assert_allclose(np.linalg.norm(probes, axis=-1), 1.0, rtol=1e-15)
    # each check draws probes of its own from (seed, check name)
    assert not np.array_equal(probes, _probe_vectors("closure", 3, 12, seed=9))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_probes_read_other_dtypes_as_their_float64_cast(dtype):
    """Only complex128 takes the (re, im) view; reinterpreting int64 bits as
    float64 would read a 3x3x3 tensor of ones as about 1e38."""
    f = (generate(5, 3).structure * 7).astype(dtype)
    want = jacobi_residual(f.astype(np.float64))
    assert jacobi_residual(f) == want
    ones = np.ones((3, 3, 3), dtype=dtype)
    assert jacobi_residual(ones) == jacobi_residual(ones.astype(float))


@pytest.mark.parametrize("layout", ["adjoint", "structure", "strided"])
def test_complex_probe_matrices_match_the_complex_gemm(layout):
    """A complex stack runs as one real GEMM over its (re, im) view, in each
    layout _probe reads: contiguous, its (0, 2, 1) view, and a copied one."""
    s = generate(9, 4, field="complex")
    t = {
        "adjoint": s.adjoint,
        "structure": s.structure,
        "strided": np.repeat(s.adjoint, 2, axis=2)[:, :, ::2],
    }[layout]
    probes, mats = analysis._probe(t, 5, "derived", 4)
    dim = t.shape[0]
    flat = probes.reshape(-1, dim).astype(np.complex128)
    want = (flat @ np.ascontiguousarray(t).reshape(dim, dim * dim)).reshape(mats.shape)
    assert mats.dtype == np.complex128
    assert inf_norm(mats - want) <= 1e-12 * inf_norm(want)


# --- bilinear identity residuals -----------------------------------------


@pytest.mark.parametrize("field", ["real", "complex"])
def test_identity_residuals_small_on_fresh_samples(field):
    s = generate(8, 21, field=field)
    band = _band(s)
    assert jacobi_residual(s.structure) <= band
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
    """The closure, killing and tproduct probes equal the exhaustive residuals
    of every index tuple contracted with the same probe vectors."""
    for seed in range(3):
        adj, n = _random_bilinear_inputs(dim, field, seed)
        x, y, z = _probe_vectors("closure", 3, dim, seed)
        jac = jacobi_tensor(adj.transpose(0, 2, 1))
        want = inf_norm(np.einsum("si,sj,sk,ijkm->sm", x, y, z, jac))
        assert math.isclose(closure_residual(adj, seed), want, rel_tol=1e-10), seed
        x, y, z = _probe_vectors("killing", 3, dim, seed)
        traces = np.einsum("iab,jbc,kca->ijk", adj, adj, adj)  # trace(A_i A_j A_k)
        want = inf_norm(np.einsum("si,sj,sk,ijk->s", x, y, z, traces - traces.transpose(0, 2, 1)))
        assert math.isclose(cartan_residual(adj, seed).max_cartan_residual, want, rel_tol=1e-10)
        x, y = _probe_vectors("tproduct", 2, dim, seed)
        t = np.stack([transfer_matrix(n, k) for k in range(dim)])
        pairs = np.einsum("jab,kbc->jkac", adj, t) - n[:, None, None, None] * adj
        want = inf_norm(np.einsum("sj,sk,jkac->sac", x, y, pairs))
        assert math.isclose(t_product_residual(n, adj, seed), want, rel_tol=1e-10), seed
        # n.[x, y] and [x', y'] for a unit n, x' = x - (n.x) conj(n) and
        # [u, v]{r} = sum_ij u_i v_j A_i{r,j}
        n = n / np.linalg.norm(n)
        x, y = _probe_vectors("almost_abelian", 2, dim, seed)
        xp, yp = (v - np.outer(v @ n, np.conjugate(n)) for v in (x, y))
        outside = np.einsum("r,si,sj,irj->s", n, x, y, adj)
        inside = np.einsum("si,sj,irj->sr", xp, yp, adj)
        want = max(inf_norm(outside), inf_norm(inside))
        got = analysis._almost_abelian(adj, n, seed)
        assert math.isclose(got, want, rel_tol=1e-10), seed


@pytest.mark.parametrize("field", ["real", "complex"])
def test_one_moved_adjoint_entry_fails_closure_and_tproduct(field):
    s = generate(6, 14, field=field)
    band = _band(s)
    n = s.null.vector
    assert max(closure_residual(s.adjoint), t_product_residual(n, s.adjoint)) <= band
    adj = s.adjoint.copy()
    adj[3, 1, 4] += 1.0
    for residual in (closure_residual(adj), exhaustive_closure(adj)):
        assert residual > band
    for residual in (t_product_residual(n, adj), exhaustive_tproduct(n, adj)):
        assert residual > band


@pytest.mark.parametrize("check", PROBE_CHECKS)
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
@pytest.mark.parametrize("dim", [5, 12, 30])
def test_almost_abelian_ratio_is_bitwise_invariant_under_powers_of_two(dim, mode, field, check):
    """Each probe check's identity is a form of degree d in the tensor and its
    band is tau * scale^d, scale taken from (P, n), so P * 2^k moves residual
    and band by the same exact 2^(k d): residual / tolerance is unit-free bit
    for bit, on the sample and on its document as read back."""
    s = generate(dim, 3, field=field, mode=mode)
    ratios = set()
    for k in (-40, -24, 0, 12, 24, 40):
        scaled = _rescaled(s, 2.0**k)
        np.testing.assert_array_equal(scaled.null.vector, s.null.vector)
        for sample in (scaled, read_sample(write_sample(scaled))):
            (result,) = verify_all(sample, VerifyConfig(checks=(check,))).checks
            assert result.passed, (k, result)
            assert result.tolerance == math.prod([1e-9, *[scaled.scale] * DEGREE[check]])
            ratios.add(result.residual / result.tolerance)
    assert len(ratios) == 1, ratios


def test_jacobi_reports_a_nan_entry():
    f = np.array(generate(6, 1).structure)
    f[1, 2, 3] = np.nan
    assert math.isnan(jacobi_residual(f))
    assert math.isnan(exhaustive_jacobi(f))


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


@pytest.mark.parametrize(
    "payload, value",
    [
        pytest.param("structure", np.nan, id="structure"),
        pytest.param("adjoint", np.nan, id="adjoint"),
        # inf - inf warns "invalid value"; verify_all reports its NaN instead
        pytest.param("structure", np.inf, id="structure-inf"),
        pytest.param("adjoint", np.inf, id="adjoint-inf"),
    ],
)
def test_a_nan_entry_fails_its_probe_checks_in_verify_all(payload, value):
    s = generate(7, 3, field="complex")
    stored = {"structure": np.array(s.structure), "adjoint": np.array(s.adjoint)}
    stored[payload][2, 4, 1] = value
    sample = assemble_sample(s.p, s.null, seed=s.seed, **stored)
    checks = {c.name: c for c in verify_all(sample, VerifyConfig(checks=PROBE_CHECKS)).checks}
    hit = ("jacobi",) if payload == "structure" else PROBE_CHECKS[1:]
    assert sample.scale == s.scale
    for name, check in checks.items():
        # scale comes from (P, n), so every band stays finite: the checks
        # that read the entry fail on its NaN, the others pass
        assert math.isnan(check.residual) is (name in hit), check
        assert check.tolerance == math.prod([1e-9, *[s.scale] * DEGREE[name]]), check
        assert check.passed is (name not in hit), check


def _overflowing_sample():
    """A valid seed-3, N=6 sample with P scaled by 1e150: derived's products overflow."""
    return _rescaled(generate(6, 3), 1e150)


def test_derived_reports_overflowed_products():
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(derived_abelian_residual(_overflowing_sample().adjoint))


def test_verify_all_reports_an_overflowing_document():
    """derived's degree-4 products overflow on this valid document;
    almost_abelian, linear in the tensor, stays finite far below its band."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_all(read_sample(write_sample(_overflowing_sample())))
    checks = {c.name: c for c in report.checks}
    assert tuple(checks) == CHECK_NAMES
    assert not checks["derived"].passed and math.isnan(checks["derived"].residual)
    assert checks["series"].passed and checks["payload"].passed
    aa = checks["almost_abelian"]
    assert math.isfinite(aa.residual) and aa.residual <= 1e-5 * aa.tolerance


def test_killing_check_is_the_cartan_traces():
    s = generate(9, 4, field="complex")
    (check,) = verify_all(s, VerifyConfig(checks=("killing",))).checks
    assert check.residual == cartan_residual(s.adjoint).max_cartan_residual
    assert check.detail == "4 probe sets"


def test_almost_abelian_check_is_its_kernel_on_the_adjoint():
    s = generate(9, 4, field="complex")
    (check,) = verify_all(s, VerifyConfig(seed=3, checks=("almost_abelian",))).checks
    assert check.residual == analysis._almost_abelian(s.adjoint, s.null.vector, 3)
    assert check.tolerance == s.tolerances.tau_ver * s.scale
    assert check.detail == "4 probe sets"


def _probe_verdicts(sample, seed=0):
    """Pass/fail of each probe check, through verify_all."""
    report = verify_all(sample, VerifyConfig(seed=seed, checks=PROBE_CHECKS))
    return {c.name: c.passed for c in report.checks}


def _exhaustive_verdicts(sample):
    """Pass/fail of each probe check's identity at every index tuple, at the same band."""
    adj = sample.adjoint
    residuals = {
        "jacobi": exhaustive_jacobi(sample.structure),
        "almost_abelian": exhaustive_almost_abelian(sample.null.vector, adj),
        "closure": exhaustive_closure(adj),
        "derived": exhaustive_derived(adj),
        "killing": exhaustive_cartan(adj),
        "tproduct": exhaustive_tproduct(sample.null.vector, adj),
    }
    return {
        name: value <= sample.tolerances.tau_ver * sample.scale ** DEGREE[name]
        for name, value in residuals.items()
    }


def test_sampled_paths_match_full_verdicts():
    """Probe verdicts equal the exhaustive verdicts on a clean sample and on
    copies with one adjoint entry moved, under several seeds."""
    s = generate(9, 2)
    assert _probe_verdicts(s) == _exhaustive_verdicts(s) == dict.fromkeys(PROBE_CHECKS, True)
    for where in ((0, 0, 0), (3, 1, 4), (8, 8, 2)):
        adj = np.array(s.adjoint)
        adj[where] += 1.0
        moved = assemble_sample(s.p, s.null, seed=s.seed, adjoint=adj, structure=s.structure)
        want = _exhaustive_verdicts(moved)
        assert not all(want.values()), where
        for seed in range(3):
            assert _probe_verdicts(moved, seed) == want, (where, seed)


def test_verify_all_reports_checked_counts():
    """Each probe check's detail says how many probe sets it checked, and a report
    is a pure function of (sample, seed)."""
    cfg = VerifyConfig(seed=5)
    sample = generate(9, 2)
    report = verify_all(sample, cfg)
    assert report.passed
    again = verify_all(sample, cfg)
    assert [(c.residual, c.detail) for c in report.checks] == [
        (c.residual, c.detail) for c in again.checks
    ]
    for check in report.checks:
        if check.name in PROBE_CHECKS:
            assert check.detail == f"{analysis._PROBE_SETS} probe sets", check


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_check_run_alone_gives_its_full_run_residual(field, seed):
    s = generate(11, 6, field=field)
    full = {c.name: c.residual for c in verify_all(s, VerifyConfig(seed=seed)).checks}
    for name in CHECK_NAMES:
        (check,) = verify_all(s, VerifyConfig(seed=seed, checks=(name,))).checks
        assert check.residual == full[name], name


def test_probe_verdicts_match_the_exhaustive_references_on_the_grid():
    """Acceptance 2's grid: N = 2-20, seeds 1-10, both fields and both modes.
    Every clean almost_abelian residual is at most 1e-5 of its band."""
    disagree, margins = [], []
    for dim in range(2, 21):
        for seed in range(1, 11):
            for field in ("real", "complex"):
                for mode in ("generic", "nilpotent"):
                    s = generate(dim, seed, field=field, mode=mode)
                    probe, want = _probe_verdicts(s), _exhaustive_verdicts(s)
                    if probe != want:
                        disagree.append((dim, seed, field, mode, probe, want))
                    (aa,) = verify_all(s, VerifyConfig(checks=("almost_abelian",))).checks
                    margins.append(aa.residual / aa.tolerance if aa.tolerance else aa.residual)
    assert not disagree, disagree[:3]
    assert max(margins) <= 1e-5


def _moved(leaf):
    """A JSON leaf, real or [re, im], with its real part moved by 1.0."""
    return [leaf[0] + 1.0, leaf[1]] if isinstance(leaf, list) else leaf + 1.0


def _tampered(doc, kind, other):
    """doc with its structure payload moved (one entry by 1.0), its first
    entry scaled by 1.5, doubled or swapped for other's, or with one entry of
    its adjoint payload moved."""
    data = json.loads(doc)
    entries = data["structure_constants"]
    if kind == "scaled":
        leaf = entries[0][3]
        entries[0][3] = [1.5 * x for x in leaf] if isinstance(leaf, list) else 1.5 * leaf
    elif kind == "perturbed":
        entry = entries[len(entries) // 2]
        entry[3] = _moved(entry[3])
    elif kind == "doubled":
        for entry in entries:
            entry[3] = [2 * x for x in entry[3]] if isinstance(entry[3], list) else 2 * entry[3]
    elif kind == "swapped":
        data["structure_constants"] = json.loads(other)["structure_constants"]
    else:
        leaves = data["adjoint"][1]
        leaves[len(leaves) // 3] = _moved(leaves[len(leaves) // 3])
    return json.dumps(data)


@pytest.mark.parametrize("kind", ["perturbed", "doubled", "swapped", "moved-adjoint", "scaled"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_probe_verdicts_match_the_exhaustive_references_on_tampered_documents(kind, field):
    for dim, mode in itertools.product((5, 12, 20), ("generic", "nilpotent")):
        s, other = (generate(dim, seed, field=field, mode=mode) for seed in (3, 4))
        doc = write_sample(s, include_adjoint=kind == "moved-adjoint")
        sample = read_sample(_tampered(doc, kind, write_sample(other)))
        report = verify_all(sample)
        assert not report.passed and not {c.name: c for c in report.checks}["payload"].passed
        want = _exhaustive_verdicts(sample)
        for seed in range(3):
            assert _probe_verdicts(sample, seed) == want, (dim, mode, seed)


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
    """Level 0 of the series is [A_i, A_j] against its closed form P^2 m (x) n."""
    s = generate(6, 30)
    for i, j in ((0, 1), (2, 5), (1, 4)):
        rep = lower_central_series(s.adjoint, s.p, s.null, depth=0, base_pair=(i, j))
        assert rep.base_pair == (i, j) and rep.inner_indices == ()
        (disc,) = rep.discrepancy_per_level
        assert disc * rep.sigma**2 <= _band(s)
        assert rep.norm_per_level[0] > 0.0


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
    with pytest.raises(ContractViolation, match="depth must be nonnegative"):
        lower_central_series(s.adjoint, s.p, s.null, depth=-1)
    with pytest.raises(ContractViolation, match="inner index 4 out of range"):
        lower_central_series(
            s.adjoint, s.p, s.null, depth=2, base_pair=(0, 1), inner_indices=(0, 4)
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
        # the LU solve for P * 2^k gives the same n, so the adjoint scales exactly
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


def test_series_lifts_a_subnormal_level_without_overflow():
    # the closed form's peak row sum is 1e-320, so its lift needs 2^1063;
    # the lift is exact, so dividing it out gives that row sum back
    n = np.array([1.0, 1e-320, 0.0])
    report = lower_central_series(np.zeros((3, 3, 3)), np.eye(3), n, depth=1)
    assert report.norm_per_level == (0.0, 0.0)
    assert report.discrepancy_per_level == (1e-320, 1e-320)
    assert not report.terminated


# --- aggregate verifier ---------------------------------------------------


@pytest.mark.parametrize(
    "mode, field, dim",
    [
        # the N=7 cases keep their plain ids; N=2 takes the fixed random series path (0, 1)
        pytest.param(mode, field, dim, id=f"{mode}-{field}" + ("-N2" if dim == 2 else ""))
        for dim in (7, 2)
        for mode in ("generic", "nilpotent")
        for field in ("complex", "real")
    ],
)
def test_verify_all_passes_fresh_samples(mode, field, dim):
    report = verify_all(generate(dim, 19, field=field, mode=mode))
    assert report.passed, [(c.name, c.residual, c.tolerance) for c in report.checks]
    assert tuple(c.name for c in report.checks) == CHECK_NAMES


def test_verify_all_check_selection():
    report = verify_all(generate(4, 2), VerifyConfig(checks=("killing",)))
    assert [c.name for c in report.checks] == ["killing"]


def test_checks_run_once_each_in_table_order_whatever_the_config_order():
    assert CHECK_NAMES == tuple(analysis._CHECKS) == (
        "payload", "jacobi", "almost_abelian", "closure", "derived", "killing", "series",
        "tproduct",
    )
    s = read_sample(write_sample(generate(8, 3, field="complex"), include_adjoint=True))
    default = verify_all(s)
    shuffled = verify_all(s, VerifyConfig(checks=(*reversed(CHECK_NAMES), "jacobi")))
    assert tuple(c.name for c in shuffled.checks) == CHECK_NAMES
    assert [c.residual for c in shuffled.checks] == [c.residual for c in default.checks]


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
    # jacobi reads the stored structure, almost_abelian the clean stored adjoint
    assert "jacobi" in failed and "almost_abelian" not in failed


@pytest.mark.parametrize(
    "field, dim",
    [
        pytest.param("real", 6, id="real"),
        pytest.param("complex", 6, id="complex"),
        # _row_chunks splits N=48 into rows [0, 28) and [28, 48)
        pytest.param("real", 48, id="real-48"),
        pytest.param("complex", 48, id="complex-48"),
    ],
)
def test_payload_check_binds_stored_tensors_to_p_and_n(field, dim):
    s = generate(dim, 14, field=field)
    other = generate(dim, 15, field=field)

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
    a = 1 if dim == 6 else 40  # in the last chunk at N=48
    moved_f = np.array(s.structure)
    moved_f[a, 2, 3] += 1.0
    assert f"structure 1.000e+00 at ({a}, 2, 3)" in payload(structure=moved_f).detail
    a = 4 if dim == 6 else 40
    moved = np.array(s.adjoint)
    moved[a, 1, 3] += 1.0
    bad_adjoint = payload(adjoint=moved, structure=s.structure)
    assert bad_adjoint.residual == 1.0
    assert f"adjoint 1.000e+00 at ({a}, 1, 3)" in bad_adjoint.detail
    scaled = payload(adjoint=1e12 * s.adjoint)
    assert not scaled.passed and scaled.tolerance == clean.tolerance


def test_payload_check_passes_a_sample_with_no_stored_payload(monkeypatch):
    """A built sample stores no payload, so the check has nothing to compare
    and rebuilds nothing."""

    def no_rebuild(*args):
        raise AssertionError("rebuilt an adjoint with no stored payload")

    monkeypatch.setattr(analysis, "_adjoint_block", no_rebuild)
    for s in (generate(6, 14), read_sample(write_sample(generate(6, 14), False, False))):
        assert s.stored == ()
        (check,) = verify_all(s, VerifyConfig(checks=("payload",))).checks
        assert check.passed and check.residual == 0.0
        assert check.detail == "no stored payload"


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [64, 130, 200])
def test_payload_and_row_sum_passes_match_a_one_shot_evaluation(dim, field):
    """_check_payload and _row_sum_norm walk the stack a chunk at a time; they
    report the hits and the bits that one numpy pass over the whole stack
    gives, NaN included."""
    s = generate(dim, 2, field=field)
    rebuilt = build_adjoint(s.p.matrix, s.null.vector)
    scaled, with_nan = rebuilt.copy(), rebuilt.copy()
    scaled[2 * dim // 3, 1, 3] *= 1.5
    with_nan[dim // 2, 3, 1] = np.nan
    sample = assemble_sample(
        s.p, s.null, seed=s.seed, structure=with_nan.transpose(0, 2, 1), adjoint=scaled
    )
    residual, _, passed, detail = analysis._check_payload(sample, 0, 1e-9)
    hits = []
    for stored in (with_nan, scaled):  # structure, then adjoint, both in adjoint layout
        diff = np.abs(stored - rebuilt)
        where = np.unravel_index(int(np.argmax(diff)), diff.shape)
        hits.append((diff[where], tuple(int(x) for x in where)))
    (d_nan, nan_at), (d_adj, adj_at) = hits
    assert math.isnan(d_nan) and nan_at == (dim // 2, 3, 1) and adj_at == (2 * dim // 3, 1, 3)
    assert math.isnan(residual) and not passed
    # the NaN's index is named like any other difference's, in structure layout
    assert detail == (
        f"max |stored - rebuilt|: structure nan at ({dim // 2}, 1, 3),"
        f" adjoint {d_adj:.3e} at {adj_at}"
    )
    for adj in (scaled, with_nan):
        assert analysis._row_sum_norm(adj).hex() == float(np.abs(adj).sum(axis=2).max()).hex()
    assert math.isnan(analysis._row_sum_norm(with_nan))


def test_no_thread_starts_to_build_or_verify_an_n260_stack(monkeypatch):
    """The build, the payload rebuild and the series' row sums of a real
    N = 260 stack (134 MiB) run on the calling thread; only the draw splits."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(rng_module, "_cpus", lambda: 2)
    s = generate(260, 1)
    assert started  # the spy sees the draw's helper thread
    started.clear()
    adj = build_adjoint(s.p.matrix, s.null.vector)
    assert adj.nbytes > 128 << 20
    report = verify_all(assemble_sample(s.p, s.null, seed=s.seed, adjoint=adj))
    assert report.passed
    assert started == []


def test_verify_report_as_dict_is_json_ready():
    report = verify_all(generate(4, 9))
    fields = report.as_dict()
    text = json.dumps(fields)
    assert '"passed": true' in text
    assert list(fields) == [
        "dim", "field", "mode", "seed", "rng_id", "scale", "tau_ver", "passed", "checks"
    ]
    assert [c["name"] for c in fields["checks"]] == list(CHECK_NAMES)
    for check in fields["checks"]:
        assert list(check) == ["name", "residual", "tolerance", "passed", "seconds", "detail"]
    # a NaN adjoint entry: non-finite floats are written as their repr
    s = generate(6, 14)
    adj = np.array(s.adjoint)
    adj[3, 1, 4] = np.nan
    sample = assemble_sample(s.p, s.null, seed=s.seed, adjoint=adj, structure=s.structure)
    fields = json.loads(json.dumps(verify_all(sample).as_dict(), allow_nan=False))
    assert fields["scale"] == s.scale and fields["passed"] is False
    checks = {c["name"]: c for c in fields["checks"]}
    assert checks["payload"]["residual"] == "nan"
    assert checks["series"]["residual"] == "inf"
    for name in PROBE_CHECKS[1:]:
        assert checks[name]["residual"] == "nan", checks[name]
        assert math.isfinite(checks[name]["tolerance"]), checks[name]


@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_document_near_the_float_range_gets_a_report_and_no_traceback(tmp_path, field, mode):
    """P * 2^1020 puts 2S, the series' unit, above 2^1023: the unit stays a
    float, the checks that overflow fail, and verify exits 1 quietly."""
    s = _rescaled(generate(6, 3, field=field, mode=mode), 2.0**1020)
    path = tmp_path / "big.json"
    path.write_text(write_sample(s))
    read = read_sample(path.read_text())
    assert 2.0 * analysis._row_sum_norm(read.adjoint) > 2.0**1023
    report = verify_all(read)
    assert not report.passed
    assert next(c for c in report.checks if c.name == "series").passed
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge.cli", "verify", str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, proc.stderr


def test_verify_report_seconds_are_recorded():
    report = verify_all(generate(4, 1))
    assert all(c.seconds >= 0.0 for c in report.checks)


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_property_generic_samples_verify_clean(dim, seed):
    s = generate(dim, seed)
    band = _band(s)
    assert jacobi_residual(s.structure) <= band
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
    # strictly upper triangular: P^N is exactly zero, not merely small
    assert not np.linalg.matrix_power(s.p.matrix, dim).any()
