"""Generator contracts: draw order, validation, retry policy, closed form."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import lieforge.sampler as sampler_module
from lieforge import linalg
from lieforge.cli import main
from lieforge.errors import (
    ContractViolation,
    DegenerateParametersError,
    GenerationFailedError,
    NullFirstComponentError,
    SystemSizeError,
)
from lieforge.linalg import EPS, inf_norm, null_residual_tol
from lieforge.rng import RNG_ID, NormalStream
from lieforge.sampler import (
    FIELDS,
    MODES,
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    adjoint_to_structure,
    assemble_sample,
    build_adjoint,
    generate,
    sample_parameter_matrix,
    validate_parameter_matrix,
)
from lieforge.serialize import _WRITE_STACKS, read_sample, write_sample
from reference import transfer_matrix

AFFINE_P = np.array([[0.0, 0.0], [0.0, 1.0]])
HEISENBERG_P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def _sample_from(matrix, mode="generic"):
    pm = ParameterMatrix(np.asarray(matrix, dtype=np.float64), mode)
    null = validate_parameter_matrix(pm, Tolerances())
    return assemble_sample(pm, null, seed=0)


def test_parameter_matrix_rejects_nonzero_first_column():
    with pytest.raises(ContractViolation):
        ParameterMatrix(np.ones((3, 3)), "generic")


def test_parameter_matrix_rejects_tiny_dimension():
    with pytest.raises(ContractViolation):
        ParameterMatrix(np.zeros((1, 1)), "generic")


def test_nilpotent_mode_requires_strict_triangle():
    with pytest.raises(ContractViolation):
        ParameterMatrix(AFFINE_P, "nilpotent")
    ParameterMatrix(HEISENBERG_P, "nilpotent")  # fine


def test_parameter_matrix_is_frozen_copy():
    src = HEISENBERG_P.copy()
    pm = ParameterMatrix(src, "nilpotent")
    src[0, 1] = 99.0
    assert pm.matrix[0, 1] == 1.0
    assert not pm.matrix.flags.writeable


def test_affine_line_example():
    """Smallest nontrivial case, checked against hand arithmetic."""
    s = _sample_from(AFFINE_P)
    np.testing.assert_array_equal(s.null.vector, [1.0, 0.0])
    assert s.null.scale_factor == 1.0
    assert s.null.smallest_retained_sv == 1.0
    np.testing.assert_array_equal(s.adjoint[0], AFFINE_P)
    np.testing.assert_array_equal(s.adjoint[1], [[0.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(s.structure[0, 1, :], [0.0, 1.0])


def test_diagonal_three_dim_example():
    s = _sample_from(np.diag([0.0, 1.0, 1.0]))
    np.testing.assert_array_equal(s.null.vector, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.structure[0, 1, :], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(s.structure[0, 2, :], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(s.structure[1, 2, :], [0.0, 0.0, 0.0])


def test_heisenberg_example():
    s = _sample_from(HEISENBERG_P, mode="nilpotent")
    np.testing.assert_array_equal(s.null.vector, [0.0, 0.0, 1.0])
    assert s.null.scale_factor is None
    np.testing.assert_array_equal(s.adjoint[0], np.zeros((3, 3)))
    np.testing.assert_array_equal(s.structure[1, 2, :], [-1.0, 0.0, 0.0])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dim", [48, 56, 64, 80, 200])
def test_nilpotent_draws_are_taken_first_time_with_n_exactly_e_N(dim, field):
    """Random triangular P have condition numbers growing like 2^N, which a
    rank SVD would reject; the superdiagonal rule takes every draw."""
    e_n = np.zeros(dim, np.complex128 if field == "complex" else np.float64)
    e_n[-1] = 1.0
    for seed in range(1, 31):
        s = generate(dim, seed, field=field, mode="nilpotent")
        assert s.attempts == 1
        assert s.null.vector.dtype == e_n.dtype
        assert s.null.vector.tobytes() == e_n.tobytes()
        assert s.null.scale_factor is None
        assert s.null.smallest_retained_sv is None


def test_nilpotent_rank_is_read_off_the_superdiagonal():
    """Rank N-1 iff every |P{i, i+1}| exceeds tol_rank, however small; no
    singular value is taken, so smallest_retained_sv is None."""
    p = np.triu(np.ones((4, 4)), 1)
    p[1, 2] = 1e-200
    null = validate_parameter_matrix(ParameterMatrix(p, "nilpotent"), Tolerances())
    np.testing.assert_array_equal(null.vector, [0.0, 0.0, 0.0, 1.0])
    assert null.smallest_retained_sv is None
    with pytest.raises(DegenerateParametersError, match="P\\{2,3\\}"):
        validate_parameter_matrix(ParameterMatrix(p, "nilpotent"), Tolerances(tol_rank=1e-100))
    p[1, 2] = 0.0  # rank 2: the rows of P[:3, 1:] are no longer independent
    with pytest.raises(DegenerateParametersError, match="P\\{2,3\\}"):
        validate_parameter_matrix(ParameterMatrix(p, "nilpotent"), Tolerances())


def test_generic_mode_rejects_zero_first_null_component():
    pm = ParameterMatrix(HEISENBERG_P, "generic")
    with pytest.raises(NullFirstComponentError):
        validate_parameter_matrix(pm, Tolerances())


def test_degenerate_rank_is_reported_with_singular_value():
    pm = ParameterMatrix(np.zeros((3, 3)), "generic")
    with pytest.raises(DegenerateParametersError) as info:
        validate_parameter_matrix(pm, Tolerances())
    assert "rank" in str(info.value)


def test_draw_order_real_generic():
    """Free entries fill row-major from the normal stream."""
    dim = 4
    vals = NormalStream(17).normals(dim * (dim - 1))
    pm = sample_parameter_matrix(dim, NormalStream(17))
    np.testing.assert_array_equal(pm.matrix[:, 0], np.zeros(dim))
    np.testing.assert_array_equal(pm.matrix[:, 1:], vals.reshape(dim, dim - 1))


def test_draw_order_complex_generic():
    dim = 3
    count = dim * (dim - 1)
    vals = NormalStream(5).normals(2 * count)
    pm = sample_parameter_matrix(dim, NormalStream(5), field="complex")
    expected = vals[:count] + 1j * vals[count:]
    np.testing.assert_array_equal(pm.matrix[:, 1:].ravel(), expected)


def test_draw_order_nilpotent():
    dim = 4
    rows, cols = np.triu_indices(dim, k=1)
    vals = NormalStream(9).normals(rows.size)
    pm = sample_parameter_matrix(dim, NormalStream(9), mode="nilpotent")
    np.testing.assert_array_equal(pm.matrix[rows, cols], vals)
    lower = np.tril_indices(dim, k=0)
    np.testing.assert_array_equal(pm.matrix[lower], np.zeros(len(lower[0])))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_rank_one_form_matches_transfer_product(field, dim):
    s = generate(dim, 31, field=field)
    band = 8 * dim * EPS * inf_norm(s.p.matrix) * max(1.0, inf_norm(s.null.vector))
    for k in range(dim):
        literal = s.p.matrix @ transfer_matrix(s.null.vector, k)
        assert inf_norm(s.adjoint[k] - literal) <= band


def test_first_adjoint_is_scaled_parameter_matrix():
    s = generate(5, 23)
    residual = inf_norm(s.adjoint[0] - s.null.vector[0] * s.p.matrix)
    assert residual <= null_residual_tol(s.p.matrix)


def test_null_vector_annihilates_every_adjoint():
    for seed in (1, 2, 3):
        s = generate(7, seed)
        band = 64 * s.dim * EPS * max(1.0, s.scale)
        for k in range(s.dim):
            assert inf_norm(s.null.vector @ s.adjoint[k]) <= band


def test_structure_antisymmetry_is_bitwise():
    for field in ("real", "complex"):
        s = generate(6, 11, field=field)
        f = s.structure
        assert np.array_equal(f, -f.transpose(1, 0, 2))
        assert not f[np.arange(6), np.arange(6), :].any()


def _series_dims(f, central):
    """Dimensions of the derived series of f, or with central=True of its
    lower central series, until a term is 0 or repeats.

    Each term is spanned by the brackets of an orthonormal basis of the last
    term with itself (derived) or with every basis element (central); its
    dimension is their rank at 1e-9 * max |f|.
    """
    dim = f.shape[0]
    basis, dims = np.eye(dim, dtype=f.dtype), [dim]
    while True:
        left = np.eye(dim) if central else basis
        brackets = np.einsum("ai,bj,ijk->abk", left, basis, f).reshape(-1, dim)
        _, sv, vh = np.linalg.svd(brackets, full_matrices=False)
        basis = vh[: np.count_nonzero(sv > 1e-9 * np.abs(f).max())]
        dims.append(len(basis))
        if dims[-1] in (0, dims[-2]):
            return dims


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
def test_the_derived_algebra_is_abelian(field, mode):
    """The paper's theorem as dimensions: g' is abelian, so g'' = 0. A generic
    sample's g' is the whole abelian ideal ker n, of codimension 1, and its
    lower central series stops there; a nilpotent sample is filiform, with
    g' of codimension 2 and each further term one dimension smaller."""
    for dim, seed in itertools.product(range(3, 13), (1, 2)):
        f = generate(dim, seed, field=field, mode=mode).structure
        derived, central = _series_dims(f, False), _series_dims(f, True)
        if mode == "generic":
            assert derived == [dim, dim - 1, 0], (dim, seed)
            assert central == [dim, dim - 1, dim - 1], (dim, seed)
        else:
            assert derived == [dim, dim - 2, 0], (dim, seed)
            assert central == [dim, *range(dim - 2, -1, -1)], (dim, seed)


def test_generate_deterministic_and_metadata():
    a = generate(5, 77)
    b = generate(5, 77)
    assert np.array_equal(a.p.matrix, b.p.matrix)
    assert np.array_equal(a.adjoint, b.adjoint)
    assert a.seed == 77 and a.rng_id == RNG_ID and a.attempts == 1
    assert isinstance(a, LieAlgebraSample)
    assert a.field == "real" and a.mode == "generic"


def test_generate_validates_arguments():
    with pytest.raises(ContractViolation):
        generate(1, 0)
    with pytest.raises(ContractViolation):
        generate(3, 0, field="rational")
    with pytest.raises(ContractViolation):
        generate(3, 0, mode="semisimple")
    with pytest.raises(ContractViolation):
        generate(3, 0, max_attempts=0)


def test_first_attempt_success_rate():
    """Degenerate draws must be rare; the retry loop is a safety net."""
    retries = sum(generate(5, seed).attempts > 1 for seed in range(1000))
    assert retries <= 10


def test_retry_consumes_stream_and_counts_attempts(monkeypatch):
    real_validate = sampler_module.validate_parameter_matrix
    calls = {"n": 0}

    def flaky(pm, tolerances):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DegenerateParametersError("synthetic rank failure")
        return real_validate(pm, tolerances)

    monkeypatch.setattr(sampler_module, "validate_parameter_matrix", flaky)
    s = sampler_module.generate(4, 55)
    assert s.attempts == 2
    # second attempt continues the stream (draws 12..24), so its matrix
    # differs from a fresh seed-55 draw
    fresh = sample_parameter_matrix(4, NormalStream(55))
    assert not np.array_equal(s.p.matrix, fresh.matrix)
    stream = NormalStream(55)
    stream.normals(4 * 3)
    expected = sample_parameter_matrix(4, stream)
    np.testing.assert_array_equal(s.p.matrix, expected.matrix)


def test_generation_failure_carries_last_error(monkeypatch):
    def always_degenerate(pm, tolerances):
        raise DegenerateParametersError("synthetic rank failure")

    monkeypatch.setattr(sampler_module, "validate_parameter_matrix", always_degenerate)
    with pytest.raises(GenerationFailedError) as info:
        sampler_module.generate(3, 1, max_attempts=4)
    assert "4" in str(info.value)
    assert isinstance(info.value.last_error, DegenerateParametersError)


def test_tolerances_round_trip():
    t = Tolerances(tol_rank=1e-12, tau_n1=1e-8, tau_ver=1e-7)
    assert list(t.as_dict()) == ["tol_rank", "tau_n1", "tau_ver"]


def test_build_adjoint_chunking_is_invisible(monkeypatch):
    rng = np.random.default_rng(0)
    p = rng.standard_normal((9, 9))
    p[:, 0] = 0.0
    n = rng.standard_normal(9)
    whole = build_adjoint(p, n)
    # reference without chunking: one product array, subtract its transpose
    prod = n[:, None, None] * p[None, :, :]
    np.testing.assert_array_equal(whole, prod - prod.transpose(2, 1, 0))
    monkeypatch.setattr(linalg, "_SLAB_CHUNK", 200)  # the name _row_chunks reads
    assert [s.stop - s.start for s in linalg._row_chunks(9, 81)] == [2, 2, 2, 2, 1]
    np.testing.assert_array_equal(build_adjoint(p, n), whole)


def _earlier_adjoint_rows(p, n, rows, out=None):
    """The earlier row kernel, kept as the reference: prod[a, r, c] = n{a} * P{r, c}."""
    prod = n[:, None, None] * p[None, rows, :]
    return np.subtract(prod, prod.transpose(2, 1, 0), out=out)


def _earlier_build_adjoint(p, n):
    """The earlier build: chunks of 1 << 22 products around _earlier_adjoint_rows."""
    dim = p.shape[0]
    out = np.empty((dim, dim, dim), dtype=np.promote_types(p.dtype, n.dtype))
    step = max(1, (1 << 22) // (dim * dim))
    for start in range(0, dim, step):
        sl = slice(start, min(start + step, dim))
        _earlier_adjoint_rows(p, n, sl, out=out[:, sl, :])
    return out


def _bits(a):
    """Raw float64 bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def _random_pn(dim, field, seed=0):
    rng = np.random.default_rng(seed)
    p, n = rng.standard_normal((dim, dim)), rng.standard_normal(dim)
    if field == "complex":
        p, n = p + 1j * rng.standard_normal((dim, dim)), n + 1j * rng.standard_normal(dim)
    p[:, 0] = 0.0
    return p, n


@pytest.mark.parametrize("field", ["real", "complex"])
# 181 puts two rows in a chunk, 182 one
@pytest.mark.parametrize("dim", [*range(2, 13), 33, 64, 65, 181, 182])
def test_build_adjoint_matches_earlier_kernel_bitwise(dim, field):
    p, n = _random_pn(dim, field, seed=dim)
    for pm in (p, np.triu(p, 1)):  # generic and nilpotent shape
        adj = build_adjoint(pm, n)
        assert np.array_equal(_bits(adj), _bits(_earlier_build_adjoint(pm, n)))
        f = adjoint_to_structure(adj)
        for k in range(dim):
            m = f[:, :, k]
            # f[i, j, k] = -f[j, i, k] exactly; bitwise wherever it is nonzero,
            # since x - x is +0.0 whichever side it is taken from
            assert np.array_equal(m, -m.T)
            nonzero = m != 0
            assert np.array_equal(_bits(m[nonzero]), _bits(-m.T[nonzero]))
            assert not _bits(np.diagonal(m)).any()  # the i = j slice is +0.0


@pytest.mark.parametrize("field", ["real", "complex"])
def test_adjoint_rows_matches_earlier_kernel_on_any_slice(field):
    """The build's block kernel gives build_adjoint's rows a on any slice."""
    dim = 11
    p, n = _random_pn(dim, field)
    whole = _bits(_earlier_build_adjoint(p, n))
    slices = [
        slice(0, 1), slice(3, 4), slice(2, 9), slice(0, dim), slice(5, None),
        slice(1, 10, 3), slice(None, None, -2), slice(4, 4),
    ]
    for rows in slices:
        expect = whole[rows]
        assert np.array_equal(_bits(sampler_module._adjoint_block(p, n, rows)), expect)
        fresh = np.empty((len(range(dim)[rows]), dim, dim), dtype=p.dtype)
        assert sampler_module._adjoint_block(p, n, rows, out=fresh) is fresh
        assert np.array_equal(_bits(fresh), expect)
        stack = np.zeros((dim, dim, dim), dtype=p.dtype)
        sampler_module._adjoint_block(p, n, rows, out=stack[rows])
        assert np.array_equal(_bits(stack[rows]), expect)


def _unimodular(dim, field, seed):
    """(p, n) with every |P{r, c}| equal and every |n{c}| equal."""
    rng = np.random.default_rng(seed)
    if field == "real":
        return np.sign(rng.standard_normal((dim, dim))), np.sign(rng.standard_normal(dim))
    return np.exp(2j * np.pi * rng.random((dim, dim))), np.exp(2j * np.pi * rng.random(dim)) / 3


def _overflow_cells():
    p, n = _random_pn(40, "real")
    p, n = p * (1.5e308 / np.abs(p).max()), n / np.abs(n).max()
    p[0, 1], p[0, 2], n[1], n[2] = 1.5e308, -1.5e308, 1.0, 1.0
    yield p, n  # adj[1, 0, 2] = -1.5e308 - 1.5e308 overflows to -inf
    yield p, 4 * n  # products overflow too, and inf - inf is NaN


def _scale_cells():
    """(p, n) on acceptance 2's grid, then N = 64, 130 and 200 in several
    chunks, then the inputs where the row bounds prune nothing, underflow or tie."""
    for dim, seed, field, mode in itertools.product(range(2, 21), range(1, 11), FIELDS, MODES):
        s = generate(dim, seed, field=field, mode=mode)
        yield s.p.matrix, s.null.vector
    for dim, field in itertools.product((64, 130, 200), FIELDS):
        p, n = _random_pn(dim, field, seed=dim)
        yield p, n
        yield np.triu(p, 1), n  # nilpotent shape
    yield from _overflow_cells()
    for dim, field in itertools.product((2, 7, 64, 150), FIELDS):
        yield _unimodular(dim, field, seed=dim)  # every row's bound is equal: none is pruned
    for dim, field in itertools.product((10, 64), FIELDS):
        p, n = _random_pn(dim, field, seed=dim)
        yield p * 2.0**-1060, n * 2.0**-20  # products in the subnormal range
    for field in FIELDS:
        p, n = _random_pn(41, field, seed=41)
        # rows (a, 2r) and (a, 2r + 1) tie, and so do the N-th and (N + 1)-th largest bounds
        p[1::2] = p[:-1:2]
        yield p, n


def test_the_scale_pass_is_the_inf_norm_of_the_build_bit_for_bit():
    """_adjoint_scale builds only the rows its bounds cannot rule out, yet
    gives inf_norm(build_adjoint(p, n)), NaN and inf included."""
    seen = Counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for p, n in _scale_cells():
            want = inf_norm(build_adjoint(p, n)).hex()
            assert sampler_module._adjoint_scale(p, n).hex() == want
            seen[want if want in ("inf", "nan") else "finite"] += 1
    assert seen == {"finite": 786, "inf": 1, "nan": 1}


def test_each_row_bound_caps_its_row_as_computed():
    """_row_bounds caps every row of the computed stack, also where complex
    products round above |x| |y| and where products underflow; the exact
    arithmetic bound alone fails some of these rows. A row holding NaN has an
    inf or NaN bound, so _adjoint_scale keeps it."""
    rng = np.random.default_rng(5)
    cells = []
    for _ in range(200):  # adj[0, r, 1] = 2 n{0} w, its exact cap
        n0, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cells.append((np.full((2, 2), w), np.array([n0, -n0])))
    for _ in range(100):  # products a few subnormals wide
        p, n = _random_pn(6, "complex", seed=int(rng.integers(1 << 30)))
        cells.append((p * 2.0**-1060, n * 2.0**-14))
    cells += [_random_pn(30, field) for field in FIELDS] + list(_overflow_cells())
    exceeded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for p, n in cells:
            rows = np.abs(build_adjoint(p, n)).max(axis=2)
            bound = sampler_module._row_bounds(p, n)
            assert not (rows > bound).any()
            assert not np.isfinite(bound[np.isnan(rows)]).any()
            abs_p, abs_n = np.abs(p), np.abs(n)
            exceeded += (rows > abs_n[:, None] * abs_p.max(axis=1) + abs_n.max() * abs_p.T).any()
    assert exceeded > 100


def test_generate_and_its_scale_hold_no_stack():
    dim = 300
    tracemalloc.start()
    try:
        s = generate(dim, 1)
        assert s.scale > 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim**3 * 8 / 20
    assert "adjoint" not in vars(s)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_lazy_adjoint_and_structure_are_read_only_and_built_once(field):
    s = generate(12, 1, field=field)
    assert not {"adjoint", "structure", "scale"} & set(vars(s))
    adj, f = s.adjoint, s.structure
    assert s.adjoint is adj and s.structure is f and np.shares_memory(adj, f)
    # from a structure payload alone, the adjoint is its transposed view
    given = assemble_sample(s.p, s.null, seed=1, structure=np.array(f))
    assert given.adjoint is given.adjoint and given.structure is given.structure
    for arr in (adj, f, given.adjoint, given.structure):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 1, 1] = 1.0


def test_the_stack_is_sized_once_per_build_and_never_for_the_scale(monkeypatch):
    sized, reads = [], []
    check_fits, available = sampler_module._check_fits, sampler_module._available_memory

    def spy_fits(nbytes, what, available=None):
        sized.append(what)
        check_fits(nbytes, what, available)

    def spy_available():
        reads.append(1)
        return available()

    monkeypatch.setattr(sampler_module, "_check_fits", spy_fits)
    monkeypatch.setattr(sampler_module, "_available_memory", spy_available)
    build_adjoint(*_random_pn(20, "real"))
    assert sized == ["the N=20 adjoint stack"] and len(reads) == 1
    sized.clear()
    s = generate(70, 3)
    assert s.scale > 0
    assert sized == ["the working set of the N=70 draw"]
    assert s.adjoint is s.adjoint and s.structure is not None
    assert sized == ["the working set of the N=70 draw", "the N=70 adjoint stack"]
    assert len(reads) == 3


def test_adjoint_build_and_scale_stay_within_one_chunk_of_memory():
    p, n = _random_pn(96, "complex")
    budget = 2 * 1024 * 1024
    tracemalloc.start()
    try:
        adj = build_adjoint(p, n)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        inf_norm(adj)
        _, norm_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak <= adj.nbytes + budget
    assert norm_peak - base < budget


def test_null_data_smallest_sv_positive():
    s = generate(8, 3)
    assert s.null.smallest_retained_sv > 0
    assert isinstance(s.null, NullData)


def test_an_adjoint_too_large_for_memory_fails_before_it_allocates(monkeypatch):
    p, n = _random_pn(96, "complex")
    nbytes = 96**3 * 16
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: nbytes - 1)
    # the draw and the scale need no stack; the first read of the adjoint does
    s = generate(96, 2, field="complex")
    assert s.scale > 0
    for build in (lambda: build_adjoint(p, n), lambda: s.adjoint):
        tracemalloc.start()
        try:
            with pytest.raises(SystemSizeError, match="N=96"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes // 100
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: nbytes)
    assert build_adjoint(p, n).nbytes == s.adjoint.nbytes == nbytes


@pytest.mark.parametrize("field, mib", [("real", 16), ("complex", 32)])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
def test_generate_sizes_the_adjoint_before_it_draws(field, mib, mode, monkeypatch, capsys):
    """`lieforge generate` writes every payload from the N^3 stack, through
    lists and text that peak at _WRITE_STACKS[emit] stacks in all, so it
    sizes that many before the first draw; with no payload it sizes the draw."""

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a parameter matrix before sizing")

    monkeypatch.setattr(sampler_module, "_available_memory", lambda: 0)
    monkeypatch.setattr(sampler_module, "sample_parameter_matrix", no_draw)
    argv = ["generate", "--dim", "128", "--seed", "1", "--field", field, "--mode", mode]
    for emit in ("adjoint", "structure", "both", "none"):
        assert main([*argv, "--emit", emit]) == 64
        err = capsys.readouterr().err
        if emit == "none":
            assert err.startswith("lieforge generate: the working set of the N=128 draw needs")
        else:
            need = _WRITE_STACKS[emit] * mib  # mib: one stack
            assert err.startswith(
                f"lieforge generate: writing the N=128 --emit {emit} document needs {need} MiB"
            )


def test_the_memory_check_is_skipped_without_meminfo(monkeypatch):
    def no_file(*args, **kwargs):
        raise FileNotFoundError("/proc/meminfo")

    if os.path.exists("/proc/meminfo"):
        assert sampler_module._available_memory() > 0
    monkeypatch.setattr(sampler_module, "open", no_file, raising=False)
    assert sampler_module._available_memory() is None
    p, n = _random_pn(6, "real")
    np.testing.assert_array_equal(build_adjoint(p, n), _earlier_build_adjoint(p, n))


def _cgroup_tree(tmp_path, lines, files):
    """A fake /proc/self/cgroup holding lines, and a /sys/fs/cgroup tree of files."""
    proc = tmp_path / "cgroup"
    proc.write_text("".join(f"{line}\n" for line in lines))
    root = tmp_path / "sys"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(f"{text}\n")
    return str(proc), str(root)


@pytest.mark.parametrize(
    "lines, files, headroom",
    [
        # v2: memory.max - memory.current of the process's cgroup
        (["0::/a/b"], {"a/b/memory.max": 1000, "a/b/memory.current": 400}, 600),
        # v2: an ancestor's tighter limit counts; "max" is no limit
        (
            ["0::/a/b"],
            {"a/b/memory.max": "max", "a/b/memory.current": 400, "a/memory.max": 900,
             "a/memory.current": 500},
            400,
        ),
        (["0::/a"], {"a/memory.max": "max", "a/memory.current": 400}, None),
        # v1: the line whose controllers include memory
        (
            ["5:cpu,cpuacct:/x", "4:memory:/x/y"],
            {"memory/x/y/memory.limit_in_bytes": 2000, "memory/x/y/memory.usage_in_bytes": 1500},
            500,
        ),
        # v1 reports "unlimited" as 2^63 rounded down to a page
        (
            ["4:memory:/x"],
            {"memory/x/memory.limit_in_bytes": 9223372036854771712,
             "memory/x/memory.usage_in_bytes": 1500},
            None,
        ),
        # usage above the limit leaves no room; a cgroup without files has no limit
        (["0::/a"], {"a/memory.max": 100, "a/memory.current": 300}, 0),
        (["0::/", "4:memory:/"], {}, None),
    ],
)
def test_cgroup_headroom_reads_the_process_cgroups(tmp_path, lines, files, headroom):
    proc, root = _cgroup_tree(tmp_path, lines, files)
    assert sampler_module._cgroup_headroom(proc, root) == headroom


def test_available_memory_is_the_smaller_of_meminfo_and_the_cgroup(monkeypatch):
    meminfo = sampler_module._available_memory()
    if meminfo is None:
        pytest.skip("no /proc/meminfo")
    monkeypatch.setattr(sampler_module, "_cgroup_headroom", lambda: 12345)
    assert sampler_module._available_memory() == 12345
    monkeypatch.setattr(sampler_module, "_cgroup_headroom", lambda: 1 << 60)
    assert 12345 < sampler_module._available_memory() < 1 << 60
    # a cgroup limit below MemAvailable refuses a stack that MemAvailable would hold
    monkeypatch.setattr(sampler_module, "_cgroup_headroom", lambda: 96**3 * 8 - 1)
    with pytest.raises(SystemSizeError, match="N=96"):
        sampler_module._check_stack_fits(96, np.float64)


# (dim, field, mode, seed): each draw has a pass of 96 blocks or more, which
# splits in two on more than one CPU
_SPLIT_DRAWS = [(157, "real", "generic", 2), (160, "complex", "generic", 2)]

_FINGERPRINTS = f"""
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from lieforge import generate, rng
print(rng._cpus())
for dim, field, mode, seed in {_SPLIT_DRAWS!r}:
    s = generate(dim, seed, field=field, mode=mode)
    print(hashlib.sha256(s.adjoint.tobytes()).hexdigest(), s.scale.hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_the_worker_count_cannot_change_the_output():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sampler_module.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # pinning changes the BLAS thread count too, which the validation, run
    # on one BLAS thread, does not follow
    env = {**os.environ, "PYTHONPATH": path}
    runs = {}
    for how in ("pinned", "unpinned"):
        out = subprocess.run(
            [sys.executable, "-c", _FINGERPRINTS, how],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        runs[how] = (int(out[0]), out[1:])
    assert runs["pinned"][0] == 1 and runs["unpinned"][0] >= 1
    assert len(runs["pinned"][1]) == len(_SPLIT_DRAWS)
    assert runs["pinned"][1] == runs["unpinned"][1]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scale_is_the_inf_norm_of_the_adjoint_bit_for_bit(field):
    for dim in (5, 41, 70):  # one chunk, then several
        s = generate(dim, 3, field=field)
        assert s.scale.hex() == inf_norm(s.adjoint).hex()
        assert inf_norm(build_adjoint(s.p.matrix, s.null.vector)).hex() == s.scale.hex()
        for flags in ((False, False), (False, True), (True, False), (True, True)):
            doc = write_sample(s, include_adjoint=flags[0], include_structure=flags[1])
            read = read_sample(doc)
            assert read.scale.hex() == inf_norm(read.adjoint).hex() == s.scale.hex()


@pytest.mark.parametrize("dim", [4, 41])
def test_a_nan_adjoint_leaves_the_scale_of_p_and_n(dim):
    """scale comes from (P, n) alone: a NaN stored in a payload leaves it
    equal to the unstored sample's, bit for bit."""
    s = generate(dim, 1)
    adj = s.adjoint.copy()
    adj[dim - 1, 1, 2] = np.nan
    stored = assemble_sample(s.p, s.null, seed=1, adjoint=adj, structure=adj.transpose(0, 2, 1))
    assert stored.scale.hex() == generate(dim, 1).scale.hex()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scale_is_one_pass_and_the_adjoint_one_build(monkeypatch, field):
    """A generated sample takes scale in one _adjoint_scale pass that builds no
    stack, and its adjoint in one build, each on first use; a sample with a
    stored payload takes scale in one _adjoint_scale pass too, and never
    reads the payload for it."""
    calls = Counter()

    def spy(name):
        real = getattr(sampler_module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(sampler_module, name, counted)

    for name in ("build_adjoint", "_adjoint_scale"):
        spy(name)
    assert not hasattr(sampler_module, "inf_norm")
    s = generate(70, 3, field=field)
    assert not calls
    assert s.scale == s.scale
    assert calls == {"_adjoint_scale": 1}
    assert s.adjoint is s.adjoint and s.structure is s.structure
    assert calls == {"_adjoint_scale": 1, "build_adjoint": 1}
    stored = assemble_sample(s.p, s.null, seed=3, adjoint=s.adjoint)
    assert stored.scale == stored.scale == s.scale
    assert calls == {"_adjoint_scale": 2, "build_adjoint": 1}
    assert "adjoint" not in vars(stored)


def test_generic_real_samples_follow_the_ginibre_laws():
    """ad(e_1) on ker n is M = n{1} P[1:, 1:], in the basis e_j - (n{j}/n{1}) e_1,
    so adjoint[0][1:, 1:]. At N = 3 that is a 2 x 2 Ginibre block times
    n{1} > 0: its mean number of real eigenvalues is sqrt(2) (Edelman, Kostlan
    & Shub, J. AMS 7(1), 1994) and P(all real) is 2^(-1/2) (Edelman,
    J. Multivariate Anal. 60, 1997). A 2 x 2 block's eigenvalues are both
    real or a conjugate pair, so the two laws test one event here. Seeds
    1-4000 meet both within four standard errors."""
    ms = np.array([generate(3, seed).adjoint[0][1:, 1:] for seed in range(1, 4001)])
    real = np.count_nonzero(np.linalg.eigvals(ms).imag == 0, axis=1)
    for stat, want in ((real, math.sqrt(2)), (real == 2, 2**-0.5)):
        z = (stat.mean() - want) / (stat.std() / math.sqrt(stat.size))
        assert abs(z) <= 4, (stat.mean(), want, z)


def _lower_central_dims(adj: np.ndarray) -> list[int] | None:
    """[dim g, dim [g, g], dim [g, [g, g]], ...] to 0, for a g whose every term
    is spanned by e_1 .. e_m for some m, found with no rounding; None otherwise.

    While the term is span(e_1 .. e_m), the next is spanned by the brackets
    [e_i, e_j], j <= m, the columns adj[i][:, :m]. If the last nonzero rows of
    those columns are exactly rows 1 .. m', the columns lie in span(e_1 ..
    e_m') and hold m' independent vectors, so they span it.
    """
    dim = adj.shape[0]
    dims = [dim]
    while dims[-1] and len(dims) <= dim:
        images = adj[:, :, : dims[-1]].transpose(1, 0, 2).reshape(dim, -1) != 0
        last = set((dim - 1 - np.argmax(images[::-1], axis=0))[images.any(axis=0)].tolist())
        if last != set(range(len(last))):
            return None
        dims.append(len(last))
    return dims


def test_every_nilpotent_sample_is_the_filiform_algebra():
    """In nilpotent mode n = e_N and M = ad(e_N) on span(e_1 .. e_{N-1}) is
    strictly upper triangular with a nonzero superdiagonal: one nilpotent
    Jordan block. So the sample is the model filiform algebra (Vergne, Bull.
    SMF 98, 1970), with lower central series dimensions N, N-2, N-3, ..., 1,
    0, over acceptance 2's grid. _series_dims' SVD rank at 1e-9 * max |f|
    gives other dimensions for 7 of these 380 samples (real, N = 14-18),
    whose genuine singular values fall below that band."""
    for dim, seed, field in itertools.product(range(2, 21), range(1, 11), ("real", "complex")):
        sample = generate(dim, seed, field=field, mode="nilpotent")
        assert _lower_central_dims(sample.adjoint) == [dim, *range(dim - 2, -1, -1)], (dim, seed)
