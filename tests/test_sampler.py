"""Generator contracts: draw order, validation, retry policy, closed form."""

import tracemalloc

import numpy as np
import pytest

import lieforge.sampler as sampler_module
from lieforge.errors import (
    ContractViolation,
    DegenerateParametersError,
    GenerationFailedError,
    NullFirstComponentError,
)
from lieforge.linalg import EPS, inf_norm, null_residual_tol
from lieforge.rng import RNG_ID, NormalStream
from lieforge.sampler import (
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    adjoint_rows,
    adjoint_to_structure,
    assemble_sample,
    build_adjoint,
    generate,
    sample_parameter_matrix,
    transfer_matrix,
    validate_parameter_matrix,
)

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
    monkeypatch.setattr(sampler_module, "_SLAB_CHUNK", 200)  # 2 rows per chunk
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
    dim = 11
    p, n = _random_pn(dim, field)
    slices = [
        slice(0, 1), slice(3, 4), slice(2, 9), slice(0, dim), slice(5, None),
        slice(1, 10, 3), slice(None, None, -2), slice(4, 4),
    ]
    for rows in slices:
        expect = _bits(_earlier_adjoint_rows(p, n, rows))
        assert np.array_equal(_bits(adjoint_rows(p, n, rows)), expect)
        fresh = np.empty((dim, len(range(dim)[rows]), dim), dtype=p.dtype)
        assert adjoint_rows(p, n, rows, out=fresh) is fresh
        assert np.array_equal(_bits(fresh), expect)
        whole = np.zeros((dim, dim, dim), dtype=p.dtype)
        adjoint_rows(p, n, rows, out=whole[:, rows, :])
        assert np.array_equal(_bits(whole[:, rows, :]), expect)


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
