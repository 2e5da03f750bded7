import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lieforge import linalg
from lieforge.errors import ContractViolation
from lieforge.linalg import (
    EPS,
    as_field_matrix,
    inf_norm,
    null_residual_tol,
    rank_and_left_null,
)
from lieforge.rng import NormalStream
from lieforge.sampler import (
    ParameterMatrix,
    generate,
    sample_parameter_matrix,
    validate_parameter_matrix,
)
from reference import commutator, svd_left_null


def test_as_field_matrix_coerces_and_validates():
    m = as_field_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    c = as_field_matrix(np.array([[1j, 0], [0, 1]]))
    assert c.dtype == np.complex128
    with pytest.raises(ContractViolation):
        as_field_matrix(np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        as_field_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_commutator_hand_value():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(commutator(a, b), np.diag([1.0, -1.0]))


def test_inf_norm_is_entrywise_max():
    assert inf_norm(np.array([[1.0, -3.5], [2.0, 0.5]])) == 3.5
    assert inf_norm(np.array([3.0 + 4.0j])) == 5.0
    assert inf_norm(np.empty((0, 0))) == 0.0


def _inf_norm_cases():
    rng = np.random.default_rng(5)
    real = {
        "1d": rng.standard_normal(7),
        "1d-many-slabs": rng.standard_normal(200_000),
        "2d": rng.standard_normal((9, 4)),
        "3d": rng.standard_normal((6, 6, 6)),
        "3d-row-above-chunk": rng.standard_normal((3, 300, 300)),
        "all-negative-zero": np.full((3, 4), -0.0),
        "all-negative-zero-large": np.full((300, 300), -0.0),
        "mixed-signed-zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
        "mixed-signed-zeros-large": np.where(rng.random((300, 300)) < 0.5, 0.0, -0.0),
        "single": np.array([-2.5]),
        "scalar": np.array(-3.0),
        "empty": np.empty((0, 0)),
        "empty-rows": np.empty((3, 0)),
    }
    cases = dict(real)
    for name, a in real.items():
        cases[f"{name}-complex"] = a + 1j * np.roll(a, 1) if a.size else a.astype(complex)
    cases["all-negative-zero-complex"] = np.full((300, 300), complex(-0.0, -0.0))
    cases["uint8-large"] = np.full((70, 1000), 5, dtype=np.uint8)
    cases["int-large"] = rng.integers(-9, 9, (3, 300, 300))
    cases["bool-large"] = rng.random((300, 300)) < 0.5
    for name in ("3d", "3d-complex", "3d-row-above-chunk-complex"):
        cases[f"{name}-transposed"] = cases[name].transpose(0, 2, 1)
    return cases


@pytest.mark.parametrize("name, a", _inf_norm_cases().items())
def test_inf_norm_matches_abs_max_bitwise(name, a):
    expect = float(np.abs(a).max()) if a.size else 0.0
    got = inf_norm(a)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()


@pytest.mark.parametrize("shape", [(4, 5), (400, 300)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_inf_norm_propagates_nan(dtype, shape):
    a = np.ones(shape, dtype=dtype)
    a[-1, -1] = np.nan  # in the last slab, after a finite peak
    assert np.isnan(inf_norm(a)) and np.isnan(inf_norm(a.T))


def test_rank_of_diagonal_example():
    rank, n, _ = rank_and_left_null(np.diag([0.0, 1.0]))
    assert rank == 1
    np.testing.assert_array_equal(n, [1.0, 0.0])
    # the solve gives x = -0.0 here; the null vector holds 0.0
    assert not np.signbit(n[1])


def test_rank_full_matrix_has_no_null_vector():
    rank, n, _ = rank_and_left_null(np.eye(3))
    assert rank == 3
    assert n is None


def test_singular_values_returned_sorted():
    rank, n, svals = rank_and_left_null(np.diag([0.0, 2.0, 5.0]))
    assert rank == 2
    np.testing.assert_allclose(svals, [5.0, 2.0, 0.0], atol=1e-15)


def test_null_vector_is_unit_and_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m[:, 0] = 0.0
        rank, n, _ = rank_and_left_null(m)
        assert rank == 5
        assert abs(np.linalg.norm(n) - 1.0) <= 4 * EPS
        assert inf_norm(n @ m) <= null_residual_tol(m)


def test_phase_convention_real_first_entry_positive():
    m = np.zeros((3, 3))
    m[1, 1] = m[2, 2] = 1.0
    _, n, _ = rank_and_left_null(m)
    assert n[0] > 0


def test_phase_convention_complex_anchor_real():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[:, 0] = 0.0
    _, n, _ = rank_and_left_null(m)
    anchor = next(v for v in n if abs(v) > 1e-12)
    assert abs(anchor.imag) <= 1e-12 * abs(anchor)
    assert anchor.real > 0


def test_a_singular_block_gives_no_null_vector():
    """Rank N-1 with P[1:, 1:] singular: n = e_N, which has no n{1} to normalise."""
    heisenberg = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    rank, n, _ = rank_and_left_null(heisenberg)
    assert rank == 2 and n is None


def _with_null_vector(dim, field, first, rng):
    """P with a zero first column whose left null space is spanned by a unit n
    with n{1} = first; P[1:, 1:] then has a condition number of order 1/first."""
    def normals(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    rest = normals(dim - 1)
    n = np.concatenate([[first], rest * (np.sqrt(1 - first**2) / np.linalg.norm(rest))])
    g = normals(dim, dim - 1)
    p = np.zeros((dim, dim), g.dtype)
    p[:, 1:] = g - np.outer(np.conjugate(n), n @ g)  # n @ p = 0
    return p


def _null_cells():
    """Acceptance 2's generic grid, then built cells with n{1} near tau_n1 = 1e-10."""
    for dim in range(2, 21):
        for seed in range(1, 11):
            for field in ("real", "complex"):
                yield generate(dim, seed, field=field).p.matrix
    rng = np.random.default_rng(34)
    for dim in (3, 10, 40):
        for field in ("real", "complex"):
            for first in (1e-6, 1e-8, 1.01e-10, 0.99e-10):
                yield _with_null_vector(dim, field, first, rng)


def test_the_lu_null_vector_is_the_svd_null_vector_to_rounding():
    """On every cell n is unit within 4 eps, annihilates P within the residual
    band, holds no -0.0, has a real positive n{1}, and spans the null space of
    the reference SVD: after the phases are matched, the two differ by at most
    4 N eps sigma_1 / sigma_{N-1}, the first-order bound on a rounding change."""
    for p in _null_cells():
        dim = p.shape[0]
        rank, n, svals = rank_and_left_null(p)
        assert rank == dim - 1
        assert abs(np.linalg.norm(n) - 1.0) <= 4 * EPS
        assert inf_norm(n @ p) <= null_residual_tol(p)
        parts = (n.real, n.imag) if n.dtype.kind == "c" else (n,)
        assert not any(np.any((part == 0) & np.signbit(part)) for part in parts)
        assert n[0].real > 0 and n[0].imag == 0
        _, ref = svd_left_null(p)
        phase = np.vdot(ref, n)
        gap = inf_norm(n - ref * (phase / abs(phase)))
        assert gap <= 4 * dim * EPS * svals[0] / svals[-2], (dim, gap)


def test_the_null_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    calls = linalg._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS whose thread count can be set")
    get = calls[0]
    before = get()
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        seen.append(get())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    rank_and_left_null(np.diag([0.0, 1.0, 2.0]))
    # LAPACK raises on the singular block's zero pivot inside the pin
    rank_and_left_null(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert seen == [1, 1]
    assert get() == before


@given(
    arrays(np.float64, (5, 4), elements=st.floats(-10, 10, allow_nan=False)),
    st.permutations(list(range(5))),
)
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_permutation(block, perm):
    m = np.zeros((5, 5))
    m[:, 1:] = block
    rank_m = rank_and_left_null(m)[0]
    rank_p = rank_and_left_null(m[perm, :])[0]
    assert rank_m == rank_p


@given(
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5, allow_nan=False)),
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5, allow_nan=False)),
)
@settings(max_examples=40, deadline=None)
def test_commutator_antisymmetry_is_exact(a, b):
    np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))


class _ThreadCountSpy:
    """A fake OpenBLAS thread count at 2, and the count each SVD and solve runs at."""

    def __init__(self, monkeypatch):
        self.count, self.puts, self.seen = 2, [], []
        monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: (lambda: self.count, self.put))
        monkeypatch.setattr(np.linalg, "svd", self.spy("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "solve", self.spy("solve", np.linalg.solve))

    def put(self, threads):
        self.puts.append(threads)
        self.count = threads

    def spy(self, name, call):
        def run(*args, **kwargs):
            self.seen.append((name, self.count))
            return call(*args, **kwargs)

        return run


# (dim, field): P of 3 KiB up to 2.4 MiB
@pytest.mark.parametrize("dim, field", [(20, "real"), (256, "complex"), (400, "complex")])
def test_a_validation_toggles_the_blas_thread_count_once(monkeypatch, dim, field):
    """A validation takes its singular values and its LU solve inside one pin
    to one BLAS thread, at every size: one switch down, one back."""
    spy = _ThreadCountSpy(monkeypatch)
    rng = np.random.default_rng(dim)
    p = rng.standard_normal((dim, dim))
    if field == "complex":
        p = p + 1j * rng.standard_normal((dim, dim))
    p[:, 0] = 0.0
    rank, n, _ = rank_and_left_null(p)
    assert rank == dim - 1 and n is not None
    assert spy.seen == [("svd", 1), ("solve", 1)]
    assert spy.puts == [1, 2] and spy.count == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_nilpotent_validation_makes_no_blas_call_and_no_pin(monkeypatch, field):
    """A nilpotent draw's rank and n come from its superdiagonal and its last
    row: no SVD, no solve, no switch of the BLAS thread count."""
    pm = sample_parameter_matrix(64, NormalStream(1), field=field, mode="nilpotent")
    spy = _ThreadCountSpy(monkeypatch)
    null = validate_parameter_matrix(pm)
    assert spy.seen == [] and spy.puts == [] and spy.count == 2
    assert null.smallest_retained_sv is None


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_null_vector_is_solved_in_the_exponent_of_p(seed, field):
    """The LU solve runs on P * 2^-e, e the exponent of max |P|, so P * 2^k
    gives n bit for bit up to the top of the float range, where the unscaled
    elimination overflowed and a valid P was refused with n{1} = 0."""
    s = generate(20, seed, field=field)
    p = s.p.matrix
    for k in (-1000, 1016, 1018, 1020):
        scaled = ParameterMatrix(np.ldexp(p.view(np.float64), k).view(p.dtype), "generic")
        assert validate_parameter_matrix(scaled).vector.tobytes() == s.null.vector.tobytes(), k
