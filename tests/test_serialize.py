"""Canonical document encoding: byte determinism and strict decoding."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieforge.sampler as sampler_module
import lieforge.serialize as serialize_module
from lieforge.analysis import cartan_residual, verify_all
from lieforge.errors import (
    ContractViolation,
    DegenerateParametersError,
    DocumentIntegrityError,
    FormatVersionError,
    NullFirstComponentError,
    SystemSizeError,
)
from lieforge.linalg import rank_and_left_null
from lieforge.oracle import assemble_system
from lieforge.sampler import (
    MODES,
    ParameterMatrix,
    Tolerances,
    assemble_sample,
    generate,
    validate_parameter_matrix,
)
from lieforge.serialize import FORMAT_VERSION, read_sample, write_sample

AFFINE_DOC = (
    '{"format_version":"lieforge/1","dim":2,"field":"real","mode":"generic",'
    '"seed":0,"rng_id":"splitmix64-boxmuller-v1","attempts":1,'
    '"tolerances":{"tol_rank":0.0,"tau_n1":1e-10,"tau_ver":1e-09},'
    '"p_matrix":[0.0,0.0,0.0,1.0],"null_vector":[1.0,0.0],"c":1.0,'
    '"structure_constants":[[0,1,1,1.0]]}\n'
)


def _affine_sample():
    pm = ParameterMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]), "generic")
    return assemble_sample(pm, validate_parameter_matrix(pm, Tolerances()), seed=0)


# a string value that _edited writes as the bare literal 1e400, which json
# reads as inf although it is not a NaN/Infinity token
OVERFLOW = "1e400"


def _edited(text, **changes):
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc, separators=(",", ":")).replace(f'"{OVERFLOW}"', OVERFLOW) + "\n"


def _tolerances(**changes):
    return {"tolerances": {"tol_rank": 0.0, "tau_n1": 1e-10, "tau_ver": 1e-9, **changes}}


# --- writing ----------------------------------------------------------------


def test_affine_document_is_pinned_byte_for_byte():
    assert write_sample(_affine_sample()) == AFFINE_DOC


def test_document_is_one_newline_terminated_line():
    text = write_sample(generate(5, 3))
    assert text.endswith("\n")
    assert text.count("\n") == 1


def test_key_order_is_fixed():
    text = write_sample(generate(4, 1), include_adjoint=True)
    keys = list(json.loads(text))
    assert keys == [
        "format_version",
        "dim",
        "field",
        "mode",
        "seed",
        "rng_id",
        "attempts",
        "tolerances",
        "p_matrix",
        "null_vector",
        "c",
        "adjoint",
        "structure_constants",
    ]


def test_emit_switches_control_payload_fields():
    s = generate(3, 2)
    both = json.loads(write_sample(s, include_adjoint=True, include_structure=True))
    neither = json.loads(write_sample(s, include_adjoint=False, include_structure=False))
    assert "adjoint" in both and "structure_constants" in both
    assert "adjoint" not in neither and "structure_constants" not in neither


def test_sparse_entries_are_canonical():
    s = generate(6, 9)
    entries = json.loads(write_sample(s))["structure_constants"]
    keys = [tuple(e[:3]) for e in entries]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for i, j, k, v in entries:
        assert 0 <= i < j < 6 and 0 <= k < 6
        assert v != 0
        assert s.structure[i, j, k] == v
    half = s.structure[np.triu_indices(6, k=1)]
    assert len(entries) == int(np.count_nonzero(half))


def test_complex_leaves_are_re_im_pairs():
    s = generate(3, 5, field="complex")
    doc = json.loads(write_sample(s, include_adjoint=True))
    for leaf in doc["p_matrix"] + doc["null_vector"] + doc["adjoint"][0]:
        assert isinstance(leaf, list) and len(leaf) == 2
    assert isinstance(doc["c"], list) and len(doc["c"]) == 2
    assert all(isinstance(e[3], list) and len(e[3]) == 2 for e in doc["structure_constants"])


def test_nilpotent_document_has_null_c():
    doc = json.loads(write_sample(generate(4, 7, mode="nilpotent")))
    assert doc["c"] is None


# --- round trips ------------------------------------------------------------


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
@pytest.mark.parametrize("include_adjoint", [False, True])
@pytest.mark.parametrize("include_structure", [False, True])
def test_round_trip_is_bitwise(field, mode, include_adjoint, include_structure):
    s = generate(6, 123, field=field, mode=mode)
    text = write_sample(
        s, include_adjoint=include_adjoint, include_structure=include_structure
    )
    back = read_sample(text)
    np.testing.assert_array_equal(back.p.matrix, s.p.matrix)
    np.testing.assert_array_equal(back.null.vector, s.null.vector)
    np.testing.assert_array_equal(back.adjoint, s.adjoint)
    np.testing.assert_array_equal(back.structure, s.structure)
    assert back.null.scale_factor == s.null.scale_factor
    assert back.null.smallest_retained_sv == s.null.smallest_retained_sv
    assert (back.dim, back.field, back.mode) == (s.dim, s.field, s.mode)
    assert (back.seed, back.rng_id, back.attempts) == (s.seed, s.rng_id, s.attempts)
    assert back.tolerances == s.tolerances
    rewritten = write_sample(
        back, include_adjoint=include_adjoint, include_structure=include_structure
    )
    assert rewritten == text


# payloads each --emit writes, as (include_adjoint, include_structure)
EMITS = {
    "structure": (False, True),
    "adjoint": (True, False),
    "both": (True, True),
    "none": (False, False),
}


def _report(sample):
    """Every check but payload as (name, residual repr, verdict)."""
    checks = verify_all(sample).checks
    return [(c.name, repr(c.residual), c.passed) for c in checks if c.name != "payload"]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
def test_a_read_document_reports_what_its_sample_reports(field, mode):
    """Every check reads a read sample's tensor as it reads the built one, so
    the residuals are equal bit for bit whatever the document stores."""
    # seed 2: at seed 1 no nilpotent real N=64 draw has rank N-1 (ROADMAP item 2)
    for dim in [*range(2, 21), 30, 64]:
        s = generate(dim, 2, field=field, mode=mode)
        want = _report(s)
        for emit, (include_adjoint, include_structure) in EMITS.items():
            back = read_sample(write_sample(s, include_adjoint, include_structure))
            assert _report(back) == want, (dim, emit)
            stored = {"structure": include_structure, "adjoint": include_adjoint}
            assert back.stored == tuple(name for name, on in stored.items() if on)
            # one N^3 array unless the document stores both payloads
            assert np.shares_memory(back.adjoint, back.structure) is (emit != "both")
            assert back.adjoint.flags.c_contiguous
            assert not (back.adjoint.flags.writeable or back.structure.flags.writeable)


@pytest.mark.parametrize("emit", ["structure", "adjoint", "both"])
def test_a_document_with_a_payload_is_never_rebuilt(emit, monkeypatch):
    s = generate(7, 3, field="complex")
    doc = write_sample(s, *EMITS[emit])

    def no_build(*args):
        raise AssertionError("built an adjoint the document stores")

    monkeypatch.setattr(sampler_module, "build_adjoint", no_build)
    back = read_sample(doc)
    assert back.scale == s.scale
    np.testing.assert_array_equal(back.adjoint, s.adjoint)


def test_samples_and_their_parts_compare_and_hash_by_identity():
    doc = write_sample(generate(5, 1), include_adjoint=True, include_structure=True)
    a, b = read_sample(doc), read_sample(doc)
    pairs = [
        (a, b),
        (a.p, b.p),
        (a.null, b.null),
        (cartan_residual(a.adjoint), cartan_residual(b.adjoint)),
        (assemble_system(a.structure[0]), assemble_system(b.structure[0])),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2


def test_read_accepts_utf8_bytes():
    s = generate(3, 4)
    assert read_sample(write_sample(s).encode("utf-8")).seed == 4


@given(
    dim=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    field=st.sampled_from(["real", "complex"]),
    mode=st.sampled_from(["generic", "nilpotent"]),
)
@settings(max_examples=30, deadline=None)
def test_property_write_read_write_is_identity(dim, seed, field, mode):
    text = write_sample(generate(dim, seed, field=field, mode=mode))
    assert write_sample(read_sample(text)) == text


# --- rejection paths ---------------------------------------------------------


def test_unsupported_version_is_its_own_error():
    with pytest.raises(FormatVersionError):
        read_sample(_edited(AFFINE_DOC, format_version="lieforge/9"))
    doc = json.loads(AFFINE_DOC)
    del doc["format_version"]
    with pytest.raises(FormatVersionError):
        read_sample(json.dumps(doc) + "\n")
    assert FORMAT_VERSION == "lieforge/1"


def test_malformed_json_is_rejected():
    with pytest.raises(DocumentIntegrityError):
        read_sample("{not json")
    with pytest.raises(DocumentIntegrityError):
        read_sample("[1,2,3]\n")
    with pytest.raises(DocumentIntegrityError):
        read_sample(b"\xff\xfe\x00")


def test_non_finite_tokens_are_rejected():
    with pytest.raises(DocumentIntegrityError):
        read_sample(AFFINE_DOC.replace('"c":1.0', '"c":NaN'))
    with pytest.raises(DocumentIntegrityError):
        read_sample(AFFINE_DOC.replace('"c":1.0', '"c":Infinity'))


def test_missing_and_unknown_fields_are_rejected():
    doc = json.loads(AFFINE_DOC)
    del doc["null_vector"]
    with pytest.raises(DocumentIntegrityError, match="missing"):
        read_sample(json.dumps(doc) + "\n")
    with pytest.raises(DocumentIntegrityError, match="unknown"):
        read_sample(_edited(AFFINE_DOC, comment="hi"))


@pytest.mark.parametrize(
    "changes",
    [
        {"dim": 1},
        {"dim": True},
        {"dim": "2"},
        {"field": "rational"},
        {"mode": "solvable"},
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 1.5},
        {"attempts": 0},
        {"attempts": True},
        {"rng_id": ""},
        {"tolerances": {"tol_rank": 0.0}},
        _tolerances(x=1),
        {"p_matrix": [0.0, 0.0, 0.0]},
        {"p_matrix": [0.0, 0.0, True, 1.0]},
        {"null_vector": [1.0, "0"]},
        _tolerances(tau_ver=0),
        _tolerances(tau_ver=-1),
        _tolerances(tau_ver=10**400),
        _tolerances(tau_ver=OVERFLOW),
        _tolerances(tol_rank=-1),
        _tolerances(tau_n1=0.0),
        {"p_matrix": [0.0, 0.0, 0.0, 10**400]},
    ],
)
def test_invalid_metadata_is_rejected(changes):
    with pytest.raises(DocumentIntegrityError):
        read_sample(_edited(AFFINE_DOC, **changes))


def test_stored_matrix_invariants_are_revalidated():
    # nonzero first column
    with pytest.raises(DocumentIntegrityError, match="parameter matrix"):
        read_sample(_edited(AFFINE_DOC, p_matrix=[0.5, 0.0, 0.0, 1.0]))
    # null vector no longer unit
    with pytest.raises(DocumentIntegrityError, match="2-norm"):
        read_sample(_edited(AFFINE_DOC, null_vector=[2.0, 0.0]))
    # unit vector that fails to annihilate P
    with pytest.raises(DocumentIntegrityError, match="residual"):
        read_sample(_edited(AFFINE_DOC, null_vector=[0.0, 1.0]))
    # rank defect
    with pytest.raises(DocumentIntegrityError, match="rank"):
        read_sample(_edited(AFFINE_DOC, p_matrix=[0.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_huge_null_vector_is_rejected_without_a_warning(field):
    # squaring entries near 1e308 overflows; the unit-norm test must not
    if field == "real":
        doc = _edited(AFFINE_DOC, null_vector=[1e308, -1.5e308])
    else:
        # |1.3e308 + 1.3e308j| itself is above the largest float
        doc = _edited(write_sample(generate(3, 1, field="complex")),
                      null_vector=[[1.3e308, 1.3e308], [0.0, -1e308], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DocumentIntegrityError, match="2-norm"):
            read_sample(doc)


def test_scale_factor_consistency_is_enforced():
    with pytest.raises(DocumentIntegrityError, match="c is null"):
        read_sample(_edited(AFFINE_DOC, c=None))
    with pytest.raises(DocumentIntegrityError, match="inconsistent"):
        read_sample(_edited(AFFINE_DOC, c=2.0))
    nil = write_sample(generate(3, 1, mode="nilpotent"))
    with pytest.raises(DocumentIntegrityError, match="c is present"):
        read_sample(_edited(nil, c=1.0))


# the sampler tests' examples: affine, Heisenberg, a rank defect, a diagonal
PARITY_MATRICES = {
    "affine": np.array([[0.0, 0.0], [0.0, 1.0]]),
    "heisenberg": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    "zeros": np.zeros((3, 3)),
    "diagonal": np.diag([0.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PARITY_MATRICES)
def test_reader_rejects_exactly_what_the_generator_rejects(name, mode):
    matrix = PARITY_MATRICES[name]
    dim = matrix.shape[0]
    try:
        validate_parameter_matrix(ParameterMatrix(matrix, mode), Tolerances())
        generator_rejects = False
    except (ContractViolation, DegenerateParametersError, NullFirstComponentError):
        generator_rejects = True
    # the stored null vector and c agree with P, so only the generator's rules can fail
    _, n, _ = rank_and_left_null(matrix)
    # a rank defect gives no null vector; e_N annihilates the zero matrix
    n = np.eye(dim)[-1] if n is None else n
    doc = json.loads(AFFINE_DOC)
    del doc["structure_constants"]
    doc.update(
        dim=dim,
        mode=mode,
        p_matrix=matrix.ravel().tolist(),
        null_vector=n.tolist(),
        c=1.0 / n[0] if abs(n[0]) >= Tolerances().tau_n1 else None,
    )
    try:
        read_sample(json.dumps(doc))
        reader_rejects = False
    except DocumentIntegrityError:
        reader_rejects = True
    assert reader_rejects == generator_rejects


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 1, 1, 1.0], [0, 1, 1, 1.0]],  # duplicate
        [[1, 0, 1, 1.0]],  # i >= j
        [[0, 0, 1, 1.0]],  # i == j
        [[0, 1, 2, 1.0]],  # k out of range
        [[0, 1, 1, 0.0]],  # explicit zero
        [[0, 1, 1]],  # wrong arity
        [[0.0, 1, 1, 1.0]],  # float index
        [[False, 1, 1, 1.0]],  # bool index
        "not a list",
        [[0, 1, 1, 10**400]],  # integer beyond double range
        [[0, 1, 1, OVERFLOW]],  # reads as inf
        [[0, 2**70, 1, 1.0]],  # index beyond int64
        [[0, 1, 2**63, 1.0]],  # index just beyond int64
        [[0, 1, -1, 1.0]],  # negative k
        [[0, 1, 1, True]],  # bool value
        [[0, 1, 1, "1.0"]],  # string value
        [[0, 1, 1, None]],  # null value
        [[0, 1, 1, [1.0, 0.0]]],  # [re, im] value in a real document
        [[0, 1, 1, 1.0], [0, 1, 0, 2.0], [0, 1, 1, 1.0]],  # non-adjacent duplicate
    ],
)
def test_bad_sparse_entries_are_rejected(entries):
    with pytest.raises(DocumentIntegrityError):
        read_sample(_edited(AFFINE_DOC, structure_constants=entries))


def _complex_doc_with_value(value):
    doc = json.loads(write_sample(generate(3, 1, field="complex")))
    doc["structure_constants"][0][3] = value
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        1.0,  # bare number
        [1.0],
        [1.0, 0.0, 0.0],
        [True, 0.0],
        [0.0, -0.0],  # explicit zero
    ],
)
def test_bad_complex_sparse_values_are_rejected(value):
    read_sample(_complex_doc_with_value([1.0, -0.0]))
    with pytest.raises(DocumentIntegrityError):
        read_sample(_complex_doc_with_value(value))


@pytest.mark.parametrize("value", [10**20, 2**64 + 1, 10**308])
def test_large_integer_literals_read_as_doubles(value):
    back = read_sample(_edited(AFFINE_DOC, structure_constants=[[0, 1, 1, value]]))
    assert back.structure[0, 1, 1] == float(value)
    assert back.structure[1, 0, 1] == -float(value)


def test_bad_adjoint_payload_is_rejected():
    doc = json.loads(write_sample(generate(3, 8), include_adjoint=True))
    doc["adjoint"] = doc["adjoint"][:2]
    with pytest.raises(DocumentIntegrityError, match="adjoint"):
        read_sample(json.dumps(doc, separators=(",", ":")) + "\n")
    doc = json.loads(write_sample(generate(3, 8), include_adjoint=True))
    doc["adjoint"][1][4] = OVERFLOW
    with pytest.raises(DocumentIntegrityError, match="finite"):
        read_sample(_edited(json.dumps(doc)))


def test_a_structure_tensor_too_large_for_memory_fails_before_it_allocates(monkeypatch):
    dim = 160
    sample = generate(dim, 1)
    doc = json.loads(write_sample(sample, include_structure=False))
    # a short payload, so that parsing the document costs little next to N^3
    doc["structure_constants"] = [
        [0, 1, k, value] for k, value in enumerate(sample.structure[0, 1].tolist()) if value
    ]
    text = json.dumps(doc)
    nbytes = dim**3 * 8
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SystemSizeError, match=f"N={dim} adjoint stack needs"):
            read_sample(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nbytes // 10
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: nbytes)
    np.testing.assert_array_equal(read_sample(text).structure[0, 1], sample.structure[0, 1])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_an_adjoint_payload_is_held_once_while_it_is_read(field):
    """The reader sizes one N^3 stack, so it must not hold two: beyond what
    the parsed JSON holds, reading an adjoint payload peaks near one stack
    (about 1.1 of it at N=40), where stacking parsed slices peaked near two."""
    sample = generate(40, 1, field=field)
    doc = write_sample(sample, include_adjoint=True, include_structure=False)
    extra = _traced_peak(lambda: read_sample(doc)) - _traced_peak(lambda: json.loads(doc))
    assert extra / sample.adjoint.nbytes < 1.5


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_document_with_both_payloads_is_sized_for_two_stacks(
    field, monkeypatch, tmp_path, capsys
):
    """Each payload is parsed into a stack of its own, so under room for 1.5
    stacks an --emit both document is refused, exit 65 from verify, while the
    same sample's structure document, one stack, still reads."""
    from lieforge.cli import main

    sample = generate(60, 1, field=field)
    both = write_sample(sample, include_adjoint=True, include_structure=True)
    stack = 60**3 * (16 if field == "complex" else 8)
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: stack * 3 // 2)
    # the document's own length bound would refuse it first; this is the stacks'
    monkeypatch.setattr(serialize_module, "_READ_BYTES_PER_BYTE", 0)
    with pytest.raises(SystemSizeError, match="holding 2 N=60 stacks needs"):
        read_sample(both)
    path = tmp_path / "both.json"
    path.write_text(both, encoding="utf-8")
    assert main(["verify", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("lieforge verify: holding 2 N=60 stacks needs") and err.count("\n") == 1
    assert read_sample(write_sample(sample)).stored == ("structure",)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("payload", ["structure", "adjoint"])
def test_the_stack_is_sized_before_the_parameter_matrix_is_decoded(
    payload, field, monkeypatch, tmp_path, capsys
):
    """Every sample holds an N^3 adjoint, stored or rebuilt, so a document
    too large for memory fails on dim and field alone, before P is validated
    or a stored adjoint payload is stacked."""
    from lieforge.cli import main

    def no_validation(*args, **kwargs):
        raise AssertionError("validated P before sizing the adjoint stack")

    doc = write_sample(
        generate(12, 2, field=field),
        include_adjoint=payload == "adjoint",
        include_structure=payload == "structure",
    )
    mib = 12**3 * (16 if field == "complex" else 8) / 2**20
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: 0)
    monkeypatch.setattr(serialize_module, "_READ_BYTES_PER_BYTE", 0)
    monkeypatch.setattr(serialize_module, "validate_parameter_matrix", no_validation)
    with pytest.raises(SystemSizeError, match=f"the N=12 adjoint stack needs {mib:.0f} MiB"):
        read_sample(doc)
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["verify", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("lieforge verify: the N=12 adjoint stack needs") and err.count("\n") == 1


def test_a_document_too_long_to_parse_fails_before_json_loads(monkeypatch, tmp_path, capsys):
    """A structure document passes the stack bound with room to spare, but
    its parse holds _READ_BYTES_PER_BYTE bytes per document byte, so with
    less room than that it is refused before json.loads builds any list, as
    text and as bytes (exit 65 from verify). Memory is read once for both
    bounds."""
    from lieforge.cli import main

    doc = write_sample(generate(20, 1))
    need = len(doc) * serialize_module._READ_BYTES_PER_BYTE
    assert 20**3 * 8 < need - 1
    reads = []

    def available(room):
        reads.append(room)
        return room

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed a document too long for memory")

    monkeypatch.setattr(sampler_module, "_available_memory", lambda: available(need - 1))
    monkeypatch.setattr(serialize_module.json, "loads", no_parse)
    with pytest.raises(SystemSizeError, match="reading a 0 MiB document needs"):
        read_sample(doc)
    assert len(reads) == 1
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("lieforge verify: reading a 0 MiB document needs")
    # with room for the parse, the same document reads, on one read of memory
    monkeypatch.undo()
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: available(need))
    reads.clear()
    assert read_sample(doc).dim == 20 and reads == [need]


# --- per-entry reference codec -----------------------------------------------
# The element-at-a-time encoder and decoder that the array codec replaced. The
# array codec must give the same bytes and the same bits; round trips alone
# would not notice a self-consistent change of encoding.


def _ref_leaf(value, complex_field):
    if complex_field:
        c = complex(value)
        return [c.real, c.imag]
    return float(value)


def _ref_write(sample, include_adjoint, include_structure):
    cx = sample.field == "complex"

    def leaves(arr):
        return [_ref_leaf(v, cx) for v in np.ascontiguousarray(arr).reshape(-1)]

    dim, f, c = sample.dim, sample.structure, sample.null.scale_factor
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": dim,
        "field": sample.field,
        "mode": sample.mode,
        "seed": sample.seed,
        "rng_id": sample.rng_id,
        "attempts": sample.attempts,
        "tolerances": sample.tolerances.as_dict(),
        "p_matrix": leaves(sample.p.matrix),
        "null_vector": leaves(sample.null.vector),
        "c": None if c is None else _ref_leaf(c, cx),
    }
    if include_adjoint:
        doc["adjoint"] = [leaves(sample.adjoint[k]) for k in range(dim)]
    if include_structure:
        doc["structure_constants"] = [
            [i, j, k, _ref_leaf(f[i, j, k], cx)]
            for i in range(dim)
            for j in range(i + 1, dim)
            for k in range(dim)
            if f[i, j, k] != 0
        ]
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"


def _ref_read(text):
    """Payload arrays and c of a document, decoded one entry at a time."""
    doc = json.loads(text)
    dim, cx = doc["dim"], doc["field"] == "complex"
    dtype = np.complex128 if cx else np.float64

    def number(x):
        assert not isinstance(x, bool) and isinstance(x, (int, float))
        return float(x)

    def leaf(item):
        if cx:
            assert isinstance(item, list) and len(item) == 2
            return complex(number(item[0]), number(item[1]))
        return number(item)

    def values(seq, shape):
        out = np.empty(len(seq), dtype=dtype)
        for pos, item in enumerate(seq):
            out[pos] = leaf(item)
        return out.reshape(shape)

    arrays = {"p": values(doc["p_matrix"], (dim, dim)), "null": values(doc["null_vector"], (dim,))}
    if "adjoint" in doc:
        arrays["adjoint"] = np.stack([values(m, (dim, dim)) for m in doc["adjoint"]])
    if "structure_constants" in doc:
        dense = np.zeros((dim, dim, dim), dtype=dtype)
        for i, j, k, item in doc["structure_constants"]:
            dense[i, j, k] = leaf(item)
            dense[j, i, k] = -leaf(item)
        arrays["structure"] = dense
    return arrays, None if doc["c"] is None else leaf(doc["c"])


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.dtype, arr.shape, arr.tobytes()


def _assert_codec_matches_reference(sample):
    for include_adjoint, include_structure in itertools.product((False, True), repeat=2):
        text = write_sample(sample, include_adjoint, include_structure)
        assert text == _ref_write(sample, include_adjoint, include_structure)
        back = read_sample(text)
        ref, c = _ref_read(text)
        assert _bits(back.p.matrix) == _bits(ref["p"])
        assert _bits(back.null.vector) == _bits(ref["null"])
        for name in ("adjoint", "structure"):
            if name in ref:
                assert _bits(getattr(back, name)) == _bits(ref[name])
        assert type(back.null.scale_factor) is type(c)
        assert back.null.scale_factor == c


def _perturbed(s):
    """s with payloads that no longer match (P, n): signed zeros, a subnormal, 1e20."""
    adjoint = s.adjoint.copy()
    structure = np.array(s.structure)
    adjoint[1, 0, 2] = 1e20
    adjoint[2, 3, 1] = -0.0
    structure[0, 1, 2] *= 1 + 2**-52
    structure[0, 2, 0] = 5e-324
    structure[1, 2, 3] = -structure[1, 2, 3]
    if s.field == "complex":
        structure[0, 3, 1] = complex(1.0, -0.0)
        structure[1, 3, 0] = complex(-0.0, 2.0)
    return assemble_sample(
        s.p,
        s.null,
        seed=s.seed,
        attempts=s.attempts,
        tolerances=s.tolerances,
        adjoint=adjoint,
        structure=structure,
    )


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("mode", ["generic", "nilpotent"])
def test_codec_matches_per_entry_reference(field, mode):
    for dim in range(2, 13):
        s = generate(dim, 1000 + dim, field=field, mode=mode)
        _assert_codec_matches_reference(s)
        if dim == 7:
            _assert_codec_matches_reference(_perturbed(s))
