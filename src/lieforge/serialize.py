"""Canonical lieforge/1 document codec.

A document is one newline-terminated UTF-8 JSON object whose keys follow
_KEY_ORDER. Every payload is an array: p_matrix and each adjoint matrix flat
row-major, null_vector, the scalar c, and the structure constants stored
sparsely as [i, j, k, value] for each nonzero entry with i < j, in index
order (f[j, i, k] = -value is implied). A complex document gives every
number as an [re, im] pair, the array's trailing axis of two doubles.
Floats are written as the shortest decimal that round-trips, so a sample
always encodes to the same bytes.

_leaves writes any array and _numbers reads any array; each decides real
versus complex once and checks a payload as a whole. Anything that is not a
well-formed document, the numeric rules in README's "Document format"
included, raises DocumentIntegrityError.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateParametersError,
    DocumentIntegrityError,
    FormatVersionError,
    NullFirstComponentError,
)
from . import sampler
from .linalg import inf_norm, null_residual_tol
from .sampler import (
    _DTYPES,
    FIELDS,
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    _check_fits,
    _check_stack_fits,
    assemble_sample,
    validate_parameter_matrix,
)

__all__ = ["FORMAT_VERSION", "write_sample", "read_sample"]

FORMAT_VERSION = "lieforge/1"

_KEY_ORDER = (
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
)

# stored null vectors must still look like unit vectors after a decimal
# round-trip; fresh ones are unit to ~4 eps
_UNIT_NORM_SLOP = 1e-12

# read_sample holds at most this many bytes per byte of its document: the
# bytes and their decoded text, the parsed JSON, the decoded arrays and the
# stack. Measured reading from bytes, seed 1, N = 60 / 100 / 200, the growth
# of peak RSS over the document's length (tracemalloc peak in brackets):
#   structure  real 10.7 / 10.1 / 9.5 (9.2 / 9.2 / 8.8)
#              complex 9.8 / 8.9 / 8.4 (8.0 / 8.0 / 7.8)
#   adjoint    real 5.0 / 5.2 / 4.3 (3.0 / 3.0 / 3.0)
#              complex 5.6 / 5.4 / 5.3 (4.8 / 4.8 / 4.7)
#   both       real 6.6 / 6.3 / 6.1 (5.7 / 5.7 / 5.6)
#              complex 7.0 / 6.7 / not run (6.0 / 6.0 / not run)
# The payloads are not known before the parse, so one factor covers the
# largest, and an adjoint or both document is refused at about twice its
# need; a payload-free document's parse is O(N^2), and its stack is sized
# once dim is read
_READ_BYTES_PER_BYTE = 11

# `lieforge generate` peaks at this many N^3 stacks of the field's dtype per
# --emit: the stack, the payload's Python lists and its JSON text. Measured
# in fresh children, seed 1, N = 100 / 150 / 200, the growth of peak RSS
# over the --emit none run, in stacks:
#   structure  real 13.4 / 13.5 / 13.7, complex 12.8 / 12.9 / 12.5
#   adjoint    real 11.2 / 11.1 / 11.2, complex 15.9 / 15.9 / 15.9
#   both       real 24.1 / 24.3 / 24.4, complex 28.3 / 28.5 / 28.1
# and a real structure run at N = 320 peaks at 15.1, its indices above 256
# being ints of their own. Each factor is the largest, rounded up, with one
# stack to spare
_WRITE_STACKS = {"structure": 16, "adjoint": 17, "both": 30}


def _leaves(arr) -> list:
    """JSON leaves of an array, flattened row-major; complex values as [re, im]."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.dtype.kind == "c":
        return flat.view(np.float64).reshape(-1, 2).tolist()
    return flat.tolist()


def _sparse_structure(structure: np.ndarray) -> list:
    rows, cols = np.triu_indices(structure.shape[0], k=1)
    half = structure[rows, cols]
    pair, k = np.nonzero(half)
    columns = (rows[pair].tolist(), cols[pair].tolist(), k.tolist(), _leaves(half[pair, k]))
    return [list(entry) for entry in zip(*columns)]


def write_sample(
    sample: LieAlgebraSample,
    include_adjoint: bool = False,
    include_structure: bool = True,
) -> str:
    """Encode a sample as a canonical lieforge/1 document string."""
    c = sample.null.scale_factor
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "dim": sample.dim,
        "field": sample.field,
        "mode": sample.mode,
        "seed": int(sample.seed),
        "rng_id": sample.rng_id,
        "attempts": int(sample.attempts),
        "tolerances": sample.tolerances.as_dict(),
        "p_matrix": _leaves(sample.p.matrix),
        "null_vector": _leaves(sample.null.vector),
        "c": None if c is None else _leaves(c)[0],
    }
    if include_adjoint:
        doc["adjoint"] = [_leaves(a) for a in sample.adjoint]
    if include_structure:
        doc["structure_constants"] = _sparse_structure(sample.structure)
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"


def _fail(message: str) -> DocumentIntegrityError:
    return DocumentIntegrityError(message)


def _numbers(seq, shape: tuple, complex_field: bool, where: str) -> np.ndarray:
    """Decode a flat list of JSON leaves into a float64 or complex128 array.

    Leaves must be int or float literals (not bools), or [re, im] pairs of
    them in a complex document, and must fit a finite double.
    """
    count = math.prod(shape)
    if not isinstance(seq, list) or len(seq) != count:
        raise _fail(f"{where}: expected a list of {count} values")
    if complex_field:
        if not (set(map(type, seq)) <= {list} and set(map(len, seq)) <= {2}):
            raise _fail(f"{where}: complex leaves must be [re, im] pairs")
        leaves, dtype = list(chain.from_iterable(seq)), np.complex128
    else:
        leaves, dtype = seq, np.float64
    kinds = set(map(type, leaves))
    if not kinds <= {int, float}:
        name = min(k.__name__ for k in kinds - {int, float})
        raise _fail(f"{where}: expected numbers, got {name}")
    try:
        # integer literals convert as float() does, whatever the numpy version
        arr = np.array([float(x) for x in leaves] if int in kinds else leaves, dtype=np.float64)
    except OverflowError:
        raise _fail(f"{where}: integer too large for a double") from None
    # literals such as 1e400 parse to inf without a NaN/Infinity token
    if not np.isfinite(arr).all():
        raise _fail(f"{where}: values must be finite")
    return arr.view(dtype).reshape(shape)


def _parse_structure(entries, dim: int, complex_field: bool) -> np.ndarray:
    where = "structure_constants"
    if not isinstance(entries, list):
        raise _fail(f"{where} must be a list")
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {4}):
        raise _fail(f"{where}: every entry must be [i, j, k, value]")
    columns = list(zip(*entries)) or [()] * 4
    index = columns[0] + columns[1] + columns[2]
    if not set(map(type, index)) <= {int}:
        raise _fail(f"{where}: indices must be integers")
    # bounds are checked on python ints, so no literal can overflow int64
    if index and not (min(index) >= 0 and max(index) < dim):
        raise _fail(f"{where}: an index lies outside 0 <= index < dim = {dim}")
    i, j, k = np.array(columns[:3], dtype=np.int64).reshape(3, -1)
    values = _numbers(list(columns[3]), (len(entries),), complex_field, where)
    repeat = np.ones(len(entries), dtype=bool)
    repeat[np.unique((i * dim + j) * dim + k, return_index=True)[1]] = False
    for bad, message in (
        (i >= j, "indices violate i < j"),
        (repeat, "duplicate entry"),
        (values == 0, "explicit zero entries are not permitted"),
    ):
        if bad.any():
            raise _fail(f"{where}[{int(np.argmax(bad))}]: {message}")
    # adjoint layout, adj[i, k, j] = f[i, j, k]: the sample's adjoint is adj itself
    adj = np.zeros((dim, dim, dim), dtype=values.dtype)
    adj[i, k, j] = values
    adj[j, k, i] = -values
    return adj.transpose(0, 2, 1)


def read_sample(source: str | bytes) -> LieAlgebraSample:
    """Decode a lieforge/1 document and revalidate its invariants.

    The parameter matrix passes the generator's validate_parameter_matrix,
    so the reader accepts exactly the matrices generate accepts; the stored
    null_vector and c are then checked against that verdict.

    A structure payload is parsed in adjoint layout, and without an adjoint
    payload it is the sample's one N^3 array, so every check reads what the
    document stored; only a document with no payload has its adjoint built
    from (P, n), on first use.
    A document longer than _available_memory() / _READ_BYTES_PER_BYTE bytes
    raises SystemSizeError before it is parsed. A parsed one is sized for one
    N^3 stack per payload, and at least one; one that would not fit raises
    SystemSizeError as soon as dim and field are read, before P is decoded or
    any payload is stacked.
    """
    # one read serves both bounds: the parse, sized before json.loads builds
    # the document's lists, and the stack, once dim and field are known
    available = sampler._available_memory()
    _check_fits(
        len(source) * _READ_BYTES_PER_BYTE,
        f"reading a {len(source) / 2**20:.0f} MiB document",
        available,
    )
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as err:
            raise _fail(f"document is not valid UTF-8: {err}") from err

    def reject_constant(token: str):
        raise ValueError(f"non-finite number token {token!r}")

    try:
        data = json.loads(source, parse_constant=reject_constant)
    except ValueError as err:
        raise _fail(f"document is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise _fail("document root must be an object")

    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported format version {version!r}; this reader handles {FORMAT_VERSION!r}"
        )
    missing = [k for k in _KEY_ORDER[:11] if k not in data]
    if missing:
        raise _fail(f"missing required fields: {', '.join(missing)}")
    unknown = [k for k in data if k not in _KEY_ORDER]
    if unknown:
        raise _fail(f"unknown fields: {', '.join(sorted(unknown))}")

    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise _fail(f"dim must be an integer >= 2, got {dim!r}")
    field = data["field"]
    if field not in FIELDS:
        raise _fail(f"field must be one of {FIELDS}, got {field!r}")
    # every check reads an N^3 stack, parsed or built, and each payload is
    # parsed into a stack of its own, so they are sized before P is decoded
    # and validated or any payload is stacked
    cx = field == "complex"
    payloads = ("adjoint" in data) + ("structure_constants" in data)
    _check_stack_fits(dim, _DTYPES[field], max(1, payloads), available)
    seed = data["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise _fail(f"seed must be a uint64, got {seed!r}")
    rng_id = data["rng_id"]
    if not isinstance(rng_id, str) or not rng_id:
        raise _fail("rng_id must be a nonempty string")
    attempts = data["attempts"]
    if isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1:
        raise _fail(f"attempts must be a positive integer, got {attempts!r}")
    tol_rec = data["tolerances"]
    names = ("tol_rank", "tau_n1", "tau_ver")
    if not isinstance(tol_rec, dict) or set(tol_rec) != set(names):
        raise _fail("tolerances must hold exactly tol_rank, tau_n1, tau_ver")
    tol_values = _numbers([tol_rec[name] for name in names], (3,), False, "tolerances")
    try:
        tolerances = Tolerances(*tol_values.tolist())
    except ContractViolation as err:
        raise _fail(str(err)) from err

    p = _numbers(data["p_matrix"], (dim, dim), cx, "p_matrix")
    try:
        pm = ParameterMatrix(matrix=p, mode=data["mode"])
        fresh = validate_parameter_matrix(pm, tolerances)
    except (ContractViolation, DegenerateParametersError, NullFirstComponentError) as err:
        raise _fail(f"stored parameter matrix is invalid: {err}") from err

    nvec = _numbers(data["null_vector"], (dim,), cx, "null_vector")
    # entries near 1e308 overflow the squares to inf, which the test rejects
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(nvec))
    if abs(norm - 1.0) > _UNIT_NORM_SLOP:
        raise _fail(f"null_vector 2-norm {norm!r} is not 1 within {_UNIT_NORM_SLOP}")
    residual = inf_norm(nvec @ pm.matrix)
    bound = null_residual_tol(pm.matrix)
    if residual > bound:
        raise _fail(f"null_vector residual {residual:.3e} exceeds the residual band {bound:.3e}")

    c = data["c"]
    if c is not None:
        c = _numbers([c], (), cx, "c").item()
    if c is None and fresh.scale_factor is not None:
        raise _fail("c is null although |n{1}| is above tau_n1")
    if c is not None and fresh.scale_factor is None:
        raise _fail("c is present although |n{1}| is below tau_n1")
    if c is not None and abs(c * nvec[0] - 1.0) > 1e-8:
        raise _fail("stored c is inconsistent with 1/n{1}")

    null = NullData(vector=nvec, scale_factor=c, smallest_retained_sv=fresh.smallest_retained_sv)

    adjoint = None
    if "adjoint" in data:
        raw = data["adjoint"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise _fail(f"adjoint must be a list of {dim} matrices")
        # filled slice by slice, so this payload holds one stack, as sized above
        adjoint = np.empty((dim, dim, dim), _DTYPES[field])
        for k, a in enumerate(raw):
            adjoint[k] = _numbers(a, (dim, dim), cx, f"adjoint[{k}]")
    structure = None
    if "structure_constants" in data:
        structure = _parse_structure(data["structure_constants"], dim, cx)

    return assemble_sample(
        pm,
        null,
        seed=seed,
        rng_id=rng_id,
        attempts=attempts,
        tolerances=tolerances,
        adjoint=adjoint,
        structure=structure,
    )
