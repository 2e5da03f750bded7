"""Canonical lieforge/1 document codec.

A document is one newline-terminated UTF-8 JSON object whose keys follow
_KEY_ORDER. Every payload is an array: p_matrix and each adjoint matrix flat
row-major, null_vector, the scalar c, and the structure constants stored
sparsely as [i, j, k, value] for each nonzero entry with i < j, in index
order (f[j, i, k] = -value is implied). A complex document gives every
number as an [re, im] pair, the array's trailing axis of two doubles.
Floats are written as the shortest decimal that round-trips, so a sample
always encodes to the same bytes.

The writer streams: _document_parts gives the head (P, n and c included)
through json.dumps and formats each payload straight to text, repr of each
float being the text json.dumps writes, a block of adjoint matrices at a
time, stored or built from (P, n), so no N^3 stack is built for it.
write_sample joins the parts and `lieforge generate` writes them as they
come. _numbers reads any array; it decides real versus complex once and
checks a payload as a whole. Anything that is not a well-formed document,
the numeric rules in README's "Document format" included, raises
DocumentIntegrityError.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
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
from .linalg import _row_chunks, inf_norm, null_residual_tol
from .sampler import (
    _DTYPES,
    FIELDS,
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    _check_fits,
    _check_stack_fits,
    adjoint_to_structure,
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

# write_sample holds at most this many bytes per double its payloads hold
# (an adjoint entry, or the value of a structure entry [i, j, k, value], one
# double real and two complex): the document's text twice, as its parts and
# as the string they join to. Measured as the growth of peak RSS over an
# in-process write_sample of a fresh sample, in a fresh process, seed 1,
# N = 100 / 150 / 200, over the payloads' largest number of doubles:
#   structure  real 66.0 / 66.3 / 67.2, complex 56.8 / 56.5 / 56.3
#   adjoint    real 42.0 / 42.1 / 41.9, complex 45.2 / 43.7 / 43.7
#   both       real 49.6 / 49.9 / 50.2, complex 48.2 / 47.7 / 47.7
# The largest rounded up, with room for the four-digit indices of N >= 1000,
# three more bytes an entry in each copy
_WRITE_BYTES_PER_DOUBLE = 80

# values per piece of a payload's text, and per block of adjoint matrices the
# pieces are formatted from (at least one matrix): a piece's Python strings
# take about 200 bytes a value, so a write works in about 0.2 MB of text
# besides its block
_TEXT_CHUNK = 1 << 10


def _leaves(arr) -> list:
    """JSON leaves of an array, flattened row-major; complex values as [re, im]."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.dtype.kind == "c":
        return flat.view(np.float64).reshape(-1, 2).tolist()
    return flat.tolist()


def _texts(values: np.ndarray) -> list[str]:
    """The JSON text of each value of a flat array; a complex one as [re, im].

    repr of a Python float is the text json.dumps writes for it, so the
    payloads keep the bytes the encoder would give them.
    """
    if values.dtype.kind == "c":
        return [f"[{re!r},{im!r}]" for re, im in zip(values.real.tolist(), values.imag.tolist())]
    return list(map(repr, values.tolist()))


def _upper(block: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """f[i - start, j, k] = A_i{k, j} for a block of adjoint matrices i = start,
    start + 1, ..., and the mask of its (i, j) with i < j, the half the
    structure payload writes."""
    f = block.transpose(0, 2, 1)
    count, dim = f.shape[:2]
    return f, np.arange(dim) > np.arange(start, start + count)[:, None]


def _adjoint_pieces(block: np.ndarray, start: int) -> Iterator[str]:
    """The adjoint payload's text for a block of adjoint matrices, each a flat
    row-major list, in pieces of at most _TEXT_CHUNK values to be joined by ","."""
    for matrix in block:
        flat = matrix.reshape(-1)
        for lo in range(0, flat.size, _TEXT_CHUNK):
            text = ",".join(_texts(flat[lo : lo + _TEXT_CHUNK]))
            opens, closes = lo == 0, lo + _TEXT_CHUNK >= flat.size
            yield "[" * opens + text + "]" * closes


def _structure_pieces(block: np.ndarray, start: int) -> Iterator[str]:
    """The structure payload's entries [i, j, k, f[i, j, k]] with i < j and a
    nonzero value, in index order, for a block of adjoint matrices, in pieces
    of at most _TEXT_CHUNK entries to be joined by ","."""
    f, upper = _upper(block, start)
    i, j, k = np.nonzero((f != 0) & upper[:, :, None])
    for lo in range(0, i.size, _TEXT_CHUNK):
        at = slice(lo, lo + _TEXT_CHUNK)
        leaves = _texts(f[i[at], j[at], k[at]])
        columns = ((i[at] + start).tolist(), j[at].tolist(), k[at].tolist(), leaves)
        yield ",".join([f"[{a},{b},{c},{x}]" for a, b, c, x in zip(*columns)])


def _structure_values(block: np.ndarray, start: int) -> np.ndarray:
    """The values of a block of adjoint matrices that the structure payload may write."""
    f, upper = _upper(block, start)
    return f[upper]


# each payload's key: its pieces of text and the values they may write
_PAYLOADS = {
    "adjoint": (_adjoint_pieces, lambda block, start: block),
    "structure_constants": (_structure_pieces, _structure_values),
}


def _payload_blocks(sample: LieAlgebraSample, stack: np.ndarray | None):
    """(start, block) for each block of adjoint matrices of a stored adjoint-layout
    stack, or, with none, built from (P, n) by _adjoint_block with the build's
    bits: as many matrices as fit in _TEXT_CHUNK entries, and at least one."""
    p, n = sample.p.matrix, sample.null.vector
    for rows in _row_chunks(sample.dim, sample.dim**2, _TEXT_CHUNK):
        yield rows.start, (sampler._adjoint_block(p, n, rows) if stack is None else stack[rows])


def _finite(sample: LieAlgebraSample, key: str, stack: np.ndarray | None) -> bool:
    """Whether every value the key's payload writes is finite."""
    # scale is the largest modulus built from (P, n), NaN included, so a finite
    # one bounds every value; an infinite one may be a complex modulus that
    # overflows over finite parts, so that case reads every block
    if stack is None and math.isfinite(sample.scale):
        return True
    values = _PAYLOADS[key][1]
    return all(np.isfinite(values(b, start)).all() for start, b in _payload_blocks(sample, stack))


def _document_parts(
    sample: LieAlgebraSample,
    include_adjoint: bool = False,
    include_structure: bool = True,
) -> Iterator[str]:
    """The canonical lieforge/1 document of a sample, as parts of its text.

    The head, P, n and c included, goes through json.dumps; each payload is
    formatted one _payload_blocks block of adjoint matrices at a time, in
    parts of at most _TEXT_CHUNK values, so no N^3 stack is built. A payload comes
    from the array the sample stores for it (the other stored payload's,
    transposed, if only that one is stored), else from (P, n). A payload
    that holds NaN or infinity raises ValueError, as json.dumps with
    allow_nan=False does, when this is called, before any part is made.
    """
    adjoint = sample.stored_adjoint
    structure = sample.stored_structure
    if structure is not None:
        structure = adjoint_to_structure(structure)  # its own inverse: adjoint layout
    payloads = []
    if include_adjoint:
        payloads.append(("adjoint", structure if adjoint is None else adjoint))
    if include_structure:
        payloads.append(("structure_constants", adjoint if structure is None else structure))
    for key, stack in payloads:
        if not _finite(sample, key, stack):
            raise ValueError(f"the {key} payload holds NaN or infinity, which JSON cannot write")
    c = sample.null.scale_factor
    head = {
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
    head_text = json.dumps(head, allow_nan=False, separators=(",", ":"))

    def parts():
        yield head_text[:-1]  # the object stays open for the payloads
        for key, stack in payloads:
            yield f',"{key}":['
            sep = ""
            for start, block in _payload_blocks(sample, stack):
                for piece in _PAYLOADS[key][0](block, start):
                    yield sep
                    yield piece
                    sep = ","
            yield "]"
        yield "}\n"

    return parts()


def write_sample(
    sample: LieAlgebraSample,
    include_adjoint: bool = False,
    include_structure: bool = True,
) -> str:
    """Encode a sample as a canonical lieforge/1 document string.

    The string is the join of _document_parts. Before any part is made, it
    raises SystemSizeError when the string, sized at _WRITE_BYTES_PER_DOUBLE
    bytes per double of its payloads (the structure payload counted at its
    largest, every i < j entry nonzero), would not fit in available memory,
    and ValueError when a payload holds NaN or infinity.
    """
    dim = sample.dim
    entries = include_adjoint * dim**3 + include_structure * dim**2 * (dim - 1) // 2
    if entries:
        doubles = entries * (_DTYPES[sample.field].itemsize // 8)
        _check_fits(doubles * _WRITE_BYTES_PER_DOUBLE, f"writing the N={dim} document")
    return "".join(_document_parts(sample, include_adjoint, include_structure))


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
