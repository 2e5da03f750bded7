"""Canonical lieforge/1 document encoding.

One sample per UTF-8 JSON document, newline-terminated, with a fixed key
order (format_version, dim, field, mode, seed, rng_id, attempts, tolerances,
p_matrix, null_vector, c, adjoint, structure_constants). Floats serialize as
the shortest decimal string that round-trips to the exact double, so writing
the same sample twice yields byte-identical output; NaN/Infinity, and any
number outside the finite double range, are rejected in both directions. In
complex-field documents every numeric leaf is a two-element [re, im] array.

p_matrix and null_vector are flat row-major sequences. The adjoint, when
requested, is a list of N flat row-major matrices. Structure constants are
stored sparsely as [i, j, k, value] with zero-based indices, only the i < j
canonical half, and no explicit zeros; the antisymmetric partner is implied.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DocumentIntegrityError, FormatVersionError, ContractViolation
from .linalg import inf_norm, null_residual_tol, rank_and_left_null
from .sampler import (
    FIELDS,
    MODES,
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    assemble_sample,
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


def _flat_values(arr: np.ndarray, complex_field: bool) -> list:
    flat = np.ascontiguousarray(arr).reshape(-1)
    if complex_field:
        return np.stack([flat.real, flat.imag], axis=-1).tolist()
    return flat.tolist()


def _scalar_value(value, complex_field: bool):
    if value is None:
        return None
    if complex_field:
        c = complex(value)
        return [c.real, c.imag]
    return float(value)


def _sparse_structure(structure: np.ndarray, complex_field: bool) -> list:
    dim = structure.shape[0]
    rows, cols = np.triu_indices(dim, k=1)
    entries = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        for k in range(dim):
            v = structure[i, j, k]
            if v != 0:
                entries.append([i, j, k, _scalar_value(v, complex_field)])
    return entries


def write_sample(
    sample: LieAlgebraSample,
    include_adjoint: bool = False,
    include_structure: bool = True,
) -> str:
    """Encode a sample as a canonical lieforge/1 document string."""
    cx = sample.field == "complex"
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "dim": sample.dim,
        "field": sample.field,
        "mode": sample.mode,
        "seed": int(sample.seed),
        "rng_id": sample.rng_id,
        "attempts": int(sample.attempts),
        "tolerances": sample.tolerances.as_dict(),
        "p_matrix": _flat_values(sample.p.matrix, cx),
        "null_vector": _flat_values(sample.null.vector, cx),
        "c": _scalar_value(sample.null.scale_factor, cx),
    }
    if include_adjoint:
        doc["adjoint"] = [_flat_values(sample.adjoint[k], cx) for k in range(sample.dim)]
    if include_structure:
        doc["structure_constants"] = _sparse_structure(sample.structure, cx)
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"


def _fail(message: str) -> DocumentIntegrityError:
    return DocumentIntegrityError(message)


def _require_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise _fail(f"{where}: expected a number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise _fail(f"{where}: integer too large for a double") from None


def _finite(arr: np.ndarray, where: str) -> np.ndarray:
    # literals such as 1e400 parse to inf without a NaN/Infinity token
    if not np.isfinite(arr).all():
        raise _fail(f"{where}: values must be finite")
    return arr


def _parse_leaf(item, complex_field: bool, where: str):
    if not complex_field:
        return _require_number(item, where)
    if not isinstance(item, list) or len(item) != 2:
        raise _fail(f"{where}: complex leaves must be [re, im] pairs")
    return complex(
        _require_number(item[0], f"{where}[0]"), _require_number(item[1], f"{where}[1]")
    )


def _parse_values(seq, count: int, complex_field: bool, where: str) -> np.ndarray:
    if not isinstance(seq, list) or len(seq) != count:
        raise _fail(f"{where}: expected a list of {count} values")
    out = np.empty(count, dtype=np.complex128 if complex_field else np.float64)
    for pos, item in enumerate(seq):
        out[pos] = _parse_leaf(item, complex_field, f"{where}[{pos}]")
    return _finite(out, where)


def _parse_structure(entries, dim: int, complex_field: bool) -> np.ndarray:
    if not isinstance(entries, list):
        raise _fail("structure_constants must be a list")
    dtype = np.complex128 if complex_field else np.float64
    dense = np.zeros((dim, dim, dim), dtype=dtype)
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"structure_constants[{pos}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise _fail(f"{where}: expected [i, j, k, value]")
        i, j, k = entry[:3]
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise _fail(f"{where}: index {name} must be an integer")
        if not (0 <= i < j < dim and 0 <= k < dim):
            raise _fail(f"{where}: indices ({i}, {j}, {k}) violate 0 <= i < j < dim")
        if (i, j, k) in seen:
            raise _fail(f"{where}: duplicate entry for ({i}, {j}, {k})")
        seen.add((i, j, k))
        value = _parse_leaf(entry[3], complex_field, f"{where}[3]")
        if value == 0:
            raise _fail(f"{where}: explicit zero entries are not permitted")
        dense[i, j, k] = value
        dense[j, i, k] = -value
    return _finite(dense, "structure_constants")


def read_sample(source: str | bytes) -> LieAlgebraSample:
    """Decode a lieforge/1 document and revalidate its invariants.

    Absent adjoint/structure fields are rebuilt from p_matrix and
    null_vector through the same code path the generator uses, so a
    rebuilt sample is bitwise identical to the one that was written.
    """
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
    mode = data["mode"]
    if mode not in MODES:
        raise _fail(f"mode must be one of {MODES}, got {mode!r}")
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
    if not isinstance(tol_rec, dict) or set(tol_rec) != {"tol_rank", "tau_n1", "tau_ver"}:
        raise _fail("tolerances must hold exactly tol_rank, tau_n1, tau_ver")
    try:
        tolerances = Tolerances(
            tol_rank=_require_number(tol_rec["tol_rank"], "tolerances.tol_rank"),
            tau_n1=_require_number(tol_rec["tau_n1"], "tolerances.tau_n1"),
            tau_ver=_require_number(tol_rec["tau_ver"], "tolerances.tau_ver"),
        )
    except ContractViolation as err:
        raise _fail(str(err)) from err

    cx = field == "complex"
    p_flat = _parse_values(data["p_matrix"], dim * dim, cx, "p_matrix")
    try:
        pm = ParameterMatrix(matrix=p_flat.reshape(dim, dim), mode=mode)
    except ContractViolation as err:
        raise _fail(f"stored parameter matrix is invalid: {err}") from err

    nvec = _parse_values(data["null_vector"], dim, cx, "null_vector")
    norm = float(np.linalg.norm(nvec))
    if abs(norm - 1.0) > _UNIT_NORM_SLOP:
        raise _fail(f"null_vector 2-norm {norm!r} is not 1 within {_UNIT_NORM_SLOP}")
    residual = inf_norm(nvec @ pm.matrix)
    bound = null_residual_tol(pm.matrix)
    if residual > bound:
        raise _fail(
            f"null_vector residual {residual:.3e} exceeds the residual band {bound:.3e}"
        )

    rank, _, svals = rank_and_left_null(
        pm.matrix, tolerances.tol_rank, return_singular_values=True
    )
    if rank != dim - 1:
        raise _fail(f"stored parameter matrix has rank {rank}, expected {dim - 1}")

    c_raw = data["c"]
    c = None
    if c_raw is not None:
        c_val = _parse_values([c_raw], 1, cx, "c")[0]
        c = complex(c_val) if cx else float(c_val.real)
    usable = abs(nvec[0]) >= tolerances.tau_n1
    if usable and c is None:
        raise _fail("c is null although |n{1}| is above tau_n1")
    if not usable and c is not None:
        raise _fail("c is present although |n{1}| is below tau_n1")
    if c is not None and abs(c * nvec[0] - 1.0) > 1e-8:
        raise _fail("stored c is inconsistent with 1/n{1}")

    null = NullData(
        vector=nvec,
        scale_factor=c,
        smallest_retained_sv=float(svals[rank - 1]),
    )

    adjoint = None
    if "adjoint" in data:
        raw = data["adjoint"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise _fail(f"adjoint must be a list of {dim} matrices")
        adjoint = np.empty((dim, dim, dim), dtype=np.complex128 if cx else np.float64)
        for k in range(dim):
            adjoint[k] = _parse_values(raw[k], dim * dim, cx, f"adjoint[{k}]").reshape(
                dim, dim
            )
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
