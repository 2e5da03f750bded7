"""The four workloads: inputs made from a seed, timed ops, and output checks.

Every workload is a fixed batch of ops. Sizes, fields, modes and document
classes are fixed per workload; the seed only picks the random draws, so two
seeds do the same work up to the sampler's rejections. Each op has an
untraced form, a traced form that makes the same library calls inside spans,
and a check that returns None for a right outcome or the reason it is wrong.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lieforge import (
    CHECK_NAMES,
    EPS,
    RNG_ID,
    DegenerateParametersError,
    GenerationFailedError,
    NormalStream,
    NullFirstComponentError,
    SingularSystemError,
    Tolerances,
    VerifyConfig,
    assemble_sample,
    assemble_system,
    compare_tensors,
    count_equations,
    extract_unknowns,
    generate,
    inf_norm,
    null_residual_tol,
    read_sample,
    sample_parameter_matrix,
    solve_system,
    validate_parameter_matrix,
    verify_all,
    write_sample,
)

from spans import Tracer

# Median batch time on a 2-vCPU x86_64 box (OpenBLAS, 2 threads). A run makes
# round(seconds / nominal) batches, at least two, so that the parent and a
# change run the same ops and op_tail_s is taken at the same level.
NOMINAL_BATCH_S = {"sample-large": 2.0, "archive": 3.0, "audit": 3.5, "crosscheck": 3.0}

# generate()'s default resampling budget, repeated by the traced form
MAX_ATTEMPTS = 16
# relative agreement tolerance of the oracle comparison (the CLI default)
ORACLE_TOL = 1e-9
SINGULAR = "singular"
ILL_CONDITIONED = "outcome FAIL, expected pass, with condition * eps above the oracle tolerance"


@dataclass
class Op:
    kind: str
    cls: str
    label: str
    dim: int
    run: Callable[[], object]
    traced: Callable[[Tracer], object]
    check: Callable[[object], str | None]
    same: Callable[[object, object], bool]


# --- sizes -----------------------------------------------------------------
# (dim, field, mode); the tiny lists keep the smoke test fast.

SAMPLE_LARGE = {
    "full": [
        (192, "real", "generic"), (256, "real", "generic"), (320, "real", "generic"),
        (192, "complex", "generic"), (224, "complex", "generic"), (256, "complex", "generic"),
        (48, "real", "nilpotent"), (56, "real", "nilpotent"), (64, "real", "nilpotent"),
        (56, "complex", "nilpotent"),
    ],
    "tiny": [(24, "real", "generic"), (16, "complex", "generic"), (12, "real", "nilpotent")],
}

# (dim, field, emit)
ARCHIVE = {
    "full": [
        (24, "real", "structure"), (32, "complex", "structure"), (64, "real", "structure"),
        (64, "real", "structure"), (64, "real", "structure"), (40, "complex", "both"),
        (64, "real", "none"), (96, "complex", "none"),
    ],
    "tiny": [(6, "real", "structure"), (5, "complex", "both"), (8, "real", "none")],
}

# (class, dim, field, mode); about one document in five is tampered
AUDIT = {
    "full": [
        *[("generic-real", n, "real", "generic") for n in (10, 12, 14, 16, 18, 20, 22, 24, 30, 30, 30)],
        *[("generic-complex", n, "complex", "generic") for n in (10, 14, 18, 20, 24, 30)],
        ("nilpotent", 12, "real", "nilpotent"), ("nilpotent", 20, "real", "nilpotent"),
        ("nilpotent", 16, "complex", "nilpotent"),
        # above VerifyConfig.jacobi_full_max_dim: Jacobi samples 1M quadruples
        ("generic-real", 40, "real", "generic"),
        ("perturbed", 12, "real", "generic"), ("perturbed", 20, "complex", "generic"),
        ("doubled", 16, "real", "generic"), ("doubled", 24, "complex", "generic"),
        ("swapped", 18, "real", "generic"), ("swapped", 22, "complex", "generic"),
    ],
    "tiny": [
        ("generic-real", 6, "real", "generic"), ("nilpotent", 5, "real", "nilpotent"),
        ("perturbed", 5, "real", "generic"), ("doubled", 6, "real", "generic"),
        ("swapped", 6, "complex", "generic"), ("generic-complex", 5, "complex", "generic"),
    ],
}

AUDIT_CLASSES = ("generic-real", "generic-complex", "nilpotent", "perturbed", "doubled", "swapped")
CLEAN = AUDIT_CLASSES[:3]

CROSSCHECK = {
    "full": [
        (10, "real", "generic"), (12, "real", "generic"), (14, "real", "generic"),
        (16, "real", "generic"), (17, "real", "generic"), (18, "real", "generic"),
        (21, "real", "generic"),
        (12, "complex", "generic"), (14, "complex", "generic"), (17, "complex", "generic"),
        (12, "real", "nilpotent"), (16, "real", "nilpotent"), (14, "complex", "nilpotent"),
    ],
    "tiny": [(5, "real", "generic"), (6, "complex", "generic"), (5, "real", "nilpotent")],
}


def _seeds(workload: str, seed: int):
    rnd = random.Random(f"{workload}:{seed}")
    while True:
        yield rnd.getrandbits(63)


# --- generate, plain and split into its layers -------------------------------


def _deviates(dim: int, field: str, mode: str) -> int:
    """Normals one parameter-matrix draw takes (computed from the draw order)."""
    free = dim * (dim - 1) if mode == "generic" else dim * (dim - 1) // 2
    return free * (2 if field == "complex" else 1)


def traced_generate(tr: Tracer, dim: int, seed: int, field: str, mode: str):
    """generate() as its three layer calls; None where generate raises."""
    tol = Tolerances()
    stream = NormalStream(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        with tr.span("rng.draw"):
            pm = sample_parameter_matrix(dim, stream, field=field, mode=mode)
        tr.count("rng.deviates", _deviates(dim, field, mode))
        tr.count("sampler.attempts")
        try:
            with tr.span("linalg.svd"):
                null = validate_parameter_matrix(pm, tol)
        except (DegenerateParametersError, NullFirstComponentError):
            continue
        with tr.span("sampler.build"):
            sample = assemble_sample(
                pm, null, seed=seed, rng_id=RNG_ID, attempts=attempt, tolerances=tol
            )
        tr.count("sampler.accepted")
        tr.count("sampler.adjoint_bytes", sample.adjoint.nbytes)
        return sample
    return None


def _generate(dim, seed, field, mode):
    try:
        return generate(dim, seed, field=field, mode=mode, max_attempts=MAX_ATTEMPTS)
    except GenerationFailedError:
        return None


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def _same_sample(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (
        a.attempts == b.attempts
        and _bits_equal(a.p.matrix, b.p.matrix)
        and _bits_equal(a.null.vector, b.null.vector)
        and _bits_equal(a.adjoint, b.adjoint)
    )


# --- sample-large --------------------------------------------------------------


def _sample_large_op(dim, field, mode, seed) -> Op:
    def run():
        sample = _generate(dim, seed, field, mode)
        return None if sample is None else (sample, sample.scale)

    def traced(tr):
        sample = traced_generate(tr, dim, seed, field, mode)
        if sample is None:
            return None
        with tr.span("sampler.first_touch"):
            return sample, sample.scale

    def check(out):
        if out is None:
            return "GenerationFailedError"
        sample, scale = out
        p, n = sample.p.matrix, sample.null.vector
        if inf_norm(n @ p) > null_residual_tol(p):
            return "null residual above null_residual_tol"
        band = 8 * EPS * inf_norm(p) * inf_norm(n)
        for k in (seed % dim, (seed // dim) % dim):
            ref = n[k] * p - np.outer(p[:, k], n)
            if inf_norm(sample.adjoint[k] - ref) > band:
                return f"A_{k} differs from n_k P - p_k (x) n"
        if scale != inf_norm(sample.adjoint):
            return "scale differs from max_k ||A_k||_inf"
        return None

    def same(a, b):
        return _same_sample(a and a[0], b and b[0])

    return Op("generate", mode, f"N={dim} {field} {mode}", dim, run, traced, check, same)


def sample_large(seed: int, size: str) -> list[Op]:
    seeds = _seeds("sample-large", seed)
    return [_sample_large_op(d, f, m, next(seeds)) for d, f, m in SAMPLE_LARGE[size]]


# --- archive ----------------------------------------------------------------------


def _emit_flags(emit: str) -> dict:
    return {
        "include_adjoint": emit in ("adjoint", "both"),
        "include_structure": emit in ("structure", "both"),
    }


def _archive_ops(sample, emit: str) -> list[Op]:
    flags = _emit_flags(emit)
    doc = write_sample(sample, **flags)
    nbytes = len(doc.encode("utf-8"))
    dim = sample.dim
    label = f"N={dim} {sample.field} emit={emit}"

    def write():
        return write_sample(sample, **flags)

    def traced_write(tr):
        with tr.span("serialize.write"):
            out = write_sample(sample, **flags)
        tr.count("serialize.write_bytes", nbytes)
        return out

    def read():
        return read_sample(doc)

    def traced_read(tr):
        with tr.span("serialize.read"):
            out = read_sample(doc)
        tr.count("serialize.read_bytes", nbytes)
        return out

    def check_write(out):
        return None if out == doc else "document bytes differ from the first encoding"

    def check_read(out):
        if write_sample(out, **flags) != doc:
            return "re-encoding the read sample changes the document"
        return None

    def same_read(a, b):
        return _same_sample(a, b) and _bits_equal(a.structure, b.structure)

    return [
        Op("write", emit, label, dim, write, traced_write, check_write, str.__eq__),
        Op("read", emit, label, dim, read, traced_read, check_read, same_read),
    ]


def archive(seed: int, size: str) -> list[Op]:
    seeds = _seeds("archive", seed)
    ops = []
    for dim, field, emit in ARCHIVE[size]:
        ops += _archive_ops(generate(dim, next(seeds), field=field), emit)
    return ops


# --- audit --------------------------------------------------------------------------

_QUADRUPLES = re.compile(r"(\d+) quadruples")


def _tamper(doc: str, cls: str, rnd: random.Random, other: str) -> str:
    data = json.loads(doc)
    entries = data["structure_constants"]
    if cls == "perturbed":
        # acceptance 7's corruption: one structure constant moved by 1.0
        entry = entries[rnd.randrange(len(entries))]
        if isinstance(entry[3], list):
            entry[3][0] += 1.0
        else:
            entry[3] += 1.0
    elif cls == "doubled":
        for entry in entries:
            entry[3] = [2 * x for x in entry[3]] if isinstance(entry[3], list) else 2 * entry[3]
    elif cls == "swapped":
        data["structure_constants"] = json.loads(other)["structure_constants"]
    return json.dumps(data, separators=(",", ":")) + "\n"


def _verdict(checks) -> str:
    failed = [c.name for c in checks if not c.passed]
    return f"FAIL ({','.join(failed)})" if failed else "PASS"


def _audit_op(cls: str, doc: str, label: str, dim: int) -> Op:
    expected = "PASS" if cls in CLEAN else "FAIL"

    def run():
        return _verdict(verify_all(read_sample(doc)).checks)

    def traced(tr):
        with tr.span("serialize.read"):
            sample = read_sample(doc)
        tr.count("serialize.read_bytes", len(doc))
        checks = []
        for name in CHECK_NAMES:
            with tr.span(f"analysis.{name}"):
                checks += verify_all(sample, VerifyConfig(checks=(name,))).checks
        verdict = _verdict(checks)
        for c in checks:
            match = _QUADRUPLES.search(c.detail) if c.name == "jacobi" else None
            if match:
                tr.count("analysis.jacobi_tuples", int(match.group(1)))
        if expected == "PASS" and verdict == "PASS":
            tr.peak("analysis.worst_margin", max(c.residual / c.tolerance for c in checks))
        return verdict

    def check(verdict):
        if verdict.split(" ")[0] == expected:
            return None
        return f"verdict {verdict}, expected {expected}"

    return Op("audit", cls, label, dim, run, traced, check, str.__eq__)


def audit(seed: int, size: str) -> list[Op]:
    seeds = _seeds("audit", seed)
    rnd = random.Random(f"audit-tamper:{seed}")
    ops = []
    for cls, dim, field, mode in AUDIT[size]:
        doc = write_sample(generate(dim, next(seeds), field=field, mode=mode))
        if cls in ("perturbed", "doubled", "swapped"):
            other = write_sample(generate(dim, next(seeds), field=field, mode=mode))
            doc = _tamper(doc, cls, rnd, other)
        ops.append(_audit_op(cls, doc, f"N={dim} {field} {mode} {cls}", dim))
    return ops


# --- crosscheck -------------------------------------------------------------------


def _lu_flops(n: int, complex_field: bool) -> float:
    """Real flops of an n x n LU factorization (computed, not counted)."""
    return (8.0 if complex_field else 2.0) / 3.0 * n**3


def _crosscheck_op(dim, field, mode, seed) -> Op:
    """The outcome is SINGULAR, or the comparison report and the solve's condition estimate."""

    def finish(sample, u):
        return compare_tensors(extract_unknowns(sample.structure), u, ORACLE_TOL)

    def run():
        sample = generate(dim, seed, field=field, mode=mode, max_attempts=MAX_ATTEMPTS)
        system = assemble_system(np.array(sample.structure[0]))
        try:
            u, diag = solve_system(system)
        except SingularSystemError:
            return SINGULAR
        return finish(sample, u), diag.condition_estimate

    def traced(tr):
        sample = traced_generate(tr, dim, seed, field, mode)
        if sample is None:
            raise GenerationFailedError(f"no valid sample after {MAX_ATTEMPTS} attempts")
        with tr.span("oracle.assemble"):
            system = assemble_system(np.array(sample.structure[0]))
        tr.count("oracle.unknowns", system.dim_sys)
        # the factorization runs in full before a singular pivot is reported
        tr.count("oracle.solve_flops", _lu_flops(system.dim_sys, field == "complex"))
        try:
            with tr.span("oracle.solve"):
                u, diag = solve_system(system)
        except SingularSystemError:
            return SINGULAR
        tr.peak("oracle.cond_max", diag.condition_estimate)
        with tr.span("oracle.compare"):
            report = finish(sample, u)
        tr.peak("oracle.diff_ratio_max", report.max_abs_diff / report.threshold)
        return report, diag.condition_estimate

    expected = SINGULAR if mode == "nilpotent" else "pass"

    def outcome(out):
        return out if out == SINGULAR else ("pass" if out[0].passed else "FAIL")

    def check(out):
        got = outcome(out)
        if got == expected:
            return None
        if got == "FAIL" and out[1] * EPS > ORACLE_TOL:
            # LU cannot promise ORACLE_TOL here; any other FAIL is a wrong answer
            return ILL_CONDITIONED
        return f"outcome {got}, expected {expected}"

    def same(a, b):
        return outcome(a) == outcome(b)

    n_sys = count_equations(dim)
    return Op("crosscheck", mode, f"N={dim} ({n_sys} unknowns) {field} {mode}", dim,
              run, traced, check, same)


def crosscheck(seed: int, size: str) -> list[Op]:
    seeds = _seeds("crosscheck", seed)
    return [_crosscheck_op(d, f, m, next(seeds)) for d, f, m in CROSSCHECK[size]]


OPS_BY_WORKLOAD = {
    "sample-large": sample_large,
    "archive": archive,
    "audit": audit,
    "crosscheck": crosscheck,
}
