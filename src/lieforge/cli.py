"""Batch command line: generate, verify, oracle, bench.

Exit codes: 0 success, 1 verification failure, 2 generation failure,
3 oracle singular system, 64 usage (an unwritable output path, and an adjoint
stack, the write of generate's payload or, for generate --emit none, a draw
too large for available memory included), 65 input integrity (a document
whose structure tensor or adjoint would not fit included). main maps library
errors to these codes through _EXIT_CODES.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import secrets
import statistics
import sys
import time

import numpy as np

from .analysis import CHECK_NAMES, VerificationReport, VerifyConfig, verify_all
from .errors import (
    ContractViolation,
    DocumentIntegrityError,
    FormatVersionError,
    GenerationFailedError,
    SingularSystemError,
    SystemSizeError,
)
from .oracle import MAX_SYSTEM_DIM, compare_tensors, count_equations, oracle_structure_constants
from .rng import RNG_ID
from .sampler import _DTYPES, FIELDS, MODES, _check_fits, _check_stack_fits, generate
from .serialize import _WRITE_STACKS, read_sample, write_sample

__all__ = ["main", "CSV_HEADER"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_GENERATION_FAILED = 2
EXIT_ORACLE_SINGULAR = 3
EXIT_USAGE = 64
EXIT_INPUT = 65

# the library errors a command may raise, each printed once by main as
# "lieforge <command>: <message>"; a ContractViolation stays out: argument
# checks are usage errors, and any other one is a bug that keeps its traceback
_EXIT_CODES = {
    GenerationFailedError: EXIT_GENERATION_FAILED,
    SingularSystemError: EXIT_ORACLE_SINGULAR,
    SystemSizeError: EXIT_USAGE,
    FormatVersionError: EXIT_INPUT,
    DocumentIntegrityError: EXIT_INPUT,
}

CSV_HEADER = "n,mode,repeats,median_generate_s,median_verify_s,rng_id"

# reference wall-clock upper bounds for median generation time, from an
# interpreted-language implementation on 2008-era hardware; treated as
# upper bounds, not targets
GENERATE_BASELINES_S = {100: 0.3, 500: 40.0}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; we need 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _uint64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerance must be a finite positive number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lieforge",
        description="Random solvable Lie algebra samples: generate, verify, cross-check, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="draw a sample and write its document")
    gen.add_argument("--dim", type=int, required=True, help="number of generators, at least 2")
    gen.add_argument(
        "--seed",
        type=_uint64,
        default=None,
        help="RNG seed (default: OS entropy, echoed to stderr)",
    )
    gen.add_argument("--field", choices=FIELDS, default="real")
    gen.add_argument("--mode", choices=MODES, default="generic")
    gen.add_argument(
        "--emit",
        choices=("adjoint", "structure", "both", "none"),
        default="structure",
        help="optional payloads to embed in the document",
    )
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.add_argument("--max-attempts", type=int, default=16)
    gen.set_defaults(func=cmd_generate, _parser=gen)

    ver = sub.add_parser("verify", help="run the check suite on a stored document")
    ver.add_argument("file", help="path to a lieforge/1 document")
    ver.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of: {','.join(CHECK_NAMES)} (default all)",
    )
    ver.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="verification tolerance (default: the tau_ver stored in the document)",
    )
    ver.add_argument(
        "--seed",
        type=_uint64,
        default=0,
        help="seed of the checks' probe vectors and the series check's random path (default 0)",
    )
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=cmd_verify, _parser=ver)

    orc = sub.add_parser(
        "oracle", help="compare closed-form structure constants with the linear-system solution"
    )
    orc.add_argument("--dim", type=int, required=True)
    orc.add_argument(
        "--seed",
        type=_uint64,
        default=None,
        help="RNG seed (default: OS entropy, echoed to stderr)",
    )
    orc.add_argument("--field", choices=FIELDS, default="real")
    orc.add_argument("--mode", choices=MODES, default="generic")
    orc.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="relative agreement tolerance (default 1e-9)"
    )
    orc.set_defaults(func=cmd_oracle, _parser=orc)

    ben = sub.add_parser("bench", help="time sample generation at the requested dimensions")
    ben.add_argument("--dims", required=True, help="comma-separated dimensions, each at least 2")
    ben.add_argument("--repeat", type=int, default=3, help="timed runs per dimension (min 3)")
    ben.add_argument("--field", choices=FIELDS, default="real")
    ben.add_argument("--mode", choices=MODES, default="generic")
    ben.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    ben.add_argument(
        "--seed", type=_uint64, default=0, help="base seed; run r uses seed + r (default 0)"
    )
    ben.add_argument(
        "--verify",
        action="store_true",
        help="also time verify_all per run and report its median",
    )
    ben.set_defaults(func=cmd_bench, _parser=ben)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _write_output(command: str, path: str | None, text: str) -> int:
    """Write text to path (stdout when None); an unwritable path is a usage error."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        print(f"lieforge {command}: cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.dim < 2:
        args._parser.error("--dim must be at least 2")
    if args.max_attempts < 1:
        args._parser.error("--max-attempts must be at least 1")
    if args.emit != "none":
        # a payload is written from the N^3 stack through lists and text many
        # stacks large, all sized before the first draw
        _check_fits(
            _WRITE_STACKS[args.emit] * args.dim**3 * _DTYPES[args.field].itemsize,
            f"writing the N={args.dim} --emit {args.emit} document",
        )
    seed = _resolve_seed(args)
    sample = generate(
        args.dim, seed, field=args.field, mode=args.mode, max_attempts=args.max_attempts
    )
    doc = write_sample(
        sample,
        include_adjoint=args.emit in ("adjoint", "both"),
        include_structure=args.emit in ("structure", "both"),
    )
    return _write_output("generate", args.out, doc)


def _format_text_report(report: VerificationReport) -> str:
    lines = [
        f"sample: dim={report.dim} field={report.field} mode={report.mode} "
        f"seed={report.seed} rng_id={report.rng_id}",
        f"scale: {report.scale:.6e}  tau_ver: {report.tau_ver:.3e}",
        f"{'check':<14} {'residual':>12} {'tolerance':>12} {'status':<6} {'seconds':>8}  detail",
    ]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<14} {c.residual:>12.4e} {c.tolerance:>12.4e} "
            f"{status:<6} {c.seconds:>8.3f}  {c.detail}"
        )
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    checks = CHECK_NAMES
    if args.checks is not None:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    try:
        config = VerifyConfig(tau_ver=args.tol, seed=args.seed, checks=checks)
    except ContractViolation as err:
        args._parser.error(str(err))
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        print(f"lieforge verify: cannot read input: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        sample = read_sample(raw)
    except SystemSizeError as err:
        # a document too large to hold is bad input here, not a usage error
        raise DocumentIntegrityError(str(err)) from err
    report = verify_all(sample, config)

    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(report.as_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(_format_text_report(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_oracle(args) -> int:
    if args.dim < 2:
        args._parser.error("--dim must be at least 2")
    dim_sys = count_equations(args.dim)
    if dim_sys > MAX_SYSTEM_DIM:
        args._parser.error(
            f"oracle system size dim_sys = {dim_sys} exceeds the guard ({MAX_SYSTEM_DIM}); "
            "reduce --dim"
        )
    _check_stack_fits(args.dim, _DTYPES[args.field])
    seed = _resolve_seed(args)
    sample = generate(args.dim, seed, field=args.field, mode=args.mode)
    tensor, diagnostics = oracle_structure_constants(sample)
    comparison = compare_tensors(sample.structure, tensor, args.tol)

    print(f"dim: {args.dim}  unknowns: {dim_sys}  equations: {dim_sys}")
    if dim_sys == 0:
        print("empty system: no unknowns beyond the a-priori slice")
    print(f"condition estimate: {diagnostics.condition_estimate:.6e}")
    print(
        f"separation: {diagnostics.separation:.6e}"
        f"  separation threshold: {diagnostics.separation_threshold:.6e}"
    )
    # a nilpotent draw takes no singular value; at N=2 its empty system gets here
    sv = sample.null.smallest_retained_sv
    print(
        f"attempts: {sample.attempts}"
        + (f"  smallest retained singular value: {sv:.6e}" if sv is not None else "")
    )
    print(f"solve residual: {diagnostics.residual:.6e}")
    print(
        f"max |closed-form - oracle|: {comparison.max_abs_diff:.6e}"
        + (f" at (i, j, k) = {comparison.where}" if comparison.where is not None else "")
    )
    print(f"threshold: {comparison.threshold:.6e}")
    print(f"result: {'PASS' if comparison.passed else 'FAIL'}")
    return EXIT_OK if comparison.passed else EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        args._parser.error(f"--dims must be a comma-separated integer list, got {args.dims!r}")
    if not dims or any(n < 2 for n in dims):
        args._parser.error("--dims entries must all be at least 2")
    if args.repeat < 3:
        args._parser.error("--repeat must be at least 3 for a meaningful median")
    dims = list(dict.fromkeys(dims))
    for n in dims:
        # each run times a full sample, its adjoint stack included
        _check_stack_fits(n, _DTYPES[args.field])

    rows, notes = [CSV_HEADER], []
    for n in dims:
        gen_times: list[float] = []
        verify_times: list[float] = []
        for run in range(args.repeat):
            seed = (args.seed + run) % 2**64
            begin = time.perf_counter()
            sample = generate(n, seed, field=args.field, mode=args.mode)
            sample.adjoint  # built on first use, so read here to time a full sample
            gen_times.append(time.perf_counter() - begin)
            if args.verify:
                begin = time.perf_counter()
                verify_all(sample)
                verify_times.append(time.perf_counter() - begin)
        gen_s = statistics.median(gen_times)
        verify_s = statistics.median(verify_times) if verify_times else None
        verify_cell = "" if verify_s is None else repr(verify_s)
        rows.append(f"{n},{args.mode},{args.repeat},{gen_s!r},{verify_cell},{RNG_ID}")
        note = f"N={n}: median generate {gen_s:.4f} s"
        if verify_s is not None:
            note += f", median verify {verify_s:.4f} s"
        baseline = GENERATE_BASELINES_S.get(n)
        if baseline is not None:
            ratio = baseline / gen_s if gen_s > 0 else float("inf")
            note += f" (reference baseline {baseline:g} s, {ratio:.1f}x headroom)"
        notes.append(note)

    code = _write_output("bench", args.csv, "".join(row + "\n" for row in rows))
    if code != EXIT_OK:
        return code

    print(
        f"hardware: {platform.machine() or 'unknown-arch'}, {os.cpu_count()} cpu, "
        f"python {platform.python_version()}, numpy {np.__version__}",
        file=sys.stderr,
    )
    for note in notes:
        print(note, file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as err:
        print(f"lieforge {args.command}: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
