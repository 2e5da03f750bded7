"""Dump the behaviour contract over a grid of samples, or diff two dumps.

    python tests/contract.py dump PATH
    python tests/contract.py diff A B

`dump` writes one JSON record a line, for every (N, seed, field, mode) cell
of the grid: the SHA-256 of the document each --emit writes and whether its
read -> write round trip gives the same bytes, the sample's scale as
float.hex, and verify_all's as_dict without seconds on the built sample, on
each read document and on the structure document with its constant of
largest magnitude scaled by 1.5. Where the sample has no [e_1, e_2] constant
on e_2, as a nilpotent one from N = 3, it holds the report on the structure
document with that constant added. Up to N = 20 it also holds the reports on
two more tampered structure documents: every constant doubled, and the
constants of the cell's sample at seed + len(seeds) swapped in. Run it with PYTHONPATH=src, at
OPENBLAS_NUM_THREADS=1: the null vector's solve pins itself to one BLAS
thread, but the checks' residuals come from GEMMs on the BLAS's threads.

`diff` prints the records that differ, grouped by kind (document bytes,
scale, residual, verdict, detail, and records only one dump holds), and
exits 1 when there are any; it prints nothing and exits 0 when the dumps
agree. Dumps are compared between two trees on one box, so no golden digest
is kept: the bytes depend on the BLAS build.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from collections import defaultdict

from lieforge.analysis import verify_all
from lieforge.errors import GenerationFailedError
from lieforge.sampler import generate
from lieforge.serialize import read_sample, write_sample

DIMS = (*range(2, 21), 30, 48)
SEEDS = (1, 2)
FIELDS = ("real", "complex")
MODES = ("generic", "nilpotent")
# payloads each --emit writes, as (include_adjoint, include_structure)
EMITS = {
    "none": (False, False),
    "structure": (False, True),
    "adjoint": (True, False),
    "both": (True, True),
}
# the largest N whose cells hold the doubled and swapped tampers
TAMPER_MAX_DIM = 20
KINDS = ("document bytes", "scale", "residual", "verdict", "detail", "only in A", "only in B")


def _report(sample) -> dict:
    report = verify_all(sample).as_dict()
    for check in report["checks"]:
        del check["seconds"]
    return report


def _scaled(entry: list, factor: float) -> list:
    """A structure entry [i, j, k, value] with its value, real or [re, im], scaled."""
    *index, value = entry
    return [*index, [factor * x for x in value] if isinstance(value, list) else factor * value]


def _magnitude(entry: list) -> float:
    """|value| of a structure entry [i, j, k, value], real or [re, im]."""
    value = entry[-1]
    return math.hypot(*value) if isinstance(value, list) else abs(value)


def _tampered(sample, swap_seed: int):
    """(name, document) for each tamper of sample's structure document.

    "tampered" scales the constant of largest magnitude, the first of equals,
    by 1.5; a small one, such as a nilpotent sample's rounding-level first
    constant, would move by less than the checks' bands. "added" gives a
    sample with no [e_1, e_2] constant on e_2, as every nilpotent one from N
    = 3, that constant, equal to its constant of largest magnitude: e_1 and
    e_2 lie in ker n = span(e_1 .. e_{N-1}), which then is not abelian, and
    the Jacobi identity on (e_1, e_2, e_N) fails by it times P{1,2}. Scaling
    a nilpotent sample's constants, all [e_i, e_N] ones, keeps a valid
    almost-abelian algebra, which only the payload check tells apart. Up to
    N = TAMPER_MAX_DIM, "doubled" doubles every constant and "swapped" holds
    the constants of the same (N, field, mode) sample at swap_seed. A sample
    without constants has no tamper.
    """
    data = json.loads(write_sample(sample, *EMITS["structure"]))
    entries = data["structure_constants"]
    if not entries:
        return
    big = max(range(len(entries)), key=lambda i: _magnitude(entries[i]))
    tampers = {"tampered": [*entries[:big], _scaled(entries[big], 1.5), *entries[big + 1:]]}
    if sample.dim > 2 and all(entry[:3] != [0, 1, 1] for entry in entries):
        added = [0, 1, 1, entries[big][-1]]
        tampers["added"] = sorted([*entries, added], key=lambda entry: entry[:3])
    if sample.dim <= TAMPER_MAX_DIM:
        tampers["doubled"] = [_scaled(entry, 2.0) for entry in entries]
        partner = generate(sample.dim, swap_seed, field=sample.field, mode=sample.mode)
        tampers["swapped"] = json.loads(write_sample(partner))["structure_constants"]
    for name, edited in tampers.items():
        yield name, json.dumps({**data, "structure_constants": edited})


def records(dims=DIMS, seeds=SEEDS):
    """The contract's records, in grid order, each a (key, value) pair."""
    for dim, seed, field, mode in itertools.product(dims, seeds, FIELDS, MODES):
        cell = f"N={dim} seed={seed} {field} {mode}"
        try:
            sample = generate(dim, seed, field=field, mode=mode)
        except GenerationFailedError as err:
            yield f"{cell} generate", {"error": str(err)}
            continue
        yield f"{cell} scale", {"scale": sample.scale.hex()}
        yield f"{cell} report built", _report(sample)
        for emit, flags in EMITS.items():
            doc = write_sample(sample, *flags)
            back = read_sample(doc)
            yield f"{cell} document {emit}", {
                "sha256": hashlib.sha256(doc.encode()).hexdigest(),
                "round_trip": write_sample(back, *flags) == doc,
            }
            yield f"{cell} report read {emit}", _report(back)
        for name, doc in _tampered(sample, seed + len(seeds)):
            yield f"{cell} report {name}", _report(read_sample(doc))


def dump(path: str, dims=DIMS, seeds=SEEDS) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in records(dims, seeds):
            fh.write(json.dumps({"key": key, "value": value}, separators=(",", ":")) + "\n")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {rec["key"]: rec["value"] for rec in map(json.loads, fh)}


def _kind(field: str) -> str:
    """The kind of change a differing report field is."""
    if field == "scale":
        return "scale"
    if field.endswith(("residual", "tolerance")):
        return "residual"
    if field.endswith("passed"):
        return "verdict"
    return "detail"


def _flatten(report: dict) -> dict:
    """A report's fields, each check's as "<check>.<field>"."""
    flat = {k: v for k, v in report.items() if k != "checks"}
    for check in report.get("checks", ()):
        flat.update({f"{check['name']}.{k}": v for k, v in check.items() if k != "name"})
    return flat


def _report_changes(a: dict, b: dict):
    """(kind, field, a value, b value) for each report field that differs."""
    flat_a, flat_b = _flatten(a), _flatten(b)
    for field in sorted(flat_a.keys() | flat_b.keys()):
        va, vb = flat_a.get(field), flat_b.get(field)
        if va != vb:
            yield _kind(field), field, va, vb


def changes(a: dict, b: dict) -> dict:
    """Lines describing each change from dump a to dump b, by kind."""
    out = defaultdict(list)
    for key in a.keys() - b.keys():
        out["only in A"].append(key)
    for key in b.keys() - a.keys():
        out["only in B"].append(key)
    for key in a.keys() & b.keys():
        va, vb = a[key], b[key]
        if va == vb:
            continue
        if " report " in key:
            for kind, field, x, y in _report_changes(va, vb):
                out[kind].append(f"{key}: {field} {x!r} -> {y!r}")
        elif key.endswith(" scale"):
            out["scale"].append(f"{key}: {va['scale']} -> {vb['scale']}")
        elif " document " in key:
            out["document bytes"].append(f"{key}: {va} -> {vb}")
        else:
            out["detail"].append(f"{key}: {va} -> {vb}")
    return {kind: sorted(out[kind]) for kind in KINDS if out[kind]}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        found = changes(_load(argv[1]), _load(argv[2]))
        for kind, lines in found.items():
            print(f"{kind}: {len(lines)}")
            for line in lines:
                print(f"  {line}")
        return 1 if found else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
