"""The behaviour-contract dump: the same bytes in any process, and a diff by kind."""

import json
import os
import subprocess
import sys

import pytest

import contract
import lieforge

DIMS, SEEDS = range(2, 9), (1,)

# (field, dim, seed): above N = 110 an unpinned LU solve's bits follow the BLAS thread count
THREAD_CELLS = [(f, n, s) for f in ("real", "complex") for n in (96, 130, 192) for s in (1, 2, 3)]

# prints the SHA-256 of each cell's `generate --emit none` document, written to argv[2]
_GENERATE = """
import hashlib, json, sys
from lieforge.cli import main
for field, dim, seed in json.loads(sys.argv[1]):
    argv = ["generate", "--dim", str(dim), "--field", field, "--seed", str(seed)]
    assert main([*argv, "--emit", "none", "--out", sys.argv[2]]) == 0
    with open(sys.argv[2], "rb") as fh:
        print(field, dim, seed, hashlib.sha256(fh.read()).hexdigest())
"""


# prints, for each (field, dim, seed) cell, the hex of every singular value
# rank_and_left_null gives and of the sample's smallest_retained_sv
_SINGULAR_VALUES = """
import json, sys
from lieforge import generate, linalg
for field, dim, seed in json.loads(sys.argv[1]):
    sample = generate(dim, seed, field=field)
    svals = linalg.rank_and_left_null(sample.p.matrix)[2]
    print(*map(float.hex, svals.tolist()), sample.null.smallest_retained_sv.hex())
"""

# appended to a child's code: prints the thread count numpy's OpenBLAS runs (0 without one)
_BLAS_THREADS = """
from lieforge import linalg
calls = linalg._blas_thread_calls()
print(calls[0]() if calls else 0)
"""


def _child_env(**extra) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieforge.__file__)))
    tests = os.path.dirname(os.path.abspath(contract.__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_a_dump_has_the_same_bytes_in_a_child_process(tmp_path):
    here, child = tmp_path / "here.jsonl", tmp_path / "child.jsonl"
    contract.dump(str(here), DIMS, SEEDS)
    code = f"import contract; contract.dump({str(child)!r}, range(2, 9), (1,))"
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
    assert here.read_bytes() == child.read_bytes()
    # every cell, with its scale, five reports on clean samples and three tampered,
    # and in each nilpotent cell a fourth tamper, "added"; N=2 nilpotent has no constant
    records = contract._load(str(here))
    cells, nilpotent_n2 = len(DIMS) * len(SEEDS) * 4, 2 * len(SEEDS)
    assert len(records) == cells * 13 + cells // 2 - nilpotent_n2 * 4
    kinds = {key.rsplit(" ", 1)[1] for key in records if " report " in key}
    assert kinds >= {"doubled", "swapped", "added"}
    for key, report in records.items():
        if key.endswith(" added"):
            failed = {check["name"] for check in report["checks"] if not check["passed"]}
            assert failed >= {"jacobi", "almost_abelian"}, key
    assert contract.main(["diff", str(here), str(child)]) == 0


def test_diff_groups_changes_by_kind(tmp_path, capsys):
    path = tmp_path / "a.jsonl"
    contract.dump(str(path), (3,), (1,))
    a = contract._load(str(path))
    b = json.loads(json.dumps(a))
    cell = "N=3 seed=1 complex generic"
    b[f"{cell} document both"]["sha256"] = "0" * 64
    b[f"{cell} scale"]["scale"] = "0x1p+0"
    tampered = b[f"{cell} report tampered"]
    assert not tampered["passed"]
    tampered["passed"] = True
    tampered["checks"][0]["residual"] = 0.0
    tampered["checks"][0]["detail"] = "moved"
    del b[f"{cell} report built"]
    found = contract.changes(a, b)
    assert list(found) == ["document bytes", "scale", "residual", "verdict", "detail", "only in A"]
    assert found["verdict"] == [f"{cell} report tampered: passed False -> True"]
    assert contract.changes(a, a) == {}

    other = tmp_path / "b.jsonl"
    other.write_text("".join(json.dumps({"key": k, "value": v}) + "\n" for k, v in b.items()))
    capsys.readouterr()
    assert contract.main(["diff", str(path), str(other)]) == 1
    assert capsys.readouterr().out.startswith("document bytes: 1\n")
    assert contract.main(["diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out == ""


def _at_blas_threads(code: str, *args: str) -> dict:
    """{count: stdout lines} of a child running code at OPENBLAS_NUM_THREADS=count,
    for counts 1 and 2; skips where numpy's BLAS will not run two threads."""
    lines = {}
    for count in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", code + _BLAS_THREADS, *args],
            env=_child_env(OPENBLAS_NUM_THREADS=str(count)),
            capture_output=True, text=True, check=True,
        )
        *lines[count], threads = proc.stdout.splitlines()
    if int(threads) < 2:
        pytest.skip(f"numpy's BLAS runs {threads} threads at OPENBLAS_NUM_THREADS=2 here")
    return lines


def test_documents_do_not_follow_the_blas_thread_count(tmp_path):
    """The null vector's LU solve runs on one BLAS thread, so a child at
    OPENBLAS_NUM_THREADS=2 writes the bytes a child at 1 writes."""
    lines = _at_blas_threads(_GENERATE, json.dumps(THREAD_CELLS), str(tmp_path / "doc.json"))
    assert lines[1] == lines[2]


def test_singular_values_do_not_follow_the_blas_thread_count():
    """A validation takes its singular values on one BLAS thread, so the rank
    verdict and smallest_retained_sv of a complex N = 192 or 256 draw do not
    depend on the thread count."""
    cells = [("complex", dim, seed) for dim in (192, 256) for seed in (1, 2)]
    lines = _at_blas_threads(_SINGULAR_VALUES, json.dumps(cells))
    assert lines[1] == lines[2]
