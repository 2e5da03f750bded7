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

# writes each cell's `generate --emit none` document to argv[2], then prints
# the thread count numpy's OpenBLAS runs (0 without one)
_GENERATE = """
import json, sys
from lieforge import linalg
from lieforge.cli import main
for field, dim, seed in json.loads(sys.argv[1]):
    out = f"{sys.argv[2]}/{field}-{dim}-{seed}.json"
    argv = ["generate", "--dim", str(dim), "--field", field, "--seed", str(seed)]
    assert main([*argv, "--emit", "none", "--out", out]) == 0
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
    # every cell, with its scale, five reports on clean samples and three tampered
    keys = list(contract._load(str(here)))
    assert len(keys) == len(DIMS) * len(SEEDS) * 4 * 13 - 6  # N=2 nilpotent has no constant
    assert {key.rsplit(" ", 1)[1] for key in keys if " report " in key} >= {"doubled", "swapped"}
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


def test_documents_do_not_follow_the_blas_thread_count(tmp_path):
    """The null vector's LU solve runs on one BLAS thread, so a child at
    OPENBLAS_NUM_THREADS=2 writes the bytes a child at 1 writes."""
    threads = {}
    for count in (1, 2):
        (tmp_path / str(count)).mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _GENERATE, json.dumps(THREAD_CELLS), str(tmp_path / str(count))],
            env=_child_env(OPENBLAS_NUM_THREADS=str(count)),
            capture_output=True, text=True, check=True,
        )
        threads[count] = int(proc.stdout.split()[-1])
    if threads[2] < 2:
        pytest.skip(f"numpy's BLAS runs {threads[2]} threads at OPENBLAS_NUM_THREADS=2 here")
    for field, dim, seed in THREAD_CELLS:
        name = f"{field}-{dim}-{seed}.json"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
