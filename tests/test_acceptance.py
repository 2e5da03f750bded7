"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints exactly one line of the form

    ACCEPTANCE <n>: <name>: PASS|FAIL (<detail>)

to the real stdout (suspending pytest's capture for that line) before
asserting, so a plain `pytest -v` run shows the verdicts inline. Tolerances
here are the pinned acceptance values and must not be loosened.
"""

import json
import random
import time

import numpy as np
import pytest

from lieforge.analysis import (
    cartan_residual,
    closure_residual,
    derived_abelian_residual,
    jacobi_residual,
    lower_central_series,
    t_product_residual,
)
from lieforge.cli import main
from lieforge.linalg import inf_norm
from lieforge.oracle import compare_tensors, count_equations, oracle_structure_constants
from lieforge.sampler import generate
from lieforge.serialize import read_sample, write_sample


@pytest.fixture
def announce(capfd):
    def _announce(number: int, name: str, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {number}: {name}: {verdict} ({detail})", flush=True)

    return _announce


def test_acceptance_1_oracle_agreement(announce):
    """Closed form vs linear-system recovery at 1e-8 * scale, N in 3..6."""
    cells = [(dim, seed) for dim in (3, 4, 5, 6) for seed in (1, 2, 3, 4, 5)]
    skipped = []
    worst_ratio = 0.0
    failures = []
    for dim, seed in cells:
        sample = generate(dim, seed)
        tensor, diag = oracle_structure_constants(sample)
        if diag.condition_estimate > 1e8:
            skipped.append((dim, seed, diag.condition_estimate))
            continue
        bound = 1e-8 * sample.scale
        report = compare_tensors(sample.structure, tensor, 1e-8)
        diff = report.max_abs_diff
        worst_ratio = max(worst_ratio, diff / bound)
        if diff > bound:
            failures.append((dim, seed, diff, bound))
    skip_ok = len(skipped) <= 0.2 * len(cells)
    passed = not failures and skip_ok
    announce(
        1,
        "oracle agreement",
        passed,
        f"{len(cells) - len(skipped)}/{len(cells)} compared, "
        f"{len(skipped)} skipped for conditioning, worst diff/bound {worst_ratio:.3e}",
    )
    assert skip_ok, f"too many ill-conditioned skips: {skipped}"
    assert not failures, failures


def test_acceptance_2_identity_residuals(announce):
    """Five identity residuals within 1e-9 * scale^2 across the full grid."""
    begin = time.perf_counter()
    failures = []
    worst = 0.0
    cells = 0
    for dim in range(2, 21):
        for seed in range(1, 11):
            for field in ("real", "complex"):
                for mode in ("generic", "nilpotent"):
                    cells += 1
                    s = generate(dim, seed, field=field, mode=mode)
                    band = 1e-9 * s.scale**2
                    killing = cartan_residual(s.adjoint)
                    residuals = {
                        "jacobi": jacobi_residual(s.structure),
                        "closure": closure_residual(s.adjoint),
                        "derived": derived_abelian_residual(s.adjoint),
                        "killing": max(
                            killing.max_cartan_residual,
                            inf_norm(killing.matrix - killing.matrix.T),
                        ),
                        "tproduct": t_product_residual(s.null, s.adjoint),
                    }
                    for name, value in residuals.items():
                        # N = 2 nilpotent samples are abelian: scale and every
                        # residual are exactly zero, so the band is 0 <= 0
                        if band > 0.0:
                            worst = max(worst, value / band)
                        if value > band:
                            failures.append((dim, seed, field, mode, name, value, band))
    elapsed = time.perf_counter() - begin
    passed = not failures
    announce(
        2,
        "identity residuals",
        passed,
        f"{cells} samples x 5 residuals, worst residual/band {worst:.3e}, {elapsed:.1f} s",
    )
    assert passed, failures[:5]


def test_acceptance_3_series_behavior(announce):
    """Generic: no termination through level N; nilpotent: termination, at
    the pinned series tolerances, and an N-th power of P that vanishes
    exactly."""
    failures = []
    for dim in range(3, 11):
        for seed in range(1, 11):
            s = generate(dim, seed)
            rep = lower_central_series(s.adjoint, s.p, s.null, depth=dim)
            if rep.terminated:
                failures.append((dim, seed, "generic", "terminated"))
            if not rep.discrepancies_within(1e-9, s.scale):
                failures.append((dim, seed, "generic", "discrepancy"))

            s = generate(dim, seed, mode="nilpotent")
            rep = lower_central_series(s.adjoint, s.p, s.null, depth=dim)
            if not rep.terminated or rep.termination_level > dim:
                failures.append((dim, seed, "nilpotent", "not terminated"))
            if not rep.discrepancies_within(1e-9, s.scale):
                failures.append((dim, seed, "nilpotent", "discrepancy"))
            if np.linalg.matrix_power(s.p.matrix, dim).any():
                failures.append((dim, seed, "nilpotent", "P^N is not zero"))
    passed = not failures
    announce(
        3,
        "series termination",
        passed,
        "80 generic + 80 nilpotent cells through depth N, tolerance 1e-9 * scale^(L+2)",
    )
    assert passed, failures[:5]


def test_acceptance_4_equation_count(announce):
    """Closed-form equation count vs brute-force enumeration, N in 2..12."""
    mismatches = []
    for dim in range(2, 13):
        brute = sum(
            1 for j in range(1, dim) for k in range(j + 1, dim) for m in range(dim)
        )
        if count_equations(dim) != brute:
            mismatches.append((dim, count_equations(dim), brute))
    passed = not mismatches
    announce(4, "equation count", passed, "N(N-1)(N-2)/2 confirmed for N = 2..12")
    assert passed, mismatches


def test_acceptance_5_generation_speed(tmp_path, announce):
    """Median generation time under the reference baselines at N = 100, 500."""
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--dims", "100,500", "--repeat", "3", "--csv", str(csv_path)])
    rows = csv_path.read_text().splitlines()[1:]
    medians = {int(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
    passed = code == 0 and medians[100] <= 0.3 and medians[500] <= 40.0
    announce(
        5,
        "generation speed",
        passed,
        f"N=100: {medians[100]:.4f} s (baseline 0.3 s), "
        f"N=500: {medians[500]:.4f} s (baseline 40 s)",
    )
    assert passed, medians


def test_acceptance_6_deterministic_documents(announce):
    """Same (dim, field, mode, seed) twice gives byte-identical documents,
    and decode/encode is the identity on them."""
    rng = random.Random(20260816)
    failures = []
    for case in range(100):
        dim = rng.randrange(2, 11)
        seed = rng.getrandbits(64)
        field = rng.choice(("real", "complex"))
        mode = rng.choice(("generic", "nilpotent"))
        include_adjoint = rng.random() < 0.3
        first = write_sample(
            generate(dim, seed, field=field, mode=mode), include_adjoint=include_adjoint
        )
        second = write_sample(
            generate(dim, seed, field=field, mode=mode), include_adjoint=include_adjoint
        )
        if first != second:
            failures.append((case, dim, seed, field, mode, "regenerate"))
        if write_sample(read_sample(first), include_adjoint=include_adjoint) != first:
            failures.append((case, dim, seed, field, mode, "round trip"))
    passed = not failures
    announce(6, "deterministic documents", passed, "100 random configurations, N = 2..10")
    assert passed, failures[:5]


def test_acceptance_7_tamper_detection(tmp_path, announce):
    """A single perturbed structure constant must fail verification."""
    rng = random.Random(1603)
    failures = []
    for case in range(20):
        dim = rng.randrange(3, 9)
        seed = rng.getrandbits(32)
        path = tmp_path / f"case{case}.json"
        assert main(
            ["generate", "--dim", str(dim), "--seed", str(seed), "--out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        entries = doc["structure_constants"]
        entries[rng.randrange(len(entries))][3] += 1.0
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        code = main(["verify", str(path)])
        if code != 1:
            failures.append((case, dim, seed, code))
    passed = not failures
    announce(7, "tamper detection", passed, "20 corrupted documents, all rejected")
    assert passed, failures
