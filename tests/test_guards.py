"""Argument guards across the package: each raises ContractViolation with its message."""

import re

import numpy as np
import pytest

from lieforge.analysis import VerifyConfig, jacobi_residual, t_product_residual
from lieforge.errors import ContractViolation
from lieforge.linalg import as_field_matrix, rank_and_left_null
from lieforge.oracle import assemble_system
from lieforge.rng import NormalStream, SplitMix64
from lieforge.sampler import NullData, adjoint_to_structure, build_adjoint, sample_parameter_matrix

GUARDS = {
    "analysis-cubic": (
        lambda: jacobi_residual(np.zeros((2, 3, 3))),
        "structure tensor must have shape (N, N, N), got (2, 3, 3)",
    ),
    "analysis-probe-seed": (
        lambda: jacobi_residual(np.zeros((3, 3, 3)), seed=-1),
        "seed must fit in uint64, got -1",
    ),
    "analysis-config-no-checks": (
        lambda: VerifyConfig(checks=()),
        "checks must name at least one check",
    ),
    "analysis-config-seed-negative": (
        lambda: VerifyConfig(seed=-1),
        "seed must fit in uint64, got -1",
    ),
    "analysis-config-seed-2**64": (
        lambda: VerifyConfig(seed=2**64),
        "seed must fit in uint64, got 18446744073709551616",
    ),
    "analysis-config-seed-float": (
        lambda: VerifyConfig(seed=1.5),
        "seed must be an integer, got float",
    ),
    "analysis-config-tau-0": (
        lambda: VerifyConfig(tau_ver=0),
        "tau_ver must be finite and positive, got 0",
    ),
    "analysis-config-tau-negative": (
        lambda: VerifyConfig(tau_ver=-1),
        "tau_ver must be finite and positive, got -1",
    ),
    "analysis-config-tau-nan": (
        lambda: VerifyConfig(tau_ver=float("nan")),
        "tau_ver must be finite and positive, got nan",
    ),
    "analysis-tproduct-null": (
        lambda: t_product_residual(np.ones(2), np.zeros((3, 3, 3))),
        "null vector length must match adjoint dimension",
    ),
    "linalg-dtype": (
        lambda: as_field_matrix(np.array([["a"]]), "p"),
        "p has unsupported dtype <U1",
    ),
    "linalg-tol-rank": (
        lambda: rank_and_left_null(np.eye(2), tol_rank=-1.0),
        "tol_rank must be nonnegative",
    ),
    "rng-uint64s": (lambda: SplitMix64(1).uint64s(-1), "count must be nonnegative"),
    "rng-integers": (lambda: SplitMix64(1).integers(1, 0), "bound must be positive"),
    "rng-normals": (lambda: NormalStream(1).normals(-1), "count must be nonnegative"),
    "sampler-null-2d": (
        lambda: NullData(np.zeros((2, 2)), None, 0.0),
        "null vector must be one-dimensional",
    ),
    "sampler-dim-1": (
        lambda: sample_parameter_matrix(1, NormalStream(1)),
        "dimension must be at least 2, got 1",
    ),
    "sampler-short-null": (
        lambda: build_adjoint(np.eye(3), np.ones(2)),
        "null vector length must match matrix dimension",
    ),
    "sampler-non-cubic": (
        lambda: adjoint_to_structure(np.zeros((2, 3, 3))),
        "adjoint stack must be cubic, got shape (2, 3, 3)",
    ),
    "oracle-1x1": (lambda: assemble_system(np.zeros((1, 1))), "dimension must be at least 2"),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_contract_violation(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
