"""Random samples of solvable and nilpotent Lie algebras.

The construction draws a random parameter matrix with a zero first column,
extracts its left null vector, and assembles the adjoint representation of
a solvable Lie algebra in closed form. The package bundles the generator,
an exact-identity verification suite, an independent linear-system oracle
for the structure constants, a canonical JSON document format, and a CLI.
"""

from .errors import (
    ContractViolation,
    DegenerateParametersError,
    DocumentIntegrityError,
    FormatVersionError,
    GenerationFailedError,
    LieForgeError,
    NullFirstComponentError,
    SingularSystemError,
    SystemSizeError,
)
from .rng import RNG_ID, NormalStream, SplitMix64
from .linalg import (
    EPS,
    as_field_matrix,
    commutator,
    inf_norm,
    null_residual_tol,
    rank_and_left_null,
    trace,
)
from .sampler import (
    FIELDS,
    MODES,
    LieAlgebraSample,
    NullData,
    ParameterMatrix,
    Tolerances,
    adjoint_to_structure,
    assemble_sample,
    build_adjoint,
    generate,
    sample_parameter_matrix,
    transfer_matrix,
    validate_parameter_matrix,
)
from .analysis import (
    CHECK_NAMES,
    BracketFactorization,
    CheckResult,
    JacobiReport,
    KillingReport,
    SeriesReport,
    VerificationReport,
    VerifyConfig,
    bracket_factorization,
    cartan_residual,
    closure_residual,
    derived_abelian_residual,
    jacobi_residual,
    jacobi_residual_at,
    lower_central_series,
    nilpotency_check,
    t_product_residual,
    verify_all,
)
from .oracle import (
    MAX_SYSTEM_DIM,
    AssembledSystem,
    ComparisonReport,
    SolveDiagnostics,
    assemble_system,
    compare_tensors,
    count_equations,
    extract_unknowns,
    oracle_structure_constants,
    solve_system,
    unknown_position,
)
from .serialize import FORMAT_VERSION, read_sample, write_sample

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LieForgeError",
    "ContractViolation",
    "DegenerateParametersError",
    "NullFirstComponentError",
    "GenerationFailedError",
    "SingularSystemError",
    "SystemSizeError",
    "FormatVersionError",
    "DocumentIntegrityError",
    # rng
    "RNG_ID",
    "SplitMix64",
    "NormalStream",
    # linalg
    "EPS",
    "as_field_matrix",
    "commutator",
    "trace",
    "inf_norm",
    "null_residual_tol",
    "rank_and_left_null",
    # sampler
    "FIELDS",
    "MODES",
    "Tolerances",
    "ParameterMatrix",
    "NullData",
    "LieAlgebraSample",
    "sample_parameter_matrix",
    "validate_parameter_matrix",
    "build_adjoint",
    "adjoint_to_structure",
    "transfer_matrix",
    "assemble_sample",
    "generate",
    # analysis
    "CHECK_NAMES",
    "JacobiReport",
    "BracketFactorization",
    "KillingReport",
    "SeriesReport",
    "CheckResult",
    "VerificationReport",
    "VerifyConfig",
    "bracket_factorization",
    "jacobi_residual",
    "jacobi_residual_at",
    "closure_residual",
    "derived_abelian_residual",
    "cartan_residual",
    "lower_central_series",
    "nilpotency_check",
    "t_product_residual",
    "verify_all",
    # oracle
    "MAX_SYSTEM_DIM",
    "AssembledSystem",
    "SolveDiagnostics",
    "ComparisonReport",
    "count_equations",
    "unknown_position",
    "assemble_system",
    "solve_system",
    "extract_unknowns",
    "oracle_structure_constants",
    "compare_tensors",
    # serialization
    "FORMAT_VERSION",
    "write_sample",
    "read_sample",
]
