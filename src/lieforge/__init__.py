"""Random samples of solvable and nilpotent Lie algebras.

The construction draws a random parameter matrix with a zero first column,
extracts its left null vector, and assembles the adjoint representation of
a solvable Lie algebra in closed form. The package bundles the generator,
an exact-identity verification suite, an independent linear-system oracle
for the structure constants, a canonical JSON document format, and a CLI.

``__all__`` is ``__version__`` plus every module's ``__all__``, each name once.
"""

from . import analysis, errors, linalg, oracle, rng, sampler, serialize
from .errors import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (errors, rng, linalg, sampler, analysis, oracle, serialize)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
