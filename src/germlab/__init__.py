"""Exact local invariants of isolated complete intersection singularities.

The package computes Milnor, Tjurina and Bruce-Roberts-type numbers of
germs at the origin through local standard bases (Mora division) and
syzygies, entirely over exact rational arithmetic, and derives the
GSV-index, local Euler obstruction, Euler obstruction of a function,
Brasselet number and d-th polar multiplicity from the identities
connecting them, re-checking every identity exactly.
"""

from .derlog import BruceRoberts, VarietyGerm, df_theta
from .errors import (
    DegreeLimitExceeded,
    GenericityExhausted,
    GermlabError,
    ICISViolation,
    InfiniteColength,
    ParseError,
    PreconditionViolation,
    ReductionLimitExceeded,
)
from .invariants import (
    IdentityCheck,
    InvariantReport,
    derived_invariants,
    generic_slice,
    milnor_hypersurface,
    milnor_icis,
    tjurina_icis,
)
from .module_ops import (
    intersect,
    jacobian_minors,
    module_sum,
    submodule_pullback,
    syzygies,
)
from .parsing import parse_polynomial
from .problemfile import ProblemFile, parse_problem_file
from .ring import Monomial, Polynomial, RingSpec, format_polynomial, gradient
from .standard_basis import (
    INFINITE,
    ModuleElement,
    StandardBasis,
    Submodule,
    colength,
    is_finite,
    krull_dimension,
    local_colength,
    standard_basis,
    step_cap,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "BruceRoberts",
    "DegreeLimitExceeded",
    "GenericityExhausted",
    "GermlabError",
    "ICISViolation",
    "IdentityCheck",
    "InfiniteColength",
    "InvariantReport",
    "ModuleElement",
    "Monomial",
    "ParseError",
    "Polynomial",
    "PreconditionViolation",
    "ProblemFile",
    "ReductionLimitExceeded",
    "RingSpec",
    "StandardBasis",
    "Submodule",
    "VarietyGerm",
    "colength",
    "derived_invariants",
    "df_theta",
    "format_polynomial",
    "generic_slice",
    "gradient",
    "intersect",
    "is_finite",
    "jacobian_minors",
    "krull_dimension",
    "local_colength",
    "milnor_hypersurface",
    "milnor_icis",
    "module_sum",
    "parse_polynomial",
    "parse_problem_file",
    "standard_basis",
    "step_cap",
    "submodule_pullback",
    "syzygies",
    "tjurina_icis",
]
