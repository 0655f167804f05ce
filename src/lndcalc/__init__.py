"""Exact symbolic computation for algebras with commuting locally nilpotent
derivations: invariant projections, Taylor decompositions, Weyl-algebra
automorphism inversion, exp/log, and differential operator series."""

from .automorphisms import (
    Automorphism,
    Derivation,
    DiffOpSeries,
    aut_compose,
    aut_to_series,
    aut_verify,
    exp_der,
    invert,
    linear_map_table,
    log_aut,
    map_to_series,
    series_apply,
    twisted_partials,
)
from .commpoly import CommPoly
from .errors import (
    CapExceededError,
    JacobianError,
    LndError,
    ParseError,
    RelationError,
    SignatureMismatchError,
    UsageError,
)
from .freealg import FreeElement
from .invariants import (
    GeneratorWitness,
    enumerate_generators,
    graded_kernel_oracle,
    subalgebra_graded_dimension,
    weitzenboeck_closed_form,
    weitzenboeck_invariants,
    weitzenboeck_system,
)
from .multiindex import MultiIndex
from .parsing import (
    CommCarrier,
    FreeCarrier,
    WeylCarrier,
    parse_element,
    parse_images,
)
from .projections import (
    NILPOTENCE_CAP,
    CombinationDerivation,
    InnerDerivation,
    LndSystem,
    PartialDerivation,
    TaylorCoefficients,
    standard_system,
)
from .weyl import (
    DEGREE_CAP,
    WeylElement,
    WeylSignature,
    weyl_mul,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "CapExceededError",
    "CombinationDerivation",
    "CommCarrier",
    "CommPoly",
    "DEGREE_CAP",
    "Derivation",
    "DiffOpSeries",
    "FreeCarrier",
    "FreeElement",
    "GeneratorWitness",
    "InnerDerivation",
    "JacobianError",
    "LndError",
    "LndSystem",
    "MultiIndex",
    "NILPOTENCE_CAP",
    "ParseError",
    "PartialDerivation",
    "RelationError",
    "SignatureMismatchError",
    "TaylorCoefficients",
    "UsageError",
    "WeylCarrier",
    "WeylElement",
    "WeylSignature",
    "aut_compose",
    "aut_to_series",
    "aut_verify",
    "enumerate_generators",
    "exp_der",
    "graded_kernel_oracle",
    "invert",
    "linear_map_table",
    "log_aut",
    "map_to_series",
    "parse_element",
    "parse_images",
    "series_apply",
    "standard_system",
    "subalgebra_graded_dimension",
    "twisted_partials",
    "weitzenboeck_closed_form",
    "weitzenboeck_invariants",
    "weitzenboeck_system",
    "weyl_mul",
]
