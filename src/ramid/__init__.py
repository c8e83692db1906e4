"""Exact arithmetic for Ramanujan-type square-root product identities:
verification, quadratic construction, closed-form families and exhaustive
enumeration of the perfect and super-perfect cases."""

from .construct import (
    ConditionReport,
    ConstructionResult,
    RootPair,
    build_tuple,
    recover_k,
    solve_roots,
)
from .enumeration import (
    EnumerationReport,
    appendix_distinct,
    enumerate_perfect,
    enumerate_super_perfect,
    load_appendix,
    prime_filter,
    solve_z,
)
from .errors import (
    ConfigurationError,
    FactoringLimitError,
    FamilyDomainError,
    IncompatibleFieldError,
    PreconditionError,
    RamidError,
    TrivialInputError,
)
from .exact import (
    Surd,
    is_prime,
    parse_rational,
    parse_surd,
    squarefree_decompose,
)
from .families import (
    discover,
    general_infinite_family,
    long_identity,
    rebak_family,
    rebak_variant_family,
    surd_family_high,
    surd_family_low,
)
from .identity import (
    Classification,
    IdentityTuple,
    VariationIdentity,
    classify,
    verify,
    verify_tuple,
    verify_variation,
)
from .render import render_latex, render_text

__version__ = "0.1.0"
