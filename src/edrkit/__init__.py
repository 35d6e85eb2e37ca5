"""edrkit: exact diagonal reduction and completion over commutative Bezout rings."""

from .completion import CompletionResult, complete_row, complete_unimodular
from .matrices import (
    ReductionResult,
    RingMatrix,
    column_reduce,
    determinant,
    diagonal_reduce,
    reduce_2x2,
    verify_reduction,
)
from .registry import (
    ElementSyntaxError,
    ExpressionError,
    RingRegistryEntry,
    format_element,
    make_ring,
    parse_element,
    ring_catalog,
)
from .rings import (
    BezoutCertificate,
    GFPolynomialRing,
    InfiniteRingError,
    IntegerRing,
    ModularRing,
    NonDivisibleError,
    NotAssociatesError,
    NotAUnitError,
    PreconditionError,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    RingMismatchError,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    UnsupportedOperationError,
    arithmetic,
    associate_unit,
    bezout,
    canonical_associate,
    cardinality,
    divide_exact,
    divides,
    element,
    enumerate_elements,
    inverse,
    is_unit,
    one,
    zero,
)
from .stability import (
    ADEQUATE_ELEMENT,
    CLEAN,
    LOCALLY_STABLE,
    NEAT_RANGE_1,
    PROPERTIES,
    STABLE_RANGE_1,
    PropertyVerdict,
    check_property,
    clean_idempotent,
    coprime_factorization,
    is_coprime,
    is_stable,
    lift_unit,
    select_stable,
    sr2_witness,
    unit_mod,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
