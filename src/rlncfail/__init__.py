"""Failure probability of random linear network coding at a sink node.

Exact rational upper/lower bounds from channel-disjoint path sets,
validated against an exact frontier dynamic program and Monte Carlo
simulation over finite fields.
"""

from .bounds import BoundReport, full_report, phi
from .flowpaths import (
    InfeasibleRateError,
    MinInternalResult,
    PathSet,
    disjoint_paths,
    min_cut,
    min_internal_paths,
)
from .galois import (
    FieldSpec,
    make_field,
    make_field_of_order,
    parse_prime_power,
)
from .netmodel import (
    Channel,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    butterfly,
    network_from_text,
    network_to_text,
    plait,
    random_dag,
    read_network,
    write_network,
)
from .rlncsim import (
    CoefficientSlot,
    EnumerationBudgetError,
    ExactProbability,
    FailureEstimate,
    coefficient_count,
    coefficient_slots,
    estimate_failure,
    exact_failure,
    wilson_interval,
)

__version__ = "0.1.0"
