"""Failure probability of random linear network coding at a sink node.

Exact rational upper/lower bounds from cut sequences of channel-disjoint
path sets, validated against exhaustive enumeration and Monte Carlo
simulation over finite fields.
"""

from .bounds import (
    BoundReport,
    Rational,
    cut_profile_bound,
    full_report,
    internal_node_bound,
    phi,
    rate_margin_lower_bound,
    subspace_completion_success,
)
from .flowpaths import (
    InfeasibleRateError,
    MinInternalResult,
    PathSet,
    disjoint_paths,
    min_cut,
    min_internal_paths,
)
from .galois import (
    FieldElement,
    FieldSpec,
    RandomStream,
    make_field,
    make_field_of_order,
    parse_prime_power,
    uniform_element,
)
from .netmodel import (
    Channel,
    ImaginaryInputs,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    ValidationReport,
    butterfly,
    imaginary_inputs,
    network_from_text,
    network_to_text,
    plait,
    random_dag,
    read_network,
    topological_order,
    validate,
    write_network,
)
from .rlncsim import (
    CoefficientAssignment,
    CoefficientSlot,
    EnumerationBudgetError,
    ExactProbability,
    FailureEstimate,
    KernelState,
    coefficient_count,
    coefficient_slots,
    decoding_matrix,
    estimate_failure,
    exact_failure,
    propagate,
    rank_over_field,
    simulate_once,
    uniform_assignment,
    wilson_interval,
)

__version__ = "0.1.0"
