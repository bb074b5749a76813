"""Exact generalized power series over ordered value groups, with an
ultrametric correction solver for formal integration, pseudo-direct
decomposition and quotient precision."""

from .errors import (
    AmbiguousShift,
    EmptySupport,
    IndeterminateValuation,
    InvalidNest,
    IterationLimit,
    NoProgress,
    NotPseudoDirect,
    Obstruction,
    ParseError,
    SectionFailure,
    SolveError,
    UnmappedValue,
)
from .fields import QQ, CoefficientField, PrimeField, RationalField, field_by_name
from .valuegroups import (
    INFINITY,
    INTEGERS,
    LEX2,
    RATIONALS,
    IntegerGroup,
    LexPair,
    OrderedValue,
    RationalGroup,
    ValueGroup,
    group_by_name,
    ov_add,
    ov_compare,
    ov_format,
    ov_parse,
)
from .ultrametric import Ball, Nest, ValuedGroup, check_ultrametric, intersect_finite_nest
from .series import Series, SeriesSpace, Term, make_series
from .parsing import (
    parse_series,
    series_from_json,
    series_from_json_dict,
    series_to_json,
    series_to_json_dict,
    series_to_text,
)
from .solver import (
    DEFAULT_MAX_ITER,
    AsymptoticSection,
    HomomorphismSpec,
    SolveResult,
    TraceStep,
    ValueMap,
    check_section_progress,
    check_value_map_order,
    check_value_monotonicity,
    identity_value_map,
    image_ball,
    pull_nest,
    solve,
    trace_entries,
    verify_section_injectivity,
    verify_value_map,
)
from .differential import (
    DifferentialFieldSpec,
    TermwiseDerivation,
    asymptotic_section,
    check_derivative_monotonicity,
    check_differential_valuation,
    check_leibniz,
    ddt,
    derive,
    euler,
    from_tables,
    integrate,
    integration_instance,
    parse_derivation,
    termwise_integral_oracle,
)
from .pseudo_direct import (
    ProductElement,
    ProductGroup,
    SpanSubgroup,
    SupportSubgroup,
    check_pseudo_direct_witness,
    decompose,
    decompose_solve,
    decomposition_instance,
    min_valuation,
    parse_subgroup,
    pseudo_direct_section,
    sum_map,
)
from .reporting import CheckReport
from .sampling import (
    random_ball,
    random_coefficient,
    random_exponent,
    random_nest,
    random_positive,
    random_series,
)
from .fixtures import build_instance, instance_names, run_instance_checks

__version__ = "0.1.0"
