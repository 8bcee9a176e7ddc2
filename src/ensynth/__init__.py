"""Region-theoretic synthesis of elementary net systems from transition systems.

The package decides state separation (SSP), event/state separation (ESSP)
and feasibility with witness regions, implements the polynomial SSP
algorithm for linear 2-fold systems, synthesizes region-restricted
elementary net systems with reachability-graph verification, and generates
the one-in-three-SAT reduction instances whose correctness claims the test
suite executes at desk scale.
"""

from .ts import (
    ParseError,
    TransitionSystem,
    TsClass,
    ValidationReport,
    classify,
    linear_word,
    parse_ts,
    serialize_ts,
    validate,
)
from .regions import (
    Region,
    RegionConstraint,
    aggregate_signature,
    check_region,
    enumerate_regions,
    format_region,
    solve_all_regions,
    solve_region,
)
from .properties import (
    SeparationQuery,
    TimeoutExceeded,
    Verdict,
    has_essp,
    has_ssp,
    inhibitable,
    is_essp_witness,
    is_feasible,
    is_ssp_witness,
    separable,
)
from .unions import (
    JoinPlan,
    TsUnion,
    default_join_plan,
    join,
    lift_region,
    make_union,
    parse_union,
    rectify,
    serialize_union,
)
from .linear2 import (
    SeparatorResult,
    find_exact_2fold_subsequence,
    linear2_ssp,
    second_occurrence_index,
    separator,
)
from .synthesis import (
    ElementaryNetSystem,
    ReachabilityGraph,
    check_morphism,
    fire,
    language_equal,
    parse_ens,
    reachability_graph,
    serialize_ens,
    synthesize,
    ts_isomorphic,
)
from .reductions import (
    CubicMonotoneFormula,
    GadgetInstance,
    build_2grade2_essp,
    build_2grade2_ssp,
    build_key_region_2grade2,
    build_key_region_linear3,
    build_linear3_essp,
    build_linear3_ssp,
    find_one_in_three_models,
    is_one_in_three_model,
    parse_cnf3,
    serialize_cnf3,
)

__version__ = "0.1.0"
