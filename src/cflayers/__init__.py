"""Compression-rate regions for compress-forward relay networks.

Build the product-form joint of a discrete memoryless relay network, evaluate
the outer bound on compression rate vectors and the staged region of any
layering (ordered partition of the relays), and search for a layering that
accepts a target rate vector by repeatedly shifting the violating relays one
decode layer deeper.
"""

from .demo import demo_spec
from .errors import (
    CFLayersError,
    DimensionTooHighError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidRatesError,
    InvalidSpecError,
    InvalidSubsetError,
    LayeringSyntaxError,
    NotConvergedError,
    TableTooLargeError,
    TooManyRelaysError,
    UnknownVariableError,
)
from .geometry import Atlas, HalfSpace, enumerate_vertices, export_atlas, h_rep, outer_h_rep
from .layering import (
    Layering,
    active,
    canonicalize,
    compact,
    cumulative_complement,
    decoding_schedule,
    enumerate_layerings,
    make_layering,
    parse_layering,
    prefix_union,
    shift,
    validate_layering,
)
from .probability import (
    ChannelSpec,
    JointPmf,
    RelaySpec,
    Variable,
    build_joint,
    build_relay_joint,
    load_spec,
    spec_from_json_obj,
    validate_spec,
)
from .region import (
    DEFAULT_EPSILON,
    ConstraintReport,
    RateVector,
    block_cond_entropy,
    boundary_rhs,
    check_layered,
    check_outer,
    compression_floor,
    floor_sum,
    h_term,
    layered_rhs,
    load_rates,
    mi_gap,
    source_rate,
    window_gap_forms,
)
from .solver import (
    SolveStep,
    SolveTrace,
    brute_force_layering,
    default_max_iter,
    solve,
    verify_core,
)

__version__ = "0.1.0"
