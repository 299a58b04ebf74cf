"""Bicomplex analytic continuation of the PT-symmetric condensate dimer.

Stationary states (including those that exist only after continuation),
bifurcation tracking, and exceptional-point encircling with permutation
signatures.
"""

from .bicomplex import (
    E_MINUS,
    E_PLUS,
    I,
    J,
    K,
    ONE,
    ZERO,
    Bicomplex,
    IdempotentPair,
    ZeroDivisor,
    lift_real_control,
)
from .continuation import (
    BifurcationPoint,
    Branch,
    NoMerger,
    branches_to_csv,
    detect_bifurcations,
    find_merger,
    find_tangent,
    locate_fold,
    locate_pitchfork_gamma,
    stitched_branches,
    sweep_branch,
)
from .ep import (
    AmbiguousMatch,
    EpReport,
    LoopSpec,
    LoopTrace,
    TrackingLost,
    classify_ep,
    encircle,
    trace_summary_json,
    trace_to_csv,
)
from .model import (
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    normalization_residual,
    pt_reflected,
    residual,
)
from .solver import (
    GaugeDegenerate,
    NoConvergence,
    RealSystemView,
    SolveConfig,
    canonical_gauge,
    find_all_states,
    find_states_along,
    newton_solve,
    state_distance,
)

__version__ = "0.1.0"
