"""Hierarchical tracking control of piecewise-affine systems with certified
output-error bounds: relation solving, interface synthesis, Lyapunov-like
certificate verification, and closed-loop hybrid simulation."""

from .certificate import (
    Certificate,
    LmiReport,
    ModeCertificate,
    sim_fn_derivative,
    sim_fn_value,
    sim_fn_values,
    synthesize_certificate,
    verify_all,
)
from .polytope import (
    AFFINE,
    CONIC,
    Partition,
    Polyhedron,
    classify_cell,
    contains_mapped,
    joint_partition,
    locate_mode,
    vertices_2d,
)
from .relation import (
    Interface,
    JointMode,
    JointSystem,
    RelationMaps,
    build_interface,
    default_R,
    relation_residual,
    solve_relation,
    solve_relation_pairing,
    solve_system_relation,
)
from .simulator import (
    ReferenceSchedule,
    Scenario,
    Trajectory,
    export_run,
    reference_schedule,
    run_scenario,
    verdict,
)
from .systems import (
    AbstractionMode,
    DisturbanceSignal,
    LinearAbstraction,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    paired_modes,
    transformed_abstraction_matrix,
)

__version__ = "0.1.0"
