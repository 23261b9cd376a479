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
    verify_lmi,
)
from .linalg import (
    SymEigen,
    spectral_norm,
    sym_eigen,
)
from .polytope import (
    AFFINE,
    CONIC,
    CellBounding,
    ContinuityMatrix,
    Partition,
    Polyhedron,
    cell_bounding,
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
    assemble_joint,
    build_interface,
    default_R,
    interface_linear,
    relation_residual,
    solve_relation,
    solve_relation_pairing,
    solve_system_relation,
)
from .simulator import (
    ReferenceSchedule,
    Scenario,
    Trajectory,
    export_trajectory,
    reference_schedule,
    run_scenario,
    step_rk4,
    verdict,
)
from .systems import (
    AbstractionMode,
    DisturbanceSignal,
    LinearAbstraction,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    needs_pairing,
    paired_modes,
    transformed_abstraction_matrix,
)

__version__ = "0.1.0"
