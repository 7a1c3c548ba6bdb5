"""morkit: interpolatory model reduction for sparse second-order
index-1 descriptor systems.

The library reduces large sparse structured systems

    M11 x1'' + L11 x1' + K11 x1 + K12 x2 = F1 u
                         K21 x1 + K22 x2 = F2 u
                 y = H1 x1 + H2 x2 + Da u

to small dense second-order models by IRKA-style tangential Hermite
interpolation, working only with the sparse blocks (the dense Schur
complement of K22 is never formed), and verifies reductions in the
frequency domain.
"""

from .analysis import (
    FrequencySweep,
    SpeedupReport,
    StabilityReport,
    TransferSample,
    eval_full,
    eval_reduced,
    schur_equivalence_check,
    speedup_report,
    stability_report,
    sweep,
)
from .errors import (
    ConvergenceWarning,
    DimensionError,
    Index1ViolationError,
    MorkitError,
    PencilSingularError,
    RankDeficiencyWarning,
    ShiftCollisionError,
    SingularMatrixError,
    StructuralError,
)
from .irka import (
    CompanionPencil,
    InterpolationData,
    IrkaConfig,
    IterationTrace,
    ProjectionBasis,
    back_to_index1,
    build_bases,
    companion,
    initial_interpolation,
    irka_first_order,
    irka_second_order_index1,
    reduce,
    tangential_solve_left,
    tangential_solve_right,
    update_interpolation,
)
from .system import (
    ReducedSecondOrderModel,
    SecondOrderIndex1System,
    SystemReport,
    generate_synthetic,
    load_reduced_model,
    load_system,
    save_reduced_model,
    save_system,
    to_dense_schur,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CompanionPencil",
    "ConvergenceWarning",
    "DimensionError",
    "FrequencySweep",
    "Index1ViolationError",
    "InterpolationData",
    "IrkaConfig",
    "IterationTrace",
    "MorkitError",
    "PencilSingularError",
    "ProjectionBasis",
    "RankDeficiencyWarning",
    "ReducedSecondOrderModel",
    "SecondOrderIndex1System",
    "ShiftCollisionError",
    "SingularMatrixError",
    "SpeedupReport",
    "StabilityReport",
    "StructuralError",
    "SystemReport",
    "TransferSample",
    "back_to_index1",
    "build_bases",
    "companion",
    "eval_full",
    "eval_reduced",
    "generate_synthetic",
    "initial_interpolation",
    "irka_first_order",
    "irka_second_order_index1",
    "load_reduced_model",
    "load_system",
    "reduce",
    "save_reduced_model",
    "save_system",
    "schur_equivalence_check",
    "speedup_report",
    "stability_report",
    "sweep",
    "tangential_solve_left",
    "tangential_solve_right",
    "to_dense_schur",
    "update_interpolation",
    "validate",
]
