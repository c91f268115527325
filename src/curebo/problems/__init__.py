"""Black-box problems: the analytical validation pair and the cure simulator."""

from curebo.problems.analytical import (
    DOC_COEFFS,
    DOC_THRESHOLD,
    U_COEFFS,
)
from curebo.problems.blackbox import (
    Problem,
    analytical_problem,
    four_point_problem,
    two_point_problem,
)
from curebo.problems.cycle import (
    CureCycle,
    InfeasibleCycleError,
    baseline_cycle,
    build_cycle,
    four_point_cycle,
    two_point_cycle,
)
from curebo.problems.simulate import (
    CureTrace,
    IntegrationError,
    KineticParams,
    MechanicalParams,
    chile_modulus,
    cure_rate,
    glass_transition_c,
    shrinkage_strain,
    simulate_cure,
    viscosity,
    volumetric_shrinkage,
)

__all__ = [
    "CureCycle",
    "CureTrace",
    "DOC_COEFFS",
    "DOC_THRESHOLD",
    "IntegrationError",
    "InfeasibleCycleError",
    "KineticParams",
    "MechanicalParams",
    "Problem",
    "U_COEFFS",
    "analytical_problem",
    "baseline_cycle",
    "build_cycle",
    "chile_modulus",
    "cure_rate",
    "four_point_cycle",
    "four_point_problem",
    "glass_transition_c",
    "shrinkage_strain",
    "simulate_cure",
    "two_point_cycle",
    "two_point_problem",
    "viscosity",
    "volumetric_shrinkage",
]
