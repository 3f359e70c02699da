"""1D damage-viscoelasticity simulator and inequality verification harness."""

from .discretization import (
    EigenBasis,
    Mesh1D,
    Operators,
    assemble_operators,
    build_mesh,
    neumann_eigenbasis,
)
from .model import (
    MaterialLaw,
    PotentialSplit,
    ScenarioConfig,
    StrongSettings,
    Tolerances,
    make_potential,
    scalar_fn,
    validate_material,
)
from .regularization import (
    MonotoneGraph,
    RegularizedFunction,
    graph_indicator_box,
    graph_indicator_halfline,
    graph_quadratic,
    make_I_delta,
    make_W_delta,
    regularization_property_check,
    regularize,
    standard_mollifier,
)
from .strong_galerkin import BlowupMonitor, SpectralState, run_strong
from .trajectory import Snapshot, StepReport, Trajectory
from .weak_stepper import (
    DamageSubproblem,
    damage_step,
    momentum_step,
    run_weak,
)

__version__ = "0.1.0"
