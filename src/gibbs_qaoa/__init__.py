"""Exact state-vector simulation and variational optimization for standard
and Gibbs-targeting alternating-operator circuits on small Ising instances.
"""

from .eigensolver import EigenDecomposition, EigenSolverError, eigh
from .evolution import CircuitSimulator, CostKind, plus_state
from .ising import (
    GibbsDistribution,
    GroundSet,
    InstanceError,
    InstanceFormatError,
    IsingInstance,
    energy_table,
    gibbs_amplitudes,
    gibbs_distribution,
    ground_set,
    parse_instance,
    toy_instance,
)
from .metrics import (
    fairness_gap,
    ground_state_probability,
    orbit_probabilities,
    total_variation_distance,
)
from .operators import (
    SboOperator,
    alpha,
    apply_operator,
    build_sbo,
    densify,
    local_terms,
)
from .powell import ObjectiveError, OptResult, PowellOptions, powell_minimize
from .variational import QaoaProblem, optimize_qaoa

__version__ = "0.1.0"
