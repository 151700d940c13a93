"""Limited-commitment contracting toolkit.

Library layout:

* :mod:`contract_forge.exprlang` - the payoff expression language;
* :mod:`contract_forge.env_core` - environments, payoffs, beliefs;
* :mod:`contract_forge.contracts` - mechanisms and canonical contract spaces;
* :mod:`contract_forge.equilibrium` - continuation/robust equilibrium
  checking, enumeration, and canonicalization on finite environments;
* :mod:`contract_forge.revisable` - bounded-revision models and the
  full-commitment equivalence machinery;
* :mod:`contract_forge.solver_single` - optimal single offers with
  discretionary follow-up and exit;
* :mod:`contract_forge.solver_agency` - two-principal common agency;
* :mod:`contract_forge.cli` - scenario files, command dispatch, reports.
"""

from .env_core import (
    ActionValue,
    Allocation,
    Belief,
    Environment,
    OPT_OUT,
    PayoffModel,
    PrincipalSpec,
    TypeSpace,
    expect,
    payoff_u,
    payoff_v,
    validate,
)
from .contracts import (
    Mechanism,
    Message,
    canonical_counterpart,
    enumerate_gsharp,
    enumerate_gstar,
    enumerate_private,
    image,
    is_equiv,
    menu_rec,
    necessity_environment,
    plain_menu,
    plain_menu_scenario,
    refines,
    submenu,
)
from .equilibrium import (
    Assessment,
    BeliefSystem,
    EquilibriumReport,
    FoundEquilibrium,
    RobustReport,
    SearchOptions,
    bayes_update,
    build_assessment,
    canonicalize,
    check_continuation,
    check_robust,
    enumerate_equilibria,
    induced_allocation,
    principal_value,
)
from .revisable import (
    GridGame,
    RevisableModel,
    build_grid_game,
    check_gamma_equal,
    collapse_to_full,
    endpoint_baseline,
    feasible_final_interval,
    lift_to_limited,
    posterior_ideal,
)
from .solver_single import (
    SingleProblem,
    SolveResult,
    cutoff,
    expected_profit,
    solve,
)
from .solver_agency import (
    AgencyEquilibrium,
    AgencyProblem,
    best_response,
    bilateral_reduce,
    fixed_point,
    robustness_check,
)

__version__ = "0.1.0"
