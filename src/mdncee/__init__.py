"""Energy-efficiency optimization for network-coded multi-user relay networks.

Jointly selects a relay subset (binary scheduling) and continuous transmit
powers to maximize bits-per-joule under an outage-probability constraint,
for two forwarding schemes:

* MDNC -- relays forward linear combinations of all user messages, so any
  M received network codewords recover all M messages;
* NoNC -- relays forward each user's message separately in time.

The package pairs every analytic formula with an independent ground truth:
exhaustive outcome enumeration for the outage expressions, Monte Carlo
simulation over Rayleigh fading for empirical outage/EE, dense grid and
brute-force subset search for the optimizer.
"""

from .model import (
    LinkCoefficients,
    ScenarioConfig,
    ScenarioError,
    apply_relay_shift,
    build_link_coefficients,
    load_scenario,
    validate_scenario,
)
from .outage import (
    OutageBreakdown,
    PowerAllocation,
    RelaySchedule,
    link_outage,
    nonc_outage,
    outage_exact,
    relay_decode_prob,
)
from .energy import (
    EnergyBreakdown,
    energy_budget_ok,
    energy_efficiency,
    total_energy,
)
from .convex_solver import PrimalProblem, PrimalSolution, assemble_primal, gradients, solve_primal
from .optimizer import (
    GoaState,
    Solution,
    dinkelbach_solve,
    exact_outage,
    goa_solve,
    nonc_solve,
    relay_count_bounds,
)
from .simulate import McConfig, McResult, brute_force_optimize, monte_carlo_outage

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "LinkCoefficients",
    "build_link_coefficients",
    "apply_relay_shift",
    "validate_scenario",
    "load_scenario",
    "RelaySchedule",
    "PowerAllocation",
    "OutageBreakdown",
    "link_outage",
    "relay_decode_prob",
    "outage_exact",
    "nonc_outage",
    "EnergyBreakdown",
    "total_energy",
    "energy_budget_ok",
    "energy_efficiency",
    "PrimalProblem",
    "PrimalSolution",
    "assemble_primal",
    "solve_primal",
    "gradients",
    "GoaState",
    "Solution",
    "relay_count_bounds",
    "goa_solve",
    "dinkelbach_solve",
    "exact_outage",
    "nonc_solve",
    "McConfig",
    "McResult",
    "monte_carlo_outage",
    "brute_force_optimize",
]
