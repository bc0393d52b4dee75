"""Power allocation game for two-tier femtocell networks.

A macrocell base station (the leader) charges per-link interference prices;
femtocell user/access-point links (the followers) respond by maximizing
energy efficiency. The package provides the network model, the continuous
best-response game, price selection for the leader, a discrete stochastic
learning variant, independent verification oracles, and an experiment
harness with a CLI front end.
"""

from .continuous import (
    BisectionError,
    EquilibriumBatch,
    best_response,
    run_algorithm1,
    solve_equilibria,
)
from .defaults import default_constants, default_topology
from .discrete import (
    LearnerConfig,
    LearningReport,
    LearningState,
    PowerLawSchedule,
    default_action_sets,
    discrete_equilibria,
    expected_follower_payoff,
    expected_leader_revenue,
    expected_payoffs,
    expected_powers,
    initial_state,
    learning_step,
    run_learning,
    validate_schedules,
    validate_simplex,
    write_learning_csv,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    config_hash,
    run_experiment,
)
from .network import (
    NetworkInstance,
    TopologyConfig,
    dbm_to_watts,
    follower_sinr,
    generate_topology,
    interference,
    sinr_macro,
    validate_power_profile,
    watts_to_dbm,
)
from .payoff import (
    efficiencies,
    follower_payoff,
    leader_revenue,
    payoffs,
    sufficient_conditions,
    validate_prices,
)
from .pricing import (
    Algorithm2Result,
    PriceSearchConfig,
    PriceSearchResult,
    ZeroPriceResult,
    algorithm2_price_step,
    asymptote_price,
    cutoff_price,
    run_algorithm2,
    se_price_search,
    zero_price_equilibrium,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    network_from_scenario,
    save_network,
)

__version__ = "0.1.0"
