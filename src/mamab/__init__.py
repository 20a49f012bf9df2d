"""Multi-agent multi-armed bandit simulation on coordination hypergraphs.

The package provides the combinatorial structure (hypergraph), an exact
joint-arm maximizer with a brute-force oracle (elimination), the
decision policies (policies), benchmark reward worlds (environments), a
trial's random numbers by address (draws), a seeded trial harness
(harness), and a CLI front end (cli).
"""

from .draws import TrialDraws
from .elimination import EliminationResult, brute_argmax, ve_argmax
from .environments import (
    Environment,
    chain_env,
    gem_mining_env,
    load_table_env,
    lower_bound_env,
    make_environment,
    pseudo_regret,
    sample_rewards,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    ExperimentSummary,
    RegretTrace,
    first_optimal_pull,
    run_experiment,
    run_trial,
    summarize,
)
from .hypergraph import Hypergraph, enumerate_joint
from .policies import (
    LocalArmStats,
    PolicyConfig,
    sample_scores,
    select_arm,
    ucb_scores,
    update_stats,
)

__version__ = "0.1.0"

__all__ = [
    "EliminationResult",
    "Environment",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentSummary",
    "Hypergraph",
    "LocalArmStats",
    "PolicyConfig",
    "RegretTrace",
    "TrialDraws",
    "brute_argmax",
    "chain_env",
    "enumerate_joint",
    "first_optimal_pull",
    "gem_mining_env",
    "load_table_env",
    "lower_bound_env",
    "make_environment",
    "pseudo_regret",
    "run_experiment",
    "run_trial",
    "sample_rewards",
    "sample_scores",
    "select_arm",
    "summarize",
    "ucb_scores",
    "update_stats",
    "ve_argmax",
]
