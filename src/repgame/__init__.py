"""Repeated-game learning experiments: equilibrium precomputation, valid
epoch schedules, an epoch-batched adaptive learner with equilibrium and
stationarity hypothesis testing, scripted opponents, and a seeded,
replay-validated experiment harness."""

from .equilibrium import (
    EquilibriumProfile,
    EquilibriumUnavailableError,
    compute_equilibrium,
    enumerate_pure_nash,
    support_enumeration_2p,
)
from .games import (
    StageGame,
    expected_utility,
    linf_distance,
    pure_action_values,
    pure_strategy,
    regret,
)
from .config import RunConfig
from .harness import (
    RunSummary,
    RunTrace,
    detect_convergence,
    run_batch,
    run_trial,
    validate_trace,
)
from .learner import EpochOutcome, EquilibriumRetreatAgent
from .opponents import (
    EventuallyStationaryPolicy,
    FictitiousPlayPolicy,
    ScriptedPolicy,
    StationaryPolicy,
)
from .schedule import Schedule, check_valid_prefix, never_restart_lower_bound

__version__ = "0.1.0"

__all__ = [
    "EquilibriumProfile",
    "EquilibriumUnavailableError",
    "compute_equilibrium",
    "enumerate_pure_nash",
    "support_enumeration_2p",
    "StageGame",
    "expected_utility",
    "linf_distance",
    "pure_action_values",
    "pure_strategy",
    "regret",
    "RunConfig",
    "RunSummary",
    "RunTrace",
    "detect_convergence",
    "run_batch",
    "run_trial",
    "validate_trace",
    "EpochOutcome",
    "EquilibriumRetreatAgent",
    "EventuallyStationaryPolicy",
    "FictitiousPlayPolicy",
    "ScriptedPolicy",
    "StationaryPolicy",
    "Schedule",
    "check_valid_prefix",
    "never_restart_lower_bound",
]
