import importlib.util

import repgame

# The package's public names.  A change to them edits this tuple, so it is deliberate.
PUBLIC = (
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
)


def test_public_surface_is_pinned():
    assert tuple(repgame.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(repgame, name)] == []
    # The test catalog of games lives in tests/, not in the package.
    assert importlib.util.find_spec("repgame.catalog") is None
