"""Round-synchronous trial driver, trace records, convergence detection,
trace replay validation and batch statistics.

Randomness is keyed by ``SeedSequence([master_seed, trial, player,
purpose])`` so per-agent streams are independent and results do not
depend on execution order or parallelism.  A trace is a header record
plus one epoch record per learner per completed epoch; partial epochs at
budget exhaustion are marked and excluded from statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, config_to_dict, game_from_dict
from .equilibrium import EquilibriumProfile, compute_equilibrium
from .learner import STREAM_PLAY, STREAM_RESET_PICK, EquilibriumRetreatAgent, epoch_step, fresh_state
from .opponents import build_policy
from .schedule import Schedule, check_count

TRACE_SCHEMA = 4


def agent_stream(master_seed: int, trial: int, player: int, purpose: int) -> np.random.Generator:
    """The documented seed-splitting scheme; see module docstring."""
    ss = np.random.SeedSequence([int(master_seed), int(trial), int(player), int(purpose)])
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class RunTrace:
    header: dict
    events: list  # epoch records, one dict per learner per epoch
    rounds_used: int
    epochs: int
    truncated: bool
    partial_rounds: int


@dataclass(frozen=True)
class RunSummary:
    trial: int
    converged: bool | None  # None: insufficient data for the window
    kind: str
    final_phi: dict
    restarts: int
    rounds_used: int
    epochs: int
    epochs_to_convergence: int | None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    epochs_checked: int
    divergence: dict | None  # first divergence: {epoch, player, field, message}


def equilibrium_to_dict(eq: EquilibriumProfile) -> dict:
    return {
        "strategies": [list(map(float, s)) for s in eq.strategies],
        "kind": eq.kind,
        "provenance": eq.provenance,
    }


# -- agent construction -----------------------------------------------------


def _build_agents(config: RunConfig, trial: int, eq: EquilibriumProfile):
    learners: dict[int, EquilibriumRetreatAgent] = {}
    policies = {}
    for player, entry in enumerate(config.roster):
        if entry["agent"] == "learner":
            streams = (
                agent_stream(config.master_seed, trial, player, STREAM_PLAY),
                agent_stream(config.master_seed, trial, player, STREAM_RESET_PICK),
            )
            learners[player] = EquilibriumRetreatAgent(
                config.game, player, config.schedule, eq, streams=streams
            )
        else:
            ss = np.random.SeedSequence(
                [int(config.master_seed), int(trial), int(player), STREAM_PLAY]
            )
            policies[player] = build_policy(entry["policy"], config.game, player, ss)
    return learners, policies


# -- trial driver ------------------------------------------------------------


def run_trial(config: RunConfig, trial: int, eq: EquilibriumProfile | None = None) -> RunTrace:
    """Play one seeded trial to its budget and return the full trace.

    Rounds are strictly simultaneous: all actions for a round are drawn
    before any agent observes the joint profile.  ``eq`` is the config's
    equilibrium, solved here when not given.  Deterministic in (config,
    trial).
    """
    if eq is None:
        eq = compute_equilibrium(config.game, config.eq_override)
    learners, policies = _build_agents(config, trial, eq)
    agents = {**learners, **policies}
    players = [agents[p] for p in range(config.game.num_players)]
    learner_list = [learners[p] for p in sorted(learners)]
    first = learner_list[0]
    # History-dependent policies react to every round, so they play one
    # round of actions per segment.  Otherwise every player's draws are
    # independent of the others', the learners read only histograms, and a
    # segment runs to the epoch's end as one histogram per player.
    one_round = any(pol.history_dependent for pol in policies.values())

    header = {
        "type": "header",
        "schema": TRACE_SCHEMA,
        "trial": trial,
        "config": config_to_dict(config),
        "equilibrium": equilibrium_to_dict(eq),
    }
    events: list[dict] = []
    rounds_used = 0
    epochs = 0

    while rounds_used < config.round_budget and epochs < config.epoch_budget:
        if one_round:
            length = 1
            joint = [agent.act_segment(1) for agent in players]
            outcomes = [lr.observe_segment(joint) for lr in learner_list]
            for pol in policies.values():
                pol.observe_segment(joint)
        else:
            length = min(first.rounds_left_in_epoch(), config.round_budget - rounds_used)
            hists = [agent.act_counts(length) for agent in players]
            outcomes = [lr.observe_counts(hists) for lr in learner_list]
        rounds_used += length
        if all(out is None for out in outcomes):
            continue
        for out in outcomes:
            if out is None:
                raise RuntimeError("learners disagree on where the epoch ends")
            events.append({"type": "epoch", "seq": epochs, **vars(out)})
        epochs += 1

    partial = first.round_in_epoch
    return RunTrace(
        header=header,
        events=events,
        rounds_used=rounds_used,
        epochs=epochs,
        truncated=partial > 0,
        partial_rounds=partial,
    )


# -- convergence detection ----------------------------------------------------


def _epoch_groups(trace: RunTrace) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for rec in trace.events:
        groups.setdefault(rec["seq"], []).append(rec)
    return [groups[k] for k in sorted(groups)]


def _stable_suffix_start(groups: list[list[dict]]) -> int | None:
    """Earliest epoch index from which no restart occurs and every
    learner's strategy is frozen through the end; None if the last epoch
    itself is unstable."""
    start = None
    ref_phi = {rec["player"]: rec["phi_after"] for rec in groups[-1]}
    for i in range(len(groups) - 1, -1, -1):
        stable = not any(rec["restart"] for rec in groups[i]) and all(
            rec["phi_before"] == ref_phi[rec["player"]]
            and rec["phi_after"] == ref_phi[rec["player"]]
            for rec in groups[i]
        )
        if not stable:
            break
        start = i
    return start


def detect_convergence(trace: RunTrace, window: int | None = None) -> RunSummary:
    """Window rule: converged iff the last ``window`` complete epochs saw
    no restart and no strategy change by any learner.

    ``best-response-lock`` means a single learner held the same pure
    strategy, with no restart, over the window; it is not checked to be
    a best response to the observed play.

    The theoretical guarantees this toolkit probes are asymptotic; a
    finite-window detector is an operationalisation and can in
    principle mislabel.
    """
    if window is None:
        window = trace.header["config"]["window"]
    groups = _epoch_groups(trace)
    trial = trace.header["trial"]
    restarts = max((rec["restarts_total"] for g in groups for rec in g), default=0)
    final_phi = (
        {rec["player"]: tuple(rec["phi_after"]) for rec in groups[-1]} if groups else {}
    )
    if len(groups) < window:
        return RunSummary(
            trial=trial,
            converged=None,
            kind="insufficient-data",
            final_phi=final_phi,
            restarts=restarts,
            rounds_used=trace.rounds_used,
            epochs=trace.epochs,
            epochs_to_convergence=None,
        )
    start = _stable_suffix_start(groups)
    stable = start is not None and len(groups) - start >= window
    kind = "none"
    if stable:
        last = groups[-1]
        window_groups = groups[-window:]
        if all(rec["eq_hyp_after"] for rec in last):
            kind = "equilibrium-hypothesis-held"
        else:
            n = len(window_groups[0][0]["counts"])
            pure_lock = True
            for p in range(n):
                plays = []
                for g in window_groups:
                    counts = g[0]["counts"][p]
                    nonzero = [i for i, c in enumerate(counts) if c]
                    if len(nonzero) != 1:
                        pure_lock = False
                        break
                    plays.append(nonzero[0])
                if not pure_lock or len(set(plays)) != 1:
                    pure_lock = False
                    break
            if pure_lock:
                kind = "pure-profile-lock"
            elif len(last) == 1 and sorted(last[0]["phi_after"]) == sorted(
                [0.0] * (len(last[0]["phi_after"]) - 1) + [1.0]
            ):
                kind = "best-response-lock"
    converged = stable and kind != "none"
    return RunSummary(
        trial=trial,
        converged=converged,
        kind=kind,
        final_phi=final_phi,
        restarts=restarts,
        rounds_used=trace.rounds_used,
        epochs=trace.epochs,
        epochs_to_convergence=start if converged else None,
    )


# -- trace replay validation ---------------------------------------------------


def _histograms_fit(hists, shape, rounds: int) -> bool:
    """One nonnegative histogram per player, of its action count, totalling N^t."""
    return (
        isinstance(hists, list)
        and len(hists) == len(shape)
        and all(
            isinstance(h, list) and len(h) == k and min(h) >= 0 and sum(h) == rounds
            for h, k in zip(hists, shape)
        )
    )


def _from_header(field: str, build):
    """``build()``, with a failure reported as a ValueError naming ``field``."""
    try:
        return build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"trace header {field} cannot be built: {type(exc).__name__}: {exc}") from exc


def validate_trace(trace: RunTrace) -> ValidationReport:
    """Replay every epoch record through the learner's own ``epoch_step``
    and report the first field that differs from the replay.

    Besides the replay, only the records' shape and the agreement of
    learners' histograms within an epoch are checked; their flags then
    agree because replay derives them from the histograms alone.  The
    action picked at random after an equilibrium rejection is read from
    the record's ``phi_after``.  Traces produced by run_trial validate
    cleanly; any tampering with a record shows up as a divergence at
    that epoch, a field the replay does not give included, and so does
    an epoch without one record of each learner of the first.  The end
    record must count the epochs and their rounds, with partial_rounds
    below the next epoch's N^t, and a budget must have stopped the run:
    rounds_used at most round_budget, and equal to it unless epoch_budget
    epochs completed.  A field of it that does not is a divergence at the
    epoch after the last, with player None.  A header whose game,
    schedule, equilibrium or budgets cannot be built raises ValueError
    naming that field.
    """
    header = trace.header
    game = _from_header("config.game", lambda: game_from_dict(header["config"]["game"]))
    sched = _from_header("config.schedule", lambda: Schedule(**header["config"]["schedule"]))
    eq = _from_header("equilibrium", lambda: EquilibriumProfile(**header["equilibrium"]))
    shape = game.action_counts
    players = range(game.num_players)
    round_budget, epoch_budget = [
        _from_header(f"config.{key}", lambda: check_count(key, header["config"][key], 1))
        for key in ("round_budget", "epoch_budget")
    ]
    groups = _epoch_groups(trace)

    def diverged(seq, player, fieldname, message) -> ValidationReport:
        info = {"epoch": seq, "player": player, "field": fieldname, "message": message}
        return ValidationReport(ok=False, epochs_checked=len(groups), divergence=info)

    learners = [rec.get("player") for rec in groups[0]] if groups else []
    # Only int indices: 0.0 and True would match an int key.
    state = {p: fresh_state(eq, p) for p in learners if type(p) is int and p in players}

    def pick() -> int:
        # Reads the record being replayed.  A phi_after that is not a pure
        # vector of the player's length gets a pick that cannot reproduce
        # it, so the diff flags phi_after.
        phi = rec.get("phi_after")
        pure = isinstance(phi, list) and sorted(phi) == [0.0] * (shape[p] - 1) + [1.0]
        return phi.index(1.0) if pure else 0

    used = 0  # rounds of the epochs replayed so far
    for seq, group in enumerate(groups):
        for rec in group[1:]:
            if rec.get("counts") != group[0].get("counts"):
                return diverged(seq, rec.get("player"), "counts", "learners' histograms differ")
        stepped = set()
        for rec in group:
            p = rec.get("player")
            if type(p) is not int or p not in state:
                return diverged(seq, p, "player", "not a learner of the first epoch")
            if p in stepped:
                return diverged(seq, p, "player", "a second record of this learner in the epoch")
            stepped.add(p)
            hists = rec.get("counts")
            if not _histograms_fit(hists, shape, sched.rounds(state[p].t)):
                return diverged(seq, p, "counts", "need one histogram per player totalling N^t")
            outcome, state[p] = epoch_step(game, p, sched, eq, state[p], hists, pick)
            replay = {"type": "epoch", "seq": seq, **vars(outcome)}
            if replay != rec:
                for key, want in replay.items():
                    got = rec.get(key)
                    if got != want:
                        return diverged(seq, p, key, f"replay gives {want!r}, trace has {got!r}")
                extra = min(map(str, rec.keys() - replay.keys()))
                return diverged(seq, p, extra, "the replay gives no such field")
        if stepped != state.keys():
            return diverged(seq, min(state.keys() - stepped), "player", "no record of this learner in the epoch")
        used += outcome.rounds
    # The end record: completed epochs, then the rounds of the epoch cut
    # short by the budget, which stopped the run.
    t = next(iter(state.values())).t if groups else 0  # learners' flags, and so t, agree
    partial, used_all = trace.partial_rounds, trace.rounds_used
    partial_ok = type(partial) is int and 0 <= partial < sched.rounds(t)
    used_ok = partial_ok and type(used_all) is int and used_all == used + partial
    for fieldname, ok, want in (
        ("epochs", type(trace.epochs) is int and trace.epochs == len(groups), f"{len(groups)} epochs"),
        ("partial_rounds", partial_ok, f"an integer >= 0 below N^{t} = {sched.rounds(t)}"),
        ("truncated", partial_ok and trace.truncated is (partial > 0), "true exactly when partial_rounds > 0"),
        ("rounds_used", used_ok, f"the epochs' {used} rounds plus partial_rounds"),
        ("rounds_used", used_ok and used_all <= round_budget, f"at most round_budget {round_budget}"),
        ("rounds_used", used_ok and (used_all == round_budget or len(groups) == epoch_budget),
         f"round_budget {round_budget} used up, or epoch_budget {epoch_budget} epochs"),
    ):
        if not ok:
            return diverged(len(groups), None, fieldname, f"need {want}, trace has {getattr(trace, fieldname)!r}")
    return ValidationReport(ok=True, epochs_checked=len(groups), divergence=None)


# -- batch ----------------------------------------------------------------------


@dataclass
class BatchResult:
    config_dict: dict
    summaries: list[RunSummary]
    convergence_fraction: float
    kind_counts: dict
    restart_histogram: dict
    mean_epochs_to_convergence: float | None
    traces: list[RunTrace] | None = None


def _aggregate(config: RunConfig, summaries: list[RunSummary], traces=None) -> BatchResult:
    converged = [s for s in summaries if s.converged]
    kinds: dict[str, int] = {}
    restarts: dict[int, int] = {}
    for s in summaries:
        kinds[s.kind] = kinds.get(s.kind, 0) + 1
        restarts[s.restarts] = restarts.get(s.restarts, 0) + 1
    epochs_tc = [
        s.epochs_to_convergence for s in converged if s.epochs_to_convergence is not None
    ]
    return BatchResult(
        config_dict=config_to_dict(config),
        summaries=summaries,
        convergence_fraction=len(converged) / len(summaries),
        kind_counts=kinds,
        restart_histogram=restarts,
        mean_epochs_to_convergence=(
            sum(epochs_tc) / len(epochs_tc) if epochs_tc else None
        ),
        traces=traces,
    )


def _one_trial(job):
    config, trial, eq = job
    trace = run_trial(config, trial, eq)
    return trace, detect_convergence(trace)


def run_batch(
    config: RunConfig,
    workers: int = 1,
    keep_traces: bool = False,
    on_trace=None,
) -> BatchResult:
    """Run all trials of the config; aggregation is order-independent.

    ``on_trace(trace, summary)`` is called per trial in trial order
    (e.g. to persist traces); set ``keep_traces`` to retain them in the
    result.  The equilibrium is solved once, here, and every trial (in
    a pool worker too) receives it.
    """
    eq = compute_equilibrium(config.game, config.eq_override)
    jobs = [(config, t, eq) for t in range(config.trial_count)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_trial, jobs))
    else:
        results = [_one_trial(j) for j in jobs]
    summaries = []
    traces = [] if keep_traces else None
    for trace, summary in results:
        summaries.append(summary)
        if keep_traces:
            traces.append(trace)
        if on_trace is not None:
            on_trace(trace, summary)
    return _aggregate(config, summaries, traces)
