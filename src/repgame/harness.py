"""Round-synchronous trial driver, trace records, convergence detection,
trace replay validation and batch statistics.

Randomness is keyed by ``SeedSequence([master_seed, trial, player,
purpose])`` so per-agent streams are independent and results do not
depend on execution order or parallelism.  A trace is a header record
plus one epoch record per learner per completed epoch; partial epochs at
budget exhaustion are marked and excluded from statistics.
"""
from __future__ import annotations

import contextlib
import functools
import json
import pickle
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_run_config, config_to_dict
from .equilibrium import EquilibriumProfile, EquilibriumUnavailableError, is_equilibrium
from .games import as_strategy
from .learner import STREAM_PLAY, STREAM_RESET_PICK, EquilibriumRetreatAgent, epoch_step, fresh_state, histogram_total
from .schedule import check_count

TRACE_SCHEMA = 5


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
    partial_rounds: int  # > 0: the budget cut an epoch short


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
    epochs_checked: int  # epochs replayed before the first divergence
    divergence: dict | None  # first divergence: {epoch, player, field, message}


def run_header(config: RunConfig, trial: int, eq: EquilibriumProfile | None = None) -> dict:
    """The header record run_trial writes for ``trial`` of ``config``, and the one validate_trace
    accepts; ``eq`` stands in for ``config.equilibrium``, which solves the game if not yet read."""
    eq = config.equilibrium if eq is None else eq
    return {
        "type": "header",
        "schema": TRACE_SCHEMA,
        "trial": trial,
        "config": config_to_dict(config),
        "equilibrium": {"strategies": [list(map(float, s)) for s in eq.strategies], "provenance": eq.provenance},
    }


# -- agent construction -----------------------------------------------------


def _build_agents(config: RunConfig, trial: int):
    learners: dict[int, EquilibriumRetreatAgent] = {}
    policies = {}
    for player, policy in enumerate(config.policies):
        if policy is None:
            streams = (
                agent_stream(config.master_seed, trial, player, STREAM_PLAY),
                agent_stream(config.master_seed, trial, player, STREAM_RESET_PICK),
            )
            learners[player] = EquilibriumRetreatAgent(
                config.game, player, config.schedule, config.equilibrium, streams=streams
            )
        else:
            ss = np.random.SeedSequence([int(config.master_seed), int(trial), int(player), STREAM_PLAY])
            policies[player] = policy.seeded(ss)
    return learners, policies


# -- trial driver ------------------------------------------------------------


def _play_segment(players, policies: dict, responders: list[int], length: int) -> list[np.ndarray]:
    """The joint actions of the next ``length`` rounds, shown to every
    opponent policy.  Learners and history-free policies draw theirs in
    one call.  A history-dependent policy's action in a round depends only
    on the rounds before it, so a single one answers the whole segment in
    one ``respond_segment`` call; two or more answer each other one round
    at a time."""
    joint = [
        np.zeros(length, dtype=np.int64) if p in responders else agent.act_segment(length)
        for p, agent in enumerate(players)
    ]
    if len(responders) == 1:
        steps = [joint]
    else:
        steps = ([a[r : r + 1] for a in joint] for r in range(length))
    for step in steps:  # views into joint, so answers land there
        for p in responders:
            step[p][:] = policies[p].respond_segment(step)
        for p in responders:
            policies[p].observe_segment(step)
    for p, pol in policies.items():
        if p not in responders:
            pol.observe_segment(joint)
    return joint


def run_trial(config: RunConfig, trial: int) -> RunTrace:
    """Play one seeded trial to its budget and return the full trace.

    Rounds are strictly simultaneous: all actions for a round are drawn
    before any agent observes the joint profile.  Every learner plays
    ``config.equilibrium``.  Deterministic in (config, trial).
    """
    learners, policies = _build_agents(config, trial)
    agents = {**learners, **policies}
    players = [agents[p] for p in range(config.game.num_players)]
    learner_list = [learners[p] for p in sorted(learners)]
    first = learner_list[0]
    # A segment runs to the epoch's end or the budget.  Without a
    # history-dependent policy every player's draws are independent of the
    # others' and the learners read only histograms, so a segment is one
    # histogram per player; with one, it is every player's actions.
    responders = [p for p, pol in policies.items() if pol.history_dependent]

    events: list[dict] = []
    rounds_used = 0
    epochs = 0

    while rounds_used < config.round_budget and epochs < config.epoch_budget:
        length = min(first.rounds_left_in_epoch(), config.round_budget - rounds_used)
        if responders:
            joint = _play_segment(players, policies, responders, length)
            outcomes = [lr.observe_segment(joint) for lr in learner_list]
        else:
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

    return RunTrace(
        header=run_header(config, trial),
        events=events,
        rounds_used=rounds_used,
        epochs=epochs,
        partial_rounds=first.round_in_epoch,
    )


# -- convergence detection ----------------------------------------------------


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


def _lock_kind(window_groups: list[list[dict]]) -> str:
    """The kind of a window of epochs: ``none`` if a learner restarted or
    changed strategy in it; else, tested in this order,
    ``equilibrium-hypothesis-held`` (every learner's hypothesis held in the
    last epoch), ``pure-profile-lock`` (in each epoch's first record, every
    player's histogram has the same single nonzero entry),
    ``best-response-lock`` (a single learner holds a pure strategy), else
    ``none``."""
    if _stable_suffix_start(window_groups) != 0:
        return "none"
    last = window_groups[-1]
    if all(rec["eq_hyp_after"] for rec in last):
        return "equilibrium-hypothesis-held"
    supports = {tuple(tuple(i for i, c in enumerate(h) if c) for h in g[0]["counts"]) for g in window_groups}
    if len(supports) == 1 and all(len(s) == 1 for s in supports.pop()):
        return "pure-profile-lock"
    phi = last[0]["phi_after"]
    if len(last) == 1 and sorted(phi) == [0.0] * (len(phi) - 1) + [1.0]:
        return "best-response-lock"
    return "none"


def detect_convergence(trace: RunTrace) -> RunSummary:
    """Window rule: converged iff ``_lock_kind`` gives the last ``window``
    complete epochs, the header config's ``window``, a kind other than
    ``none``, which needs no restart and no strategy change by any learner
    in them.  With fewer complete epochs the kind is ``insufficient-data``.

    ``best-response-lock`` means a single learner held the same pure
    strategy, with no restart, over the window; it is not checked to be
    a best response to the observed play.

    The theoretical guarantees this toolkit probes are asymptotic; a
    finite-window detector is an operationalisation and can in
    principle mislabel.
    """
    window = trace.header["config"]["window"]
    # Epoch s is events[s*L:(s+1)*L], one record per learner, as validate_trace reads it.
    events, epochs = trace.events, trace.epochs
    size = len(events) // epochs if epochs else 0
    groups = [events[s * size : (s + 1) * size] for s in range(epochs)]
    kind = _lock_kind(groups[-window:]) if len(groups) >= window else "insufficient-data"
    converged = None if kind == "insufficient-data" else kind != "none"
    return RunSummary(
        trial=trace.header["trial"],
        converged=converged,
        kind=kind,
        final_phi={rec["player"]: tuple(rec["phi_after"]) for rec in groups[-1]} if groups else {},
        restarts=max((rec["restarts_total"] for rec in trace.events), default=0),
        rounds_used=trace.rounds_used,
        epochs=trace.epochs,
        epochs_to_convergence=_stable_suffix_start(groups) if converged else None,
    )


# -- trace replay validation ---------------------------------------------------


# JSON with sorted keys tells 1, 1.0 and true apart, where ``==`` does not.
_canonical = json.JSONEncoder(sort_keys=True).encode


def _first_difference(want: dict, got: dict) -> str:
    """The dotted name of the first field, in ``want``'s order, at which ``got`` differs in value or type."""
    fields = [*want, *sorted(got.keys() - want.keys(), key=str)]
    key = next(k for k in fields if k not in want or k not in got or _canonical(want[k]) != _canonical(got[k]))
    nested = isinstance(want.get(key), dict) and isinstance(got.get(key), dict)
    return f"{key}.{_first_difference(want[key], got[key])}" if nested else str(key)


# An epoch record's fields that hold a float or a list of floats.
_FLOAT_FIELDS = ("eps_e", "eps_s", "margin", "phi_before", "phi_after")


def _float_entries(rec: dict) -> list:
    """The ``_FLOAT_FIELDS`` of an epoch record, in one list."""
    return [rec["eps_e"], rec["eps_s"], rec["margin"], *rec["phi_before"], *rec["phi_after"]]


def _floats_differ(want, got) -> bool:
    """Whether ``got``, equal by ``==`` to ``want``, a float or a list of floats, holds
    a non-float or a zero of the other sign."""
    if type(want) is float:
        want, got = [want], [got]
    bits = f"{len(want)}d"
    return [*map(type, got)] != [*map(type, want)] or struct.pack(bits, *got) != struct.pack(bits, *want)


@functools.lru_cache(maxsize=32)
def _header_config(key: bytes) -> RunConfig:
    """The RunConfig of a trace header, given its pickle with ``trial`` set to 0, once the
    header is the one run_trial writes for it, compared as ``_canonical`` JSON.  Equal
    pickles hold the same types, float bits, key order and structure, so they have the same
    JSON: a hit needs no encode, and a header that differs only in key order or in shared
    references misses.  The checks that need no solve of the game come first: the header
    with its own equilibrium, then that equilibrium's regrets."""
    header = pickle.loads(key)
    try:
        text = _canonical(header)
    except (TypeError, ValueError) as exc:  # only a header built in memory can hold a non-JSON value
        raise ValueError(f"trace header is not JSON: {exc}") from exc

    def require(want: dict) -> None:
        if _canonical(want) != text:
            name = _first_difference(want, header)
            raise ValueError(f"trace header {name} is not what run_trial writes for the header's config")

    doc, recorded = header.get("config"), header.get("equilibrium")
    if not isinstance(doc, dict) or not isinstance(doc.get("game"), dict):
        raise ValueError("trace header config.game must be an inline game mapping; the replay reads no file")
    config = build_run_config(doc, source="trace header config")
    game = config.game
    try:
        strategies = [as_strategy(s, k) for s, k in zip(recorded["strategies"], game.action_counts, strict=True)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"trace header equilibrium.strategies is not what run_trial writes: {exc}") from exc
    require(run_header(config, 0, EquilibriumProfile(strategies, recorded.get("provenance"))))
    if not is_equilibrium(game, strategies):
        raise ValueError("trace header equilibrium.strategies is not what run_trial writes: not an equilibrium")
    try:
        require(run_header(config, 0))
    except EquilibriumUnavailableError as exc:  # no run could have written the header
        raise ValueError(f"trace header equilibrium cannot be computed: {exc}") from exc
    return config


def validate_trace(trace: RunTrace) -> ValidationReport:
    """Report the first field where ``trace`` is not what run_trial writes for its header.

    One rule for every record: it must equal the record run_trial writes,
    by value, by type and, for a float, by sign.  The header must be
    ``run_header`` of its ``trial`` (an integer >= 0) and of its config,
    an inline run document that ``build_run_config`` accepts (no file is
    read), compared as JSON; otherwise this raises ValueError naming the
    first field that differs.
    Epoch s is ``trace.events[s*L:(s+1)*L]``, one record per learner of
    the header's roster, in player order.  Each holds one histogram of
    ints per player totalling N^t, and is diffed field by field with the
    record ``epoch_step`` gives for its learner on the histograms of the
    epoch's first record; the action picked at random after an
    equilibrium rejection is read from ``phi_after``.  After n epochs of
    ``used`` rounds the end record is ``epochs`` n, ``rounds_used``
    (``used`` if n is ``epoch_budget``, else ``round_budget``) and
    ``partial_rounds`` (their difference), where a budget stops a run: n
    at most ``epoch_budget``, ``rounds_used`` at most ``round_budget``,
    ``partial_rounds`` from 0 to below the next epoch's N^t; it diverges
    at epoch n, player None.  A header or record that is not a mapping
    raises ValueError.

    The replay checks the decisions, not the draws, nor the header fields
    they never read (``master_seed``, ``trial_count``, ``window``, the
    opponents' descriptors, a harmonic schedule's ``rate``, a budget that
    did not bind).  The header check is cached per process by the header's
    pickle, so the headers of a batch, which differ only in ``trial``, are
    encoded and checked once, and each trace after that pays one pickle.
    """
    header = trace.header
    if not isinstance(header, dict):
        raise ValueError(f"trace header must be a mapping, got {header!r}")
    check_count("trace header trial", header.get("trial"), 0)
    try:
        key = pickle.dumps({**header, "trial": 0}, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:  # a lambda, say
        raise ValueError(f"trace header is not JSON: {exc}") from exc
    config = _header_config(key)
    game, sched, eq = config.game, config.schedule, config.equilibrium
    shape = game.action_counts

    def diverged(seq, player, fieldname, message) -> ValidationReport:
        info = {"epoch": seq, "player": player, "field": fieldname, "message": message}
        return ValidationReport(ok=False, epochs_checked=seq, divergence=info)

    def pick() -> int:
        # Reads the record being replayed.  A phi_after that is not a pure
        # vector of the player's length gets a pick that cannot reproduce
        # it, so the diff flags phi_after.
        phi, k = rec.get("phi_after"), shape[p]
        pure = isinstance(phi, list) and len(phi) == k and phi.count(1.0) == 1 and phi.count(0.0) == k - 1
        return phi.index(1.0) if pure else 0

    # The learners, in player order: the order of their records in an epoch.
    state = {p: fresh_state(eq, p) for p, entry in enumerate(config.roster) if entry["agent"] == "learner"}
    events, size = trace.events, len(state)
    epochs = -(-len(events) // size)
    used = 0  # rounds of the epochs replayed so far
    for seq in range(epochs):
        first = seq * size
        for p, rec in zip(state, events[first : first + size] + [{}] * size):  # a short last epoch lacks records
            if not isinstance(rec, dict):
                raise ValueError(f"trace epoch {seq} record of learner {p} must be a mapping, got {rec!r}")
            n_rounds = sched.rounds(state[p].t)
            if histogram_total(rec.get("counts"), shape) != n_rounds:
                want = f"one histogram of ints per player totalling N^t = {n_rounds}"
                return diverged(seq, p, "counts", f"need {want}, trace has {rec.get('counts')!r}")
            outcome, state[p] = epoch_step(game, p, sched, eq, state[p], events[first]["counts"], pick)
            replay = {"type": "epoch", "seq": seq, **vars(outcome)}
            # By type too, and a float by its sign, as JSON tells 1, 1.0,
            # true, 0.0 and -0.0 apart and ``==`` does not; histogram_total
            # has checked the counts' entries.
            if (
                replay != rec
                or [*map(type, replay.values())] != [*map(type, map(rec.get, replay))]
                or _floats_differ(_float_entries(replay), _float_entries(rec))
            ):
                for key, want in replay.items():
                    got = rec.get(key)
                    if got != want or type(got) is not type(want):
                        return diverged(seq, p, key, f"replay gives {want!r}, trace has {got!r}")
                    if key in _FLOAT_FIELDS and _floats_differ(want, got):
                        return diverged(seq, p, key, f"replay gives {want!r}, trace has {got!r}")
                extra = min(map(str, rec.keys() - replay.keys()))
                return diverged(seq, p, extra, "the replay gives no such field")
        used += n_rounds
    rounds_used = used if epochs == config.epoch_budget else config.round_budget
    partial = rounds_used - used
    for fieldname, want in (("epochs", epochs), ("rounds_used", rounds_used), ("partial_rounds", partial)):
        got = getattr(trace, fieldname)
        if got != want or type(got) is not type(want):
            return diverged(epochs, None, fieldname, f"need {want} {fieldname}, trace has {got!r}")
    n_rounds = sched.rounds(next(iter(state.values())).t)  # the next epoch's; the learners' t agree
    if epochs > config.epoch_budget or rounds_used > config.round_budget or not 0 <= partial < n_rounds:
        budgets = f"epoch_budget {config.epoch_budget} and round_budget {config.round_budget}"
        stop = f"{epochs} epochs of {used} rounds and {partial} of the next epoch's {n_rounds}"
        return diverged(epochs, None, "epochs", f"no run under {budgets} stops after {stop}")
    return ValidationReport(ok=True, epochs_checked=epochs, divergence=None)


# -- batch ----------------------------------------------------------------------


@dataclass
class BatchResult:
    config_dict: dict
    summaries: list[RunSummary]
    convergence_fraction: float
    kind_counts: dict
    restart_histogram: dict
    mean_epochs_to_convergence: float | None


def _aggregate(config: RunConfig, summaries: list[RunSummary]) -> BatchResult:
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
    )


def _one_trial(job):
    config, trial = job
    trace = run_trial(config, trial)
    return trace, detect_convergence(trace)


# Blocks a pool worker gets over a batch: one queue round trip costs about
# half a short trial, and more than one block per worker lets a worker that
# finishes early take another.
_BLOCKS_PER_WORKER = 4


def _trial_block(job):
    """Trials ``start`` to ``stop - 1`` of the config, in order, stopping at
    the first that raises: the (trace, summary) of each trial that ran, and
    that trial's exception or None."""
    config, start, stop = job
    done = []
    for trial in range(start, stop):
        try:
            done.append(_one_trial((config, trial)))
        except Exception as exc:
            return done, exc
    return done, None


def _pool_block(job):
    """``_trial_block`` in a pool worker.  Pickling drops an exception's
    traceback, so it is wrapped as the pool wraps an exception a job
    raises: the parent's copy has the worker's traceback text as its cause."""
    from concurrent.futures.process import _ExceptionWithTraceback

    done, error = _trial_block(job)
    return done, error if error is None else _ExceptionWithTraceback(error, error.__traceback__)


def run_batch(config: RunConfig, workers: int = 1, on_trace=None) -> BatchResult:
    """Run all trials of the config; aggregation is order-independent.

    Trials stream in trial order: ``on_trace(trace, summary)`` (e.g. to
    persist traces) is called on each as soon as it and every trial
    before it have finished, so a failing trial still delivers all the
    trials before it.  A pool runs blocks of consecutive trials, about
    four per worker, and delivers a block's trials once the whole block
    has finished.  On a failure it raises without waiting for the other
    blocks and cancels those no worker has taken yet; the blocks already
    running or in the pool's call queue (up to 2 · workers + 1) run on in
    its workers after this raises, their traces dropped, and the
    interpreter waits for them at exit.  Only the summaries are kept.
    The config's equilibrium is solved here, once, and a pool worker
    receives it inside the pickled config.
    """
    check_count("workers", workers, 1)
    config.equilibrium  # solved and cached before the config is pickled
    n = config.trial_count
    size = 1 if workers == 1 else -(-n // (_BLOCKS_PER_WORKER * workers))
    blocks = [(config, start, min(start + size, n)) for start in range(0, n, size)]
    summaries = []
    with contextlib.ExitStack() as stack:
        results = map(_trial_block, blocks)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Imported before the fork, so forked workers share it instead of
            # each importing it on its first trial; not at module level,
            # which would add its import time to every process.
            import numpy.random  # noqa: F401

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_pool_block, blocks)

            def cancel_queued(exc_type, exc, tb):
                # On a raise, closing the result iterator cancels every
                # block no worker has taken (shutdown's cancel_futures would
                # not: the pool's own shutdown on leaving the stack resets
                # it), and shutting down without waiting makes that second
                # shutdown join nothing, so the error comes at once.  A
                # batch that ends normally joins its workers.
                if exc_type is not None:
                    results.close()
                    pool.shutdown(wait=False)

            stack.push(cancel_queued)
        for done, error in results:
            for trace, summary in done:
                summaries.append(summary)
                if on_trace is not None:
                    on_trace(trace, summary)
            if error is not None:
                raise error
    return _aggregate(config, summaries)
