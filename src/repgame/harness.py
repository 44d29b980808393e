"""Round-synchronous trial driver, trace records, convergence detection,
trace replay validation and batch statistics.

Randomness is keyed by ``SeedSequence([master_seed, trial, player,
purpose])`` so per-agent streams are independent and results do not
depend on execution order or parallelism.  A trace is a header record
plus one epoch record per learner per completed epoch; partial epochs at
budget exhaustion are marked and excluded from statistics.
"""
from __future__ import annotations

import functools
import json
import os
import pickle
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
        "equilibrium": {"strategies": [list(s) for s in eq.strategy_floats], "provenance": eq.provenance},
    }


# -- agent construction -----------------------------------------------------


def _build_agents(config: RunConfig, trial: int) -> list:
    """One agent per player, in player order: a learner, or a seeded copy of its parsed policy."""
    players = []
    for player, policy in enumerate(config.policies):
        if policy is None:
            streams = (
                agent_stream(config.master_seed, trial, player, STREAM_PLAY),
                agent_stream(config.master_seed, trial, player, STREAM_RESET_PICK),
            )
            players.append(
                EquilibriumRetreatAgent(config.game, player, config.schedule, config.equilibrium, streams=streams)
            )
        else:
            ss = np.random.SeedSequence([int(config.master_seed), int(trial), int(player), STREAM_PLAY])
            players.append(policy.seeded(ss))
    return players


# -- trial driver ------------------------------------------------------------


def _play_segment(game, players: list, responders: list[int], length: int) -> list:
    """One histogram per player of the next ``length`` rounds.  Without a
    responder (a history-dependent policy) every player draws its own with
    ``act_counts``.  Otherwise learners and history-free policies draw
    their actions in one ``act_segment`` call, which moves them past the
    segment.  A lone responder may answer them exactly with
    ``respond_counts``, which observes too.  Otherwise a responder's action
    in a round depends only on the rounds before it, so a lone one answers
    the whole segment in one ``respond_segment`` call, two or more answer
    each other one round at a time, and each then observes; the histograms
    count the actions played."""
    if not responders:
        return [agent.act_counts(length) for agent in players]
    joint = [None if p in responders else agent.act_segment(length) for p, agent in enumerate(players)]
    hist = players[responders[0]].respond_counts(joint) if len(responders) == 1 else None
    if hist is None:
        joint = [np.zeros(length, dtype=np.int64) if a is None else a for a in joint]
        steps = [joint] if len(responders) == 1 else ([a[r : r + 1] for a in joint] for r in range(length))
        for step in steps:  # views into joint, so answers land there
            for p in responders:
                step[p][:] = players[p].respond_segment(step)
            for p in responders:
                players[p].observe_segment(step)
    return [hist if a is None else np.bincount(a, minlength=k) for a, k in zip(joint, game.action_counts)]


def epoch_record(seq: int, outcome) -> dict:
    """The trace record of a learner's ``EpochOutcome`` in epoch ``seq``, as run_trial writes it."""
    return {"type": "epoch", "seq": seq, **vars(outcome)}


def run_trial(config: RunConfig, trial: int) -> RunTrace:
    """Play one seeded trial to its budget and return the full trace.

    Rounds are strictly simultaneous: all actions for a round are drawn
    before any agent observes the joint profile.  Every learner plays
    ``config.equilibrium``.  Deterministic in (config, trial).
    """
    players = _build_agents(config, trial)
    learners = [agent for agent, policy in zip(players, config.policies) if policy is None]
    first = learners[0]
    # A segment runs to the epoch's end or the budget, and the learners read
    # it as one histogram per player.
    responders = [p for p, policy in enumerate(config.policies) if policy is not None and policy.history_dependent]

    events: list[dict] = []
    rounds_used = 0
    epochs = 0

    while rounds_used < config.round_budget and epochs < config.epoch_budget:
        length = min(first.rounds_left_in_epoch(), config.round_budget - rounds_used)
        hists = _play_segment(config.game, players, responders, length)
        outcomes = [lr.observe_counts(hists) for lr in learners]
        rounds_used += length
        if all(out is None for out in outcomes):
            continue
        for out in outcomes:
            if out is None:
                raise RuntimeError("learners disagree on where the epoch ends")
            events.append(epoch_record(epochs, out))
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


# The one encoder of trace records, which traceio writes with and the replay compares in.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# What pickle raises for a value it cannot take: a lambda, say.
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


def _header_key(header: dict) -> bytes:
    """The pickle of ``header`` with ``trial`` set to 0, which the headers of a batch share.  Equal
    keys hold the same types, float bits, key order and structure, so the same ``_canonical`` JSON."""
    return pickle.dumps({**header, "trial": 0}, protocol=pickle.HIGHEST_PROTOCOL)


def _same(want: dict, got: dict) -> bool:
    """Whether ``got`` has ``want``'s ``_canonical`` JSON; a value JSON cannot encode has none.  Values
    that pickle alike, in ``want``'s key order, hold the same types, float bits and structure: no encode."""
    try:  # a key of want's that got lacks raises KeyError; then, with as many keys, the key sets are equal
        hit = len(want) == len(got) and pickle.dumps([*want.values()]) == pickle.dumps([*map(got.__getitem__, want)])
    except (KeyError, *_UNPICKLABLE):  # the encode decides
        hit = False
    try:
        return hit or _canonical(want) == _canonical(got)
    except (TypeError, ValueError):  # a set or an ndarray, say: only a trace built in memory holds one
        return False


def _first_difference(want: dict, got: dict) -> str:
    """The dotted name of the first field, in ``want``'s order, at which ``got`` is not ``_same``."""
    fields = [*want, *sorted(got.keys() - want.keys(), key=str)]
    key = next(k for k in fields if k not in want or k not in got or not _same({k: want[k]}, {k: got[k]}))
    nested = isinstance(want.get(key), dict) and isinstance(got.get(key), dict)
    return f"{key}.{_first_difference(want[key], got[key])}" if nested else str(key)


@functools.lru_cache(maxsize=32)
def _header_config(key: bytes) -> RunConfig:
    """The RunConfig of a trace header, given its ``_header_key``, once the header is the one
    run_trial writes for it, compared as ``_canonical`` JSON.  A hit needs no encode, and a
    header that differs only in key order or in shared references misses.  The checks that
    need no solve of the game come first: the header with its own equilibrium, then that
    equilibrium's regrets."""
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

    One rule for every record: its ``_canonical`` JSON must be that of the
    record run_trial writes, so a trace held in memory is judged as the
    lines ``trace_lines`` writes for it.  The header must be ``run_header``
    of its ``trial`` (an integer >= 0) and of its config, an inline run
    document that ``build_run_config`` accepts (no file is read);
    otherwise this raises ValueError naming the first field that differs.
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
        key = _header_key(header)
    except _UNPICKLABLE as exc:
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
        pure = isinstance(phi, (list, tuple)) and len(phi) == k and phi.count(1.0) == 1 and phi.count(0.0) == k - 1
        return phi.index(1.0) if pure else 0

    # The learners, in player order: the order of their records in an epoch.
    state = {p: fresh_state(eq, p) for p, entry in enumerate(config.roster) if entry["agent"] == "learner"}
    events, size = trace.events, len(state)
    epochs = -(-len(events) // size)
    records = iter(events + [{}] * size)  # {} stands in for each record a short last epoch lacks
    used = 0  # rounds of the epochs replayed so far
    for seq in range(epochs):
        first = seq * size
        for p, rec in zip(state, records):
            if not isinstance(rec, dict):
                raise ValueError(f"trace epoch {seq} record of learner {p} must be a mapping, got {rec!r}")
            n_rounds = sched.rounds(state[p].t)
            if histogram_total(rec.get("counts"), shape) != n_rounds:
                want = f"one histogram of ints per player totalling N^t = {n_rounds}"
                return diverged(seq, p, "counts", f"need {want}, trace has {rec.get('counts')!r}")
            outcome, state[p] = epoch_step(game, p, sched, eq, state[p], events[first]["counts"], pick)
            want = epoch_record(seq, outcome)
            if not _same(want, rec):
                key = _first_difference(want, rec)
                if key not in want:
                    return diverged(seq, p, key, "the replay gives no such field")
                return diverged(seq, p, key, f"replay gives {want[key]!r}, trace has {rec.get(key)!r}")
        used += n_rounds
    rounds_used = used if epochs == config.epoch_budget else config.round_budget
    partial = rounds_used - used
    want = {"epochs": epochs, "rounds_used": rounds_used, "partial_rounds": partial}
    got = {key: getattr(trace, key) for key in want}
    if not _same(want, got):
        key = _first_difference(want, got)
        return diverged(epochs, None, key, f"need {want[key]} {key}, trace has {got[key]!r}")
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


def _trial_message(config: RunConfig, trial: int) -> tuple[bytes, bool]:
    """The pickled ``(result, failure)`` a worker sends for ``trial``, and whether it failed.
    ``result`` is ``_one_trial``'s (trace, summary); ``failure`` is None, or the error
    (None if pickle rejects it), its type and message, and its formatted traceback."""
    try:
        return pickle.dumps((_one_trial((config, trial)), None), pickle.HIGHEST_PROTOCOL), False
    except Exception as exc:
        import traceback

        text, tb = f"{type(exc).__name__}: {exc}", "".join(traceback.format_exception(exc))
        try:
            data = pickle.dumps((None, (exc, text, tb)), pickle.HIGHEST_PROTOCOL)
            pickle.loads(data)
        except Exception:  # a lambda, say, or arguments its class cannot be rebuilt from
            data = pickle.dumps((None, (None, text, tb)), pickle.HIGHEST_PROTOCOL)
        return data, True


def _worker(config: RunConfig, first: int, step: int, writer, readers: list) -> None:
    """A forked worker: trials ``first``, ``first + step``, ... of the config, each sent on
    ``writer`` as one ``_trial_message`` once it ends, up to the first that fails.  It closes
    the ``readers`` it inherited, and ignores SIGINT: a Ctrl-C reaches the parent too, which
    kills and reaps every worker."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for reader in readers:
        reader.close()
    for trial in range(first, config.trial_count, step):
        data, failed = _trial_message(config, trial)
        writer.send_bytes(data)
        if failed:
            break


def _run_forked(config: RunConfig, workers: int, deliver) -> None:
    """``deliver(trace, summary)`` for every trial, in trial order, with worker i of
    ``workers`` forked ones running trials i, i + workers, ...; see ``run_batch``."""
    import multiprocessing

    # Imported before the fork, so the workers share it instead of each
    # importing it on its first trial; not at module level, which would add
    # its import time to every process.
    import numpy.random  # noqa: F401

    context = multiprocessing.get_context("fork")
    procs: list = []
    readers: list = []
    try:
        for first in range(workers):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            proc = context.Process(target=_worker, args=(config, first, workers, writer, readers))
            with writer:  # closed once forked, so no later worker inherits it and its EOF can arrive
                proc.start()
            procs.append(proc)
        for trial in range(config.trial_count):
            try:
                data = readers[trial % workers].recv_bytes()
            except EOFError:
                proc = procs[trial % workers]
                proc.join()
                code = proc.exitcode
                status = f"exit status {code}" if code >= 0 else f"signal {-code}"
                message = f"the worker running trial {trial} ended with {status} without sending its result"
                raise RuntimeError(message) from None
            result, failure = pickle.loads(data)
            if failure is not None:
                error, text, tb = failure
                cause = RuntimeError(f"trial {trial} failed in its worker:\n{tb}")
                if error is None:
                    error = RuntimeError(f"trial {trial} raised {text}, which pickle rejects")
                raise error from cause
            deliver(*result)
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.join()
            proc.close()
        for reader in readers:
            reader.close()


def run_batch(config: RunConfig, workers: int = 1, on_trace=None) -> BatchResult:
    """Run all trials of the config; aggregation is order-independent.

    Trials stream in trial order: ``on_trace(trace, summary)`` (e.g. to
    persist traces) is called on each as soon as it and every trial
    before it have finished, so a failing trial still delivers all the
    trials before it.  Only the summaries are kept.  The config's
    equilibrium is solved here, once.

    With ``workers`` w > 1 this starts min(w, trials) workers, each a
    ``multiprocessing`` Process of the fork context, which get the config,
    solved equilibrium included, through the fork.  Worker i runs trials i,
    i + w, i + 2w, ... and sends each one's trace and summary back on its
    own one-way Pipe, one pickle a trial, as soon as the trial ends.  A
    trial that raises ends its worker and comes back as data: after every
    earlier trial is delivered, its exception is raised here, with the
    worker's traceback text as its chained cause, or a RuntimeError naming
    the trial if pickle rejects the exception.  A worker that exits without
    a trial's result raises a RuntimeError naming the trial and the
    worker's exit status.  On any raise, ``on_trace``'s and a Ctrl-C's
    included, the workers still running are killed, and every worker is
    reaped before this returns or raises; a worker ignores SIGINT.  ``workers > 1`` needs ``os.fork``; without it
    this raises ValueError before any trial starts.
    """
    check_count("workers", workers, 1)
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError("workers > 1 needs os.fork, which this platform lacks")
    config.equilibrium  # solved and cached before the workers are forked
    summaries = []

    def deliver(trace: RunTrace, summary: RunSummary) -> None:
        summaries.append(summary)
        if on_trace is not None:
            on_trace(trace, summary)

    if workers == 1:
        for trial in range(config.trial_count):
            deliver(*_one_trial((config, trial)))
    else:
        _run_forked(config, min(workers, config.trial_count), deliver)
    return _aggregate(config, summaries)
