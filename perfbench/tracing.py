"""Span tracing around calls into repgame's layers, installed from outside.

``instrument(tracer)`` replaces each traced function and method with a
wrapper that opens a span in ``tracer``, and puts every original back on
exit, so nothing under ``src/repgame`` changes.  A function imported by
name into other modules (``from .games import pure_action_values``) is
replaced at every such binding, which covers every call site.

Each span's self time is its duration minus the durations of the spans
directly inside it, and a group's busy time is the sum of its spans' self
times, so the groups of one process add up to at most its wall time.
A call counts once when it enters a group from outside that group; a
nested call of the same group (``Schedule.rounds`` calling ``eps_e``)
adds self time but not a call.

Per-round groups (``HOT``) would add up to 10^5 spans per trial, so they
are kept only as a call count plus busy time; the other spans are stored
with start, end and parent group.

Pool workers are forked from the traced parent and so run the same
wrappers.  Each worker resets its tracer at the start of a trial and
attaches what it recorded to the returned trace; the parent takes it back
off with ``adopt`` before the trace is written, so trace bytes do not
change.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
import time
from collections import Counter, defaultdict

HOT = frozenset(
    {
        "schedule",
        "games.values",
        "learner.play",
        "learner.observe",
        "opponents.play",
        "opponents.observe",
    }
)

# Worker spans ride back to the parent on this attribute of the trace.
_CARRIER = "_perfbench_spans"


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # open spans: [group, start, time in children]
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (group, start, end, parent group) of non-hot spans
        self.draws = 0  # actions sampled by learners
        self.games: set[str] = set()  # distinct games passed to compute_equilibrium

    def enter(self, group: str) -> None:
        self._stack.append([group, self.clock(), 0.0])

    def exit(self) -> None:
        group, start, in_children = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.busy[group] += duration - in_children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        parent_group = parent[0] if parent is not None else None
        if parent_group != group:
            self.calls[group] += 1
        if group not in HOT:
            self.spans.append((group, start, end, parent_group))

    def durations(self, group: str) -> list[float]:
        return [end - start for g, start, end, _ in self.spans if g == group]

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "spans": list(self.spans),
            "draws": self.draws,
            "games": sorted(self.games),
        }

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for group, seconds in data["busy"].items():
            self.busy[group] += seconds
        self.spans.extend(data["spans"])
        self.draws += data["draws"]
        self.games.update(data["games"])

    def adopt(self, trace) -> bool:
        """Merge the spans a pool worker attached to ``trace`` and detach
        them; False when the trace carries none."""
        data = trace.__dict__.pop(_CARRIER, None)
        if data is None:
            return False
        self.merge(data)
        return True


# -- wrappers -------------------------------------------------------------------


def _span(tracer: Tracer, group: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(group)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _learner_play(tracer: Tracer, fn):
    # An epoch's actions are drawn in one go on the first play call of the
    # epoch; count them when the draw buffer appears.
    @functools.wraps(fn)
    def wrapper(agent, *args):
        fresh = agent._buffer is None
        tracer.enter("learner.play")
        try:
            return fn(agent, *args)
        finally:
            tracer.exit()
            if fresh and agent._buffer is not None:
                tracer.draws += len(agent._buffer)

    return wrapper


def _compute_equilibrium(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(game, *args, **kwargs):
        tracer.games.add(hashlib.sha256(game.payoffs.tobytes()).hexdigest())
        tracer.enter("equilibrium.compute")
        try:
            return fn(game, *args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _one_trial(tracer: Tracer, fn):
    # Keeps the wrapped function's module and name, so the pool still
    # pickles it by reference.
    @functools.wraps(fn)
    def wrapper(job):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.reset()
        tracer.enter("harness.trial")
        try:
            trace, summary = fn(job)
        finally:
            tracer.exit()
        if in_worker:
            setattr(trace, _CARRIER, tracer.export())
        return trace, summary

    return wrapper


def _targets():
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from repgame import config, equilibrium, games, harness, learner, opponents, schedule, traceio

    def group(name):
        return lambda tracer, fn: _span(tracer, name, fn)

    functions = [
        (equilibrium, "compute_equilibrium", _compute_equilibrium),
        (games, "pure_action_values", group("games.values")),
        (games, "expected_utility", group("games.values")),
        (harness, "run_batch", group("harness.run_batch")),
        (harness, "_one_trial", _one_trial),
        (harness, "run_trial", group("harness.run_trial")),
        (harness, "detect_convergence", group("harness.detect_convergence")),
        (harness, "validate_trace", group("harness.validate_trace")),
        (traceio, "write_trace", group("traceio.write_trace")),
        (traceio, "read_trace", group("traceio.read_trace")),
        (config, "build_run_config", group("config.build_run_config")),
    ]
    methods = [
        (schedule.Schedule, "rounds", group("schedule")),
        (schedule.Schedule, "eps_e", group("schedule")),
        (schedule.Schedule, "eps_s", group("schedule")),
        (learner.EquilibriumRetreatAgent, "act", _learner_play),
        (learner.EquilibriumRetreatAgent, "act_segment", _learner_play),
        (learner.EquilibriumRetreatAgent, "observe", group("learner.observe")),
        (learner.EquilibriumRetreatAgent, "observe_segment", group("learner.observe")),
        (learner.EquilibriumRetreatAgent, "_epoch_end", group("learner.decide")),
    ]
    for cls in vars(opponents).values():
        if isinstance(cls, type) and issubclass(cls, opponents.OpponentPolicy):
            for name in ("act", "act_segment"):
                if name in vars(cls):
                    methods.append((cls, name, group("opponents.play")))
            for name in ("observe", "observe_segment"):
                if name in vars(cls):
                    methods.append((cls, name, group("opponents.observe")))
    return functions, methods


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every entry point into ``tracer`` inside the block."""
    functions, methods = _targets()
    modules = [
        m for name, m in list(sys.modules.items()) if name == "repgame" or name.startswith("repgame.")
    ]
    patched: list[tuple] = []  # (owner, attribute, original)
    try:
        for module, name, factory in functions:
            original = getattr(module, name)
            wrapper = factory(tracer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        for cls, name, factory in methods:
            original = vars(cls)[name]
            patched.append((cls, name, original))
            setattr(cls, name, factory(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
