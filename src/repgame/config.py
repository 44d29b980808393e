"""Human-writable file formats: the game file and the run document, with
the RunConfig it builds.

A game file is a YAML document holding the inline game mapping of a run
document's ``game`` and a trace header's ``config.game``: ``payoffs``, where
``payoffs[i][a_0]...[a_{n-1}]`` is player i's payoff at that joint profile,
and optional ``num_players`` and ``action_names``.  game_from_dict reads it.

The run document is a mapping with explicit keys, read from YAML by
load_run_config and from a mapping by build_run_config.  config_to_dict
writes the same document, so a trace header's ``config`` re-runs its
trial.
"""
from __future__ import annotations

import json
import pickle
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .equilibrium import EquilibriumProfile, compute_equilibrium
from .games import StageGame, check_numbers
from .opponents import OpponentPolicy, build_policy
from .schedule import Schedule, check_count


class ConfigError(ValueError):
    """A located configuration diagnostic."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _load_yaml(path, what: str):
    """The YAML document in ``path``, or a ConfigError naming the file and, if YAML gives one, the line."""
    import yaml

    try:
        return yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}", str(path))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ConfigError(f"YAML parse error: {exc}", f"{path}:{mark.line + 1}" if mark else str(path))


def load_game_file(path) -> StageGame:
    """The game in the YAML game file ``path``."""
    doc = _load_yaml(path, "game")  # its ConfigError is located already
    try:
        return game_from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid game: {exc}", str(path))


# -- run configuration ---------------------------------------------------------

# Integer fields of a run and the least value each may take.
_INT_FIELDS = {
    "round_budget": 1,
    "epoch_budget": 1,
    "master_seed": 0,
    "trial_count": 1,
    "window": 1,
}
# The keys of a run document; ``output`` is read by load_run_config alone.
_DOC_KEYS = {"game", "roster", "schedule", "equilibrium_override", "output", *_INT_FIELDS}
# The keys of ``output``: paths, then whether to create missing directories.
_OUTPUT_PATHS = ("trace_dir", "summary_csv", "report_json")
# The keys of a roster entry, by its agent.
_ENTRY_KEYS = {"learner": {"agent"}, "opponent": {"agent", "policy"}}
# The keys of an inline game, as game_to_dict writes them.
_GAME_KEYS = {"num_players", "action_names", "payoffs"}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a trial or batch.

    Every check of a configuration is made here, so a config built in code
    fails as the same config read from a document does.  The config owns
    its roster: it keeps each entry as the JSON a trace header writes, so
    one JSON cannot hold fails here, and parses each opponent's descriptor
    once, into ``policies``; a trial plays a seeded copy of that policy.
    """

    game: StageGame
    roster: tuple[dict, ...]  # per-player agent descriptors
    schedule: Schedule
    eq_override: tuple[np.ndarray, ...] | None = None  # one strategy per player
    round_budget: int = 1_000_000
    epoch_budget: int = 1_000_000
    master_seed: int = 0
    trial_count: int = 1
    window: int = 3
    # Per player: the opponent's policy as build_policy parses it, or None for a learner.
    policies: tuple[OpponentPolicy | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.game.num_players
        if not isinstance(self.roster, (list, tuple)) or len(self.roster) != n:
            raise ValueError(f"roster must list one agent per player ({n})")
        for key, least in _INT_FIELDS.items():
            check_count(key, getattr(self, key), least)
        # No segment is longer than the budget, and numpy counts a
        # segment's rounds (``multinomial``) in an int64.
        if self.round_budget > 2**63 - 1:
            raise ValueError(f"round_budget must be at most 2**63 - 1, got {self.round_budget}")
        roster, policies = [], []
        for player, entry in enumerate(self.roster):
            agent = entry.get("agent") if isinstance(entry, dict) else None
            if agent not in ("learner", "opponent"):
                raise ValueError(
                    f"roster[{player}]: need a mapping with agent 'learner' or 'opponent', got {entry!r}"
                )
            unknown = sorted(map(str, entry.keys() - _ENTRY_KEYS[agent]))
            if unknown:
                raise ValueError(f"roster[{player}]: unknown keys {', '.join(unknown)} for agent {agent!r}")
            try:
                entry, policy = json.loads(json.dumps(entry, allow_nan=False)), None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"roster[{player}]: not a JSON value: {exc}") from exc
            if agent == "opponent":
                # Built once here, so a descriptor that does not fit the
                # game fails now, not partway through a run.
                try:
                    policy = build_policy(entry.get("policy"), self.game, player)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"roster[{player}]: invalid opponent policy: {exc}") from exc
            roster.append(entry)
            policies.append(policy)
        if not any(entry["agent"] == "learner" for entry in roster):
            raise ValueError("roster needs at least one learner")
        object.__setattr__(self, "roster", tuple(roster))
        object.__setattr__(self, "policies", tuple(policies))
        if self.eq_override is not None:
            object.__setattr__(self, "eq_override", self.equilibrium.strategies)

    @cached_property
    def equilibrium(self) -> EquilibriumProfile:
        """The equilibrium every learner of the run plays: the override,
        checked, or the solver's.  Solved on first read and kept, so a
        forked batch worker inherits it with the config."""
        return compute_equilibrium(self.game, self.eq_override)

    @cached_property
    def _document(self) -> bytes:
        """config_to_dict's document, pickled once: unpickling gives a
        fresh copy faster than building one."""
        return pickle.dumps(
            {
                "game": game_to_dict(self.game),
                "roster": list(self.roster),
                "schedule": asdict(self.schedule),
                "equilibrium_override": [list(map(float, s)) for s in self.eq_override]
                if self.eq_override is not None
                else None,
                **{key: getattr(self, key) for key in _INT_FIELDS},
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def game_to_dict(game: StageGame) -> dict:
    return {
        "num_players": game.num_players,
        "action_names": [list(per) for per in game.action_names]
        if game.action_names
        else None,
        "payoffs": game.payoffs.tolist(),
    }


def game_from_dict(d: dict) -> StageGame:
    """The game of an inline game mapping: a run document's ``game``, a game
    file's document or a trace header's ``config.game``."""
    if not isinstance(d, dict):
        raise TypeError(f"a game must be a mapping, got {type(d).__name__}")
    unknown = sorted(map(str, d.keys() - _GAME_KEYS))
    if unknown:
        raise ValueError(f"unknown keys {', '.join(unknown)}")
    if "payoffs" not in d:
        raise ValueError("missing key payoffs")
    check_numbers(d["payoffs"], "payoffs")
    game = StageGame(d["payoffs"], action_names=d.get("action_names") or None)
    if "num_players" in d and check_count("num_players", d["num_players"], 1) != game.num_players:
        raise ValueError(
            f"num_players is {d['num_players']!r}, but the payoffs are for {game.num_players}"
        )
    return game


def config_to_dict(config: RunConfig) -> dict:
    """The run document of ``config``, with the game inline;
    ``build_run_config`` reads it back to the same config.  Each call
    returns a new document that shares no mutable object with the config."""
    return pickle.loads(config._document)


def build_run_config(doc: dict, source: str = "<config>", base_dir=None) -> RunConfig:
    """The RunConfig of a run document.  RunConfig checks the fields; this
    resolves a game path against ``base_dir``, takes the schedule's
    ``actions_total`` from the game unless given, and locates errors."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping", source)
    unknown = sorted(map(str, set(doc) - _DOC_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys {', '.join(unknown)}", source)
    game_field = doc.get("game")
    if isinstance(game_field, str):  # an absolute path stays as it is
        game = load_game_file(Path(base_dir or ".") / game_field)
    elif isinstance(game_field, dict):
        try:
            game = game_from_dict(game_field)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline game: {exc}", f"{source}: game")
    else:
        raise ConfigError("game must be a file path or inline mapping", f"{source}: game")

    try:
        sched_field = dict(doc.get("schedule") or {})
        sched_field.setdefault("actions_total", game.actions_total)
        schedule = Schedule(**sched_field)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule: {exc}", f"{source}: schedule")

    try:
        return RunConfig(
            game=game,
            roster=doc.get("roster"),
            schedule=schedule,
            eq_override=doc.get("equilibrium_override"),
            **{key: doc[key] for key in _INT_FIELDS if key in doc},
        )
    except ValueError as exc:
        raise ConfigError(str(exc), source)


def load_run_config(path) -> tuple[RunConfig, dict]:
    """Parse a YAML run configuration; returns (RunConfig, output options).

    Recognised output options (all optional): ``trace_dir``,
    ``summary_csv``, ``report_json`` (path strings), ``make_dirs`` (bool;
    whether missing output directories are created rather than
    rejected).  Any other key, or a value of another type, is a
    ConfigError.
    """
    path = Path(path)
    doc = _load_yaml(path, "config")
    config = build_run_config(doc, source=str(path), base_dir=path.parent)
    output = doc.get("output") or {}
    where = f"{path}: output"
    if not isinstance(output, dict):
        raise ConfigError("output must be a mapping", where)
    unknown = sorted(map(str, output.keys() - {*_OUTPUT_PATHS, "make_dirs"}))
    if unknown:
        raise ConfigError(f"unknown keys {', '.join(unknown)}", where)
    for key in _OUTPUT_PATHS:
        if key in output and not isinstance(output[key], str):
            raise ConfigError(f"{key} must be a path string, got {output[key]!r}", where)
    if not isinstance(output.get("make_dirs", False), bool):
        raise ConfigError(f"make_dirs must be true or false, got {output['make_dirs']!r}", where)
    return config, output
