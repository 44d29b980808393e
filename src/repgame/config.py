"""Human-writable file formats: the game text grammar and the run
document, with the RunConfig it builds.

Game file grammar (line-oriented, ``#`` comments)::

    players: 2
    actions 0: Heads Tails
    actions 1: Heads Tails
    payoffs:
    1 -1
    -1 1
    -1 1
    1 -1

After ``payoffs:`` there is one line per joint action profile, in
lexicographic profile order with player 0 varying slowest, holding one
payoff per player.  Parse failures raise ConfigError with the file and
line number.

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
from .games import StageGame
from .opponents import OpponentPolicy, build_policy
from .schedule import Schedule, check_count


class ConfigError(ValueError):
    """A located configuration diagnostic."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


# -- game text format ---------------------------------------------------------


def parse_game_text(text: str, source: str = "<string>") -> StageGame:
    lines = text.splitlines()
    players = None
    actions: dict[int, list[str]] = {}
    payoff_rows: list[list[float]] = []
    in_payoffs = False
    for lineno, raw in enumerate(lines, start=1):
        where = f"{source}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_payoffs:
            try:
                payoff_rows.append([float(tok) for tok in line.split()])
            except ValueError:
                raise ConfigError(f"non-numeric payoff entry in {line!r}", where)
            continue
        if ":" not in line:
            raise ConfigError(f"expected 'key: value', got {line!r}", where)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "players":
            try:
                players = int(value)
            except ValueError:
                raise ConfigError(f"players must be an integer, got {value!r}", where)
            if players < 1:
                raise ConfigError("players must be at least 1", where)
        elif key.startswith("actions"):
            try:
                idx = int(key.split(None, 1)[1])
            except (IndexError, ValueError):
                raise ConfigError(
                    f"expected 'actions <player>:', got {key!r}", where
                )
            names = value.split()
            if not names:
                raise ConfigError(f"player {idx} has no actions", where)
            actions[idx] = names
        elif key == "payoffs":
            in_payoffs = True
        else:
            raise ConfigError(f"unknown key {key!r}", where)
    if players is None:
        raise ConfigError("missing 'players:' line", source)
    if sorted(actions) != list(range(players)):
        raise ConfigError(
            f"need 'actions i:' for each player 0..{players - 1}, got {sorted(actions)}",
            source,
        )
    if not in_payoffs:
        raise ConfigError("missing 'payoffs:' section", source)
    counts = [len(actions[i]) for i in range(players)]
    profiles = int(np.prod(counts))
    if len(payoff_rows) != profiles:
        raise ConfigError(
            f"expected {profiles} payoff lines (one per joint profile), got {len(payoff_rows)}",
            source,
        )
    for i, row in enumerate(payoff_rows):
        if len(row) != players:
            raise ConfigError(
                f"payoff line {i + 1} has {len(row)} entries, expected {players}",
                source,
            )
    flat = np.asarray(payoff_rows, dtype=np.float64)  # (profiles, players)
    payoffs = np.moveaxis(flat.reshape(counts + [players]), -1, 0)
    return StageGame(
        payoffs, action_names=tuple(tuple(actions[i]) for i in range(players))
    )


def load_game_file(path) -> StageGame:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read game file: {exc}", str(path))
    return parse_game_text(text, source=str(path))


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
    if not isinstance(d, dict):
        raise TypeError(f"a game must be a mapping, got {type(d).__name__}")
    names = d.get("action_names")
    game = StageGame(d["payoffs"], action_names=names or None)
    if d.get("num_players", game.num_players) != game.num_players:
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
    if isinstance(game_field, str):
        path = Path(game_field)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        game = load_game_file(path)
    elif isinstance(game_field, dict):
        try:
            game = game_from_dict(game_field)
        except (KeyError, TypeError, ValueError) as exc:
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
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", str(path))
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        raise ConfigError(f"YAML parse error: {exc}", where)
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
