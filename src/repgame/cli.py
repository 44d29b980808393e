"""Command-line entry point.

Subcommands: solve (equilibrium of a game file), schedule (epoch
parameter table), run (single trial), batch (all trials with aggregate
statistics), validate (trace replay check).

Exit codes: 0 success, 2 configuration/usage error, 3 equilibrium
solver unavailable, 4 I/O error.  REPGAME_MASTER_SEED overrides the
configured master seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import traceio
from .config import ConfigError, load_game_file, load_run_config
from .equilibrium import EquilibriumUnavailableError, compute_equilibrium
from .games import regret
from .harness import detect_convergence, run_batch, run_trial, validate_trace
from .schedule import Schedule, check_valid_prefix, never_restart_products

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SEED_ENV = "REPGAME_MASTER_SEED"


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _apply_seed_env(config):
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return config
    try:
        seed = int(raw)
    except ValueError:
        raise _CliError(f"{SEED_ENV} must be an integer, got {raw!r}", EXIT_CONFIG)
    try:
        return dataclasses.replace(config, master_seed=seed)
    except ValueError as exc:
        raise _CliError(f"{SEED_ENV}: {exc}", EXIT_CONFIG)


def _prepare_output_dir(path: Path, make_dirs: bool):
    if path.exists():
        return
    if make_dirs:
        path.mkdir(parents=True, exist_ok=True)
    else:
        raise _CliError(
            f"output directory {path} does not exist (set output.make_dirs: true to create it)",
            EXIT_IO,
        )


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(f"{float(x):.6f}" for x in vec) + ")"


def cmd_solve(args) -> int:
    game = load_game_file(args.game_file)
    eq = compute_equilibrium(game)
    names = game.action_names
    print(f"equilibrium kind: {eq.kind} ({eq.provenance})")
    for p, strat in enumerate(eq.strategies):
        label = _fmt_vec(strat)
        if eq.kind == "pure" and names:
            label += f"  [{names[p][int(np.argmax(strat))]}]"
        print(f"player {p}: {label}")
    print("regret certificate:")
    for p in range(game.num_players):
        r = regret(game, eq.strategies, p)
        print(f"player {p}: regret = {r:.3e}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    try:
        sched = Schedule(
            epsilon_base=args.epsilon_base,
            actions_total=args.actions_total,
            decay=args.decay,
            offset=args.offset,
            rate=args.rate,
            epoch0_rounds=args.epoch0_rounds,
        )
    except ValueError as exc:
        raise _CliError(f"invalid schedule parameters: {exc}", EXIT_CONFIG)
    T = args.horizon
    print(f"{'t':>4} {'eps_e':>12} {'eps_s':>12} {'N':>10} {'prod_s':>10} {'prod_e':>10}")
    if T > 0:
        try:
            products = never_restart_products(sched, T)
        except ValueError:
            products = None
        for t, (eps_e, eps_s, n) in enumerate(zip(*sched.prefix(T))):
            row = f"{t:>4} {eps_e:>12.6g} {eps_s:>12.6g} {n:>10.0f}"
            if products is not None:
                row += f" {products[0][t]:>10.6g} {products[1][t]:>10.6g}"
            print(row)
        if T >= 2:
            report = check_valid_prefix(sched, T)
            if report.valid:
                print(f"valid through t={T}")
            else:
                problems = [
                    name
                    for name, ok in (
                        ("eps_e not strictly decreasing", report.eps_e_decreasing),
                        ("eps_s not strictly decreasing", report.eps_s_decreasing),
                        ("rounds not nondecreasing", report.rounds_nondecreasing),
                        ("nonpositive or non-finite product factor", report.factors_positive),
                    )
                    if not ok
                ]
                print(
                    f"INVALID: {'; '.join(problems)} "
                    f"(first offending t={report.first_bad_t})"
                )
        else:
            print("(prefix too short; validity verdict deferred)")
    else:
        print("(empty horizon; validity verdict deferred)")
    return EXIT_OK


def _load_config(path):
    config, output = load_run_config(path)
    return _apply_seed_env(config), output


def _summary_line(summary) -> str:
    conv = {True: "converged", False: "not-converged", None: "undetermined"}[summary.converged]
    return (
        f"trial {summary.trial}: {conv} ({summary.kind}), "
        f"restarts={summary.restarts}, epochs={summary.epochs}, rounds={summary.rounds_used}"
    )


def cmd_run(args) -> int:
    if args.trial < 0:
        raise _CliError(f"--trial must be >= 0, got {args.trial}", EXIT_CONFIG)
    config, output = _load_config(args.config)
    trace = run_trial(config, args.trial)
    summary = detect_convergence(trace)
    trace_dir = output.get("trace_dir")
    if trace_dir:
        out = Path(trace_dir)
        _prepare_output_dir(out, bool(output.get("make_dirs", False)))
        dest = out / f"trial-{args.trial:04d}.jsonl"
        try:
            traceio.write_trace(trace, dest)
        except OSError as exc:
            raise _CliError(f"cannot write trace: {exc}", EXIT_IO)
        print(f"trace written to {dest}")
    print(_summary_line(summary))
    return EXIT_OK


def cmd_batch(args) -> int:
    config, output = _load_config(args.config)
    trace_dir = output.get("trace_dir")
    make_dirs = bool(output.get("make_dirs", False))
    on_trace = None
    if trace_dir:
        out = Path(trace_dir)
        _prepare_output_dir(out, make_dirs)

        def on_trace(trace, summary):
            traceio.write_trace(trace, out / f"trial-{trace.header['trial']:04d}.jsonl")

    try:
        result = run_batch(config, workers=args.workers, on_trace=on_trace)
    except OSError as exc:
        raise _CliError(f"I/O failure while writing traces: {exc}", EXIT_IO)
    for summary in result.summaries:
        print(_summary_line(summary))
    print(
        f"batch: {len(result.summaries)} trials, "
        f"convergence fraction {result.convergence_fraction:.3f}, "
        f"kinds {result.kind_counts}"
    )
    for key, writer in (
        ("summary_csv", lambda p: traceio.write_summary_csv(result.summaries, p)),
        ("report_json", lambda p: traceio.write_batch_report(result, p)),
    ):
        dest = output.get(key)
        if dest:
            dest = Path(dest)
            _prepare_output_dir(dest.parent, make_dirs)
            try:
                writer(dest)
            except OSError as exc:
                raise _CliError(f"cannot write {dest}: {exc}", EXIT_IO)
            print(f"{key} written to {dest}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        trace = traceio.read_trace(args.trace)
    except OSError as exc:
        raise _CliError(f"cannot read trace: {exc}", EXIT_IO)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_CONFIG)
    try:
        report = validate_trace(trace)
    except ValueError as exc:
        raise _CliError(f"{args.trace}: {exc}", EXIT_CONFIG)
    if report.ok:
        print(f"OK: {report.epochs_checked} epochs replayed, zero divergences")
        return EXIT_OK
    d = report.divergence
    print(
        f"DIVERGENCE at epoch {d['epoch']}, player {d['player']}, "
        f"field {d['field']}: {d['message']}"
    )
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgame",
        description="Repeated-game learning experiments: solve, schedule, run, batch, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the precomputed equilibrium of a game file")
    p.add_argument("game_file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("schedule", help="print the epoch parameter table")
    p.add_argument("--horizon", "-T", type=int, default=10)
    p.add_argument("--epsilon-base", type=float, default=0.5)
    p.add_argument("--actions-total", type=int, default=4)
    p.add_argument("--decay", choices=("harmonic", "geometric"), default="harmonic")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--epoch0-rounds", type=int, default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("run", help="run one trial of a config")
    p.add_argument("config")
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run all trials of a config")
    p.add_argument("config")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate", help="replay-check a trace file")
    p.add_argument("trace")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EquilibriumUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
