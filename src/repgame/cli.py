"""Command-line entry point.

Subcommands: solve (equilibrium of a game file), schedule (epoch
parameter table), run (single trial), batch (all trials with aggregate
statistics), validate (trace replay check).

Exit codes: 0 success, 2 configuration/usage error, 3 equilibrium
solver unavailable, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
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


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


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
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(Schedule) if hasattr(args, f.name)}
    try:
        sched = Schedule(**given)
    except ValueError as exc:
        raise _CliError(f"invalid schedule parameters: {exc}", EXIT_CONFIG)
    T = args.horizon
    report = check_valid_prefix(sched, T) if T >= 2 else None
    # Row t >= 1 holds the product through t; it is printed while every
    # factor through t passes.  Row 0 has no factor.
    good = 0 if report is None else T - 1 if report.first_bad_t is None else report.first_bad_t - 1
    products = never_restart_products(sched, good) if good else []
    print(f"{'t':>4} {'eps_e':>12} {'eps_s':>12} {'N':>10} {'prod':>10}")
    for t, (eps_e, eps_s, n) in enumerate(zip(*sched.prefix(T))):
        row = f"{t:>4} {eps_e:>12.6g} {eps_s:>12.6g} {n:>10.0f}"
        if 1 <= t <= good:
            row += f" {products[t - 1]:>10.6g}"
        print(row)
    if report is None:
        print("(horizon below 2; validity verdict deferred)")
    elif report.valid:
        print(f"valid through t={T}")
    else:
        problems = [
            name
            for name, ok in (
                ("eps_e not strictly decreasing", report.eps_e_decreasing),
                ("rounds not nondecreasing", report.rounds_nondecreasing),
                ("nonpositive or non-finite product factor", report.first_bad_t is None),
            )
            if not ok
        ]
        print(f"INVALID: {'; '.join(problems)} (first offending t={report.first_bad_t})")
    return EXIT_OK


def _summary_line(summary) -> str:
    conv = {True: "converged", False: "not-converged", None: "undetermined"}[summary.converged]
    return (
        f"trial {summary.trial}: {conv} ({summary.kind}), "
        f"restarts={summary.restarts}, epochs={summary.epochs}, rounds={summary.rounds_used}"
    )


def cmd_run(args) -> int:
    if args.trial < 0:
        raise _CliError(f"--trial must be >= 0, got {args.trial}", EXIT_CONFIG)
    config, output = load_run_config(args.config)
    trace = run_trial(config, args.trial)
    summary = detect_convergence(trace)
    trace_dir = output.get("trace_dir")
    if trace_dir:
        out = Path(trace_dir)
        _prepare_output_dir(out, output.get("make_dirs", False))
        dest = out / f"trial-{args.trial:04d}.jsonl"
        try:
            traceio.write_trace(trace, dest)
        except OSError as exc:
            raise _CliError(f"cannot write trace: {exc}", EXIT_IO)
        print(f"trace written to {dest}")
    print(_summary_line(summary))
    return EXIT_OK


def cmd_batch(args) -> int:
    config, output = load_run_config(args.config)
    trace_dir = output.get("trace_dir")
    make_dirs = output.get("make_dirs", False)
    on_trace = None
    if trace_dir:
        out = Path(trace_dir)
        _prepare_output_dir(out, make_dirs)

        def on_trace(trace, summary):
            traceio.write_trace(trace, out / f"trial-{trace.header['trial']:04d}.jsonl")

    try:
        result = run_batch(config, workers=args.workers, on_trace=on_trace)
    except ValueError as exc:  # run_batch's check of --workers
        raise _CliError(str(exc), EXIT_CONFIG)
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
    # In one process a batch's traces, whose headers differ only in the
    # trial, build and solve their header's config once.
    for path in args.trace:
        try:
            trace = traceio.read_trace(path)
        except OSError as exc:
            raise _CliError(f"cannot read trace: {exc}", EXIT_IO)
        except ValueError as exc:  # read_trace names the path and line
            raise _CliError(str(exc), EXIT_CONFIG)
        try:
            report = validate_trace(trace)
        except ValueError as exc:
            raise _CliError(f"{path}: {exc}", EXIT_CONFIG)
        d = report.divergence
        if d:
            where = f"epoch {d['epoch']}, player {d['player']}, field {d['field']}"
            print(f"{path}: DIVERGENCE at {where}: {d['message']}")
            return EXIT_CONFIG
        print(f"{path}: OK: {report.epochs_checked} epochs replayed, zero divergences")
    return EXIT_OK


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
    for f in dataclasses.fields(Schedule):  # Schedule owns the defaults and the checks
        kind = int if f.default is None else type(f.default)
        p.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("run", help="run one trial of a config")
    p.add_argument("config")
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run all trials of a config")
    p.add_argument("config")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate", help="replay-check trace files, stopping at the first that fails")
    p.add_argument("trace", nargs="+")
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
