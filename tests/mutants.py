"""Mutation checks that stay: known faults of ``src/repgame``, each with the
tests that must fail when it is put back.

Each mutant is one edit of one file under ``src/repgame``: its ``old`` text,
which must occur there exactly once, becomes ``new``.  ``tests`` are pytest
node ids, relative to the checkout, that must fail on the mutated package;
``found`` names the CHANGES.md entry that first recorded the fault or its
check.  A mutant that moves with the code it mutates is updated in the same
change; removing or weakening one is said in CHANGES.md, with the reason.

Usage, from anywhere::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

For each mutant, one after another, the runner copies ``src/`` to a
temporary directory, applies the edit there, and runs its tests with pytest
from the checkout, in a session of their own under a timeout of TIMEOUT_S
seconds:

    python -m pytest -x -q -p no:cacheprovider -o pythonpath=<tmp>/src TESTS

``-o pythonpath`` is what puts the copy first: pyproject.toml's
``pythonpath = ["src"]`` would put the checkout's package ahead of
``PYTHONPATH``.  A pytest exit of 1 (a test failed) or a timeout, after which
the whole session is killed, kills the mutant.  An exit of 0 means it
survived.  Any other exit (4, a usage error; 5, no test collected) is an
error of the runner or the list, not a kill.  The runner exits 1 and names
every mutant that survived or erred, else 0.  The standard library only:
pytest is run, not imported.

The tests under ``perfbench/`` cannot be listed: ``bench.load_program``
refuses a ``repgame`` imported from anywhere but the checkout's ``src``.

Left out: ``float(phi @ values)`` put back into ``learner.epoch_step``.
It fails only where the BLAS dot rounds differently from the index-order
sum (OpenBLAS's SkylakeX kernel does on the pinned cases; Haswell and
Prescott do not), so whether it is killed depends on the machine.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

_FOR_EACH_RECORD = "One owner for every trace record"
_ONE_COUNT_PATH = "One count path for fictitious play"
_HEADER_CACHE = "The replay's header cache is keyed by the header's pickled bytes"
_FORKED = "Forked batch workers"
_STDLIB_WORKERS = "Batch workers on the standard library"
_ONE_RULE = "One comparison rule for the replay"
_TEST_ONLY = "Test-only code leaves src/repgame"
_ONE_COPY = "One copy, one check"
_HEADER_ONCE = "A trace header costs one encode and one parse per config"
_REPLAY_COST = "A replayed epoch record costs only its arithmetic"
_ONE_FACTOR = "One validity factor"
_PURE_DRAW = "A pure strategy's epoch costs one stream advance"
_ONE_SYNTAX = "One game syntax"
_RUNS = "Fictitious play answers a constant stretch in runs"
_DRAWN = "The action path draws only the rounds it plays"
_OWNERS = "Each decision in its owner"

MUTANTS = [
    {
        "name": "fp-observe-adds-a-bincount",
        "file": "opponents.py",
        "old": "np.add.at(c, joint[p], 1.0)",
        "new": "c += np.bincount(joint[p], minlength=len(c))",
        "tests": ["tests/test_opponents.py::test_fictitious_play_segments_play_and_count_as_rounds_do"],
        "found": _ONE_COUNT_PATH,
    },
    {
        "name": "fp-running-counts-one-round-late",
        "file": "opponents.py",
        "old": "steps[joint[p][:-1], np.arange(1, steps.shape[1])] = 1.0",
        "new": "steps[joint[p][1:], np.arange(1, steps.shape[1])] = 1.0",
        "tests": [
            "tests/test_opponents.py::test_fictitious_play_answers_a_whole_segment",
            "tests/test_opponents.py::test_fictitious_play_segments_play_and_count_as_rounds_do",
        ],
        "found": _ONE_COUNT_PATH,
    },
    {
        "name": "zero-length-choice-draws-one",
        "file": "opponents.py",
        "old": "return draw_actions(self.rng, self.probs, length)",
        "new": "return draw_actions(self.rng, self.probs, max(length, 1))[:length]",
        "tests": ["tests/test_opponents.py::test_a_zero_length_draw_leaves_the_stream_and_the_script_where_they_were"],
        "found": _ONE_COUNT_PATH,
    },
    {
        "name": "header-compared-by-eq",
        "file": "harness.py",
        "old": "if _canonical(want) != text:",
        "new": "if want != header:",
        "tests": ["tests/test_harness.py::test_validate_accepts_only_the_header_run_trial_writes"],
        "found": _HEADER_CACHE,
    },
    {
        "name": "end-record-compared-by-eq",
        "file": "harness.py",
        "old": "if not _same(want, got):",
        "new": "if want != got:",
        "tests": ["tests/test_harness.py::test_validate_checks_the_end_record"],
        "found": _FOR_EACH_RECORD,
    },
    {
        "name": "epochs-past-the-epoch-budget-accepted",
        "file": "harness.py",
        "old": "if epochs > config.epoch_budget or rounds_used",
        "new": "if rounds_used",
        "tests": ["tests/test_harness.py::test_validate_accepts_only_the_end_record_run_trial_writes"],
        "found": _FOR_EACH_RECORD,
    },
    {
        "name": "own-counts-checked-on-the-first-record-only",
        "file": "harness.py",
        "old": 'if histogram_total(rec.get("counts"), shape) != n_rounds:',
        "new": 'if histogram_total(events[first].get("counts"), shape) != n_rounds:',
        "tests": [
            "tests/test_harness.py::test_validate_checks_each_learners_own_counts",
            "tests/test_harness.py::test_validate_reports_one_learner_record_too_few_or_too_many",
        ],
        "found": _FOR_EACH_RECORD,
    },
    {
        "name": "workers-not-killed",
        "file": "harness.py",
        "old": "            proc.kill()\n",
        "new": "            pass\n",
        "tests": [
            "tests/test_harness.py::test_batch_pool_cancels_the_queued_trials_after_a_failing_one",
            "tests/test_harness.py::test_batch_pool_cancels_the_queued_blocks_after_a_failing_one",
            "tests/test_harness.py::test_batch_pool_starts_no_block_past_those_already_handed_out",
        ],
        "found": _FORKED,
    },
    {
        # Without the fd count, the test of a worker that exits without its
        # result waits for an EOF that never comes: the timeout kills it.
        "name": "parent-keeps-each-writer-open",
        "file": "harness.py",
        "old": "with writer:  # closed once forked",
        "new": "if writer:  # kept open",
        "tests": [
            "tests/test_harness.py::test_batch_leaves_no_worker_running",
            "tests/test_harness.py::test_batch_names_the_trial_whose_worker_exits_without_its_result",
        ],
        "found": _STDLIB_WORKERS,
    },
    {
        "name": "worker-not-closed",
        "file": "harness.py",
        "old": "            proc.close()\n",
        "new": "",
        "tests": ["tests/test_harness.py::test_batch_leaves_no_worker_running"],
        "found": _STDLIB_WORKERS,
    },
    {
        "name": "worker-takes-a-ctrl-c",
        "file": "harness.py",
        "old": "    signal.signal(signal.SIGINT, signal.SIG_IGN)\n",
        "new": "",
        "tests": ["tests/test_harness.py::test_batch_workers_leave_a_ctrl_c_to_the_parent"],
        "found": _ONE_RULE,
    },
    {
        "name": "same-as-eq",
        "file": "harness.py",
        "old": "return hit or _canonical(want) == _canonical(got)",
        "new": "return want == got",
        "tests": ["tests/test_harness.py::test_validate_tells_apart_values_of_another_type"],
        "found": _ONE_RULE,
    },
    {
        "name": "same-without-its-encode",
        "file": "harness.py",
        "old": "return hit or _canonical(want) == _canonical(got)",
        "new": "return hit",
        "tests": ["tests/test_harness.py::test_validate_judges_a_record_by_the_line_it_writes"],
        "found": _ONE_RULE,
    },
    {
        "name": "same-without-its-guard",
        "file": "harness.py",
        "old": "    try:\n        return hit or _canonical(want) == _canonical(got)\n"
        "    except (TypeError, ValueError):",
        "new": "    if True:\n        return hit or _canonical(want) == _canonical(got)\n"
        "    else:",
        "tests": ["tests/test_harness.py::test_validate_judges_a_record_by_the_line_it_writes"],
        "found": _ONE_RULE,
    },
    {
        "name": "eventually-stationary-segment-does-not-advance",
        "file": "opponents.py",
        "old": "        self.round += length\n        return np.concatenate([self.pre.act_segment(pre_len)",
        "new": "        return np.concatenate([self.pre.act_segment(pre_len)",
        "tests": [
            "tests/test_opponents.py::test_eventually_stationary_switch_contract",
            "tests/test_harness.py::test_scripted_opponent_moves_through_its_script_beside_fictitious_play",
        ],
        "found": _TEST_ONLY,
    },
    {
        "name": "scripted-segment-does-not-advance",
        "file": "opponents.py",
        "old": "        self.pos += length\n        return self.actions[idx]",
        "new": "        return self.actions[idx]",
        "tests": [
            "tests/test_opponents.py::test_scripted_repeats_last_action",
            "tests/test_opponents.py::test_scripted_counts_equal_bincount_of_its_segment",
        ],
        "found": _TEST_ONLY,
    },
    {
        "name": "roster-copy-allows-nan",
        "file": "config.py",
        "old": "allow_nan=False",
        "new": "allow_nan=True",
        "tests": [
            "tests/test_harness.py::test_run_config_rejects_opponent_that_does_not_fit_game",
            "tests/test_config_cli.py::test_cli_validate_rejects_a_header_json_cannot_hold",
        ],
        "found": _ONE_COPY,
    },
    {
        "name": "switch-round-may-be-minus-one",
        "file": "opponents.py",
        "old": 'check_count("switch_round", switch_round, 0)',
        "new": 'check_count("switch_round", switch_round, -1)',
        "tests": ["tests/test_harness.py::test_run_config_rejects_opponent_that_does_not_fit_game"],
        "found": _ONE_COPY,
    },
    {
        "name": "header-splice-ignores-trial",
        "file": "traceio.py",
        "old": 'return f"{head}{trial}{tail}"',
        "new": 'return f"{head}0{tail}"',
        "tests": ["tests/test_acceptance.py::test_trace_bytes_are_frozen"],
        "found": _HEADER_ONCE,
    },
    {
        "name": "header-read-shares-cached-dict",
        "file": "traceio.py",
        "old": "rec = pickle.loads(_header_pickle(head))",
        "new": "rec = _header_pickle.__dict__.setdefault(head, pickle.loads(_header_pickle(head)))",
        "tests": ["tests/test_harness.py::test_read_trace_reads_each_header_line_as_json_loads_does"],
        "found": _HEADER_ONCE,
    },
    {
        "name": "header-read-accepts-leading-zero",
        "file": "traceio.py",
        "old": "r'(0|[1-9][0-9]*),",
        "new": "r'([0-9]+),",
        "tests": ["tests/test_harness.py::test_read_trace_reads_each_header_line_as_json_loads_does"],
        "found": _HEADER_ONCE,
    },
    {
        "name": "read-strips-every-space",
        "file": "traceio.py",
        "old": 'line = line.removesuffix("\\n")',
        "new": "line = line.strip()",
        "tests": ["tests/test_harness.py::test_read_trace_rejects_a_line_with_a_space_json_does_not_count"],
        "found": _HEADER_ONCE,
    },
    {
        "name": "read-without-an-end-record",
        "file": "traceio.py",
        "old": "if header is None or end is None:",
        "new": "if header is None and end is None:",
        "tests": ["tests/test_harness.py::test_read_trace_needs_the_header_and_the_end_record"],
        "found": _REPLAY_COST,
    },
    {
        "name": "read-epoch-seq-order-unchecked",
        "file": "traceio.py",
        "old": "if type(seq) is int and seq >= last and",
        "new": "if type(seq) is int and seq >= 0 and",
        "tests": ["tests/test_config_cli.py::test_cli_validate_rejects_malformed_records"],
        "found": _REPLAY_COST,
    },
    {
        "name": "histogram-count-may-be-a-bool",
        "file": "learner.py",
        "old": "if type(c) is not int or c < 0:",
        "new": "if not isinstance(c, int) or c < 0:",
        "tests": ["tests/test_learner.py::test_histogram_total_takes_one_row_of_nonnegative_ints_per_player"],
        "found": _REPLAY_COST,
    },
    {
        "name": "hypothesis-tests-the-first-player-only",
        "file": "learner.py",
        "old": "for h, ref in zip(counts, refs):",
        "new": "for h, ref in zip(counts[:1], refs):",
        "tests": ["tests/test_learner.py::test_each_hypothesis_test_covers_every_player"],
        "found": _REPLAY_COST,
    },
    {
        "name": "partial-rounds-may-fill-the-next-epoch",
        "file": "harness.py",
        "old": "not 0 <= partial < n_rounds",
        "new": "not 0 <= partial <= n_rounds",
        "tests": ["tests/test_harness.py::test_validate_accepts_only_the_end_record_run_trial_writes"],
        "found": _REPLAY_COST,
    },
    {
        "name": "payoff-range-unchecked",
        "file": "games.py",
        "old": "if not math.isfinite(mu):",
        "new": "if False:",
        "tests": [
            "tests/test_games.py::test_stage_game_rejects_a_payoff_range_that_overflows",
            "tests/test_config_cli.py::test_cli_run_rejects_a_game_whose_payoff_range_overflows",
        ],
        "found": _REPLAY_COST,
    },
    {
        "name": "factor-reads-eps-e-one-epoch-early",
        "file": "schedule.py",
        "old": "(n * eps_e[1:] ** 2)",
        "new": "(n * eps_e[:-1] ** 2)",
        "tests": ["tests/test_schedule.py::test_single_factor_value"],
        "found": _ONE_FACTOR,
    },
    {
        "name": "margin-reads-eps-s-of-this-epoch",
        "file": "learner.py",
        "old": "max(shape) * eps_e_t *",
        "new": "max(shape) * eps_s_t *",
        "tests": ["tests/test_harness.py::test_per_round_trace_bytes_are_frozen"],
        "found": _ONE_FACTOR,
    },
    {
        "name": "factor-check-skips-the-epoch-length",
        "file": "schedule.py",
        "old": "np.isfinite(n) & np.isfinite(factors)",
        "new": "np.isfinite(factors)",
        "tests": [
            "tests/test_schedule.py::test_infinite_epoch_length_fails",
            "tests/test_schedule.py::test_infinite_epoch_length_raises_in_bound",
            "tests/test_config_cli.py::test_cli_schedule_reports_an_infinite_epoch_length",
        ],
        "found": _ONE_FACTOR,
    },
    {
        "name": "pure-draw-skips-the-advance",
        "file": "games.py",
        "old": "        rng.bit_generator.advance(n)\n",
        "new": "",
        "tests": ["tests/test_games.py::test_a_pure_strategy_draws_what_choice_draws"],
        "found": _PURE_DRAW,
    },
    {
        "name": "pure-draw-advances-one-short",
        "file": "games.py",
        "old": "rng.bit_generator.advance(n)",
        "new": "rng.bit_generator.advance(n - 1)",
        "tests": ["tests/test_games.py::test_a_pure_strategy_draws_what_choice_draws"],
        "found": _PURE_DRAW,
    },
    {
        "name": "agent-takes-player-minus-one",
        "file": "learner.py",
        "old": "if not 0 <= self.me < self.n_players:",
        "new": "if not -1 <= self.me < self.n_players:",
        "tests": ["tests/test_learner.py::test_the_agent_rejects_a_player_outside_the_game"],
        "found": _PURE_DRAW,
    },
    {
        "name": "round-budget-unbounded",
        "file": "config.py",
        "old": "if self.round_budget > 2**63 - 1:",
        "new": "if False:",
        "tests": ["tests/test_config_cli.py::test_cli_run_rejects_a_round_budget_past_int64"],
        "found": _PURE_DRAW,
    },
    {
        "name": "round-budget-may-reach-2-to-the-63",
        "file": "config.py",
        "old": "if self.round_budget > 2**63 - 1:",
        "new": "if self.round_budget > 2**63:",
        "tests": ["tests/test_harness.py::test_run_config_bounds_the_round_budget"],
        "found": _PURE_DRAW,
    },
    {
        "name": "lock-kind-reads-the-second-last-epoch",
        "file": "harness.py",
        "old": 'if all(rec["eq_hyp_after"] for rec in last):',
        "new": 'if all(rec["eq_hyp_after"] for rec in window_groups[-2]):',
        # Killed by the case pure-equilibrium-rejected-in-the-last-epoch.
        "tests": ["tests/test_harness.py::test_detect_convergence_on_hand_made_traces"],
        "found": _PURE_DRAW,
    },
    {
        "name": "stable-suffix-starts-at-the-second-last-epoch",
        "file": "harness.py",
        "old": "for i in range(len(groups) - 1, -1, -1):",
        "new": "for i in range(len(groups) - 2, -1, -1):",
        # Killed by the cases restart-in-the-last-epoch and stable-last-epoch-after-a-restart.
        "tests": ["tests/test_harness.py::test_detect_convergence_on_hand_made_traces"],
        "found": _PURE_DRAW,
    },
    {
        "name": "no-epochs-summarise-one-restart",
        "file": "harness.py",
        "old": 'for rec in trace.events), default=0)',
        "new": 'for rec in trace.events), default=1)',
        "tests": ["tests/test_harness.py::test_detect_convergence_on_a_trace_of_no_epochs"],
        "found": _PURE_DRAW,
    },
    {
        "name": "game-mapping-takes-unknown-keys",
        "file": "config.py",
        "old": "unknown = sorted(map(str, d.keys() - _GAME_KEYS))",
        "new": "unknown = []",
        "tests": ["tests/test_config_cli.py::test_game_mapping_rejects_unknown_keys"],
        "found": _ONE_SYNTAX,
    },
    {
        "name": "payoffs-take-any-entry",
        "file": "config.py",
        "old": '    check_numbers(d["payoffs"], "payoffs")\n',
        "new": "",
        "tests": [
            "tests/test_config_cli.py::test_game_mapping_needs_number_payoffs",
            "tests/test_config_cli.py::test_cli_solve_rejects_a_payoff_yaml_reads_as_a_string",
        ],
        "found": _ONE_SYNTAX,
    },
    {
        "name": "fp-runs-lower-index-needs-a-strict-win",
        "file": "opponents.py",
        "old": "lead // gain + 1 if a > best else -(-lead // gain)",
        "new": "lead // gain + 1",
        "tests": [
            "tests/test_opponents.py::test_fictitious_play_answers_a_constant_stretch_in_runs_as_in_columns",
            "tests/test_opponents.py::test_fictitious_play_answers_any_segment_in_integers_as_in_columns",
        ],
        "found": _RUNS,
    },
    {
        "name": "fp-runs-past-2**53",
        "file": "opponents.py",
        "old": "if self._scale * (sum(counts) + length) > 2**53:",
        "new": "if False:",
        "tests": ["tests/test_opponents.py::test_fictitious_play_leaves_a_stretch_it_cannot_answer_exactly"],
        "found": _RUNS,
    },
    {
        "name": "fp-runs-leave-the-counts",
        "file": "opponents.py",
        "old": "        self.counts = [after]\n",
        "new": "",
        "tests": [
            "tests/test_opponents.py::test_fictitious_play_answers_a_constant_stretch_in_runs_as_in_columns",
            "tests/test_opponents.py::test_fictitious_play_answers_any_segment_in_integers_as_in_columns",
            "tests/test_opponents.py::test_fictitious_play_answers_a_million_rounds_in_runs",
        ],
        "found": _RUNS,
    },
    {
        "name": "probs-take-any-entry",
        "file": "opponents.py",
        "old": 'for key in ("probs", "initial_counts"):',
        "new": 'for key in ("initial_counts",):',
        "tests": ["tests/test_config_cli.py::test_cli_run_needs_number_probs"],
        "found": _RUNS,
    },
    {
        "name": "initial-counts-overflow-unchecked",
        "file": "opponents.py",
        "old": "if not math.isfinite(largest * math.prod(sum(c.tolist()) for c in counts)):",
        "new": "if False:",
        "tests": ["tests/test_opponents.py::test_fictitious_play_rejects_counts_whose_values_overflow"],
        "found": _RUNS,
    },
    {
        "name": "fp-int-last-maximiser-wins-a-tie",
        "file": "opponents.py",
        "old": "best = steps.cumsum(axis=1)[:, :-1].argmax(axis=0)",
        "new": "best = len(values) - 1 - steps.cumsum(axis=1)[::-1, :-1].argmax(axis=0)",
        "tests": ["tests/test_opponents.py::test_fictitious_play_answers_any_segment_in_integers_as_in_columns"],
        "found": _DRAWN,
    },
    {
        "name": "fp-int-counts-miss-the-last-round",
        "file": "opponents.py",
        "old": "after += np.bincount(actions, minlength=len(after))",
        "new": "after += np.bincount(actions[:-1], minlength=len(after))",
        "tests": ["tests/test_opponents.py::test_fictitious_play_answers_any_segment_in_integers_as_in_columns"],
        "found": _DRAWN,
    },
    {
        "name": "fp-int-round-counts-its-own-action",
        "file": "opponents.py",
        "old": "steps.cumsum(axis=1)[:, :-1]",
        "new": "steps.cumsum(axis=1)[:, 1:]",
        "tests": ["tests/test_opponents.py::test_fictitious_play_answers_any_segment_in_integers_as_in_columns"],
        "found": _DRAWN,
    },
    {
        "name": "longer-request-redraws-from-the-start",
        "file": "learner.py",
        "old": "self._buffer = np.concatenate([self._buffer, more])",
        "new": "self._buffer = draw_actions(self._play_rng, self.state.phi, length)",
        "tests": ["tests/test_learner.py::test_any_split_of_an_epoch_plays_the_actions_of_one_draw"],
        "found": _DRAWN,
    },
    {
        "name": "mixed-draw-from-the-top",
        "file": "games.py",
        "old": "cdf.searchsorted(rng.random(n)",
        "new": "cdf.searchsorted(1.0 - rng.random(n)",
        "tests": [
            "tests/test_games.py::test_mixed_strategies_draw_what_choice_draws",
            "tests/test_games.py::test_other_strategies_and_streams_draw_through_choice",
        ],
        "found": _DRAWN,
    },
    {
        # With one responder, steps holds the arrays from before the copy, so its
        # answers land there and the copies counted keep the placeholders.
        "name": "segment-counts-the-placeholders",
        "file": "harness.py",
        "old": "        for step in steps:  # views into joint, so answers land there\n",
        "new": "        joint = [a.copy() for a in joint]\n        for step in steps:\n",
        "tests": ["tests/test_harness.py::test_three_player_history_dependent_trace_bytes_are_frozen"],
        "found": _OWNERS,
    },
    {
        "name": "schedule-row-0-gets-a-product",
        "file": "cli.py",
        "old": "if 1 <= t <= good:",
        "new": "if 0 <= t <= good:",
        "tests": ["tests/test_config_cli.py::test_cli_schedule_product_columns_match_the_bound"],
        "found": _OWNERS,
    },
    {
        "name": "schedule-flags-as-text",
        "file": "cli.py",
        "old": "type=kind, default=argparse.SUPPRESS",
        "new": "default=argparse.SUPPRESS",
        "tests": ["tests/test_config_cli.py::test_cli_schedule_reports_an_infinite_epoch_length"],
        "found": _OWNERS,
    },
]


def mutate(src: Path, mutant: dict) -> None:
    """Apply ``mutant``'s edit to the package under ``src``; its old text must occur once."""
    path = src / "repgame" / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise ValueError(f"{mutant['name']}: its old text occurs {count} times in {mutant['file']}, not once")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run(mutant: dict) -> tuple[str, str]:
    """``(verdict, detail)``: verdict ``killed``, ``survived`` or ``error``."""
    with tempfile.TemporaryDirectory(prefix="repgame-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            mutate(src, mutant)
        except ValueError as exc:
            return "error", str(exc)
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}", *mutant["tests"]]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = None
        finally:  # end the session: after a timeout, a Ctrl-C, or a batch worker the tests left
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        if out is None:
            proc.communicate()
            return "killed", f"timed out after {TIMEOUT_S} s"
    last = out.strip().splitlines()[-1:] or [""]
    if proc.returncode == 1:
        return "killed", last[0]
    if proc.returncode == 0:
        return "survived", last[0]
    return "error", f"pytest exited {proc.returncode}:\n{out}"


def main(argv: list[str]) -> int:
    by_name = {m["name"]: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = []
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        start = time.monotonic()
        verdict, detail = run(mutant)
        print(f"{verdict:8} {mutant['name']} ({time.monotonic() - start:.1f} s): {detail}", flush=True)
        if verdict != "killed":
            failed.append(f"{mutant['name']} ({verdict})")
    if failed:
        print(f"not killed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
