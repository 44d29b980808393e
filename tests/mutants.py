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
        "old": "return self.rng.choice(len(self.probs), size=length, p=self.probs)",
        "new": "return self.rng.choice(len(self.probs), size=max(length, 1), p=self.probs)[:length]",
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
