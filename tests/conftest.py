from typing import NamedTuple

from repgame.harness import BatchResult, run_batch

ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance criterion verdict lines after the test run,
    outside pytest's output capture."""
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


class Delivered(NamedTuple):
    summaries: list
    traces: list  # in the order on_trace received them
    result: BatchResult


def run_batch_delivered(config, workers: int = 1) -> Delivered:
    """``run_batch``'s result and summaries, and the traces it delivered to ``on_trace``."""
    traces = []
    result = run_batch(config, workers=workers, on_trace=lambda trace, summary: traces.append(trace))
    return Delivered(result.summaries, traces, result)
