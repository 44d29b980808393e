"""Trace and summary persistence.

Traces are JSON-lines: one header record, then epoch records in order,
then an end record; read_trace rejects any other order.  Every record
is serialised with sorted keys so a trace produced from the same config
and trial is byte-identical across runs and platforms.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

from .harness import TRACE_SCHEMA, BatchResult, RunSummary, RunTrace, _canonical
from .schedule import check_count

# The fields each record type must carry; read_trace rejects a record
# without them, and a header or end record with any other.  The replay
# checks every field of an epoch record.
_RECORD_FIELDS = {
    "header": frozenset({"type", "schema", "trial", "config", "equilibrium"}),
    "epoch": frozenset({"type", "seq"}),
    "end": frozenset({"type", "rounds_used", "epochs", "partial_rounds"}),
}


def trace_lines(trace: RunTrace):
    yield _canonical(trace.header)
    for rec in trace.events:
        yield _canonical(rec)
    yield _canonical(
        {
            "type": "end",
            "rounds_used": trace.rounds_used,
            "epochs": trace.epochs,
            "partial_rounds": trace.partial_rounds,
        }
    )


def write_trace(trace: RunTrace, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for line in trace_lines(trace):
            fh.write(line + "\n")


def read_trace(path) -> RunTrace:
    path = Path(path)
    header = None
    events = []
    end = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = rec.get("type") if isinstance(rec, dict) else None
            fields = _RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise ValueError(f"{path}:{lineno}: not a header, epoch or end record: {line[:60]}")
            if not rec.keys() >= fields:
                missing = ", ".join(sorted(fields - rec.keys()))
                raise ValueError(f"{path}:{lineno}: {kind} record without {missing}")
            if kind != "epoch" and rec.keys() != fields:
                unknown = ", ".join(sorted(rec.keys() - fields))
                raise ValueError(f"{path}:{lineno}: {kind} record with unknown {unknown}")
            # The order: the header, epochs by nondecreasing seq, the end.
            if end is not None:
                raise ValueError(f"{path}:{lineno}: {kind} record after the end record")
            if kind == "header":
                if header is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate header record")
                header = rec
            elif header is None:
                raise ValueError(f"{path}:{lineno}: {kind} record before the header")
            elif kind == "epoch":
                try:
                    check_count("seq", rec["seq"], 0)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: epoch {exc}") from None
                if events and rec["seq"] < events[-1]["seq"]:
                    raise ValueError(f"{path}:{lineno}: epoch seq {rec['seq']} after seq {events[-1]['seq']}")
                events.append(rec)
            else:
                end = rec
    if header is None or end is None:
        raise ValueError(f"{path}: trace must contain header and end records")
    if header["schema"] != TRACE_SCHEMA:
        raise ValueError(f"{path}: trace schema {header['schema']!r}, expected {TRACE_SCHEMA}")
    return RunTrace(
        header=header,
        events=events,
        rounds_used=end["rounds_used"],
        epochs=end["epochs"],
        partial_rounds=end["partial_rounds"],
    )


SUMMARY_FIELDS = (
    "trial",
    "converged",
    "kind",
    "restarts",
    "rounds_used",
    "epochs",
    "epochs_to_convergence",
    "final_phi",
)


def write_summary_csv(summaries: list[RunSummary], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for s in sorted(summaries, key=lambda s: s.trial):
            writer.writerow(
                [
                    s.trial,
                    "" if s.converged is None else str(s.converged).lower(),
                    s.kind,
                    s.restarts,
                    s.rounds_used,
                    s.epochs,
                    "" if s.epochs_to_convergence is None else s.epochs_to_convergence,
                    _canonical({str(k): list(v) for k, v in s.final_phi.items()}),
                ]
            )


def write_batch_report(result: BatchResult, path) -> None:
    """Aggregate statistics as a single sorted-key JSON document."""
    path = Path(path)
    doc = {
        "config": result.config_dict,
        "trials": len(result.summaries),
        "convergence_fraction": result.convergence_fraction,
        "kind_counts": result.kind_counts,
        "restart_histogram": {str(k): v for k, v in result.restart_histogram.items()},
        "mean_epochs_to_convergence": result.mean_epochs_to_convergence,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
