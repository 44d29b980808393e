"""Trace and summary persistence.

Traces are JSON-lines: one header record, then epoch records in order,
then an end record; read_trace rejects any other order.  Every record
is serialised with sorted keys, and every line ends in ``\n`` on every
platform, so a trace's bytes are a function of the config, the trial, the
repgame version and numpy's sampler algorithms; a mixed equilibrium's
bits can still depend on the BLAS kernel that solves it (README,
Determinism).  The headers of a batch differ only in ``trial``, so a
header line is encoded, and parsed back, once per config.
"""
from __future__ import annotations

import csv
import functools
import json
import pickle
import re
from pathlib import Path

from .harness import _UNPICKLABLE, TRACE_SCHEMA, BatchResult, RunSummary, RunTrace, _canonical, _header_key
from .schedule import check_count

# The fields each record type must carry; read_trace rejects a record
# without them, and a header or end record with any other.  The replay
# checks every field of an epoch record.
_RECORD_FIELDS = {
    "header": frozenset({"type", "schema", "trial", "config", "equilibrium"}),
    "epoch": frozenset({"type", "seq"}),
    "end": frozenset({"type", "rounds_used", "epochs", "partial_rounds"}),
}


@functools.lru_cache(maxsize=32)
def _header_halves(key: bytes) -> tuple[str, str]:
    """The ``_canonical`` text of the header that ``key`` pickles, split around its ``trial`` 0:
    the one character where the text differs from the text with ``trial`` 1."""
    header = pickle.loads(key)
    zero, one = _canonical(header), _canonical({**header, "trial": 1})
    cut = next(i for i, (a, b) in enumerate(zip(zero, one)) if a != b)
    return zero[:cut], zero[cut + 1 :]


def _header_line(header) -> str:
    """``_canonical(header)``.  A header whose ``trial`` is an int (a bool encodes as ``true``)
    takes its config's cached text, keyed by ``_header_key``, with the trial spliced in."""
    trial = header.get("trial") if type(header) is dict else None
    if type(trial) is int:
        try:
            head, tail = _header_halves(_header_key(header))
            return f"{head}{trial}{tail}"
        except _UNPICKLABLE:  # the encode raises what JSON cannot hold, or encodes what pickle cannot
            pass
    return _canonical(header)


def trace_lines(trace: RunTrace):
    yield _header_line(trace.header)
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
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in trace_lines(trace):
            fh.write(line + "\n")


# How a header line that _canonical writes ends after its last ``,"trial":``: ``trial`` and
# ``type`` sort last.
_HEADER_END = re.compile(r'(0|[1-9][0-9]*),"type":"header"}')
# What JSON counts as space in a line read in text mode, which ends lines at "\r" too, once its "\n" is gone.
_SPACE = " \t"


@functools.lru_cache(maxsize=32)
def _header_pickle(head: str) -> bytes:
    """The pickle of the record of the header line that starts ``head`` and has ``trial`` 0."""
    return pickle.dumps(json.loads(f'{head},"trial":0,"type":"header"}}'), protocol=pickle.HIGHEST_PROTOCOL)


def _record(line: str):
    """``json.loads(line)``.  A line that ends as ``_canonical`` ends a header, with a trial
    >= 0 written as it writes one, is parsed once per distinct text with that trial written 0;
    each call gets a fresh copy with its own trial."""
    if line.endswith('"header"}'):  # so every other line pays no search
        head, _, tail = line.rpartition(',"trial":')
        match = _HEADER_END.fullmatch(tail)
        if match is not None:
            try:
                rec = pickle.loads(_header_pickle(head))
                rec["trial"] = int(match[1])
                return rec
            except ValueError:  # not JSON, or too many digits: json.loads says where in this line
                pass
    return json.loads(line)


def read_trace(path) -> RunTrace:
    path = Path(path)
    header = end = None
    events = []
    last = 0  # the least seq the next epoch record may have
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")  # the line end alone: JSON says what else is space
            try:
                rec = _record(line)
            except ValueError as exc:
                if not line.strip(_SPACE):  # a blank line
                    continue
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = rec.get("type") if isinstance(rec, dict) else None
            seq = rec.get("seq") if kind == "epoch" else None
            if type(seq) is int and seq >= last and header is not None and end is None:  # the common case
                events.append(rec)
                last = seq
                continue
            fields = _RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise ValueError(f"{path}:{lineno}: not a header, epoch or end record: {line.strip(_SPACE)[:60]}")
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
            elif kind == "epoch":  # its seq failed the first test
                try:
                    check_count("seq", rec["seq"], 0)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: epoch {exc}") from None
                raise ValueError(f"{path}:{lineno}: epoch seq {rec['seq']} after seq {last}")
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
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n")
