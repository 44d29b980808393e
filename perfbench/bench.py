"""The benchmark command.

    python3 -m perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One run of a workload:

1. Generates the workload's run-configuration document from the seed.
2. Reference: runs the batch serially under tracing, writes every trace,
   replay-validates every trace, and takes a SHA-256 over the trace files
   in trial order.
3. Timed repetitions, until ``--seconds`` have passed and at least
   ``MIN_REPS`` are done.  Each runs the batch phase at the workload's
   worker count (``run_batch`` with every trace written as it is
   delivered, then the summary CSV and the report JSON, as ``repgame
   batch`` does) and then the verify phase (``read_trace`` and
   ``validate_trace`` over every trace file, as ``repgame validate``
   does).  Its digest and learner counts must equal the reference's.
   With ``--trace 1`` the repetitions run under tracing and give the
   per-layer metrics; otherwise they run untraced and give the end-to-end
   metrics.
4. Set-up: ``SETUP_PROBES`` fresh interpreters each import repgame and
   build the run configuration.

End-to-end times are in reference seconds (see ``Calibration`` and
``setup_phase``), so that the drift in the speed of a shared host cancels.

Every failed trial, verify or determinism check is counted, makes the
result ``correct: false`` and the exit code 1.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own interpreter and prints
their metrics as ``<workload>/<metric>``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tracing import Tracer, instrument
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
# The verify phase over a small batch lasts milliseconds; repeat it until
# it lasts this long so that its rate is steady.
VERIFY_MIN_S = 0.8
SETUP_PROBES = 9
# What the calibration kernel takes, in seconds, on the reference machine
# (one core of the 2-vCPU sandbox the baselines in README.md come from).
CAL_REF_S = 0.07
# A bare interpreter that imports only repgame's dependencies, and its time
# to ready on the reference machine.
BARE = [sys.executable, "-c", "import numpy, yaml; print('ready', flush=True)"]
BARE_REF_S = 0.13

EXIT_OK, EXIT_FAILED, EXIT_NO_PROGRAM = 0, 1, 2


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Import repgame from this checkout's ``src``, and from nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repgame
        import repgame.config  # noqa: F401
        import repgame.traceio  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import repgame from {SRC}: {exc}") from exc
    where = Path(repgame.__file__).resolve().parent
    if where != SRC / "repgame":
        raise ProgramMissing(f"repgame was imported from {where}, not from {SRC}")


class Tally:
    """Operations attempted and failed: trials, verifies, determinism checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED: {failed} of {attempted} {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


def calibrate() -> float:
    """Seconds that a fixed mix of the work the workloads do takes right
    now: interpreter loops, small numpy calls, sampling and counting over
    arrays of a few MB, JSON.  It calls nothing in repgame, so no program
    change moves it."""
    rng = np.random.default_rng(12345)
    vector, matrix = np.ones(2), np.ones((2, 2))
    big = np.arange(500_000, dtype=np.float64)
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(20_000):
        table[i & 1023] = acc
        acc += i * i % 7
    for _ in range(1500):
        np.tensordot(matrix, vector, axes=(1, 0))
    for _ in range(2):
        draws = rng.choice(3, size=300_000, p=[0.5, 0.3, 0.2])
        np.bincount(draws, minlength=3)
        np.column_stack([draws, draws])
    for _ in range(3):
        big = np.cumsum(big) % 7.0
    for _ in range(30):
        json.loads(json.dumps({"counts": [[i, i + 1, i + 2] for i in range(40)], "flag": True}))
    return time.perf_counter() - start


class Calibration:
    """Converts the seconds a phase took into reference seconds.

    The sandbox's speed drifts by up to a third within seconds, because the
    host is shared.  The kernel runs before and after each timed phase; a phase
    that took ``t`` seconds while the kernel took ``c`` on average counts as
    ``t * CAL_REF_S / c`` reference seconds, which cancels the drift the
    phase and the kernel share."""

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """Reference seconds per second over the time since the last call."""
        before, self.last = self.last, calibrate()
        return 2 * CAL_REF_S / (before + self.last)


def trace_path(outdir: Path, trial: int) -> Path:
    """Where a trial's trace goes, named as ``repgame batch`` names it."""
    return outdir / f"trial-{trial:04d}.jsonl"


# -- phases ---------------------------------------------------------------------


@dataclass
class Batch:
    seconds: float
    rounds: int
    ipc_bytes: int  # pickled jobs plus results, when they cross processes


def batch_phase(config, workers: int, outdir: Path, tally: Tally, tracer: Tracer | None = None) -> Batch:
    """``run_batch`` writing each trace as it is delivered, then the summary
    CSV and report JSON; a trial fails if the batch raises before
    delivering it."""
    from repgame import harness, traceio

    outdir.mkdir(parents=True)
    delivered = []
    ipc_bytes = 0

    def write(trace, summary):
        traceio.write_trace(trace, trace_path(outdir, trace.header["trial"]))
        delivered.append(summary)

    def write_traced(trace, summary):
        nonlocal ipc_bytes
        tracer.enter("bench.on_trace")
        try:
            adopted = tracer.adopt(trace)
            if workers > 1:
                if not adopted:
                    raise RuntimeError("a pool worker ran untraced; tracing needs the fork start method")
                ipc_bytes += len(pickle.dumps((trace, summary)))
            write(trace, summary)
        finally:
            tracer.exit()

    start = time.perf_counter()
    try:
        result = harness.run_batch(
            config, workers=workers, on_trace=write if tracer is None else write_traced
        )
    except Exception:
        traceback.print_exc()
        result = None
    if result is not None:
        traceio.write_summary_csv(result.summaries, outdir / "summary.csv")
        traceio.write_batch_report(result, outdir / "report.json")
    seconds = time.perf_counter() - start
    tally.add(config.trial_count, config.trial_count - len(delivered), "trials")
    if tracer is not None and workers > 1:
        ipc_bytes += sum(len(pickle.dumps((config, t))) for t in range(config.trial_count))
    return Batch(seconds, sum(s.rounds_used for s in delivered), ipc_bytes)


@dataclass
class Verified:
    seconds: float
    records: int  # epoch records checked, over all passes
    passes: int
    failed: int  # traces that did not replay-validate
    counts: tuple  # learner (epochs, restarts, switches), from the epoch records
    digest: str  # SHA-256 over the trace files in trial order
    trace_bytes: int


def verify_phase(outdir: Path, trials: int, tally: Tally, min_seconds: float) -> Verified:
    """``read_trace`` + ``validate_trace`` over every trace file, in passes
    until ``min_seconds`` have passed."""
    from repgame import harness, traceio

    paths = [trace_path(outdir, t) for t in range(trials)]
    records = failed = 0
    epochs = restarts = switches = 0
    passes = 0
    start = time.perf_counter()
    while True:
        for path in paths:
            ok = False
            try:
                trace = traceio.read_trace(path)
                report = harness.validate_trace(trace)
                ok = report.ok
                if not ok:
                    print(f"{path.name}: {report.divergence}", file=sys.stderr)
            except Exception:
                traceback.print_exc()
                trace = None
            failed += not ok
            tally.check(ok, f"verify of {path.name}")
            if trace is not None:
                records += len(trace.events)
                if passes == 0:
                    epochs += len(trace.events)
                    restarts += sum(1 for rec in trace.events if rec["restart"])
                    switches += sum(1 for rec in trace.events if rec["switched"])
        passes += 1
        seconds = time.perf_counter() - start
        if seconds >= min_seconds:
            break
    digest = hashlib.sha256()
    trace_bytes = 0
    for path in paths:
        data = path.read_bytes() if path.exists() else b"<missing>"
        digest.update(data)
        trace_bytes += len(data)
    return Verified(
        seconds, records, passes, failed, (epochs, restarts, switches), digest.hexdigest(), trace_bytes
    )


def _time_to_ready(argv: list[str]) -> tuple[float, str]:
    """Seconds from starting ``argv`` to its first line of output, and the line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return seconds, line


def setup_phase(doc_path: Path, probes: int) -> dict:
    """Over fresh interpreters: time to ready as seen from here, in seconds
    and in reference seconds, and the probes' own import and build times.

    The calibration kernel does not follow how fast the host starts
    processes, so each probe is paired with a bare interpreter started just
    before it, and a probe that took ``t`` while the bare one took ``b``
    counts as ``t * BARE_REF_S / b`` reference seconds."""
    ready, ready_ref, imports, builds = [], [], [], []
    for _ in range(probes):
        bare, _ = _time_to_ready(BARE)
        seconds, line = _time_to_ready([sys.executable, str(PROBE), str(SRC), str(doc_path)])
        ready.append(seconds)
        ready_ref.append(seconds * BARE_REF_S / bare)
        probe = json.loads(line)
        imports.append(probe["import_s"])
        builds.append(probe["build_s"])
    return {"ready": ready, "ready_ref": ready_ref, "import": imports, "build": builds}


# -- metrics ----------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, batch: Batch, verified: Verified, workers: int, learners: int) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    calls, busy = tr.calls, tr.busy
    epochs, restarts, switches = verified.counts
    batch_wall = sum(tr.durations("harness.run_batch"))
    m = {}
    for group in (
        "equilibrium.compute",
        "schedule",
        "learner.play",
        "learner.observe",
        "learner.decide",
        "opponents.play",
        "opponents.observe",
        "games.values",
        "harness.run_trial",
        "harness.detect_convergence",
        "harness.validate_trace",
        "traceio.write_trace",
        "traceio.read_trace",
    ):
        m[f"{group}.calls"] = (calls[group], "count")
        m[f"{group}.busy_s"] = (busy[group], "s")
    m["schedule.calls_per_epoch"] = (calls["schedule"] / max(epochs, 1), "ratio")
    m["equilibrium.compute.per_game"] = (calls["equilibrium.compute"] / max(len(tr.games), 1), "ratio")
    m["learner.draws"] = (tr.draws, "count")
    m["learner.draw_use"] = (batch.rounds * learners / max(tr.draws, 1), "ratio")
    m["learner.epochs"] = (epochs, "count")
    m["learner.restarts"] = (restarts, "count")
    m["learner.switches"] = (switches, "count")
    m["harness.validate_trace.records"] = (verified.records, "count")
    m["harness.validate_trace.failed"] = (verified.failed, "count")
    m["harness.run_batch.wait_s"] = (busy["harness.run_batch"] if workers > 1 else 0.0, "s")
    m["harness.run_batch.worker_busy_frac"] = (
        sum(tr.durations("harness.trial")) / (workers * batch_wall) if batch_wall else 0.0,
        "ratio",
    )
    m["harness.run_batch.ipc_bytes"] = (batch.ipc_bytes, "bytes")
    m["traceio.write_trace.bytes"] = (verified.trace_bytes, "bytes")
    m["traceio.read_trace.bytes"] = (verified.trace_bytes * verified.passes, "bytes")
    m["traced.wall_s"] = (batch.seconds + verified.seconds, "s")
    return m


def _median_metrics(reps: list[dict]) -> dict:
    return {
        name: (statistics.median(rep[name][0] for rep in reps), unit)
        for name, (_, unit) in reps[0].items()
    }


# -- one workload ---------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, traced: bool, workdir: Path):
    """Run one workload; returns (metrics, tally).  Metrics map a name to
    (value, unit): end-to-end ones, or per-layer ones when ``traced``."""
    from repgame import config as rconfig

    doc_path = workdir / "config.json"
    doc_path.write_text(json.dumps(workload.doc(seed), sort_keys=True), encoding="utf-8")
    config = rconfig.build_run_config(json.loads(doc_path.read_text(encoding="utf-8")), source=str(doc_path))
    trials = config.trial_count
    learners = sum(1 for entry in config.roster if entry["agent"] == "learner")
    tally = Tally()

    tracer = Tracer()
    with instrument(tracer):
        batch_phase(config, 1, workdir / "reference", tally, tracer)
    reference = verify_phase(workdir / "reference", trials, tally, 0.0)
    shutil.rmtree(workdir / "reference")
    # Read before the calibration kernel first runs, so that its arrays do
    # not count; the reference run is the same batch, serially.
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # name -> per-repetition values: measured, and in reference seconds
    raw, ref, layers, latencies = {}, {}, [], []
    reps = 0
    meter = Calibration()
    start = time.perf_counter()
    while reps < MIN_REPS or time.perf_counter() - start < seconds:
        outdir = workdir / f"rep-{reps}"
        reps += 1
        tracer = Tracer() if traced else None
        with instrument(tracer) if traced else contextlib.nullcontext():
            gc.collect()  # each phase starts from the same collector state
            batch = batch_phase(config, workload.workers, outdir, tally, tracer)
            batch_factor = meter.factor()
            gc.collect()
            verified = verify_phase(outdir, trials, tally, 0.0 if traced else VERIFY_MIN_S)
            verify_factor = meter.factor()
        if traced:
            layers.append(layer_metrics(tracer, batch, verified, workload.workers, learners))
            latencies += tracer.durations("harness.run_trial")
        tally.check(verified.digest == reference.digest, "trace digest equal to the serial traced run's")
        tally.check(verified.counts == reference.counts, "learner epochs/restarts/switches equal to the reference's")
        for name, amount, seconds_taken, factor in (
            ("rounds_per_s", batch.rounds, batch.seconds, batch_factor),
            ("verify_records_per_s", verified.records, verified.seconds, verify_factor),
        ):
            raw.setdefault(name, []).append(amount / seconds_taken)
            ref.setdefault(name, []).append(amount / (seconds_taken * factor))
        shutil.rmtree(outdir)

    # Pages a forked worker shares with this process count in both, so with
    # a pool this is an upper bound.  Read before the set-up probes start.
    pool_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workload.workers > 1 else 0
    rss_mb = (own_kb + workload.workers * pool_kb) / 1024.0
    setup = setup_phase(doc_path, SETUP_PROBES)
    raw["setup_s"], ref["setup_s"] = setup["ready"], setup["ready_ref"]
    print(
        f"{workload.name}: seed {seed}, {trials} trials, workers {workload.workers}, "
        f"{reps} repetitions; medians as measured: "
        + ", ".join(f"{name} {statistics.median(values):.6g}" for name, values in raw.items())
    )
    if traced:
        metrics = _median_metrics(layers)
        # per-trial latency over the trials of every repetition
        metrics["harness.run_trial.p50_s"] = (_quantile(latencies, 50), "s")
        metrics["harness.run_trial.p90_s"] = (_quantile(latencies, 90), "s")
        metrics["setup.import_s"] = (statistics.median(setup["import"]), "s")
        metrics["config.build_run_config.busy_s"] = (statistics.median(setup["build"]), "s")
        return metrics, tally
    return {
        "setup_s": (statistics.median(ref["setup_s"]), "s"),
        "rounds_per_s": (statistics.median(ref["rounds_per_s"]), "rounds/s"),
        "verify_records_per_s": (statistics.median(ref["verify_records_per_s"]), "records/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, tally


# -- provenance and output ------------------------------------------------------------


def provenance() -> dict:
    files = sorted((SRC / "repgame").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, tally = run_workload(workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {workload.name}  {name:<40} {value:.6g} {unit}")
    print(f"  {workload.name}  fail_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
    return EXIT_OK if tally.failed == 0 else EXIT_FAILED


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS and imports are its own."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        argv = [sys.executable, "-m", "perfbench", "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return EXIT_FAILED
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (value["value"], value["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return EXIT_OK if correct else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    return run_one(args)
