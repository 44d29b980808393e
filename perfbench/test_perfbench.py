"""Tests of the benchmark itself: input generation, tracing and the
correctness gate.  They use shrunken workloads and take a few seconds."""
import dataclasses
import json
import sys

import pytest

from perfbench import bench, tracing
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module", autouse=True)
def program():
    bench.load_program()


def tiny(name="short-epochs-selfplay", **shape):
    """A workload of the named shape, cut down to a few small trials."""
    w = WORKLOADS[name]
    small = {"trial_count": 3, "round_budget": 3000, "epoch_budget": 6, **shape}
    return dataclasses.replace(w, name=f"tiny-{name}", shape={**w.shape, **small})


def config_of(workload, seed):
    from repgame import config

    return config.build_run_config(workload.doc(seed))


def run_traced(cfg, workers, outdir):
    tally = bench.Tally()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        bench.batch_phase(cfg, workers, outdir, tally, tracer)
    return tracer, bench.verify_phase(outdir, cfg.trial_count, tally, 0.0), tally


def test_generator_is_deterministic_in_its_seed():
    from repgame import config

    for w in WORKLOADS.values():
        assert json.dumps(w.doc(5), sort_keys=True) == json.dumps(w.doc(5), sort_keys=True)
        a, b = w.doc(5), w.doc(6)
        assert (a.pop("master_seed"), b.pop("master_seed")) == (5, 6)
        assert a == b == w.shape  # the seed changes nothing but the master seed
        assert config.build_run_config(w.doc(w.default_seed)).master_seed == w.default_seed
        assert w.held_out_seed != w.default_seed


def _bindings():
    """Every attribute of repgame's modules and classes, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "repgame" or name.startswith("repgame."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


@pytest.mark.parametrize("name", ["short-epochs-selfplay", "per-round-fp", "long-epochs"])
def test_traced_run_is_byte_identical_and_unwraps(tmp_path, name):
    workload = tiny(name, round_budget=1500)
    cfg = config_of(workload, 11)
    before = _bindings()
    tally = bench.Tally()
    bench.batch_phase(cfg, 1, tmp_path / "plain", tally)
    plain = bench.verify_phase(tmp_path / "plain", cfg.trial_count, tally, 0.0)
    tracer, traced, traced_tally = run_traced(cfg, 1, tmp_path / "traced")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert traced.digest == plain.digest
    assert traced.counts == plain.counts
    assert (tally.failed, traced_tally.failed) == (0, 0)
    assert tracer.calls["harness.run_trial"] == cfg.trial_count
    assert tracer.calls["harness.validate_trace"] == 0  # verify ran outside instrument()
    assert tracer.calls["learner.decide"] == traced.counts[0]


def test_worker_spans_return_to_the_parent(tmp_path):
    cfg = config_of(tiny(trial_count=4), 3)
    serial_tracer, serial, _ = run_traced(cfg, 1, tmp_path / "serial")
    tracer, parallel, tally = run_traced(cfg, 2, tmp_path / "parallel")
    assert tally.failed == 0
    assert parallel.digest == serial.digest
    for group in ("harness.run_trial", "learner.play", "learner.decide", "games.values"):
        assert tracer.calls[group] == serial_tracer.calls[group], group
    assert len(tracer.durations("harness.trial")) == cfg.trial_count


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_arithmetic_on_a_synthetic_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]; d holds the
    # same-group d [6, 8] and the hot span h [8.5, 8.75].
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 8.5, 8.75, 9, 10]))
    tr.enter("a")
    tr.enter("b")
    tr.enter("c")
    tr.exit()
    tr.exit()
    tr.enter("d")
    tr.enter("d")
    tr.exit()
    tr.enter("schedule")
    tr.exit()
    tr.exit()
    tr.exit()
    assert dict(tr.busy) == {"a": 3, "b": 2, "c": 1, "d": 3.75, "schedule": 0.25}
    assert sum(tr.busy.values()) == 10  # self times partition the root span
    assert dict(tr.calls) == {"a": 1, "b": 1, "c": 1, "d": 1, "schedule": 1}
    assert sorted(tr.durations("d")) == [2, 4]
    assert tr.durations("schedule") == []  # hot: counted, not stored
    assert ("c", 2, 3, "b") in tr.spans


def _run_main(monkeypatch, tmp_path, capsys, workload):
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    monkeypatch.setattr(bench, "MIN_REPS", 1)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "VERIFY_MIN_S", 0.0)
    code = bench.main(["--workload", workload.name, "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not (tmp_path / "work").exists()
    return code, result


def test_clean_run_passes_the_gate(monkeypatch, tmp_path, capsys):
    code, result = _run_main(monkeypatch, tmp_path, capsys, tiny())
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    # 3 trials and 3 verifies, twice (reference + 1 repetition), plus 2 determinism checks
    assert result["attempted"] == 14
    assert set(result["metrics"]) == {"setup_s", "rounds_per_s", "verify_records_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_trace_fails_the_gate(monkeypatch, tmp_path, capsys):
    from repgame import traceio

    original = traceio.write_trace

    def tampering_write(trace, path):
        original(trace, path)
        if path.name == "trial-0001.jsonl":
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace('"switched":false', '"switched":true', 1), encoding="utf-8")

    monkeypatch.setattr(traceio, "write_trace", tampering_write)
    code, result = _run_main(monkeypatch, tmp_path, capsys, tiny())
    assert code == bench.EXIT_FAILED
    assert result["correct"] is False
    assert result["failed"] == 2  # trial 1's verify, in the reference and the repetition
