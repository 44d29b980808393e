"""Acceptance suite: one test per acceptance criterion, each emitting a
single pass/fail line (echoed after the run via conftest's terminal
summary hook so the verdicts always appear in the run log)."""
import copy
import hashlib
import time

import numpy as np
import pytest

import conftest

from repgame import traceio
from repgame.equilibrium import compute_equilibrium, support_enumeration_2p
from repgame.games import StageGame, expected_utility, pure_action_values, pure_strategy, regret
from repgame.harness import RunConfig, validate_trace
from repgame.schedule import PRODUCT_LIMIT, Schedule, never_restart_lower_bound

from catalog import battle_of_sexes, matching_pennies, prisoners_dilemma, rock_paper_scissors

PAPER = (0.0, 1.0, 0.0)  # pure second action of rock-paper-scissors
LEARNER = {"agent": "learner"}


def _report(n: int, ok: bool, detail: str):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {n}: {detail}"


def stationary(probs):
    return {"agent": "opponent", "policy": {"kind": "stationary", "probs": list(probs)}}


# -- shared experiment configurations -------------------------------------------


def config_c3() -> RunConfig:
    g = rock_paper_scissors()
    return RunConfig(
        game=g,
        roster=(LEARNER, stationary([0.5, 0.3, 0.2])),
        schedule=Schedule(epsilon_base=1 / 30, actions_total=6, offset=29.0),
        round_budget=500_000,
        epoch_budget=10**6,
        master_seed=301,
        trial_count=50,
    )


def config_c4() -> RunConfig:
    g = rock_paper_scissors()
    adversarial = ([0, 1, 2] * 334)[:1000]
    return RunConfig(
        game=g,
        roster=(
            LEARNER,
            {
                "agent": "opponent",
                "policy": {
                    "kind": "eventually_stationary",
                    "pre": {"kind": "scripted", "actions": adversarial},
                    "switch_round": 1000,
                    "probs": [0.5, 0.3, 0.2],
                },
            },
        ),
        schedule=Schedule(epsilon_base=1 / 30, actions_total=6, offset=29.0),
        round_budget=500_000,
        epoch_budget=10**6,
        master_seed=401,
        trial_count=50,
    )


def config_c5() -> RunConfig:
    return RunConfig(
        game=matching_pennies(),
        roster=(LEARNER, LEARNER),
        schedule=Schedule(epsilon_base=0.5, actions_total=4),
        round_budget=10**7,
        epoch_budget=10,
        master_seed=501,
        trial_count=100,
    )


def config_c6() -> RunConfig:
    mixed = (np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]))
    return RunConfig(
        game=battle_of_sexes(),
        roster=(LEARNER, LEARNER),
        schedule=Schedule(epsilon_base=0.25, actions_total=4, epoch0_rounds=5),
        eq_override=mixed,
        round_budget=200_000,
        epoch_budget=12,
        master_seed=601,
        trial_count=200,
    )


@pytest.fixture(scope="module")
def batch3():
    return conftest.run_batch_delivered(config_c3())


@pytest.fixture(scope="module")
def batch4():
    return conftest.run_batch_delivered(config_c4())


@pytest.fixture(scope="module")
def batch5():
    return conftest.run_batch_delivered(config_c5())


@pytest.fixture(scope="module")
def batch6():
    return conftest.run_batch_delivered(config_c6())


def paper_lock_count(result) -> int:
    return sum(
        1
        for s in result.summaries
        if s.kind == "best-response-lock" and s.final_phi.get(0) == PAPER
    )


def lock_count(result) -> int:
    return sum(1 for s in result.summaries if s.kind == "best-response-lock")


# -- criterion 1: equilibrium suite --------------------------------------------------


def test_criterion_1_equilibrium_suite():
    start = time.perf_counter()
    problems = []

    mp = matching_pennies()
    eq = compute_equilibrium(mp)
    if not all(np.allclose(s, [0.5, 0.5], atol=1e-12) for s in eq.strategies):
        problems.append("coin-matching equilibrium wrong")

    pd = prisoners_dilemma()
    eq_pd = compute_equilibrium(pd)
    if not all(np.array_equal(s, [0.0, 1.0]) for s in eq_pd.strategies):
        problems.append("dilemma equilibrium not (D,D)")

    bos = battle_of_sexes()
    first = support_enumeration_2p(bos)[0]
    if not all(np.array_equal(s, [1.0, 0.0]) for s in first.strategies):
        problems.append("coordination game first equilibrium not (O,O)")

    for game, prof in ((mp, eq), (pd, eq_pd), (bos, first)):
        for p in range(2):
            if regret(game, prof.strategies, p) > 1e-9:
                problems.append("regret certificate exceeded 1e-9")

    rng = np.random.default_rng(10)
    for i in range(200):
        payoffs = rng.integers(-5, 6, size=(2, 2, 2)).astype(np.float64)
        game = StageGame(payoffs)
        profiles = support_enumeration_2p(game)
        if not profiles:
            problems.append(f"random game {i}: no equilibrium found")
            break
        if any(regret(game, profiles[0].strategies, p) > 1e-9 for p in range(2)):
            problems.append(f"random game {i}: unverified equilibrium")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, not problems, f"equilibrium suite in {elapsed:.2f}s; issues: {problems or 'none'}")


# -- criterion 2: schedule suite ------------------------------------------------------


def test_criterion_2_schedule_suite():
    start = time.perf_counter()
    sched = Schedule(epsilon_base=0.5, actions_total=4)

    t = np.arange(1, 10_001, dtype=np.float64)
    eps_e = 0.5 / (t + 1)
    rounds = sched.columns(t)[1]
    factors = 1.0 - 4.0 / (rounds * eps_e**2)
    factor_ok = bool(np.all(factors >= 2.0 ** -(1.0 / t) ** 2))

    prod = never_restart_lower_bound(sched, 10**6)
    product_ok = prod >= PRODUCT_LIMIT
    # Frozen oracle for the partial product itself (independent recomputation).
    frozen_ok = abs(prod - 0.31982705577279097) < 1e-12

    elapsed = time.perf_counter() - start
    ok = factor_ok and product_ok and frozen_ok and elapsed < 5.0
    _report(
        2,
        ok,
        f"factor bound exact t<=1e4: {factor_ok}; partial product at T=1e6 = "
        f"{prod:.7f} vs analytic limit 2^(-pi^2/6) = {PRODUCT_LIMIT:.7f}; "
        f"runtime {elapsed:.2f}s",
    )


# -- criterion 3: best response vs stationary opponent ---------------------------------


def test_criterion_3_stationary_best_response(batch3):
    # The guarantee holds in the limit.  It can show within the budget only
    # if epoch 0 rejects the equilibrium and the margin n*|A|*eps_s^{t+1}*mu
    # at the first best-response check (end of epoch 1) is below every gap
    # to the best response, so that a wrong random pick can be left at once.
    config = config_c3()
    game, sched = config.game, config.schedule
    opponent = np.asarray(config.roster[1]["policy"]["probs"], dtype=np.float64)
    distance = float(np.max(np.abs(opponent - compute_equilibrium(game).strategies[1])))
    values = pure_action_values(game, 0, [opponent])
    gaps = values.max() - values
    smallest_gap = float(gaps[gaps > 0].min())
    margin = game.num_players * max(game.action_counts) * sched.eps_s(2) * game.payoff_ranges[0]
    assert distance > sched.eps_e(0) and margin < smallest_gap, (
        f"c3 schedule premise: opponent at L-inf {distance:.4f} from the equilibrium "
        f"vs eps_e^0 = {sched.eps_e(0):.4f} (epoch 0 must reject it); first "
        f"best-response check (end of epoch 1) margin {margin:.4f} vs smallest "
        f"best-response gap {smallest_gap:.4f} (the margin must be below it)"
    )

    trials = len(batch3.summaries)
    locks = lock_count(batch3)
    paper = paper_lock_count(batch3)
    ok = paper >= 0.8 * trials and paper == locks
    _report(
        3,
        ok,
        f"{locks}/{trials} trials locked; {paper} locked on the best response "
        f"(need >=80% locked on it and all locks on it)",
    )


# -- criterion 4: eventually stationary opponent ----------------------------------------


def test_criterion_4_eventually_stationary(batch3, batch4):
    f3 = paper_lock_count(batch3) / len(batch3.summaries)
    f4 = paper_lock_count(batch4) / len(batch4.summaries)
    ok = abs(f3 - f4) <= 0.10
    _report(
        4,
        ok,
        f"fraction locked on the best response {f4:.2f} with a 1000-round "
        f"adversarial prefix vs {f3:.2f} stationary-from-start (tolerance 10 points)",
    )


# -- criterion 5: self-play on a mixed equilibrium ---------------------------------------


def test_criterion_5_self_play_mixed(batch5):
    bound = never_restart_lower_bound(Schedule(epsilon_base=0.5, actions_total=4), 10)
    good = 0
    phi_ok = True
    for trace in batch5.traces:
        last = [r for r in trace.events if r["seq"] == trace.epochs - 1]
        if all(r["eq_hyp_after"] for r in last) and all(
            r["restarts_total"] == 0 for r in trace.events
        ):
            good += 1
            if any(r["phi_after"] != [0.5, 0.5] for r in last):
                phi_ok = False
    n = len(batch5.traces)
    sigma = (bound * (1 - bound) / n) ** 0.5
    threshold = bound - 3 * sigma
    ok = good / n >= threshold and phi_ok
    _report(
        5,
        ok,
        f"{good}/{n} trials kept the equilibrium hypothesis with zero restarts "
        f"(threshold {threshold:.3f}); final strategies exact: {phi_ok}",
    )


# -- criterion 6: lock on an equilibrium other than the precomputed one -------------------


def _is_pure_nash(game: StageGame, profile) -> bool:
    strategies = [np.asarray(s) for s in profile]
    actions = [int(np.argmax(s)) for s in strategies]
    for p in range(game.num_players):
        current = game.payoffs[(p, *actions)]
        for a in range(game.action_counts[p]):
            trial = list(actions)
            trial[p] = a
            if game.payoffs[(p, *trial)] > current:
                return False
    return True


def test_criterion_6_alternate_equilibrium_lock(batch6):
    game = battle_of_sexes()
    locked = [s for s in batch6.summaries if s.kind == "pure-profile-lock"]
    all_nash = all(
        _is_pure_nash(game, [s.final_phi[p] for p in sorted(s.final_phi)])
        for s in locked
    )
    ok = len(locked) >= 1 and all_nash
    _report(
        6,
        ok,
        f"{len(locked)}/200 trials locked on a pure profile away from the "
        f"precomputed mixed equilibrium; all locked profiles verified as pure "
        f"equilibria by brute force: {all_nash}",
    )


# -- criterion 7: trace replay validation ---------------------------------------------------


def test_criterion_7_trace_replay(batch3, batch4, batch5, batch6):
    divergent = 0
    total = 0
    for batch in (batch3, batch4, batch5, batch6):
        for trace in batch.traces:
            total += 1
            if not validate_trace(trace).ok:
                divergent += 1

    # Tamper detection: perturb one field at a time in a stable record
    # (one where the random pure pick does not apply) and expect a divergence.
    trace = batch5.traces[0]
    target = next(
        i
        for i, r in enumerate(trace.events)
        if r["eq_hyp_before"] == r["eq_hyp_after"] and r["seq"] > 0
    )
    # rounds, eps_s_next and stat_hyp_after restate other fields and left
    # the record in schema 5; re-added with their true values, they are
    # fields the replay does not give.
    perturbations = {
        "t": lambda r: r.update(t=r["t"] + 1),
        "rounds": lambda r: r.update(rounds=sum(r["counts"][0])),
        "counts": lambda r: r["counts"][0].__setitem__(0, r["counts"][0][0] + 1),
        "eps_e": lambda r: r.update(eps_e=r["eps_e"] * 1.01),
        "eps_s": lambda r: r.update(eps_s=r["eps_s"] * 1.01),
        "eps_s_next": lambda r: r.update(eps_s_next=r["eps_e"]),
        "margin": lambda r: r.update(margin=r["margin"] + 1e-6),
        "eq_hyp_before": lambda r: r.update(eq_hyp_before=not r["eq_hyp_before"]),
        "eq_hyp_after": lambda r: r.update(eq_hyp_after=not r["eq_hyp_after"]),
        "grace_before": lambda r: r.update(grace_before=not r["grace_before"]),
        "grace_after": lambda r: r.update(grace_after=not r["grace_after"]),
        "stat_hyp_after": lambda r: r.update(stat_hyp_after=not r["restart"]),
        "phi_before": lambda r: r["phi_before"].__setitem__(0, 0.25),
        "phi_after": lambda r: r["phi_after"].__setitem__(0, 0.25),
        "switched": lambda r: r.update(switched=not r["switched"]),
        "restart": lambda r: r.update(restart=not r["restart"]),
        "restarts_total": lambda r: r.update(restarts_total=r["restarts_total"] + 1),
    }
    undetected = []
    for name, mutate in perturbations.items():
        tampered = copy.deepcopy(trace)
        mutate(tampered.events[target])
        if validate_trace(tampered).ok:
            undetected.append(name)

    ok = divergent == 0 and not undetected
    _report(
        7,
        ok,
        f"{total} traces replayed with {divergent} divergences; "
        f"undetected perturbations: {undetected or 'none'}",
    )


# -- criterion 8: self-play flag synchronization ---------------------------------------------


def test_criterion_8_synchronization(batch5, batch6):
    exceptions = 0
    epochs = 0
    for batch in (batch5, batch6):
        for trace in batch.traces:
            groups = {}
            for rec in trace.events:
                groups.setdefault(rec["seq"], []).append(rec)
            for group in groups.values():
                epochs += 1
                tuples = {
                    (
                        r["t"],
                        r["eq_hyp_after"],
                        r["restart"],
                        r["grace_after"],
                        r["restarts_total"],
                    )
                    for r in group
                }
                if len(group) != 2 or len(tuples) != 1:
                    exceptions += 1
    _report(
        8,
        exceptions == 0,
        f"flag tuples identical across both learners in {epochs} self-play "
        f"epochs; exceptions: {exceptions}",
    )


# -- criterion 9: batch determinism ------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, batch3, batch4, batch5, batch6):
    mismatches = 0
    compared = 0
    for label, config, batch in (
        ("c3", config_c3(), batch3),
        ("c4", config_c4(), batch4),
        ("c5", config_c5(), batch5),
        ("c6", config_c6(), batch6),
    ):
        rerun = conftest.run_batch_delivered(config)
        for first, second in zip(batch.traces, rerun.traces):
            compared += 1
            pa = tmp_path / f"{label}-a.jsonl"
            pb = tmp_path / f"{label}-b.jsonl"
            traceio.write_trace(first, pa)
            traceio.write_trace(second, pb)
            if pa.read_bytes() != pb.read_bytes():
                mismatches += 1
    _report(
        9,
        mismatches == 0,
        f"re-ran all four batches with the same master seeds; "
        f"{compared} trace files compared byte-for-byte, {mismatches} mismatches",
    )


# -- frozen trace bytes ---------------------------------------------------------------------------

# SHA-256 over every trace line, header included, of each batch.  A change
# that alters trace bytes must update these and say why in CHANGES.md.
FROZEN_DIGESTS = {
    "batch3": "23f91440fb735d1ec6faca77d3cade42c3d34a917258b47b2e81c3122faef1e8",
    "batch4": "d70eb7900ba5bb7aa3cf04c5d5fba71b04b8f4beda16de56c9af9303f1a2d004",
    "batch5": "b2f77dc4ff40400b32b0f890ac047306cb97748fba7335addc7d53eabb8f11dc",
    "batch6": "0dc8454701c0b244e85d54b82de7cd664a1ef1d0d34be3c7cdae776217a84762",
}


def trace_digest(traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        for line in traceio.trace_lines(trace):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("batch", sorted(FROZEN_DIGESTS))
def test_trace_bytes_are_frozen(request, batch):
    assert trace_digest(request.getfixturevalue(batch).traces) == FROZEN_DIGESTS[batch]


# SHA-256 of each batch's summary CSV and batch report JSON, as written by
# ``traceio``: every RunSummary field and every aggregate.  A change to
# convergence detection or to the batch statistics must update these and
# say why in CHANGES.md.
FROZEN_OUTPUT_DIGESTS = {
    "batch3": (
        "5430556c9b3afae5d38d33a32adf3a58da496a4eb964df8272944ba662a8d655",
        "f7016530324d18e079f36aaa4e219946da10cc9eb5648a116cb1c30e9879aaef",
    ),
    "batch4": (
        "df608dc841a626d06b50f6485bf45529f637f17205c561476c8835f4e26b64f5",
        "afa409c535929103e3d6745393d884acd7b1f9bcd94d6b15977ea0e4d07e9510",
    ),
    "batch5": (
        "cf11cae92f80514ab7a6391568ed70ac07184e9d60a8d1422ea5d5a28f1a5f9d",
        "4b8e52f3c9597fd3f3c0674174bf4ac1310e72d88e6572580c8aaea67edfe344",
    ),
    "batch6": (
        "63847b80884c1e6156838acb660039e7c3ed3c3762eabb921e828878dc9f7a1e",
        "bf0ec075daeb7c7f1a8c94ec5a9b2bbd1597c93ace5d95bfc3280cd6ec15ec5e",
    ),
}


@pytest.mark.parametrize("batch", sorted(FROZEN_OUTPUT_DIGESTS))
def test_summary_and_report_bytes_are_frozen(request, tmp_path, batch):
    result = request.getfixturevalue(batch).result
    csv_path, report_path = tmp_path / "summary.csv", tmp_path / "report.json"
    traceio.write_summary_csv(result.summaries, csv_path)
    traceio.write_batch_report(result, report_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, report_path))
    assert digests == FROZEN_OUTPUT_DIGESTS[batch]
