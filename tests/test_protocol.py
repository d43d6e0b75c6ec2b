import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebcommit import protocol
from ebcommit.channels import lift_apply
from ebcommit.cli import main
from ebcommit.entanglement import concurrence, is_separable
from ebcommit.protocol import (
    EprAlice,
    HonestAlice,
    ProtocolConfig,
    Transcript,
    commit_cheating,
    commit_honest,
    derive_rng,
    monte_carlo,
    open_and_steer,
    run_session,
    verify,
)
from ebcommit.security import CheatStrategy, bell_strategy
from ebcommit.states import DIAGONAL, RECTILINEAR, ProjectiveBasis, joint_outcome_decomposition


def cfg(q, rounds, seed=0, **kw):
    return ProtocolConfig(q=q, rounds=rounds, seed=seed, **kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(q=1.5, rounds=10)
        with pytest.raises(ValueError):
            ProtocolConfig(q=0.5, rounds=0)
        with pytest.raises(ValueError):
            ProtocolConfig(q=0.5, rounds=10, seed=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(q=0.5, rounds=10, seed=2**64)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -50.0, -1e-12])
    def test_rejects_bad_accept_sigma(self, sigma):
        with pytest.raises(ValueError, match="accept_sigma"):
            ProtocolConfig(q=0.5, rounds=10, accept_sigma=sigma)

    @pytest.mark.parametrize(
        "field, value",
        [("rounds", 2.5), ("rounds", True), ("rounds", "10"), ("seed", True), ("seed", 1.0)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        kw = {"q": 0.5, "rounds": 10, "seed": 0, field: value}
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**kw)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_monte_carlo_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(cfg(0.5, 10), HonestAlice(bit=0), trials=trials)

    def test_accepts_numpy_integers(self):
        config = ProtocolConfig(q=0.5, rounds=np.int64(10), seed=np.uint64(3))
        assert monte_carlo(config, HonestAlice(bit=0), trials=np.int32(2)).trials == 2

    def test_zero_accept_sigma_puts_threshold_at_expectation(self):
        report = run_session(cfg(1.0, 100, seed=3, accept_sigma=0.0), HonestAlice(bit=0))[1]
        assert report.threshold == report.expected_fraction == 1.0


def test_honest_determinism():
    c = cfg(0.5, 2000, seed=42)
    t1, r1 = run_session(c, HonestAlice(bit=0))
    t2, r2 = run_session(c, HonestAlice(bit=0))
    assert t1 == t2
    assert r1 == r2


def test_epr_determinism():
    c = cfg(0.5, 500, seed=42)
    sc = EprAlice(strategy=bell_strategy(), target_bit=1, steer_basis=DIAGONAL)
    t1, r1 = run_session(c, sc)
    t2, r2 = run_session(c, sc)
    assert t1 == t2
    assert r1 == r2


def test_different_seeds_differ():
    sc = HonestAlice(bit=0)
    t1, _ = run_session(cfg(0.5, 500, seed=1), sc)
    t2, _ = run_session(cfg(0.5, 500, seed=2), sc)
    assert t1 != t2


def test_transcript_equality_covers_opened_columns():
    t = commit_cheating(cfg(0.5, 100, seed=4), bell_strategy(), derive_rng(4, 0))
    opened = open_and_steer(t, 0, RECTILINEAR, derive_rng(4, 1))
    assert t == commit_cheating(cfg(0.5, 100, seed=4), bell_strategy(), derive_rng(4, 0))
    assert t != opened and opened != t
    assert opened != open_and_steer(t, 0, DIAGONAL, derive_rng(4, 1))


def test_honest_noiseless_all_sifted_match():
    t, report = run_session(cfg(1.0, 2000, seed=3), HonestAlice(bit=0))
    assert report.match_fraction == 1.0
    assert report.accepted
    assert np.array_equal(t.matched, t.sifted)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_honest_match_fraction_concentrates(q):
    rounds = 20000
    _, report = run_session(cfg(q, rounds, seed=11), HonestAlice(bit=1))
    expected = (1 + q) / 2
    sigma = math.sqrt(expected * (1 - expected) / report.sifted_count) if expected < 1 else 0.0
    assert abs(report.match_fraction - expected) <= 4 * sigma + 1e-12
    # the looser bound: at least q/2 of the sifted rounds match
    assert report.match_fraction >= q / 2


def test_honest_transcript_columns():
    bit = 1
    t = commit_honest(cfg(0.7, 200, seed=5), bit, derive_rng(5, 0))
    assert t.committed_bit == t.opened_bit == bit and not t.cheating
    for col in (t.bob_basis, t.bob_outcome, t.announced_variant):
        assert col.shape == (200,) and col.dtype == np.int8
        assert not col.flags.writeable
    # the announced variants are the first draw of the session stream
    assert np.array_equal(t.announced_variant, derive_rng(5, 0).integers(0, 2, size=200))
    assert np.array_equal(t.sifted, t.bob_basis == bit)
    assert not t.matched[~t.sifted].any()
    assert t.alice_outcome is None and t.joint is None and t.sender_conditionals is None


def test_commit_honest_validates_bit():
    with pytest.raises(ValueError):
        commit_honest(cfg(0.5, 10), 2, derive_rng(0, 0))


def test_cheating_noiseless_joint_is_bell():
    t = commit_cheating(cfg(1.0, 50, seed=9), bell_strategy(), derive_rng(9, 0))
    assert t.cheating and t.opened_bit is None
    assert t.announced_variant is None and t.alice_outcome is None
    assert abs(concurrence(t.joint).value - 1.0) < 1e-12
    # one entangled source per session: every round steers from the same joint
    assert t.sender_conditionals == tuple(
        tuple(cond for _, cond in joint_outcome_decomposition(t.joint, "B", basis))
        for basis in (RECTILINEAR, DIAGONAL)
    )


@pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 1 / 3])
def test_cheating_below_threshold_is_separable(q):
    t = commit_cheating(cfg(q, 50, seed=9), bell_strategy(), derive_rng(9, 0))
    assert is_separable(t.joint)
    assert concurrence(t.joint).value <= 1e-10


@pytest.mark.parametrize("q", [0.4, 0.7, 1.0])
def test_cheating_above_threshold_keeps_entanglement(q):
    t = commit_cheating(cfg(q, 20, seed=9), bell_strategy(), derive_rng(9, 0))
    assert abs(concurrence(t.joint).value - (3 * q - 1) / 2) < 1e-9


def test_open_and_steer_rejects_honest_transcript():
    t = commit_honest(cfg(0.5, 10, seed=1), 0, derive_rng(1, 0))
    with pytest.raises(ValueError, match="honest"):
        open_and_steer(t, 0, RECTILINEAR, derive_rng(1, 0))


def test_steering_perfect_at_q1():
    # Bell rounds, steer in the encoding basis: her outcome predicts his exactly
    c = cfg(1.0, 2000, seed=12)
    for target, basis in ((0, RECTILINEAR), (1, DIAGONAL)):
        sc = EprAlice(strategy=bell_strategy(), target_bit=target, steer_basis=basis)
        _, report = run_session(c, sc)
        assert report.match_fraction == 1.0


def test_steering_cannot_touch_bob_outcomes():
    # the receiver's columns are fixed at commit time; steering later in any
    # basis leaves them bit-for-bit identical (the no-signalling statement)
    c = cfg(0.3, 3000, seed=13)
    t = commit_cheating(c, bell_strategy(), derive_rng(13, 0))
    outcomes = t.bob_outcome.copy()
    for theta, phi in ((0.0, 0.0), (math.pi / 2, 0.0), (1.1, 2.2)):
        opened = open_and_steer(t, 0, ProjectiveBasis(theta, phi), derive_rng(13, 1))
        assert np.array_equal(opened.bob_outcome, outcomes)


def test_steered_announcements_follow_alice_outcomes():
    c = cfg(0.6, 500, seed=21)
    t = commit_cheating(c, bell_strategy(), derive_rng(21, 0))
    opened = open_and_steer(t, 1, DIAGONAL, derive_rng(21, 1))
    assert opened.opened_bit == 1
    assert np.array_equal(opened.announced_variant, opened.alice_outcome)
    assert np.array_equal(opened.sifted, opened.bob_basis == 1)


def test_verify_requires_opened_transcript():
    t = commit_cheating(cfg(0.5, 10, seed=1), bell_strategy(), derive_rng(1, 0))
    with pytest.raises(ValueError, match="not opened"):
        verify(t)


def test_verify_threshold_formula():
    c = cfg(0.8, 10000, seed=2)
    _, report = run_session(c, HonestAlice(bit=0))
    expected = 0.9
    want = expected - 3.0 * math.sqrt(expected * (1 - expected) / report.sifted_count)
    assert abs(report.threshold - want) < 1e-12
    assert report.accepted == (report.match_fraction >= report.threshold)


def test_verify_zero_sifted_rounds_flagged():
    c = cfg(0.5, 1)
    # announced bit 0 encodes rectilinear, so a diagonal measurement is never sifted
    t = Transcript(
        c, committed_bit=0, opened_bit=0, bob_basis=[1], bob_outcome=[0], announced_variant=[0]
    )
    report = verify(t)
    assert report.no_sifted_rounds
    assert not report.accepted
    assert report.sifted_count == 0 and report.match_fraction == 0.0


def test_transcript_length_invariant():
    c = cfg(0.5, 3)
    with pytest.raises(ValueError, match="rounds"):
        Transcript(
            c, committed_bit=0, opened_bit=0, bob_basis=[], bob_outcome=[], announced_variant=[]
        )
    with pytest.raises(ValueError, match="alice_outcome"):
        Transcript(
            c, committed_bit=0, opened_bit=0, bob_basis=[0, 1, 0], bob_outcome=[1, 1, 0],
            announced_variant=[0, 0, 1], alice_outcome=[0, 1],
        )


def test_opened_bit_and_announcements_go_together():
    c = cfg(0.5, 2)
    with pytest.raises(ValueError, match="together"):
        Transcript(c, committed_bit=0, opened_bit=0, bob_basis=[0, 1], bob_outcome=[1, 1])
    with pytest.raises(ValueError, match="together"):
        Transcript(
            c, committed_bit=0, opened_bit=None, bob_basis=[0, 1], bob_outcome=[1, 1],
            announced_variant=[0, 1],
        )


def test_monte_carlo_single_trial_matches_run_session():
    c = cfg(0.5, 500, seed=31)
    summary = monte_carlo(c, HonestAlice(bit=0), trials=1)
    _, report = run_session(c, HonestAlice(bit=0), trial=0)
    assert summary.reports == (report,)
    assert summary.match_fraction_mean == report.match_fraction
    assert summary.no_sifted_trials == 0


@pytest.mark.parametrize(
    "scenario",
    [
        HonestAlice(bit=1),
        EprAlice(strategy=bell_strategy(), target_bit=1, steer_basis=ProjectiveBasis(0.9, 2.1)),
    ],
    ids=["honest", "epr"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_trials_match_run_session(scenario, workers):
    c = cfg(0.6, 150, seed=23)
    summary = monte_carlo(c, scenario, trials=6, workers=workers)
    assert summary.reports == tuple(run_session(c, scenario, t)[1] for t in range(6))


def test_monte_carlo_builds_the_joint_state_once(monkeypatch):
    calls = []

    def counting_lift_apply(*args):
        calls.append(args)
        return lift_apply(*args)

    monkeypatch.setattr(protocol, "lift_apply", counting_lift_apply)
    sc = EprAlice(strategy=bell_strategy(), target_bit=0, steer_basis=RECTILINEAR)
    summary = monte_carlo(cfg(0.7, 40, seed=2), sc, trials=50)
    assert len(calls) == 1
    assert len(summary.reports) == 50


def test_monte_carlo_mean_skips_trials_without_sifted_rounds():
    # one round per trial: about half the trials measure off the encoding
    # basis and have no evidence; the noiseless ones that do all match
    summary = monte_carlo(cfg(1.0, 1, seed=0), HonestAlice(bit=0), trials=20)
    empty = sum(r.no_sifted_rounds for r in summary.reports)
    assert 0 < empty < 20
    assert summary.no_sifted_trials == empty
    assert summary.match_fraction_mean == 1.0 and summary.match_fraction_std == 0.0
    assert summary.acceptance_rate == (20 - empty) / 20


def test_monte_carlo_without_any_sifted_rounds_reports_zero():
    c = next(
        cfg(1.0, 1, seed=seed)
        for seed in range(64)
        if run_session(cfg(1.0, 1, seed=seed), HonestAlice(bit=0))[1].no_sifted_rounds
    )
    summary = monte_carlo(c, HonestAlice(bit=0), trials=1)
    assert summary.no_sifted_trials == 1
    assert summary.match_fraction_mean == summary.match_fraction_std == 0.0
    assert summary.acceptance_rate == 0.0


def test_monte_carlo_parallel_equals_sequential():
    c = cfg(0.5, 300, seed=8)
    sc = EprAlice(strategy=bell_strategy(), target_bit=0, steer_basis=RECTILINEAR)
    seq = monte_carlo(c, sc, trials=8, workers=1)
    par = monte_carlo(c, sc, trials=8, workers=4)
    assert seq == par


@pytest.mark.parametrize("q", [0.1, 0.4, 0.7, 1.0])
def test_monte_carlo_honest_sweep_tracks_expectation(q):
    c = cfg(q, 10000, seed=17)
    summary = monte_carlo(c, HonestAlice(bit=0), trials=5)
    expected = (1 + q) / 2
    sigma = math.sqrt(expected * (1 - expected) / (10000 / 2 * 5)) if q < 1 else 0.0
    assert abs(summary.match_fraction_mean - expected) <= 3 * sigma + 1e-3
    assert summary.separable_fraction == 1.0
    assert summary.mean_concurrence == 0.0


def test_monte_carlo_honest_acceptance_rate():
    c = cfg(0.8, 10000, seed=0)
    summary = monte_carlo(c, HonestAlice(bit=1), trials=100)
    assert summary.acceptance_rate >= 0.99


def test_monte_carlo_cheating_summary_fields():
    sc = EprAlice(strategy=bell_strategy(), target_bit=0, steer_basis=RECTILINEAR)
    low = monte_carlo(cfg(0.2, 300, seed=3), sc, trials=4)
    assert low.separable_fraction == 1.0
    assert low.mean_concurrence <= 1e-10
    high = monte_carlo(cfg(0.8, 300, seed=3), sc, trials=4)
    assert high.separable_fraction == 0.0
    assert abs(high.mean_concurrence - (3 * 0.8 - 1) / 2) < 1e-9
    joint = run_session(cfg(0.8, 300, seed=3), sc)[0].joint
    assert high.mean_concurrence == concurrence(joint).value


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        monte_carlo(cfg(0.5, 10), HonestAlice(bit=0), trials=0)


def test_custom_cheat_strategy_flows_through():
    a1 = np.array([1.0, 1.0]) / math.sqrt(2)
    strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=a1)
    c = cfg(0.5, 200, seed=19)
    t = commit_cheating(c, strategy, derive_rng(19, 0))
    # C(cheat) = sin(pi/4) pre-channel, scaled by (3q-1)/2 after the lift
    assert abs(concurrence(t.joint).value - math.sin(math.pi / 4) * 0.25) < 1e-9


_angle_theta = st.floats(0.0, math.pi)
_angle_phi = st.floats(0.0, 2 * math.pi, exclude_max=True)


def _dump(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--dump-transcript"])
    return out.getvalue()


def _reference_records(transcript: Transcript) -> list[dict]:
    """One dict per round, built directly from the columns."""
    n = transcript.config.rounds
    alice = [None] * n if transcript.alice_outcome is None else transcript.alice_outcome.tolist()
    columns = zip(
        transcript.bob_basis.tolist(),
        transcript.bob_outcome.tolist(),
        transcript.announced_variant.tolist(),
        alice,
        transcript.sifted.tolist(),
        transcript.matched.tolist(),
    )
    return [
        {
            "round": i,
            "bob_basis": basis,
            "bob_outcome": outcome,
            "announced_variant": variant,
            "alice_outcome": a,
            "sifted": sifted,
            "matched": matched if sifted else None,
        }
        for i, (basis, outcome, variant, a, sifted, matched) in enumerate(columns)
    ]


_no_angles = (0.0, 0.0)


@settings(max_examples=40, deadline=None)
@example(q=0.5, seed=0, rounds=1, bit=0, epr=False, target_bit=0,
         a0=_no_angles, a1=_no_angles, steer=_no_angles)
@example(q=0.5, seed=0, rounds=1, bit=1, epr=True, target_bit=0,
         a0=_no_angles, a1=(math.pi, 0.0), steer=_no_angles)
@given(
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    rounds=st.integers(1, 300),
    bit=st.integers(0, 1),
    epr=st.booleans(),
    target_bit=st.integers(0, 1),
    a0=st.tuples(_angle_theta, _angle_phi),
    a1=st.tuples(_angle_theta, _angle_phi),
    steer=st.tuples(_angle_theta, _angle_phi),
)
def test_columns_agree_with_verify_and_dump(q, seed, rounds, bit, epr, target_bit, a0, a1, steer):
    argv = ["run", "--q", repr(q), "--rounds", str(rounds), "--bit", str(bit), "--seed", str(seed)]
    config = cfg(q, rounds, seed=seed)
    if epr:
        argv += ["--alice", "epr", "--a0", "%r,%r" % a0, "--a1", "%r,%r" % a1,
                 "--target-bit", str(target_bit), "--steer-theta", repr(steer[0]),
                 "--steer-phi", repr(steer[1])]
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, target_bit, ProjectiveBasis(*steer), intent_bit=bit)
    else:
        scenario = HonestAlice(bit=bit)
    transcript, report = run_session(config, scenario)

    # the dump is, byte for byte, the indented document of one dict per round
    text = _dump(argv)
    doc = json.loads(text)
    reference = {"meta": doc["meta"], "rows": doc["rows"],
                 "transcript": _reference_records(transcript)}
    assert text == json.dumps(reference, indent=2) + "\n"

    # verify's counts equal a recount of the dumped records
    records = doc["transcript"]
    assert doc["rows"][0]["sifted_count"] == report.sifted_count == sum(
        r["sifted"] for r in records
    )
    assert doc["rows"][0]["match_count"] == report.match_count == sum(
        r["matched"] is True for r in records
    )
    assert all((r["matched"] is None) == (not r["sifted"]) for r in records)
    assert [r["bob_basis"] for r in records] == transcript.bob_basis.tolist()
    assert [r["bob_outcome"] for r in records] == transcript.bob_outcome.tolist()
    assert [r["announced_variant"] for r in records] == transcript.announced_variant.tolist()

    if not epr:
        assert all(r["alice_outcome"] is None for r in records)
        return
    # the cheater announces her own outcomes
    assert np.array_equal(transcript.announced_variant, transcript.alice_outcome)
    assert [r["alice_outcome"] for r in records] == transcript.alice_outcome.tolist()
    # steering in any basis leaves the receiver's columns bit-for-bit unchanged
    committed = commit_cheating(config, strategy, derive_rng(seed, 0), bit)
    for basis in (ProjectiveBasis(*steer), RECTILINEAR, DIAGONAL):
        opened = open_and_steer(committed, target_bit, basis, derive_rng(seed, 1))
        assert np.array_equal(opened.bob_basis, committed.bob_basis)
        assert np.array_equal(opened.bob_outcome, committed.bob_outcome)
        assert np.array_equal(opened.announced_variant, opened.alice_outcome)
