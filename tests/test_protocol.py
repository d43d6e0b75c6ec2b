import math

import numpy as np
import pytest

from ebcommit.channels import NoiseLocation
from ebcommit.entanglement import concurrence, is_separable
from ebcommit.protocol import (
    EprAlice,
    HonestAlice,
    ProtocolConfig,
    RoundRecord,
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
from ebcommit.states import DIAGONAL, RECTILINEAR, DensityMatrix, ProjectiveBasis


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


def test_honest_noiseless_all_sifted_match():
    t, report = run_session(cfg(1.0, 2000, seed=3), HonestAlice(bit=0))
    assert report.match_fraction == 1.0
    assert report.accepted
    for r in t.records:
        if r.sifted:
            assert r.matched


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_honest_match_fraction_concentrates(q):
    rounds = 20000
    _, report = run_session(cfg(q, rounds, seed=11), HonestAlice(bit=1))
    expected = (1 + q) / 2
    sigma = math.sqrt(expected * (1 - expected) / report.sifted_count) if expected < 1 else 0.0
    assert abs(report.match_fraction - expected) <= 4 * sigma + 1e-12
    # the looser bound: at least q/2 of the sifted rounds match
    assert report.match_fraction >= q / 2


def test_honest_record_structure():
    bit = 1
    t = commit_honest(cfg(0.7, 200, seed=5), bit, derive_rng(5, 0))
    assert len(t.records) == 200
    assert t.opened_bit == bit and not t.cheating
    for r in t.records:
        assert r.alice_symbol.bit == bit
        assert r.announced_variant == r.alice_symbol.variant
        assert r.sifted == (r.bob_basis == bit)
        if not r.sifted:
            assert r.matched is None
        assert r.alice_conditional is None


def test_commit_honest_validates_bit():
    with pytest.raises(ValueError):
        commit_honest(cfg(0.5, 10), 2, derive_rng(0, 0))


def test_cheating_noiseless_joint_is_bell():
    t = commit_cheating(cfg(1.0, 50, seed=9), bell_strategy(), derive_rng(9, 0))
    assert t.cheating and t.opened_bit is None
    joint = t.records[0].state_sent
    assert abs(concurrence(joint).value - 1.0) < 1e-12
    for r in t.records:
        assert r.state_sent is joint  # one entangled source per session


@pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 1 / 3])
def test_cheating_below_threshold_is_separable(q):
    t = commit_cheating(cfg(q, 50, seed=9), bell_strategy(), derive_rng(9, 0))
    for r in t.records:
        assert is_separable(r.state_sent, 1e-10)
        assert concurrence(r.state_sent).value <= 1e-10


@pytest.mark.parametrize("q", [0.4, 0.7, 1.0])
def test_cheating_above_threshold_keeps_entanglement(q):
    t = commit_cheating(cfg(q, 20, seed=9), bell_strategy(), derive_rng(9, 0))
    assert abs(concurrence(t.records[0].state_sent).value - (3 * q - 1) / 2) < 1e-9


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
    # the receiver's records are fixed at commit time; steering later in any
    # basis leaves them bit-for-bit identical (the no-signalling statement)
    c = cfg(0.3, 3000, seed=13)
    t = commit_cheating(c, bell_strategy(), derive_rng(13, 0))
    outcomes = [r.bob_outcome for r in t.records]
    for theta, phi in ((0.0, 0.0), (math.pi / 2, 0.0), (1.1, 2.2)):
        opened = open_and_steer(t, 0, ProjectiveBasis(theta, phi), derive_rng(13, 1))
        assert [r.bob_outcome for r in opened.records] == outcomes


def test_steered_announcements_follow_alice_outcomes():
    c = cfg(0.6, 500, seed=21)
    t = commit_cheating(c, bell_strategy(), derive_rng(21, 0))
    opened = open_and_steer(t, 1, DIAGONAL, derive_rng(21, 1))
    assert opened.opened_bit == 1
    for r in opened.records:
        assert r.announced_variant == r.alice_outcome
        assert r.sifted == (r.bob_basis == 1)


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
    record = RoundRecord(
        alice_symbol=None,
        state_sent=DensityMatrix(np.eye(2) / 2),
        bob_basis=1,  # announced bit 0 encodes rectilinear, so never sifted
        bob_outcome=0,
        sifted=False,
    )
    t = Transcript(c, committed_bit=0, opened_bit=0, cheating=False, records=(record,))
    report = verify(t)
    assert report.no_sifted_rounds
    assert not report.accepted
    assert report.sifted_count == 0 and report.match_fraction == 0.0


def test_transcript_length_invariant():
    c = cfg(0.5, 3)
    with pytest.raises(ValueError, match="records"):
        Transcript(c, committed_bit=0, opened_bit=0, cheating=False, records=())


def test_noise_location_is_metadata_only():
    a = ProtocolConfig(q=0.5, rounds=1000, seed=7, noise_location=NoiseLocation.BOB_APPARATUS)
    b = ProtocolConfig(
        q=0.5, rounds=1000, seed=7, noise_location=NoiseLocation.TRANSMISSION_CHANNEL
    )
    _, ra = run_session(a, HonestAlice(bit=0))
    _, rb = run_session(b, HonestAlice(bit=0))
    assert ra == rb


def test_monte_carlo_single_trial_matches_run_session():
    c = cfg(0.5, 500, seed=31)
    summary = monte_carlo(c, HonestAlice(bit=0), trials=1)
    _, report = run_session(c, HonestAlice(bit=0), trial=0)
    assert summary.reports == (report,)
    assert summary.match_fraction_mean == report.match_fraction


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


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        monte_carlo(cfg(0.5, 10), HonestAlice(bit=0), trials=0)


def test_custom_cheat_strategy_flows_through():
    a1 = np.array([1.0, 1.0]) / math.sqrt(2)
    strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=a1)
    c = cfg(0.5, 200, seed=19)
    t = commit_cheating(c, strategy, derive_rng(19, 0))
    # C(cheat) = sin(pi/4) pre-channel, scaled by (3q-1)/2 after the lift
    assert abs(concurrence(t.records[0].state_sent).value - math.sin(math.pi / 4) * 0.25) < 1e-9
