import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebcommit import protocol
from ebcommit.channels import DepolarizingChannel, channel_apply, lift_apply
from ebcommit.cli import main
from ebcommit.entanglement import concurrence
from ebcommit.protocol import (
    EprAlice,
    HonestAlice,
    ProtocolConfig,
    Transcript,
    derive_rng,
    monte_carlo,
    run_session,
    verify,
)
from ebcommit.security import CheatStrategy, bell_strategy
from ebcommit.states import (
    DIAGONAL,
    OUTCOME_EPS,
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
    encoding_basis,
    isotropic,
    joint_outcome_decomposition,
)


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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -50.0, -1e-12, True])
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

    @pytest.mark.parametrize("q", [True, "0.5", None, 0.5j])
    @pytest.mark.parametrize(
        "build",
        [lambda q: ProtocolConfig(q=q, rounds=10), DepolarizingChannel, isotropic],
        ids=["config", "channel", "isotropic"],
    )
    def test_rejects_mistyped_q(self, build, q):
        with pytest.raises(ValueError, match="q must be a real number"):
            build(q)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: run_session(cfg(0.5, 10), HonestAlice(bit=v)),
            lambda v: run_session(cfg(0.5, 10), EprAlice(bell_strategy(), target_bit=v)),
            lambda v: bb84_projector(v, 0),
            lambda v: bb84_projector(0, v),
            encoding_basis,
            bb84_pair_mixture,
            lambda v: Transcript(cfg(0.5, 1), v, [1], [0], [0]),
        ],
        ids=["honest", "target", "symbol-bit", "symbol-variant", "encoding-basis",
             "pair-mixture", "opened"],
    )
    def test_rejects_non_bits(self, build, value):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            build(value)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_monte_carlo_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(cfg(0.5, 10), HonestAlice(bit=0), trials=trials)

    @pytest.mark.parametrize("kwargs, field", [
        ({"strategy": None}, "strategy"),
        ({"strategy": bell_strategy(), "target_bit": 0, "steer_basis": "diag"}, "steer_basis"),
    ])
    def test_epr_alice_rejects_mistyped_fields(self, kwargs, field):
        with pytest.raises(TypeError, match=f"^{field} must be a "):
            EprAlice(**kwargs)

    def test_accepts_numpy_integers(self):
        config = ProtocolConfig(q=0.5, rounds=np.int64(10), seed=np.uint64(3))
        assert monte_carlo(config, HonestAlice(bit=0), trials=np.int32(2)).trials == 2

    def test_accepts_numpy_scalars(self):
        config = ProtocolConfig(q=np.float64(0.5), rounds=10, accept_sigma=np.float32(2.0))
        scenario = EprAlice(bell_strategy(), target_bit=np.int64(1))
        assert monte_carlo(config, scenario, trials=2).trials == 2
        assert run_session(config, HonestAlice(bit=np.int8(1)))[0].opened_bit == 1
        assert DepolarizingChannel(np.float32(0.25)).q == 0.25
        assert isotropic(np.int64(1)) == isotropic(1.0)
        assert encoding_basis(np.int16(1)) == DIAGONAL
        assert np.array_equal(bb84_projector(np.int64(1), np.int32(0)), bb84_projector(1, 0))

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
    c = cfg(0.5, 100, seed=4)
    rect = run_session(c, EprAlice(bell_strategy(), 0, RECTILINEAR))[0]
    assert rect == run_session(c, EprAlice(bell_strategy(), 0, RECTILINEAR))[0]
    # the same receiver columns, other steering outcomes
    diag = run_session(c, EprAlice(bell_strategy(), 0, DIAGONAL))[0]
    assert np.array_equal(rect.bob_outcome, diag.bob_outcome)
    assert rect != diag and diag != rect
    # the same opening without the sender's own outcomes
    honest = Transcript(c, 0, rect.bob_basis, rect.bob_outcome, rect.announced_variant)
    assert honest != rect and rect != honest


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
    t, _ = run_session(cfg(0.7, 200, seed=5), HonestAlice(bit=bit))
    assert t.opened_bit == bit
    for col in (t.bob_basis, t.bob_outcome, t.announced_variant):
        assert col.shape == (200,) and col.dtype == np.int8
        assert not col.flags.writeable
    # the announced variants are the first draw of the session stream
    assert np.array_equal(t.announced_variant, derive_rng(5, 0).integers(0, 2, size=200))
    assert np.array_equal(t.sifted, t.bob_basis == bit)
    assert not t.matched[~t.sifted].any()
    assert t.alice_outcome is None


def test_honest_alice_validates_bit():
    with pytest.raises(ValueError):
        HonestAlice(bit=2)


def _bell_summary(q, rounds):
    return monte_carlo(cfg(q, rounds, seed=9), EprAlice(strategy=bell_strategy()), trials=1)


def test_cheating_noiseless_joint_is_bell():
    summary = _bell_summary(1.0, 50)
    assert summary.separable_fraction == 0.0
    assert abs(summary.mean_concurrence - 1.0) < 1e-12


@pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 1 / 3])
def test_cheating_below_threshold_is_separable(q):
    summary = _bell_summary(q, 50)
    assert summary.separable_fraction == 1.0
    assert summary.mean_concurrence <= 1e-10


@pytest.mark.parametrize("q", [0.4, 0.7, 1.0])
def test_cheating_above_threshold_keeps_entanglement(q):
    assert abs(_bell_summary(q, 20).mean_concurrence - (3 * q - 1) / 2) < 1e-9


def test_steering_perfect_at_q1():
    # Bell rounds, steer in the encoding basis: her outcome predicts his exactly
    c = cfg(1.0, 2000, seed=12)
    for target, basis in ((0, RECTILINEAR), (1, DIAGONAL)):
        sc = EprAlice(strategy=bell_strategy(), target_bit=target, steer_basis=basis)
        _, report = run_session(c, sc)
        assert report.match_fraction == 1.0


def test_steering_cannot_touch_bob_outcomes():
    # the no-signalling statement, end to end: whichever basis the sender
    # steers in and whichever bit she opens, the receiver's columns of the
    # session are bit-for-bit identical
    c = cfg(0.3, 3000, seed=13)
    sessions = [
        run_session(c, EprAlice(bell_strategy(), target, basis))[0]
        for basis in (RECTILINEAR, DIAGONAL, ProjectiveBasis(1.1, 2.2))
        for target in (0, 1)
    ]
    first = sessions[0]
    for t in sessions:
        assert np.array_equal(t.bob_basis, first.bob_basis)
        assert np.array_equal(t.bob_outcome, first.bob_outcome)
    # while what she announces does depend on her steering basis
    assert not np.array_equal(sessions[0].announced_variant, sessions[2].announced_variant)


def test_steered_announcements_follow_alice_outcomes():
    t, _ = run_session(cfg(0.6, 500, seed=21), EprAlice(bell_strategy(), 1, DIAGONAL))
    assert t.opened_bit == 1
    assert np.array_equal(t.announced_variant, t.alice_outcome)
    assert np.array_equal(t.sifted, t.bob_basis == 1)


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
    t = Transcript(c, opened_bit=0, bob_basis=[1], bob_outcome=[0], announced_variant=[0])
    report = verify(t)
    assert report.no_sifted_rounds
    assert not report.accepted
    assert report.sifted_count == 0 and report.match_fraction == 0.0


def test_transcript_length_invariant():
    c = cfg(0.5, 3)
    with pytest.raises(ValueError, match="rounds"):
        Transcript(c, opened_bit=0, bob_basis=[], bob_outcome=[], announced_variant=[])
    with pytest.raises(ValueError, match="alice_outcome"):
        Transcript(
            c, opened_bit=0, bob_basis=[0, 1, 0], bob_outcome=[1, 1, 0],
            announced_variant=[0, 0, 1], alice_outcome=[0, 1],
        )


@pytest.mark.parametrize(
    "column, values",
    [
        ("bob_basis", [0, 0.7, 3]),  # int8 would truncate 0.7 to 0
        ("bob_basis", [0, 1.0, 1]),
        ("bob_outcome", [5, 5, 0]),  # would match a variant of 5
        ("bob_outcome", [300, 0, 0]),  # overflows int8
        ("bob_outcome", np.array([256, 0, 1])),  # wraps to 0 in int8
        ("announced_variant", [5, 5, 0]),
        ("announced_variant", [-1, 0, 1]),
        ("alice_outcome", [0, 2, 1]),
        ("alice_outcome", ["0", "1", "0"]),
        ("alice_outcome", [None, 0, 1]),
    ],
)
def test_transcript_columns_hold_bits(column, values):
    columns = dict(bob_basis=[0, 1, 0], bob_outcome=[1, 1, 0], announced_variant=[0, 0, 1])
    columns[column] = values
    with pytest.raises(ValueError, match=f"{column} must hold 0/1 integers or bools"):
        Transcript(cfg(0.5, 3), opened_bit=0, **columns)


def test_transcript_accepts_bool_and_integer_columns():
    t = Transcript(
        cfg(0.5, 3), 0, bob_basis=np.array([0, 1, 0], dtype=np.uint8),
        bob_outcome=[True, False, True], announced_variant=np.array([1, 1, 0]),
        alice_outcome=np.array([1, 1, 0], dtype=np.int8),
    )
    assert t.bob_outcome.dtype == np.int8 and t.bob_outcome.tolist() == [1, 0, 1]
    assert verify(t).match_count == 1


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
@pytest.mark.parametrize(
    "seed, rounds, trials",
    [
        pytest.param(seed, rounds, trials, id=f"{seed}{label}")
        for label, (rounds, trials) in {
            "": (150, 6),  # one block
            "-1x40": (1, 40),  # one round per trial
            # one trial more than a block holds
            "-above-block": (100, protocol._BLOCK_ROUNDS // 100 + 1),
            # every trial longer than a block
            "-long-trials": (protocol._BLOCK_ROUNDS + 1, 2),
            # two full blocks and a partial one
            "-3-blocks": (300, 2 * (protocol._BLOCK_ROUNDS // 300) + 5),
        }.items()
        for seed in (1, 2, 3)
    ],
)
def test_monte_carlo_trials_match_run_session(scenario, seed, rounds, trials):
    c = cfg(0.6, rounds, seed=seed)
    summary = monte_carlo(c, scenario, trials=trials)
    assert summary.reports == tuple(run_session(c, scenario, t)[1] for t in range(trials))


@pytest.mark.parametrize("trial", [True, 2.5, "1", None, -1, 2**64])
def test_run_session_rejects_bad_trial(trial):
    with pytest.raises(ValueError, match="trial must be"):
        run_session(cfg(0.5, 10), HonestAlice(bit=0), trial=trial)


def test_run_session_takes_the_largest_trial():
    c = cfg(0.5, 10, seed=2**64 - 1)
    t, _ = run_session(c, HonestAlice(bit=0), trial=2**64 - 1)
    rng = derive_rng(2**64 - 1, 2**64 - 1)
    assert np.array_equal(t.announced_variant, rng.integers(0, 2, size=10))
    assert np.array_equal(t.bob_basis, rng.integers(0, 2, size=10))


_WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_derive_rng_keys_philox_by_seed_and_trial():
    for seed in _WORD_EDGES:
        for t in _WORD_EDGES:
            state = derive_rng(seed, t).bit_generator.state
            assert state["state"]["key"].tolist() == [seed, t]
            assert state["state"]["counter"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("value", [True, -1, 2**64, 2.5])
@pytest.mark.parametrize("name", ["seed", "trial"])
def test_derive_rng_rejects_a_bad_word(name, value):
    args = {"seed": 0, "trial": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a 64-bit unsigned integer"):
        derive_rng(**args)


def test_monte_carlo_builds_no_transcripts(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("monte_carlo built or verified a transcript")

    monkeypatch.setattr(protocol, "Transcript", unexpected)
    monkeypatch.setattr(protocol, "verify", unexpected)
    sc = EprAlice(strategy=bell_strategy(), target_bit=1, steer_basis=DIAGONAL)
    assert len(monte_carlo(cfg(0.7, 100, seed=2), sc, trials=300).reports) == 300


def test_sessions_build_one_generator_and_no_derive_rng(monkeypatch):
    def unexpected(*ids):
        raise AssertionError("a session called derive_rng")

    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    monkeypatch.setattr(protocol, "derive_rng", unexpected)
    monkeypatch.setattr(np.random, "Philox", counting(np.random.Philox))
    monkeypatch.setattr(np.random, "Generator", counting(np.random.Generator))
    for sc in (HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL)):
        built.clear()
        assert len(monte_carlo(cfg(0.7, 100, seed=2), sc, trials=300).reports) == 300
        assert built == ["Philox", "Generator"]
        built.clear()
        run_session(cfg(0.7, 100, seed=2), sc, trial=5)
        assert built == ["Philox", "Generator"]


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
    joint = lift_apply(DepolarizingChannel(0.8), cheat_state(sc.strategy.a0, sc.strategy.a1))
    assert high.mean_concurrence == concurrence(joint).value


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        monte_carlo(cfg(0.5, 10), HonestAlice(bit=0), trials=0)


def test_custom_cheat_strategy_flows_through():
    a1 = np.array([1.0, 1.0]) / math.sqrt(2)
    strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=a1)
    summary = monte_carlo(cfg(0.5, 200, seed=19), EprAlice(strategy=strategy), trials=1)
    # C(cheat) = sin(pi/4) pre-channel, scaled by (3q-1)/2 after the lift
    assert abs(summary.mean_concurrence - math.sin(math.pi / 4) * 0.25) < 1e-9


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
        scenario = EprAlice(strategy, target_bit, ProjectiveBasis(*steer))
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


def _reference_tables(q, scenario):
    """A scenario's Born tables from the public per-branch API, clamped at OUTCOME_EPS.

    Honest: p0[variant, basis]. Cheater: bob_p0[basis] and
    steer_p0[basis, outcome], 0 for an impossible receiver outcome.
    """
    def clamp(p):
        return 0.0 if p < OUTCOME_EPS else 1.0 if p > 1.0 - OUTCOME_EPS else p

    def prob0(state, basis):
        b0 = basis.vectors()[0]
        return clamp(float(np.real(b0.conj() @ state @ b0)))

    if isinstance(scenario, HonestAlice):
        channel = DepolarizingChannel(q)
        noisy = [channel_apply(channel, bb84_projector(scenario.bit, v)) for v in (0, 1)]
        return np.array([[prob0(noisy[v], encoding_basis(b)) for b in (0, 1)] for v in (0, 1)])
    strategy = scenario.strategy
    joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
    branches = [joint_outcome_decomposition(joint, "B", encoding_basis(b)) for b in (0, 1)]
    bob_p0 = np.array([clamp(branch[0][0]) for branch in branches])
    steer_p0 = np.array([
        [0.0 if cond is None else prob0(cond.mat, scenario.steer_basis) for _, cond in branch]
        for branch in branches
    ])
    return bob_p0, steer_p0


@settings(max_examples=60, deadline=None)
@example(q=1.0, seed=0, first=0, trials=1, rounds=5, bit=1, epr=True,
         a0=_no_angles, a1=(math.pi, 0.0), steer=_no_angles)
@example(q=0.5, seed=2**64 - 1, first=2**64 - 3, trials=3, rounds=5, bit=1, epr=False,
         a0=_no_angles, a1=_no_angles, steer=_no_angles)
@example(q=1.0, seed=2**63, first=2**63 - 1, trials=3, rounds=5, bit=1, epr=True,
         a0=_no_angles, a1=(1e-3, 0.0), steer=(1.5, 0.0))
@given(
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**64 - 3),
    trials=st.integers(1, 3),
    rounds=st.integers(1, 5),
    bit=st.integers(0, 1),
    epr=st.booleans(),
    a0=st.tuples(_angle_theta, _angle_phi),
    a1=st.tuples(_angle_theta, _angle_phi),
    steer=st.tuples(_angle_theta, _angle_phi),
)
def test_block_rows_draw_each_trials_derive_rng_stream(
    q, seed, first, trials, rounds, bit, epr, a0, a1, steer
):
    config = cfg(q, rounds, seed=seed)
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, ProjectiveBasis(*steer))
    else:
        scenario = HonestAlice(bit=bit)
    tables = _reference_tables(q, scenario)
    ts = range(first, first + trials)
    block = protocol._prepare(config, scenario)[1](ts)
    for row, t in enumerate(ts):
        rng = derive_rng(seed, t)  # the reference definition of trial t's stream
        if epr:
            bob_p0, steer_p0 = tables
            bases = rng.integers(0, 2, size=rounds)
            outcomes = (rng.random(rounds) >= bob_p0[bases]).astype(int)
            variants = rng.random(rounds) >= steer_p0[bases, outcomes]
            assert block.alice_outcome[row].tolist() == variants.tolist()
        else:
            variants = rng.integers(0, 2, size=rounds)
            bases = rng.integers(0, 2, size=rounds)
            outcomes = rng.random(rounds) >= tables[variants, bases]
        assert block.bob_basis[row].tolist() == bases.tolist()
        assert block.bob_outcome[row].tolist() == outcomes.tolist()
        assert block.announced_variant[row].tolist() == variants.tolist()


def test_epr_prepare_validates_two_density_matrices(monkeypatch):
    # the committed pair and its lift; the Born tables are read off the
    # sender's operators, with no normalized conditional state
    validated = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    protocol._prepare(cfg(0.7, 10), EprAlice(bell_strategy(), 1, DIAGONAL))
    assert len(validated) == 2


@pytest.mark.parametrize("theta", [1e-5, 1e-4, 1e-3])
def test_monte_carlo_runs_with_a_receiver_outcome_of_tiny_probability(theta):
    # a1 close to a0 = |0>: at q = 1 the receiver's diagonal outcome 1 has
    # probability about theta**2 / 16, whose branch divided by it amplifies
    # roundoff past TOL
    strategy = CheatStrategy(np.array([1.0, 0.0]), ProjectiveBasis(theta, 0.0).vectors()[0])
    scenario = EprAlice(strategy, 1, ProjectiveBasis(1.5, 0.0))
    summary = monte_carlo(cfg(1.0, 200, seed=4), scenario, trials=3)
    assert len(summary.reports) == 3
    assert all(r.sifted_count > 0 for r in summary.reports)

