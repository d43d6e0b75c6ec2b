import contextlib
import dataclasses
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebcommit import channels, entanglement, linalg, protocol
from ebcommit.channels import DepolarizingChannel, channel_apply, lift_apply
from ebcommit.cli import main
from ebcommit.entanglement import concurrence, is_separable
from ebcommit.protocol import (
    EprAlice,
    HonestAlice,
    ProtocolConfig,
    Transcript,
    run_session,
    sweep,
    verify,
)
from ebcommit.linalg import TOL, eig_hermitian, partial_transpose
from ebcommit.security import SIGN_TOL, CheatStrategy, alice_binding_attack, bell_strategy
from ebcommit.states import (
    OUTCOME_EPS,
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
)

from conftest import count_calls, refuse_rows
from reference import (
    DIAGONAL,
    counts_report,
    derive_rng,
    encoding_basis,
    exact_acceptance,
    isotropic,
    joint_outcome_decomposition,
    lifted_concurrence,
    lifted_round_law,
    pure_pair_concurrence,
    receiver_marginal,
    sender_operator,
    sessions_counts,
    sessions_summary,
    sweep_counts,
)


def cfg(q, rounds, seed=0, **kw):
    return ProtocolConfig(q=q, rounds=rounds, seed=seed, **kw)


#: A sweep's q grid: one q below q* = 1/3 and two above it.
_SWEEP_QS = (0.2, 0.5, 0.9)


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

    def test_rounds_fit_numpys_int64(self):
        # numpy draws a count as an int64
        assert ProtocolConfig(q=0.5, rounds=2**63 - 1).rounds == 2**63 - 1
        with pytest.raises(ValueError, match=rf"^rounds must be < 2\*\*63, got {2**63}$"):
            ProtocolConfig(q=0.5, rounds=2**63)

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
            lambda v: Transcript(cfg(0.5, 1), v, [4]),
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
            next(sweep([cfg(0.5, 10)], HonestAlice(bit=0), trials=trials))

    @pytest.mark.parametrize("kwargs, field", [
        ({"strategy": None}, "strategy"),
        ({"strategy": bell_strategy(), "target_bit": 0, "steer_basis": "diag"}, "steer_basis"),
    ])
    def test_epr_alice_rejects_mistyped_fields(self, kwargs, field):
        with pytest.raises(TypeError, match=f"^{field} must be a "):
            EprAlice(**kwargs)

    @pytest.mark.parametrize("call, message", [
        (lambda: Transcript(None, 0, [0]), "config must be a ProtocolConfig, got None"),
        (lambda: run_session(None, HonestAlice(bit=0)), "config must be a ProtocolConfig, got None"),
        (lambda: next(sweep([{"q": 0.5}], HonestAlice(bit=0), 1)),
         "config must be a ProtocolConfig, got {'q': 0.5}"),
        (lambda: verify("x"), "transcript must be a Transcript, got 'x'"),
        (lambda: run_session(cfg(0.5, 10), "honest"), "not a scenario: 'honest'"),
        (lambda: next(sweep([cfg(0.5, 10)], None, 1)), "not a scenario: None"),
    ], ids=["transcript", "run-session", "monte-carlo", "verify", "run-session-scenario",
            "monte-carlo-scenario"])
    def test_rejects_mistyped_config_and_transcript(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    def test_accepts_numpy_integers(self):
        config = ProtocolConfig(q=0.5, rounds=np.int64(10), seed=np.uint64(3))
        assert next(sweep([config], HonestAlice(bit=0), trials=np.int32(2))).trials == 2

    def test_accepts_numpy_scalars(self):
        config = ProtocolConfig(q=np.float64(0.5), rounds=10, accept_sigma=np.float32(2.0))
        scenario = EprAlice(bell_strategy(), target_bit=np.int64(1))
        assert next(sweep([config], scenario, trials=2)).trials == 2
        assert run_session(config, HonestAlice(bit=np.int8(1)))[0].opened_bit == 1
        assert DepolarizingChannel(np.float32(0.25)).q == 0.25
        assert isotropic(np.int64(1)) == isotropic(1.0)
        assert encoding_basis(np.int16(1)) == DIAGONAL
        assert np.array_equal(bb84_projector(np.int64(1), np.int32(0)), bb84_projector(1, 0))

    def test_bits_are_stored_as_python_ints(self):
        # a numpy bit would reach every transcript opened from it
        config = cfg(0.5, 10)
        for scenario in (HonestAlice(bit=np.int8(1)), EprAlice(bell_strategy(), np.uint8(1))):
            assert type(run_session(config, scenario)[0].opened_bit) is int
        assert type(HonestAlice(bit=np.int64(0)).bit) is int
        assert type(EprAlice(bell_strategy(), np.int16(1)).target_bit) is int
        assert type(Transcript(config, np.int32(1), [4] * 10).opened_bit) is int

    def test_verify_decides_a_float32_q_at_the_q_it_simulates(self):
        # 13 of 20 sifted rounds match: 0.65, below the expectation (1 + q)/2 =
        # 0.6500000059604645 of the float32 0.3, which the session simulates as
        # 0.30000001192092896; in float32 the expectation would read 0.65
        config = ProtocolConfig(q=np.float32(0.3), rounds=20, accept_sigma=0.0)
        report = verify(Transcript(config, 0, [0] * 13 + [1] * 7))
        assert (report.sifted_count, report.match_count) == (20, 13)
        assert type(report.expected_fraction) is float
        assert report.expected_fraction == 0.6500000059604645
        assert not report.accepted
        assert report == verify(Transcript(cfg(0.30000001192092896, 20, accept_sigma=0.0), 0,
                                           [0] * 13 + [1] * 7))

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.one_of(
            st.tuples(st.sampled_from([np.float16, np.float32, np.float64]),
                      st.floats(0.0, 1.0)).map(lambda kind_value: kind_value[0](kind_value[1])),
            st.fractions(0, 1, max_denominator=1000),
            st.sampled_from([0, 1]),
        ),
        sigma=st.sampled_from([np.float32(0.5), np.float64(2.0), 3]),
        epr=st.booleans(),
    )
    def test_reports_hold_python_scalars_whatever_the_type_of_q(self, q, sigma, epr):
        # a numpy or rational q is stored as the float it is simulated with, so
        # every report is made of Python scalars, serializes as JSON and
        # decides as the float q does
        scenario = EprAlice(bell_strategy(), 1) if epr else HonestAlice(bit=1)
        target = DensityMatrix(bb84_projector(0, 0))
        config = ProtocolConfig(q=q, rounds=np.int64(20), accept_sigma=sigma, seed=np.uint64(5))
        same = ProtocolConfig(q=float(q), rounds=20, accept_sigma=float(sigma), seed=5)
        summary = next(sweep([config], scenario, trials=np.int64(3)))
        scalars = {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary)}
        reports = [
            (run_session(config, scenario, 2)[1], run_session(same, scenario, 2)[1]),
            (scalars, {name: getattr(next(sweep([same], scenario, 3)), name) for name in scalars}),
            (alice_binding_attack(bell_strategy(), DepolarizingChannel(q), target),
             alice_binding_attack(bell_strategy(), DepolarizingChannel(float(q)), target)),
        ]
        for report, expected in reports:
            fields = report if isinstance(report, dict) else dataclasses.asdict(report)
            leaves = [v for value in fields.values()
                      for v in (value.values() if isinstance(value, dict) else [value])]
            assert all(type(v) in (bool, int, float) for v in leaves), fields
            json.dumps(fields)
            assert report == expected

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
    # the same receiver parts 4b + 2o of every class, other steering outcomes
    diag = run_session(c, EprAlice(bell_strategy(), 0, DIAGONAL))[0]
    assert np.array_equal(rect.classes >> 1, diag.classes >> 1)
    assert rect != diag and diag != rect
    # the same classes opened as the other bit
    other = Transcript(c, 1, rect.classes)
    assert other != rect and rect != other


def test_honest_noiseless_all_sifted_match():
    t, report = run_session(cfg(1.0, 2000, seed=3), HonestAlice(bit=0))
    assert report.match_fraction == 1.0
    assert report.accepted
    # every sifted round (basis 0) matches: its outcome is its variant
    k = t.classes[t.classes >> 2 == 0]
    assert k.size > 0 and np.array_equal((k >> 1) & 1, k & 1)


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
    assert t.classes.shape == (200,) and t.classes.dtype == np.int8
    assert not t.classes.flags.writeable
    # trial 0's class counts, drawn from the round law, in their shuffled order
    assert np.array_equal(t.classes, _replay(0.7, HonestAlice(bit=bit), 5, 0, 200))


def test_honest_alice_validates_bit():
    with pytest.raises(ValueError):
        HonestAlice(bit=2)


def _bell_summary(q, rounds):
    return next(sweep([cfg(q, rounds, seed=9)], EprAlice(strategy=bell_strategy()), trials=1))


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
    # steers in and whichever bit she opens, the receiver's parts 4b + 2o
    # of the session's classes are bit-for-bit identical
    c = cfg(0.3, 3000, seed=13)
    sessions = [
        run_session(c, EprAlice(bell_strategy(), target, basis))[0]
        for basis in (RECTILINEAR, DIAGONAL, ProjectiveBasis(1.1, 2.2))
        for target in (0, 1)
    ]
    first = sessions[0]
    for t in sessions:
        assert np.array_equal(t.classes >> 1, first.classes >> 1)
    # while what she announces does depend on her steering basis
    assert not np.array_equal(sessions[0].classes & 1, sessions[2].classes & 1)


def test_verify_threshold_formula():
    c = cfg(0.8, 10000, seed=2)
    _, report = run_session(c, HonestAlice(bit=0))
    expected = 0.9
    want = expected - 3.0 * math.sqrt(expected * (1 - expected) / report.sifted_count)
    assert abs(report.threshold - want) < 1e-12
    assert report.accepted == (report.match_fraction >= report.threshold)


def test_verify_zero_sifted_rounds_flagged():
    c = cfg(0.5, 1)
    # announced bit 0 encodes rectilinear, so a diagonal measurement (class 4) is never sifted
    t = Transcript(c, opened_bit=0, classes=[4])
    report = verify(t)
    assert report.no_sifted_rounds
    assert not report.accepted
    assert report.sifted_count == 0 and report.match_fraction == 0.0


def test_transcript_length_invariant():
    c = cfg(0.5, 3)
    for classes in ([], [0, 1]):
        with pytest.raises(ValueError, match=r"^classes has shape \(\d,\) for 3 rounds$"):
            Transcript(c, opened_bit=0, classes=classes)


_NOT_CLASSES = "must hold integers 0 to 7 or bools"


@pytest.mark.parametrize(
    "classes, message",
    [
        ([0, 8, 3], _NOT_CLASSES),  # basis 2
        ([9, 9, 0], _NOT_CLASSES),
        ([0, 127, 1], _NOT_CLASSES),  # the largest int8
        ([-1, 0, 7], _NOT_CLASSES),
        (np.array([256, 0, 1]), _NOT_CLASSES),  # wraps to 0 in int8
        ([263, 0, 1], _NOT_CLASSES),  # wraps to 7 in int8
        ([0, 0.7, 3], _NOT_CLASSES),  # int8 would truncate 0.7 to 0
        ([0, 1.0, 1], _NOT_CLASSES),
        (["0", "1", "0"], _NOT_CLASSES),
        ([None, 0, 1], _NOT_CLASSES),
        ([0, 1, 2, 3], r"has shape \(4,\) for 3 rounds"),
        ([[0, 1, 2]], r"has shape \(1, 3\) for 3 rounds"),
    ],
    ids=["8", "9", "127", "-1", "256", "263", "0.7", "1.0", "str", "None", "long", "2-D"],
)
def test_transcript_columns_hold_bits(classes, message):
    with pytest.raises(ValueError, match=f"^classes {message}$"):
        Transcript(cfg(0.5, 3), opened_bit=0, classes=classes)


def test_transcript_accepts_bool_and_integer_columns():
    # opened as bit 0: classes 0 to 3 are sifted, 0 and 3 matched
    for classes, sifted, matched in (
        (np.array([0, 5, 3], dtype=np.uint8), 2, 2),
        ([True, False, True], 3, 1),
        (np.array([3, 7, 1]), 2, 1),
    ):
        t = Transcript(cfg(0.5, 3), 0, classes)
        assert t.classes.dtype == np.int8 and not t.classes.flags.writeable
        assert t.classes.tolist() == np.asarray(classes, dtype=int).tolist()
        assert (verify(t).sifted_count, verify(t).match_count) == (sifted, matched)


def test_verify_counts_the_sifted_and_matched_classes():
    # class k on 2**k rounds, so every sum of classes' counts is distinct:
    # opened as bit t, verify counts classes 4t to 4t + 3 as sifted and
    # 4t and 4t + 3 (o = v) as matched
    classes = np.random.default_rng(0).permutation(np.repeat(np.arange(8), 2 ** np.arange(8)))
    for bit, sifted, matched in ((0, 1 + 2 + 4 + 8, 1 + 8), (1, 16 + 32 + 64 + 128, 16 + 128)):
        report = verify(Transcript(cfg(0.5, 255), bit, classes))
        assert (report.sifted_count, report.match_count) == (sifted, matched)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("q", [0.0, 1 / 3, 0.5, 1.0])
def test_matched_classes_carry_the_match_probability(q, bit):
    # verify counts classes 4t and 4t + 3 as matched; per sifted round their
    # law is (1+q)/2 for the honest sender, and for the Bell cheater steered
    # in the encoding basis it is her best binding fidelity
    t, basis, channel = 4 * bit, encoding_basis(bit), DepolarizingChannel(q)
    honest = lifted_round_law(lift_apply(channel, HonestAlice(bit).pair), RECTILINEAR)[1]
    assert abs(2 * (honest[t] + honest[t + 3]) - (1 + q) / 2) <= 1e-15
    bell = lift_apply(channel, EprAlice(bell_strategy(), bit, basis).pair)
    law = lifted_round_law(bell, basis)[1]
    target = DensityMatrix(bb84_projector(bit, 0))
    best = alice_binding_attack(bell_strategy(), DepolarizingChannel(q), target).best_fidelity_sq
    assert abs(2 * (law[t] + law[t + 3]) - best) <= 1e-12


# At the best basis of alice_binding_attack for the target bb84_projector(t, 0),
# the matched classes' law is the Helstrom value, up to the entries zeroed
# below OUTCOME_EPS: p_match needs no eigensolve of its own. That basis is the
# eigenbasis of X_t - X_t' whenever its eigenvalues differ by more than
# SIGN_TOL, also for a product pair (a0 = a1), where one eigenvalue is 0. Where
# they do not, any basis is optimal and p_match misses by at most their spread.
@settings(max_examples=100, deadline=None)
@given(
    a0=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True)),
    a1=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True)),
    product=st.booleans(),
    q=st.one_of(st.sampled_from((0.0, 1 / 3, 1.0)), st.floats(0.0, 1.0)),
    bit=st.integers(0, 1),
)
@example(a0=(1.0, 1.0), a1=(1.0, 1.0), product=True, q=1 / 3, bit=1)
# q times the noiseless eigenvalue spread is SIGN_TOL itself, flat to the
# attack, while the spread read off the lift rounds just above it
@example(a0=(0.0, 0.0), a1=(1.75, 1.0), product=False, q=1e-12, bit=1)
def test_match_probability_at_the_best_basis_is_the_helstrom_value(a0, a1, product, q, bit):
    if product:
        a1 = a0
    strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
    target = DensityMatrix(bb84_projector(bit, 0))
    report = alice_binding_attack(strategy, DepolarizingChannel(q), target)
    joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
    law = lifted_round_law(joint, report.best_basis)[1]
    matched = law[[4 * bit, 4 * bit + 3]]
    gap = 2 * (matched[0] + matched[1]) - report.best_fidelity_sq
    tol = 1e-15 + 2 * OUTCOME_EPS * int((matched == 0.0).sum())
    w = eig_hermitian(sender_operator(joint, 2 * target.mat - np.eye(2)))
    # the attack and this test round the eigenvalue spread differently, so a
    # spread within roundoff of SIGN_TOL may be flat to the attack: only one
    # past it by more is held to the strict bound
    if w[0] - w[1] > SIGN_TOL * (1 + 1e-9):
        assert abs(gap) <= tol
    else:
        assert -(tol + SIGN_TOL) <= gap <= tol


def test_monte_carlo_single_trial_matches_run_session():
    c = cfg(0.5, 500, seed=31)
    summary = next(sweep([c], HonestAlice(bit=0), trials=1))
    _, report = run_session(c, HonestAlice(bit=0), trial=0)
    assert sweep_counts(c, HonestAlice(bit=0), 1) == ([report.sifted_count], [report.match_count])
    assert summary.acceptance_rate == report.accepted
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
        # the ids "-above-block", "-long-trials" and "-3-blocks" name the
        # cases of a sampler that drew rounds in blocks of 2**14; they stay
        # the suite's names for the same parameter values
        for label, (rounds, trials) in {
            "": (150, 6),  # a few short trials
            "-1x40": (1, 40),  # one round per trial
            "-above-block": (100, 164),  # many trials of 100 rounds
            "-long-trials": (2**14 + 1, 2),  # trials longer than 2**14 rounds
            "-3-blocks": (300, 113),  # many trials of 300 rounds
        }.items()
        for seed in (1, 2, 3)
    ],
)
def test_monte_carlo_trials_match_run_session(scenario, seed, rounds, trials):
    c = cfg(0.6, rounds, seed=seed)
    assert next(sweep([c], scenario, trials=trials)) == sessions_summary(c, scenario, trials)
    assert sweep_counts(c, scenario, trials) == sessions_counts(c, scenario, trials)


def test_run_session_names_rounds_too_many_to_lay_out():
    # numpy refuses 2**62 rounds of int64 before it allocates anything
    with pytest.raises(MemoryError, match=f"^{2**62} rounds are too many to lay out"):
        run_session(cfg(0.5, 2**62), HonestAlice(bit=0))


# numpy refuses a (trials, outcomes) column of 2**62 or 2**63 - 1 rows by
# arithmetic, before it allocates anything, and len() a range of 2**63 or more
@pytest.mark.parametrize("trials", [2**62, 2**63 - 1, 2**63, 2**64])
@pytest.mark.parametrize("scenario", [HonestAlice(bit=0), EprAlice(bell_strategy(), 1, DIAGONAL),
                                      EprAlice(CheatStrategy([1, 0], [1, 0]))],
                         ids=["honest", "bell", "product"])
def test_sweep_names_trials_too_many_to_lay_out(scenario, trials):
    # the product cheater's |0>|+> leaves the receiver 3 outcomes of positive law at q = 1
    message = f"^{trials} trials are too many to lay out$"
    with pytest.raises(MemoryError, match=message):
        next(sweep([cfg(1.0, 10)], scenario, trials))
    summaries = sweep([cfg(q, 10) for q in _SWEEP_QS], scenario, trials)
    with pytest.raises(MemoryError, match=message):
        next(summaries)


def test_sweep_out_of_memory_names_the_trials(monkeypatch):
    refuse_rows(monkeypatch, 1000)
    with pytest.raises(MemoryError, match="^1000 trials are too many to lay out$"):
        next(sweep([cfg(0.5, 10)], HonestAlice(bit=0), 1000))


@pytest.mark.parametrize("trial", [True, 2.5, "1", None, -1, 2**64])
def test_run_session_rejects_bad_trial(trial):
    with pytest.raises(ValueError, match="trial must be"):
        run_session(cfg(0.5, 10), HonestAlice(bit=0), trial=trial)


def test_run_session_takes_the_largest_trial():
    c = cfg(0.5, 10, seed=2**64 - 1)
    t, _ = run_session(c, HonestAlice(bit=0), trial=2**64 - 1)
    assert np.array_equal(t.classes, _replay(0.5, HonestAlice(bit=0), 2**64 - 1, 2**64 - 1, 10))


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
        raise AssertionError("a sweep built or verified a transcript")

    monkeypatch.setattr(protocol, "Transcript", unexpected)
    monkeypatch.setattr(protocol, "verify", unexpected)
    sc = EprAlice(strategy=bell_strategy(), target_bit=1, steer_basis=DIAGONAL)
    assert next(sweep([cfg(0.7, 100, seed=2)], sc, trials=300)).trials == 300


def test_sessions_build_one_generator_and_no_derive_rng(monkeypatch):
    # a session re-keys one generator for every block and trial; building
    # one per key, as derive_rng does, would add a Philox and a Generator
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    monkeypatch.setattr(np.random, "Philox", counting(np.random.Philox))
    monkeypatch.setattr(np.random, "Generator", counting(np.random.Generator))
    for sc in (HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL)):
        built.clear()
        assert next(sweep([cfg(0.7, 100, seed=2)], sc, trials=300)).trials == 300
        assert built == ["Philox", "Generator"]
        built.clear()
        run_session(cfg(0.7, 100, seed=2), sc, trial=70)
        assert built == ["Philox", "Generator"]
        # a sweep's configs, each of its own seed, share the batch's one generator
        built.clear()
        summaries = list(sweep([cfg(q, 100, seed=i) for i, q in enumerate(_SWEEP_QS)], sc, 30))
        assert [s.trials for s in summaries] == [30] * len(_SWEEP_QS)
        assert built == ["Philox", "Generator"]


def _count_lifts_ppt_tests_and_eigensolves(monkeypatch):
    """The calls to ``lift_apply``, ``is_separable`` and ``eig_hermitian``, through each binding."""
    return [count_calls(monkeypatch, module, name) for module, name in
            ((channels, "lift_apply"), (entanglement, "is_separable"), (linalg, "eig_hermitian"))]


#: Every drawn q grid holds the noise extremes and both sides of q* = 1/3.
_GRID_QS = (0.0, 1 / 3 - 1e-12, 1 / 3 + 1e-12, 1.0)
_ANGLES = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(
    epr=st.booleans(),
    bit=st.integers(0, 1),
    a0=_ANGLES,
    a1=_ANGLES,
    steer=_ANGLES,
    qs=st.lists(st.floats(0.0, 1.0), max_size=3).flatmap(
        lambda extra: st.permutations(list(_GRID_QS) + extra)),
    data=st.data(),
    trials=st.integers(1, 4),
)
def test_sweep_equals_monte_carlo_per_config(epr, bit, a0, a1, steer, qs, data, trials):
    # one batch preparation gives each config the summary its own one-config sweep does
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, ProjectiveBasis(*steer))
    else:
        scenario = HonestAlice(bit=bit)
    configs = [
        cfg(q, data.draw(st.integers(1, 60)), seed=data.draw(st.integers(0, 2**64 - 1)),
            accept_sigma=data.draw(st.floats(0.0, 5.0)))
        for q in qs
    ]
    assert list(sweep(configs, scenario, trials)) == [
        next(sweep([c], scenario, trials)) for c in configs]


@settings(max_examples=60, deadline=None)
@given(
    epr=st.booleans(),
    bit=st.integers(0, 1),
    a0=_ANGLES,
    a1=_ANGLES,
    steer=_ANGLES,
    qs=st.lists(st.floats(0.0, 1.0), max_size=3).flatmap(
        lambda extra: st.permutations(list(_GRID_QS) + extra)),
)
def test_sweep_columns_are_those_of_the_lifted_pair(epr, bit, a0, a1, steer, qs):
    # a sweep forms no post-channel pair, and its columns must follow the
    # exact rule: a pair of concurrence C > 0 is entangled iff q > 1/3, with
    # concurrence C (3q - 1)/2. The PPT test of the lift formed here decides
    # at -TOL, so it may call separable a weakly entangled lift whose least
    # partial-transpose eigenvalue lies in [-TOL, 0), as at q* + 1e-12, and
    # nowhere else may the two verdicts differ. Where the test rejects the
    # lift, the concurrence agrees to the roundoff of Wootters' formula on
    # it, which grows as 1/C near a product pair of concurrence C, whose lift
    # has eigenvalues of order C^2 that enter through square roots; the
    # closed form stays within ~1e-16
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, ProjectiveBasis(*steer))
        c = pure_pair_concurrence(strategy.a0, strategy.a1)
    else:
        scenario = HonestAlice(bit=bit)
        c = 0.0
    summaries = list(sweep([cfg(q, 10) for q in qs], scenario, 1))
    for q, summary in zip(qs, summaries):
        joint = lift_apply(DepolarizingChannel(q), scenario.pair)
        assert summary.separable_fraction == (1.0 if c * (3.0 * q - 1.0) / 2.0 <= 0.0 else 0.0)
        assert math.copysign(1.0, summary.mean_concurrence) == 1.0  # never -0.0
        if not is_separable(joint):
            assert summary.separable_fraction == 0.0
            assert abs(summary.mean_concurrence - concurrence(joint)) <= 1e-14 + 4e-15 / c
        elif summary.separable_fraction == 0.0:
            # inside the band: negative up to the eigensolver's roundoff of ~1e-15
            assert -TOL <= eig_hermitian(partial_transpose(joint))[-1] <= 2e-15
            assert summary.mean_concurrence == lifted_concurrence(scenario, q) > 0.0
        else:
            assert summary.mean_concurrence == concurrence(joint) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    epr=st.booleans(),
    bit=st.integers(0, 1),
    a0=_ANGLES,
    a1=_ANGLES,
    steer=_ANGLES,
    qs=st.lists(st.floats(0.0, 1.0), max_size=3).flatmap(
        lambda extra: st.permutations(list(_GRID_QS) + extra)),
)
def test_session_laws_are_the_laws_of_the_lifted_pair(epr, bit, a0, a1, steer, qs):
    # a session applies the receiver's channel to his effects and never forms
    # the post-channel pair; the channel is self-adjoint, so its laws before
    # grid rounding are those read off the lifted pair with the bare effects,
    # to roundoff. An entry within roundoff of OUTCOME_EPS may be zeroed on
    # one side only, and the other is then below OUTCOME_EPS and roundoff
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, ProjectiveBasis(*steer))
    else:
        scenario = HonestAlice(bit=bit)
    steer_basis = scenario.steer_basis if epr else RECTILINEAR
    laws, original = [], protocol._round_law

    def round_law(x, basis):
        laws.append(original(x, basis))
        return laws[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_round_law", round_law)
        protocol._prepare([cfg(q, 10) for q in qs], scenario)
    ((receivers, law),) = laws
    assert receivers.shape == (len(qs), 4) and law.shape == (len(qs), 8)
    for q, session in zip(qs, zip(receivers, law)):
        lifted = lifted_round_law(lift_apply(DepolarizingChannel(q), scenario.pair), steer_basis)
        for got, want, floor in zip(session, lifted, (2 * OUTCOME_EPS, OUTCOME_EPS)):
            kept = (got != 0) & (want != 0)
            assert np.abs(got - want)[kept].max(initial=0.0) <= 4.5e-16
            assert np.maximum(got, want)[~kept].max(initial=0.0) <= floor + 4.5e-16


def _built_pairs():
    """Both senders, each with its pair built up front."""
    strategy = CheatStrategy([0.6, 0.8j], [1.0, 0.0])
    scenarios = [HonestAlice(bit=1), EprAlice(strategy, 1, ProjectiveBasis(0.9, 2.1)),
                 EprAlice(bell_strategy(), 0, RECTILINEAR)]
    assert all(scenario.pair.mat.shape == (4, 4) for scenario in scenarios)
    return scenarios


@pytest.mark.parametrize("bit", [0, 1])
def test_honest_pair_is_stored_with_no_eigensolve(monkeypatch, bit):
    # the classical-quantum pair has entries 0, 1/4 and 1/2 exactly, so it is
    # valid by construction: stored as validation would store it, unchecked
    eigensolves = count_calls(monkeypatch, linalg, "eig_hermitian")
    pair = HonestAlice(bit).pair
    assert eigensolves == []
    mat = sum(np.kron(bb84_projector(0, v), bb84_projector(bit, v)) for v in (0, 1)) / 2
    assert pair == DensityMatrix(mat)
    assert pair.mat.dtype == complex and pair.mat.tobytes() == DensityMatrix(mat).mat.tobytes()
    assert not pair.mat.flags.writeable


def test_sessions_lift_no_pair(monkeypatch):
    # the session laws come from the receiver's effects: no session or
    # batch lifts its pair, runs a PPT test or solves an eigenproblem
    scenarios = _built_pairs()
    calls = _count_lifts_ppt_tests_and_eigensolves(monkeypatch)
    for scenario in scenarios:
        run_session(cfg(0.6, 50, seed=3), scenario, trial=2)
        protocol._prepare([cfg(q, 50) for q in _SWEEP_QS], scenario)
    assert calls == [[], [], []]


def test_monte_carlo_builds_the_joint_state_once(monkeypatch):
    # the joint state is the pair each scenario builds once; a sweep's
    # separability and concurrence columns come from closed forms, so no
    # sweep, of one config or a grid, lifts that pair again, runs a PPT test
    # or solves an eigenproblem
    scenarios = _built_pairs()
    calls = _count_lifts_ppt_tests_and_eigensolves(monkeypatch)
    for scenario in scenarios:
        assert next(sweep([cfg(0.7, 40, seed=2)], scenario, trials=50)).trials == 50
        assert len(list(sweep([cfg(q, 50) for q in _SWEEP_QS], scenario, 4))) == len(_SWEEP_QS)
    assert calls == [[], [], []]


def test_sweep_yields_each_summary_before_drawing_the_next(monkeypatch):
    # each config's block of trials draws one multinomial of its round
    # count; the configs' round counts tell their draws apart. With chunks
    # of one config, each config's draws wait for its own summary
    monkeypatch.setattr(protocol, "_CHUNK_CONFIGS", 1)
    draws = _record_multinomials(monkeypatch)
    sc = EprAlice(bell_strategy(), 1, DIAGONAL)
    configs = [cfg(q, rounds, seed=4) for q, rounds in ((0.2, 11), (0.5, 12), (0.9, 13))]
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sweep(configs, sc, 0)  # validated on the call, before any summary is asked for
    summaries = sweep(configs, sc, 3)
    assert draws == []
    taken = [next(summaries)]
    assert draws == [(11, 3)]
    taken += list(summaries)
    assert draws == [(11, 3), (12, 3), (13, 3)]
    assert taken == [next(sweep([c], sc, 3)) for c in configs]
    assert list(sweep([], sc, 3)) == []


def test_sweep_draws_a_chunk_before_its_first_summary_and_the_next_after_its_last(monkeypatch):
    # 2**15 trials fill half of a chunk's 2**16 cells, so the 4 configs run
    # in 2 chunks of 2; each config draws 2**15 / 64 blocks of its round count
    draws = _record_multinomials(monkeypatch)
    sc = EprAlice(bell_strategy(), 1, DIAGONAL)
    configs = [cfg(q, rounds, seed=4) for q, rounds in ((0.2, 11), (0.5, 12), (0.7, 13), (0.9, 14))]
    blocks = 2**15 // 64

    def drawn(*rounds):
        return [(n, 64) for n in rounds for _ in range(blocks)]

    summaries = sweep(configs, sc, 2**15)
    assert draws == []
    taken = [next(summaries)]
    assert draws == drawn(11, 12)
    taken.append(next(summaries))
    assert draws == drawn(11, 12)
    taken.append(next(summaries))
    assert draws == drawn(11, 12, 13, 14)
    taken += list(summaries)
    assert draws == drawn(11, 12, 13, 14)
    assert [s.trials for s in taken] == [2**15] * 4
    assert taken == [next(sweep([c], sc, 2**15)) for c in configs]


def _record_multinomials(monkeypatch):
    """The round count and the number of rows of every multinomial the sessions draw, in order."""
    draws = []
    generator = np.random.Generator

    class Recording:
        def __init__(self, bitgen):
            self.rng = generator(bitgen)

        def multinomial(self, n, pvals, size):
            draws.append((n, size))
            return self.rng.multinomial(n, pvals, size)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return draws


_GENERIC = CheatStrategy(ProjectiveBasis(1.1, 0.4).vectors()[0],
                         ProjectiveBasis(2.3, 5.0).vectors()[0])


@pytest.mark.parametrize("scenario", [
    HonestAlice(bit=0), HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL),
    EprAlice(bell_strategy(), 0, ProjectiveBasis(1.1, 2.2)),
], ids=["honest-0", "honest-1", "bell-diagonal", "bell-oblique"])
def test_a_grid_of_one_receiver_law_draws_his_counts_once_per_trial(monkeypatch, scenario):
    # the receiver holds I/2 at every q, so a sweep at one seed and one round
    # count draws his counts once per trial for the whole grid, a block of
    # trials at a time, and each summary is still the one its config's own
    # one-config sweep gives
    draws = _record_multinomials(monkeypatch)
    configs = [cfg(q, 40, seed=8) for q in (0.0, 1 / 3, 0.5, 0.9, 1.0)]
    summaries = list(sweep(configs, scenario, 70))
    assert draws == [(40, 64), (40, 6)]
    assert summaries == [next(sweep([c], scenario, 70)) for c in configs]


@pytest.mark.parametrize("rounds", [1, 40])
@pytest.mark.parametrize("trials", [1, 7, 64, 129])
@pytest.mark.parametrize("scenario",
                         [HonestAlice(bit=1), EprAlice(_GENERIC, 1, ProjectiveBasis(0.9, 2.1))],
                         ids=["honest", "generic"])
def test_a_grid_of_several_chunks_equals_its_one_config_sweeps(monkeypatch, scenario, trials,
                                                               rounds):
    # chunks of 3 configs by their trial cells: 8 configs run in chunks of 3, 3
    # and 2; with 1-round trials some rows hold a trial with no sifted round
    monkeypatch.setattr(protocol, "_CHUNK_CELLS", 3 * trials + trials - 1)
    configs = [cfg(q, rounds, seed=11) for q in np.linspace(0.0, 1.0, 8)]
    summaries = list(sweep(configs, scenario, trials))
    assert summaries == [next(sweep([c], scenario, trials)) for c in configs]
    if rounds == 1 and trials > 1:
        assert any(0 < s.no_sifted_trials < trials for s in summaries)


@pytest.mark.parametrize("trials, steps", [(1, 1025), (129, 509)])
def test_a_grid_past_the_default_chunk_equals_its_one_config_sweeps(trials, steps):
    # 1024 configs of one trial, or 2**16 // 129 = 508 configs of 129 trials, fill a chunk
    scenario = HonestAlice(bit=0)
    configs = [cfg(q, 1, seed=12) for q in np.linspace(0.0, 1.0, steps)]
    summaries = list(sweep(configs, scenario, trials))
    assert summaries == [next(sweep([c], scenario, trials)) for c in configs]


def test_configs_of_distinct_receiver_counts_share_no_draw(monkeypatch):
    # a generic cheater's r moves with q, so every (config, trial) draws its
    # own; among Bell configs, only a run of consecutive configs of one seed
    # and one round count shares a draw, and only the latest draw is kept
    draws = _record_multinomials(monkeypatch)
    qs = (0.0, 0.5, 1.0)
    summaries = list(sweep([cfg(q, 40, seed=8) for q in qs], EprAlice(_GENERIC, 1), 6))
    assert draws == [(40, 6)] * len(qs)
    draws.clear()
    configs = [cfg(0.5, 40, seed=8), cfg(0.5, 40, seed=9), cfg(0.5, 41, seed=9),
               cfg(0.7, 41, seed=9), cfg(0.7, 40, seed=8)]
    bell = EprAlice(bell_strategy(), 0)
    bell_summaries = list(sweep(configs, bell, 6))
    assert draws == [(40, 6), (40, 6), (41, 6), (40, 6)]
    assert summaries == [next(sweep([cfg(q, 40, seed=8)], EprAlice(_GENERIC, 1), 6)) for q in qs]
    assert bell_summaries == [next(sweep([c], bell, 6)) for c in configs]


def test_receiver_parts_are_one_draw_for_every_q_and_sender():
    # hiding at the sample level: the honest sender of either bit and the
    # Bell cheater steered in any basis leave the receiver I/2 at every q, so
    # trial t's receiver parts 4b + 2o are the same draw for all of them
    scenarios = [HonestAlice(bit=0), HonestAlice(bit=1)] + [
        EprAlice(bell_strategy(), target, basis)
        for basis in (RECTILINEAR, DIAGONAL, ProjectiveBasis(1.1, 2.2)) for target in (0, 1)]
    transcripts = [run_session(cfg(q, 500, seed=31), scenario, trial=4)[0]
                   for q in (0.0, 1 / 3, 0.5, 1.0) for scenario in scenarios]
    for t in transcripts:
        assert np.array_equal(t.classes >> 1, transcripts[0].classes >> 1)
    # while the announced variants move with q
    assert not np.array_equal(transcripts[0].classes & 1, transcripts[-len(scenarios)].classes & 1)


def test_monte_carlo_mean_skips_trials_without_sifted_rounds():
    # one round per trial: about half the trials measure off the encoding
    # basis and have no evidence; the noiseless ones that do all match
    summary = next(sweep([cfg(1.0, 1, seed=0)], HonestAlice(bit=0), trials=20))
    empty = sweep_counts(cfg(1.0, 1, seed=0), HonestAlice(bit=0), 20)[0].count(0)
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
    summary = next(sweep([c], HonestAlice(bit=0), trials=1))
    assert summary.no_sifted_trials == 1
    assert summary.match_fraction_mean == summary.match_fraction_std == 0.0
    assert summary.acceptance_rate == 0.0


@pytest.mark.parametrize("q", [0.1, 0.4, 0.7, 1.0])
def test_monte_carlo_honest_sweep_tracks_expectation(q):
    c = cfg(q, 10000, seed=17)
    summary = next(sweep([c], HonestAlice(bit=0), trials=5))
    expected = (1 + q) / 2
    sigma = math.sqrt(expected * (1 - expected) / (10000 / 2 * 5)) if q < 1 else 0.0
    assert abs(summary.match_fraction_mean - expected) <= 3 * sigma + 1e-3
    assert summary.separable_fraction == 1.0
    assert summary.mean_concurrence == 0.0


# (n, q, accept_sigma) and P(accept), to six decimals, of a sender who
# matches each sifted round with probability (1+q)/2
_EXACT_ACCEPTANCE = [
    (100, 0.5, 1.0, 0.843100),
    (1000, 0.2, 0.5, 0.692113),
    (40, 0.9, 2.0, 0.956156),
    (20, 0.98, 3.0, 0.965358),
    (10000, 0.5, 3.0, 0.998555),
]


@pytest.mark.parametrize("rounds, q, sigma, exact", _EXACT_ACCEPTANCE)
def test_monte_carlo_acceptance_rate_matches_the_exact_binomial_sum(rounds, q, sigma, exact):
    pytest.importorskip("scipy.special")
    config = cfg(q, rounds, accept_sigma=sigma)
    p = exact_acceptance(config, (1 + q) / 2)
    assert abs(p - exact) <= 5e-7
    # the Bell cheater steered in the opened bit's encoding basis matches
    # each sifted round as the honest sender does, so both accept at p
    trials = 20_000
    for scenario in (HonestAlice(bit=1),
                     EprAlice(bell_strategy(), target_bit=1, steer_basis=encoding_basis(1))):
        rate = next(sweep([config], scenario, trials)).acceptance_rate
        assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("q", [0.0, 1 / 3, 0.5, 1.0])
def test_monte_carlo_honest_pair_is_separable(q, bit):
    # the honest sender's classical-quantum pair stays separable through any channel
    summary = next(sweep([cfg(q, 20, seed=8)], HonestAlice(bit=bit), trials=2))
    assert summary.separable_fraction == 1.0
    assert summary.mean_concurrence == 0.0


def test_monte_carlo_honest_acceptance_rate():
    c = cfg(0.8, 10000, seed=0)
    summary = next(sweep([c], HonestAlice(bit=1), trials=100))
    assert summary.acceptance_rate >= 0.99


def test_monte_carlo_cheating_summary_fields():
    sc = EprAlice(strategy=bell_strategy(), target_bit=0, steer_basis=RECTILINEAR)
    low = next(sweep([cfg(0.2, 300, seed=3)], sc, trials=4))
    assert low.separable_fraction == 1.0
    assert low.mean_concurrence <= 1e-10
    high = next(sweep([cfg(0.8, 300, seed=3)], sc, trials=4))
    assert high.separable_fraction == 0.0
    assert abs(high.mean_concurrence - (3 * 0.8 - 1) / 2) < 1e-9
    assert high.mean_concurrence == lifted_concurrence(sc, 0.8)


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        next(sweep([cfg(0.5, 10)], HonestAlice(bit=0), trials=0))


def test_monte_carlo_summary_is_compared_by_value():
    summary = next(sweep([cfg(0.6, 50, seed=5)], HonestAlice(bit=0), trials=7))
    again = next(sweep([cfg(0.6, 50, seed=5)], HonestAlice(bit=0), trials=7))
    assert again == summary and again is not summary
    other = dataclasses.replace(summary, match_fraction_mean=summary.match_fraction_mean + 0.125)
    assert other != summary


@pytest.mark.parametrize("make", [
    lambda: DensityMatrix(np.eye(2) / 2),
    lambda: Transcript(cfg(0.5, 2), 0, [0, 3]),
    lambda: next(sweep([cfg(0.5, 10)], HonestAlice(bit=0), trials=2)),
], ids=["density-matrix", "transcript", "monte-carlo-summary"])
def test_equality_with_another_type_is_false(make):
    value = make()
    assert value.__eq__(object()) is NotImplemented
    assert (value == "x") is False and (value != None) is True  # noqa: E711


def _sessions_follow_the_rule(c, scenario, trials):
    """A one-config sweep's columns and statistics are its sessions', each obeying the rule."""
    summary = next(sweep([c], scenario, trials))
    assert summary == sessions_summary(c, scenario, trials)
    reports = [run_session(c, scenario, t)[1] for t in range(trials)]
    assert sweep_counts(c, scenario, trials) == ([r.sifted_count for r in reports],
                                                 [r.match_count for r in reports])
    for r in reports:
        assert r == counts_report(c, r.sifted_count, r.match_count)
    return summary, reports


_EDGE_SCENARIOS = [HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL)]


@pytest.mark.parametrize("scenario", _EDGE_SCENARIOS, ids=["honest", "epr"])
@pytest.mark.parametrize("q, rounds", [(0.0, 4), (0.5, 8)])
def test_monte_carlo_decides_like_verify_at_zero_sigma(scenario, q, rounds):
    # the threshold is the expectation itself, and a fraction equal to it is accepted
    c = cfg(q, rounds, seed=11, accept_sigma=0.0)
    summary, reports = _sessions_follow_the_rule(c, scenario, 300)
    at_threshold = [r for r in reports if r.match_fraction == r.expected_fraction]
    assert at_threshold and all(r.accepted and r.threshold == (1 + q) / 2 for r in at_threshold)
    assert 0.0 < summary.acceptance_rate < 1.0


@pytest.mark.parametrize("scenario", _EDGE_SCENARIOS, ids=["honest", "epr"])
def test_monte_carlo_decides_like_verify_without_noise(scenario):
    # q = 1: the threshold is 1 whatever the sigma, and noiseless sessions match every round
    summary, reports = _sessions_follow_the_rule(cfg(1.0, 30, seed=12), scenario, 100)
    assert all(r.threshold == 1.0 for r in reports)
    assert summary.acceptance_rate == 1.0 and summary.match_fraction_std == 0.0


@pytest.mark.parametrize("scenario", _EDGE_SCENARIOS, ids=["honest", "epr"])
def test_monte_carlo_decides_like_verify_on_single_rounds(scenario):
    # one round per trial: about half the trials have no sifted round and are rejected
    summary, reports = _sessions_follow_the_rule(cfg(0.6, 1, seed=13), scenario, 400)
    empty = [r for r in reports if r.no_sifted_rounds]
    assert 100 < len(empty) < 300 and summary.no_sifted_trials == len(empty)
    assert not any(r.accepted for r in empty)
    assert 0.0 < summary.acceptance_rate < 1.0


def test_verdict_divides_counts_past_float_precision_exactly():
    # counts past 2**53 are not floats; their ratio must still be rounded once
    c = cfg(0.5, 2**63 - 1, accept_sigma=2.0)
    sifted = [2**62 + 3, 2**63 - 1, 2**53 + 1, 2**53 + 1, 3, 0]
    matched = [3 * 2**60 + 11009, 2**62 + 12345, 2**53 + 1, 2**53 - 1, 2, 0]
    expected, fraction, threshold, accepted = protocol._verdict(
        c.q, c.accept_sigma, np.array(sifted, dtype=np.int64), np.array(matched, dtype=np.int64))
    for i, (s, m) in enumerate(zip(sifted, matched)):
        r = counts_report(c, s, m)
        assert (expected, fraction[i], threshold[i], accepted[i]) == (
            r.expected_fraction, r.match_fraction, r.threshold, r.accepted)
    # in float64 the first pair would round before the division, and land one ulp off
    assert fraction[0] != np.float64(matched[0]) / np.float64(sifted[0])


def test_verdict_divides_counts_below_float_precision_as_python_ints(rng):
    # counts below 2**53 are divided in float64, a stack with a count past it
    # as Python ints; both must give each quotient of m / s, rounded once
    top = 2**53
    sifted = np.concatenate([rng.integers(1, 1000, 200), rng.integers(1, top, 200),
                             [top - 1, top - 1, top - 1, 1, 0]])
    matched = np.concatenate([(rng.random(400) * sifted[:400]).astype(np.int64),
                              [top - 2, top - 1, 1, 0, 0]])
    exact = [m / s if s else 0.0 for s, m in zip(sifted.tolist(), matched.tolist())]
    by_float = protocol._verdict(0.5, 3.0, sifted, matched)
    # one count past 2**53 sends the whole stack down the Python-int division
    by_int = protocol._verdict(0.5, 3.0, np.append(sifted, top + 1), np.append(matched, top + 1))
    assert by_float[1].tolist() == exact and by_int[1].tolist() == exact + [1.0]
    for a, b in zip(by_float[2:], by_int[2:]):
        assert np.array_equal(a, b[:-1])
    # a row of a (Q, T) stack decides as that config's own scalar call
    qs, sigmas = np.array([[0.2], [0.7]]), np.array([[1.0], [3.0]])
    stack = protocol._verdict(qs, sigmas, sifted[:400].reshape(2, 200),
                              matched[:400].reshape(2, 200))
    for row in range(2):
        cols = slice(200 * row, 200 * row + 200)
        alone = protocol._verdict(float(qs[row, 0]), float(sigmas[row, 0]), sifted[cols],
                                  matched[cols])
        assert alone[0] == stack[0][row, 0]
        assert all(np.array_equal(a, b[row]) for a, b in zip(alone[1:], stack[1:]))


@pytest.mark.parametrize("sigma", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("q", [0.0, 1 / 3, 0.5, 0.98, 1.0])
def test_verdict_accepts_the_match_counts_from_one_cut_up(q, sigma):
    # among s sifted rounds the accepted match counts are {m >= m*(s)}, so an
    # exact acceptance is the one binomial tail above m*(s); checked at every
    # s <= 300 and in a window around the cut at s = 2**53 + 1, where
    # consecutive fractions m / s lie closer together than a float's ulp
    c = cfg(q, 2**63 - 1, accept_sigma=sigma)

    def accepted(s, matched):
        """_verdict's decisions on ``matched`` among s sifted rounds, checked to be a suffix."""
        verdicts = protocol._verdict(c.q, c.accept_sigma, np.full(matched.size, s), matched)[3]
        assert np.array_equal(verdicts, matched > matched[-1] - verdicts.sum()), s
        return verdicts

    for s in range(301):
        accepted(s, np.arange(s + 1))
    s = 2**53 + 1
    (threshold,) = protocol._verdict(c.q, c.accept_sigma, np.array([s]), np.array([0]))[2]
    cut = int(Fraction(float(threshold)) * s)
    window = accepted(s, np.arange(max(cut - 64, 0), min(cut + 64, s) + 1))
    assert window.any() and not window.all()  # the window holds the cut


def _count_prepare_eigensolves(monkeypatch):
    """The shapes ``eig_hermitian`` gets inside each ``protocol._prepare`` call, a list per call."""
    eigensolves = count_calls(monkeypatch, linalg, "eig_hermitian")
    prepared = []
    prepare = protocol._prepare

    def counting(configs, scenario):
        before = len(eigensolves)
        session = prepare(configs, scenario)
        prepared.append([np.shape(args[0]) for args in eigensolves[before:]])
        return session

    monkeypatch.setattr(protocol, "_prepare", counting)
    return prepared


def test_monte_carlo_validates_each_pair_once_per_scenario(monkeypatch):
    # neither pair costs an eigensolve: the honest pair, a mixture of exact
    # entries, is stored unchecked (states._unchecked), and the cheater's
    # pure pair is not re-validated (states._projector); and no batch
    # validates its stack of lifts, in a sweep of one config or of many
    prepared = _count_prepare_eigensolves(monkeypatch)
    for scenario in (HonestAlice(bit=0), EprAlice(bell_strategy(), 1, DIAGONAL)):
        prepared.clear()
        for q in _SWEEP_QS:
            next(sweep([cfg(q, 10, seed=3)], scenario, trials=4))
        assert prepared == [[]] * len(_SWEEP_QS)
        prepared.clear()
        list(sweep([cfg(q, 10, seed=3) for q in _SWEEP_QS], scenario, trials=4))
        assert prepared == [[]]


@pytest.mark.parametrize("scenario, q", [
    (HonestAlice(bit=1), 0.8),
    (EprAlice(bell_strategy()), 0.2),
    (EprAlice(bell_strategy()), 1 / 3),
    (EprAlice(bell_strategy()), 0.8),
], ids=["honest", "epr-separable", "epr-boundary", "epr-entangled"])
def test_monte_carlo_runs_the_ppt_test_once(monkeypatch, scenario, q):
    # the PPT test runs once per q, here, on the lift, and each of a sweep's
    # verdicts must be its answer; the sweep itself runs none, and lifts and
    # decomposes nothing, over one config or a grid
    qs = (q, *_SWEEP_QS)
    ppt = [1.0 if is_separable(lift_apply(DepolarizingChannel(p), scenario.pair)) else 0.0
           for p in qs]
    assert ppt == [1.0 if isinstance(scenario, HonestAlice) or p <= 1 / 3 else 0.0 for p in qs]
    calls = _count_lifts_ppt_tests_and_eigensolves(monkeypatch)
    summary = next(sweep([cfg(q, 10)], scenario, trials=3))
    summaries = list(sweep([cfg(p, 10) for p in qs], scenario, trials=3))
    assert calls == [[], [], []]
    assert summary.separable_fraction == ppt[0]
    assert [s.separable_fraction for s in summaries] == ppt


_SEPARABILITY_QS = [0.0, 0.3, 1 / 3, 1 / 3 - 1e-12, 1 / 3 + 1e-12, 0.34, 1.0]


@pytest.mark.parametrize("q", _SEPARABILITY_QS)
def test_separable_fraction_is_the_ppt_test(q):
    # the verdict is the exact rule's, separable iff 3q <= 1, also within
    # roundoff of q*, and the concurrence the factorization law's. It is the
    # PPT test's answer at every q but q* + 1e-12: there the lift's least
    # partial-transpose eigenvalue, about -(3q - 1) C^2 / 4 for a pair of
    # concurrence C, lies in [-TOL, 0), which the PPT test accepts
    rng = np.random.default_rng(14)
    strategies = [bell_strategy()] + [
        CheatStrategy(*(ProjectiveBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                        .vectors()[0] for _ in range(2)))
        for _ in range(2)
    ]
    for strategy in strategies:
        scenario = EprAlice(strategy)
        joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
        summary = next(sweep([cfg(q, 10)], scenario, trials=1))
        assert summary.separable_fraction == (1.0 if 3.0 * q <= 1.0 else 0.0)
        if q == 1 / 3 + 1e-12:
            assert is_separable(joint) and summary.separable_fraction == 0.0
        else:
            assert summary.separable_fraction == (1.0 if is_separable(joint) else 0.0)
        assert summary.mean_concurrence == lifted_concurrence(scenario, q)


def test_custom_cheat_strategy_flows_through():
    a1 = np.array([1.0, 1.0]) / math.sqrt(2)
    strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=a1)
    summary = next(sweep([cfg(0.5, 200, seed=19)], EprAlice(strategy=strategy), trials=1))
    # C(cheat) = sin(pi/4) pre-channel, scaled by (3q-1)/2 after the lift
    assert abs(summary.mean_concurrence - math.sin(math.pi / 4) * 0.25) < 1e-9


def test_near_product_pair_is_entangled_above_q_star():
    # a pair of concurrence ~7e-6 keeps concurrence C (3q - 1)/2 = 1.77e-6 at
    # q = 0.5, far above q*, though its lift's least partial-transpose
    # eigenvalue, -9.4e-12, lies inside the PPT test's TOL band
    a0, a1 = (1.618942996777032, 1.7957430321414596), (1.618952996777032, 1.7957530321414596)
    strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
    summary = next(sweep([cfg(0.5, 10)], EprAlice(strategy), trials=1))
    assert summary.separable_fraction == 0.0
    assert summary.mean_concurrence == pure_pair_concurrence(strategy.a0, strategy.a1) * 0.25
    assert summary.mean_concurrence > 1.7e-6


_angle_theta = st.floats(0.0, math.pi)
_angle_phi = st.floats(0.0, 2 * math.pi, exclude_max=True)


def _dump(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--dump-transcript"])
    return out.getvalue()


def _reference_records(transcript: Transcript) -> list[dict]:
    """One dict per round, each field read off the round's class 4b + 2o + v."""
    records = []
    for i, k in enumerate(transcript.classes.tolist()):
        basis, outcome, variant = k >> 2, (k >> 1) & 1, k & 1
        sifted = basis == transcript.opened_bit
        records.append({
            "round": i,
            "bob_basis": basis,
            "bob_outcome": outcome,
            "announced_variant": variant,
            "sifted": sifted,
            "matched": outcome == variant if sifted else None,
        })
    return records


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
    assert [(r["bob_basis"], r["bob_outcome"], r["announced_variant"]) for r in records] == [
        (k >> 2, (k >> 1) & 1, k & 1) for k in transcript.classes.tolist()
    ]


# round counts on each side of every slice boundary (a slice is 1000 records)
# and of every digit boundary of the round numbers; 100001 rounds end in a
# slice of one record whose round number has the three-digit lead "100"
@pytest.mark.parametrize("rounds", [1, 9, 10, 11, 999, 1000, 1001, 1999, 2000, 2001,
                                    10000, 10001, 12345, 100_001])
@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("alice", ["honest", "epr"])
def test_dump_written_in_slices_is_one_document(alice, bit, rounds):
    argv = ["run", "--alice", alice, "--q", "0.6", "--rounds", str(rounds), "--seed", "3"]
    if alice == "epr":
        argv += ["--target-bit", str(bit), "--steer-theta", repr(math.pi / 2)]
        scenario = EprAlice(bell_strategy(), bit, DIAGONAL)
    else:
        argv += ["--bit", str(bit)]
        scenario = HonestAlice(bit=bit)
    transcript, _ = run_session(cfg(0.6, rounds, seed=3), scenario)
    text = _dump(argv)
    doc = json.loads(text)
    reference = {"meta": doc["meta"], "rows": doc["rows"],
                 "transcript": _reference_records(transcript)}
    expected = json.dumps(reference, indent=2) + "\n"
    # line by line first, so that a failure shows its first wrong line, not
    # a diff of megabytes
    for number, (got, want) in enumerate(zip(text.splitlines(), expected.splitlines()), 1):
        assert got == want, f"line {number}"
    assert text == expected


def _reference_law(q, scenario):
    """A scenario's round law law[b, o, v] from the public per-branch API, 0 below OUTCOME_EPS.

    The receiver measures in basis b with probability 1/2 and sees outcome
    o; the sender announces variant v. An honest sender sends either
    variant with probability 1/2 and announces the one she sent, so
    law[b, o, v] = 1/4 <e_bo|eps_q(P_v)|e_bo>. A cheater announces her
    steering outcome on the branch the receiver's outcome leaves her, so
    law[b, o, v] = 1/2 p_o <s_v|cond_o|s_v>.
    """
    def prob(state, vector):
        return float(np.real(vector.conj() @ state @ vector))

    law = np.zeros((2, 2, 2))
    if isinstance(scenario, HonestAlice):
        channel = DepolarizingChannel(q)
        for v in (0, 1):
            noisy = channel_apply(channel, bb84_projector(scenario.bit, v))
            for b in (0, 1):
                for o, e in enumerate(encoding_basis(b).vectors()):
                    law[b, o, v] = prob(noisy, e) / 4
    else:
        strategy = scenario.strategy
        joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
        for b in (0, 1):
            branches = joint_outcome_decomposition(joint, "B", encoding_basis(b))
            for o, (p, cond) in enumerate(branches):
                for v, s in enumerate(scenario.steer_basis.vectors()):
                    law[b, o, v] = 0.0 if cond is None else p * prob(cond.mat, s) / 2
    return np.where(law < OUTCOME_EPS, 0.0, law)


def _reference_receiver_law(q, scenario):
    """r[2b + o] = 1/2 <e_bo|rho_B|e_bo>, rho_B the receiver's state: his basis b and outcome o."""
    if isinstance(scenario, HonestAlice):
        state = channel_apply(DepolarizingChannel(q), bb84_pair_mixture(scenario.bit).mat)
    else:
        strategy = scenario.strategy
        joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
        state = receiver_marginal(joint.mat)
    return np.array([np.real(e.conj() @ state @ e) / 2
                     for b in (0, 1) for e in encoding_basis(b).vectors()])


def _session_laws(q, scenario):
    """The reference receiver law r[2b + o] and group laws law[2b + o, v], on ``protocol._LAW_GRID``."""
    grid = protocol._LAW_GRID
    law = np.rint(_reference_law(q, scenario).reshape(4, 2) / grid) * grid
    # the receiver's outcome probabilities, not sums of the law: a sum of
    # entries each on the grid can be a grid step off
    receiver = np.where(law.any(axis=1), _reference_receiver_law(q, scenario), 0.0)
    return np.rint(receiver / grid) * grid, law


def _replay(q, scenario, seed, trial, rounds):
    """Trial ``trial``'s round classes 4b + 2o + v, drawn afresh.

    From the reference laws, each probability rounded to
    ``protocol._LAW_GRID``. Trial t is row j = t mod 64 of block t // 64,
    whose two count streams are keyed (seed, t // 64): on
    ``derive_rng(seed, t // 64)`` the receiver's (b, o) counts of rows 0
    to j in one multinomial draw of j + 1 rows over the outcomes of
    positive law; at counter (0, 0, 0, 2) the opened bit's two groups'
    counts of variant 1 of rows 0 to j in one binomial draw of shape
    (j + 1, 2), o = 0 before o = 1 in each row, and next on that stream
    the two other groups' counts of row j, o = 0 first. The class codes
    4b + 2o + v of row j, laid out in sorted order, are then reordered by
    ``permutation(rounds)`` drawn at counter (0, 0, 0, 1) of trial t's own
    key (seed, t).
    """
    receiver, law = _session_laws(q, scenario)
    present = receiver > 0
    block, row = divmod(trial, 64)
    c = np.zeros((row + 1, 4), dtype=np.int64)
    c[:, present] = derive_rng(seed, block).multinomial(
        rounds, receiver[present] / receiver[present].sum(), size=row + 1)
    p_one = np.divide(law[:, 1], law.sum(axis=1), out=np.zeros(4), where=present)
    bit = scenario.bit if isinstance(scenario, HonestAlice) else scenario.target_bit
    sifted, other = [2 * bit, 2 * bit + 1], [2 - 2 * bit, 3 - 2 * bit]
    variants = _substream(seed, block, 2)
    ones = np.zeros(4, dtype=np.int64)
    ones[sifted] = variants.binomial(c[:, sifted], p_one[sifted])[row]
    ones[other] = [variants.binomial(c[row, g], p_one[g]) for g in other]
    classes = np.repeat(np.arange(8), np.stack([c[row] - ones, ones], axis=1).ravel())
    return classes[_substream(seed, trial, 1).permutation(rounds)]


def _substream(seed, trial, counter):
    """The generator of the key (seed, trial) from counter (0, 0, 0, ``counter``)."""
    philox = np.random.Philox(key=np.array([seed, trial], dtype=np.uint64),
                              counter=np.array([0, 0, 0, counter], dtype=np.uint64))
    return np.random.Generator(philox)


@settings(max_examples=60, deadline=None)
@example(q=1.0, seed=0, first=0, trials=1, rounds=5, bit=1, epr=True,
         a0=_no_angles, a1=(math.pi, 0.0), steer=_no_angles)
@example(q=0.5, seed=2**64 - 1, first=2**64 - 3, trials=3, rounds=5, bit=1, epr=False,
         a0=_no_angles, a1=_no_angles, steer=_no_angles)
@example(q=1.0, seed=2**63, first=2**63 - 1, trials=3, rounds=5, bit=1, epr=True,
         a0=_no_angles, a1=(1e-3, 0.0), steer=(1.5, 0.0))
# trials 63 and 64, the last row of block 0 and the first of block 1; a
# range from mid-block 0 through block 1 into block 2; and the last block,
# whose key's second word is (2**64 - 1) // 64
@example(q=0.6, seed=5, first=63, trials=2, rounds=9, bit=0, epr=False,
         a0=_no_angles, a1=_no_angles, steer=_no_angles)
@example(q=0.8, seed=2**64 - 1, first=60, trials=71, rounds=7, bit=1, epr=True,
         a0=(1.1, 0.4), a1=(2.3, 5.0), steer=(0.9, 2.1))
@example(q=0.3, seed=0, first=2**64 - 66, trials=66, rounds=4, bit=0, epr=True,
         a0=_no_angles, a1=(math.pi, 0.0), steer=(1.5, 0.0))
@given(
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**64 - 3),
    trials=st.integers(1, 3),
    rounds=st.integers(1, 40),
    bit=st.integers(0, 1),
    epr=st.booleans(),
    a0=st.tuples(_angle_theta, _angle_phi),
    a1=st.tuples(_angle_theta, _angle_phi),
    steer=st.tuples(_angle_theta, _angle_phi),
)
def test_each_trial_draws_its_derive_rng_stream(
    q, seed, first, trials, rounds, bit, epr, a0, a1, steer
):
    config = cfg(q, rounds, seed=seed)
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, ProjectiveBasis(*steer))
    else:
        scenario = HonestAlice(bit=bit)
    session = protocol._prepare([config], scenario)
    sifted_counts, match_counts = session.counts(0, range(first, first + trials))
    assert sifted_counts.dtype == match_counts.dtype == np.int64
    for i, t in enumerate(range(first, first + trials)):
        classes = _replay(q, scenario, seed, t, rounds)
        assert session.transcript(0, t).classes.tolist() == classes.tolist()
        sifted = classes >> 2 == bit
        matched = sifted & ((classes >> 1) & 1 == classes & 1)
        assert (sifted_counts[i], match_counts[i]) == (np.count_nonzero(sifted),
                                                        np.count_nonzero(matched))


@pytest.mark.parametrize("start, stop", [(1, 2), (5, 64), (63, 65), (60, 130), (64, 200),
                                         (100, 129)])
@pytest.mark.parametrize("scenario", [HonestAlice(bit=1), EprAlice(_GENERIC, 0, DIAGONAL)],
                         ids=["honest", "generic"])
def test_counts_from_mid_block_are_a_slice_of_counts_from_trial_0(scenario, start, stop):
    # a block is drawn from its first row whatever trial a range starts at,
    # so each trial's counts do not depend on where its range starts
    configs = [cfg(q, 50, seed=7) for q in (0.3, 0.8)]
    whole, part = (protocol._prepare(configs, scenario) for _ in range(2))
    for i in range(len(configs)):
        assert ([c[start:].tolist() for c in whole.counts(i, range(stop))]
                == [c.tolist() for c in part.counts(i, range(start, stop))])


@pytest.mark.parametrize("scenario", [
    HonestAlice(bit=0), HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL),
    EprAlice(_GENERIC, 0, ProjectiveBasis(0.9, 2.1)), EprAlice(CheatStrategy([1, 0], [1, 0]), 1),
], ids=["honest-0", "honest-1", "bell-diagonal", "generic", "product"])
def test_trial_0_draws_the_streams_of_its_own_key(scenario):
    # trial 0 is row 0 of block 0, keyed (seed, 0), so it draws what it drew
    # when each trial had a key of its own: one multinomial at counter 0,
    # each group's binomial in turn at counter (0, 0, 0, 2), sifted groups
    # first, and the permutation at counter (0, 0, 0, 1)
    bit = scenario.bit if isinstance(scenario, HonestAlice) else scenario.target_bit
    for q, seed, rounds in ((0.0, 3, 40), (0.45, 2**64 - 1, 300), (1.0, 17, 7)):
        receiver, law = _session_laws(q, scenario)
        present = receiver > 0
        c = np.zeros(4, dtype=np.int64)
        c[present] = derive_rng(seed, 0).multinomial(
            rounds, receiver[present] / receiver[present].sum())
        variants, ones = _substream(seed, 0, 2), np.zeros(4, dtype=np.int64)
        for g in (2 * bit, 2 * bit + 1, 2 - 2 * bit, 3 - 2 * bit):
            ones[g] = variants.binomial(c[g], law[g, 1] / law[g].sum()) if present[g] else 0
        classes = np.repeat(np.arange(8), np.stack([c - ones, ones], axis=1).ravel())
        classes = classes[_substream(seed, 0, 1).permutation(rounds)]
        config = cfg(q, rounds, seed=seed)
        assert run_session(config, scenario)[0].classes.tolist() == classes.tolist()
        sifted = classes >> 2 == bit
        matched = sifted & ((classes >> 1) & 1 == classes & 1)
        sifted_counts, match_counts = sweep_counts(config, scenario, 70)
        assert (sifted_counts[0], match_counts[0]) == (
            np.count_nonzero(sifted), np.count_nonzero(matched))


def test_each_call_on_a_batch_draws_what_a_fresh_batch_draws():
    # a batch's calls share one generator, and a transcript leaves it at its
    # shuffle's counter (0, 0, 0, 1); each call re-keys, so it draws what it
    # would as a batch's first call
    scenario = EprAlice(bell_strategy(), 1, DIAGONAL)
    configs = [cfg(q, rounds, seed=seed) for q, rounds, seed in ((0.2, 30, 4), (0.5, 40, 9),
                                                                 (0.9, 50, 2))]
    session = protocol._prepare(configs, scenario)
    assert session.transcript(2, 5) == protocol._prepare(configs, scenario).transcript(2, 5)
    counts = session.counts(0, range(4))
    fresh = protocol._prepare(configs, scenario).counts(0, range(4))
    assert [c.tolist() for c in counts] == [c.tolist() for c in fresh]
    assert session.transcript(0, 1) == protocol._prepare(configs, scenario).transcript(0, 1)


@pytest.mark.parametrize("scenario", [
    lambda: HonestAlice(bit=1),
    lambda: EprAlice(bell_strategy(), 1, DIAGONAL),
], ids=["honest", "epr"])
def test_epr_prepare_validates_two_density_matrices(monkeypatch, scenario):
    # of the two density matrices a preparation meets, the pair and the stack
    # of its lifts, none is validated. The honest pair, of exact entries, is
    # stored by states._unchecked and the cheater's pure pair formed by
    # states._projector, neither with an eigensolve, and no lift is
    # validated; the round law is read off the sender's operators, with no
    # normalized conditional state
    prepared = _count_prepare_eigensolves(monkeypatch)
    constructed = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        constructed.append(self)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    for configs in ([cfg(0.7, 10)], [cfg(q, 10) for q in _SWEEP_QS]):
        prepared.clear()
        constructed.clear()
        sc = scenario()
        protocol._prepare(configs, sc)
        protocol._prepare(configs, sc)
        assert prepared == [[], []]
        assert constructed == []


@pytest.mark.parametrize("theta", [1e-5, 1e-4, 1e-3])
def test_monte_carlo_runs_with_a_receiver_outcome_of_tiny_probability(theta):
    # a1 close to a0 = |0>: at q = 1 the receiver's diagonal outcome 1 has
    # probability about theta**2 / 16, whose branch divided by it amplifies
    # roundoff past TOL
    strategy = CheatStrategy(np.array([1.0, 0.0]), ProjectiveBasis(theta, 0.0).vectors()[0])
    scenario = EprAlice(strategy, 1, ProjectiveBasis(1.5, 0.0))
    summary = next(sweep([cfg(1.0, 200, seed=4)], scenario, trials=3))
    assert summary.trials == 3 and summary.no_sifted_trials == 0
    assert min(sweep_counts(cfg(1.0, 200, seed=4), scenario, 3)[0]) > 0


def test_round_law_of_a_receiver_outcome_of_tiny_probability():
    # at q = 1 the pair is |a0>|0> + |a1>|1> over sqrt(2), so the receiver's
    # diagonal outcome 1 leaves the sender (a0 - a1) / 2 and
    # law[1, 1, v] = |<s_v|a0 - a1>|^2 / 8, about 1.5e-12 here
    a0, a1 = np.array([1.0, 0.0]), ProjectiveBasis(1e-5, 0.0).vectors()[0]
    steer = ProjectiveBasis(1.5, 0.0)
    joint = lift_apply(DepolarizingChannel(1.0), cheat_state(a0, a1))
    law = lifted_round_law(joint, steer)[1].reshape(2, 2, 2)
    for v, s in enumerate(steer.vectors()):
        assert abs(law[1, 1, v] - abs(s.conj() @ (a0 - a1)) ** 2 / 8) <= 1e-16
    assert law[1, 1].min() > OUTCOME_EPS
    # at a1 = (1e-7, 0) the closed form is about 1.5e-16: impossible, so exactly 0
    a1 = ProjectiveBasis(1e-7, 0.0).vectors()[0]
    joint = lift_apply(DepolarizingChannel(1.0), cheat_state(a0, a1))
    assert not lifted_round_law(joint, steer)[1].reshape(2, 2, 2)[1, 1].any()


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.0, 1.0),
    bit=st.integers(0, 1),
    epr=st.booleans(),
    a0=st.tuples(_angle_theta, _angle_phi),
    a1=st.tuples(_angle_theta, _angle_phi),
    steer=st.tuples(_angle_theta, _angle_phi),
)
def test_round_law_matches_the_reference_law(q, bit, epr, a0, a1, steer):
    steer_basis = ProjectiveBasis(*steer) if epr else RECTILINEAR
    if epr:
        strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
        scenario = EprAlice(strategy, bit, steer_basis)
    else:
        scenario = HonestAlice(bit=bit)
    joint = lift_apply(DepolarizingChannel(q), scenario.pair)
    # an entry within roundoff of OUTCOME_EPS may be zeroed on one side only
    law = lifted_round_law(joint, steer_basis)[1]
    assert np.allclose(law, _reference_law(q, scenario).ravel(), rtol=0, atol=2 * OUTCOME_EPS)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.0, 1.0),
    a0=st.tuples(_angle_theta, _angle_phi),
    a1=st.tuples(_angle_theta, _angle_phi),
    steer=st.tuples(_angle_theta, _angle_phi),
)
def test_receiver_law_does_not_depend_on_the_steering_basis(q, a0, a1, steer):
    # bit for bit, so that no steering basis moves the receiver's counts; a
    # sum of the steered law would differ by ulps from one basis to another
    strategy = CheatStrategy(*(ProjectiveBasis(*a).vectors()[0] for a in (a0, a1)))
    joint = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
    r1, law1 = lifted_round_law(joint, RECTILINEAR)
    r2, law2 = lifted_round_law(joint, ProjectiveBasis(*steer))
    # an outcome below 2 OUTCOME_EPS can have both of its classes zeroed in one basis only
    kept = law1.reshape(4, 2).any(axis=1) & law2.reshape(4, 2).any(axis=1)
    assert np.array_equal(r1[kept], r2[kept])
    reference = _reference_receiver_law(q, EprAlice(strategy))
    assert np.allclose(r1[kept], reference[kept], rtol=0, atol=1e-15)
    assert not r1[~law1.reshape(4, 2).any(axis=1)].any()


def _class_counts(config, scenario):
    t, _ = run_session(config, scenario)
    return np.bincount(t.classes, minlength=8)


@pytest.mark.parametrize(
    "q, scenario",
    [(0.6, EprAlice(bell_strategy(), 1, DIAGONAL)), (0.6, HonestAlice(bit=1))],
    ids=["bell-diagonal", "honest-1"],
)
def test_class_frequencies_follow_the_round_law(q, scenario):
    n = 200_000
    law = _reference_law(q, scenario).ravel()
    counts = _class_counts(cfg(q, n, seed=21), scenario)
    assert np.all(np.abs(counts - n * law) <= 5 * np.sqrt(n * law * (1 - law)))


_ZERO, _ONE = np.eye(2)


@pytest.mark.parametrize(
    "a0, a1, steer, q, zero",
    [
        (_ONE, _ONE, RECTILINEAR, 0.0, [0, 2, 4, 6]),
        (_ONE, _ONE, RECTILINEAR, 0.5, [0, 2, 4, 6]),
        (_ONE, _ONE, RECTILINEAR, 1.0, [0, 2, 4, 6, 7]),
        (_ZERO, _ZERO, RECTILINEAR, 1.0, [1, 3, 5, 6, 7]),
        (_ZERO, ProjectiveBasis(8e-6, 0.0).vectors()[0], ProjectiveBasis(1.5, 0.0), 1.0, [6]),
        (_ZERO, ProjectiveBasis(7.2e-6, 0.0).vectors()[0], DIAGONAL, 1.0, [6, 7]),
    ],
    ids=["leading-q0", "leading-q0.5", "leading-q1", "trailing", "zeroed-beside-kept",
         "both-zeroed"],
)
def test_a_class_of_law_zero_is_never_drawn(monkeypatch, a0, a1, steer, q, zero):
    # a0 = a1 leaves the sender a pure |a0> whatever the receiver sees, so
    # steering in RECTILINEAR announces a0 alone; at q = 1 the receiver's
    # |+> never gives the diagonal outcome 1 (classes 6 and 7). With a1 near
    # a0 = |0> that outcome has probability theta**2 / 32: at theta = 8e-6
    # the steering splits its 2.0e-12 into classes of 9.3e-13 (law 0, below
    # OUTCOME_EPS) and 1.07e-12, and at theta = 7.2e-6 its 1.6e-12 into two
    # classes of 8.1e-13, so the outcome itself is impossible
    scenario = EprAlice(CheatStrategy(a0, a1), 0, steer)
    joint = lift_apply(DepolarizingChannel(q), cheat_state(a0, a1))
    law = lifted_round_law(joint, steer)[1]
    assert np.flatnonzero(law == 0).tolist() == zero
    assert not _class_counts(cfg(q, 200_000, seed=22), scenario)[zero].any()
    # draws on every edge of each draw's support: all rounds on one receiver
    # outcome in turn, and each group's variant-1 count at its least or its
    # greatest possible value; a zero class is impossible only if no draw
    # can reach it
    class Edges:
        def __init__(self, bitgen):
            self.bit_generator = bitgen

        def multinomial(self, n, pvals, size):
            return np.tile(n * np.eye(len(pvals), dtype=np.int64)[corner % len(pvals)], (size, 1))

        def binomial(self, n, p):
            assert np.all((0 <= p) & (p <= 1))
            return np.where(p > 0 if high else p == 1, n, 0)

        def shuffle(self, x):
            pass

    monkeypatch.setattr(np.random, "Generator", Edges)
    for corner in range(4):
        for high in (False, True):
            t = protocol._prepare([cfg(q, 10)], scenario).transcript(0, 0)
            assert not np.isin(t.classes, zero).any()


@pytest.mark.parametrize(
    "scenario", [HonestAlice(bit=1), EprAlice(bell_strategy(), 1, DIAGONAL)],
    ids=["honest-1", "bell-diagonal"],
)
def test_monte_carlo_pooled_counts_follow_the_exact_law(scenario):
    # a trial's sifted and matched counts are binomial in its rounds, so the
    # totals over all trials are binomial in all of them
    q, rounds, trials = 0.6, 50, 400
    law = _reference_law(q, scenario)
    sifted_counts, match_counts = sweep_counts(cfg(q, rounds, seed=23), scenario, trials)
    total = rounds * trials
    bit = scenario.bit if isinstance(scenario, HonestAlice) else scenario.target_bit
    for count, p in (
        (sum(sifted_counts), law[bit].sum()),
        (sum(match_counts), law[bit, 0, 0] + law[bit, 1, 1]),
    ):
        assert abs(count - total * p) <= 5 * math.sqrt(total * p * (1 - p))


def test_first_and_last_rounds_follow_the_round_law():
    # every order of a trial's rounds is equally likely, so its first and
    # its last round are each one draw from the round law; laid out in
    # class order, round 0 would hold the lowest class drawn
    q, scenario, trials = 0.6, HonestAlice(bit=1), 2000
    law = _reference_law(q, scenario).ravel()
    first, last = np.zeros(8), np.zeros(8)
    for t in range(trials):
        transcript, _ = run_session(cfg(q, 20, seed=24), scenario, t)
        first[transcript.classes[0]] += 1
        last[transcript.classes[-1]] += 1
    bound = 5 * np.sqrt(trials * law * (1 - law))
    assert np.all(np.abs(first - trials * law) <= bound)
    assert np.all(np.abs(last - trials * law) <= bound)
