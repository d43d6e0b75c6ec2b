"""Commitment sessions: honest sender, entangling cheater, noisy receiver.

A session runs the two-phase commitment over ``rounds`` qubits. In the
commit phase the sender transmits one carrier state per round and the
receiver immediately measures it in a random basis after the
depolarizing step. In the open phase the sender announces the bit and
the per-round variants; the receiver keeps the rounds whose measurement
basis matches the announced bit's encoding basis (the sifted rounds) and
accepts when the fraction of variant matches clears a binomial band
below the honest expectation (1+q)/2.

A cheating sender commits halves of entangled pairs instead and delays
her variant announcements until she has measured her retained halves.
She is committed to no bit, so her scenario names only the bit she opens.
An honest sender is a pair too: sending carrier v is holding a register
|v> beside it and reading the register after the receiver has measured
(remote state preparation), so both senders run one session path.

A round is one of 8 classes 4b + 2o + v (receiver basis b and outcome
o, announced variant v), and a transcript, the record of one opened
session, is the opened bit and a read-only int8 column of each round's
class. The classes are drawn from one law: 1/2 <s_v|x|s_v> of the
sender's operator x = tr_B[rho (I x E)] for receiver projector E
(``states._sender_operator``, as in ``security``) and steering vector
s_v, so no conditional state or probability is formed. That law
depends only on q and the scenario, and sessions are prepared in
batches: a batch of configurations of one scenario (one per q of a
sweep) is prepared once, with one lift of the pair over the batch's q
vector, one validation of the stack of post-channel pairs, one round law
evaluation, one PPT test and one concurrence over the stack, and one
Philox generator, and is then sampled config by config and trial by
trial. The committed pair depends on the scenario alone, so a scenario
builds it once (its ``pair``) for every q it is run at. ``sweep`` draws
each config's sifted and matched counts as two columns and decides every
trial at once by ``verify``'s rule, building no transcript and no
per-trial report, and yields its summaries lazily; ``monte_carlo`` is
``sweep`` of one config, and ``run_session`` samples one trial's
transcript of a batch of one config and verifies it. Trials run in one
thread.

All randomness flows from the session seed through a counter-based
generator (Philox); a given ``(config, scenario, trial)`` always
reproduces the same transcript. Trial t's stream is
``derive_rng(config.seed, t)``: the Philox stream of the 128-bit key
(seed, t), from counter 0. Philox keeps streams of distinct keys
independent, so no key is hashed, and a prepared session re-keys one
generator per trial instead of building one. A trial draws how many of
its rounds fall in each class, and a transcript then puts the rounds in
one uniformly random order (``_prepare`` gives the draws). The rounds
are independent and identically distributed, so this is
distribution-identical to measuring each round's state individually.
The receiver's basis choice is a fair coin, and measurements on the two
halves commute, so the sender's steering outcome, which she announces as
her variant, can be drawn jointly with his.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .channels import _depolarizing_lift
from .entanglement import concurrence
from .states import (
    OUTCOME_EPS,
    RECTILINEAR,
    CheatStrategy,
    DensityMatrix,
    ProjectiveBasis,
    _check_bit,
    _check_int,
    _check_q,
    _check_real,
    _check_type,
    _check_word,
    _density_matrices,
    _sender_operator,
    bb84_projector,
    cheat_state,
)


@dataclass(frozen=True)
class ProtocolConfig:
    q: float
    rounds: int
    accept_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _check_q(self.q)
        _check_int("rounds", self.rounds)
        _check_word("seed", self.seed)
        _check_real("accept_sigma", self.accept_sigma)
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.rounds >= 2**63:  # numpy draws a count as an int64
            raise ValueError(f"rounds must be < 2**63, got {self.rounds}")
        if not (math.isfinite(self.accept_sigma) and self.accept_sigma >= 0):
            raise ValueError(f"accept_sigma must be finite and >= 0, got {self.accept_sigma}")


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one opened session: a read-only int8 column of round classes.

    Round i's class is ``classes[i]`` = 4b + 2o + v: the receiver measured
    in basis ``encoding_basis(b)`` and saw outcome o, and the sender
    announced variant v, her steering outcome, which for an honest sender
    is the carrier she sent. Equality compares every field by value.
    """

    config: ProtocolConfig
    opened_bit: int
    classes: np.ndarray

    def __post_init__(self):
        _check_type("config", self.config, ProtocolConfig)
        _check_bit("opened_bit", self.opened_bit)
        classes = np.asarray(self.classes)
        if classes.shape != (self.config.rounds,):
            raise ValueError(f"classes has shape {classes.shape} for {self.config.rounds} rounds")
        if classes.dtype.kind not in "biu" or np.any((classes < 0) | (classes > 7)):
            raise ValueError("classes must hold integers 0 to 7 or bools")
        classes = classes.astype(np.int8)
        classes.setflags(write=False)
        object.__setattr__(self, "classes", classes)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return (self.config == other.config and self.opened_bit == other.opened_bit
                and np.array_equal(self.classes, other.classes))


@dataclass(frozen=True)
class VerificationReport:
    sifted_count: int
    match_count: int
    match_fraction: float
    expected_fraction: float
    threshold: float
    accepted: bool
    no_sifted_rounds: bool = False


def derive_rng(seed: int, trial: int) -> np.random.Generator:
    """Trial ``trial``'s generator: Philox keyed by the 128-bit key (seed, trial), counter 0.

    Key word 0 is the seed and word 1 the trial, so every (seed, trial)
    pair is its own Philox stream. Trial t of a session draws
    ``derive_rng(config.seed, t)``; sessions re-key one generator to that
    key instead of calling this. The key is a uint64 array: a list of
    Python ints would convert through float64 once a word is >= 2**63.
    """
    _check_word("seed", seed)
    _check_word("trial", trial)
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


#: The receiver's effects: E[b, o] projects on outcome o of basis b.
_EFFECTS = np.array([[bb84_projector(b, o) for o in (0, 1)] for b in (0, 1)])


def _round_law(joint, steer_basis: ProjectiveBasis) -> tuple[np.ndarray, np.ndarray]:
    """The receiver's law r[2b + o] and the round law law[4b + 2o + v] of a post-channel pair.

    With x[b, o] the sender's operators and s_v her steering vectors,
    law[4b + 2o + v] = 1/2 <s_v|x[b, o]|s_v>, 0 below ``OUTCOME_EPS``, and
    r[2b + o] = 1/2 tr x[b, o], 0 where both of its classes have law 0.
    r is read off the traces, not summed from the law: those sums differ
    by ulps from one steering basis to another. A stack of pairs of shape
    (Q, 4, 4) gets laws of shape (Q, 4) and (Q, 8).
    """
    x = _sender_operator(joint, _EFFECTS)  # x[..., b, o]
    lead = x.shape[:-4]
    s = np.array(steer_basis.vectors())
    law = np.einsum("vi,...boij,vj->...bov", s.conj(), x, s).real.reshape(lead + (8,)) / 2
    law[law < OUTCOME_EPS] = 0.0
    receiver = np.einsum("...boii->...bo", x).real.reshape(lead + (4,)) / 2
    receiver[~law.reshape(lead + (4, 2)).any(axis=-1)] = 0.0
    return receiver, law


def verify(transcript: Transcript) -> VerificationReport:
    """Receiver's accept/reject decision over the sifted rounds.

    Sifted rounds are those measured in the opened bit t's encoding basis,
    classes 4t to 4t + 3, of which 4t and 4t + 3 match (o = v). The
    decision is ``_verdict``'s for the session's one pair of counts.
    """
    _check_type("transcript", transcript, Transcript)
    c = np.bincount(transcript.classes, minlength=8)
    t = 4 * transcript.opened_bit
    sifted, matched = int(c[t:t + 4].sum()), int(c[t] + c[t + 3])
    expected, (fraction,), (threshold,), (accepted,) = _verdict(
        transcript.config, np.array([sifted]), np.array([matched]))
    return VerificationReport(sifted, matched, float(fraction), expected, float(threshold),
                              bool(accepted), no_sifted_rounds=sifted == 0)


def _verdict(
    config: ProtocolConfig, sifted: np.ndarray, matched: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The receiver's rule over int64 columns of trials' sifted and matched counts.

    Returns the honest expectation (1+q)/2 per sifted round (the carrier
    survives the channel with probability q, else the outcome is a fair
    coin) and, per trial, the match fraction, the threshold, which sits
    ``accept_sigma`` binomial standard deviations below the expectation,
    and whether the fraction reaches it. A trial with no sifted rounds has
    no evidence: its fraction is 0 and its threshold 1, so it is rejected.
    """
    expected = (1.0 + config.q) / 2.0
    some = sifted > 0
    n = np.where(some, sifted, 1)  # a trial with no sifted rounds has none matched either
    # divided as Python ints, so each quotient is rounded once; in float64
    # a count past 2**53 would be rounded before the division
    fraction = (matched.astype(object) / n.astype(object)).astype(float)
    threshold = np.where(
        some, expected - config.accept_sigma * np.sqrt(expected * (1.0 - expected) / n), 1.0)
    return expected, fraction, threshold, fraction >= threshold


@dataclass(frozen=True)
class HonestAlice:
    bit: int

    def __post_init__(self):
        _check_bit("bit", self.bit)

    @functools.cached_property
    def pair(self) -> DensityMatrix:
        """The classical-quantum pair 1/2 sum_v |v><v| x P_v: a register |v> beside carrier v."""
        return DensityMatrix(sum(np.kron(bb84_projector(0, v), bb84_projector(self.bit, v))
                                 for v in (0, 1)) / 2)


@dataclass(frozen=True)
class EprAlice:
    strategy: CheatStrategy
    target_bit: int = 0
    steer_basis: ProjectiveBasis = RECTILINEAR

    def __post_init__(self):
        _check_type("strategy", self.strategy, CheatStrategy)
        _check_type("steer_basis", self.steer_basis, ProjectiveBasis)
        _check_bit("target_bit", self.target_bit)

    @functools.cached_property
    def pair(self) -> DensityMatrix:
        """The committed pair |a0>|0> + |a1>|1> of ``strategy``, normalized."""
        return cheat_state(self.strategy.a0, self.strategy.a1)


Scenario = HonestAlice | EprAlice


#: Sessions draw from the laws rounded to this grid, which is below ``OUTCOME_EPS``.
#: A draw can turn on the last bit of its probability (numpy's binomial branches
#: at p = 1/2), so roundoff in the laws must not reach it.
_LAW_GRID = 2.0**-40

#: Philox counters of a trial's two substreams, both under the key (seed, t):
#: its class counts, then the arrangement of its rounds.
_COUNTS = (0, 0, 0, 0)
_ARRANGEMENT = (0, 0, 0, 1)


def _prepare(
    configs: Sequence[ProtocolConfig], scenario: Scenario
) -> tuple[np.ndarray, Callable[[int], tuple[Callable, Callable]]]:
    """Build a scenario's post-channel pairs and round laws for a batch of configurations at once.

    Both senders are pairs steered at opening, and the scenario builds its
    ``pair`` once however often it is prepared. An honest sender of carrier
    v holds a register |v> beside it and reads the register once the
    receiver has measured, so her pair is the classical-quantum state
    1/2 sum_v |v><v| x P_v, steered in ``RECTILINEAR``. The batch lifts the
    pair to every config's q in one broadcast, validates the (Q, 4, 4)
    stack of post-channel pairs in one call and reads every round law off
    it in one contraction. Returns the stack and ``session``: given config
    i, its two samplers, which are: given a range of trials, their sifted
    and matched counts as two int64 columns; given trial t, its transcript.

    A trial draws class counts, not rounds, so its cost does not grow with
    ``config.rounds`` until a transcript lays the rounds out. The batch
    holds one Philox generator; a trial of config i re-keys it to the key
    (config.seed, t) at counter 0 with an empty buffer, the state
    ``derive_rng(config.seed, t)`` starts in, and draws: the receiver's
    count of each (b, o), one multinomial over the outcomes of positive
    receiver law r; then the count of variant 1 in each (b, o) group, one
    binomial with P(v = 1 | b, o) per group, the sifted groups (b the
    opened bit) first, o = 0 before o = 1. The counts sampler stops
    there. The transcript sampler splits the other two groups likewise,
    lays the classes 4b + 2o + v out in sorted order, re-keys to the same
    key at counter (0, 0, 0, 1) and shuffles them: one uniform permutation
    of the rounds, which is the transcript's column. Neither the
    receiver's counts nor the permutation depend on the steering basis or
    the opened bit, so neither does any round's receiver part 4b + 2o.
    """
    for config in configs:
        _check_type("config", config, ProtocolConfig)
    if isinstance(scenario, HonestAlice):
        opened_bit, steer_basis = scenario.bit, RECTILINEAR
    elif isinstance(scenario, EprAlice):
        opened_bit, steer_basis = scenario.target_bit, scenario.steer_basis
    else:
        raise TypeError(f"not a scenario: {scenario!r}")
    joints = _density_matrices(_depolarizing_lift([c.q for c in configs], scenario.pair))
    receivers, laws = (np.rint(a / _LAW_GRID) * _LAW_GRID for a in _round_law(joints, steer_basis))
    pairs = laws.reshape(-1, 4, 2)
    # P(v = 1 | b, o); exactly 0 or 1 where one class of the group has law 0
    p_ones = np.divide(pairs[..., 1], pairs.sum(axis=-1), out=np.zeros(receivers.shape),
                       where=receivers > 0)
    g0, g1 = 2 * opened_bit, 2 * opened_bit + 1  # the sifted groups
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    multinomial, binomial = rng.multinomial, rng.binomial
    state = {"bit_generator": "Philox", "state": {"counter": _COUNTS, "key": (0, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keyed = state["state"]

    def session(i: int):
        config, receiver, p_one = configs[i], receivers[i], p_ones[i].tolist()
        n, seed = config.rounds, config.seed
        outcomes = np.flatnonzero(receiver)  # an outcome of law 0 is left out, so never drawn
        pvals = receiver[outcomes] / receiver[outcomes].sum()
        # where outcome g sits in a multinomial draw; a left-out one reads a 0 appended to it
        at = [outcomes.tolist().index(g) if receiver[g] else outcomes.size for g in range(4)]

        def rekey(t: int, counter: tuple) -> None:
            keyed["counter"], keyed["key"] = counter, (seed, t)
            bitgen.state = state

        def receiver_counts(t: int) -> list[int]:
            """Trial t's receiver counts: the count of outcome 2b + o is at index at[2b + o]."""
            rekey(t, _COUNTS)
            return multinomial(n, pvals).tolist() + [0]

        def counts(trials: range) -> tuple[np.ndarray, np.ndarray]:
            sifted, matched = [], []
            for t in trials:
                drawn = receiver_counts(t)
                c0, c1 = drawn[at[g0]], drawn[at[g1]]
                sifted.append(c0 + c1)
                matched.append(c0 - binomial(c0, p_one[g0]) + binomial(c1, p_one[g1]))  # g0's first
            return np.array(sifted, dtype=np.int64), np.array(matched, dtype=np.int64)

        def transcript(t: int) -> Transcript:
            drawn = receiver_counts(t)
            c = [drawn[j] for j in at]
            ones = {g: binomial(c[g], p_one[g]) for g in (g0, g1, 2 - g0, 3 - g0)}
            sizes = [k for g in range(4) for k in (c[g] - ones[g], ones[g])]
            try:
                classes = np.repeat(np.arange(8), sizes)
            # numpy refuses a size past its limit with a ValueError
            except (MemoryError, ValueError):
                raise MemoryError(f"{n} rounds are too many to lay out as a transcript") from None
            rekey(t, _ARRANGEMENT)
            rng.shuffle(classes)  # in int64: numpy shuffles 8-byte items faster than 1-byte ones
            return Transcript(config, opened_bit, classes)

        return counts, transcript

    return joints, session


def run_session(
    config: ProtocolConfig, scenario: Scenario, trial: int = 0
) -> tuple[Transcript, VerificationReport]:
    """Full commit, open, verify pipeline; deterministic given (config, scenario, trial).

    The transcript's column holds the class counts that ``monte_carlo``
    draws for the same trial, one class per round in one uniformly random
    order; laying them out makes its cost grow with ``config.rounds``, and
    raises MemoryError for more rounds than the host can hold.
    """
    _check_word("trial", trial)
    _, session = _prepare([config], scenario)
    transcript = session(0)[1](trial)  # the one config's transcript sampler
    return transcript, verify(transcript)


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Statistics over the trials of one configuration.

    ``sifted_counts[t]`` and ``match_counts[t]`` are trial t's sifted and
    matched round counts, read-only int64 columns, as ``verify`` counts
    them in ``run_session(config, scenario, t)``'s transcript. The
    match-fraction mean and std run over the trials that had sifted
    rounds; ``no_sifted_trials`` counts the others, and with none left
    both are 0.0. Separability (1 iff the concurrence is 0.0) and
    concurrence are those of the post-channel pair, the same in every
    trial; an honest sender's classical-quantum pair reports 1 and 0.
    Equality compares every field by value.
    """

    trials: int
    match_fraction_mean: float
    match_fraction_std: float
    acceptance_rate: float
    separable_fraction: float
    mean_concurrence: float
    no_sifted_trials: int
    sifted_counts: np.ndarray
    match_counts: np.ndarray

    def __post_init__(self):
        for name in ("sifted_counts", "match_counts"):
            column = np.array(getattr(self, name), dtype=np.int64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, MonteCarloSummary):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def monte_carlo(config: ProtocolConfig, scenario: Scenario, trials: int) -> MonteCarloSummary:
    """Repeat a session over trial-indexed seed streams and summarize: ``sweep`` of one config.

    Trial t uses the stream ``derive_rng(config.seed, t)``, so results do
    not depend on execution order.
    """
    return next(sweep([config], scenario, trials))


def sweep(
    configs: Iterable[ProtocolConfig], scenario: Scenario, trials: int
) -> Iterator[MonteCarloSummary]:
    """One ``MonteCarloSummary`` per config, in order, each over ``trials`` trials.

    The batch is prepared once, here: one lift of the scenario's pair to
    every q, one validation of the stack of post-channel pairs, one round
    law evaluation, one Philox generator, and one PPT test and one
    Wootters evaluation over the stack. The summaries are then drawn
    lazily, one config at a time, so the sweep holds one config's count
    columns at a time. Trials run in one thread, and each draws only its
    sifted groups' counts, so its cost does not grow with
    ``config.rounds``. A config's counts come as two columns, and
    ``_verdict`` decides all its trials at once: trial t's decision is
    ``verify``'s of the transcript ``run_session(config, scenario, t)``
    returns. ``concurrence`` is 0.0 exactly on the states the PPT test
    accepts, so its one PPT test also decides separability.
    """
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    configs = tuple(configs)
    joints, session = _prepare(configs, scenario)
    return _summaries(configs, trials, concurrence(joints).tolist(), session)


def _summaries(configs, trials, concurrences, session) -> Iterator[MonteCarloSummary]:
    """A prepared batch's summaries, each config's trials drawn as its summary is asked for."""
    for i, (config, mean_concurrence) in enumerate(zip(configs, concurrences)):
        sifted, matched = session(i)[0](range(trials))
        _, fraction, _, accepted = _verdict(config, sifted, matched)
        fractions = fraction[sifted > 0]
        yield MonteCarloSummary(
            trials=trials,
            match_fraction_mean=float(fractions.mean()) if fractions.size else 0.0,
            match_fraction_std=float(fractions.std()) if fractions.size else 0.0,
            acceptance_rate=int(np.count_nonzero(accepted)) / trials,
            separable_fraction=1.0 if mean_concurrence == 0.0 else 0.0,
            mean_concurrence=mean_concurrence,
            no_sifted_trials=trials - fractions.size,
            sifted_counts=sifted,
            match_counts=matched,
        )
