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
sender's operator x = tr_B[rho (I x eps_q(E))] of the noiseless pair rho
(``states._sender_operator``) and steering vector s_v, for the
receiver's projector E mapped by his channel eps_q. The channel is read
on his effects, as in ``security``: eps_q is self-adjoint, so this is
the operator of E on the post-channel pair, which is never formed, and
no conditional state or probability is either. That law
depends only on q and the scenario, so the configurations of one
scenario, one per q of a sweep, are prepared at once as one batch
(``_Session``) and then sampled config by config and trial by trial.
``sweep`` draws each config's sifted and matched counts as two columns
and decides every trial at once by ``verify``'s rule, building no
transcript and no per-trial report; ``monte_carlo`` is ``sweep`` of one
config, and ``run_session`` draws one trial's transcript of a batch of
one config and verifies it.

All randomness flows from the session seed through a counter-based
generator (Philox); a given ``(config, scenario, trial)`` always
reproduces the same transcript. Trial t draws from three substreams of
the 128-bit key (seed, t): the receiver's (b, o) counts from counter 0,
which is ``derive_rng(config.seed, t)``; the sender's variant splits from
counter (0, 0, 0, 2); and the order of the rounds from counter
(0, 0, 0, 1). Philox keeps streams of distinct keys and counters this far
apart independent, so no key is hashed, and a prepared session re-keys
one generator per draw instead of building one. A trial draws how many
of its rounds fall in each class, and a transcript then puts the rounds
in one uniformly random order. The rounds are independent and
identically distributed, so this is distribution-identical to measuring
each round's state individually. The receiver's basis choice is a fair
coin, and measurements on the two halves commute, so he can be drawn
first, from his own substream, and the sender's steering outcome, which
she announces as her variant, drawn given his outcome. His counts then
depend on the seed, the round count and his law r alone: consecutive
configs that share the three share one draw of them per trial, which is
a whole q grid for the honest sender and the Bell cheater, whose r is
1/4 on every (b, o) at every q.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .channels import _depolarize, _depolarizing_lift
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
    pair is its own Philox stream. Trial t of a session draws the
    receiver's counts from ``derive_rng(config.seed, t)`` and its other
    two substreams from counters (0, 0, 0, 1) and (0, 0, 0, 2) of the same
    key; sessions re-key one generator instead of calling this. The key is
    a uint64 array: a list of Python ints would convert through float64
    once a word is >= 2**63.
    """
    _check_word("seed", seed)
    _check_word("trial", trial)
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


#: The receiver's effects: E[b, o] projects on outcome o of basis b.
_EFFECTS = np.array([[bb84_projector(b, o) for o in (0, 1)] for b in (0, 1)])


def _round_law(x: np.ndarray, steer_basis: ProjectiveBasis) -> tuple[np.ndarray, np.ndarray]:
    """The receiver's law r[2b + o] and the round law law[4b + 2o + v] of the sender's operators.

    With x[b, o] the sender's operators of the receiver's effects, of
    shape (2, 2, 2, 2), and s_v her steering vectors,
    law[4b + 2o + v] = 1/2 <s_v|x[b, o]|s_v>, 0 below ``OUTCOME_EPS``, and
    r[2b + o] = 1/2 tr x[b, o], 0 where both of its classes have law 0.
    r is read off the traces, not summed from the law: those sums differ
    by ulps from one steering basis to another. A stack of operators of
    shape (Q, 2, 2, 2, 2) gets laws of shape (Q, 4) and (Q, 8).
    """
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

#: Philox counters of a trial's three substreams, all under the key (seed, t):
#: the receiver's (b, o) counts, the arrangement of its rounds, and the
#: sender's announced variants.
_RECEIVER = (0, 0, 0, 0)
_ARRANGEMENT = (0, 0, 0, 1)
_VARIANTS = (0, 0, 0, 2)


@dataclass(frozen=True, eq=False)
class _Session:
    """A batch of configurations of one scenario, prepared at once and then sampled trial by trial.

    Both senders are pairs steered at opening, the honest one in
    ``RECTILINEAR``, and a scenario builds its ``pair`` once however often
    it is prepared. ``_prepare`` maps the receiver's effects through the
    channel of every config's q in one broadcast and reads every round law
    off the noiseless pair's sender operators of them in one contraction:
    ``receivers`` holds each config's receiver law r[2b + o] and
    ``p_ones`` its P(v = 1 | b, o), both on the ``_LAW_GRID``.

    A trial draws class counts, not rounds, so its cost does not grow with
    ``config.rounds`` until a transcript lays the rounds out. The batch
    holds one Philox generator, ``bitgen`` under ``rng``, and one state
    dict. Trial t of config i draws from three substreams of the key
    (config.seed, t), re-keying the generator to each counter with an empty
    buffer (counter 0 is the state ``derive_rng(config.seed, t)`` starts in):
    at counter ``_RECEIVER`` the receiver's count of each (b, o), one
    multinomial over the outcomes of positive r (``_receiver_counts``); at
    counter ``_VARIANTS`` the count of variant 1 in each (b, o) group, one
    binomial with P(v = 1 | b, o) each, the sifted groups (b the opened bit)
    first and o = 0 before o = 1. ``counts`` stops after the sifted groups.
    ``transcript`` splits all four groups, lays the classes 4b + 2o + v out
    in sorted order and shuffles them at counter ``_ARRANGEMENT``, one
    uniform permutation of the rounds.

    The receiver's counts depend on (seed, rounds, r) and the trial alone,
    so consecutive configs that share (seed, rounds, r) share one draw of
    them: the honest sender's and the Bell cheater's r is 1/4 on every
    outcome at every q, so a sweep of either draws one multinomial per trial
    for its whole q grid. ``drawn`` keeps the latest such draw only. Neither
    the receiver's counts nor the permutation depend on the steering basis,
    the opened bit or q where r does not, so neither does any round's
    receiver part 4b + 2o.
    """

    configs: tuple[ProtocolConfig, ...]
    opened_bit: int
    receivers: np.ndarray
    p_ones: np.ndarray
    bitgen: np.random.Philox
    rng: np.random.Generator
    state: dict
    drawn: dict

    def _rekey(self, counter: tuple[int, ...], seed: int, t: int) -> None:
        """Point the generator at counter ``counter`` of the key (seed, t), with an empty buffer."""
        keyed = self.state["state"]
        keyed["counter"], keyed["key"] = counter, (seed, t)
        self.bitgen.state = self.state

    def _receiver_counts(self, i: int, trials: range) -> np.ndarray:
        """Config i's trials' receiver counts c[2b + o], as the rows of a (4, T) int64 array."""
        config, receiver = self.configs[i], self.receivers[i]
        key = (config.seed, config.rounds, receiver.tolist(), trials)
        if self.drawn.get("key") != key:
            outcomes = np.flatnonzero(receiver)  # an outcome of law 0 is left out, so never drawn
            pvals = receiver[outcomes] / receiver[outcomes].sum()
            try:
                rows = np.empty((len(trials), outcomes.size), dtype=np.int64)
                counts = np.zeros((4, len(trials)), dtype=np.int64)
            # numpy refuses a size past its limit with a ValueError, and len()
            # a range past 2**63 - 1 with an OverflowError
            except (MemoryError, ValueError, OverflowError):
                raise MemoryError(
                    f"{trials.stop - trials.start} trials are too many to lay out") from None
            multinomial, rekey = self.rng.multinomial, self._rekey
            for j, t in enumerate(trials):
                rekey(_RECEIVER, config.seed, t)
                rows[j] = multinomial(config.rounds, pvals)
            counts[outcomes] = rows.T
            self.drawn.update(key=key, counts=counts)
        return self.drawn["counts"]

    def counts(self, i: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
        """Config i's trials' sifted and matched counts, as two int64 columns."""
        seed, g0 = self.configs[i].seed, 2 * self.opened_bit
        c0, c1 = self._receiver_counts(i, trials)[g0:g0 + 2]
        p0, p1 = self.p_ones[i, g0:g0 + 2].tolist()
        binomial, rekey, ones0, ones1 = self.rng.binomial, self._rekey, [], []
        for t, n0, n1 in zip(trials, c0.tolist(), c1.tolist()):
            rekey(_VARIANTS, seed, t)
            ones0.append(binomial(n0, p0))
            ones1.append(binomial(n1, p1))
        # o = v: variant 0 of outcome 0 and variant 1 of outcome 1
        return c0 + c1, c0 - np.array(ones0, dtype=np.int64) + np.array(ones1, dtype=np.int64)

    def transcript(self, i: int, t: int) -> Transcript:
        """Config i's transcript of trial t."""
        config, p_one, g0 = self.configs[i], self.p_ones[i], 2 * self.opened_bit
        c = self._receiver_counts(i, range(t, t + 1))[:, 0].tolist()
        self._rekey(_VARIANTS, config.seed, t)
        # ones[j] is group g0 ^ j's count of variant 1: the sifted groups first
        ones = [self.rng.binomial(c[g0 ^ j], p_one[g0 ^ j]) for j in range(4)]
        sizes = [k for g in range(4) for k in (c[g] - ones[g ^ g0], ones[g ^ g0])]
        try:
            classes = np.repeat(np.arange(8), sizes)
        # numpy refuses a size past its limit with a ValueError
        except (MemoryError, ValueError):
            raise MemoryError(
                f"{config.rounds} rounds are too many to lay out as a transcript") from None
        self._rekey(_ARRANGEMENT, config.seed, t)
        self.rng.shuffle(classes)  # in int64: numpy shuffles 8-byte items faster than 1-byte ones
        return Transcript(config, self.opened_bit, classes)


def _prepare(configs: Sequence[ProtocolConfig], scenario: Scenario) -> _Session:
    """The scenario's ``_Session`` of ``configs``.

    Config i's sender operators are x_i[b, o] = tr_B[rho (I x eps_q(E[b, o]))]
    of the noiseless pair rho, with the receiver's channel eps_q applied
    to his effects ``_EFFECTS``, all configs' at once; no post-channel
    pair is formed. This is the one place a session meets a channel: any
    other receiver channel would enter as its adjoint on ``_EFFECTS``, and
    a channel on the sender's retained half as that channel applied to x.
    """
    for config in configs:
        _check_type("config", config, ProtocolConfig)
    if isinstance(scenario, HonestAlice):
        opened_bit, steer_basis = scenario.bit, RECTILINEAR
    elif isinstance(scenario, EprAlice):
        opened_bit, steer_basis = scenario.target_bit, scenario.steer_basis
    else:
        raise TypeError(f"not a scenario: {scenario!r}")
    qs = np.array([c.q for c in configs], dtype=float)[:, None, None, None, None]
    x = _sender_operator(scenario.pair, _depolarize(qs, _EFFECTS))
    receivers, laws = (np.rint(a / _LAW_GRID) * _LAW_GRID for a in _round_law(x, steer_basis))
    pairs = laws.reshape(-1, 4, 2)
    # P(v = 1 | b, o); exactly 0 or 1 where one class of the group has law 0
    p_ones = np.divide(pairs[..., 1], pairs.sum(axis=-1), out=np.zeros(receivers.shape),
                       where=receivers > 0)
    bitgen = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": _RECEIVER, "key": (0, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _Session(tuple(configs), opened_bit, receivers, p_ones, bitgen,
                    np.random.Generator(bitgen), state, {})


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
    transcript = _prepare([config], scenario).transcript(0, trial)
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

    Trial t draws from the substreams of the key (config.seed, t), so
    results do not depend on execution order. Raises MemoryError for more
    trials than the host can lay out as a column.
    """
    return next(sweep([config], scenario, trials))


def sweep(
    configs: Iterable[ProtocolConfig], scenario: Scenario, trials: int
) -> Iterator[MonteCarloSummary]:
    """One ``MonteCarloSummary`` per config, in order, each over ``trials`` trials.

    The configs are prepared once, here, as one ``_Session``. The pair
    is lifted here, for the separability and concurrence columns only,
    to every config's q in one broadcast, a (Q, 4, 4) stack that gets one
    PPT test and one Wootters evaluation. The lifts are not validated,
    since no check of ``DensityMatrix(mat)`` could fail on one: the pair
    is either a validated ``DensityMatrix`` (the honest classical-quantum
    pair) or a ``states._projector`` output, within ~1e-15 of an exact
    state; ``ProtocolConfig`` has checked that q lies in [0, 1]; and each
    lift q rho + (1 - q) rho_A x I/2 is a convex combination of two
    states, so it is Hermitian, PSD and of unit trace to within a few
    ulps, far inside ``TOL``.
    The summaries are then drawn lazily, one config at a time, so the
    sweep holds one config's count columns at a time, and a run of
    consecutive configs of one (seed, rounds, r) shares one draw of the
    receiver's counts per trial. Trials run in one thread. A config's
    counts come as two columns, and ``_verdict`` decides all its trials at
    once: trial t's decision is ``verify``'s of the transcript
    ``run_session(config, scenario, t)`` returns.
    ``concurrence`` is 0.0 exactly on the states the PPT test accepts, so
    its one PPT test also decides separability. The summaries raise
    MemoryError for more trials than the host can lay out as a column.
    """
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    session = _prepare(tuple(configs), scenario)
    lifts = _depolarizing_lift([c.q for c in session.configs], scenario.pair)
    return _summaries(session, trials, concurrence(lifts).tolist())


def _summaries(session: _Session, trials: int, concurrences) -> Iterator[MonteCarloSummary]:
    """A prepared batch's summaries, each config's trials drawn as its summary is asked for."""
    for i, (config, mean_concurrence) in enumerate(zip(session.configs, concurrences)):
        sifted, matched = session.counts(i, range(trials))
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
