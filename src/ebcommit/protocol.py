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
and decides a chunk of configs' trials at once by ``verify``'s rule,
building no transcript and no per-trial report, and ``run_session``
draws one trial's transcript of a batch of one config and verifies it.

All randomness flows from the session seed through a counter-based
generator (Philox); a given ``(config, scenario, trial)`` always
reproduces the same transcript, alone or in a sweep. ``_Session``'s
docstring lays out the keys, counters and blocks of trials of its
streams. A trial draws how many
of its rounds fall in each class, and a transcript then puts the rounds
in one uniformly random order. The rounds are independent and
identically distributed, so this is distribution-identical to measuring
each round's state individually. The receiver's basis choice is a fair
coin, and measurements on the two halves commute, so he can be drawn
first, from his own substream, and the sender's steering outcome, which
she announces as her variant, drawn given his outcome. His counts then
depend on the seed, the round count and his law r alone: consecutive
configs that share the three share one draw of them per block, which is
a whole q grid for the honest sender and the Bell cheater, whose r is
1/4 on every (b, o) at every q.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .channels import _depolarize
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
    _unchecked,
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
        # stored as Python scalars: a numpy float32 q would carry its precision into every verdict
        for name, kind in (("q", float), ("rounds", int), ("accept_sigma", float), ("seed", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one opened session: a read-only int8 column of round classes.

    Round i's class is ``classes[i]`` = 4b + 2o + v: the receiver measured
    in the encoding basis of bit b and saw outcome o, and the sender
    announced variant v, her steering outcome, which for an honest sender
    is the carrier she sent. Equality compares every field by value.
    """

    config: ProtocolConfig
    opened_bit: int
    classes: np.ndarray

    def __post_init__(self):
        _check_type("config", self.config, ProtocolConfig)
        _check_bit("opened_bit", self.opened_bit)
        object.__setattr__(self, "opened_bit", int(self.opened_bit))
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


#: The receiver's effects: E[b, o] projects on outcome o of basis b.
_EFFECTS = np.array([[bb84_projector(b, o) for o in (0, 1)] for b in (0, 1)])
_EFFECTS.setflags(write=False)


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
    config = transcript.config
    expected, (fraction,), (threshold,), (accepted,) = _verdict(
        config.q, config.accept_sigma, np.array([sifted]), np.array([matched]))
    return VerificationReport(sifted, matched, float(fraction), expected, float(threshold),
                              bool(accepted), no_sifted_rounds=sifted == 0)


def _verdict(
    q, accept_sigma, sifted: np.ndarray, matched: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The receiver's rule over int64 arrays of trials' sifted and matched counts.

    q and ``accept_sigma`` are one config's, as scalars (``verify``), or
    those of a chunk of configs, as (Q, 1) columns against (Q, T) counts,
    one row per config (``sweep``). Returns the honest expectation
    (1+q)/2 per sifted round (the carrier survives the channel with
    probability q, else the outcome is a fair coin) and, per trial, the
    match fraction, the threshold, which sits ``accept_sigma`` binomial
    standard deviations below the expectation, and whether the fraction
    reaches it. A trial with no sifted rounds has no evidence: its
    fraction is 0 and its threshold 1, so it is rejected.
    Each fraction is its quotient rounded once, whatever the counts, so
    that a trial is decided the same in any chunk and in ``verify``:
    float64 holds a count below 2**53 exactly, and Python's int / int
    divides such counts in float64 too, but a count past 2**53 would be
    rounded before a float64 division, so a stack that holds one is
    divided as Python ints.
    """
    expected = (1.0 + q) / 2.0
    some = sifted > 0
    n = np.where(some, sifted, 1)  # a trial with no sifted rounds has none matched either
    if n.max(initial=0) < 2**53 and matched.max(initial=0) < 2**53:
        fraction = matched / n
    else:
        fraction = (matched.astype(object) / n.astype(object)).astype(float)
    threshold = np.where(
        some, expected - accept_sigma * np.sqrt(expected * (1.0 - expected) / n), 1.0)
    return expected, fraction, threshold, fraction >= threshold


@dataclass(frozen=True)
class HonestAlice:
    bit: int

    def __post_init__(self):
        _check_bit("bit", self.bit)
        object.__setattr__(self, "bit", int(self.bit))  # a numpy bit would reach every transcript

    @functools.cached_property
    def pair(self) -> DensityMatrix:
        """The classical-quantum pair 1/2 sum_v |v><v| x P_v: a register |v> beside carrier v.

        Its entries are 0, 1/4 and 1/2 exactly, so it is stored with no eigensolve.
        """
        return _unchecked(sum(np.kron(bb84_projector(0, v), bb84_projector(self.bit, v))
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
        object.__setattr__(self, "target_bit", int(self.target_bit))

    @functools.cached_property
    def pair(self) -> DensityMatrix:
        """The committed pair |a0>|0> + |a1>|1> of ``strategy``, normalized."""
        return cheat_state(self.strategy.a0, self.strategy.a1)


Scenario = HonestAlice | EprAlice


#: Sessions draw from the laws rounded to this grid, which is below ``OUTCOME_EPS``.
#: A draw can turn on the last bit of its probability (numpy's binomial branches
#: at p = 1/2), so roundoff in the laws must not reach it.
_LAW_GRID = 2.0**-40

#: Trials per Philox key of the count streams: trial t's counts are row t mod 64
#: of block t // 64's draws. A block costs one re-key and one draw per stream,
#: not one per trial; 64 bounds ``run_session(t)``'s extra work at one block
#: prefix, the rows before t's.
_BLOCK_TRIALS = 64

#: Philox counters of the three substreams: under the key (seed, t // 64), the
#: receiver's (b, o) counts and the sender's announced variants of t's block;
#: under the key (seed, t), the arrangement of trial t's rounds.
_RECEIVER = (0, 0, 0, 0)
_ARRANGEMENT = (0, 0, 0, 1)
_VARIANTS = (0, 0, 0, 2)

#: The state a session gives its Philox generator, with an empty buffer, once
#: ``_Session._rekey`` has filled in a counter and a key.
_PHILOX_STATE = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}


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
    ``config.rounds`` until a transcript lays the rounds out.

    The Philox stream layout, the one statement of it in the package: the
    batch holds one generator, ``rng``, and ``_rekey`` sets its bit
    generator's state to a counter of a 128-bit key with an empty buffer,
    so no generator is built per draw. Philox keeps the streams of
    distinct keys and counters independent, so no key is hashed. The
    trials of config i are drawn in blocks of ``_BLOCK_TRIALS`` = 64:
    trial t is row t mod 64 of block t // 64, whose two count streams
    share the key (config.seed, t // 64), and a block costs one re-key and
    one draw per stream. At counter ``_RECEIVER`` = (0, 0, 0, 0) the
    block's receiver counts of each (b, o), one multinomial over the
    outcomes of positive r with one row per trial (``_receiver_counts``);
    at counter ``_VARIANTS`` = (0, 0, 0, 2) the count of variant 1 in each
    sifted group (b the opened bit), one binomial with P(v = 1 | b, o)
    over a (rows, 2) array, o = 0 before o = 1 in each row
    (``_sifted_ones``). numpy draws both row by row, so a block's first
    rows do not depend on how many rows follow: trial t draws the same
    whether its block is drawn to row t or whole, and trial 0 draws what a
    key of its own would. ``counts`` stops after the sifted groups.
    ``transcript`` draws trial t's block up to its row, at most 63 rows
    before its own, then splits the two other groups on the variant
    stream after that row, lays the classes 4b + 2o + v out in sorted
    order and shuffles them at counter ``_ARRANGEMENT`` = (0, 0, 0, 1) of
    trial t's own key (config.seed, t), one uniform permutation of the
    rounds. The keys (seed, t // 64) and (seed, t) meet only at distinct
    counters, so no stream overlaps another.

    The receiver's counts depend on (seed, rounds, r) and the trial alone,
    so consecutive configs that share (seed, rounds, r) share one draw of
    them: the honest sender's and the Bell cheater's r is 1/4 on every
    outcome at every q, so a sweep of either draws one multinomial per
    block for its whole q grid. ``drawn`` keeps the latest such draw only.
    Neither the receiver's counts nor the permutation depend on the
    steering basis, the opened bit or q where r does not, so neither does
    any round's receiver part 4b + 2o.
    """

    configs: tuple[ProtocolConfig, ...]
    opened_bit: int
    receivers: np.ndarray
    p_ones: np.ndarray
    rng: np.random.Generator
    drawn: dict

    def _rekey(self, counter: tuple[int, ...], seed: int, word: int) -> None:
        """Point the generator at counter ``counter`` of the key (seed, word), with an empty buffer."""
        self.rng.bit_generator.state = dict(
            _PHILOX_STATE, state={"counter": counter, "key": (seed, word)})

    def _receiver_counts(self, i: int, trials: range) -> np.ndarray:
        """Config i's receiver counts c[2b + o] as a (T, 4) int64 array, one row per trial.

        The rows run from the first trial of ``trials.start``'s block to
        ``trials.stop``, since a block is drawn from its first row on.
        """
        config, receiver = self.configs[i], self.receivers[i]
        rows = range(trials.start - trials.start % _BLOCK_TRIALS, trials.stop)
        key = (config.seed, config.rounds, receiver.tolist(), rows)
        if self.drawn.get("key") != key:
            outcomes = np.flatnonzero(receiver)  # an outcome of law 0 is left out, so never drawn
            pvals = receiver[outcomes] / receiver[outcomes].sum()
            # laid out before any block is drawn, so too many trials fail at once
            try:
                counts = np.empty((len(rows), 4), dtype=np.int64)
            # numpy refuses a size past its limit with a ValueError, and len()
            # a range past 2**63 - 1 with an OverflowError
            except (MemoryError, ValueError, OverflowError):
                raise MemoryError(
                    f"{trials.stop - trials.start} trials are too many to lay out") from None
            counts[:, receiver == 0] = 0
            for j in range(0, len(rows), _BLOCK_TRIALS):
                self._rekey(_RECEIVER, config.seed, (rows.start + j) // _BLOCK_TRIALS)
                block = counts[j:j + _BLOCK_TRIALS]
                block[:, outcomes] = self.rng.multinomial(config.rounds, pvals, size=len(block))
            self.drawn.update(key=key, counts=counts)
        return self.drawn["counts"]

    def _sifted_ones(self, i: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
        """Config i's receiver counts and its sifted groups' counts of variant 1, row by row.

        Returns ``_receiver_counts(i, trials)`` and a (T, 2) int64 array of
        the same rows, group 2b's count first for b the opened bit, and
        leaves the generator after the last block's splits.
        """
        seed, g0 = self.configs[i].seed, 2 * self.opened_bit
        counts = self._receiver_counts(i, trials)
        sifted, p = counts[:, g0:g0 + 2], self.p_ones[i, g0:g0 + 2]
        ones = np.empty_like(sifted)
        for j in range(0, len(sifted), _BLOCK_TRIALS):
            self._rekey(_VARIANTS, seed, trials.start // _BLOCK_TRIALS + j // _BLOCK_TRIALS)
            ones[j:j + _BLOCK_TRIALS] = self.rng.binomial(sifted[j:j + _BLOCK_TRIALS], p)
        return counts, ones

    def counts(self, i: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
        """Config i's trials' sifted and matched counts, as two int64 columns."""
        counts, ones = self._sifted_ones(i, trials)
        skip, g0 = trials.start % _BLOCK_TRIALS, 2 * self.opened_bit
        (c0, c1), (ones0, ones1) = counts[skip:, g0:g0 + 2].T, ones[skip:].T
        # o = v: variant 0 of outcome 0 and variant 1 of outcome 1
        return c0 + c1, c0 - ones0 + ones1

    def transcript(self, i: int, t: int) -> Transcript:
        """Config i's transcript of trial t."""
        config, p_one, g0 = self.configs[i], self.p_ones[i], 2 * self.opened_bit
        counts, sifted_ones = self._sifted_ones(i, range(t, t + 1))
        c = counts[-1].tolist()
        # ones[j] is group g0 ^ j's count of variant 1: the sifted groups' from
        # t's row, then the others', drawn next on the same variant stream
        ones = sifted_ones[-1].tolist() + [self.rng.binomial(c[g0 ^ j], p_one[g0 ^ j])
                                           for j in (2, 3)]
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
    return _Session(tuple(configs), opened_bit, receivers, p_ones,
                    np.random.Generator(np.random.Philox(0)), {})


def run_session(
    config: ProtocolConfig, scenario: Scenario, trial: int = 0
) -> tuple[Transcript, VerificationReport]:
    """Full commit, open, verify pipeline; deterministic given (config, scenario, trial).

    The transcript's column holds the class counts that ``sweep`` draws
    for the same config and trial, one class per round in one uniformly
    random order; laying them out makes its cost grow with
    ``config.rounds``, and raises MemoryError for more rounds than the
    host can hold.
    """
    _check_word("trial", trial)
    transcript = _prepare([config], scenario).transcript(0, trial)
    return transcript, verify(transcript)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Statistics over the trials of one configuration.

    Trial t's sifted and matched round counts are those ``verify`` counts
    in ``run_session(config, scenario, t)``'s transcript. The
    match-fraction mean and std run over the trials that had sifted
    rounds; ``no_sifted_trials`` counts the others, and with none left
    both are 0.0. Separability (1 iff the concurrence is 0.0) and
    concurrence are those of the post-channel pair, the same in every
    trial; an honest sender's classical-quantum pair reports 1 and 0.
    """

    trials: int
    match_fraction_mean: float
    match_fraction_std: float
    acceptance_rate: float
    separable_fraction: float
    mean_concurrence: float
    no_sifted_trials: int


#: A sweep decides its q grid in chunks of consecutive configs, at most this
#: many configs and this many trial cells, (config, trial) pairs, per chunk: one
#: ``_verdict`` and one set of trial statistics per chunk, not per config, while
#: a chunk's count stacks stay a bounded size.
_CHUNK_CONFIGS = 1024
_CHUNK_CELLS = 2**16


def sweep(
    configs: Iterable[ProtocolConfig], scenario: Scenario, trials: int
) -> Iterator[MonteCarloSummary]:
    """One ``MonteCarloSummary`` per config, in order, each over ``trials`` trials.

    One config's summary is ``next(sweep([config], scenario, trials))``.
    Each trial draws its own rows of the streams ``_Session`` lays out, so
    no result depends on the order the trials run in.
    The configs are prepared once, here, as one ``_Session``. The
    summaries are then drawn lazily, a chunk of consecutive configs at a
    time: at most ``_CHUNK_CONFIGS`` configs and ``_CHUNK_CELLS`` trials
    in all, and at least one config. Asking for a chunk's first summary
    draws every config of the chunk, and the next chunk is drawn only
    once the last summary of the one before has been asked for, so the
    sweep holds one chunk's count columns at a time; a run of
    consecutive configs of one (seed, rounds, r) shares one draw of the
    receiver's counts per block of trials. Trials run in one thread, a
    block at a time. Each config's counts come as two columns, drawn as
    they would be alone, and one ``_verdict`` decides a chunk's stack of
    them at once: trial t's decision is ``verify``'s of the transcript
    ``run_session(config, scenario, t)`` returns. A summary keeps the
    statistics of its columns, not the columns.
    The separability and concurrence columns are read off one closed
    form, so no post-channel pair is formed or decomposed: a row's
    concurrence is C (3q - 1)/2 by the factorization law
    (``entanglement``), C the noiseless pair's (``_pair_concurrence``),
    or 0.0 where that is <= 0, and a row is separable iff its
    concurrence is 0.0. That is the exact entanglement-breaking rule: a
    pair with C > 0 is entangled iff q > q* = 1/3. The honest pair has
    C = 0, so every honest row is separable. At the first float above
    1/3, 3q rounds to 1.0, so that row reads separable.
    The summaries raise MemoryError for more trials than the host can lay
    out as a column, before any block is drawn.
    """
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    trials = int(trials)  # a numpy count would make each summary's counts numpy scalars
    return _summaries(_prepare(tuple(configs), scenario), trials, _pair_concurrence(scenario))


def _pair_concurrence(scenario: Scenario) -> float:
    """The concurrence C of the scenario's noiseless pair.

    A cheater's pure pair |a0>|0> + |a1>|1> has C = 2|det[a0 a1]| / N,
    capped at 1, N = |a0|^2 + |a1|^2. The honest classical-quantum pair
    is separable, C = 0.
    """
    if isinstance(scenario, HonestAlice):
        return 0.0
    (x0, y0), (x1, y1) = scenario.strategy.a0, scenario.strategy.a1
    n = (abs(x0) ** 2 + abs(y0) ** 2) + (abs(x1) ** 2 + abs(y1) ** 2)
    return float(min(1.0, 2.0 * abs(x0 * y1 - y0 * x1) / n))


def _summaries(
    session: _Session, trials: int, pair_concurrence: float
) -> Iterator[MonteCarloSummary]:
    """A prepared batch's summaries, each chunk's trials drawn as its first summary is asked for."""
    configs = session.configs
    size = max(1, min(_CHUNK_CONFIGS, _CHUNK_CELLS // trials))
    for start in range(0, len(configs), size):
        chunk = configs[start:start + size]
        columns = [session.counts(i, range(trials)) for i in range(start, start + len(chunk))]
        sifted, matched = map(np.stack, zip(*columns))
        qs, sigmas = np.array([c.q for c in chunk]), np.array([c.accept_sigma for c in chunk])
        _, fraction, _, accepted = _verdict(qs[:, None], sigmas[:, None], sifted, matched)
        some = sifted > 0
        sifted_trials = np.count_nonzero(some, axis=1)
        means, stds = fraction.mean(axis=1).tolist(), fraction.std(axis=1).tolist()
        for row in np.flatnonzero(sifted_trials < trials).tolist():
            # a trial with no sifted round is left out of its row's statistics
            fractions = fraction[row][some[row]]
            means[row] = float(fractions.mean()) if fractions.size else 0.0
            stds[row] = float(fractions.std()) if fractions.size else 0.0
        accepts = np.count_nonzero(accepted, axis=1).tolist()
        concurrences = pair_concurrence * (3.0 * qs - 1.0) / 2.0
        concurrences = np.where(concurrences > 0.0, concurrences, 0.0).tolist()  # maximum keeps -0.0
        for row in range(len(chunk)):
            yield MonteCarloSummary(
                trials=trials,
                match_fraction_mean=means[row],
                match_fraction_std=stds[row],
                acceptance_rate=accepts[row] / trials,
                separable_fraction=1.0 if concurrences[row] == 0.0 else 0.0,
                mean_concurrence=concurrences[row],
                no_sifted_trials=trials - int(sifted_trials[row]),
            )
