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

A transcript is the record of one opened session: the opened bit and
one column of length ``rounds`` per field (receiver basis and outcome,
announced variant, the cheater's own outcome), each read-only int8 and
holding only 0 and 1. Every round's state is one of a few (carrier,
basis, outcome) classes, so a session samples all rounds at once by
looking up the Born probability of its class: tr(E eps(P)) for an honest
carrier P and receiver projector E; for a cheater, tr(x) and
<s0|x|s0>/tr(x) of her operator x = tr_B[rho (I x E)]
(``states._sender_operator``, as in ``security``), so no conditional
state is built. Those tables depend only on q and the scenario: a
session is prepared once (the post-channel state and its Born tables,
which stay with the prepared session, not in the transcript) and then
sampled in blocks of whole trials, one row per trial. ``run_session``
wraps a one-trial block in a ``Transcript`` and verifies it;
``monte_carlo`` prepares once for all of its trials and turns each row's
sifted and matched counts into a report directly, building no
transcript. Trials run in one thread.

All randomness flows from the session seed through a counter-based
generator (Philox); a given ``(config, scenario, trial)`` always
reproduces the same transcript. Trial t's stream is
``derive_rng(config.seed, t)``. A Philox stream is fixed by its 128-bit
key, so a prepared session hashes the keys of all its trials at once
(numpy's SeedSequence hash, replayed on uint32 columns) and re-keys one
generator per trial instead of building one. Within a session, draws
happen in a fixed order (variants, receiver bases, receiver outcomes,
then steering outcomes at opening); sampling each class's Born
probability is distribution-identical to measuring each round's state
individually.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import DepolarizingChannel, channel_apply, lift_apply
from .entanglement import concurrence, is_separable
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
        _check_int("seed", self.seed)
        _check_real("accept_sigma", self.accept_sigma)
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not (math.isfinite(self.accept_sigma) and self.accept_sigma >= 0):
            raise ValueError(f"accept_sigma must be finite and >= 0, got {self.accept_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


_COLUMNS = ("bob_basis", "bob_outcome", "announced_variant", "alice_outcome")


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one opened session, one read-only int8 column per field.

    ``bob_basis`` and ``bob_outcome`` are the receiver's; basis b is
    ``encoding_basis(b)``. ``announced_variant`` is the sender's opening.
    ``alice_outcome`` is a cheater's own steering outcome and None for an
    honest sender. Equality compares every field by value.
    """

    config: ProtocolConfig
    opened_bit: int
    bob_basis: np.ndarray
    bob_outcome: np.ndarray
    announced_variant: np.ndarray
    alice_outcome: np.ndarray | None = None

    def __post_init__(self):
        _check_bit("opened_bit", self.opened_bit)
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is None:  # an honest sender's alice_outcome
                continue
            col = np.asarray(col)
            if col.shape != (self.config.rounds,):
                raise ValueError(
                    f"{name} has shape {col.shape} for {self.config.rounds} rounds"
                )
            if col.dtype.kind not in "biu" or np.any((col < 0) | (col > 1)):
                raise ValueError(f"{name} must hold 0/1 integers or bools")
            col = col.astype(np.int8)
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        # np.array_equal(None, None) holds, and None equals no array
        return self.config == other.config and self.opened_bit == other.opened_bit and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS
        )

    @property
    def sifted(self) -> np.ndarray:
        """Rounds measured in the opened bit's encoding basis."""
        return self.bob_basis == self.opened_bit

    @property
    def matched(self) -> np.ndarray:
        """Sifted rounds whose outcome equals the announced variant."""
        return self.sifted & (self.bob_outcome == self.announced_variant)


@dataclass(frozen=True)
class VerificationReport:
    sifted_count: int
    match_count: int
    match_fraction: float
    expected_fraction: float
    threshold: float
    accepted: bool
    no_sifted_rounds: bool = False


def derive_rng(*ids: int) -> np.random.Generator:
    """Counter-based generator for a stream id tuple, e.g. (seed, trial).

    Trial t of a session draws ``derive_rng(config.seed, t)``; sessions
    re-key one generator to that stream (``_trial_keys``) instead of
    calling this.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(ids))))


_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running multipliers init * mult**k mod 2**32 of a SeedSequence hash, as a column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants: a 4-word pool mixes with 16 hashes and
# yields 4 output words, i.e. 2 uint64 (a Philox key).
_MIX_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 17)
_OUT_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 5)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: row k of ``value`` is xored with ``consts[k]``, multiplied by ``consts[k+1]``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of word ``y`` into word ``x``."""
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ (result >> 16)


def _trial_keys(seed: int, trials: range) -> np.ndarray:
    """Row i is ``SeedSequence([seed, t]).generate_state(2, np.uint64)`` for the i-th t of ``trials``.

    The hash runs on uint32 columns, one per trial, whose arithmetic wraps
    mod 2**32 as numpy's does. The pool is the seed's one or two words,
    then t's low and high words, zero-padded to 4; a zero-padded pool
    hashes exactly like the unpadded entropy. Seed and trials are < 2**64.
    """
    seed, t = int(seed), np.array(trials, dtype=np.uint64)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, len(t)), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = t & np.uint64(_MASK32)
    pool[len(seed_words) + 1] = t >> np.uint64(32)
    mixer = _hashmix(pool, _MIX_CONSTS[:5])
    for src in range(4):
        # word src's hashes into the other three are independent, so they run together
        dst = [i for i in range(4) if i != src]
        mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], _MIX_CONSTS[4 + 3 * src : 8 + 3 * src]))
    words = _hashmix(mixer, _OUT_CONSTS).astype(np.uint64)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T  # little-endian word pairs


#: The receiver's effects: E[b, o] projects on outcome o of basis b.
_EFFECTS = np.array([[bb84_projector(b, o) for o in (0, 1)] for b in (0, 1)])


def _clamp(p0: np.ndarray) -> np.ndarray:
    """Born probabilities snapped to 0 or 1 within ``OUTCOME_EPS``, so impossible outcomes are never drawn."""
    return np.where(p0 < OUTCOME_EPS, 0.0, np.where(p0 > 1.0 - OUTCOME_EPS, 1.0, p0))


def verify(transcript: Transcript) -> VerificationReport:
    """Receiver's accept/reject decision over the sifted rounds.

    Sifted rounds are those measured in the announced bit's encoding
    basis. The honest expectation per sifted round is (1+q)/2 (the
    carrier survives the channel with probability q, else the outcome is
    a fair coin); the acceptance threshold sits ``accept_sigma`` binomial
    standard deviations below it. With no sifted rounds the receiver has
    no evidence and rejects.
    """
    return _counts_report(
        transcript.config,
        int(np.count_nonzero(transcript.sifted)),
        int(np.count_nonzero(transcript.matched)),
    )


def _counts_report(config: ProtocolConfig, sifted_count: int, match_count: int) -> VerificationReport:
    """``verify``'s decision from a session's sifted and matched round counts."""
    expected = (1.0 + config.q) / 2.0
    if sifted_count == 0:
        return VerificationReport(
            sifted_count=0,
            match_count=0,
            match_fraction=0.0,
            expected_fraction=expected,
            threshold=1.0,
            accepted=False,
            no_sifted_rounds=True,
        )
    match_fraction = match_count / sifted_count
    threshold = expected - config.accept_sigma * math.sqrt(
        expected * (1.0 - expected) / sifted_count
    )
    return VerificationReport(
        sifted_count=sifted_count,
        match_count=match_count,
        match_fraction=match_fraction,
        expected_fraction=expected,
        threshold=threshold,
        accepted=match_fraction >= threshold,
    )


@dataclass(frozen=True)
class HonestAlice:
    bit: int

    def __post_init__(self):
        _check_bit("bit", self.bit)


@dataclass(frozen=True)
class EprAlice:
    strategy: CheatStrategy
    target_bit: int = 0
    steer_basis: ProjectiveBasis = RECTILINEAR

    def __post_init__(self):
        for name, kind in (("strategy", CheatStrategy), ("steer_basis", ProjectiveBasis)):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        _check_bit("target_bit", self.target_bit)


Scenario = HonestAlice | EprAlice


#: Rounds per block of trials that a prepared session samples at once. A
#: block holds whole trials, at least one, and stays small enough for its
#: arrays to fit in cache: a 1e4-round trial is a block of its own, and
#: short trials are batched.
_BLOCK_ROUNDS = 1 << 14


class _Block(NamedTuple):
    """Consecutive trials of one prepared session: row i of each column is trial i's."""

    opened_bit: int
    bob_basis: np.ndarray
    bob_outcome: np.ndarray
    announced_variant: np.ndarray
    alice_outcome: np.ndarray | None

    def counts(self) -> tuple[list[int], list[int]]:
        """Each row's sifted and matched round counts (``Transcript.sifted``/``matched``)."""
        sifted = self.bob_basis == self.opened_bit
        matched = sifted & (self.bob_outcome == self.announced_variant)
        return (np.count_nonzero(sifted, axis=1).tolist(),
                np.count_nonzero(matched, axis=1).tolist())


def _prepare(
    config: ProtocolConfig, scenario: Scenario
) -> tuple[DensityMatrix | None, Callable[[np.ndarray], _Block]]:
    """Build a scenario's post-channel state and Born tables for ``config.q`` once.

    Returns the post-channel pair (None for an honest sender, whose
    carriers are single qubits) and the sampler of a block of trials,
    given their rows of ``_trial_keys(config.seed, ...)``. The session
    holds one Philox generator; before each row it is re-keyed to the
    trial's key, counter 0 and an empty buffer, which is the state
    ``derive_rng(config.seed, t)`` starts in, so row t draws trial t's
    stream. The Born-table lookups then run once over the whole block,
    so a row does not depend on the block it is drawn in.
    """
    n = config.rounds
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)

    def rekeyed(keys: np.ndarray):
        """Each row index, once ``rng`` is re-keyed to that row's trial stream."""
        for row, key in enumerate(keys.tolist()):
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield row

    if isinstance(scenario, HonestAlice):
        channel = DepolarizingChannel(config.q)
        noisy = [channel_apply(channel, bb84_projector(scenario.bit, v)) for v in (0, 1)]
        # p0[variant, basis] = tr(E[basis, 0] eps(P_variant))
        joint, p0 = None, _clamp(np.einsum("bij,vji->vb", _EFFECTS[:, 0], noisy).real).ravel()

        def sample(keys: np.ndarray) -> _Block:
            draws = np.empty((len(keys), 2 * n), dtype=np.int8)  # variants, then bases
            uniform = np.empty((len(keys), n))
            for row in rekeyed(keys):
                draws[row] = rng.integers(0, 2, size=2 * n)
                rng.random(out=uniform[row])
            variants, bases = draws[:, :n], draws[:, n:]
            outcomes = uniform >= p0.take(2 * variants + bases)  # p0[variant, basis]
            return _Block(scenario.bit, bases, outcomes, variants, None)

    elif isinstance(scenario, EprAlice):
        strategy = scenario.strategy
        joint = lift_apply(DepolarizingChannel(config.q), cheat_state(strategy.a0, strategy.a1))
        x = np.array([[_sender_operator(joint, e) for e in row] for row in _EFFECTS])  # x[b, o]
        born = np.trace(x, axis1=2, axis2=3).real
        s0 = scenario.steer_basis.vectors()[0]
        # steer_p0[b, o] = <s0|x[b, o]|s0> / tr x[b, o]; an impossible
        # receiver outcome is never drawn, so its entry is never read.
        steer = np.divide((s0.conj() @ x @ s0).real, born,
                          out=np.zeros_like(born), where=born >= OUTCOME_EPS)
        bob_p0, steer_p0 = _clamp(born[:, 0]), _clamp(steer).ravel()

        def sample(keys: np.ndarray) -> _Block:
            bases = np.empty((len(keys), n), dtype=np.int8)
            uniform = np.empty((len(keys), 2 * n))  # receiver's, then sender's
            # Measurements on the two halves commute, so the receiver's
            # outcomes are drawn first and the sender steers on them.
            for row in rekeyed(keys):
                bases[row] = rng.integers(0, 2, size=n)
                rng.random(out=uniform[row])
            outcomes = uniform[:, :n] >= bob_p0.take(bases)
            alice = uniform[:, n:] >= steer_p0.take(2 * bases + outcomes)  # steer_p0[basis, outcome]
            return _Block(scenario.target_bit, bases, outcomes, alice, alice)

    else:
        raise TypeError(f"not a scenario: {scenario!r}")

    return joint, sample


def run_session(
    config: ProtocolConfig, scenario: Scenario, trial: int = 0
) -> tuple[Transcript, VerificationReport]:
    """Full commit, open, verify pipeline; deterministic given (config, scenario, trial)."""
    _check_int("trial", trial)
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must be a 64-bit unsigned integer, got {trial}")
    block = _prepare(config, scenario)[1](_trial_keys(config.seed, range(trial, trial + 1)))
    columns = (None if col is None else col[0] for col in block[1:])  # in _COLUMNS order
    transcript = Transcript(config, block.opened_bit, *columns)
    return transcript, verify(transcript)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Statistics over the trials of one configuration.

    The match-fraction mean and std run over the trials that had sifted
    rounds; ``no_sifted_trials`` counts the others, and with none left
    both are 0.0. Separability (0 or 1) and concurrence are those of the
    post-channel joint state, which is the same in every trial; an
    honest sender reports 1 and 0.
    """

    trials: int
    match_fraction_mean: float
    match_fraction_std: float
    acceptance_rate: float
    separable_fraction: float
    mean_concurrence: float
    no_sifted_trials: int
    reports: tuple[VerificationReport, ...]


def monte_carlo(config: ProtocolConfig, scenario: Scenario, trials: int) -> MonteCarloSummary:
    """Repeat a session over trial-indexed seed streams and summarize.

    Trial t uses the stream ``derive_rng(config.seed, t)``, so results do
    not depend on execution order. The scenario's post-channel state and
    Born tables are built once per call and shared by every trial, and the
    Philox keys of all trials are hashed in one pass. Trials are sampled
    in one thread, in blocks of about ``_BLOCK_ROUNDS`` rounds (whole
    trials, at least one per block). Each report equals ``verify`` of the
    trial's transcript, as ``run_session(config, scenario, t)`` returns it.
    """
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    joint, sample = _prepare(config, scenario)
    keys = _trial_keys(config.seed, range(trials))
    per_block = max(1, _BLOCK_ROUNDS // config.rounds)
    reports = []
    for start in range(0, trials, per_block):
        sifted, matched = sample(keys[start : start + per_block]).counts()
        reports += [_counts_report(config, s, m) for s, m in zip(sifted, matched)]
    fractions = np.array([r.match_fraction for r in reports if not r.no_sifted_rounds])
    return MonteCarloSummary(
        trials=trials,
        match_fraction_mean=float(fractions.mean()) if fractions.size else 0.0,
        match_fraction_std=float(fractions.std()) if fractions.size else 0.0,
        acceptance_rate=sum(r.accepted for r in reports) / trials,
        separable_fraction=1.0 if joint is None or is_separable(joint) else 0.0,
        mean_concurrence=0.0 if joint is None else concurrence(joint).value,
        no_sifted_trials=trials - fractions.size,
        reports=tuple(reports),
    )
