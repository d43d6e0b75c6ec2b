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

All randomness flows from the session seed through a counter-based
generator (Philox); a given ``(config, scenario)`` always reproduces the
same transcript. Within a session, draws happen in a fixed order
(variants, receiver bases, receiver outcomes, then steering outcomes at
opening); round outcomes are sampled from the Born probabilities of the
finitely many (carrier, basis) combinations, which is distribution-
identical to measuring each round's state individually.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import DepolarizingChannel, NoiseLocation, channel_apply, lift_apply
from .entanglement import concurrence, is_separable
from .security import CheatStrategy
from .states import (
    DIAGONAL,
    OUTCOME_EPS,
    RECTILINEAR,
    Bb84Symbol,
    DensityMatrix,
    ProjectiveBasis,
    bb84_state,
    cheat_state,
    joint_outcome_decomposition,
)

#: Basis indices used in round records; the encoding basis of bit b has index b.
BASIS_RECTILINEAR = 0
BASIS_DIAGONAL = 1
_BASES = (RECTILINEAR, DIAGONAL)


@dataclass(frozen=True)
class ProtocolConfig:
    q: float
    rounds: int
    noise_location: NoiseLocation = NoiseLocation.BOB_APPARATUS
    accept_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not (math.isfinite(self.accept_sigma) and self.accept_sigma >= 0):
            raise ValueError(f"accept_sigma must be finite and >= 0, got {self.accept_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One protocol round.

    ``sifted`` and ``matched`` are None until the transcript is opened;
    ``matched`` stays None on unsifted rounds. For cheating rounds
    ``state_sent`` is the post-channel joint state and
    ``alice_conditional`` the sender's retained half given the
    receiver's measurement.
    """

    alice_symbol: Bb84Symbol | None
    state_sent: DensityMatrix
    bob_basis: int
    bob_outcome: int
    alice_conditional: DensityMatrix | None = None
    announced_variant: int | None = None
    alice_outcome: int | None = None
    sifted: bool | None = None
    matched: bool | None = None


@dataclass(frozen=True)
class Transcript:
    config: ProtocolConfig
    committed_bit: int
    opened_bit: int | None
    cheating: bool
    records: tuple[RoundRecord, ...]

    def __post_init__(self):
        if len(self.records) != self.config.rounds:
            raise ValueError(
                f"{len(self.records)} records for {self.config.rounds} rounds"
            )


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
    """Counter-based generator for a stream id tuple, e.g. (seed, trial)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(ids))))


def _effective_p0(p0: float) -> float:
    """Clamp a Born probability so impossible outcomes are never sampled."""
    if p0 < OUTCOME_EPS:
        return 0.0
    if p0 > 1.0 - OUTCOME_EPS:
        return 1.0
    return p0


def _outcome_prob0(state: np.ndarray, basis: ProjectiveBasis) -> float:
    b0 = basis.vectors()[0]
    return _effective_p0(float(np.real(b0.conj() @ state @ b0)))


def commit_honest(config: ProtocolConfig, bit: int, rng: np.random.Generator) -> Transcript:
    """Commit phase with an honest sender.

    Each round draws a uniform variant of ``bit``'s encoding, pushes the
    carrier through the depolarizing step, and has the receiver measure
    in a uniformly random basis. An honest opening simply announces the
    committed bit, so the returned transcript is already opened.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    channel = DepolarizingChannel(config.q)
    symbols = (Bb84Symbol(bit, 0), Bb84Symbol(bit, 1))
    sent = tuple(DensityMatrix.from_pure(bb84_state(s), (2,)) for s in symbols)
    noisy = tuple(channel_apply(channel, d.mat) for d in sent)
    p0 = np.array(
        [[_outcome_prob0(noisy[v], _BASES[b]) for b in range(2)] for v in range(2)]
    )

    n = config.rounds
    variants = rng.integers(0, 2, size=n)
    bob_bases = rng.integers(0, 2, size=n)
    outcomes = (rng.random(n) >= p0[variants, bob_bases]).astype(np.int64)

    # Records are immutable, so the eight possible (variant, basis,
    # outcome) rounds share instances; sifted iff the basis index equals
    # the bit value.
    cache = {
        (v, b, o): RoundRecord(
            alice_symbol=symbols[v],
            state_sent=sent[v],
            bob_basis=b,
            bob_outcome=o,
            announced_variant=v,
            sifted=(b == bit),
            matched=(o == v) if b == bit else None,
        )
        for v in (0, 1)
        for b in (0, 1)
        for o in (0, 1)
    }
    records = tuple(
        cache[v, b, o]
        for v, b, o in zip(variants.tolist(), bob_bases.tolist(), outcomes.tolist())
    )
    return Transcript(config, committed_bit=bit, opened_bit=bit, cheating=False, records=records)


def commit_cheating(
    config: ProtocolConfig,
    strategy: CheatStrategy,
    rng: np.random.Generator,
    intent_bit: int = 0,
) -> Transcript:
    """Commit phase with an entangling sender.

    Every round carries the B half of the strategy's entangled pair; the
    A half stays with the sender. The post-channel joint state and the
    sender's conditional state given the receiver's outcome are kept in
    the round record so the open phase can steer; measurements on the
    two halves commute, so sampling the receiver's first leaves the
    joint statistics unchanged. The transcript is not opened yet.
    """
    if intent_bit not in (0, 1):
        raise ValueError(f"intent_bit must be 0 or 1, got {intent_bit}")
    channel = DepolarizingChannel(config.q)
    joint = lift_apply(channel, cheat_state(strategy.a0, strategy.a1))
    branches = [joint_outcome_decomposition(joint, "B", basis) for basis in _BASES]
    p0 = np.array([_effective_p0(branches[b][0][0]) for b in range(2)])

    n = config.rounds
    bob_bases = rng.integers(0, 2, size=n)
    outcomes = (rng.random(n) >= p0[bob_bases]).astype(np.int64)

    cache = {
        (b, o): RoundRecord(
            alice_symbol=None,
            state_sent=joint,
            bob_basis=b,
            bob_outcome=o,
            alice_conditional=branches[b][o][1],
        )
        for b in (0, 1)
        for o in (0, 1)
    }
    records = tuple(cache[b, o] for b, o in zip(bob_bases.tolist(), outcomes.tolist()))
    return Transcript(
        config, committed_bit=intent_bit, opened_bit=None, cheating=True, records=records
    )


def open_and_steer(
    transcript: Transcript,
    target_bit: int,
    steer_basis: ProjectiveBasis,
    rng: np.random.Generator,
) -> Transcript:
    """Open phase for a cheating sender.

    The sender measures her retained half of every round in
    ``steer_basis``, announces ``target_bit``, and announces as each
    round's variant the index of her own outcome. The receiver's records
    are untouched; only the opened fields are filled in.
    """
    if not transcript.cheating:
        raise ValueError("honest transcripts need no steering; the commit already announces")
    if target_bit not in (0, 1):
        raise ValueError(f"target_bit must be 0 or 1, got {target_bit}")

    p0_cache: dict[int, float] = {}
    opened_cache: dict[tuple[int, int], RoundRecord] = {}

    def steer_p0(cond: DensityMatrix) -> float:
        key = id(cond)
        if key not in p0_cache:
            p0_cache[key] = _outcome_prob0(cond.mat, steer_basis)
        return p0_cache[key]

    def opened_record(r: RoundRecord, alice_outcome: int) -> RoundRecord:
        key = (id(r), alice_outcome)
        if key not in opened_cache:
            sifted = r.bob_basis == target_bit
            opened_cache[key] = replace(
                r,
                announced_variant=alice_outcome,
                alice_outcome=alice_outcome,
                sifted=sifted,
                matched=(r.bob_outcome == alice_outcome) if sifted else None,
            )
        return opened_cache[key]

    u = rng.random(len(transcript.records))
    opened = tuple(
        opened_record(r, 0 if x < steer_p0(r.alice_conditional) else 1)
        for r, x in zip(transcript.records, u.tolist())
    )
    return replace(transcript, opened_bit=target_bit, records=opened)


def verify(transcript: Transcript) -> VerificationReport:
    """Receiver's accept/reject decision over the sifted rounds.

    Sifted rounds are those measured in the announced bit's encoding
    basis. The honest expectation per sifted round is (1+q)/2 (the
    carrier survives the channel with probability q, else the outcome is
    a fair coin); the acceptance threshold sits ``accept_sigma`` binomial
    standard deviations below it. With no sifted rounds the receiver has
    no evidence and rejects.
    """
    if transcript.opened_bit is None:
        raise ValueError("transcript is not opened")
    cfg = transcript.config
    expected = (1.0 + cfg.q) / 2.0
    sifted_count = 0
    match_count = 0
    for r in transcript.records:
        if r.sifted:
            sifted_count += 1
            if r.matched:
                match_count += 1
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
    threshold = expected - cfg.accept_sigma * math.sqrt(
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


@dataclass(frozen=True)
class EprAlice:
    strategy: CheatStrategy
    target_bit: int = 0
    steer_basis: ProjectiveBasis = RECTILINEAR
    intent_bit: int = 0


Scenario = HonestAlice | EprAlice


def run_session(
    config: ProtocolConfig, scenario: Scenario, trial: int = 0
) -> tuple[Transcript, VerificationReport]:
    """Full commit, open, verify pipeline; deterministic given (config, scenario, trial)."""
    rng = derive_rng(config.seed, trial)
    if isinstance(scenario, HonestAlice):
        transcript = commit_honest(config, scenario.bit, rng)
    elif isinstance(scenario, EprAlice):
        transcript = commit_cheating(config, scenario.strategy, rng, scenario.intent_bit)
        transcript = open_and_steer(transcript, scenario.target_bit, scenario.steer_basis, rng)
    else:
        raise TypeError(f"not a scenario: {scenario!r}")
    return transcript, verify(transcript)


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    match_fraction_mean: float
    match_fraction_std: float
    acceptance_rate: float
    separable_fraction: float
    mean_concurrence: float
    reports: tuple[VerificationReport, ...]


def _run_trial(config: ProtocolConfig, scenario: Scenario, trial: int):
    transcript, report = run_session(config, scenario, trial)
    if transcript.cheating:
        joint = transcript.records[0].state_sent
        sep = 1.0 if is_separable(joint) else 0.0
        conc = concurrence(joint).value
    else:
        sep, conc = 1.0, 0.0
    return report, sep, conc


def monte_carlo(
    config: ProtocolConfig, scenario: Scenario, trials: int, workers: int = 1
) -> MonteCarloSummary:
    """Repeat a session over trial-indexed seed streams and summarize.

    Trial t uses the stream (config.seed, t), so results do not depend on
    execution order or on ``workers``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: _run_trial(config, scenario, t), range(trials)))
    else:
        results = [_run_trial(config, scenario, t) for t in range(trials)]
    reports = tuple(r for r, _, _ in results)
    fractions = np.array([r.match_fraction for r in reports])
    return MonteCarloSummary(
        trials=trials,
        match_fraction_mean=float(fractions.mean()),
        match_fraction_std=float(fractions.std()),
        acceptance_rate=sum(r.accepted for r in reports) / trials,
        separable_fraction=sum(s for _, s, _ in results) / trials,
        mean_concurrence=sum(c for _, _, c in results) / trials,
        reports=reports,
    )
