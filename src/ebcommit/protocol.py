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

A transcript stores its rounds as columns: one read-only int8 array of
length ``rounds`` per field (receiver basis and outcome, announced
variant, the cheater's own outcome). Every round's state is one of a few
(carrier, basis, outcome) classes, so each phase samples all rounds at
once by looking up the Born probability of its class.

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

from .channels import DepolarizingChannel, channel_apply, lift_apply
from .entanglement import concurrence, is_separable
from .states import (
    DIAGONAL,
    OUTCOME_EPS,
    RECTILINEAR,
    Bb84Symbol,
    CheatStrategy,
    DensityMatrix,
    ProjectiveBasis,
    bb84_state,
    cheat_state,
    joint_outcome_decomposition,
)

#: Basis indices used in transcripts; the encoding basis of bit b has index b.
BASIS_RECTILINEAR = 0
BASIS_DIAGONAL = 1
_BASES = (RECTILINEAR, DIAGONAL)


@dataclass(frozen=True)
class ProtocolConfig:
    q: float
    rounds: int
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


_COLUMNS = ("bob_basis", "bob_outcome", "announced_variant", "alice_outcome")


@dataclass(frozen=True, eq=False)
class Transcript:
    """The rounds of one session, one read-only int8 column per field.

    ``bob_basis`` and ``bob_outcome`` are fixed at commit.
    ``announced_variant`` is None until the transcript is opened, and
    ``alice_outcome`` is set only for opened cheating sessions. A
    cheating transcript keeps the post-channel ``joint`` state and
    ``sender_conditionals[b][o]``, the sender's retained half given
    receiver basis b and outcome o (None for an impossible outcome).
    Equality compares every field by value.
    """

    config: ProtocolConfig
    committed_bit: int
    opened_bit: int | None
    bob_basis: np.ndarray
    bob_outcome: np.ndarray
    announced_variant: np.ndarray | None = None
    alice_outcome: np.ndarray | None = None
    joint: DensityMatrix | None = None
    sender_conditionals: tuple[tuple[DensityMatrix | None, ...], ...] | None = None

    def __post_init__(self):
        if (self.opened_bit is None) != (self.announced_variant is None):
            raise ValueError("opened_bit and announced_variant must be set together")
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is None:
                continue
            col = np.array(col, dtype=np.int8)
            if col.shape != (self.config.rounds,):
                raise ValueError(
                    f"{name} has shape {col.shape} for {self.config.rounds} rounds"
                )
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        others = ("config", "committed_bit", "opened_bit", "joint", "sender_conditionals")
        return all(getattr(self, f) == getattr(other, f) for f in others) and all(
            _same_column(getattr(self, c), getattr(other, c)) for c in _COLUMNS
        )

    @property
    def cheating(self) -> bool:
        return self.joint is not None

    @property
    def sifted(self) -> np.ndarray:
        """Rounds measured in the opened bit's encoding basis."""
        if self.opened_bit is None:
            raise ValueError("transcript is not opened")
        return self.bob_basis == self.opened_bit

    @property
    def matched(self) -> np.ndarray:
        """Sifted rounds whose outcome equals the announced variant."""
        return self.sifted & (self.bob_outcome == self.announced_variant)


def _same_column(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


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
    sent = (DensityMatrix.from_pure(bb84_state(Bb84Symbol(bit, v)), (2,)) for v in (0, 1))
    noisy = tuple(channel_apply(channel, d.mat) for d in sent)
    p0 = np.array(
        [[_outcome_prob0(noisy[v], _BASES[b]) for b in range(2)] for v in range(2)]
    )

    n = config.rounds
    variants = rng.integers(0, 2, size=n)
    bob_bases = rng.integers(0, 2, size=n)
    outcomes = rng.random(n) >= p0[variants, bob_bases]
    return Transcript(
        config,
        committed_bit=bit,
        opened_bit=bit,
        bob_basis=bob_bases,
        bob_outcome=outcomes,
        announced_variant=variants,
    )


def commit_cheating(
    config: ProtocolConfig,
    strategy: CheatStrategy,
    rng: np.random.Generator,
    intent_bit: int = 0,
) -> Transcript:
    """Commit phase with an entangling sender.

    Every round carries the B half of the strategy's entangled pair; the
    A half stays with the sender. The transcript keeps the post-channel
    joint state and the sender's conditional state for each receiver
    (basis, outcome), so the open phase can steer; measurements on the
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
    outcomes = rng.random(n) >= p0[bob_bases]
    return Transcript(
        config,
        committed_bit=intent_bit,
        opened_bit=None,
        bob_basis=bob_bases,
        bob_outcome=outcomes,
        joint=joint,
        sender_conditionals=tuple(tuple(cond for _, cond in branch) for branch in branches),
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
    round's variant the index of her own outcome. The receiver's columns
    are untouched; only the opened fields are filled in.
    """
    if not transcript.cheating:
        raise ValueError("honest transcripts need no steering; the commit already announces")
    if target_bit not in (0, 1):
        raise ValueError(f"target_bit must be 0 or 1, got {target_bit}")
    # An impossible receiver outcome never occurs, so its entry is never read.
    p0 = np.array(
        [
            [0.0 if cond is None else _outcome_prob0(cond.mat, steer_basis) for cond in row]
            for row in transcript.sender_conditionals
        ]
    )
    alice = rng.random(transcript.config.rounds) >= p0[transcript.bob_basis, transcript.bob_outcome]
    return replace(
        transcript, opened_bit=target_bit, announced_variant=alice, alice_outcome=alice
    )


def verify(transcript: Transcript) -> VerificationReport:
    """Receiver's accept/reject decision over the sifted rounds.

    Sifted rounds are those measured in the announced bit's encoding
    basis. The honest expectation per sifted round is (1+q)/2 (the
    carrier survives the channel with probability q, else the outcome is
    a fair coin); the acceptance threshold sits ``accept_sigma`` binomial
    standard deviations below it. With no sifted rounds the receiver has
    no evidence and rejects.
    """
    sifted_count = int(np.count_nonzero(transcript.sifted))
    match_count = int(np.count_nonzero(transcript.matched))
    cfg = transcript.config
    expected = (1.0 + cfg.q) / 2.0
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


def monte_carlo(
    config: ProtocolConfig, scenario: Scenario, trials: int, workers: int = 1
) -> MonteCarloSummary:
    """Repeat a session over trial-indexed seed streams and summarize.

    Trial t uses the stream (config.seed, t), so results do not depend on
    execution order or on ``workers``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def trial(t: int) -> tuple[VerificationReport, DensityMatrix | None]:
        transcript, report = run_session(config, scenario, t)
        return report, transcript.joint

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(trial, range(trials)))
    else:
        results = [trial(t) for t in range(trials)]
    reports = tuple(r for r, _ in results)
    joint = results[0][1]
    fractions = np.array([r.match_fraction for r in reports if not r.no_sifted_rounds])
    return MonteCarloSummary(
        trials=trials,
        match_fraction_mean=float(fractions.mean()) if fractions.size else 0.0,
        match_fraction_std=float(fractions.std()) if fractions.size else 0.0,
        acceptance_rate=sum(r.accepted for r in reports) / trials,
        separable_fraction=1.0 if joint is None or is_separable(joint) else 0.0,
        mean_concurrence=0.0 if joint is None else concurrence(joint).value,
        no_sifted_trials=trials - fractions.size,
        reports=reports,
    )
