"""Test-only physics: independent references that the package does not use.

Sessions and the binding attack read their Born probabilities off the sender's
operator ``states._sender_operator``. The tests check them against the
textbook route here: project one half of the pair, then normalize the
state left on the other half; and the operator itself against I x E
lifted to the pair, multiplied in and B traced out. Sessions map the
receiver's effects through his channel; ``lifted_round_law`` reads the
round law off a pair the channel has already acted on, with the bare
effects, as the route they are checked against. The fidelity, its
matrix square root, the Pauli-twirl Kraus form of the depolarizing
channel, the Kraus sum lifted to the pair as I x K, a channel's adjoint
and the textbook Wootters formula are the brute-force routes
that the closed forms of the package are checked against. A Monte Carlo
summary is checked against one built from a full session per trial, its
separability and concurrence columns against the factorization law on a
cheater's amplitudes, and its acceptance rate against the exact binomial
sum. The Pauli X and Z matrices, the Hermiticity defect of a matrix, the
Philox generator of a (seed, word) key, the partial trace Tr_B, the
diagonal basis and the encoding basis of a bit, the isotropic family of
the Bell pair and the residual of the concurrence factorization law,
which only the tests use, are defined here.
"""

from __future__ import annotations

import math

import numpy as np

from ebcommit.channels import _BELL_PROJ, DepolarizingChannel, KrausChannel, choi, lift_apply
from ebcommit.entanglement import concurrence
from ebcommit.linalg import (
    PAULI_I,
    PAULI_Y,
    _b_blocks,
    as_operator,
    eig_hermitian,
    is_psd,
)
from ebcommit.protocol import (
    _EFFECTS,
    EprAlice,
    MonteCarloSummary,
    VerificationReport,
    _prepare,
    _round_law,
    _verdict,
    run_session,
)
from ebcommit.states import (
    OUTCOME_EPS,
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    _check_bit,
    _check_q,
    _check_word,
    _sender_operator,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_X.setflags(write=False)
PAULI_Z.setflags(write=False)

SPECTRUM_FLOOR = 1e-14


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues indistinguishable from 0 at roundoff scale.

    Square-rooting a spurious +1e-16 eigenvalue would inject a 1e-8
    error, so anything below ``SPECTRUM_FLOOR * max(1, w_max)`` is
    treated as an exact zero before a square root is taken.
    """
    w = np.clip(w, 0.0, None)
    cutoff = SPECTRUM_FLOOR * max(1.0, float(w.max()))
    w[w < cutoff] = 0.0
    return w


def hermiticity_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])| of one matrix, zero iff it is exactly Hermitian."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m - m.conj().T).max())


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clamped to 0."""
    w, v = eig_hermitian(m, vectors=True)
    w = clip_spectrum(w)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a, b) -> float:
    """F(a, b) = tr sqrt(sqrt(a) b sqrt(a)).

    For a pure state b, F^2 equals the overlap <b|a|b>. Note some texts
    call F^2 the fidelity; the tests square explicitly where they need a
    probability.
    """
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    s = sqrtm_psd(a)
    w = clip_spectrum(eig_hermitian(s @ b @ s))
    return min(1.0, float(np.sqrt(w).sum()))


def as_kraus(c: DepolarizingChannel) -> KrausChannel:
    """Pauli-twirl Kraus form of the depolarizing channel.

    {sqrt(q + (1-q)/4) I, sqrt((1-q)/4) X, sqrt((1-q)/4) Y,
    sqrt((1-q)/4) Z}, checked against the closed form of the package.
    """
    p = (1.0 - c.q) / 4.0
    weighted = (
        (np.sqrt(c.q + p), PAULI_I),
        (np.sqrt(p), PAULI_X),
        (np.sqrt(p), PAULI_Y),
        (np.sqrt(p), PAULI_Z),
    )
    return KrausChannel(tuple(w * op for w, op in weighted if w > 0.0))


def kraus_lift(c: KrausChannel, rho) -> np.ndarray:
    """Textbook (I x c)(rho) = sum_K (I x K) rho (I x K)^dagger, with each K lifted by np.kron."""
    m = as_operator(rho, 4)
    lifted = [np.kron(PAULI_I, k) for k in c.kraus_ops]
    return sum(k @ m @ k.conj().T for k in lifted)


def channel_adjoint(c: KrausChannel | DepolarizingChannel, effect) -> np.ndarray:
    """c^dagger(E) = sum_K K^dagger E K, the channel acting on an effect instead of a state.

    The depolarizing channel is its own adjoint; it is taken through its
    Pauli-twirl Kraus form here, not through the package's closed form.
    """
    kraus = as_kraus(c) if isinstance(c, DepolarizingChannel) else c
    return sum(k.conj().T @ effect @ k for k in kraus.kraus_ops)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Textbook concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the square roots, in descending order, of the eigenvalues
    of the non-Hermitian R = rho (Y x Y) conj(rho) (Y x Y) (Wootters, PRL
    80, 2245 (1998)). The eigenvalues of R are real and non-negative in
    exact arithmetic; their roundoff residue is dropped before the root.
    """
    m = as_operator(rho, 4)
    yy = np.kron(PAULI_Y, PAULI_Y)
    r = np.linalg.eigvals(m @ yy @ m.conj() @ yy)
    lams = np.sort(np.sqrt(np.clip(r.real, 0.0, None)))[::-1]
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def factorization_residual(x, c: KrausChannel | DepolarizingChannel) -> float:
    """|C((I x c)[|x><x|]) - C(|x><x|) * C(choi(c))| for a pure input x.

    Both sides are evaluated independently: the left by pushing the state
    through the lifted channel, the right from the input and the Choi
    state alone.
    """
    rho = DensityMatrix.from_pure(x)
    left = concurrence(lift_apply(c, rho))
    right = concurrence(rho) * concurrence(choi(c))
    return abs(left - right)


def bell_psi_plus() -> np.ndarray:
    """Maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return np.array([math.sqrt(0.5), 0, 0, math.sqrt(0.5)], dtype=complex)


def isotropic(q: float) -> DensityMatrix:
    """Mixture q |psi+><psi+| + (1-q)/4 I of the Bell pair with white noise."""
    _check_q(q)
    return DensityMatrix(q * _BELL_PROJ + (1.0 - q) / 4.0 * np.eye(4))


DIAGONAL = ProjectiveBasis(math.pi / 2, 0.0)


def encoding_basis(bit: int) -> ProjectiveBasis:
    """Measurement basis that resolves the two variants of a bit."""
    _check_bit("bit", bit)
    return RECTILINEAR if bit == 0 else DIAGONAL


def projectors(basis: ProjectiveBasis) -> tuple[np.ndarray, np.ndarray]:
    """The rank-one projectors on the two vectors of ``basis``."""
    b0, b1 = basis.vectors()
    return np.outer(b0, b0.conj()), np.outer(b1, b1.conj())


def partial_trace(m) -> np.ndarray:
    """Tr_B(M), the trace of each B block: the A marginal of a two-qubit operator."""
    return np.trace(_b_blocks(m), axis1=-2, axis2=-1)


def receiver_marginal(m) -> np.ndarray:
    """Tr_A(M): the B marginal of a two-qubit operator."""
    return np.trace(as_operator(m, 4).reshape(2, 2, 2, 2), axis1=0, axis2=2)


def sender_operator(rho, effect) -> np.ndarray:
    """Textbook x_E = tr_B[rho (I x E)]: lift the effect to the pair, multiply, trace out B."""
    return partial_trace(as_operator(rho, 4) @ np.kron(PAULI_I, effect))


def lifted_round_law(joint, steer_basis: ProjectiveBasis) -> tuple[np.ndarray, np.ndarray]:
    """``protocol._round_law`` of a post-channel pair, read with the receiver's bare effects."""
    return _round_law(_sender_operator(joint, _EFFECTS), steer_basis)


def joint_outcome_decomposition(
    rho: DensityMatrix, side: str, basis: ProjectiveBasis
) -> tuple[tuple[float, DensityMatrix | None], ...]:
    """Both branches of a local measurement on half of a two-qubit state.

    Returns ``((p0, cond0), (p1, cond1))`` where ``p_j`` is the Born
    probability of outcome ``j`` on ``side`` and ``cond_j`` is the
    normalized state left on the other side. Branches with probability
    below ``OUTCOME_EPS`` carry ``None``. The unnormalized branch is
    validated at ``TOL``; dividing it by a small p would amplify its
    roundoff past ``TOL``, so it is normalized with its spectrum clipped
    at 0.
    """
    m = as_operator(rho, 4)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    eye = np.eye(2)
    branches = []
    for proj in projectors(basis):
        full = np.kron(proj, eye) if side == "A" else np.kron(eye, proj)
        p = float(np.real(np.trace(full @ m)))
        if p < OUTCOME_EPS:
            branches.append((p, None))
            continue
        branch = full @ m @ full
        branch = receiver_marginal(branch) if side == "A" else partial_trace(branch)
        if not is_psd(branch):
            raise ValueError(f"not PSD (min eigenvalue {eig_hermitian(branch)[-1]:.3e})")
        w, v = eig_hermitian(branch, vectors=True)
        w = np.clip(w, 0.0, None)
        branches.append((p, DensityMatrix((v * (w / w.sum())) @ v.conj().T)))
    return tuple(branches)


def derive_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox keyed by the 128-bit key (seed, trial), at counter 0.

    Key word 0 is the seed and word 1 the trial, so every (seed, trial)
    pair is its own Philox stream. Sessions draw trial t's receiver counts
    from the stream of the key (seed, t // 64), as row t mod 64 of one
    draw per block. The key is a uint64 array: a list of Python ints would
    convert through float64 once a word is >= 2**63.
    """
    _check_word("seed", seed)
    _check_word("trial", trial)
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def counts_report(config, sifted_count: int, match_count: int) -> VerificationReport:
    """The receiver's rule for one session's counts, in Python scalars.

    The match fraction is the ratio of the two ints, rounded once; the
    threshold sits ``accept_sigma`` binomial standard deviations below
    (1+q)/2. With no sifted rounds the session is rejected, with fraction
    0 and threshold 1.
    """
    expected = (1.0 + config.q) / 2.0
    if sifted_count == 0:
        return VerificationReport(0, 0, 0.0, expected, 1.0, False, no_sifted_rounds=True)
    fraction = match_count / sifted_count
    threshold = expected - config.accept_sigma * math.sqrt(expected * (1.0 - expected) / sifted_count)
    return VerificationReport(sifted_count, match_count, fraction, expected, threshold,
                              fraction >= threshold)


def pure_pair_concurrence(a0, a1) -> float:
    """C = 2|det[a0 a1]| / (|a0|^2 + |a1|^2) of the pure pair |a0>|0> + |a1>|1>, capped at 1.

    A pure pair psi of amplitude matrix M has Wootters' concurrence
    |<psi|Y x Y|psi*>| = 2|det M| (PRL 80, 2245 (1998)), here with
    M = [a0 a1] and the pair normalized.
    """
    (x0, y0), (x1, y1) = a0, a1
    n = (abs(x0) ** 2 + abs(y0) ** 2) + (abs(x1) ** 2 + abs(y1) ** 2)
    return float(min(1.0, 2.0 * abs(x0 * y1 - y0 * x1) / n))


def lifted_concurrence(scenario, q: float) -> float:
    """The concurrence of a scenario's pair after eps_q on its B half, by the factorization law.

    The cheater's pure-pair concurrence, read off her amplitudes, times
    (3q - 1)/2, the concurrence of the Choi state of eps_q, and 0.0 (never
    -0.0) where that product is <= 0: at q <= 1/3, where eps_q breaks
    entanglement, and for the honest classical-quantum pair, which is
    separable. The pair is separable iff this is 0.0.
    """
    if not isinstance(scenario, EprAlice):
        return 0.0
    c = pure_pair_concurrence(scenario.strategy.a0, scenario.strategy.a1) * (3.0 * q - 1.0) / 2.0
    return c if c > 0.0 else 0.0


def sessions_summary(config, scenario, trials: int) -> MonteCarloSummary:
    """A one-config ``sweep``'s summary built trial by trial from ``run_session``'s reports.

    Each trial's transcript is laid out and verified on its own, and the
    statistics are read off the reports: the match-fraction mean and std
    over the reports with sifted rounds, the share accepted, and the
    concurrence of the post-channel pair by ``lifted_concurrence``, whose
    0.0 marks it separable.
    """
    reports = [run_session(config, scenario, t)[1] for t in range(trials)]
    fractions = np.array([r.match_fraction for r in reports if not r.no_sifted_rounds])
    concurrence = lifted_concurrence(scenario, config.q)
    return MonteCarloSummary(
        trials=trials,
        match_fraction_mean=float(fractions.mean()) if fractions.size else 0.0,
        match_fraction_std=float(fractions.std()) if fractions.size else 0.0,
        acceptance_rate=sum(r.accepted for r in reports) / trials,
        separable_fraction=1.0 if concurrence == 0.0 else 0.0,
        mean_concurrence=concurrence,
        no_sifted_trials=trials - fractions.size,
    )


def sessions_counts(config, scenario, trials: int) -> tuple[list[int], list[int]]:
    """Trial by trial, the sifted and matched counts of ``run_session``'s reports."""
    reports = [run_session(config, scenario, t)[1] for t in range(trials)]
    return [r.sifted_count for r in reports], [r.match_count for r in reports]


def sweep_counts(config, scenario, trials: int) -> tuple[list[int], list[int]]:
    """A one-config sweep's sifted and matched count columns of trials 0 to ``trials`` - 1.

    They are ``_Session.counts`` of the config's prepared batch, the call
    ``protocol._summaries`` decides the config's trials from, as lists.
    """
    sifted, matched = _prepare([config], scenario).counts(0, range(trials))
    return sifted.tolist(), matched.tolist()


def exact_acceptance(config, p_match: float) -> float:
    """P(accept) = sum_s Bin(s; n, 1/2) P[Bin(s, p_match) >= m*(s)] over n = ``config.rounds``.

    Every sender has a round sifted with probability 1/2, and each sifted
    round matches with probability ``p_match``. m*(s) is the least match
    count among s sifted rounds that ``protocol._verdict`` accepts: the
    float ceiling of threshold * s, settled by the verdict's own
    comparison so that boundary cases agree with ``verify``; it is s + 1
    where no count is accepted. The tail P[Bin(s, p) >= m] is
    betainc(m, s - m + 1, p), 1 for m = 0 and 0 for m > s, and the
    binomial weights come from gammaln. Needs scipy.
    """
    from scipy.special import betainc, gammaln

    n = config.rounds
    s = np.arange(n + 1)

    def accepts(m):
        return _verdict(config.q, config.accept_sigma, s, np.clip(m, 0, s))[3]

    threshold = _verdict(config.q, config.accept_sigma, s, np.zeros_like(s))[2]
    m = np.clip(np.ceil(threshold * s), 0, s + 1).astype(np.int64)
    m = np.where((m > 0) & accepts(m - 1), m - 1, m)
    m = np.where((m <= s) & ~accepts(m), m + 1, m)
    assert ((m > s) | accepts(m)).all() and ((m == 0) | ~accepts(m - 1)).all()
    inside = (m > 0) & (m <= s)
    tail = np.where(m == 0, 1.0, 0.0)
    tail[inside] = betainc(m[inside], (s - m + 1)[inside], p_match)
    log_weight = gammaln(n + 1) - gammaln(s + 1) - gammaln(n - s + 1) - n * math.log(2.0)
    return float((np.exp(log_weight) * tail).sum())
