"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion (``-s`` additionally shows the printed summaries).
"""

import json
import math
import time

import numpy as np

from ebcommit.channels import DepolarizingChannel, lift_apply
from ebcommit.cli import main
from ebcommit.entanglement import (
    concurrence,
    eb_threshold,
    is_separable,
)
from ebcommit.linalg import eig_hermitian, partial_transpose, trace_distance
from ebcommit.protocol import EprAlice, HonestAlice, ProtocolConfig, run_session, sweep
from ebcommit.security import alice_binding_attack, bell_strategy, bob_cheat_probability
from ebcommit.states import (
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    cheat_state,
)

from conftest import random_density_matrix, random_hermitian, random_pure_state
from reference import (
    factorization_residual,
    fidelity,
    isotropic,
    joint_outcome_decomposition,
    receiver_marginal,
    sessions_summary,
)

ZERO = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


def test_criterion_1_separability_threshold():
    start = time.monotonic()
    q_star = eb_threshold()
    assert q_star == 1 / 3
    for q in np.linspace(0.0, 1.0, 101):
        min_eig = eig_hermitian(partial_transpose(isotropic(q).mat))[-1]
        assert abs(min_eig - (1 - 3 * q) / 4) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: threshold {q_star:.10f}, PT spectrum verified on 101 points "
          f"({elapsed:.2f} s): PASS")


def test_criterion_2_factorization_law():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        x = random_pure_state(rng, 4)
        for q in np.linspace(0.0, 1.0, 11):
            worst = max(worst, factorization_residual(x, DepolarizingChannel(q)))
    assert worst <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\ncriterion 2: max residual {worst:.2e} over 200 states x 11 q "
          f"({elapsed:.2f} s): PASS")


def test_criterion_3_disentangling_claim():
    rng = np.random.default_rng(3)
    worst_c = 0.0
    for _ in range(100):
        rho = cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
        for q in (0.1, 0.2, 0.3, 1 / 3):
            out = lift_apply(DepolarizingChannel(q), rho)
            c = concurrence(out)
            worst_c = max(worst_c, c)
            assert c <= 1e-10
            assert is_separable(out)
    bell = cheat_state([1, 0], [0, 1])
    for q in (0.4, 0.7, 1.0):
        c = concurrence(lift_apply(DepolarizingChannel(q), bell))
        assert abs(c - (3 * q - 1) / 2) <= 1e-9
    print(f"\ncriterion 3: max concurrence below threshold {worst_c:.2e}, "
          f"Bell curve matches (3q-1)/2: PASS")


def test_criterion_4_honest_statistics():
    start = time.monotonic()
    for q in (0.2, 0.5, 0.8):
        within = 0
        for seed in range(1, 21):
            config = ProtocolConfig(q=q, rounds=100000, seed=seed)
            _, report = run_session(config, HonestAlice(bit=0))
            p = report.expected_fraction
            sigma = math.sqrt(p * (1 - p) / report.sifted_count)
            if abs(report.match_fraction - p) <= 3 * sigma:
                within += 1
            assert report.match_fraction >= q / 2  # the loose one-sided bound
        assert within >= 19, f"q={q}: only {within}/20 runs within 3 sigma"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\ncriterion 4: 3-sigma concentration and q/2 bound over 60 runs "
          f"({elapsed:.1f} s): PASS")


def test_criterion_5_perfect_hiding():
    report = bob_cheat_probability(
        bb84_pair_mixture(0), bb84_pair_mixture(1), DepolarizingChannel(0.5)
    )
    assert report.delta_raw <= 1e-12
    assert report.delta_channel <= 1e-12
    assert report.p_bcheat == 0.5
    print(f"\ncriterion 5: p_bcheat = {report.p_bcheat}, deltas "
          f"({report.delta_raw:.1e}, {report.delta_channel:.1e}): PASS")


def test_criterion_6_binding_curve():
    strategy = bell_strategy()
    values = []
    for q in np.linspace(0.0, 1.0, 11):
        report = alice_binding_attack(strategy, DepolarizingChannel(q), ZERO)
        values.append(report.best_fidelity_sq)
    assert abs(values[0] - 0.5) <= 1e-9
    assert abs(values[-1] - 1.0) <= 1e-9
    assert all(b - a >= -1e-10 for a, b in zip(values, values[1:]))

    thetas = np.linspace(0.0, math.pi, 17)
    phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    for q in (0.2, 1 / 3):
        rho = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
        marginal = receiver_marginal(rho.mat)
        for theta in thetas:
            for phi in phis:
                basis = ProjectiveBasis(float(theta), float(phi))
                avg = np.zeros((2, 2), dtype=complex)
                for p, cond in joint_outcome_decomposition(rho, "A", basis):
                    if cond is not None:
                        avg += p * cond.mat
                assert np.abs(avg - marginal).max() <= 1e-10
    print(f"\ncriterion 6: endpoints ({values[0]:.10f}, {values[-1]:.10f}), "
          f"nondecreasing, no-signalling on full grid: PASS")


def test_criterion_7_determinism(capsys):
    argv = [
        "sweep", "--q-min", "0.0", "--q-max", "1.0", "--q-steps", "5",
        "--rounds", "500", "--trials", "3", "--seed", "77", "--format", "csv",
    ]
    assert main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    argv_json = ["run", "--q", "0.8", "--rounds", "1000", "--seed", "77"]
    assert main(list(argv_json)) == 0
    doc1 = capsys.readouterr().out
    assert main(list(argv_json)) == 0
    doc2 = capsys.readouterr().out
    assert doc1 == doc2
    json.loads(doc1)

    config = ProtocolConfig(q=0.5, rounds=400, seed=77)
    scenario = EprAlice(strategy=bell_strategy(), target_bit=0)
    assert next(sweep([config], scenario, trials=6)) == sessions_summary(config, scenario, 6)
    print("\ncriterion 7: byte-identical CLI reruns, monte carlo trials equal to "
          "their sessions: PASS")


def test_criterion_8_numerical_core():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        m = random_hermitian(rng, 4)
        w, v = eig_hermitian(m, vectors=True)
        assert np.abs(m - (v * w) @ v.conj().T).max() <= 1e-10
    worst_low, worst_high = 0.0, 0.0
    for _ in range(1000):
        a = random_density_matrix(rng, 4)
        b = random_density_matrix(rng, 4)
        d = trace_distance(a, b)
        f = fidelity(a, b)
        worst_low = max(worst_low, (1 - f) - d)
        worst_high = max(worst_high, d - math.sqrt(max(0.0, 1 - f * f)))
    assert worst_low <= 1e-9
    assert worst_high <= 1e-9
    print(f"\ncriterion 8: eig reconstruction <= 1e-10 on 1000 matrices, "
          f"sandwich slack ({worst_low:.1e}, {worst_high:.1e}): PASS")
