"""Workload command lists and the exact oracles that check their outputs.

A workload is a list of ``ebcommit`` CLI commands. Iteration ``i`` of a
workload draws its inputs (session seeds, bits, q values, cheat strategies,
targets) from a generator seeded by the workload name, the benchmark seed
and ``i``, so the same seed always gives the same commands.

Each oracle takes the command's output text and returns None
when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import hostspeed

FULL = "full"
TINY = "tiny"

#: Sweep match fractions must lie within this many binomial standard
#: deviations of (1+q)/2. A hundred full runs check a few thousand rows, so
#: 4 sigma (two-sided 6e-5 per row) would raise a false alarm in about one
#: such campaign in five; 5 sigma (6e-7 per row) in about one in five hundred.
SWEEP_SIGMAS = 5.0
EXACT_TOL = 1e-9
#: Lower slack of the default 64x64 steering grid against the Helstrom
#: optimum: the farthest Bloch direction from the grid is 0.055 rad away,
#: which costs at most (1 - cos 0.055)/2 = 7.6e-4.
GRID_SLACK = 1e-3

_SIZES = {
    # workload: {size: parameters}
    "sweep_long": {FULL: dict(q_steps=11, trials=20, rounds=10_000),
                   TINY: dict(q_steps=3, trials=2, rounds=2_000)},
    "sweep_short": {FULL: dict(q_steps=11, trials=200, rounds=100),
                    TINY: dict(q_steps=3, trials=10, rounds=100)},
    "security": {FULL: dict(bell_qs=(0.0, 0.5, 1.0)), TINY: dict(bell_qs=(1.0,))},
    "transcript": {FULL: dict(rounds=100_000), TINY: dict(rounds=2_000)},
}
WORKLOADS = tuple(_SIZES)
#: Host-speed probe per workload, the one most like its hot path.
PROBES = {"sweep_long": hostspeed.NUMPY, "sweep_short": hostspeed.NUMPY,
          "security": hostspeed.NUMPY, "transcript": hostspeed.JSON}


@dataclass
class Op:
    """One CLI command, the slot it fills in its list, and its oracle."""

    slot: str
    argv: list[str]
    check: Callable[[str], str | None] | None  # None: output is a file, checked apart
    rounds: int = 0
    ok_codes: tuple[int, ...] = (0,)
    output: str | None = None  # file the command writes, instead of stdout


def _rng(workload: str, seed: int, iteration) -> random.Random:
    return random.Random(f"{workload}:{seed}:{iteration}")


def _session_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _angles(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi - 1e-9)


def _spec(theta: float, phi: float) -> str:
    return f"{theta!r},{phi!r}"


def _vector(theta: float, phi: float) -> np.ndarray:
    phase = complex(math.cos(phi), math.sin(phi))
    return np.array([math.cos(theta / 2), phase * math.sin(theta / 2)])


def _rows(text: str) -> list[dict]:
    return json.loads(text)["rows"]


# ---------------------------------------------------------------- oracles


def check_sweep(text: str, q_steps: int, trials: int, rounds: int) -> str | None:
    """Bell cheater steered in the target's encoding basis: honest statistics."""
    rows = _rows(text)
    qs = np.linspace(0.0, 1.0, q_steps)
    if len(rows) != q_steps:
        return f"{len(rows)} rows for {q_steps} q values"
    n_sifted = trials * rounds / 2
    for row, q in zip(rows, qs):
        if abs(row["q"] - q) > EXACT_TOL:
            return f"row q {row['q']} != {q}"
        p = (1.0 + q) / 2.0
        sigma = math.sqrt(p * (1.0 - p) / n_sifted)
        if abs(row["match_fraction_mean"] - p) > SWEEP_SIGMAS * sigma + EXACT_TOL:
            return (f"q={q}: match_fraction_mean {row['match_fraction_mean']} vs {p} "
                    f"(sigma {sigma:.3g})")
        separable = 1.0 if 3.0 * q <= 1.0 else 0.0
        if row["separable_fraction"] != separable:
            return f"q={q}: separable_fraction {row['separable_fraction']} != {separable}"
        conc = max(0.0, (3.0 * q - 1.0) / 2.0)
        if abs(row["mean_concurrence_post_channel"] - conc) > EXACT_TOL:
            return f"q={q}: concurrence {row['mean_concurrence_post_channel']} != {conc}"
    return None


def check_bell_binding(text: str, qs) -> str | None:
    rows = _rows(text)
    if [r["q"] for r in rows] != list(qs):
        return f"binding rows for q {[r['q'] for r in rows]}, asked {list(qs)}"
    for row in rows:
        want = (1.0 + row["q"]) / 2.0
        if abs(row["best_fidelity_sq"] - want) > EXACT_TOL:
            return f"Bell q={row['q']}: {row['best_fidelity_sq']} != {want}"
    return None


def helstrom(a0: np.ndarray, a1: np.ndarray, q: float, target: np.ndarray) -> float:
    """Best steering objective (1 + ||X_t - X_t'||_1)/2 over all measurements on A.

    X_T = tr_B[(I x T) rho] with rho = (I x eps_q)(|psi><psi|) and
    |psi> ~ |a0>|0> + |a1>|1>. Computed with numpy alone, independently of
    the package under test.
    """
    psi = np.array([a0[0], a1[0], a0[1], a1[1]], dtype=complex)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    rho_a = np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))
    out = (q * rho + (1.0 - q) * np.kron(rho_a, np.eye(2) / 2)).reshape(2, 2, 2, 2)
    t = np.outer(target, target.conj())
    diff = t - (np.eye(2) - t)
    x_diff = np.einsum("bc,acdb->ad", diff, out)
    return (1.0 + float(np.abs(np.linalg.eigvalsh((x_diff + x_diff.conj().T) / 2)).sum())) / 2.0


def check_random_binding(text: str, h: float) -> str | None:
    (row,) = _rows(text)
    value = row["best_fidelity_sq"]
    if not h - GRID_SLACK <= value <= h + EXACT_TOL:
        return f"binding {value} outside [H - {GRID_SLACK}, H + {EXACT_TOL}], H = {h}"
    return None


def check_threshold(text: str) -> str | None:
    return None if text.strip() == "0.333333333" else f"threshold printed {text.strip()!r}"


def check_hiding(text: str) -> str | None:
    (row,) = _rows(text)
    return None if abs(row["p_bcheat"] - 0.5) <= 1e-12 else f"p_bcheat {row['p_bcheat']} != 0.5"


def check_transcript_doc(doc: dict, rounds: int) -> str | None:
    """The report's sifted and match counts equal a recount over the dumped records."""
    records = doc["transcript"]
    if len(records) != rounds:
        return f"{len(records)} transcript records for {rounds} rounds"
    sifted = sum(1 for r in records if r["sifted"])
    matched = sum(1 for r in records if r["sifted"] and r["matched"])
    row = doc["rows"][0]
    if (row["sifted_count"], row["match_count"]) != (sifted, matched):
        return (f"report says {row['sifted_count']} sifted / {row['match_count']} matched, "
                f"records say {sifted} / {matched}")
    return None


# ------------------------------------------------------------- workloads


def _sweep(rng: random.Random, q_steps: int, trials: int, rounds: int) -> Op:
    bit = rng.randrange(2)
    steer_theta = 0.0 if bit == 0 else math.pi / 2  # encoding basis of the opened bit
    argv = ["sweep", "--alice", "epr", "--q-min", "0", "--q-max", "1",
            "--q-steps", str(q_steps), "--trials", str(trials), "--rounds", str(rounds),
            "--workers", "1", "--seed", _session_seed(rng), "--bit", str(bit),
            "--target-bit", str(bit), "--steer-theta", repr(steer_theta), "--steer-phi", "0"]

    def check(text):
        return check_sweep(text, q_steps, trials, rounds)

    return Op("sweep", argv, check, rounds=q_steps * trials * rounds)


def _security(rng: random.Random, bell_qs) -> list[Op]:
    bell_target = rng.choice(("zero", "one"))
    bell = Op("binding_bell",
              ["binding", "--q-grid", ",".join(repr(q) for q in bell_qs), "--target", bell_target],
              lambda text: check_bell_binding(text, bell_qs))
    a0, a1, t = _angles(rng), _angles(rng), _angles(rng)
    q = rng.random()
    h = helstrom(_vector(*a0), _vector(*a1), q, _vector(*t))
    strategy = Op("binding_random",
                  ["binding", "--a0", _spec(*a0), "--a1", _spec(*a1), "--target", _spec(*t),
                   "--q", repr(q)],
                  lambda text: check_random_binding(text, h))
    threshold = Op("threshold", ["threshold"], check_threshold)
    hiding = Op("hiding", ["hiding", "--q", repr(rng.random())], check_hiding)
    return [bell, strategy, threshold, hiding]


def _transcript(rng: random.Random, rounds: int, workdir: str) -> list[Op]:
    ops = []
    for alice in ("honest", "epr"):
        path = f"{workdir}/transcript-{alice}.json"
        argv = ["run", "--alice", alice, "--q", repr(rng.random()), "--rounds", str(rounds),
                "--bit", str(rng.randrange(2)), "--seed", _session_seed(rng),
                "--dump-transcript", "--output", path]
        if alice == "epr":
            theta, phi = _angles(rng)
            argv += ["--target-bit", str(rng.randrange(2)),
                     "--steer-theta", repr(theta), "--steer-phi", repr(phi)]
        # Exit 2 is a legitimate reject; the oracle recounts the dump in a
        # child process (see check_transcript.py).
        ops.append(Op(f"run_{alice}", argv, None, rounds=rounds, ok_codes=(0, 2), output=path))
    return ops


def command_list(workload: str, seed: int, iteration: int, size: str, workdir: str) -> list[Op]:
    rng = _rng(workload, seed, iteration)
    params = _SIZES[workload][size]
    if workload.startswith("sweep"):
        return [_sweep(rng, **params)]
    if workload == "security":
        return _security(rng, **params)
    return _transcript(rng, workdir=workdir, **params)


def warmup_list(workload: str, seed: int) -> list[Op]:
    """Cheap commands that load every module and finish numpy/LAPACK lazy set-up."""
    rng = _rng(workload, seed, "warmup")
    return [
        _sweep(rng, q_steps=2, trials=2, rounds=64),
        Op("run", ["run", "--alice", "epr", "--q", "0.5", "--rounds", "64",
                   "--seed", _session_seed(rng), "--dump-transcript"],
           lambda text: check_transcript_doc(json.loads(text), 64), ok_codes=(0, 2)),
        Op("hiding", ["hiding"], check_hiding),
        Op("threshold", ["threshold"], check_threshold),
    ]
