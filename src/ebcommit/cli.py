"""Command-line experiment runner.

Five subcommands: ``run`` (one protocol session), ``sweep`` (Monte Carlo
over a q grid), ``threshold`` (entanglement-breaking boundary),
``hiding`` and ``binding`` (security metrics). Tables come out as CSV or
as a JSON object with ``meta`` and ``rows``; all numbers are formatted
to 12 significant digits and every run is reproducible from --seed.

Exit codes: 0 success or accept, 2 protocol reject, 1 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .channels import DepolarizingChannel
from .entanglement import eb_threshold
from .protocol import (
    EprAlice,
    HonestAlice,
    ProtocolConfig,
    monte_carlo,
    run_session,
)
from .security import alice_binding_attack, bob_cheat_probability
from .states import CheatStrategy, DensityMatrix, ProjectiveBasis, bb84_pair_mixture

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


_NAMED_VECTORS = {
    "zero": np.array([1, 0], dtype=complex),
    "one": np.array([0, 1], dtype=complex),
    "plus": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "minus": np.array([1, -1], dtype=complex) / math.sqrt(2),
}


def _parse_vector(spec: str, flag: str) -> np.ndarray:
    """Pure-state spec: a name (zero/one/plus/minus) or 'theta,phi' Bloch angles."""
    if spec in _NAMED_VECTORS:
        return _NAMED_VECTORS[spec]
    try:
        theta_s, phi_s = spec.split(",")
        theta, phi = float(theta_s), float(phi_s)
    except ValueError:
        raise UsageError(
            f"{flag}: expected one of {sorted(_NAMED_VECTORS)} or 'theta,phi', got {spec!r}"
        ) from None
    try:
        return ProjectiveBasis(theta, phi).vectors()[0]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_state(spec: str, flag: str) -> DensityMatrix:
    """State spec: additionally accepts the bb84-0 / bb84-1 pair mixtures."""
    if spec == "bb84-0":
        return bb84_pair_mixture(0)
    if spec == "bb84-1":
        return bb84_pair_mixture(1)
    return DensityMatrix.from_pure(_parse_vector(spec, flag), (2,))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _emit(meta: dict, rows: list[dict], fmt: str, path: str, extra: dict | None = None) -> None:
    if fmt == "json":
        doc = {"meta": meta, "rows": rows}
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        if extra:
            raise UsageError("--dump-transcript requires --format json")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in header])
        text = buf.getvalue()
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--bit", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alice", choices=("honest", "epr"), default="honest")
    p.add_argument("--accept-sigma", type=float, default=3.0)
    p.add_argument("--a0", default="zero", help="cheat amplitude for the B=|0> branch")
    p.add_argument("--a1", default="one", help="cheat amplitude for the B=|1> branch")
    p.add_argument("--target-bit", type=int, choices=(0, 1), default=None,
                   help="bit the cheater opens (default: --bit)")
    p.add_argument("--steer-theta", type=float, default=0.0)
    p.add_argument("--steer-phi", type=float, default=0.0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ebcommit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one commitment session")
    p_run.add_argument("--q", type=float, required=True)
    _add_session_flags(p_run)
    p_run.add_argument("--dump-transcript", action="store_true")
    _add_output_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo over a q grid")
    p_sweep.add_argument("--q-min", type=float, default=0.0)
    p_sweep.add_argument("--q-max", type=float, default=1.0)
    p_sweep.add_argument("--q-steps", type=int, default=11)
    _add_session_flags(p_sweep)
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="concurrent trials; results are worker-count independent")
    _add_output_flags(p_sweep)

    p_thr = sub.add_parser("threshold", help="locate the entanglement-breaking boundary")
    p_thr.add_argument("--lo", type=float, default=0.0)
    p_thr.add_argument("--hi", type=float, default=1.0)
    p_thr.add_argument("--tol", type=float, default=1e-9, help="bisection width")

    p_hide = sub.add_parser("hiding", help="receiver's distinguishing bound")
    p_hide.add_argument("--sigma0", default="bb84-0")
    p_hide.add_argument("--sigma1", default="bb84-1")
    p_hide.add_argument("--q", type=float, default=0.5)
    _add_output_flags(p_hide)

    p_bind = sub.add_parser("binding", help="cheating sender's steering objective")
    p_bind.add_argument("--a0", default="zero")
    p_bind.add_argument("--a1", default="one")
    p_bind.add_argument("--target", default="zero")
    p_bind.add_argument("--q", type=float, default=1.0)
    p_bind.add_argument("--q-grid", default=None,
                        help="comma-separated q values; overrides --q")
    _add_output_flags(p_bind)

    return parser


def _meta(args, skip=("format", "output")) -> dict:
    """Full resolved flag set plus the artifact version, in definition order."""
    meta = {"command": args.command, "version": __version__}
    for key, value in vars(args).items():
        if key != "command" and key not in skip:
            meta[key] = value
    return meta


def _build_config(args, q: float) -> ProtocolConfig:
    try:
        return ProtocolConfig(
            q=q,
            rounds=args.rounds,
            accept_sigma=args.accept_sigma,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_scenario(args) -> HonestAlice | EprAlice:
    if args.alice == "honest":
        return HonestAlice(bit=args.bit)
    strategy = _build_strategy(args.a0, args.a1)
    target = args.bit if args.target_bit is None else args.target_bit
    try:
        steer = ProjectiveBasis(args.steer_theta, args.steer_phi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return EprAlice(strategy=strategy, target_bit=target, steer_basis=steer, intent_bit=args.bit)


def _build_strategy(a0_spec: str, a1_spec: str) -> CheatStrategy:
    a0 = _parse_vector(a0_spec, "--a0")
    a1 = _parse_vector(a1_spec, "--a1")
    try:
        return CheatStrategy(a0=a0, a1=a1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _report_row(report) -> dict:
    return {
        "sifted_count": report.sifted_count,
        "match_count": report.match_count,
        "match_fraction": report.match_fraction,
        "expected_fraction": report.expected_fraction,
        "threshold": report.threshold,
        "accepted": report.accepted,
        "no_sifted_rounds": report.no_sifted_rounds,
    }


def _transcript_rows(transcript) -> list[dict]:
    """One dict per round; ``matched`` is null on unsifted rounds."""
    n = transcript.config.rounds
    alice = [None] * n if transcript.alice_outcome is None else transcript.alice_outcome.tolist()
    columns = zip(
        transcript.bob_basis.tolist(),
        transcript.bob_outcome.tolist(),
        transcript.announced_variant.tolist(),
        alice,
        transcript.sifted.tolist(),
        transcript.matched.tolist(),
    )
    return [
        {
            "round": i,
            "bob_basis": basis,
            "bob_outcome": outcome,
            "announced_variant": variant,
            "alice_outcome": a,
            "sifted": sifted,
            "matched": matched if sifted else None,
        }
        for i, (basis, outcome, variant, a, sifted, matched) in enumerate(columns)
    ]


def _cmd_run(args) -> int:
    config = _build_config(args, args.q)
    scenario = _build_scenario(args)
    transcript, report = run_session(config, scenario)
    meta = _meta(args)
    extra = {"transcript": _transcript_rows(transcript)} if args.dump_transcript else None
    _emit(meta, [_report_row(report)], args.format, args.output, extra)
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_sweep(args) -> int:
    if args.q_steps < 1:
        raise UsageError("--q-steps must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.q_steps == 1:
        qs = [args.q_min]
    else:
        qs = list(np.linspace(args.q_min, args.q_max, args.q_steps))
    scenario = _build_scenario(args)
    rows = []
    for q in qs:
        config = _build_config(args, float(q))
        summary = monte_carlo(config, scenario, args.trials, workers=args.workers)
        rows.append(
            {
                "q": float(q),
                "match_fraction_mean": summary.match_fraction_mean,
                "match_fraction_std": summary.match_fraction_std,
                "acceptance_rate": summary.acceptance_rate,
                "separable_fraction": summary.separable_fraction,
                "mean_concurrence_post_channel": summary.mean_concurrence,
            }
        )
    _emit(_meta(args), rows, args.format, args.output)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    try:
        q_star = eb_threshold(DepolarizingChannel, args.lo, args.hi, width=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(f"{q_star:.9f}\n")
    return EXIT_OK


def _cmd_hiding(args) -> int:
    sigma0 = _parse_state(args.sigma0, "--sigma0")
    sigma1 = _parse_state(args.sigma1, "--sigma1")
    try:
        channel = DepolarizingChannel(args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = bob_cheat_probability(sigma0, sigma1, channel)
    rows = [
        {
            "delta_raw": report.delta_raw,
            "delta_channel": report.delta_channel,
            "p_bcheat": report.p_bcheat,
        }
    ]
    _emit(_meta(args), rows, args.format, args.output)
    return EXIT_OK


def _cmd_binding(args) -> int:
    strategy = _build_strategy(args.a0, args.a1)
    target = _parse_state(args.target, "--target")
    if args.q_grid is not None:
        try:
            qs = [float(tok) for tok in args.q_grid.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--q-grid: could not parse {args.q_grid!r}") from None
        if not qs:
            raise UsageError("--q-grid is empty")
    else:
        qs = [args.q]
    rows = []
    for q in qs:
        try:
            report = alice_binding_attack(strategy, DepolarizingChannel(q), target)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        rows.append(
            {
                "q": q,
                "best_theta": report.best_basis.theta,
                "best_phi": report.best_basis.phi,
                "best_fidelity_sq": report.best_fidelity_sq,
            }
        )
    _emit(_meta(args), rows, args.format, args.output)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "hiding": _cmd_hiding,
    "binding": _cmd_binding,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"ebcommit: error: {exc}\n")
        return EXIT_USAGE


def run_main() -> None:
    sys.exit(main())
