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
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
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
from .states import CheatStrategy, DensityMatrix, ProjectiveBasis, _check_q, bb84_pair_mixture

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


def _q_arg(flag: str, q: float) -> float:
    """``q`` if it is a noise parameter in [0, 1], else a usage error naming ``flag``."""
    try:
        _check_q(q)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    return q


def _parse_state(spec: str, flag: str) -> DensityMatrix:
    """State spec: additionally accepts the bb84-0 / bb84-1 pair mixtures."""
    if spec == "bb84-0":
        return bb84_pair_mixture(0)
    if spec == "bb84-1":
        return bb84_pair_mixture(1)
    return DensityMatrix.from_pure(_parse_vector(spec, flag))


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


@contextlib.contextmanager
def _open_output(path: str):
    """The stream ``--output`` names: stdout for '-', else the file, closed on exit.

    A file that cannot be opened, written or closed is a usage error naming
    ``--output``; errors writing to stdout are left to :func:`run_main`.
    """
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"--output: {exc}") from None


def _emit(meta: dict, rows: list[dict], fmt: str, path: str) -> None:
    if fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in header])
        text = buf.getvalue()
    with _open_output(path) as fh:
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
                         help="accepted and echoed in meta; trials run in one thread")
    _add_output_flags(p_sweep)

    sub.add_parser("threshold", help="print the entanglement-breaking boundary")

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


def _meta(args) -> dict:
    """Resolved flags but --format/--output, plus the version, in definition order."""
    meta = {"command": args.command, "version": __version__}
    for key, value in vars(args).items():
        if key not in ("command", "format", "output"):
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
    # The cheater flags are parsed for every sender, so a malformed one is a
    # usage error even where the honest sender ignores it.
    strategy = _build_strategy(args.a0, args.a1)
    # theta alone first, so that an error names the flag that caused it
    for flag, angles in (("--steer-theta", (args.steer_theta, 0.0)),
                         ("--steer-phi", (args.steer_theta, args.steer_phi))):
        try:
            steer = ProjectiveBasis(*angles)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None
    if args.alice == "honest":
        return HonestAlice(bit=args.bit)
    target = args.bit if args.target_bit is None else args.target_bit
    return EprAlice(strategy=strategy, target_bit=target, steer_basis=steer)


def _build_strategy(a0_spec: str, a1_spec: str) -> CheatStrategy:
    a0 = _parse_vector(a0_spec, "--a0")
    a1 = _parse_vector(a1_spec, "--a1")
    try:
        return CheatStrategy(a0=a0, a1=a1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# Every field of a transcript record after ``round`` takes one of these
# values, so a record is its round number plus one of 144 field classes.
_RECORD_FIELDS = (
    ("bob_basis", (0, 1)),
    ("bob_outcome", (0, 1)),
    ("announced_variant", (0, 1)),
    ("alice_outcome", (None, 0, 1)),
    ("sifted", (False, True)),
    ("matched", (None, False, True)),
)

# Records per write: bounds the dump's memory whatever the round count.
_RECORDS_PER_WRITE = 4096


@functools.cache
def _record_texts() -> tuple[str, str, tuple[str, ...]]:
    """json.dumps(indent=2) of a record in the transcript list, split at its round number.

    Returns the text before the number of the first record, the same text
    for every later record (item separator included), and the text after
    the number for each class code: the mixed-radix index of the record's
    values in ``_RECORD_FIELDS``.
    """
    # the list's opener, item separator and closer at the transcript's depth
    opener, sep, closer = json.dumps({"transcript": [0, 0]}, indent=2).split("0")
    names = [name for name, _ in _RECORD_FIELDS]
    tails = []
    for values in itertools.product(*(choices for _, choices in _RECORD_FIELDS)):
        record = {"round": 0, **dict(zip(names, values))}
        text = json.dumps({"transcript": [record]}, indent=2)
        pre, tail = text.removeprefix(opener).removesuffix(closer).split("0", 1)
        tails.append(tail)
    return pre, sep + pre, tuple(tails)


def _record_classes(transcript) -> np.ndarray:
    """Class code of each round's record; ``matched`` is null on unsifted rounds."""
    sifted = transcript.sifted
    alice = 0 if transcript.alice_outcome is None else transcript.alice_outcome + 1
    digits = (
        transcript.bob_basis,
        transcript.bob_outcome,
        transcript.announced_variant,
        alice,
        sifted,
        np.where(sifted, transcript.matched + 1, 0),
    )
    codes = np.zeros(transcript.config.rounds, dtype=np.intp)
    for (_, choices), digit in zip(_RECORD_FIELDS, digits):
        codes = codes * len(choices) + digit
    return codes


def _write_transcript_doc(fh, meta: dict, rows: list[dict], transcript) -> None:
    """Write the JSON report with a ``transcript`` list, one record per round.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` of the document
    with one dict per round, but it is written in slices straight from the
    columns, so memory stays bounded in the round count.
    """
    doc = json.dumps({"meta": meta, "rows": rows, "transcript": [0]}, indent=2)
    head, foot = doc.rsplit("0", 1)
    first, later, tails = _record_texts()
    codes = _record_classes(transcript)
    fh.write(head + first)
    for start in range(0, len(codes), _RECORDS_PER_WRITE):
        chunk = codes[start:start + _RECORDS_PER_WRITE].tolist()
        records = [f"{i}{tails[code]}" for i, code in enumerate(chunk, start)]
        fh.write((later if start else "") + later.join(records))
    fh.write(foot + "\n")


def _cmd_run(args) -> int:
    if args.dump_transcript and args.format != "json":
        raise UsageError("--dump-transcript requires --format json")
    config = _build_config(args, _q_arg("--q", args.q))
    scenario = _build_scenario(args)
    transcript, report = run_session(config, scenario)
    meta = _meta(args)
    rows = [dataclasses.asdict(report)]
    if args.dump_transcript:
        with _open_output(args.output) as fh:
            _write_transcript_doc(fh, meta, rows, transcript)
    else:
        _emit(meta, rows, args.format, args.output)
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_sweep(args) -> int:
    if args.q_steps < 1:
        raise UsageError("--q-steps must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    _q_arg("--q-min", args.q_min)
    _q_arg("--q-max", args.q_max)
    if args.q_steps == 1:
        qs = [args.q_min]
    else:
        qs = list(np.linspace(args.q_min, args.q_max, args.q_steps))
    scenario = _build_scenario(args)
    rows = []
    for q in qs:
        config = _build_config(args, float(q))
        summary = monte_carlo(config, scenario, args.trials)
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
    sys.stdout.write(f"{eb_threshold():.9f}\n")
    return EXIT_OK


def _cmd_hiding(args) -> int:
    sigma0 = _parse_state(args.sigma0, "--sigma0")
    sigma1 = _parse_state(args.sigma1, "--sigma1")
    channel = DepolarizingChannel(_q_arg("--q", args.q))
    report = bob_cheat_probability(sigma0, sigma1, channel)
    _emit(_meta(args), [dataclasses.asdict(report)], args.format, args.output)
    return EXIT_OK


def _cmd_binding(args) -> int:
    strategy = _build_strategy(args.a0, args.a1)
    target = _parse_state(args.target, "--target")
    if args.q_grid is not None:
        # --q-grid overrides --q, but meta still echoes --q, so it must be a q
        _q_arg("--q", args.q)
        try:
            qs = [float(tok) for tok in args.q_grid.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--q-grid: could not parse {args.q_grid!r}") from None
        if not qs:
            raise UsageError("--q-grid is empty")
        flag = "--q-grid"
    else:
        qs, flag = [args.q], "--q"
    rows = []
    for q in qs:
        channel = DepolarizingChannel(_q_arg(flag, q))
        try:
            report = alice_binding_attack(strategy, channel, target)
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
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # Stdout cannot take the report. A reader that left early (say,
        # `| head`) needs no message; any other failure, such as a full
        # disk, gets one. Point stdout at devnull so the interpreter's final
        # flush of what is still buffered does not fail.
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"ebcommit: error: stdout: {exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)
