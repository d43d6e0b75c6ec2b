"""Command-line experiment runner.

Five subcommands: ``run`` (one protocol session), ``sweep`` (Monte Carlo
over a q grid), ``threshold`` (entanglement-breaking boundary),
``hiding`` and ``binding`` (security metrics). Tables come out as CSV,
with floats formatted to 12 significant digits, or as a JSON object with
``meta`` and ``rows``, with floats in Python's shortest round-trip form.
Every run is reproducible from --seed.

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
    run_session,
    sweep,
)
from .security import _binding_helstrom, bob_cheat_probability
from .states import CheatStrategy, DensityMatrix, ProjectiveBasis, _check_q, bb84_pair_mixture

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage(flag: str | None = None):
    """Re-raise a library ValueError as a usage error, prefixed by ``flag`` if one is given."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


_NAMED_VECTORS = {
    "zero": np.array([1, 0], dtype=complex),
    "one": np.array([0, 1], dtype=complex),
    "plus": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "minus": np.array([1, -1], dtype=complex) / math.sqrt(2),
}
for _vector in _NAMED_VECTORS.values():  # _parse_vector hands out these very arrays
    _vector.setflags(write=False)


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
    with _usage(flag):
        return ProjectiveBasis(theta, phi).vectors()[0]


def _q_arg(flag: str, q: float) -> float:
    """``q`` if it is a noise parameter in [0, 1], else a usage error naming ``flag``.

    -0.0 comes back as 0.0, so that no row or meta prints a q of -0.
    """
    with _usage(flag):
        _check_q(q)
    return q + 0.0


def _parse_state(spec: str, flag: str) -> DensityMatrix:
    """State spec: additionally accepts the bb84-0 / bb84-1 pair mixtures."""
    if spec in ("bb84-0", "bb84-1"):
        return bb84_pair_mixture(int(spec[-1]))
    return DensityMatrix.from_pure(_parse_vector(spec, flag))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
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


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder with each item of a dict ``depth`` levels deep on its own line."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


def _flat_json(d: dict, depth: int) -> str:
    """``json.dumps(d, indent=2)`` of a flat dict ``depth`` levels deep in its document."""
    if not d:
        return "{}"
    pad = "\n" + "  " * depth
    # only the braces move from the C encoder's text, onto lines of their own
    return "{" + pad + "  " + _flat_encoder(depth).encode(d)[1:-1] + pad + "}"


def _json_report(meta: dict, rows: list[dict]) -> str:
    """The text of ``json.dumps({"meta": meta, "rows": rows}, indent=2)``, from json's C encoder.

    CPython's C encoder serves only ``indent=None``, so ``indent=2`` runs
    the pure-Python one. For a flat dict the indented text is the C
    encoder's with ``",\\n"`` and the indent as item separator, between
    braces on their own lines. Takes flat dicts only: every value a str,
    a number, a bool or None, as in every meta and row the CLI emits; a
    nested container would come out on one line.
    """
    body = ",\n    ".join(_flat_json(row, 2) for row in rows)
    rows_text = "[\n    " + body + "\n  ]" if rows else "[]"
    return '{\n  "meta": ' + _flat_json(meta, 1) + ',\n  "rows": ' + rows_text + "\n}"


def _emit(meta: dict, rows: list[dict], fmt: str, path: str) -> None:
    if fmt == "json":
        text = _json_report(meta, rows) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0])  # every command emits at least one row
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


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each subcommand's own parser, by name."""
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

    p_threshold = sub.add_parser("threshold", help="print the entanglement-breaking boundary")

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

    return parser, {"run": p_run, "sweep": p_sweep, "threshold": p_threshold,
                    "hiding": p_hide, "binding": p_bind}


def _meta(args) -> dict:
    """Resolved flags but --format/--output, plus the version, in definition order."""
    meta = {"command": args.command, "version": __version__}
    for key, value in vars(args).items():
        if key not in ("command", "format", "output"):
            meta[key] = value
    return meta


def _build_config(args, q: float) -> ProtocolConfig:
    with _usage():
        return ProtocolConfig(q=q, rounds=args.rounds, accept_sigma=args.accept_sigma,
                              seed=args.seed)


def _build_scenario(args) -> HonestAlice | EprAlice:
    # The cheater flags are parsed for every sender, so a malformed one is a
    # usage error even where the honest sender ignores it.
    strategy = _build_strategy(args.a0, args.a1)
    # theta alone first, so that an error names the flag that caused it
    for flag, angles in (("--steer-theta", (args.steer_theta, 0.0)),
                         ("--steer-phi", (args.steer_theta, args.steer_phi))):
        with _usage(flag):
            steer = ProjectiveBasis(*angles)
    if args.alice == "honest":
        return HonestAlice(bit=args.bit)
    target = args.bit if args.target_bit is None else args.target_bit
    return EprAlice(strategy=strategy, target_bit=target, steer_basis=steer)


def _build_strategy(a0_spec: str, a1_spec: str) -> CheatStrategy:
    # _parse_vector gives normalized 2-vectors only, which CheatStrategy accepts
    return CheatStrategy(a0=_parse_vector(a0_spec, "--a0"), a1=_parse_vector(a1_spec, "--a1"))


# Records per write: bounds the dump's memory whatever the round count.
# A slice of a thousand records starts at a multiple of 1000, so its round
# numbers share their leading digits and differ only in the last three,
# which `_low_digits` caches. Each write's text is about 155 kB; at 4096
# records (about 0.7 MB) glibc malloc mapped fresh pages for it and a
# 1e5-round dump ran ~20% slower.
_RECORDS_PER_WRITE = 1000


@functools.cache
def _low_digits() -> tuple[list[str], list[str]]:
    """The last three digits of each round number of a slice.

    Returns ``str(r)`` for rounds 0-999, the first slice, whose numbers
    have no leading digits, and ``f"{r:03d}"`` for every later slice.
    """
    return [str(r) for r in range(1000)], [f"{r:03d}" for r in range(1000)]


# the transcript list's opener, item separator and closer at its depth
_TRANSCRIPT_LIST = json.dumps({"transcript": [0, 0]}, indent=2).split("0")


@functools.cache
def _record_texts(opened_bit: int) -> tuple[str, str, tuple[str, ...]]:
    """json.dumps(indent=2) of a record in the transcript list, split at its round number.

    Returns the text before the number of the first record, the same text
    for every later record (item separator included), and the text after
    the number for each round class 4b + 2o + v (receiver basis b and
    outcome o, announced variant v) of a session opened as
    ``opened_bit``; ``matched`` is null on unsifted rounds. The dump
    writer joins these pieces with the round numbers' digits and formats
    no record of its own.
    """
    opener, sep, closer = _TRANSCRIPT_LIST
    tails = []
    for basis, outcome, variant in itertools.product((0, 1), repeat=3):
        sifted = basis == opened_bit
        record = {"round": 0, "bob_basis": basis, "bob_outcome": outcome,
                  "announced_variant": variant, "sifted": sifted,
                  "matched": outcome == variant if sifted else None}
        text = json.dumps({"transcript": [record]}, indent=2)
        pre, tail = text.removeprefix(opener).removesuffix(closer).split("0", 1)
        tails.append(tail)
    return pre, sep + pre, tuple(tails)


def _write_transcript_doc(fh, meta: dict, rows: list[dict], transcript) -> None:
    """Write the JSON report with a ``transcript`` list, one record per round.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` of the document
    with one dict per round, but it is written in slices of
    ``_RECORDS_PER_WRITE`` records straight from the transcript's round
    classes, so memory stays bounded in the round count. A slice is one
    join of cached strings: each round number's last three digits, then
    its record's tail with the next round's leading digits. The tails of
    a slice come from one numpy gather, an 8-entry object array of those
    strings indexed by the slice's int8 class column, so no Python step
    runs per round.
    """
    opener, _, closer = _TRANSCRIPT_LIST
    first, later, tails = _record_texts(transcript.opened_bit)
    first_low, low = _low_digits()
    rounds = transcript.config.rounds
    # the report up to its closing "\n}", then the list's opener after its "{"
    fh.write(_json_report(meta, rows)[:-2] + "," + opener[1:] + first)
    pieces = []
    for m, start in enumerate(range(0, rounds, _RECORDS_PER_WRITE)):
        chunk = transcript.classes[start:start + _RECORDS_PER_WRITE]
        c = len(chunk)
        # reuse the pieces: the low digits change only after the first slice,
        # and the length only in a short last one
        if m < 2 or c < _RECORDS_PER_WRITE:
            pieces = [None] * (2 * c)
            pieces[0::2] = (low if m else first_low)[:c]
        # a record's tail, the item separator and the next round's leading digits
        lead = str(m) if m else ""
        after = np.array([tail + later + lead for tail in tails], dtype=object)
        pieces[1::2] = after[chunk].tolist()
        # the slice's last record leads into slice m + 1, or ends the list
        pieces[-1] = tails[chunk[-1]] + (later + str(m + 1) if start + c < rounds else "")
        fh.write("".join(pieces))
    fh.write(closer + "\n")


def _cmd_run(args) -> int:
    if args.dump_transcript and args.format != "json":
        raise UsageError("--dump-transcript requires --format json")
    args.q = _q_arg("--q", args.q)
    config = _build_config(args, args.q)
    scenario = _build_scenario(args)
    try:
        transcript, report = run_session(config, scenario)
    except MemoryError as exc:
        hint = "sweep --trials 1 reports a session of any size"
        raise UsageError(f"--rounds: {exc}; {hint}") from None
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
    args.q_min = _q_arg("--q-min", args.q_min)
    args.q_max = _q_arg("--q-max", args.q_max)
    try:
        qs = np.linspace(args.q_min, args.q_max, args.q_steps).tolist()
    except (MemoryError, ValueError, IndexError):  # which one numpy raises depends on the size
        raise UsageError(f"--q-steps: {args.q_steps} q values are too many to lay out") from None
    scenario = _build_scenario(args)
    configs = [_build_config(args, q) for q in qs]
    summaries = sweep(configs, scenario, args.trials)
    try:
        rows = [
            {
                "q": q,
                "match_fraction_mean": summary.match_fraction_mean,
                "match_fraction_std": summary.match_fraction_std,
                "acceptance_rate": summary.acceptance_rate,
                "separable_fraction": summary.separable_fraction,
                "mean_concurrence_post_channel": summary.mean_concurrence,
            }
            for q, summary in zip(qs, summaries)
        ]
    except MemoryError as exc:  # the summaries draw their trials lazily, a chunk of q at a time
        raise UsageError(f"--trials: {exc}") from None
    _emit(_meta(args), rows, args.format, args.output)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    sys.stdout.write(f"{eb_threshold():.9f}\n")
    return EXIT_OK


def _cmd_hiding(args) -> int:
    sigma0 = _parse_state(args.sigma0, "--sigma0")
    sigma1 = _parse_state(args.sigma1, "--sigma1")
    args.q = _q_arg("--q", args.q)
    report = bob_cheat_probability(sigma0, sigma1, DepolarizingChannel(args.q))
    _emit(_meta(args), [dataclasses.asdict(report)], args.format, args.output)
    return EXIT_OK


def _cmd_binding(args) -> int:
    strategy = _build_strategy(args.a0, args.a1)
    target = _parse_state(args.target, "--target")
    # --q-grid overrides --q, but meta still echoes --q, so it must be a q
    args.q = _q_arg("--q", args.q)
    qs = [args.q]
    if args.q_grid is not None:
        try:
            grid = [float(tok) for tok in args.q_grid.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--q-grid: could not parse {args.q_grid!r}") from None
        if not grid:
            raise UsageError("--q-grid is empty")
        qs = [_q_arg("--q-grid", q) for q in grid]  # every q is checked before the target
    with _usage():
        helstrom = _binding_helstrom(strategy, target)  # decomposed once for every q
    rows = []
    for q in qs:
        report = helstrom.at(q)
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


# parse_args fills a fresh Namespace on every call, so one set of parsers
# serves every command of a process
_PARSER, _SUBPARSERS = _build_parser()


def main(argv=None) -> int:
    """Run the command ``argv`` names (default ``sys.argv[1:]``) and return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # An argv that starts with a subcommand's name goes to that subcommand's
        # parser alone: the top-level parser would classify every argument only
        # to hand them all to it. The rest, a missing, unknown or abbreviated
        # command, a flag before it, or a '--' (whose handling argparse has
        # changed between releases), goes through the top-level parser.
        sub = _SUBPARSERS.get(argv[0]) if argv and "--" not in argv else None
        if sub is None:
            args = _PARSER.parse_args(argv)
        else:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
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
