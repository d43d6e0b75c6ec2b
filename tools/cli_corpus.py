"""Run a fixed, seeded corpus of CLI commands in-process and print one sha256.

Usage::

    python tools/cli_corpus.py SRC_DIR [--each]

SRC_DIR is the directory that holds the ``ebcommit`` package (``src`` in a
checkout). Every command of the corpus runs through ``ebcommit.cli.main``
with stdout and stderr captured, and the digest covers, command by command,
its argv, exit code, stdout and stderr. Two source trees print the same
digest exactly when every command behaves the same byte for byte, so a
change that must keep the CLI's outputs is checked by running this script
on the tree before and after it, with the same Python and numpy. ``--each``
also prints one line per command (its own digest and argv), to find which
outputs differ.

The corpus covers honest and EPR ``run`` with and without
``--dump-transcript``, CSV and JSON sweeps (one round per trial, two
workers, the EPR sweep through q = 1/3), ``binding``, ``hiding``,
``threshold`` and usage errors, among them the flags ``threshold`` no
longer takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

THIRD = repr(1 / 3)


def _run_commands() -> list[list[str]]:
    cmds = []
    for alice in ("honest", "epr"):
        for q in ("0.0", "0.2", THIRD, "0.5", "0.8", "1.0"):
            for bit in ("0", "1"):
                for fmt in ("json", "csv"):
                    cmds.append(["run", "--alice", alice, "--q", q, "--rounds", "300",
                                 "--bit", bit, "--seed", "7", "--format", fmt])
    cheats = (
        ("plus", "minus", "0", "0.0", "0.0"),
        ("1.1,0.4", "2.3,5.0", "1", "0.9", "2.1"),
        ("zero", "one", "1", "1.5707963", "0.0"),
        ("one", "zero", "0", "3.0", "4.0"),
        ("zero", "zero", "1", "0.5", "1.0"),
    )
    for a0, a1, target, theta, phi in cheats:
        for q in ("0.3", "0.7"):
            cmds.append(["run", "--alice", "epr", "--q", q, "--rounds", "500", "--a0", a0,
                         "--a1", a1, "--target-bit", target, "--steer-theta", theta,
                         "--steer-phi", phi, "--seed", "3"])
    for sigma in ("0", "1.5", "10"):
        cmds.append(["run", "--q", "0.6", "--rounds", "200", "--accept-sigma", sigma])
    for rounds in ("1", "2", "40", "1000"):
        for seed in ("0", "5"):
            cmds.append(["run", "--q", "0.6", "--rounds", rounds, "--bit", "1", "--seed", seed,
                         "--dump-transcript"])
            cmds.append(["run", "--alice", "epr", "--q", "0.7", "--rounds", rounds,
                         "--a0", "1.1,0.4", "--a1", "2.3,5.0", "--target-bit", "1",
                         "--steer-theta", "0.9", "--steer-phi", "2.1", "--seed", seed,
                         "--dump-transcript"])
    return cmds


def _sweep_commands() -> list[list[str]]:
    cmds = []
    for alice in ("honest", "epr"):
        for fmt in ("csv", "json"):
            for rounds, trials in (("1", "6"), ("50", "3"), ("400", "2")):
                for bit in ("0", "1"):
                    cmds.append(["sweep", "--alice", alice, "--q-steps", "4", "--rounds", rounds,
                                 "--trials", trials, "--bit", bit, "--seed", "2",
                                 "--format", fmt])
            cmds.append(["sweep", "--alice", alice, "--q-steps", "3", "--rounds", "100",
                         "--trials", "4", "--workers", "2", "--format", fmt])
            cmds.append(["sweep", "--alice", alice, "--q-min", "0.3", "--q-max", "0.3",
                         "--q-steps", "1", "--rounds", "100", "--trials", "2", "--format", fmt])
    for a0, a1 in (("1.1,0.4", "2.3,5.0"), ("plus", "minus")):
        for fmt in ("csv", "json"):
            cmds.append(["sweep", "--alice", "epr", "--q-steps", "4", "--rounds", "200",
                         "--trials", "3", "--a0", a0, "--a1", a1, "--target-bit", "1",
                         "--steer-theta", "0.9", "--steer-phi", "2.1", "--seed", "6",
                         "--format", fmt])
    cmds.append(["sweep", "--alice", "epr", "--q-min", "0.2", "--q-max", "0.6", "--q-steps", "5",
                 "--rounds", "300", "--trials", "2", "--accept-sigma", "1", "--format", "csv"])
    return cmds


def _security_commands() -> list[list[str]]:
    cmds = []
    strategies = (("zero", "one"), ("plus", "minus"), ("1.1,0.4", "2.3,5.0"), ("0.5,1", "2,3"))
    for a0, a1 in strategies:
        for target in ("zero", "one", "plus", "minus", "1.2,0.7"):
            cmds.append(["binding", "--a0", a0, "--a1", a1, "--target", target,
                         "--q-grid", f"0,0.25,{THIRD},0.5,0.9,1"])
        cmds.append(["binding", "--a0", a0, "--a1", a1, "--q", "0.4", "--format", "csv"])
    for sigma0, sigma1 in (("bb84-0", "bb84-1"), ("zero", "plus"), ("zero", "one"),
                           ("1.0,0.5", "2.0,3.0")):
        for q in ("0", "0.5", "1"):
            for fmt in ("json", "csv"):
                cmds.append(["hiding", "--sigma0", sigma0, "--sigma1", sigma1, "--q", q,
                             "--format", fmt])
    cmds.append(["threshold"])
    return cmds


def _usage_errors() -> list[list[str]]:
    return [
        [],
        ["frobnicate"],
        ["run"],
        ["run", "--q", "1.5"],
        ["run", "--q", "nan"],
        ["run", "--q", "0.5", "--rounds", "0"],
        ["run", "--q", "0.5", "--rounds", "ten"],
        ["run", "--q", "0.5", "--bit", "2"],
        ["run", "--q", "0.5", "--seed", "-1"],
        ["run", "--q", "0.5", "--frobnicate"],
        ["run", "--q", "0.5", "--dump-transcript", "--format", "csv"],
        ["run", "--q", "0.5", "--a0", "sideways"],
        ["run", "--q", "0.5", "--alice", "epr", "--a1", "1,2,3"],
        ["run", "--q", "0.5", "--a0", "nan,0"],
        ["run", "--q", "0.5", "--alice", "epr", "--target-bit", "2"],
        ["run", "--q", "0.5", "--steer-theta", "4"],
        ["run", "--q", "0.5", "--steer-phi", "-1"],
        ["run", "--q", "0.5", "--alice", "mallory"],
        ["run", "--q", "0.5", "--accept-sigma", "nan"],
        ["run", "--q", "0.5", "--accept-sigma", "-1"],
        ["sweep", "--accept-sigma", "inf"],
        ["sweep", "--q-steps", "0"],
        ["sweep", "--trials", "0"],
        ["sweep", "--workers", "0"],
        ["sweep", "--q-min", "nan"],
        ["sweep", "--q-max", "1.5"],
        ["sweep", "--rounds", "0", "--q-steps", "2"],
        ["threshold", "--tol", "1e-6"],
        ["threshold", "--lo", "0"],
        ["threshold", "--hi", "1"],
        ["hiding", "--sigma0", "bogus"],
        ["hiding", "--q", "2"],
        ["binding", "--target", "bb84-0"],
        ["binding", "--q-grid", "0,x"],
        ["binding", "--q-grid", ","],
        ["binding", "--q", "-0.1"],
        ["binding", "--a0", "1,"],
        ["binding", "--q", "nan"],
        ["hiding", "--sigma1", "bb84-2"],
    ]


def corpus() -> list[list[str]]:
    return _run_commands() + _sweep_commands() + _security_commands() + _usage_errors()


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse help or version, should any command reach it
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    args = sys.argv[1:]
    each = "--each" in args
    paths = [a for a in args if a != "--each"]
    if len(paths) != 1:
        sys.stderr.write(__doc__)
        return 1
    src = os.path.abspath(paths[0])
    sys.path.insert(0, src)
    import ebcommit
    from ebcommit.cli import main as cli_main

    if not os.path.abspath(ebcommit.__file__).startswith(src + os.sep):
        sys.stderr.write(f"ebcommit was imported from {ebcommit.__file__}, not from {src}\n")
        return 1
    total = hashlib.sha256()
    commands = corpus()
    for argv in commands:
        record = json.dumps([argv, *_run(cli_main, argv)]).encode() + b"\n"
        total.update(record)
        if each:
            print(hashlib.sha256(record).hexdigest()[:16], " ".join(argv))
    print(f"{total.hexdigest()}  {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
