"""Run a fixed, seeded corpus of CLI commands in-process and print one sha256.

Usage::

    python tools/cli_corpus.py SRC_DIR [--each] [--dump DIR]

SRC_DIR is the directory that holds the ``ebcommit`` package (``src`` in a
checkout). Every command of the corpus runs through ``ebcommit.cli.main``
with stdout and stderr captured, and the digest covers, command by command,
its argv, exit code, stdout and stderr. A command that raises is recorded
with the code ``"raised"`` and, as its stderr, the exception's type and
message, and the run goes on with the next command. Two source trees
print the same digest exactly when every command behaves the same byte
for byte, so a change that must keep the CLI's outputs is checked by
running this script on the tree before and after it, with the same Python
and numpy. ``--each`` also prints one line per command (its own digest and
argv), to find which outputs differ. ``--dump DIR`` writes the exit code,
stdout and stderr of command i, the parts of its record that a tree can
change, to the file ``DIR/i`` (i from 0, in corpus order), so that
``diff -u`` of two trees' files shows how far a changed output moved.

The corpus covers honest and EPR ``run`` with and without
``--dump-transcript`` (honest dumps of bit 1 at q = 0.6 and of bit 0 at
q = 0 and q = 1, where the honest sender's round law holds exact 0s;
an honest dump of 2500 rounds and an EPR one of 10001, which run past
the dump's first slice of 1000 records),
EPR runs whose round law is 0 on its leading class (``--a0 one --a1
one``) and on its trailing classes (``--a0 zero --a1 zero`` at q = 1),
EPR runs of generic strategies steered in tilted bases at four q, whose
receiver's law moves with q, two of them dumped,
CSV and JSON sweeps (one round per trial, two
workers, the EPR sweep through q = 1/3; an EPR sweep of 500 trials per q
at ``--accept-sigma 0``, whose threshold is the expectation itself, and
an honest one of 300 noiseless 7-round trials, some with no sifted
round; an EPR sweep of 21 q with a tilted steering basis, and an honest
and an EPR sweep of 9 q from 0.3 to 0.34, across q* = 1/3, whose grids
are each prepared as one batch; an EPR sweep of 130 trials, which span
three blocks of 64 trials, at the largest seed; an honest sweep of 1500 q
of three 1-round trials, whose grid spans two chunks of configs and some
of whose rows hold a trial with no sifted round; an EPR sweep of 6 q
just above q*, whose rows turn entangled at the first q above 1/3,
inside the band the PPT test's tolerance would call separable; and an
EPR sweep of a near-product pair, entangled at q = 0.5 though its lift's
least partial-transpose eigenvalue lies in that band), ``binding`` (among them the flat
objective's rule on both sides of ``SIGN_TOL`` and at the smallest
subnormal q, a best basis at q down to 1e-12, and a product strategy),
``hiding``, ``threshold`` and usage errors, among them the flags
``threshold`` no longer takes, a ``run`` of more rounds than numpy
can lay out and a ``binding --q-grid`` whose bad q follows a mixed
target.
"""

from __future__ import annotations

import argparse
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
    # dumps past the first slice of 1000 records, whose round numbers have
    # leading digits, ending in a short slice and one record into a slice
    cmds.append(["run", "--q", "0.6", "--rounds", "2500", "--bit", "1", "--dump-transcript"])
    cmds.append(["run", "--alice", "epr", "--q", "0.7", "--rounds", "10001", "--target-bit", "0",
                 "--dump-transcript"])
    # honest bit 0 at the noise extremes: at q = 1 the round law holds exact 0s
    for q in ("0.0", "1.0"):
        cmds.append(["run", "--q", q, "--rounds", "40", "--bit", "0", "--dump-transcript"])
    # round laws that are 0 on classes 0, 2, 4, 6 and on classes 1, 3, 5, 6, 7
    for a, q in (("one", "0.5"), ("zero", "1.0")):
        cmds.append(["run", "--alice", "epr", "--q", q, "--rounds", "300", "--a0", a, "--a1", a])
    # non-orthogonal a0 and a1 leave the receiver a marginal other than I/2, so
    # his law moves with q: each run draws from the effects his channel maps
    tilted = (("0.5,1", "2,3", "0", "2.4", "0.7"), ("zero", "1.2,0.7", "1", "1.3", "5.5"),
              ("1.1,0.4", "2.3,5.0", "0", "0.9", "2.1"))
    for a0, a1, target, theta, phi in tilted:
        for q in ("0.15", THIRD, "0.55", "0.95"):
            cmds.append(["run", "--alice", "epr", "--q", q, "--rounds", "3000", "--a0", a0,
                         "--a1", a1, "--target-bit", target, "--steer-theta", theta,
                         "--steer-phi", phi, "--seed", "11"])
        cmds.append(["run", "--alice", "epr", "--q", "0.45", "--rounds", "60", "--a0", a0,
                     "--a1", a1, "--target-bit", target, "--steer-theta", theta,
                     "--steer-phi", phi, "--seed", "12", "--dump-transcript"])
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
    # many trials decided at once: the threshold at the expectation itself,
    # through q = 1/3, and noiseless trials of 7 rounds, some with no sifted round
    cmds.append(["sweep", "--alice", "epr", "--q-steps", "7", "--trials", "500", "--rounds", "100",
                 "--accept-sigma", "0"])
    cmds.append(["sweep", "--q-min", "1", "--q-max", "1", "--q-steps", "1", "--trials", "300",
                 "--rounds", "7"])
    # a grid of 21 q prepared as one batch, with a tilted steering basis, and
    # grids of 9 q across 0.3 to 0.34, which straddle q* = 1/3
    cmds.append(["sweep", "--alice", "epr", "--q-steps", "21", "--rounds", "150", "--trials", "3",
                 "--a0", "1.1,0.4", "--a1", "2.3,5.0", "--target-bit", "1",
                 "--steer-theta", "0.9", "--steer-phi", "2.1", "--seed", "8"])
    for alice in ("honest", "epr"):
        cmds.append(["sweep", "--alice", alice, "--q-min", "0.3", "--q-max", "0.34",
                     "--q-steps", "9", "--rounds", "120", "--trials", "4", "--seed", "9"])
    # trials in three blocks of 64 at the largest seed, the top of the key space
    cmds.append(["sweep", "--alice", "epr", "--q-steps", "5", "--rounds", "30", "--trials", "130",
                 "--seed", str(2**64 - 1)])
    # a grid of 1500 q, which a sweep decides in two chunks of consecutive
    # configs, of 1-round trials, some rows of which hold a trial with no sifted round
    cmds.append(["sweep", "--alice", "honest", "--q-steps", "1500", "--trials", "3",
                 "--rounds", "1", "--seed", "5", "--format", "csv"])
    # a grid just above q*, inside the PPT test's TOL band: its rows turn
    # entangled at the first q above 1/3, 0.3333333335
    cmds.append(["sweep", "--alice", "epr", "--a1", "1.1,0.4", "--q-min", "0.3333333333",
                 "--q-max", "0.3333333343", "--q-steps", "6", "--trials", "1", "--rounds", "10",
                 "--seed", "2", "--format", "csv"])
    # a pair of concurrence ~7e-6, entangled at q = 0.5 and 0.9 with
    # concurrence C (3q - 1)/2, though the PPT test accepts its lift at q = 0.5
    cmds.append(["sweep", "--alice", "epr", "--a0", "1.618942996777032,1.7957430321414596",
                 "--a1", "1.618952996777032,1.7957530321414596", "--q-min", "0.5", "--q-max", "0.9",
                 "--q-steps", "2", "--trials", "1", "--rounds", "10", "--seed", "2",
                 "--format", "csv"])
    return cmds


def _security_commands() -> list[list[str]]:
    cmds = []
    strategies = (("zero", "one"), ("plus", "minus"), ("1.1,0.4", "2.3,5.0"), ("0.5,1", "2,3"))
    for a0, a1 in strategies:
        for target in ("zero", "one", "plus", "minus", "1.2,0.7"):
            cmds.append(["binding", "--a0", a0, "--a1", a1, "--target", target,
                         "--q-grid", f"0,0.25,{THIRD},0.5,0.9,1"])
        cmds.append(["binding", "--a0", a0, "--a1", a1, "--q", "0.4", "--format", "csv"])
    # the Bell gap is 1: q = 1e-12 is flat, its successor float is not; a
    # basis that is the same at every q; a0 = a1, whose value (1 + q)/2 is exact
    cmds.append(["binding", "--target", "plus",
                 "--q-grid", "1e-12,1.0000000000000002e-12,2e-12,5e-324"])
    cmds.append(["binding", "--a0", "zero", "--a1", "plus", "--target", "1.2,0.7",
                 "--q-grid", "1e-12,3e-12,1e-10,1e-8,0.5"])
    cmds.append(["binding", "--a0", "zero", "--a1", "zero", "--target", "plus", "--q-grid", "0.5,1"])
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
        ["run", "--q", "0.5", "--rounds", str(2**62)],  # more rounds than numpy lays out
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
        ["sweep", "--trials", str(2**62)],  # more trials than numpy lays out
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
        ["binding", "--target", "bb84-0", "--q-grid", "0.5,2"],  # every q before the target
        ["binding", "--q-grid", "0,x"],
        ["binding", "--q-grid", ","],
        ["binding", "--q", "-0.1"],
        ["binding", "--a0", "1,"],
        ["binding", "--q", "nan"],
        ["hiding", "--sigma1", "bb84-2"],
    ]


def corpus() -> list[list[str]]:
    return _run_commands() + _sweep_commands() + _security_commands() + _usage_errors()


def _run(main, argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse help or version, should any command reach it
            code = exc.code
        except Exception as exc:  # recorded, so that one failing command ends no run
            return "raised", out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("src", metavar="SRC_DIR")
    parser.add_argument("--each", action="store_true", help="one line per command")
    parser.add_argument("--dump", metavar="DIR", help="write each command's output to DIR/i")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import ebcommit
    from ebcommit.cli import main as cli_main

    if not os.path.abspath(ebcommit.__file__).startswith(src + os.sep):
        sys.stderr.write(f"ebcommit was imported from {ebcommit.__file__}, not from {src}\n")
        return 1
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    total = hashlib.sha256()
    commands = corpus()
    for i, argv in enumerate(commands):
        code, out, err = _run(cli_main, argv)
        record = json.dumps([argv, code, out, err]).encode() + b"\n"
        total.update(record)
        if args.each:
            print(hashlib.sha256(record).hexdigest()[:16], " ".join(argv))
        if args.dump:
            with open(os.path.join(args.dump, str(i)), "w", encoding="utf-8", newline="") as f:
                f.write(f"exit code: {code}\n--- stdout\n{out}\n--- stderr\n{err}\n")
    print(f"{total.hexdigest()}  {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
