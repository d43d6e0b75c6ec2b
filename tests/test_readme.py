"""The README's examples run against the package as it is, and print what it quotes."""

import contextlib
import io
import json
import math
import pathlib
import re
import shlex

import pytest

from ebcommit.channels import DepolarizingChannel, lift_apply
from ebcommit.cli import main
from ebcommit.protocol import ProtocolConfig
from ebcommit.states import cheat_state

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # each print line's trailing comment quotes what it prints
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    eb, conc, session, grid = re.findall(r"print\(.*\)\s+# (.*)", code)
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), names)
    lines = out.getvalue().splitlines()
    assert lines[:2] == [eb, conc]
    # the session's match fraction lies within 5 binomial sd of the quoted value
    report = names["report"]
    approx, verdict = re.fullmatch(r"~(\S+), (\S+)", session).groups()
    sd = math.sqrt(float(approx) * (1 - float(approx)) / report.sifted_count)
    assert abs(report.match_fraction - float(approx)) <= 5 * sd
    assert lines[2] == f"{report.match_fraction} {verdict}"
    # the sweep prints the quoted separability at every q up to the quoted bound
    separable, num, den = re.fullmatch(r"(\S+) up to q = (\d+)/(\d+)", grid).groups()
    rows = [line.split() for line in lines[3:]]
    assert len(rows) == len(names["configs"])
    below = [sep for q, sep, _ in rows if float(q) <= int(num) / int(den)]
    assert below and below == [separable] * len(below)


def cli_block_commands() -> list[tuple[list[str], str]]:
    """(argv after ``ebcommit``, comment) of each command in the README's CLI block.

    Continuation lines are joined. A command's comment is its own trailing
    comment, after the comment lines just above it.
    """
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands, notes = [], []
    for line in block.replace("\\\n", " ").splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            program, *argv = shlex.split(code)
            assert program == "ebcommit"
            commands.append((argv, " ".join(notes + [comment])))
            notes = []
        elif comment:
            notes.append(comment)
    return commands


def test_cli_block_runs_and_prints_what_it_quotes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the block writes sweep.csv
    quoted = {}
    for argv, comment in cli_block_commands():
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv  # accept or protocol reject, never a usage error
        if argv == ["threshold"]:
            quoted["threshold"] = re.search(r"prints (\S+?)\)", comment).group(1)
            assert out.strip() == quoted["threshold"]
        if argv[:1] == ["hiding"]:
            quoted["hiding"] = re.search(r"p_bcheat = (\S+)", comment).group(1)
            assert json.loads(out)["rows"][0]["p_bcheat"] == float(quoted["hiding"])
    assert sorted(quoted) == ["hiding", "threshold"]


def test_opening_acceptance_values_are_exact():
    # the Bell cheater's match probability, read off her round law for either
    # target bit, and the honest (1+q)/2 give the quoted exact P(accept)
    pytest.importorskip("scipy.special")
    from reference import encoding_basis, exact_acceptance, lifted_round_law

    opening = " ".join(README.read_text(encoding="utf-8").split("\n## ", 1)[0].split())
    values, sigma, rounds = re.search(
        r"P\(accept\) = (.*?) \(σ = (\S+), (\S+) rounds, either target bit\)", opening
    ).groups()
    quoted = re.findall(r"(\S+) at q = ([\d.]+)", values)
    assert quoted
    bell = cheat_state([1, 0], [0, 1])
    for value, q in quoted:
        config = ProtocolConfig(q=float(q), rounds=int(float(rounds)), accept_sigma=float(sigma))
        matches = [(1 + config.q) / 2]
        for t in (0, 1):
            lifted = lift_apply(DepolarizingChannel(config.q), bell)
            law = lifted_round_law(lifted, encoding_basis(t))[1]
            matches.append(2 * (law[4 * t] + law[4 * t + 3]))
        for p_match in matches:
            assert abs(exact_acceptance(config, p_match) - float(value)) <= 5e-7, (q, p_match)
