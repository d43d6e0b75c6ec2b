"""The README's examples run against the package as it is, and print what it quotes."""

import contextlib
import io
import json
import pathlib
import re
import shlex

from ebcommit.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[:2] == ["True", "0.0"]


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
