import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ebcommit
from ebcommit import cli, protocol, security
from ebcommit.cli import EXIT_OK, EXIT_REJECT, EXIT_USAGE, main
from ebcommit.protocol import HonestAlice, ProtocolConfig, sweep
from ebcommit.states import ProjectiveBasis

from conftest import fresh_python, refuse_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_noiseless_honest_accepts(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--q", "1.0", "--rounds", "1000", "--bit", "0",
        "--alice", "honest", "--seed", "7",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"][0]["match_fraction"] == 1.0
    assert doc["rows"][0]["accepted"] is True
    assert doc["meta"]["command"] == "run"


def test_run_honest_tracks_expectation(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--q", "0.5", "--rounds", "20000", "--bit", "1", "--seed", "7",
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert abs(row["match_fraction"] - 0.75) < 0.02


def test_run_is_byte_identical(capsys):
    argv = ["run", "--q", "0.6", "--rounds", "500", "--seed", "123", "--format", "csv"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_run_product_strategy_cheater_is_rejected(capsys):
    # a0 = a1 means the committed qubit is |+> with no steering power, so
    # the sifted match rate sits near 1/2, far below the q=0.5 band
    code, out, _ = run_cli(
        capsys, "run", "--q", "0.5", "--rounds", "2000", "--alice", "epr",
        "--a0", "zero", "--a1", "zero", "--target-bit", "0", "--seed", "5",
    )
    assert code == EXIT_REJECT
    assert json.loads(out)["rows"][0]["accepted"] is False


def test_sweep_with_a_receiver_outcome_of_tiny_probability(capsys):
    # a1 = (0.001, 0) is nearly a0 = |0>: on the q = 1 row the receiver's
    # diagonal outcome 1 has probability about 6.2e-8, a branch whose
    # normalized conditional state fails validation
    code, out, err = run_cli(
        capsys, "sweep", "--alice", "epr", "--a0", "zero", "--a1", "0.001,0", "--bit", "1",
        "--rounds", "10", "--trials", "2", "--format", "csv",
    )
    assert code == EXIT_OK
    assert err == ""
    assert len(out.splitlines()) == 1 + 11  # the header, then the default q grid


def test_run_with_a_receiver_outcome_of_tiny_probability(capsys):
    code, _, err = run_cli(
        capsys, "run", "--alice", "epr", "--q", "1", "--a0", "zero", "--a1", "1e-5,0",
        "--target-bit", "1", "--steer-theta", "1.5", "--rounds", "10",
    )
    assert code in (EXIT_OK, EXIT_REJECT)
    assert err == ""


def test_run_epr_bell_passes_verification(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--q", "0.5", "--rounds", "2000", "--alice", "epr",
        "--seed", "5",
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("sigma", ["nan", "inf", "-50"])
def test_bad_accept_sigma_is_usage_error(capsys, command, sigma):
    argv = [command, "--accept-sigma", sigma, "--rounds", "10"]
    if command == "run":
        argv += ["--q", "0.5"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"ebcommit: error: accept_sigma must be finite and >= 0, got {float(sigma)}\n"


def test_run_rejects_bad_q(capsys):
    code, out, err = run_cli(capsys, "run", "--q", "1.5", "--rounds", "10")
    line = "ebcommit: error: --q: q must lie in [0, 1], got 1.5\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--q", "0.5", "--frobnicate")
    assert code == EXIT_USAGE


def test_dump_transcript_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--q", "0.5", "--rounds", "20", "--seed", "1", "--dump-transcript",
    )
    assert code in (EXIT_OK, EXIT_REJECT)
    doc = json.loads(out)
    assert len(doc["transcript"]) == 20
    assert {"round", "bob_basis", "bob_outcome", "sifted"} <= set(doc["transcript"][0])


def test_dump_transcript_requires_json(capsys, monkeypatch, tmp_path):
    # rejected before any round is simulated
    def no_session(*args):
        raise AssertionError("run_session called")

    monkeypatch.setattr(protocol, "run_session", no_session)
    target = tmp_path / "dump.csv"
    code, out, err = run_cli(
        capsys, "run", "--q", "0.5", "--rounds", "20", "--dump-transcript",
        "--format", "csv", "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "ebcommit: error: --dump-transcript requires --format json\n"
    assert not target.exists()


def test_dump_transcript_file_bytes_equal_stdout(capsys, tmp_path):
    # three slices of the dump, the last of one record, so the two streams
    # are compared across slice boundaries
    argv = ["run", "--alice", "epr", "--q", "0.4", "--rounds", "2001", "--seed", "8",
            "--steer-theta", "1.2", "--steer-phi", "4.0", "--dump-transcript"]
    code, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "dump.json"
    code_file, out_file, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == code_file
    assert out_file == ""
    assert target.read_bytes() == out.encode()


def test_shared_constant_arrays_are_read_only():
    # _parse_vector hands out the named vectors themselves, and every session
    # reads _EFFECTS, so an in-place write would leak into every later
    # command of one process
    for name in cli._NAMED_VECTORS:
        vector = cli._parse_vector(name, "--a0")
        assert vector is cli._NAMED_VECTORS[name]
        assert not vector.flags.writeable
    assert not protocol._EFFECTS.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cli._parse_vector("plus", "--a0")[0] = 0


def test_threshold_prints_one_third(capsys):
    code, out, _ = run_cli(capsys, "threshold")
    assert code == EXIT_OK
    assert out == "0.333333333\n"


def test_threshold_has_no_tolerance(capsys):
    # q* is exact, so neither a tolerance nor a bracket is accepted
    for flag, value in (("--tol", "1e-6"), ("--lo", "0"), ("--hi", "1")):
        code, out, err = run_cli(capsys, "threshold", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err


def test_sweep_csv_schema_and_determinism(capsys):
    argv = [
        "sweep", "--q-min", "0.0", "--q-max", "1.0", "--q-steps", "3",
        "--rounds", "200", "--trials", "2", "--seed", "9", "--format", "csv",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    lines = out.split("\n")
    assert lines[0] == (
        "q,match_fraction_mean,match_fraction_std,acceptance_rate,"
        "separable_fraction,mean_concurrence_post_channel"
    )
    assert len(lines) == 5  # header + 3 rows + trailing newline
    _, out2, _ = run_cli(capsys, *argv)
    assert out == out2


def positive_zero(x) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize("steps", ["1", "2"])
def test_sweep_prints_a_negative_zero_q_min_as_zero(capsys, steps):
    # one q point or two, a grid with an end at -0.0 starts or ends at 0.0,
    # in the rows and in meta
    for bounds in (["--q-min", "-0.0"], ["--q-min", "0", "--q-max", "-0.0"],
                   ["--q-min", "-0.0", "--q-max", "-0.0"]):
        argv = ["sweep", *bounds, "--q-steps", steps, "--rounds", "10", "--trials", "1"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        qs = [line.split(",")[0] for line in out.split("\n")[1:-1]]
        assert "-0" not in qs and qs[0] == "0"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert '"q": 0.0,' in out and "-0.0" not in out
        doc = json.loads(out)
        assert positive_zero(doc["rows"][0]["q"])
        zeros = [doc["meta"][k] for k in ("q_min", "q_max") if doc["meta"][k] == 0.0]
        assert zeros and all(positive_zero(q) for q in zeros)


@pytest.mark.parametrize("q_flag", [["--q", "-0.0"], ["--q-grid=-0.0,0.5"]], ids=["q", "q-grid"])
def test_binding_prints_a_negative_zero_q_as_zero(capsys, q_flag):
    code, out, _ = run_cli(capsys, "binding", *q_flag, "--format", "csv")
    assert code == EXIT_OK
    assert out.split("\n")[1].split(",")[0] == "0"
    code, out, _ = run_cli(capsys, "binding", *q_flag, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert positive_zero(doc["rows"][0]["q"])
    # meta echoes --q-grid as given, and --q, the default 1.0 under a grid, as parsed
    if q_flag[0] == "--q":
        assert "-0.0" not in out and positive_zero(doc["meta"]["q"])


@pytest.mark.parametrize("command", [["run", "--rounds", "10"], ["hiding"]], ids=["run", "hiding"])
def test_meta_prints_a_negative_zero_q_as_zero(capsys, command):
    code, out, _ = run_cli(capsys, *command, "--q", "-0.0")
    assert code in (EXIT_OK, EXIT_REJECT)
    assert "-0.0" not in out and positive_zero(json.loads(out)["meta"]["q"])


def test_sweep_mean_skips_trials_without_sifted_rounds(capsys):
    # one round per trial: the trials measured off the encoding basis have
    # no evidence, stay out of the mean and are rejected; the noiseless
    # ones all match and are accepted
    code, out, _ = run_cli(
        capsys, "sweep", "--rounds", "1", "--trials", "20", "--q-steps", "3", "--format", "csv",
    )
    assert code == EXIT_OK
    config = ProtocolConfig(q=1.0, rounds=1)
    no_sifted = next(sweep([config], HonestAlice(bit=0), 20)).no_sifted_trials
    assert 0 < no_sifted < 20
    q, mean, std, rate = out.strip().split("\n")[-1].split(",")[:4]
    assert (q, mean, std) == ("1", "1", "0")
    assert float(rate) == (20 - no_sifted) / 20


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_rounds_beyond_int64_is_usage_error(capsys, command):
    argv = [command, "--rounds", "10000000000000000000"]
    if command == "run":
        argv += ["--q", "0.5"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "ebcommit: error: rounds must be < 2**63, got 10000000000000000000\n"


_TOO_MANY_ROUNDS = ("ebcommit: error: --rounds: {} rounds are too many to lay out as a transcript;"
                    " sweep --trials 1 reports a session of any size\n")


def test_run_of_rounds_too_many_to_lay_out_is_usage_error(capsys):
    # numpy refuses 2**62 rounds before it allocates anything
    code, out, err = run_cli(capsys, "run", "--q", "0.5", "--rounds", str(2**62))
    assert (code, out, err) == (EXIT_USAGE, "", _TOO_MANY_ROUNDS.format(2**62))


def test_run_out_of_memory_is_usage_error(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "repeat", refuse)
    code, out, err = run_cli(capsys, "run", "--q", "0.5", "--rounds", "1000")
    assert (code, out, err) == (EXIT_USAGE, "", _TOO_MANY_ROUNDS.format(1000))


def test_sweep_of_a_trillion_rounds_per_trial(capsys):
    # a trial draws its class counts, not its rounds, so this takes well under a second
    trials, rounds = 3, 10**12
    code, out, _ = run_cli(capsys, "sweep", "--q-steps", "2", "--trials", str(trials),
                           "--rounds", str(rounds))
    assert code == EXIT_OK
    for row in json.loads(out)["rows"]:
        # about half the rounds of each trial are sifted
        expected = (1 + row["q"]) / 2
        sigma = math.sqrt(expected * (1 - expected) / (trials * rounds / 2))
        assert abs(row["match_fraction_mean"] - expected) <= 5 * sigma + 1e-12


def test_sweep_empty_grid_fails(capsys):
    code, out, err = run_cli(capsys, "sweep", "--q-steps", "0")
    assert (code, out, err) == (EXIT_USAGE, "", "ebcommit: error: --q-steps must be >= 1\n")


def test_sweep_trials_is_validated(capsys):
    code, out, err = run_cli(capsys, "sweep", "--trials", "0")
    assert (code, out, err) == (EXIT_USAGE, "", "ebcommit: error: --trials must be >= 1\n")


# numpy refuses each of these grid sizes by arithmetic, before it allocates
# anything: "array is too big" for 2**61 and 2**62, an IndexError for 2**63 - 1
# and 2**63, and "Maximum allowed size exceeded" for 2**64
@pytest.mark.parametrize("steps", [2**61, 2**62, 2**63 - 1, 2**63, 2**64])
def test_sweep_of_q_steps_too_many_to_lay_out_is_usage_error(capsys, steps):
    code, out, err = run_cli(capsys, "sweep", "--q-steps", str(steps))
    line = f"ebcommit: error: --q-steps: {steps} q values are too many to lay out\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


def test_sweep_out_of_memory_is_usage_error(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = run_cli(capsys, "sweep", "--q-steps", "11")
    line = "ebcommit: error: --q-steps: 11 q values are too many to lay out\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


# numpy refuses a column of 2**62 or 2**63 - 1 trials by arithmetic, before it
# allocates anything ("array is too big"), and len() a range of 2**63 or more
@pytest.mark.parametrize("trials", [2**62, 2**63 - 1, 2**63, 2**64])
def test_sweep_of_trials_too_many_to_lay_out_is_usage_error(capsys, trials):
    code, out, err = run_cli(capsys, "sweep", "--q-steps", "1", "--rounds", "1",
                             "--trials", str(trials))
    line = f"ebcommit: error: --trials: {trials} trials are too many to lay out\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


def test_sweep_of_trials_out_of_memory_is_usage_error(capsys, monkeypatch):
    refuse_rows(monkeypatch, 1000)
    code, out, err = run_cli(capsys, "sweep", "--q-steps", "11", "--trials", "1000")
    line = "ebcommit: error: --trials: 1000 trials are too many to lay out\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


def test_sweep_workers_is_validated_and_echoed(capsys):
    code, out, err = run_cli(capsys, "sweep", "--workers", "0")
    assert (code, out, err) == (EXIT_USAGE, "", "ebcommit: error: --workers must be >= 1\n")
    code, out, _ = run_cli(capsys, "sweep", "--q-steps", "1", "--rounds", "10", "--workers", "3")
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["workers"] == 3


def test_cli_import_leaves_out_concurrent_futures():
    # trials run in one thread, so the package needs no executor
    src = os.path.dirname(os.path.dirname(ebcommit.__file__))
    code = "import sys, ebcommit.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "False\n"


# runs main(argv) and prints the modules the process has loaded
_LOADED = """import contextlib, io, sys
from ebcommit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(*sorted(sys.modules))"""

_SHARED = {"ebcommit", "ebcommit.cli", "ebcommit.states", "ebcommit.linalg", "ebcommit.channels"}


@pytest.mark.parametrize("argv, layers", [
    (["hiding"], {"ebcommit.security"}),
    (["binding", "--q-grid", "0,1"], {"ebcommit.security"}),
    (["threshold"], {"ebcommit.entanglement"}),
    (["run", "--q", "0.5", "--rounds", "10"], {"ebcommit.protocol"}),
    (["sweep", "--q-steps", "2", "--trials", "2", "--rounds", "10"], {"ebcommit.protocol"}),
    (["hiding", "--format", "csv"], {"ebcommit.security", "csv"}),
], ids=["hiding", "binding", "threshold", "run", "sweep", "hiding-csv"])
def test_command_loads_only_the_layers_it_runs(argv, layers):
    # a fresh process of one command loads the layers every command shares and
    # its own, not those of the other commands; only a CSV report loads csv
    loaded = set(fresh_python(_LOADED, *argv).split())
    package = {name for name in loaded if name.split(".")[0] == "ebcommit"}
    assert package == _SHARED | (layers - {"csv"})
    assert ("csv" in loaded) == ("csv" in layers)


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    # each subcommand's parser, and the top-level one, is built on its first
    # call and serves every later one
    argvs = [[], ["run"], ["sweep", "--trials", "0"], ["threshold"], ["hiding", "--q", "2"],
             ["binding", "--q-grid", ""]]
    first = [run_cli(capsys, *argv) for argv in argvs]

    def no_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli._Parser, "__init__", no_parser)
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert first[3] == (EXIT_OK, "0.333333333\n", "")
    # the parsers still report through _Parser.error (exit 1), not argparse's exit 2
    for code, out, err in first[:2]:
        assert (code, out) == (EXIT_USAGE, "")
    assert "command" in first[0][2]
    assert "--q" in first[1][2]


def test_commands_in_one_process_share_no_state(capsys):
    assert run_cli(capsys, "run")[0] == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    sweep = ("sweep", "--q-steps", "1", "--rounds", "10", "--trials", "1", "--workers", "2")
    assert run_cli(capsys, *sweep)[0] == EXIT_OK
    code, out, err = run_cli(capsys, "hiding")
    assert (code, err) == (EXIT_OK, "")
    src = os.path.dirname(os.path.dirname(ebcommit.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "ebcommit", "hiding"], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == fresh
    assert list(json.loads(out)["meta"]) == ["command", "version", "sigma0", "sigma1", "q"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["thresh"], "argument command: invalid choice: 'thresh'"),
    (["--q", "0.5", "run"], "argument command: invalid choice: '0.5'"),
])
def test_top_level_parser_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"ebcommit: error: {message}")
    assert err.count("\n") == 1


def _parsed(capsys, parse, argv):
    """What ``parse(argv)`` makes of argv: its namespace's items, a usage error, or a help exit."""
    try:
        items = parse(argv)
    except cli.UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    return "ok", items


@pytest.mark.parametrize("argv", [
    *([name] for name in ("run", "sweep", "threshold", "hiding", "binding")),
    ["run", "--q", "0.5", "--rounds", "5", "--alice", "epr", "--a0", "plus", "--format", "csv"],
    ["sweep", "--q-steps", "3", "--trials", "2", "--workers", "2", "--output", "x.json"],
    ["hiding", "--sigma0", "plus", "--sigma1", "bb84-1", "--q", "0.2"],
    ["binding", "--q-grid", "0,0.5", "--target", "one", "--a1", "1.0,2.0"],
    ["run", "--rou", "10", "--q", "0.5"],
    ["run", "--q=0.5"],
    ["run", "--q", "-0.5"],
    ["run", "--q", "0.5", "--q", "0.7"],
    ["run", "--q", "abc"],
    ["sweep", "--bit", "2"],
    ["binding", "--a0"],
    ["threshold", "extra"],
    ["threshold", "--format", "json"],
    ["run", "--q", "0.5", "--rounds", "5", "--", "x"],
    ["run", "-h"],
])
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    # main hands an argv that starts with a subcommand to that subcommand's
    # parser alone; the namespace, in its order, and any usage error or help
    # text must be those of the top-level parser
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, seen.append))

    def via_main(argv):
        if main(argv) == EXIT_USAGE:
            raise cli.UsageError(capsys.readouterr().err.removeprefix("ebcommit: error: ")[:-1])
        return list(vars(seen.pop()).items())

    top = cli._top_parser()
    expected = _parsed(capsys, lambda argv: list(vars(top.parse_args(argv)).items()), argv)
    assert _parsed(capsys, via_main, argv) == expected
    if argv == ["run", "-h"]:
        assert expected[:2] == ("exit", 0)
        assert expected[2].startswith("usage: ebcommit run")


_SCALARS = st.one_of(
    st.text(),
    st.integers(-2**80, 2**80),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 2**64 + 1]),
    st.booleans(),
    st.none(),
)
_FLAT = st.dictionaries(st.text(), _SCALARS, max_size=6)


@settings(max_examples=200, deadline=None)
@given(meta=_FLAT, rows=st.lists(_FLAT, max_size=4))
@example(meta={}, rows=[])
@example(meta={}, rows=[{}])
@example(meta={"a": 1}, rows=[{}, {"b": None}, {}])
@example(meta={"s": 'é "q" \\ \x00\n\t\u2028 \U0001f600', "n": 2**64},
         rows=[{"x": -0.0, "y": math.inf}])
def test_json_report_equals_the_indented_dump(meta, rows):
    assert cli._json_report(meta, rows) == json.dumps({"meta": meta, "rows": rows}, indent=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--q-min", "--q-max"])
@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_sweep_rejects_q_bounds_outside_unit_interval(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "sweep", "--q-steps", "3", "--rounds", "10", "--trials", "1", flag, value,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"ebcommit: error: {flag}: q must lie in [0, 1], got {float(value)}\n"


@pytest.mark.parametrize("argv, flag", [
    (["run", "--q", "1.5"], "--q"),
    (["hiding", "--q", "2"], "--q"),
    (["binding", "--q", "-0.1"], "--q"),
    (["binding", "--q-grid", "0,2"], "--q-grid"),
])
def test_q_error_names_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    got = float(argv[-1].split(",")[-1])
    assert err == f"ebcommit: error: {flag}: q must lie in [0, 1], got {got}\n"


_SPECS = "expected one of ['minus', 'one', 'plus', 'zero'] or 'theta,phi'"


@pytest.mark.parametrize("command", [
    ["run", "--q", "0.5"],
    ["sweep", "--q-steps", "2", "--rounds", "10", "--trials", "1"],
], ids=["run", "sweep"])
@pytest.mark.parametrize("bad, message", [
    (["--a0", "garbage"], f"{_SPECS}, got 'garbage'"),
    (["--a1", "1,2,3"], f"{_SPECS}, got '1,2,3'"),
    (["--a0", "4,0"], "theta must lie in [0, pi], got 4.0"),
    (["--steer-theta", "4"], "theta must lie in [0, pi], got 4.0"),
    (["--steer-phi", "-1"], "phi must lie in [0, 2*pi), got -1.0"),
], ids=["a0", "a1", "a0-angles", "steer-theta", "steer-phi"])
def test_honest_sender_rejects_bad_cheater_flags(capsys, command, bad, message):
    code, out, err = run_cli(capsys, *command, "--alice", "honest", *bad)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"ebcommit: error: {bad[0]}: {message}\n"


@pytest.mark.parametrize("command", [
    ["run", "--q", "0.5"],
    ["sweep", "--q-steps", "2", "--rounds", "10", "--trials", "1"],
], ids=["run", "sweep"])
@pytest.mark.parametrize("theta, phi, flag", [
    ("4", "0", "--steer-theta"),
    ("1", "7", "--steer-phi"),
    ("nan", "-1", "--steer-theta"),
])
def test_steering_error_names_its_flag(capsys, command, theta, phi, flag):
    code, out, err = run_cli(
        capsys, *command, "--alice", "epr", "--steer-theta", theta, "--steer-phi", phi,
    )
    assert code == EXIT_USAGE
    assert out == ""
    if flag == "--steer-theta":
        message = f"theta must lie in [0, pi], got {float(theta)}"
    else:
        message = f"phi must lie in [0, 2*pi), got {float(phi)}"
    assert err == f"ebcommit: error: {flag}: {message}\n"


def test_epr_sweep_separability_columns(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q-min", "0.1", "--q-max", "1.0", "--q-steps", "4",
        "--rounds", "100", "--trials", "2", "--alice", "epr", "--seed", "2",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    for row in rows:
        q = row["q"]
        expected_c = max(0.0, (3 * q - 1) / 2)
        assert abs(row["mean_concurrence_post_channel"] - expected_c) < 1e-9
        assert row["separable_fraction"] == (1.0 if q <= 1 / 3 else 0.0)


def test_hiding_bb84_defaults(capsys):
    code, out, _ = run_cli(capsys, "hiding")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["p_bcheat"] == 0.5
    assert row["delta_raw"] <= 1e-12


def test_hiding_orthogonal_states(capsys):
    code, out, _ = run_cli(
        capsys, "hiding", "--sigma0", "zero", "--sigma1", "one", "--q", "0.7",
    )
    row = json.loads(out)["rows"][0]
    assert abs(row["delta_channel"] - 0.7) < 1e-12
    assert abs(row["p_bcheat"] - 1.0) < 1e-12


def test_hiding_bad_state_name(capsys):
    code, out, err = run_cli(capsys, "hiding", "--sigma0", "sideways")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"ebcommit: error: --sigma0: {_SPECS}, got 'sideways'\n"


def test_binding_endpoints(capsys):
    code, out, _ = run_cli(capsys, "binding", "--q", "0")
    assert code == EXIT_OK
    assert abs(json.loads(out)["rows"][0]["best_fidelity_sq"] - 0.5) <= 1e-9
    code, out, _ = run_cli(capsys, "binding", "--q", "1")
    assert abs(json.loads(out)["rows"][0]["best_fidelity_sq"] - 1.0) <= 1e-9


def test_binding_q_grid_table(capsys):
    code, out, _ = run_cli(
        capsys, "binding", "--q-grid", "0,0.5,1", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "q,best_theta,best_phi,best_fidelity_sq"
    assert len(lines) == 4


def test_binding_bloch_angle_states(capsys):
    code, out, _ = run_cli(
        capsys, "binding", "--a0", "0,0", "--a1", "3.141592653589793,0",
        "--q", "1",
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["rows"][0]["best_fidelity_sq"] - 1.0) <= 1e-9


def test_binding_reports_the_eigenbasis_of_a_product_strategy(capsys):
    # a0 = a1: X_t - X_t' has eigenvalues 1/3 and 0, so the optimum is not
    # flat, and only its eigenbasis, a0's own Bloch angles (1, 1), attains
    # the Helstrom value 2/3 with the sessions' announcement v = o
    code, out, _ = run_cli(
        capsys, "binding", "--a0", "1,1", "--a1", "1,1", "--q", "0.3333333333333333",
        "--target", "1.5707963267948966,0", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines()[1] == "0.333333333333,1,1,0.666666666667"


@pytest.mark.parametrize("target", ["bb84-0", "bb84-1"])
def test_binding_rejects_mixed_target(capsys, target):
    code, out, err = run_cli(capsys, "binding", "--target", target)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "ebcommit: error: target must be a pure state, got tr(t^2) = 0.5\n"


def test_binding_malformed_q_grid(capsys):
    code, out, err = run_cli(capsys, "binding", "--q-grid", "a,b")
    line = "ebcommit: error: --q-grid: could not parse 'a,b'\n"
    assert (code, out, err) == (EXIT_USAGE, "", line)


def test_binding_empty_q_grid(capsys):
    code, out, err = run_cli(capsys, "binding", "--q-grid", ",")
    assert (code, out, err) == (EXIT_USAGE, "", "ebcommit: error: --q-grid is empty\n")


@pytest.mark.parametrize("grid, error", [
    ("2,0.5", "--q-grid: q must lie in [0, 1], got 2.0"),
    ("0.5,2", "--q-grid: q must lie in [0, 1], got 2.0"),
])
def test_binding_reports_the_first_bad_input(capsys, grid, error):
    # every q is checked, in grid order, before the target
    code, out, err = run_cli(capsys, "binding", "--target", "bb84-0", "--q-grid", grid)
    assert (code, out, err) == (EXIT_USAGE, "", f"ebcommit: error: {error}\n")


def test_binding_decomposes_once_per_command(capsys, monkeypatch):
    # the channel scales the Helstrom operator by q, so a q grid reads every
    # row off one eigendecomposition of the noiseless pair's operator
    calls = []
    eig_hermitian = security.eig_hermitian

    def counting(*args, **kwargs):
        calls.append(args)
        return eig_hermitian(*args, **kwargs)

    monkeypatch.setattr(security, "eig_hermitian", counting)
    code, out, _ = run_cli(capsys, "binding", "--a0", "1.1,0.4", "--a1", "2.3,5.0",
                           "--target", "0.7,1.9", "--q-grid", "0,0.25,0.5,1", "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("q", ["nan", "inf", "7"])
def test_binding_checks_q_under_q_grid(capsys, q):
    code, out, err = run_cli(capsys, "binding", "--q", q, "--q-grid", "0.5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"ebcommit: error: --q: q must lie in [0, 1], got {float(q)}\n"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--q", "1.0", "--rounds", "50", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["command"] == "run"


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
_TO_FILE = {
    "run": ["run", "--q", "0.5", "--rounds", "20"],
    "run-dump": ["run", "--q", "0.5", "--rounds", "20", "--dump-transcript"],
    "sweep": ["sweep", "--q-steps", "2", "--rounds", "10", "--trials", "1"],
}


# a path in a missing directory fails on open; /dev/full opens, but every
# write to it fails with ENOSPC
@pytest.mark.parametrize("argv, full", [
    *(pytest.param(argv, False, id=name) for name, argv in _TO_FILE.items()),
    *(pytest.param(argv, True, id=f"{name}-dev-full", marks=_NEEDS_DEV_FULL)
      for name, argv in _TO_FILE.items()),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv, full):
    target = "/dev/full" if full else str(tmp_path / "missing" / "report.json")
    code, out, err = run_cli(capsys, *argv, "--output", target)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("ebcommit: error: --output: ")
    assert ("No space left on device" if full else target) in err
    assert err.count("\n") == 1


@_NEEDS_DEV_FULL
@pytest.mark.parametrize("argv", [
    ["hiding"],
    ["run", "--q", "0.5", "--rounds", "100000", "--dump-transcript"],
], ids=["buffered", "streamed"])
def test_full_stdout_is_usage_error(argv):
    # the short report fails only at the final flush, the dump while it is written
    src = os.path.dirname(os.path.dirname(ebcommit.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ebcommit", *argv], stdout=full, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
    assert proc.returncode == EXIT_USAGE
    # one line: no traceback, and no "Exception ignored" at interpreter exit
    assert proc.stderr == b"ebcommit: error: stdout: [Errno 28] No space left on device\n"


def test_closed_stdout_pipe_exits_quietly():
    # a dump far larger than a pipe buffer, whose reader leaves after 10 bytes
    src = os.path.dirname(os.path.dirname(ebcommit.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ebcommit", "run", "--q", "0.5", "--rounds", "100000",
         "--dump-transcript"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(10) == b'{\n  "meta"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert err == b""


# sha256 of the CLI output that changes to the session internals must
# leave byte-identical. For run --dump-transcript only ``rows`` and
# ``transcript`` are pinned (``meta`` echoes the flag set), serialized
# compactly in document order.
_PINNED_DUMPS = {
    "honest": (
        ["run", "--q", "0.6", "--rounds", "300", "--bit", "1", "--seed", "11"],
        "3fba4d68d9e4148aabe6108c06df8a40fb59ce23a27ebaecf7622c966a00547d",
        "28cb0d94b1e629cfb69c53ff43e2aa8d9ab6b79299c6ba9e6abdea7b6a1ab15f",
    ),
    "epr": (
        ["run", "--alice", "epr", "--q", "0.7", "--rounds", "300", "--bit", "0",
         "--a0", "1.1,0.4", "--a1", "2.3,5.0", "--target-bit", "1",
         "--steer-theta", "0.9", "--steer-phi", "2.1", "--seed", "5"],
        "7e15d79134a29308fe31cd56912a00169e860e8e8f75f413d5381c25162715fe",
        "0a8da2ac5aa4b5d8fb257c8dab583a9133da65a2c4c9352bebfadc751f366bdd",
    ),
}

_PINNED_SWEEPS = {
    "honest": (
        ["sweep", "--q-steps", "4", "--rounds", "200", "--trials", "3", "--bit", "1",
         "--seed", "4"],
        "f9a925616ca8cae5a30efb307f4b31db5c95dcc3c7167cd96474e3d71b3b1e6e",
    ),
    "epr": (
        ["sweep", "--alice", "epr", "--q-steps", "4", "--rounds", "200", "--trials", "3",
         "--a0", "1.1,0.4", "--a1", "2.3,5.0", "--target-bit", "1",
         "--steer-theta", "0.9", "--steer-phi", "2.1", "--seed", "6"],
        "d7233989ebe0f146f3151e1702882d6dc2c607a9b7d951011f03afb9db2c0f97",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(_PINNED_DUMPS))
def test_dump_transcript_bytes_pinned(capsys, name):
    argv, rows_digest, transcript_digest = _PINNED_DUMPS[name]
    code, out, _ = run_cli(capsys, *argv, "--dump-transcript")
    assert code in (EXIT_OK, EXIT_REJECT)
    doc = json.loads(out)
    assert _sha256(_compact(doc["rows"])) == rows_digest
    assert _sha256(_compact(doc["transcript"])) == transcript_digest


@pytest.mark.parametrize("name", sorted(_PINNED_SWEEPS))
def test_sweep_csv_bytes_pinned(capsys, name):
    argv, digest = _PINNED_SWEEPS[name]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert _sha256(out) == digest


def test_pinned_epr_sweep_follows_factorization_law(capsys):
    # C(eps_q x I [psi]) = C(psi) C(choi(eps_q)), and C(choi(eps_q)) = max(0, (3q - 1)/2);
    argv, _ = _PINNED_SWEEPS["epr"]
    a0, a1 = (
        ProjectiveBasis(*map(float, argv[argv.index(flag) + 1].split(","))).vectors()[0]
        for flag in ("--a0", "--a1")
    )
    # the pure cheat state a0|0> + a1|1> has C = 2|det[a0 a1]| / (|a0|^2 + |a1|^2)
    c_psi = abs(a0[0] * a1[1] - a0[1] * a1[0])
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    for row in json.loads(out)["rows"]:
        expected = c_psi * max(0.0, (3 * row["q"] - 1) / 2)
        assert abs(row["mean_concurrence_post_channel"] - expected) <= 1e-12


def test_pinned_epr_sweep_concurrence_zero_exactly_on_separable_rows(capsys):
    argv, _ = _PINNED_SWEEPS["epr"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert any(row["separable_fraction"] == 1 for row in rows)
    for row in rows:
        assert (row["separable_fraction"] == 1) == (row["mean_concurrence_post_channel"] == 0)
