"""ebcommit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload's CLI commands run in this one process through
``ebcommit.cli.main``, one at a time (a closed loop with a single client),
each under a time limit and each checked by an exact oracle. The command
list repeats, with fresh inputs drawn from the seed, until ``--seconds``
have passed.

With ``--trace 0`` the last line reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics from
the span tracer (spans.py), per command list, and the span dump goes to
``perfbench/out/``. Earlier lines give the environment, the seed-commit
baseline, and every metric by name, with ``rounds_per_s`` and
``error_rate``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
#: Every run must end within 180 s; no command starts or runs past this.
HARD_LIMIT_S = 150.0
COMMAND_TIMEOUT_S = 30.0
SETUP_REPEATS = {wl.FULL: 7, wl.TINY: 1}
#: Fresh process: import the package, build the parser, run one tiny command
#: whose eigensolve finishes numpy/LAPACK lazy initialisation.
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from ebcommit.cli import main; "
              "sys.exit(main(['hiding']))")


class CommandTimeout(BaseException):
    """Raised inside a command that overran its time limit.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


class Runner:
    """Runs commands, checks their outputs and counts the ones that fail."""

    def __init__(self, cli, deadline: float, probe: hostspeed.Probe):
        self.cli = cli  # ``main`` is looked up per call, so a tracer's wrapper is used
        self.deadline = deadline
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.slowdowns: list[float] = []

    def limit(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - perf_counter()))

    def timed(self, fn, limit: float, probe_during: bool = True):
        """Call ``fn`` and raise CommandTimeout in it after ``limit`` s.

        Returns ``fn``'s result and its time, less the probes, scaled to the
        nominal host (see hostspeed.py). The probes run just before and after
        ``fn`` and, with ``probe_during``, inside it. Probes taken while a
        child process runs would compete with it for the one core.
        """
        probe = self.probe
        around = [probe.seconds() for _ in range(hostspeed.AROUND)]
        samples = []
        expires = perf_counter() + limit

        def tick(signum, frame):
            if perf_counter() > expires:
                raise CommandTimeout
            if probe_during:
                samples.append(probe.seconds())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, hostspeed.INTERVAL_S, hostspeed.INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start - sum(samples)
            signal.signal(signal.SIGALRM, previous)
        around += [probe.seconds() for _ in range(hostspeed.AROUND)]
        slowdown = statistics.fmean(samples + around) / probe.nominal_s
        self.slowdowns.append(slowdown)
        return result, elapsed / slowdown

    def fail(self, slot: str, reason: str) -> None:
        self.failed += 1
        sys.stderr.write(f"perfbench: {slot} failed: {reason}\n")

    def run(self, op: wl.Op) -> float:
        """Run one command and check it; returns its scaled wall time in seconds."""
        self.attempted += 1
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        limit = self.limit()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(op.argv), None
            except CommandTimeout:
                return None, f"timed out after {limit:.0f} s"
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                return None, f"raised {exc!r}"

        (rc, reason), elapsed = self.timed(call, limit)
        if reason is None and rc not in op.ok_codes:
            reason = f"exit code {rc}: {err.getvalue().strip()}"
        if reason is None:
            reason = self._check(op, out.getvalue())
        if reason is not None:
            self.fail(op.slot, f"{reason} [{' '.join(op.argv)}]")
        return elapsed

    def _check(self, op: wl.Op, text: str) -> str | None:
        if op.output is None:
            self.bytes_out += len(text.encode())
            try:
                return op.check(text)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable output: {exc!r}"
        path = Path(op.output)
        try:
            self.bytes_out += path.stat().st_size
            proc = subprocess.run(
                [sys.executable, str(HERE / "check_transcript.py"), str(path), str(op.rounds)],
                capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"transcript check: {exc!r}"
        finally:
            path.unlink(missing_ok=True)
        if proc.returncode != 0:
            return f"transcript check: {(proc.stdout or proc.stderr).strip()}"
        return None


def setup_seconds(runner: Runner, repeats: int) -> list[float]:
    def spawn():
        try:  # on CommandTimeout, subprocess.run kills the child and waits for it
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except CommandTimeout:
            return "timed out"
        return proc.returncode and f"exit code {proc.returncode}: {proc.stderr.strip()}"

    times = []
    for _ in range(repeats):
        runner.attempted += 1
        reason, elapsed = runner.timed(spawn, runner.limit(), probe_during=False)
        if reason:
            runner.fail("setup", reason)
        times.append(elapsed)
    return times


class Window:
    """Per-slot command times and simulated rounds over one measuring window."""

    def __init__(self):
        self.times: defaultdict[str, list[float]] = defaultdict(list)
        self.lists = 0
        self.rounds = 0
        self.rounds_s = 0.0

    def wall_s(self) -> float:
        """Time to finish one command list: the sum of each command's median time."""
        return sum(statistics.median(t) for t in self.times.values())


def measure(runner: Runner, args, seconds: float, workdir: Path) -> Window:
    """Repeat the workload's command list until ``seconds`` pass (at least once)."""
    window = Window()
    end = min(perf_counter() + seconds, runner.deadline)
    while window.lists == 0 or perf_counter() < end:
        for op in wl.command_list(args.workload, args.seed, window.lists, args.size, str(workdir)):
            elapsed = runner.run(op)
            window.times[op.slot].append(elapsed)
            if op.rounds:
                window.rounds += op.rounds
                window.rounds_s += elapsed
        window.lists += 1
    return window


def end_to_end(runner: Runner, args, workdir: Path) -> dict[str, float]:
    setup = setup_seconds(runner, SETUP_REPEATS[args.size])
    for op in wl.warmup_list(args.workload, args.seed):
        runner.run(op)
    window = measure(runner, args, args.seconds, workdir)
    if window.rounds:
        print(f"rounds_per_s {window.rounds / window.rounds_s!r} 1/s")
    print(f"lists {window.lists}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": window.wall_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, args, workdir: Path) -> dict[str, float]:
    """Half the window untraced, then the same command lists traced."""
    for op in wl.warmup_list(args.workload, args.seed):
        runner.run(op)
    plain = measure(runner, args, args.seconds / 2, workdir)
    tracer = spans.Tracer()
    tracer.install()
    bytes_before = runner.bytes_out
    try:
        traced = measure(runner, args, args.seconds / 2, workdir)
    finally:
        tracer.uninstall()
    dump = workdir / f"spans-{args.workload}.jsonl"
    tracer.dump(dump)
    print(f"spans {len(tracer.spans)} in {dump.relative_to(Path.cwd())}")

    n = traced.lists
    metrics = {}
    for key in spans.TRACED_KEYS:
        metrics[f"{key}.calls"] = tracer.calls[key] / n
        metrics[f"{key}.self_ms"] = tracer.self_s[key] * 1e3 / n
    sessions = tracer.durations_ms("protocol.run_session")
    if len(sessions) >= 2:
        deciles = statistics.quantiles(sessions, n=10)
        p50, p90 = statistics.median(sessions), deciles[8]
    else:
        p50 = p90 = sessions[0] if sessions else 0.0
    c = tracer.counters
    metrics.update({
        "protocol.run_session.p50_ms": p50,
        "protocol.run_session.p90_ms": p90,
        "protocol.rounds": c["rounds"] / n,
        "protocol.sifted_ratio": c["sifted"] / c["rounds"] if c["rounds"] else 0.0,
        "protocol.accept_ratio": c["accepted"] / c["sessions"] if c["sessions"] else 0.0,
        "security.steer_evals": c["steer_evals"] / n,
        "cli.bytes_out": (runner.bytes_out - bytes_before) / n,
        "trace.overhead_ratio": traced.wall_s() / plain.wall_s(),
    })
    return metrics


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default=wl.FULL, choices=(wl.FULL, wl.TINY),
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ebcommit" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        sys.stderr.write("perfbench: run from the root of an ebcommit source checkout "
                         "(src/ebcommit and BENCHMARK.json not found)\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import ebcommit.cli

    if Path(ebcommit.__file__).resolve().parent != (src / "ebcommit").resolve():
        sys.stderr.write(f"perfbench: imported ebcommit from {ebcommit.__file__}, not {src}\n")
        return 2

    # One core for the benchmark, the program and the set-up children, so that
    # the probes time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    runner = Runner(ebcommit.cli, perf_counter() + HARD_LIMIT_S, wl.PROBES[args.workload])
    print("env " + json.dumps(environment(args)))
    baseline = json.loads((HERE / "baseline.json").read_text())
    print("baseline " + json.dumps({"recorded": baseline["recorded"],
                                    **baseline["workloads"].get(args.workload, {})}))

    if args.trace:
        values, declared = per_layer(runner, args, workdir), spec["per_layer"]
    else:
        values, declared = end_to_end(runner, args, workdir), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"host_slowdown {statistics.median(runner.slowdowns)!r} (median; times are scaled by it)")
    print(f"error_rate {runner.failed / runner.attempted!r} ({runner.failed} failed "
          f"of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
