"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

Runs every workload with ``--trace 0`` and ``--trace 1`` from the checkout
root and checks that the last line names exactly the metrics BENCHMARK.json
declares, with their units, and that no command failed (error_rate = 0).
Exits 0 on success.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: {result['failed']} of {result['attempted']} failed: "
                      f"{proc.stderr.strip()}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name in want:
        if not any(line.startswith(f"{name} ") for line in lines[:-1]):
            errors.append(f"{where}: {name} not printed by name")
    if not any(line.startswith("error_rate 0.0 ") for line in lines[:-1]):
        errors.append(f"{where}: error_rate is not 0")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
