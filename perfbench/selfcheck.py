"""Small-size check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload for one second with --trace 0 and once with --trace 1, at
the default seed, and checks that:

* the last stdout line is one JSON object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
* the metrics are exactly the ``end_to_end`` (or ``per_layer``) names of
  BENCHMARK.json, each with its unit, and each is printed on a line above
  with that unit;
* every operation passed its checks (``failed_share`` is 0) and outputs
  matched the recorded ones;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(proc: subprocess.CompletedProcess, specs: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                     f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {s["name"] for s in specs}:
        found.append(f"metric names differ: {sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for spec in specs:
        got = metrics.get(spec["name"], {})
        if got.get("unit") != spec["unit"]:
            found.append(f"{spec['name']} unit {got.get('unit')!r}, expected {spec['unit']!r}")
        if not any(line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
                   for line in lines[:-1]):
            found.append(f"{spec['name']} is not printed with its unit")
    if specs[0]["name"] == "ops_per_s" and not any(
            line.split()[:2] == ["failed_share", "0.000000"] for line in lines):
        found.append("failed_share is not printed as 0")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_output(run_bench(ROOT, workload, trace), spec[key])
            status = "ok" if not found else "FAILED " + "; ".join(found)
            print(f"{workload} --trace {trace}: {status}")
            failures += found
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), spec["workloads"][0]["name"], 0)
        bare_ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"bare directory: {'ok' if bare_ok else 'FAILED'} (exit {proc.returncode})")
        if not bare_ok:
            failures.append("bare directory")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
