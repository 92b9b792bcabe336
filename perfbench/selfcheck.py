"""Self-check of the benchmark's gates.

    python3 perfbench/selfcheck.py

Checks three things and exits non-zero if any of them does not hold:

* a tampered fingerprint (expected volume moved by one ulp) is counted as a
  failed step and makes the benchmark exit non-zero;
* a CLI step forced to fail (synth given an unknown option) is counted the
  same way, together with the verify step that then has nothing to read;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "grid-linear-fine"


def bench(cwd: Path, *extra: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "0",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_injected(inject: str, min_failed: int) -> bool:
    rc, lines = bench(ROOT, "--inject", inject)
    result = json.loads(lines[-1])
    ok = rc != 0 and result["correct"] is False and result["failed"] >= min_failed
    print(f"{'PASS' if ok else 'FAIL'} inject={inject}: exit={rc} "
          f"failed={result['failed']}/{result['attempted']}")
    return ok


def check_bare() -> bool:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        rc, lines = bench(bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = rc != 0 and not any(line.startswith("{") for line in lines)
    print(f"{'PASS' if ok else 'FAIL'} bare directory: exit={rc} stdout_lines={len(lines)}")
    return ok


def main() -> int:
    results = [
        check_injected("fingerprint", 1),
        check_injected("step", 2),
        check_bare(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
