"""pinvset benchmark: timed ``gen -> synth -> verify`` CLI chains.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is run from the ``src/`` directory of the checkout that holds
this file.  With ``--trace 0`` each workload runs as a sequence of fresh
``pinvset`` processes, one at a time, repeated until ``--seconds`` would be
exceeded; every end-to-end metric is the median over those chains.  With
``--trace 1`` the same steps are replayed in this process, once untraced and
once with spans around each layer's entry points, and the per-layer metrics
come from the spans.  Every step's output is checked: exit code,
certificate, fingerprint on the seeds that have one, and agreement between
synth, verify and report.  The last stdout line is one JSON object; the exit
code is 0 only if every step passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Fingerprint, Step, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # fresh start-up probes before the chains, and as many after
LEAF_KEYS = ("included", "excluded", "unknown")
STEP_METRICS = {"gen": "gen_s", "synth": "synth_s", "verify": "verify_s"}
END_TO_END_UNITS = {
    "chain_s": "s",
    "gen_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    rc: int
    stdout: str
    wall_s: float
    maxrss_kb: int = 0
    error: str = ""  # last stderr line of a failed CLI process


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(argv: tuple[str, ...], cwd: Path, env: dict[str, str]) -> Outcome:
    """One fresh ``pinvset`` process; its own peak RSS comes from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    t0 = perf_counter()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pinvset.cli", *argv],
            cwd=cwd, env=env, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = ""
    if proc.returncode != 0:
        error = (err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines() or [""])[-1]
    return Outcome(proc.returncode, out_path.read_text(encoding="utf-8"), wall,
                   usage.ru_maxrss, error)


# -- output checks --------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_chain(
    workload: Workload,
    steps: list[Step],
    outcomes: list[Outcome],
    work: Path,
    tamper: bool = False,
) -> list[str | None]:
    """The reason each step failed, or None where it passed."""
    synthesized: dict[str, Fingerprint] = {}
    reasons: list[str | None] = []
    for step, out in zip(steps, outcomes):
        reason = None
        if out.rc != 0:
            reason = f"exit code {out.rc} {out.error}".rstrip()
        else:
            try:
                reason = _check_step(workload, step, out, work, synthesized, tamper)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                reason = f"unreadable output: {exc!r}"
        reasons.append(reason)
    return reasons


def _check_step(workload, step, out, work, synthesized, tamper) -> str | None:
    if step.kind == "synth":
        rep = _last_json(out.stdout)
        if rep["certified"] is not True:
            return "certificate failed"
        doc = json.loads((work / step.result).read_text(encoding="utf-8"))
        got = Fingerprint(
            rep["volume"], rep["sweeps"],
            tuple(rep["leaf_counts"][k] for k in LEAF_KEYS), len(doc["tree"]["parent"]),
        )
        synthesized[step.result] = got
        want = workload.fingerprints.get(step.data_seed)
        if want is not None and tamper:
            want = replace(want, volume=math.nextafter(want.volume, math.inf))
        if want is not None and repr(got) != repr(want):
            return f"fingerprint drift: got {got}, want {want}"
    elif step.kind == "verify":
        rep = _last_json(out.stdout)
        if rep["passed"] is not True:
            return "certificate failed"
        synth = synthesized.get(step.result)
        if synth is None:
            return "no synth output to compare with"
        if rep["volume"] != synth.volume or rep["checked_leaves"] != synth.leaves[0]:
            return f"verify disagrees with synth: {rep}"
    elif step.kind == "report":
        header, *rows = out.stdout.strip().splitlines()
        if len(rows) != 1:
            return f"expected one report group, got {len(rows)}"
        row = dict(zip(header.split(","), rows[0].split(",")))
        vols = sorted(f.volume for f in synthesized.values())
        # With five runs the quartiles fall exactly on the sorted volumes.
        got = [float(row[k]) for k in ("vol_min", "vol_q1", "vol_median", "vol_q3", "vol_max")]
        if int(row["runs"]) != len(vols) or len(vols) != 5 or got != vols:
            return f"report disagrees with synth volumes: {row}"
    return None


# -- measurement ------------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)
    return path


def workload_steps(workload: Workload, seed: int, inject: str | None) -> list[Step]:
    steps = workload.steps(seed)
    if inject == "step":
        k = next(i for i, s in enumerate(steps) if s.kind == "synth")
        steps[k] = replace(steps[k], argv=steps[k].argv + ("--no-such-option",))
    return steps


def measure_setup(work: Path, env: dict[str, str]) -> list[float]:
    """Wall times of fresh ``pinvset --version`` processes."""
    return [run_cli(("--version",), work, env).wall_s for _ in range(SETUP_REPEATS)]


def run_untraced(workload, seed, seconds, work, inject):
    env = child_env()
    steps = workload_steps(workload, seed, inject)
    # One warm-up writes the bytecode cache; probes before and after the
    # chains spread the set-up samples over the run.
    run_cli(("--version",), fresh_dir(work), env)
    setup = measure_setup(work, env)
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END_UNITS if k != "setup_s"}
    attempted = failed = 0
    t_start = perf_counter()
    while True:
        chain_dir = fresh_dir(work)
        t0 = perf_counter()
        outcomes = [run_cli(step.argv, chain_dir, env) for step in steps]
        chain_s = perf_counter() - t0
        reasons = check_chain(workload, steps, outcomes, chain_dir, tamper=inject == "fingerprint")
        report_failures(steps, reasons)
        attempted += len(steps)
        failed += sum(r is not None for r in reasons)
        samples["chain_s"].append(chain_s)
        for kind, key in STEP_METRICS.items():
            samples[key].append(sum(o.wall_s for s, o in zip(steps, outcomes) if s.kind == kind))
        samples["peak_rss_mb"].append(max(o.maxrss_kb for o in outcomes) / 1024.0)
        if perf_counter() - t_start + chain_s > seconds:
            break
    samples["setup_s"] = setup + measure_setup(work, env)
    return samples, attempted, failed


def replay(steps: list[Step], work: Path, tracer=None) -> list[Outcome]:
    """Run the steps through ``pinvset.cli.main`` in this process."""
    from pinvset import cli

    outcomes = []
    here = os.getcwd()
    os.chdir(work)
    try:
        with tracer.installed() if tracer else nullcontext():
            for step in steps:
                stdout = io.StringIO()
                t0 = perf_counter()
                try:
                    with redirect_stdout(stdout):
                        rc = cli.main(list(step.argv))
                except Exception:  # a crash fails this step, not the benchmark
                    traceback.print_exc()
                    rc = 70
                outcomes.append(Outcome(rc, stdout.getvalue(), perf_counter() - t0))
    finally:
        os.chdir(here)
    return outcomes


def run_traced(workload, seed, work, inject):
    """Replay the chain in process, untraced then traced; per-layer metrics
    come from the traced replay and the difference is the tracing overhead."""
    sys.path.insert(0, str(SRC))
    from spans import Tracer, import_breakdown

    env = child_env()
    steps = workload_steps(workload, seed, inject)
    metrics = import_breakdown(env)
    logging.basicConfig(handlers=[logging.NullHandler()], level=logging.INFO)
    tracer = Tracer()
    walls = []
    attempted = failed = 0
    for t in (None, tracer):
        chain_dir = fresh_dir(work)
        gc.collect()
        outcomes = replay(steps, chain_dir, t)
        walls.append(sum(o.wall_s for o in outcomes))
        reasons = check_chain(workload, steps, outcomes, chain_dir, tamper=inject == "fingerprint")
        report_failures(steps, reasons)
        attempted += len(steps)
        failed += sum(r is not None for r in reasons)
    tracer.write(WORK / "trace" / f"{workload.name}-seed{seed}.tsv")
    metrics.update(tracer.layer_metrics())
    metrics["trace.untraced_s"] = (walls[0], "s")
    metrics["trace.traced_s"] = (walls[1], "s")
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    return metrics, attempted, failed


def report_failures(steps: list[Step], reasons: list[str | None]) -> None:
    for step, reason in zip(steps, reasons):
        if reason is not None:
            print(f"FAILED pinvset {' '.join(step.argv)}: {reason}", file=sys.stderr)


def print_table(rows: list[tuple[str, str, float, list[float]]]) -> None:
    """Name, unit and value of each metric, with the range and count of the
    samples its median was taken from."""
    print(f"{'metric':<26} {'unit':<6} {'value':>14} {'min':>12} {'max':>12} {'n':>3}")
    for name, unit, value, values in rows:
        spread = f"{min(values):>12.6g} {max(values):>12.6g} {len(values):>3}" if values else ""
        print(f"{name:<26} {unit:<6} {value:>14.6g} {spread}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("fingerprint", "step"),
        help="self-check only: tamper with the expected fingerprint, or make a synth step fail",
    )
    args = parser.parse_args(argv)
    if not (SRC / "pinvset" / "cli.py").is_file():
        print(f"error: no pinvset sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(workload, args.seed, work, args.inject)
            rows = [(k, u, v, []) for k, (v, u) in metrics.items()]
        else:
            samples, attempted, failed = run_untraced(
                workload, args.seed, args.seconds, work, args.inject)
            metrics = {k: (statistics.median(samples[k]), u) for k, u in END_TO_END_UNITS.items()}
            rows = [(k, u, metrics[k][0], samples[k]) for k, u in END_TO_END_UNITS.items()]
            # failed_frac is 0 on a passing run, so it is printed here and
            # carried by the JSON's failed/attempted, not listed as a metric.
            rows.append(("failed_frac", "frac", failed / attempted, []))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"steps={attempted} failed={failed} failed_frac={failed / attempted:.6g}")
    print_table(rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
