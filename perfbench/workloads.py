"""Workload definitions: the CLI steps of each chain and its fingerprints.

A workload is a fixed sequence of ``pinvset`` commands, run from one work
directory with relative paths.  Each synth step carries the data seed it was
fed, so the fingerprint recorded for that seed can be looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Step:
    kind: str  # gen | synth | verify | report
    argv: tuple[str, ...]
    result: str | None = None  # result JSON a synth step writes or a verify step reads
    data_seed: int | None = None  # None for grid data, which has no seed


@dataclass(frozen=True)
class Fingerprint:
    volume: float  # compared by exact repr
    sweeps: int
    leaves: tuple[int, int, int]  # included, excluded, unknown
    nodes: int


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int], list[Step]]
    # Keyed by the data seed of a synth step; grid data uses the key None.
    fingerprints: dict[int | None, Fingerprint]


def _grid_linear_fine(seed: int) -> list[Step]:
    # Grid data has no seed; the seed only drives the Monte Carlo check.
    return [
        Step("gen", ("gen", "--system", "linear2d", "--mode", "grid",
                     "--tau", "0.001", "--out", "d.csv")),
        Step("synth", ("synth", "--data", "d.csv", "--system", "linear2d",
                       "--lipschitz", "0.8225", "--tau", "0.001", "--out", "r.json"),
             result="r.json"),
        Step("verify", ("verify", "r.json", "--monte-carlo", "100000", "--horizon", "50",
                        "--seed", str(seed), "--system", "linear2d"),
             result="r.json"),
    ]


def _uniform_nonlinear_fine(seed: int) -> list[Step]:
    return [
        Step("gen", ("gen", "--system", "nonlinear2d", "--mode", "uniform",
                     "--m", "20000", "--seed", str(seed), "--out", "d.csv")),
        Step("synth", ("synth", "--data", "d.csv", "--system", "nonlinear2d",
                       "--lipschitz", "5.728", "--tau", "0.00125",
                       "--mode", "sequential", "--out", "r.json"),
             result="r.json", data_seed=seed),
        Step("verify", ("verify", "r.json"), result="r.json"),
    ]


SEEDS_PER_RUN = 5


def _uniform_nonlinear_seeds(seed: int) -> list[Step]:
    steps: list[Step] = []
    for s in range(seed, seed + SEEDS_PER_RUN):
        data, result = f"d{s}.csv", f"r{s}.json"
        steps += [
            Step("gen", ("gen", "--system", "nonlinear2d", "--mode", "uniform",
                         "--m", "10000", "--seed", str(s), "--out", data)),
            Step("synth", ("synth", "--data", data, "--system", "nonlinear2d",
                           "--lipschitz", "5.728", "--tau", "0.01",
                           "--mode", "batch", "--out", result),
                 result=result, data_seed=s),
            Step("verify", ("verify", result, "--monte-carlo", "100000",
                            "--horizon", "50", "--seed", str(s),
                            "--system", "nonlinear2d"),
                 result=result),
        ]
    # The result files are the only JSON files in the work directory.
    steps.append(Step("report", ("report", "--dir", ".", "--out", "summary.csv")))
    return steps


# Fingerprints measured on the seed commit.  grid-linear-fine reproduces the
# paper's linear-grid volume 1.1844.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grid-linear-fine",
            _grid_linear_fine,
            {None: Fingerprint(1.1844217777252197, 3, (1211, 1292, 1218), 4961)},
        ),
        Workload(
            "uniform-nonlinear-fine",
            _uniform_nonlinear_fine,
            {0: Fingerprint(3.5617828369140625, 4, (3097, 1439, 9961), 19329)},
        ),
        Workload(
            "uniform-nonlinear-seeds",
            _uniform_nonlinear_seeds,
            {
                0: Fingerprint(3.2724609375, 5, (606, 87, 541), 1645),
                1: Fingerprint(3.26171875, 5, (592, 78, 549), 1625),
                2: Fingerprint(3.27734375, 5, (623, 81, 542), 1661),
                3: Fingerprint(3.2666015625, 5, (636, 79, 549), 1685),
                4: Fingerprint(3.2822265625, 5, (640, 77, 529), 1661),
            },
        ),
    )
}
