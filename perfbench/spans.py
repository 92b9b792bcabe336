"""Spans around each layer's public entry points, and the per-layer metrics.

``Tracer.installed()`` replaces each entry point, where its caller looks it
up, with a wrapper that records one span (name, start, end, parent) and one
size (rows, points, bytes, covers, ...) per call.  Spans are kept in flat
arrays in memory and written out by ``Tracer.write`` after the run.  Nothing
under ``src/`` changes: the wrappers live here and are removed on exit.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

NS = 1e-9


def _result_bytes(args, out) -> int:
    # The manifest's wall-clock duration_s is counted as 3 bytes ("0.0") so
    # the count repeats exactly from run to run.
    path, manifest = args[0], args[2]
    return os.path.getsize(path) - len(repr(manifest.duration_s)) + 3


def _targets():
    """(span name, owner, attribute, size of a call or None) per entry point."""
    from pinvset import cli, dataset, synthesis, tree, verify
    from pinvset.geometry import CoverageClass

    return [
        ("cli.gen", cli, "cmd_gen", None),
        ("cli.synth", cli, "cmd_synth", None),
        ("cli.verify", cli, "cmd_verify", None),
        ("cli.report", cli, "cmd_report", None),
        ("dataset.gen_uniform", cli, "gen_uniform", None),
        ("dataset.gen_dyadic_grid", cli, "gen_dyadic_grid", None),
        ("dataset.save_dataset", cli, "save_dataset", lambda a, o: os.path.getsize(a[1])),
        ("dataset.load_dataset", cli, "load_dataset", lambda a, o: len(o)),
        ("dataset.Dataset.__init__", dataset.Dataset, "__init__", None),
        ("dataset.Dataset.nearest", dataset.Dataset, "nearest", None),
        ("dataset.SystemOracle.map_points", dataset.SystemOracle, "map_points",
         lambda a, o: len(o)),
        ("dataset.SystemOracle.__call__", dataset.SystemOracle, "__call__", None),
        ("tree.divide", tree.PartitionTree, "divide", None),
        ("tree.overlapping", tree.PartitionTree, "overlapping", lambda a, o: len(o)),
        ("geometry.classify_coverage", synthesis, "classify_coverage",
         lambda a, o: int(o is CoverageClass.PARTIAL)),
        ("geometry.uncovered_fragments", verify, "uncovered_fragments", None),
        ("synthesis.synthesize", cli, "synthesize", lambda a, o: len(o.tree.nodes)),
        ("synthesis.sweep", synthesis, "sweep", None),
        ("verify.check_fixpoint", cli, "check_fixpoint", lambda a, o: o.checked_leaves),
        ("verify.monte_carlo_invariance", cli, "monte_carlo_invariance", None),
        ("results.save_result", cli, "save_result", _result_bytes),
        ("results.load_result", cli, "load_result", None),
    ]


class Tracer:
    """The spans of one traced run, in flat arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]

    def _wrap(self, name_id: int, fn, size):
        names, parents, starts, ends, sizes = self.name, self.parent, self.start, self.end, self.size
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            sizes.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if size is not None:
                sizes[i] = size(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        targets = _targets()
        self.names = [name for name, *_ in targets]
        saved = []
        try:
            for name_id, (_, owner, attr, size) in enumerate(targets):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One tab-separated line per span, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        names = self.names
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_ns\tend_ns\tsize\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{p}\t{s - t0}\t{e - t0}\t{z}\n"
                for i, (n, p, s, e, z) in enumerate(
                    zip(self.name, self.parent, self.start, self.end, self.size))
            )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        name, parent, start, end, size = (
            np.asarray(a, dtype=np.int64)
            for a in (self.name, self.parent, self.start, self.end, self.size)
        )
        dur = (end - start) * NS
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(*names):
            return [self.names.index(n) for n in names if n in self.names]

        def sel(*names, under=()):
            mask = np.isin(name, ids(*names))
            if under:
                mask &= np.isin(parent_name, ids(*under))
            return mask

        def total(*names, under=()):
            return float(dur[sel(*names, under=under)].sum())

        def count(*names, under=()):
            return int(sel(*names, under=under).sum())

        def sizes(*names, under=()):
            return int(size[sel(*names, under=under)].sum())

        gens = ("dataset.gen_uniform", "dataset.gen_dyadic_grid")
        oracle = ("dataset.SystemOracle.map_points", "dataset.SystemOracle.__call__")
        mc = "verify.monte_carlo_invariance"
        classify_calls = count("geometry.classify_coverage")
        mc_s = total(mc)
        mc_oracle_s = total("dataset.SystemOracle.map_points", under=(mc,))
        return {
            "dataset.gen_s": (total(*gens), "s"),
            "dataset.oracle_calls": (count(*oracle, under=gens), "count"),
            "dataset.csv_write_s": (total("dataset.save_dataset"), "s"),
            "dataset.csv_bytes": (sizes("dataset.save_dataset"), "B"),
            "dataset.load_s": (total("dataset.load_dataset"), "s"),
            "dataset.index_build_s": (total("dataset.Dataset.__init__"), "s"),
            "dataset.rows": (sizes("dataset.load_dataset"), "count"),
            "dataset.nn_queries": (count("dataset.Dataset.nearest"), "count"),
            "dataset.nn_query_s": (total("dataset.Dataset.nearest"), "s"),
            "tree.nodes": (sizes("synthesis.synthesize"), "count"),
            "tree.divide_calls": (count("tree.divide"), "count"),
            "tree.divide_s": (float(self_time[sel("tree.divide")].sum()), "s"),
            "tree.overlapping_calls": (count("tree.overlapping"), "count"),
            "tree.overlapping_s": (total("tree.overlapping"), "s"),
            "tree.covers_returned": (sizes("tree.overlapping"), "count"),
            "geometry.classify_calls": (classify_calls, "count"),
            "geometry.classify_s": (
                float(self_time[sel("geometry.classify_coverage")].sum()), "s"),
            "geometry.partial_frac": (
                sizes("geometry.classify_coverage") / max(classify_calls, 1), "frac"),
            "synthesis.synthesize_s": (total("synthesis.synthesize"), "s"),
            "synthesis.sweeps": (count("synthesis.sweep"), "count"),
            "synthesis.sweep_s": (total("synthesis.sweep"), "s"),
            "verify.check_fixpoint_s": (total("verify.check_fixpoint"), "s"),
            "verify.checked_leaves": (sizes("verify.check_fixpoint"), "count"),
            "verify.fragments_calls": (count("geometry.uncovered_fragments"), "count"),
            "verify.fragments_s": (total("geometry.uncovered_fragments"), "s"),
            "verify.mc_s": (mc_s, "s"),
            "verify.mc_oracle_s": (mc_oracle_s, "s"),
            "verify.mc_membership_s": (mc_s - mc_oracle_s, "s"),
            "verify.mc_point_steps": (
                sizes("dataset.SystemOracle.map_points", under=(mc,)), "count"),
            "results.save_s": (total("results.save_result"), "s"),
            "results.load_s": (total("results.load_result"), "s"),
            "results.json_bytes": (sizes("results.save_result"), "B"),
            "trace.spans": (len(dur), "count"),
        }


def import_breakdown(env: dict[str, str], repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import times of ``pinvset.cli`` and ``pinvset.bounds`` from
    ``python -X importtime``, median over fresh processes after one warm-up."""
    samples: dict[str, list[float]] = {"pinvset.cli": [], "pinvset.bounds": []}
    for k in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pinvset.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        if k == 0:
            continue
        for line in proc.stderr.splitlines():
            fields = line.rsplit("|", 2)
            module = fields[-1].strip()
            if len(fields) == 3 and module in samples:
                samples[module].append(int(fields[1]) * 1e-6)
    return {
        "cli.import_s": (statistics.median(samples["pinvset.cli"]), "s"),
        "bounds.import_s": (statistics.median(samples["pinvset.bounds"]), "s"),
    }
