"""Fixpoint refinement of the candidate invariant set.

Each sweep visits every leaf that was included when the sweep started, in
depth-first order, and classifies the Lipschitz successor box of its sample
against the candidate set, exactly and with no tolerance: one walk of the
tree (``classify_coverage``) on the float box that holds the exact box,
from one ``successor_corners`` pass per wave:

  fully covered  -> the leaf stays included,
  disjoint       -> the leaf is excluded (its cell provably escapes),
  partial        -> the cell is split while the resolution floor allows,
                    otherwise marked unknown and dropped from the candidate.

A split's children are classified later in the same sweep.  The loop
stops at the first sweep that changes nothing, and it always stops (see
``synthesize``); the surviving union is then self-mapping and hence
positively invariant (re-checked independently by the verifier).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import count

from .dataset import Dataset
from .geometry import CoverageClass, classify_coverage, successor_corners
from .tree import Label, PartitionTree

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Synthesis configuration failed validation."""


class UpdateMode(Enum):
    SEQUENTIAL = "sequential"
    BATCH = "batch"


@dataclass(frozen=True)
class SynthConfig:
    lipschitz: float
    tau: float
    mode: UpdateMode = UpdateMode.SEQUENTIAL

    def validate(self) -> None:
        # Written so that NaN fails too: a NaN bound makes every successor
        # box NaN, and NaN boxes classify as covered.
        if not (math.isfinite(self.lipschitz) and self.lipschitz > 0.0):
            raise ConfigError(
                f"Lipschitz bound must be positive and finite, got {self.lipschitz}"
            )
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(
                f"resolution floor must be positive and finite, got {self.tau}"
            )


@dataclass
class SweepStats:
    divisions: int
    exclusions: int
    unknowns: int

    @property
    def changed(self) -> bool:
        return bool(self.divisions or self.exclusions or self.unknowns)


@dataclass
class SynthResult:
    """A finished run.  The tree is the only record of the set: the union of
    its included cells, their volume and the leaf counts are derived from it
    on every access."""

    tree: PartitionTree
    sweeps: int
    config: SynthConfig

    @property
    def volume(self) -> float:
        return self.tree.active_volume()

    @property
    def leaf_counts(self) -> dict[str, int]:
        return self.tree.leaf_counts()


def sweep(tree: PartitionTree, dataset: Dataset, config: SynthConfig) -> SweepStats:
    """One pass over the included leaves present at sweep start.

    The pass runs in waves: the leaves present at sweep start, then the
    children of that wave's splits, and so on.  Each wave's splits are
    made in one ``divide`` call at the end of the wave; a split leaves the
    covered union unchanged, so no verdict of the wave depends on when its
    children are created.  Sequential mode applies exclusions immediately,
    so later classifications within the sweep see the already-shrunken
    candidate.  Batch mode defers all label changes to the end of the
    sweep, so every classification in a batch sweep sees the sweep-start
    geometry.
    """
    batch = config.mode is UpdateMode.BATCH
    retired: list[tuple[int, Label]] = []
    divisions = 0
    nodes = tree.nodes  # its array columns are new arrays after each divide
    lipschitz = config.lipschitz
    tau = config.tau
    wave = tree.active_leaves()
    while wave:
        split = []
        corners = successor_corners(nodes.sample_xp[wave], lipschitz, nodes.radius[wave])
        splittable = (nodes.target_radius[wave] / 2.0 >= tau).tolist()
        for i, box, can_split in zip(wave, corners, splittable):
            verdict = classify_coverage(box, tree)
            if verdict is CoverageClass.FULLY_COVERED:
                continue
            if verdict is CoverageClass.PARTIAL and can_split:
                split.append(i)
                continue
            label = Label.EXCLUDED if verdict is CoverageClass.DISJOINT else Label.UNKNOWN
            retired.append((i, label))
            if not batch:
                tree.set_label(i, label)
        divisions += len(split)
        wave = tree.divide(split, dataset)
    if batch:
        for i, label in retired:
            tree.set_label(i, label)
    exclusions = sum(label is Label.EXCLUDED for _, label in retired)
    unknowns = len(retired) - exclusions
    return SweepStats(divisions, exclusions, unknowns)


def synthesize(tree: PartitionTree, dataset: Dataset, config: SynthConfig) -> SynthResult:
    """Run sweeps until one changes nothing, which always happens: a sweep
    that changes something splits a leaf, whose children stay at or above
    the resolution floor, or retires an included leaf, which ``set_label``
    never re-includes, and there are finitely many of each.  This is the
    one-step set recursion (F. Blanchini, "Set invariance in control",
    Automatica 1999), stopped when the set stops changing."""
    config.validate()
    if config.tau > tree.min_root_radius():
        raise ConfigError(
            f"resolution floor {config.tau} exceeds the smallest root radius "
            f"{tree.min_root_radius()}"
        )
    for z in count(1):
        stats = sweep(tree, dataset, config)
        if logger.isEnabledFor(logging.INFO):  # the volume costs a scan of the tree
            logger.info(
                "sweep=%d active=%d divisions=%d exclusions=%d unknowns=%d volume=%.12g",
                z,
                tree.n_included(),
                stats.divisions,
                stats.exclusions,
                stats.unknowns,
                tree.active_volume(),
            )
        if not stats.changed:
            return SynthResult(tree=tree, sweeps=z, config=config)
