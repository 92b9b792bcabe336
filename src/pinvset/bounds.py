"""Sample-count bounds and Minkowski-gauge machinery for contractive sets.

Two sampling regimes are quantified: a deterministic grid, where the sample
count needed to resolve the domain at resolution tau is a covering-number
lower bound, and uniform random sampling, where a union-bound argument gives
the draw count for an epsilon-net with confidence 1 - delta.

The published closed forms for the random regime divide a log-sum numerator
by ``log(1 - p)``, which is negative for any event probability p in (0, 1),
and the resolution term appears with inconsistent sign between the two
printed variants.  Both raw forms are evaluated verbatim here (with a
warning when the result is nonpositive); the CANONICAL form divides by
``-log(1 - p)`` and is the one tests and the CLI rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import DimensionMismatchError


class FormulaSignWarning(UserWarning):
    """A verbatim bound evaluated to a nonpositive sample count."""


class CSetInvalidError(ValueError):
    """Row set does not describe a compact set with the origin interior."""


@dataclass(frozen=True)
class PolytopeCSet:
    """Compact convex polytope with the origin interior: {x : rows @ x <= 1}.

    Compactness is equivalent to the rows positively spanning R^n (the
    recession cone {d : rows @ d <= 0} must be trivial); this is checked at
    construction with 2n small LPs, one per signed coordinate direction.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        from scipy.optimize import linprog  # local, so the CLI starts without scipy

        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise CSetInvalidError("rows must be a nonempty 2-D array")
        object.__setattr__(self, "rows", rows)
        n = rows.shape[1]
        for d in range(n):
            for sign in (1.0, -1.0):
                c = np.zeros(n)
                c[d] = -sign  # linprog minimizes; we want max of sign * e_d
                res = linprog(
                    c,
                    A_ub=rows,
                    b_ub=np.zeros(rows.shape[0]),
                    bounds=[(-1.0, 1.0)] * n,
                    method="highs",
                )
                if not res.success:
                    raise CSetInvalidError(f"recession LP failed: {res.message}")
                if -res.fun > 1e-9:
                    raise CSetInvalidError(
                        "rows do not positively span: unbounded direction "
                        f"found along coordinate {d}"
                    )

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def unit_max_ball(n: int) -> PolytopeCSet:
    """The unit max-norm ball as a C-set (rows +-e_i)."""
    return PolytopeCSet(np.vstack((np.eye(n), -np.eye(n))))


def gauge(cset: PolytopeCSet, x) -> float:
    """Minkowski gauge: the least lambda >= 0 with x in lambda * S.

    For an H-represented C-set this is ``max(0, max_i h_i . x)`` exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != cset.dim:
        raise DimensionMismatchError(
            f"point dim {x.shape[-1]} does not match set dim {cset.dim}"
        )
    return float(max(0.0, float(np.max(cset.rows @ x))))


def gauge_many(cset: PolytopeCSet, pts: np.ndarray) -> np.ndarray:
    """Gauge of each row of an (N, n) array."""
    pts = np.asarray(pts, dtype=float)
    return np.maximum(0.0, (pts @ cset.rows.T).max(axis=1))


def gauge_unit_max(cset: PolytopeCSet) -> float:
    """Largest gauge value over the unit max-norm ball.

    Each row functional h . u is maximized over ||u||_inf <= 1 at
    u = sign(h) with value ||h||_1, so the maximum is max_i ||h_i||_1.
    """
    return float(np.abs(cset.rows).sum(axis=1).max())


def successor_gauge_bound(
    cset: PolytopeCSet, contraction: float, lipschitz: float, radius: float
) -> float:
    """Certified gauge bound over the successor box of a ball inside the set.

    If the set contracts by factor ``contraction`` per step and the ball of
    ``radius`` sits inside it, every point of the Lipschitz successor box
    has gauge at most ``contraction + lipschitz * radius * gauge_unit_max``.
    """
    return contraction + lipschitz * radius * gauge_unit_max(cset)


def max_certified_radius(
    cset: PolytopeCSet, contraction: float, lipschitz: float, rho: float
) -> float:
    """Largest ball radius whose successor box stays inside ``rho * S``."""
    return (rho - contraction) / (lipschitz * gauge_unit_max(cset))


def contraction_window(
    cset: PolytopeCSet, contraction: float, lipschitz: float, radius: float
) -> tuple[float, float] | None:
    """Admissible scalings rho for a radius-r covering of ``rho * S``.

    Balls of this radius centered inside ``rho * S`` stay inside S and
    their successor boxes stay inside ``rho * S`` precisely when rho lies in
    ``[contraction + L * u * r, 1 - r * u]`` with u the unit-ball gauge
    maximum; an empty interval means the radius is too coarse.
    """
    u = gauge_unit_max(cset)
    lo = contraction + lipschitz * u * radius
    hi = 1.0 - radius * u
    if lo > hi:
        return None
    return (lo, hi)


def covering_lower_bound(
    vol_domain: float, dim: int, epsilon: float, count: str = "cells"
) -> float:
    """Lower bound on covering a volume at resolution epsilon.

    count="cells": ``(1/eps)^n * vol``, the sample count needed before a
    radius-eps grid can resolve the whole domain (one sample per side-eps
    cell).  count="balls": divides by the unit max-norm ball volume ``2^n``,
    giving the classical covering-number lower bound
    ``(1/eps)^n vol / vol(B_1)``.
    """
    if vol_domain <= 0.0:
        raise ValueError(f"domain volume must be positive, got {vol_domain}")
    if epsilon <= 0.0:
        raise ValueError(f"resolution must be positive, got {epsilon}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    value = (1.0 / epsilon) ** dim * vol_domain
    if count == "cells":
        return value
    if count == "balls":
        return value / (2.0 ** dim)
    raise ValueError(f"count must be 'cells' or 'balls', got {count!r}")


class BoundForm(Enum):
    # Raw forms evaluate the closed expressions exactly as published,
    # including the negative log(1 - p) denominator; CANONICAL flips the
    # denominator sign and rounds up to an integer draw count.
    NET_RAW = "net-raw"
    SYNTH_RAW = "synth-raw"
    CANONICAL = "canonical"


@dataclass(frozen=True)
class BoundQuery:
    delta: float
    vol_domain: float
    dim: int
    resolution: float

    def validate(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"confidence delta must lie in (0, 1], got {self.delta}")
        if self.vol_domain <= 0.0:
            raise ValueError(f"domain volume must be positive, got {self.vol_domain}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.resolution <= 0.0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.resolution ** self.dim >= self.vol_domain:
            raise ValueError(
                "resolution cell volume "
                f"{self.resolution ** self.dim} reaches the domain volume "
                f"{self.vol_domain}; the hit probability must be < 1"
            )


def uniform_sample_bound(query: BoundQuery, form: BoundForm = BoundForm.CANONICAL) -> float:
    """Sample count for a uniform draw to resolve the domain at the query
    resolution with confidence ``1 - delta``.

    CANONICAL returns the ceiling of
    ``(log(1/delta) + log(vol) + n log(1/res)) / (-log(1 - res^n / vol))``,
    which is finite and positive whenever the resolution cell is smaller
    than the domain.  The raw forms keep their published shape; a
    nonpositive result trips a FormulaSignWarning.
    """
    query.validate()
    delta, vol, n, res = query.delta, query.vol_domain, query.dim, query.resolution
    p = res ** n / vol
    log_den = math.log1p(-p)
    if form is BoundForm.NET_RAW:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(res)
        value = num / log_den
    elif form is BoundForm.SYNTH_RAW:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(1.0 / res)
        value = num / log_den
    elif form is BoundForm.CANONICAL:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(1.0 / res)
        return float(math.ceil(num / -log_den))
    else:
        raise ValueError(f"unknown bound form {form!r}")
    if value <= 0.0:
        warnings.warn(
            f"{form.value} bound evaluated to {value:.6g} <= 0; the published "
            "form divides by log(1 - p) < 0, so use the canonical form for a "
            "usable draw count",
            FormulaSignWarning,
            stacklevel=2,
        )
    return value
