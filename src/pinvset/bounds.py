"""Sample-count bounds.

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

Every input must be a finite float, and so must every bound: a volume or
resolution that is not is refused with a ValueError that says which; a
hit probability that underflows to 0 and a bound that overflows (or, for
the covering bound, underflows) raise its subclass ``BoundRangeError``,
so that a caller can still print the other bounds.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum


class FormulaSignWarning(UserWarning):
    """A verbatim bound evaluated to a nonpositive sample count."""


class BoundRangeError(ValueError):
    """A bound, or the hit probability it needs, that is no float (it
    overflows, or underflows to 0) or is too large to evaluate exactly."""


# The most bits of a power that ``_exact`` evaluates: at most about 0.06 s
# of integer arithmetic on one x86-64 core.
_EXACT_BITS = 1 << 20


def _exact(base: tuple[int, int], n: int, scale: tuple[int, int], what: str) -> float:
    """``base^n · scale``, each given as an integer ratio, evaluated exactly
    and rounded once (int / int is correctly rounded); inf where that
    overflows.  A power of more than ``_EXACT_BITS`` bits is refused,
    naming ``what``."""
    (p, q), (a, b) = base, scale
    if n * (max(p, q).bit_length() - 1) > _EXACT_BITS:
        raise BoundRangeError(f"{what} needs more than {_EXACT_BITS} bits to evaluate exactly")
    try:
        return p ** n * a / (q ** n * b)
    except OverflowError:
        return math.inf


def covering_lower_bound(
    vol_domain: float, dim: int, epsilon: float, count: str = "cells"
) -> float:
    """Lower bound on covering a volume at resolution epsilon.

    count="cells": ``(1/eps)^n * vol``, the sample count needed before a
    radius-eps grid can resolve the whole domain (one sample per side-eps
    cell).  count="balls": divides by the unit max-norm ball volume ``2^n``,
    giving the classical covering-number lower bound
    ``(1/eps)^n vol / vol(B_1)``.

    Where that float expression overflows or underflows, the bound is
    evaluated exactly and rounded once; a bound that is still not a
    positive float is refused, and so is an exact evaluation of more than
    ``_EXACT_BITS`` bits.
    """
    if not (math.isfinite(vol_domain) and vol_domain > 0.0):
        raise ValueError(f"domain volume must be finite and positive, got {vol_domain}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"resolution must be finite and positive, got {epsilon}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if count not in ("cells", "balls"):
        raise ValueError(f"count must be 'cells' or 'balls', got {count!r}")
    try:
        value = (1.0 / epsilon) ** dim * vol_domain
        if count == "balls":
            value = value / (2.0 ** dim)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        # (1/eps)^n and 2^n can leave the float range where the bound does
        # not: evaluate vol / (c·eps)^n exactly, c = 2 for balls.
        p, q = epsilon.as_integer_ratio()
        value = _exact(
            (q, 2 * p if count == "balls" else p), dim, vol_domain.as_integer_ratio(),
            f"the {count} covering bound for dimension {dim} and resolution {epsilon!r}",
        )
    if not 0.0 < value < math.inf:
        raise BoundRangeError(
            f"the {count} covering bound for volume {vol_domain!r}, dimension {dim} and "
            f"resolution {epsilon!r} overflows or underflows a float"
        )
    return value


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

    def validate(self) -> float:
        """Refuse a query out of range; return its hit probability
        ``res^n / vol``, which must lie in (0, 1).  Where ``res^n`` is not a
        normal float, the probability is evaluated exactly and rounded once;
        one that is still 0 is a ``BoundRangeError``."""
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"confidence delta must lie in (0, 1], got {self.delta}")
        if not (math.isfinite(self.vol_domain) and self.vol_domain > 0.0):
            raise ValueError(f"domain volume must be finite and positive, got {self.vol_domain}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise ValueError(f"resolution must be finite and positive, got {self.resolution}")
        res, n, vol = self.resolution, self.dim, self.vol_domain
        try:
            power = res ** n
        except OverflowError:
            power = math.inf
        if sys.float_info.min <= power < math.inf:
            p = power / vol
        else:
            p = _exact(
                res.as_integer_ratio(), n, vol.as_integer_ratio()[::-1],
                f"the hit probability {res!r}^{n} / {vol!r}",
            )
        if not 0.0 < p < 1.0:
            error = BoundRangeError if p == 0.0 else ValueError
            raise error(
                f"the hit probability {res!r}^{n} / {vol!r} "
                f"is {p!r} as a float; it must lie in (0, 1)"
            )
        return p


def uniform_sample_bound(query: BoundQuery, form: BoundForm = BoundForm.CANONICAL) -> float:
    """Sample count for a uniform draw to resolve the domain at the query
    resolution with confidence ``1 - delta``.

    CANONICAL returns the ceiling of
    ``(log(1/delta) + log(vol) + n log(1/res)) / (-log(1 - res^n / vol))``,
    which is finite and positive whenever the resolution cell is smaller
    than the domain.  The raw forms keep their published shape; a
    nonpositive result trips a FormulaSignWarning.
    """
    p = query.validate()
    delta, vol, n, res = query.delta, query.vol_domain, query.dim, query.resolution
    log_den = math.log1p(-p)
    if form is BoundForm.NET_RAW:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(res)
        value = num / log_den
    elif form is BoundForm.SYNTH_RAW:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(1.0 / res)
        value = num / log_den
    elif form is BoundForm.CANONICAL:
        num = math.log(1.0 / delta) + math.log(vol) + n * math.log(1.0 / res)
        value = num / -log_den
    else:
        raise ValueError(f"unknown bound form {form!r}")
    if not math.isfinite(value):
        raise BoundRangeError(f"the {form.value} bound overflows a float: {value!r}")
    if form is BoundForm.CANONICAL:
        return float(math.ceil(value))
    if value <= 0.0:
        warnings.warn(
            f"{form.value} bound evaluated to {value:.6g} <= 0; the published "
            "form divides by log(1 - p) < 0, so use the canonical form for a "
            "usable draw count",
            FormulaSignWarning,
            stacklevel=2,
        )
    return value
