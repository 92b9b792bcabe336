"""Pre-collected state/successor data: ingestion, generation, NN queries.

A dataset is two ``(M, n)`` float arrays, the states ``x`` and their
successors ``x_plus``, with an exact max-norm nearest-neighbor index over
the states (``scipy.spatial.cKDTree``), built on the first query so that
commands that never ask for a neighbor load no scipy.  Exactness matters:
the NN distance feeds directly into the certificate radii, so ties are
broken explicitly by lowest index rather than left to the tree's traversal
order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Box,
    BoxList,
    DimensionMismatchError,
    Vec,
    chebyshev,
)


class DatasetError(Exception):
    """Base class for dataset ingestion failures."""


class EmptyDatasetError(DatasetError):
    """No usable sample pairs."""


class MalformedRowError(DatasetError):
    """A data row could not be parsed into 2n numbers."""


class NonFiniteSampleError(DatasetError):
    """A state or successor holds NaN or an infinity."""


class UnknownSystemError(DatasetError):
    """No builtin system registered under the requested name."""


@dataclass(frozen=True)
class SystemOracle:
    """A named state-transition map with a max-norm Lipschitz bound.

    ``step`` maps an (N, n) array of states to the (N, n) array of their
    successors.  The Lipschitz bound is trusted input, not estimated.
    """

    name: str
    step: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    domain: BoxList

    def __call__(self, x: Sequence[float]) -> Vec:
        return tuple(self.map_points([x])[0].tolist())

    def map_points(self, pts) -> np.ndarray:
        return np.asarray(self.step(np.asarray(pts, dtype=float)), dtype=float)


def linear2d() -> SystemOracle:
    a = np.array([[0.2200, 0.4013], [-0.5364, 0.2109]])

    def step(pts: np.ndarray) -> np.ndarray:
        return pts @ a.T

    domain = BoxList((Box((0.375, -0.375), 0.625),))  # [-0.25,1] x [-1,0.25]
    return SystemOracle("linear2d", step, 0.8225, domain)


def nonlinear2d() -> SystemOracle:
    def step(pts: np.ndarray) -> np.ndarray:
        x1, x2 = pts[:, 0], pts[:, 1]
        return np.column_stack((0.5 * x1 - 0.7 * x2 ** 2, 0.9 * x2 ** 3 + x1 * x2))

    domain = BoxList((Box((0.0, 0.0), 1.0),))  # [-1,1]^2
    return SystemOracle("nonlinear2d", step, 5.728, domain)


SYSTEMS: dict[str, Callable[[], SystemOracle]] = {
    "linear2d": linear2d,
    "nonlinear2d": nonlinear2d,
}


def get_system(name: str) -> SystemOracle:
    try:
        return SYSTEMS[name]()
    except KeyError:
        raise UnknownSystemError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None


def tabulated_oracle(
    table: Dataset,
    lipschitz: float,
    domain: BoxList,
    name: str = "tabulated",
) -> SystemOracle:
    """Oracle backed by an explicit table; defined only at tabulated states."""

    def step(pts: np.ndarray) -> np.ndarray:
        idx, dist = table.nearest(pts)
        missing = np.flatnonzero(dist != 0.0)
        if len(missing):
            state = tuple(pts[missing[0]].tolist())
            raise DatasetError(f"state {state} is not tabulated")
        return table.x_plus[idx]

    return SystemOracle(name, step, lipschitz, domain)


class Dataset:
    """Sample states ``x`` and successors ``x_plus`` with an exact max-norm
    NN index.

    ``nearest_linear`` is a linear scan kept as the reference
    implementation.
    """

    def __init__(self, x, x_plus, metadata: dict | None = None):
        x = np.array(x, dtype=float)
        x_plus = np.array(x_plus, dtype=float)
        if x.size == 0:
            raise EmptyDatasetError("dataset must contain at least one sample pair")
        if x.ndim != 2 or x.shape != x_plus.shape:
            raise DimensionMismatchError(
                f"states {x.shape} and successors {x_plus.shape} must be equal (M, n) arrays"
            )
        finite = np.isfinite(x).all(axis=1) & np.isfinite(x_plus).all(axis=1)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NonFiniteSampleError(
                f"sample {j} is not finite: state {x[j].tolist()}, "
                f"successor {x_plus[j].tolist()}"
            )
        self.x = x
        self.x_plus = x_plus
        self.dim = x.shape[1]
        self.metadata: dict = dict(metadata or {})

    @cached_property
    def _index(self):
        from scipy.spatial import cKDTree

        return cKDTree(self.x)

    def __len__(self) -> int:
        return len(self.x)

    def nearest(self, qs) -> tuple[np.ndarray, np.ndarray]:
        """Exact max-norm nearest neighbors of a (k, n) batch of queries.

        Returns the sample indices and distances, lowest index on ties.  The
        two nearest distances expose a tie; a tied query then takes the
        lowest index among every sample at exactly that distance.
        """
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries of shape {qs.shape} do not match dataset dim {self.dim}"
            )
        dist, idx = self._index.query(qs, k=2, p=math.inf)
        best, idx = dist[:, 0], idx[:, 0]
        tied = np.flatnonzero(dist[:, 1] == best)
        if len(tied):
            balls = self._index.query_ball_point(qs[tied], best[tied], p=math.inf)
            idx[tied] = [min(ball) for ball in balls]
        return idx, best

    def nearest_linear(self, q: Sequence[float]) -> tuple[int, float]:
        """Reference linear scan with the same exact tie rule."""
        if len(q) != self.dim:
            raise DimensionMismatchError(
                f"query dim {len(q)} does not match dataset dim {self.dim}"
            )
        best_d = math.inf
        best_i = -1
        for j, x in enumerate(self.x.tolist()):
            d = chebyshev(q, x)
            if d < best_d:
                best_d = d
                best_i = j
        return best_i, best_d


def gen_uniform(
    oracle: SystemOracle,
    m: int,
    seed: int,
    domain: BoxList | None = None,
) -> Dataset:
    """M states drawn i.i.d. uniform over the domain, successors via the map."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    domain = domain if domain is not None else oracle.domain
    rng = np.random.default_rng(seed)
    rects = [b.rect() for b in domain]
    los = np.array([r[0] for r in rects])
    his = np.array([r[1] for r in rects])
    if len(rects) == 1:
        pts = rng.uniform(los[0], his[0], size=(m, len(los[0])))
    else:
        vols = np.array([b.volume() for b in domain])
        choice = rng.choice(len(rects), size=m, p=vols / vols.sum())
        pts = rng.uniform(los[choice], his[choice])
    meta = {
        "system": oracle.name,
        "mode": "uniform",
        "m": m,
        "seed": seed,
        "lipschitz": oracle.lipschitz,
    }
    return Dataset(pts, oracle.map_points(pts), meta)


def dyadic_grid_points(domain: BoxList, tau: float) -> np.ndarray:
    """Every subdivision-center the partition tree can request, per root box.

    Level 0 is the root center; level l >= 1 exists when the level's target
    radius ``root_radius / 2**l`` is still at least tau (a node divides only
    while its children stay at or above the resolution floor).  Returns an
    ``(N, n)`` array: box by box, level by level, each level's centers in
    row-major order with the last coordinate varying fastest.
    """
    if tau <= 0.0:
        raise ValueError(f"resolution floor must be positive, got {tau}")
    levels: list[np.ndarray] = []
    for box in domain:
        lo, _ = box.rect()
        level = 0
        while True:
            radius = box.radius / (2 ** level)
            if level > 0 and radius < tau:
                break
            odd = 2 * np.arange(2 ** level) + 1
            axes = np.meshgrid(*[l + odd * radius for l in lo], indexing="ij")
            levels.append(np.stack([a.ravel() for a in axes], axis=1))
            level += 1
    return np.concatenate(levels)


def gen_dyadic_grid(
    oracle: SystemOracle,
    tau: float,
    domain: BoxList | None = None,
) -> Dataset:
    """Deterministic dataset placing a sample at every dyadic target center.

    With this data every division finds a sample exactly at the requested
    center, so partition radii collapse to the target radii.
    """
    domain = domain if domain is not None else oracle.domain
    pts = dyadic_grid_points(domain, tau)
    meta = {
        "system": oracle.name,
        "mode": "grid",
        "m": len(pts),
        "tau": tau,
        "lipschitz": oracle.lipschitz,
    }
    return Dataset(pts, oracle.map_points(pts), meta)


def _parse_meta_value(raw: str):
    try:
        v = float(raw)
    except ValueError:
        return raw
    if v.is_integer() and ("." not in raw and "e" not in raw.lower()):
        return int(v)
    return v


_BLANKS = " \t\r\f\v"
# A line that holds only blanks, matched with the newline before it.
_BLANK_LINE = re.compile(rf"\n[{_BLANKS}]+(?=\n|\Z)")


def _data_lines(lines: list[str]):
    """(line number, stripped text) of every non-blank, non-comment line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _comments(text: str):
    """(line start, '#' offset, body) of every line whose first non-blank
    character is '#'.

    Scans for '#' with ``str.find``, so a CSV with one metadata line costs
    one pass in C over the text.
    """
    pos = text.find("#")
    while pos != -1:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        if end == -1:
            end = len(text)
        if not text[start:pos].strip():
            yield start, pos, text[pos + 1:end]
        pos = text.find("#", end)


def _row_linenos(lines: list[str], skip: int) -> list[int]:
    """Line number of each parsed data row, the header (line ``skip``) excluded."""
    return [lineno for lineno, _ in _data_lines(lines) if lineno > skip]


def _floats(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _check_row(path: Path, lineno: int, line: str, cols: int) -> None:
    values = _floats(line)
    if values is None:
        raise MalformedRowError(f"{path}:{lineno}: non-numeric cell in data row")
    if len(values) != cols:
        raise DimensionMismatchError(
            f"{path}:{lineno}: {len(values)} columns, expected {cols}"
        )


def load_dataset(path: str | Path) -> Dataset:
    """Read sample pairs from CSV.

    Rows are ``x_1,..,x_n,xp_1,..,xp_n``; lines whose first non-blank
    character is '#' are comments and may carry ``key=value`` metadata; an
    optional non-numeric header row is skipped.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    metadata: dict = {}
    kept: list[str] = []  # the text with each comment's indentation cut out
    done = 0
    for start, pos, comment in _comments(text):
        for token in comment.split():
            if "=" in token:
                k, _, v = token.partition("=")
                metadata[k.strip()] = _parse_meta_value(v.strip())
        if pos > start:  # np.loadtxt would read the blanks as a row
            kept.append(text[done:start])
            done = pos
    if kept:
        text = "".join(kept) + text[done:]
    # np.loadtxt skips an empty line but reads a line of blanks as a
    # one-column row: empty every such line, in one regex pass.
    text = _BLANK_LINE.sub("\n", text.lstrip(_BLANKS))
    lines = text.splitlines()
    data = _data_lines(lines)
    skip = 0
    first = next(data, None)
    if first is not None and _floats(first[1]) is None:
        skip, first = first[0], next(data, None)  # header row
    if first is None:
        raise EmptyDatasetError(f"{path}: no data rows")
    lineno, line = first
    cols = line.count(",") + 1
    if cols % 2 != 0:
        raise MalformedRowError(f"{path}:{lineno}: odd column count {cols}")
    _check_row(path, lineno, line, cols)
    try:
        rows = np.loadtxt(lines, delimiter=",", comments="#", skiprows=skip, ndmin=2)
    except ValueError as exc:
        for lineno, line in data:  # name the first offending line
            _check_row(path, lineno, line, cols)
        raise MalformedRowError(f"{path}: {exc}") from None
    n = cols // 2
    x, x_plus = rows[:, :n], rows[:, n:]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        lineno = _row_linenos(lines, skip)[int(np.argmin(finite))]
        raise NonFiniteSampleError(f"{path}:{lineno}: non-finite value in data row")
    return Dataset(x, x_plus, metadata)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write CSV with a metadata comment line and a header.

    Every float is written as its shortest round-trip decimal, so loading
    gives back the same bits; the whole body is formatted in one ``orjson``
    call.
    """
    import orjson

    n = dataset.dim
    head = ""
    if dataset.metadata:
        head = "# " + " ".join(f"{k}={v}" for k, v in dataset.metadata.items()) + "\n"
    header = [f"x{d + 1}" for d in range(n)] + [f"xp{d + 1}" for d in range(n)]
    head += ",".join(header) + "\n"
    body = orjson.dumps(
        np.hstack((dataset.x, dataset.x_plus)), option=orjson.OPT_SERIALIZE_NUMPY
    )
    with Path(path).open("wb") as fh:
        fh.write(head.encode("utf-8"))
        fh.write(body[2:-2].replace(b"],[", b"\n"))
        fh.write(b"\n")
