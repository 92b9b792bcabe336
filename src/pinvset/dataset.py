"""Pre-collected state/successor data: ingestion, generation, NN queries.

A dataset is two ``(M, n)`` float arrays, the states ``x`` and their
successors ``x_plus``, with an exact max-norm nearest-neighbor index over
the states, built on the first query so that commands that never ask for
a neighbor build nothing.  The index returns the sample that a linear scan
finds: the lowest index among every sample at the least distance
``max_d |x_d - q_d|``, computed in floating point.  The tree then derives
each ball radius from its cell and that sample (``tree.ball_radii``).

The index is ``nnindex.CellIndex``, imported on the first query, so that
commands that ask for no neighbour (``gen``, ``verify``, ``--version``)
never load it.

The domain is one rectangle, ``(lo, hi)``: the generators draw from it
or cut it with ``rect_to_cubes``, as ``new_tree`` does.  The grid halves
the root cubes by the tree's own split rule, so grid samples sit exactly
at the tree's centers on every domain.

A dataset is stored as CSV, which is streamed at both ends: the writer
formats the rows in blocks, one ``orjson`` dump of a block's flat values
each, and the reader parses a body of plain ``a,b,..`` rows in line-aligned
blocks with ``orjson`` after a scan of the head for comments and the
header.  Any other file, and any value that ``orjson`` reads otherwise than
numpy, goes to ``np.loadtxt``, which reads the file by its name.  Neither
end holds the text of the whole body more than once.  ``read_csv`` is the
one CSV reader: ``load_dataset`` splits its columns into states and
successors, and the SVG overlay is read by it too.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .geometry import DimensionMismatchError, Rect, Vec, rect_to_cubes


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
    domain: Rect

    def __call__(self, x: Sequence[float]) -> Vec:
        return tuple(self.map_points([x])[0].tolist())

    def map_points(self, pts) -> np.ndarray:
        return np.asarray(self.step(np.asarray(pts, dtype=float)), dtype=float)


def linear2d() -> SystemOracle:
    a = np.array([[0.2200, 0.4013], [-0.5364, 0.2109]])

    def step(pts: np.ndarray) -> np.ndarray:
        return pts @ a.T

    return SystemOracle("linear2d", step, 0.8225, ((-0.25, -1.0), (1.0, 0.25)))


def nonlinear2d() -> SystemOracle:
    def step(pts: np.ndarray) -> np.ndarray:
        x1, x2 = pts[:, 0], pts[:, 1]
        return np.column_stack((0.5 * x1 - 0.7 * x2 ** 2, 0.9 * x2 ** 3 + x1 * x2))

    return SystemOracle("nonlinear2d", step, 5.728, ((-1.0, -1.0), (1.0, 1.0)))


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


class Dataset:
    """Sample states ``x`` and successors ``x_plus`` with an exact max-norm
    NN index."""

    def __init__(self, x, x_plus, metadata: dict | None = None):
        # The arrays are copied, so the data set aliases none of the caller's.
        self._keep(np.array(x, dtype=float), np.array(x_plus, dtype=float), metadata)

    @classmethod
    def _adopt(cls, x: np.ndarray, x_plus: np.ndarray, metadata: dict) -> Dataset:
        """A data set that keeps the float arrays it is given, uncopied:
        for arrays that this module built and nothing else holds."""
        dataset = cls.__new__(cls)
        dataset._keep(x, x_plus, metadata)
        return dataset

    def _keep(self, x: np.ndarray, x_plus: np.ndarray, metadata: dict | None) -> None:
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
        from .nnindex import CellIndex

        return CellIndex(self.x)

    def __len__(self) -> int:
        return len(self.x)

    def nearest(self, qs) -> np.ndarray:
        """Exact max-norm nearest neighbors of a (k, n) batch of queries.

        Returns the sample indices, lowest index on ties.
        Refuses (ValueError) a query that is not finite or whose distance
        to a sample overflows.
        """
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries of shape {qs.shape} do not match dataset dim {self.dim}"
            )
        return self._index.query(qs)


def gen_uniform(
    oracle: SystemOracle,
    m: int,
    seed: int,
    domain: Rect | None = None,
) -> Dataset:
    """M states drawn i.i.d. uniform over the domain, successors via the map."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    lo, hi = domain if domain is not None else oracle.domain
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(m, len(lo)))
    meta = {
        "system": oracle.name,
        "mode": "uniform",
        "m": m,
        "seed": seed,
        "lipschitz": oracle.lipschitz,
    }
    return Dataset._adopt(pts, oracle.map_points(pts), meta)


def dyadic_grid_points(domain: Rect, tau: float) -> np.ndarray:
    """Every subdivision-center the partition tree can request, per root cube
    of ``rect_to_cubes(domain)``.

    Level 0 is the root center; level l >= 1 exists when the level's target
    radius ``root_radius / 2**l`` is still at least tau (a node divides only
    while its children stay at or above the resolution floor).  A split
    halves each axis on its own, so a level is the product of per-axis
    values, each the last level's ``v ± r``, as ``PartitionTree._split``
    computes them.  Returns an ``(N, n)`` array: root by root, level by
    level, in row-major order with the last coordinate varying fastest.
    """
    if tau <= 0.0:
        raise ValueError(f"resolution floor must be positive, got {tau}")
    centers, root_radius = rect_to_cubes(*domain)
    levels: list[np.ndarray] = []
    for center in centers:
        axes, radius = list(center[:, None]), root_radius
        while True:
            grid = np.meshgrid(*axes, indexing="ij")
            levels.append(np.stack([a.ravel() for a in grid], axis=1))
            radius /= 2.0
            if radius < tau:
                break
            axes = [np.stack((v - radius, v + radius), axis=1).ravel() for v in axes]
    return np.concatenate(levels)


def gen_dyadic_grid(
    oracle: SystemOracle,
    tau: float,
    domain: Rect | None = None,
) -> Dataset:
    """Deterministic dataset placing a sample at every dyadic target center.

    With this data every division finds a sample exactly at the requested
    center, so partition radii collapse to the target radii (on a
    non-dyadic domain, up to the step up where rounded corners lie past
    ``center ± r_target``).
    """
    pts = dyadic_grid_points(domain if domain is not None else oracle.domain, tau)
    meta = {
        "system": oracle.name,
        "mode": "grid",
        "m": len(pts),
        "tau": tau,
        "lipschitz": oracle.lipschitz,
    }
    return Dataset._adopt(pts, oracle.map_points(pts), meta)


def _parse_meta_value(raw: str):
    try:
        v = float(raw)
    except ValueError:
        return raw
    if v.is_integer() and ("." not in raw and "e" not in raw.lower()):
        return int(v)
    return v


# Blanks around a line's content.  '\n' and '\r' never occur inside a line:
# a line ends at '\n', '\r\n' or '\r', as it does for numpy's text-mode read.
_BLANKS = " \t\f\v"

# Rows formatted by one ``orjson`` call in ``save_dataset``.
CSV_BLOCK_ROWS = 1 << 14

# Bytes that ``read_csv`` reads at a time before reading on to the end of
# the line: the head it scans, and then each block of a plain body.
CSV_READ_BYTES = 1 << 18

# The bytes a plain row's numbers are spelled with: deleting them leaves
# only the row's commas and its '\n'.
_NUMBER_BYTES = b"0123456789.-+eE"


def _line_end(raw: bytes, pos: int) -> int:
    """Offset of the line break ending the line that holds offset ``pos``."""
    end = raw.find(b"\n", pos)
    if end == -1:
        end = len(raw)
    cr = raw.find(b"\r", pos, end)
    return end if cr == -1 else cr


def _comment_metadata(raw: bytes) -> dict:
    """``key=value`` pairs of every comment line: a line whose first
    non-blank byte is '#'.  A '#' later in a data row ends the row but
    carries no metadata.

    Scans for '#' with ``bytes.find`` and decodes only the comments, so a
    CSV with one metadata line costs one pass in C over the bytes.
    """
    metadata: dict = {}
    pos = raw.find(b"#")
    while pos != -1:
        # The line starts after the last '\n' or '\r' before the '#'.
        # Looking for '\r' only back to that '\n' keeps each search inside
        # one line, so a file of many comments is not scanned once each.
        start = raw.rfind(b"\n", 0, pos) + 1
        start = raw.rfind(b"\r", start, pos) + 1 or start
        end = _line_end(raw, pos)
        if not raw[start:pos].strip(_BLANKS.encode()):
            # A line that is not UTF-8 is refused by ``_content_lines``.
            for token in raw[pos + 1:end].decode("utf-8", "replace").split():
                if "=" in token:
                    k, _, v = token.partition("=")
                    metadata[k.strip()] = _parse_meta_value(v.strip())
        pos = raw.find(b"#", end)
    return metadata


def _content_lines(raw: bytes, path: Path):
    """(line number, content, offset) of every line with content: its text
    before any '#' with the blanks stripped, and where the line starts.
    Lines are numbered from 1, and a line that is not UTF-8 text is refused
    by its ``path:line``."""
    lineno = pos = 0
    while pos < len(raw):
        end = _line_end(raw, pos)
        lineno += 1
        try:
            content = raw[pos:end].decode("utf-8").partition("#")[0].strip(_BLANKS)
        except UnicodeDecodeError:
            raise MalformedRowError(f"{path}:{lineno}: line is not UTF-8 text") from None
        if content:
            yield lineno, content, pos
        pos = end + 2 if raw.startswith(b"\r\n", end) else end + 1


def _first_row(raw: bytes, path: Path) -> tuple[int, tuple[int, str, int] | None]:
    """The header's line number (0 without one) and the first data row of
    ``raw``, as ``_content_lines`` yields it, or None if there is none."""
    lines = _content_lines(raw, path)
    skip, first = 0, next(lines, None)
    # A header row has a cell Python's float refuses; numpy refuses those
    # cells too, and a row that only numpy refuses ('1_0') is a bad row.
    if first is not None and _floats(first[1]) is None:
        skip, first = first[0], next(lines, None)
    return skip, first


def _columns(path: Path, first: tuple[int, str, int]) -> int:
    """The column count the first data row fixes, which must be even."""
    lineno, line, _ = first
    cols = line.count(",") + 1
    if cols % 2 != 0:
        raise MalformedRowError(f"{path}:{lineno}: odd column count {cols}")
    return cols


def _data_rows(path: Path, skip: int) -> list[tuple[int, str, int]]:
    """Each data row as ``_content_lines`` yields it, the header (line
    ``skip``) excluded."""
    return [row for row in _content_lines(path.read_bytes(), path) if row[0] > skip]


def _floats(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _width(lines: list[str]) -> int | None:
    """The column count numpy reads the rows with, or None if it refuses
    them."""
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2).shape[1]
    except ValueError:
        return None


def _parse_rows(path: Path, skip: int, cols: int) -> np.ndarray:
    """The data rows parsed from their stripped contents, for files that
    numpy cannot read as they are (a line of blanks, an indented comment,
    a bad row); a bad row is named by its ``path:line``."""
    rows = _data_rows(path, skip)
    lines = [line for _, line, _ in rows]
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        pass
    # A block of rows is bad when numpy refuses it or reads it with other
    # than ``cols`` columns, which is exactly when one of its rows is bad:
    # halving the block finds the first bad row after parsing about twice
    # the rows.
    lo, hi = 0, len(lines)
    while hi - lo > 1:  # lines[lo:hi] holds the first bad row
        mid = (lo + hi) // 2
        if _width(lines[lo:mid]) != cols:
            hi = mid
        else:
            lo = mid
    lineno, width = rows[lo][0], _width(lines[lo:hi])
    if width is None:
        raise MalformedRowError(f"{path}:{lineno}: non-numeric cell in data row")
    raise MalformedRowError(f"{path}:{lineno}: {width} columns, expected {cols}")


def _plain_rows(fh: BinaryIO, block: bytes, cols: int) -> np.ndarray | None:
    """The rows of a body of plain rows, ``cols`` numbers joined by ',' and
    ended by '\\n', parsed by ``orjson``: ``block`` first, then the rest of
    ``fh`` in line-aligned blocks.  None as soon as a block is not plain,
    ``orjson`` refuses it, or it may hold the integer ``-0``, which
    ``orjson`` reads as 0 and numpy as -0.0.

    On such a body each value is the one ``np.loadtxt`` reads: both round
    a decimal to the nearest float.  ``orjson`` refuses every spelling
    that JSON does not allow ('+1', '.5', '5.', '01') and a number past the
    float range, which then reach numpy.  The values collect in one
    growing ``array`` that the result shares, so the rows are not copied
    once more at the end.
    """
    import orjson

    row = b"," * (cols - 1) + b"\n"
    rows = array("d")
    while block:
        separators = block.translate(None, _NUMBER_BYTES)
        n = len(separators) // len(row)
        if not block.endswith(b"\n") or separators != row * n:
            return None
        try:
            values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            return None
        part = np.fromiter(values, float, n * cols)
        # A bare '-0' ends at ',' or '\n'; so may an exponent ('1e-0,'),
        # which only sends the file to numpy.
        if not part.all() and (b"-0," in block or b"-0\n" in block):
            return None
        rows.frombytes(memoryview(part).cast("B"))
        block = fh.read(CSV_READ_BYTES) + fh.readline()
    return np.frombuffer(rows, float).reshape(-1, cols)


def read_csv(path: str | Path) -> tuple[np.ndarray, dict]:
    """The rows of a CSV as one float array, and its metadata; the one CSV
    reader, for datasets and overlays alike.

    Lines whose first non-blank character is '#' are comments and may
    carry ``key=value`` metadata; an optional non-numeric header row is
    skipped, and a '#' later in a row ends it.  A line ends at '\\n',
    '\\r\\n' or '\\r'.  The first data row fixes an even column count (a
    state and its successor, or an overlay's x,y), and every row must hold
    that many finite numbers.

    The head of the file, its first ``CSV_READ_BYTES`` read on to the end
    of a line, is scanned for the metadata, the header and the first data
    row.  From that row on, a body of plain rows (no blanks, comments or
    '\\r', and a final '\\n') is parsed by ``orjson`` in line-aligned
    blocks (``_plain_rows``).  Any other file, or one whose first data row
    lies past the head, is scanned whole, and ``np.loadtxt`` reads it by
    its name, in chunks.  Only when numpy refuses the file (a line of blanks,
    an indented comment, a bad row, bytes that are not UTF-8) are the rows
    parsed from their stripped contents, which names a bad line's
    ``path:line``.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(CSV_READ_BYTES) + fh.readline()
        skip, first = _first_row(head, path)
        rows = None
        if first is not None:
            rows = _plain_rows(fh, head[first[2]:], _columns(path, first))
    if rows is not None:
        metadata = _comment_metadata(head[:first[2]])
    else:
        raw = path.read_bytes()
        metadata = _comment_metadata(raw)
        skip, first = _first_row(raw, path)
        del raw, head  # numpy reads the file itself
        if first is None:
            raise EmptyDatasetError(f"{path}: no data rows")
        cols = _columns(path, first)
        try:
            rows = np.loadtxt(
                path, delimiter=",", comments="#", skiprows=skip, ndmin=2, encoding="utf-8"
            )
        except ValueError:
            rows = _parse_rows(path, skip, cols)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        lineno = _data_rows(path, skip)[int(np.argmin(finite))][0]
        raise NonFiniteSampleError(f"{path}:{lineno}: non-finite value in data row")
    return rows, metadata


def load_dataset(path: str | Path) -> Dataset:
    """Read sample pairs from a CSV of rows ``x_1,..,x_n,xp_1,..,xp_n``,
    as ``read_csv`` reads it."""
    rows, metadata = read_csv(path)
    n = rows.shape[1] // 2
    return Dataset._adopt(rows[:, :n], rows[:, n:], metadata)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write CSV with a metadata comment line and a header.

    Every float is written as its shortest round-trip decimal, so loading
    gives back the same bits.  The rows are formatted and written in blocks
    of ``CSV_BLOCK_ROWS``: one ``orjson`` dump of the block's values as one
    flat list, whose every ``2n``-th comma then becomes a '\\n'.  So the
    text of the whole body is never held at once.
    """
    import orjson

    n = dataset.dim
    head = ""
    if dataset.metadata:
        head = "# " + " ".join(f"{k}={v}" for k, v in dataset.metadata.items()) + "\n"
    header = [f"x{d + 1}" for d in range(n)] + [f"xp{d + 1}" for d in range(n)]
    head += ",".join(header) + "\n"
    with Path(path).open("wb") as fh:
        fh.write(head.encode("utf-8"))
        for i in range(0, len(dataset.x), CSV_BLOCK_ROWS):
            block = np.hstack((
                dataset.x[i:i + CSV_BLOCK_ROWS], dataset.x_plus[i:i + CSV_BLOCK_ROWS]
            ))
            dump = orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
            # '[a,b,c,d]' -> 'a,b\nc,d\n' for 2n = 2: drop '[', end with '\n'
            # in place of ']', and end each row at its 2n-th comma.
            text = np.frombuffer(bytearray(dump), np.uint8)[1:]
            text[-1] = ord("\n")
            text[np.flatnonzero(text == ord(","))[2 * n - 1::2 * n]] = ord("\n")
            fh.write(text)
