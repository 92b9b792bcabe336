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
each, and the reader reads the file once, in line-aligned blocks, after a
scan of the head for comments and the header, and hashes (sha256) every
byte it reads.  The block reader alone knows the line ends of other
platforms and the BOM: it hands on each block with its line ends as
'\\n', and the first without a BOM.  A block of plain ``a,b,..``
rows is parsed by ``orjson``; any other block, and one that may hold a
value that ``orjson`` reads otherwise than numpy, by ``np.loadtxt`` from
its lines.  Each end holds one block of the text at a time.
``read_csv`` is the one CSV reader: ``load_dataset`` splits its columns
into states and successors, and the SVG overlay is read by it too.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import DimensionMismatchError, Rect, Vec, rect_to_cubes


# Most points ``dyadic_grid_points`` makes: 2^26 points hold about 2 GB of
# states and successors at n = 2.
MAX_GRID_POINTS = 1 << 26


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
        self.sha256: str | None = None  # of the CSV it was loaded from

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
    level, in row-major order with the last coordinate varying fastest.  A
    grid of more than ``MAX_GRID_POINTS`` points is refused with a
    ValueError before any level is built.
    """
    if not tau > 0.0:
        raise ValueError(f"resolution floor must be positive, got {tau}")
    centers, root_radius = rect_to_cubes(*domain)
    depth, radius = 1, root_radius / 2.0
    while radius >= tau:
        depth, radius = depth + 1, radius / 2.0
    count = len(centers) * sum(1 << (centers.shape[1] * level) for level in range(depth))
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"a dyadic grid at tau={tau!r} has {count} points, more than the "
            f"{MAX_GRID_POINTS} allowed"
        )
    levels: list[np.ndarray] = []
    for center in centers:
        axes, radius = list(center[:, None]), root_radius
        for _ in range(depth):
            grid = np.meshgrid(*axes, indexing="ij")
            levels.append(np.stack([a.ravel() for a in grid], axis=1))
            radius /= 2.0
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
    """``raw`` as a number where it is that number as Python prints it (its
    ``repr``): an integer in [-2^63, 2^64), the range orjson writes, or a
    finite float.  Any other value is kept as its text, so no digit is
    lost, and ``-0``, ``1_000``, ``+5`` and ``1.50`` stay text."""
    try:
        v = int(raw)
    except ValueError:
        try:
            v = float(raw)
        except ValueError:
            return raw
    if type(v) is int and not -2 ** 63 <= v < 2 ** 64:
        return raw  # kept as written: orjson writes no integer past 64 bits
    if not math.isfinite(v):
        return raw  # kept as written: JSON holds no inf or nan
    return v if repr(v) == raw else raw


# Blanks around a line's content; a line ends at '\n' once ``_line_blocks``
# has read it.
_BLANKS = " \t\f\v"

# Rows formatted by one ``orjson`` call in ``save_dataset``.
CSV_BLOCK_ROWS = 1 << 14

# Bytes that ``read_csv`` reads at a time; a block of the file is cut
# after the last line end they hold.
CSV_READ_BYTES = 1 << 18

# The bytes a plain row's numbers are spelled with: deleting them leaves
# only the row's commas and its '\n'.
_NUMBER_BYTES = b"0123456789.-+eE"


def _line_blocks(fh, digest) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of about ``CSV_READ_BYTES``, each cut
    after a line end ('\\n', '\\r\\n' or '\\r', never between the two bytes
    of a '\\r\\n'); the last block runs to the end of the file.  Every byte
    read goes to the hash object ``digest`` too; then a UTF-8 BOM that
    starts the file is dropped, and every line end is handed on as '\\n'."""
    tail, bom, more = b"", b"\xef\xbb\xbf", True
    while more:
        chunk = fh.read(CSV_READ_BYTES)
        digest.update(chunk)
        more, block = bool(chunk), tail + chunk
        del chunk  # only the block is held while the caller parses it
        end = len(block)
        if more:
            nl = block.rfind(b"\n")
            # A '\r' that ends the chunk may be the first byte of a '\r\n'.
            end = max(nl, block.rfind(b"\r", nl + 1, end - 1)) + 1
        block, tail = block[:end], block[end:]
        if block:
            # The first block holds the whole first line, so the whole BOM.
            block, bom = block.removeprefix(bom), b""
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            yield block


def _comment_metadata(raw: bytes) -> dict:
    """``key=value`` pairs of every comment line: a line whose first
    non-blank byte is '#'.  A '#' later in a data row ends the row but
    carries no metadata.

    Scans for '#' with ``bytes.find`` and decodes only the comments, so a
    block without one costs one pass in C over its bytes.
    """
    metadata: dict = {}
    pos = raw.find(b"#")
    while pos != -1:
        start = raw.rfind(b"\n", 0, pos) + 1
        end = raw.find(b"\n", pos) + 1 or len(raw)  # past the line
        if not raw[start:pos].strip(_BLANKS.encode()):
            # A line that is not UTF-8 is refused by ``_content_lines``.
            for token in raw[pos + 1:end].decode("utf-8", "replace").split():
                if "=" in token:
                    k, _, v = token.partition("=")
                    metadata[k.strip()] = _parse_meta_value(v.strip())
        pos = raw.find(b"#", end)
    return metadata


def _content_lines(raw: bytes, path: Path, lineno: int):
    """(line number, content, offset) of every line of ``raw`` with content:
    its text before any '#' with the blanks stripped, and where the line
    starts.  Lines are numbered on from ``lineno``, and a line that is not
    UTF-8 text is refused by its ``path:line``."""
    pos = 0
    while pos < len(raw):
        end = raw.find(b"\n", pos) + 1 or len(raw) + 1  # past the line end
        lineno += 1
        try:
            content = raw[pos:end - 1].decode("utf-8").partition("#")[0].strip(_BLANKS)
        except UnicodeDecodeError:
            raise MalformedRowError(f"{path}:{lineno}: line is not UTF-8 text") from None
        if content:
            yield lineno, content, pos
        pos = end


def _floats(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _numpy_rows(text: bytes, cols: int) -> np.ndarray | None:
    """The rows numpy reads from ``text``, or None if it refuses them (a bad
    row, bytes that are not UTF-8) or reads other than ``cols`` columns,
    which is exactly when one of them is bad."""
    with warnings.catch_warnings():
        # Lines of only comments hold no data: numpy warns, and reads 0 rows.
        warnings.simplefilter("ignore", UserWarning)
        try:
            # numpy reads a list of lines faster than a file of them.
            rows = np.loadtxt(text.decode().split("\n"), delimiter=",", comments="#", ndmin=2)
        except ValueError:  # UnicodeDecodeError too
            return None
    return rows if rows.shape[1] == cols or not len(rows) else None


def _parse_rows(block: bytes, path: Path, lineno: int, cols: int) -> np.ndarray:
    """The data rows of ``block`` parsed from their stripped contents, for a
    block whose lines numpy refuses (a line of blanks, an indented comment,
    a bad row); a bad row is named by its ``path:line``, from ``lineno`` on."""
    rows = list(_content_lines(block, path, lineno))
    lines = [line.encode() for _, line, _ in rows]
    parsed = _numpy_rows(b"\n".join(lines), cols)
    if parsed is not None:
        return parsed
    # Halving the lines finds the first bad row after parsing about twice
    # the rows.
    lo, hi = 0, len(lines)
    while hi - lo > 1:  # lines[lo:hi] holds the first bad row
        mid = (lo + hi) // 2
        if _numpy_rows(b"\n".join(lines[lo:mid]), cols) is None:
            hi = mid
        else:
            lo = mid
    lineno, line, _ = rows[lo]
    width = line.count(",") + 1
    if _numpy_rows(lines[lo], width) is None:
        raise MalformedRowError(f"{path}:{lineno}: non-numeric cell in data row")
    raise MalformedRowError(f"{path}:{lineno}: {width} columns, expected {cols}")


def _plain_rows(block: bytes, cols: int) -> np.ndarray | None:
    """The rows of a block of plain rows, ``cols`` numbers joined by ','
    and each ended by '\\n', parsed by ``orjson``; None if the block is not
    plain, ``orjson`` refuses it, or it may hold the integer ``-0``, which
    ``orjson`` reads as 0 and numpy as -0.0.

    On such a block each value is the one ``np.loadtxt`` reads: both round
    a decimal to the nearest float.  ``orjson`` refuses every spelling
    that JSON does not allow ('+1', '.5', '5.', '01') and a number past the
    float range, which then reach numpy; so every value it reads is finite.
    """
    import orjson

    row = b"," * (cols - 1) + b"\n"
    # The first line alone turns away most blocks that are not plain.
    if block[:block.find(b"\n") + 1].translate(None, _NUMBER_BYTES) != row:
        return None
    separators = block.translate(None, _NUMBER_BYTES)
    n = len(separators) // len(row)
    if not block.endswith(b"\n") or separators != row * n:
        return None
    try:
        values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    rows = np.fromiter(values, float, n * cols).reshape(n, cols)
    # A bare '-0' ends at ',' or '\n'; so may an exponent ('1e-0,'), which
    # only sends the block to numpy.
    if not rows.all() and (b"-0," in block or b"-0\n" in block):
        return None
    return rows


def read_csv(path: str | Path) -> tuple[np.ndarray, dict, str]:
    """The rows of a CSV as one float array, its metadata, and the sha256
    of the file (hex); the one CSV reader, for datasets and overlays alike.

    Lines whose first non-blank character is '#' are comments and may
    carry ``key=value`` metadata; an optional non-numeric header row is
    skipped, and a '#' later in a row ends it.  A line may end as on any
    platform, and a UTF-8 BOM may start the file (``_line_blocks``).  The
    first data row fixes an even column count (a state and its successor,
    or an overlay's x,y), and every row must hold that many finite numbers.

    The file is read once, in blocks of about ``CSV_READ_BYTES`` cut at
    line ends, each with its line ends as '\\n' (``_line_blocks``); the
    first block of rows starts at the first data row, past the comments and
    the header that the head scan reads.  A block of plain rows (no blanks
    or comments, and a final '\\n') is parsed by ``orjson``
    (``_plain_rows``), any other by numpy from its lines, and one that
    numpy refuses or reads at another width from its stripped lines
    (``_parse_rows``), which names a bad row's ``path:line``.  A bad row
    anywhere is refused before a non-finite one.
    """
    path = Path(path)
    metadata: dict = {}
    values = array("d")
    lineno = cols = 0  # the lines before the block; the column count, once fixed
    header = False  # whether the first content line was a header
    non_finite = None  # the line of the first non-finite row
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in _line_blocks(fh, digest):
            metadata.update(_comment_metadata(block))
            if not cols:
                # A header row has a cell Python's float refuses; numpy refuses
                # those cells too, and a row that only numpy refuses ('1_0') is
                # a bad row.
                for first, line, pos in _content_lines(block, path, lineno):
                    if header or _floats(line) is not None:
                        break
                    header = True
                else:
                    lineno += block.count(b"\n")
                    continue
                cols = line.count(",") + 1
                if cols % 2 != 0:
                    raise MalformedRowError(f"{path}:{first}: odd column count {cols}")
                block, lineno = block[pos:], first - 1
            rows = _plain_rows(block, cols)
            if rows is not None:
                lineno += len(rows)  # one line per row
            else:
                rows = _numpy_rows(block, cols)
                if rows is None:
                    rows = _parse_rows(block, path, lineno, cols)
                if non_finite is None and not np.isfinite(rows).all():
                    j = int(np.argmin(np.isfinite(rows).all(axis=1)))
                    non_finite = next(islice(_content_lines(block, path, lineno), j, None))[0]
                lineno += block.count(b"\n")
            values.frombytes(rows.tobytes())
    if not cols:
        raise EmptyDatasetError(f"{path}: no data rows")
    if non_finite is not None:
        raise NonFiniteSampleError(f"{path}:{non_finite}: non-finite value in data row")
    return np.frombuffer(values, float).reshape(-1, cols), metadata, digest.hexdigest()


def load_dataset(path: str | Path) -> Dataset:
    """Read sample pairs from a CSV of rows ``x_1,..,x_n,xp_1,..,xp_n``,
    as ``read_csv`` reads it; ``sha256`` is the digest of the file."""
    rows, metadata, sha256 = read_csv(path)
    n = rows.shape[1] // 2
    dataset = Dataset._adopt(rows[:, :n], rows[:, n:], metadata)
    dataset.sha256 = sha256
    return dataset


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
