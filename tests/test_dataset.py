import hashlib
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import nearest_kdtree, nearest_linear, reference_csv_rows, reference_load
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvset.dataset as dataset_module
from pinvset.dataset import (
    Dataset,
    DatasetError,
    EmptyDatasetError,
    MalformedRowError,
    NonFiniteSampleError,
    SystemOracle,
    UnknownSystemError,
    dyadic_grid_points,
    gen_dyadic_grid,
    gen_uniform,
    get_system,
    load_dataset,
    linear2d,
    read_csv,
    save_dataset,
)
from pinvset.geometry import DimensionMismatchError, balls_contain_cells, rect_to_cubes
from pinvset.synthesis import SynthConfig, synthesize
from pinvset.nnindex import CellIndex
from pinvset.tree import new_tree


def make_dataset(points):
    return Dataset(points, points)


# -- loading -----------------------------------------------------------------


def test_load_two_rows(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\n1,1,0.5,0.5\n")
    ds = load_dataset(f)
    assert len(ds) == 2
    assert ds.x[1].tolist() == [1.0, 1.0]
    assert ds.x_plus[1].tolist() == [0.5, 0.5]


def test_load_header_comments_metadata(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "# system=linear2d seed=7 m=2 lipschitz=0.8225\n"
        "x1,x2,xp1,xp2\n"
        "0,0,0,0\n"
        "# trailing comment\n"
        "0.5,0.5,0.1,0.1\n"
    )
    ds = load_dataset(f)
    assert len(ds) == 2
    assert ds.metadata["system"] == "linear2d"
    assert ds.metadata["seed"] == 7
    assert ds.metadata["lipschitz"] == pytest.approx(0.8225)


def test_load_comment_rules(tmp_path):
    # A comment line is one whose first non-blank character is '#'; a '#'
    # later in a data row ends the row but carries no metadata.
    f = tmp_path / "d.csv"
    f.write_text(
        "x1,x2,xp1,xp2\n"
        "0,0,0,0\n"
        "# seed=3 note=a#b\n"
        "  # indented=1\n"
        "0.5,0.5,0.1,0.1 # skipped=1\n"
        "\t # tab=2\n"
        "#m=2"
    )
    ds = load_dataset(f)
    assert ds.x.tolist() == [[0.0, 0.0], [0.5, 0.5]]
    assert ds.metadata == {"seed": 3, "note": "a#b", "indented": 1, "tab": 2, "m": 2}


def test_load_blank_only_lines(tmp_path):
    # A line of blanks is skipped like an empty one, wherever it is, and
    # the line numbers in errors still count it.
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\n   \n1,1,1,1\n")
    assert load_dataset(f).x.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    f.write_text(" \t\nx1,x2,xp1,xp2\n\t\n0,0,0,0\n \n\n1,1,1,1\n  ")
    assert load_dataset(f).x.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    f.write_text("0,0,0,0\n  \n0,0\n")
    with pytest.raises(MalformedRowError, match=r"d\.csv:3: 2 columns, expected 4"):
        load_dataset(f)
    f.write_text("0,0,0,0\n  \n0,0,nan,0\n")
    with pytest.raises(NonFiniteSampleError, match=r"d\.csv:3: non-finite"):
        load_dataset(f)


def test_load_dimension_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\n0,0\n")
    with pytest.raises(MalformedRowError, match=r"d\.csv:2: 2 columns, expected 4"):
        load_dataset(f)


def test_load_odd_columns_malformed(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,0,1\n")
    with pytest.raises(MalformedRowError):
        load_dataset(f)


def test_load_non_numeric_cell(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\nx,y,z,w\n")
    with pytest.raises(MalformedRowError):
        load_dataset(f)


@pytest.mark.parametrize("text,line", [
    ("x1,x2,xp1,xp2\n0,0,0,0\n1_0,0,0,0\n", 3),
    ("1_0,0,0,0\n0,0,0,0\n", 1),
    ("0,0,0,0\n  \n0,0,0,0\n0,2_5,0,0\n0,0,0\n", 4),
    ("0,0,0,0\n0,0,0,0\n0,0,0\n0,2_5,0,0\n", 3),
])
def test_load_names_row_numpy_refuses(tmp_path, text, line):
    # Python's float takes '1_0' and numpy does not: the row is still named.
    f = tmp_path / "us.csv"
    f.write_text(text)
    with pytest.raises(MalformedRowError, match=rf"us\.csv:{line}: "):
        load_dataset(f)


def test_load_empty_file(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_dataset(f)


def test_save_load_round_trip(tmp_path, lin_oracle):
    ds = gen_uniform(lin_oracle, 50, seed=3)
    f = tmp_path / "d.csv"
    save_dataset(ds, f)
    back = load_dataset(f)
    assert (back.x == ds.x).all() and (back.x_plus == ds.x_plus).all()
    assert back.metadata["system"] == "linear2d"


# Whole exponent range: subnormals, signed zeros, the 1e-7..1e-4 band where
# the writer's spelling differs from repr, and magnitudes of 1e16 and up.
_any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(1e-7, 1e-4) | st.floats(-1e-4, -1e-7),
    st.floats(1e16, 1e300) | st.floats(-1e300, -1e16),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 12), data=st.data())
def test_save_load_round_trip_bit_identical(tmp_path_factory, n, m, data):
    rows = st.lists(st.lists(_any_finite, min_size=n, max_size=n), min_size=m, max_size=m)
    x = np.array(data.draw(rows), dtype=float)
    xp = np.array(data.draw(rows), dtype=float)
    f = tmp_path_factory.mktemp("rt") / "d.csv"
    save_dataset(Dataset(x, xp, {"m": m}), f)
    back = load_dataset(f)
    assert (back.x.view(np.int64) == x.view(np.int64)).all()
    assert (back.x_plus.view(np.int64) == xp.view(np.int64)).all()
    assert back.metadata == {"m": m}


def test_load_names_non_finite_row(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# m=3\nx1,x2,xp1,xp2\n0,0,0,0\n\n0.5,0.5,nan,0.1\n1,1,inf,0\n")
    with pytest.raises(NonFiniteSampleError, match=r"d\.csv:5: "):
        load_dataset(f)


@pytest.mark.parametrize("m", [0, 1, 3, 4, 7])
def test_save_writes_blocks_like_one_call(tmp_path, monkeypatch, m):
    # With blocks of 3 rows, 0..7 rows cover no block, a partial one, an
    # exact one, one and a row, and two and a row.
    monkeypatch.setattr(dataset_module, "CSV_BLOCK_ROWS", 3)
    rng = np.random.default_rng(m)
    rows = rng.normal(scale=10.0 ** rng.integers(-8, 8, size=(m, 4)))
    f = tmp_path / "d.csv"
    data = SimpleNamespace(x=rows[:, :2], x_plus=rows[:, 2:], dim=2, metadata={"m": m})
    save_dataset(data, f)
    assert f.read_bytes() == f"# m={m}\nx1,x2,xp1,xp2\n".encode() + reference_csv_rows(rows)


_BLANK_LINES = st.text(" \t\f\v", max_size=3)
_COMMENT_LINES = st.builds(
    lambda indent, tokens: f"{indent}#" + " ".join(tokens),
    st.sampled_from(["", " ", "\t", " \t "]),
    st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(["m", "seed", "system", "tau"]),
            st.one_of(st.integers(-5, 10**6).map(str),
                      st.sampled_from(["linear2d", "0.5", "1e-3", "a#b", "", "-0", "1_000",
                                       "+5", "1.50", "9007199254740993",
                                       "18446744073709551616"])),
        ),
        max_size=3,
    ),
)
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["-0", ".5", "5.", "1E5", " 2.5", "3 "]),
)
_BAD_CELLS = st.sampled_from(["x", "", "1.2.3", "nan", "inf", "-inf"])


@st.composite
def _csv_texts(draw):
    """A dataset CSV text mixing blank-only lines, indented comments,
    trailing '#' on rows, the three line endings, an optional header and
    final newline, and sometimes one bad row."""
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(_CELLS, min_size=2 * n, max_size=2 * n), min_size=1, max_size=6))
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "drop", "add"]))
        if kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
        elif kind == "drop":
            row.pop()
        else:
            row.append("0")
    lines = [
        draw(st.sampled_from(["", " ", "\t"])) + ",".join(row)
        + draw(st.sampled_from(["", " ", "#", " # note=1", "\t#x"]))
        for row in rows
    ]
    if draw(st.booleans()):
        header = [f"x{d + 1}" for d in range(n)] + [f"xp{d + 1}" for d in range(n)]
        lines.insert(0, ",".join(header) + draw(st.sampled_from(["", " # cols"])))
    extras = draw(st.lists(
        st.tuples(st.integers(0, len(lines)), _BLANK_LINES | _COMMENT_LINES), max_size=6,
    ))
    for at, extra in sorted(extras, key=lambda e: -e[0]):
        lines.insert(at, extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts(), data=st.data())
def test_load_matches_plain_reference(tmp_path_factory, text, data):
    # Covers numpy's read of each block and, for blank-only lines and
    # indented comments, the stripped-lines parse; both must agree with a
    # line-by-line parse in plain Python.  Blocks of a few bytes put block
    # edges inside the mixed lines.
    f = tmp_path_factory.mktemp("ingest") / "d.csv"
    f.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "CSV_READ_BYTES", data.draw(st.integers(1, len(text) + 1)))
        try:
            rows, metadata = reference_load(text, f)
        except DatasetError as expected:
            with pytest.raises(type(expected)) as got:
                load_dataset(f)
            assert type(got.value) is type(expected)
            assert str(got.value).split(": ")[0] == str(expected).split(": ")[0]
            return
        ds = load_dataset(f)
    got = np.hstack((ds.x, ds.x_plus))
    assert got.view(np.int64).tolist() == np.array(rows).view(np.int64).tolist()
    assert ds.metadata == metadata


def test_load_cr_only_line_endings(tmp_path):
    # '\r' ends a line for the header skip as it does for numpy: no row is
    # dropped or read as a header.
    f = tmp_path / "d.csv"
    f.write_bytes(b"# m=2\rx1,x2,xp1,xp2\r0,0,0,0\r\n1,1,1,1\r")
    ds = load_dataset(f)
    assert ds.x.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert ds.metadata == {"m": 2}
    f.write_bytes(b"x1,x2,xp1,xp2\r0,0,0,0\r1,1,nan,1\r")
    with pytest.raises(NonFiniteSampleError, match=r"d\.csv:3: "):
        load_dataset(f)


def test_load_cr_only_file_reads_block_by_block(tmp_path, monkeypatch, lin_oracle):
    # Blocks were read on to the next '\n', so a file whose lines end in a
    # bare '\r' was read as one block, whose list of lines set the peak
    # memory.  Cut at every line end, it reads a block at a time, to the
    # same bits as its '\n' copy; with its line ends read as '\n', each
    # block of rows is plain, and numpy reads none.
    f = tmp_path / "d.csv"
    save_dataset(gen_uniform(lin_oracle, 300, seed=0), f)
    want = load_dataset(f)
    monkeypatch.setattr(dataset_module, "CSV_READ_BYTES", 1000)
    calls = _counting_loadtxt(monkeypatch)
    blocks = []
    plain_rows = dataset_module._plain_rows
    monkeypatch.setattr(dataset_module, "_plain_rows",
                        lambda block, cols: blocks.append(block) or plain_rows(block, cols))
    for line_end in (b"\r", b"\r\n"):
        f.write_bytes(f.read_bytes().replace(b"\n", line_end))
        blocks.clear()
        got = load_dataset(f)
        assert len(blocks) > 1 and not calls, line_end
        assert got.x.tobytes() == want.x.tobytes() and got.x_plus.tobytes() == want.x_plus.tobytes()
        assert got.metadata == want.metadata
        f.write_bytes(f.read_bytes().replace(line_end, b"\n"))


def test_csv_io_memory_below_file_size(tmp_path, lin_oracle):
    # Neither end holds the CSV text more than once: the writer formats
    # blocks of rows, and the reader parses the file a block at a time,
    # with orjson, for its CRLF copy too.
    ds = gen_uniform(lin_oracle, 200_000, seed=0)
    f = tmp_path / "d.csv"
    tracemalloc.start()
    try:
        save_dataset(ds, f)
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = f.stat().st_size
    assert size > 15 * 2**20
    assert save_peak < 1.0 * size, save_peak / size
    for line_end in (b"\n", b"\r\n"):
        f.write_bytes(f.read_bytes().replace(b"\n", line_end))
        tracemalloc.start()
        try:
            back = load_dataset(f)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(back) == 200_000
        assert load_peak < 1.5 * f.stat().st_size, (line_end, load_peak / f.stat().st_size)


@pytest.mark.parametrize("tail", ["# end\n", "# end", "  \n\n\t\n", "# a, b\n\n"],
                         ids=["comment", "comment-no-newline", "blanks", "comma-comment"])
def test_load_block_without_data_warns_nothing(tmp_path, monkeypatch, tail):
    # With 1-byte reads each line is a block of its own; numpy warns of a
    # block that holds no data.
    monkeypatch.setattr(dataset_module, "CSV_READ_BYTES", 1)
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\n1,1,1,1\n" + tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(f)
    assert ds.x.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_load_short_row_in_a_later_block_wins_over_nan(tmp_path, monkeypatch):
    # The non-finite row in the first block is only raised after the last
    # block, so the malformed row that a later block holds is named.
    monkeypatch.setattr(dataset_module, "CSV_READ_BYTES", 16)
    f = tmp_path / "d.csv"
    f.write_text("0,0,0,0\nnan,0,0,0\n" + "1,1,1,1\n" * 8 + "0,0\n1,1,1,1\n")
    with pytest.raises(MalformedRowError, match=r"d\.csv:11: 2 columns, expected 4"):
        load_dataset(f)


@pytest.mark.parametrize("text", [
    "# m=3\nx1,x2,xp1,xp2\n0,0,0,0\n1,1,1,1\n-2,2,0.5,0\n",
    "# m=3\r\nx1, x2, xp1, xp2\r\n0, 0, 0, 0\r\n  \r\n1,1,1,1 # c\r\n-2,2,0.5,0",
], ids=["plain", "non-plain"])
def test_read_csv_reads_the_file_only_through_its_blocks(tmp_path, monkeypatch, text):
    # Neither a second read of the whole file nor numpy's read by name.
    f = tmp_path / "d.csv"
    f.write_text(text)

    def refuse(*args, **kwargs):
        raise AssertionError("the whole file read again")

    loadtxt = np.loadtxt

    def lines_only(lines, *args, **kwargs):
        if isinstance(lines, (str, bytes, Path)) or hasattr(lines, "read"):
            refuse()
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    monkeypatch.setattr(np, "loadtxt", lines_only)
    ds = load_dataset(f)
    assert ds.x.tolist() == [[0.0, 0.0], [1.0, 1.0], [-2.0, 2.0]]
    assert ds.metadata == {"m": 3}


@pytest.mark.parametrize("text", [
    "# m=3\nx1,x2,xp1,xp2\n0,0,0,0\n1,1,1,1\n-2,2,0.5,0\n",
    "# m=3\r\n# a comment\r\nx1, x2, xp1, xp2\r\n0, 0, 0, 0\r\n# c\r\n"
    "1,1,1,1 # c\r\n-2,2,0.5,0\r\n",
], ids=["plain", "crlf-comments"])
@pytest.mark.parametrize("read_bytes", [1, 7, dataset_module.CSV_READ_BYTES])
def test_read_csv_digest_is_the_sha256_of_the_file(tmp_path, monkeypatch, text, read_bytes):
    # The digest is taken in the one pass that parses the file, in blocks
    # of any size.
    f = tmp_path / "d.csv"
    f.write_bytes(text.encode())
    digest = hashlib.sha256(f.read_bytes()).hexdigest()
    monkeypatch.setattr(dataset_module, "CSV_READ_BYTES", read_bytes)
    assert read_csv(f)[2] == digest
    assert load_dataset(f).sha256 == digest


@pytest.mark.parametrize("read_bytes", [1, 2, 7, dataset_module.CSV_READ_BYTES])
@pytest.mark.parametrize("head", ["", "# m=3\n"], ids=["rows", "comment"])
def test_load_skips_a_utf8_bom(tmp_path, monkeypatch, head, read_bytes):
    # Read as text, a BOM made the first row a header, or the metadata
    # comment a header; reads of 1 or 2 bytes split it across chunks.
    f = tmp_path / "b.csv"
    f.write_bytes(b"\xef\xbb\xbf" + head.encode() + b"0,0,0,0\n1,1,1,1\n2,2,2,2\n")
    monkeypatch.setattr(dataset_module, "CSV_READ_BYTES", read_bytes)
    ds = load_dataset(f)
    assert ds.x.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert ds.metadata == ({"m": 3} if head else {})
    assert ds.sha256 == hashlib.sha256(f.read_bytes()).hexdigest()


def test_non_finite_metadata_is_kept_as_written(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# lipschitz=inf note=nan low=-Infinity big=1e400 m=2 tau=0.5\n0,0,0,0\n")
    assert load_dataset(f).metadata == {
        "lipschitz": "inf", "note": "nan", "low": "-Infinity", "big": "1e400", "m": 2, "tau": 0.5,
    }


def _counting_loadtxt(monkeypatch) -> list:
    """Make ``np.loadtxt`` record each call, then read as it does."""
    calls, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


# Tokens as a writer spells numbers: shortest-repr floats (subnormals and
# both zeros included), integers, and two past the float range.
_CANONICAL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]).map(repr),
    st.integers(-(2**64), 2**64).map(str),
    st.integers(10**29, 10**30 - 1).map(str) | st.integers(-(10**30) + 1, -(10**29)).map(str),
    st.sampled_from(["-0", str(2**53 + 1), "-1e-400", "1e400"]),
)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), m=st.integers(1, 8), header=st.booleans(), data=st.data())
def test_plain_body_reads_as_numpy_does(tmp_path_factory, n, m, header, data):
    # Blocks of a few bytes put row ends on block edges.  Only a bare '-0'
    # (orjson reads it as 0) and '1e400' (orjson refuses it) reach numpy.
    rows = data.draw(st.lists(
        st.lists(_CANONICAL_TOKENS, min_size=2 * n, max_size=2 * n), min_size=m, max_size=m,
    ))
    head = f"# m={m}\n" + ("x1," * (2 * n - 1) + "x9\n" if header else "")
    text = head + "".join(",".join(row) + "\n" for row in rows)
    f = tmp_path_factory.mktemp("plain") / "d.csv"
    f.write_text(text)
    block = data.draw(st.integers(len(head) + 1, len(text) + 1))
    tokens = {token for row in rows for token in row}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "CSV_READ_BYTES", block)
        expected = np.loadtxt(f, delimiter=",", comments="#", skiprows=2 if header else 0, ndmin=2)
        calls = _counting_loadtxt(mp)
        if not np.isfinite(expected).all():
            with pytest.raises(NonFiniteSampleError):
                load_dataset(f)
        else:
            ds = load_dataset(f)
            got = np.hstack((ds.x, ds.x_plus))
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
            assert ds.metadata == {"m": m}
    assert bool(calls) == bool(tokens & {"-0", "1e400"})


@pytest.mark.parametrize("make", [
    lambda: gen_dyadic_grid(get_system("linear2d"), 0.004),
    lambda: gen_dyadic_grid(get_system("nonlinear2d"), 0.01),
    lambda: gen_uniform(get_system("nonlinear2d"), 5000, seed=1),
], ids=["linear2d-grid", "nonlinear2d-grid", "uniform"])
def test_gen_output_reads_without_numpy(tmp_path, monkeypatch, make):
    # The nonlinear grid runs through the origin: its zeros are '0.0'.
    ds = make()
    f = tmp_path / "d.csv"
    save_dataset(ds, f)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    back = load_dataset(f)
    assert back.x.view(np.int64).tolist() == ds.x.view(np.int64).tolist()
    assert back.x_plus.view(np.int64).tolist() == ds.x_plus.view(np.int64).tolist()
    assert back.metadata == ds.metadata


@pytest.mark.parametrize("text", ["0,1,2,3\r\n4,5,6,7\r\n", "0,1,2,3\r4,5,6,7\r"],
                         ids=["crlf", "cr"])
def test_crlf_and_cr_bodies_read_without_numpy(tmp_path, monkeypatch, text):
    # The block reader hands every line end on as '\n', so these are plain rows.
    f = tmp_path / "d.csv"
    f.write_bytes(text.encode())
    expected = np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
    calls = _counting_loadtxt(monkeypatch)
    ds = load_dataset(f)
    got = np.hstack((ds.x, ds.x_plus))
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert not calls


@pytest.mark.parametrize("text,error", [
    ("0,-0,1,2\n3,4,5,6\n", None),
    ("0,1,2,3\n# m=2\n4,5,6,7\n", None),
    ("0,1,2,3\n\n4,5,6,7\n", None),
    ("0, 1,2,3\n4,5,6,7\n", None),
    ("0,1,2,3\n4,5,6,7", None),
    ("0,1,2,3\n45", (MalformedRowError, r"d\.csv:2: 1 columns")),
    ("0,1,2,3\n+1,5,6,7\n", None),
    ("0,1,2,3\n.5,5,6,7\n", None),
    ("0,1,2,3\n5.,5,6,7\n", None),
    ("0,1,2,3\nnan,5,6,7\n", (NonFiniteSampleError, r"d\.csv:2: non-finite")),
], ids=["minus-zero", "late-comment", "blank-line", "space",
        "no-final-newline", "no-final-newline-one-cell", "plus", "leading-dot",
        "trailing-dot", "nan"])
def test_non_plain_body_reads_through_numpy(tmp_path, monkeypatch, text, error):
    f = tmp_path / "d.csv"
    f.write_bytes(text.encode())
    expected = None if error else np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
    calls = _counting_loadtxt(monkeypatch)
    if error is not None:
        with pytest.raises(error[0], match=error[1]):
            load_dataset(f)
    else:
        ds = load_dataset(f)
        got = np.hstack((ds.x, ds.x_plus))
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert calls


def test_dataset_copies_only_a_callers_arrays(tmp_path, lin_oracle):
    # A caller's arrays are copied; the loader hands over two column views
    # of the one array it parsed.
    x = np.zeros((3, 2))
    ds = Dataset(x, x)
    assert not np.shares_memory(ds.x, x) and not np.shares_memory(ds.x_plus, x)
    f = tmp_path / "d.csv"
    save_dataset(gen_uniform(lin_oracle, 10, seed=0), f)
    back = load_dataset(f)
    assert back.x.base is not None and back.x.base is back.x_plus.base


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dataset_rejects_non_finite(bad):
    with pytest.raises(NonFiniteSampleError, match="sample 1 "):
        Dataset([(0.0, 0.0), (bad, 0.0)], [(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(NonFiniteSampleError, match="sample 0 "):
        Dataset([(0.0, 0.0)], [(0.0, bad)])


def test_gen_uniform_rejects_non_finite_map():
    domain = ((-1.0, -1.0), (1.0, 1.0))
    oracle = SystemOracle("blowup", lambda pts: np.full_like(pts, np.inf), 1.0, domain)
    with pytest.raises(NonFiniteSampleError):
        gen_uniform(oracle, 10, seed=0)


# -- generators ---------------------------------------------------------------


def test_gen_uniform_in_domain_and_deterministic(lin_oracle):
    a = gen_uniform(lin_oracle, 100, seed=1)
    b = gen_uniform(lin_oracle, 100, seed=1)
    assert (a.x == b.x).all() and (a.x_plus == b.x_plus).all()
    lo, hi = lin_oracle.domain
    assert ((a.x >= lo) & (a.x <= hi)).all()
    c = gen_uniform(lin_oracle, 100, seed=2)
    assert (c.x != a.x).any()


def test_gen_uniform_byte_identical(lin_oracle, tmp_path):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(gen_uniform(lin_oracle, 200, seed=42), fa)
    save_dataset(gen_uniform(lin_oracle, 200, seed=42), fb)
    assert fa.read_bytes() == fb.read_bytes()


def test_gen_uniform_successors_can_exit_domain(nonlin_oracle):
    assert nonlin_oracle((1.0, 1.0)) == pytest.approx((-0.2, 1.9))
    ds = gen_uniform(nonlin_oracle, 10000, seed=0)
    lo, hi = nonlin_oracle.domain
    inside = ((ds.x_plus >= lo) & (ds.x_plus <= hi)).all(axis=1)
    assert not inside.all()  # the map pushes some states out of the square


def test_gen_uniform_rejects_zero(lin_oracle):
    with pytest.raises(ValueError):
        gen_uniform(lin_oracle, 0, seed=0)


def test_dyadic_grid_level_counts(lin_oracle):
    domain = ((-0.25, -1.0), (1.0, 0.25))  # one cube (0.375, -0.375) ± 0.625
    assert len(dyadic_grid_points(domain, 0.3125)) == 1 + 4
    assert len(dyadic_grid_points(domain, 1.0)) == 1
    # levels with target radius >= tau: 0.625/2^l >= 0.01 holds through l=5,
    # so sum(4^l, l=0..5) = (4^6 - 1)/3
    assert len(dyadic_grid_points(domain, 0.01)) == (4 ** 6 - 1) // 3 == 1365
    with pytest.raises(ValueError):
        dyadic_grid_points(domain, 0.0)


def test_dyadic_grid_matches_tree_centers(lin_oracle):
    # every level-l center must be reachable by l halvings from the root
    domain = lin_oracle.domain
    pts = dyadic_grid_points(domain, 0.15625)
    assert len(pts) == 1 + 4 + 16
    (center,), root_radius = rect_to_cubes(*domain)
    lo = center - root_radius
    for level, count in ((0, 1), (1, 4), (2, 16)):
        radius = root_radius / 2 ** level
        expected = {
            (lo[0] + (2 * i + 1) * radius, lo[1] + (2 * j + 1) * radius)
            for i in range(2 ** level)
            for j in range(2 ** level)
        }
        assert expected <= set(map(tuple, pts.tolist()))


def _odometer_grid(domain, tau):
    """Reference enumeration: per root cube and level, an odometer over the
    per-axis centers with the last coordinate turning fastest."""
    points = []
    centers, root_radius = rect_to_cubes(*domain)
    for center in centers.tolist():
        n = len(center)
        lo = [c - root_radius for c in center]
        level = 0
        while level == 0 or root_radius / 2 ** level >= tau:
            radius = root_radius / 2 ** level
            per_dim = [[lo[d] + (2 * i + 1) * radius for i in range(2 ** level)]
                       for d in range(n)]
            idx = [0] * n
            while True:
                points.append(tuple(per_dim[d][idx[d]] for d in range(n)))
                d = n - 1
                while d >= 0:
                    idx[d] += 1
                    if idx[d] < 2 ** level:
                        break
                    idx[d] = 0
                    d -= 1
                if d < 0:
                    break
            level += 1
    return points


# Each domain rectangle is cut into its boxes by rect_to_cubes.  On these
# dyadic domains the odometer's values are the split rule's; the ids are
# those of a list that also held the non-dyadic segment [-0.2, 1.0] at
# index 1, where they are not (test_dyadic_grid_hits_every_tree_center).
@pytest.mark.parametrize("boxes,tau", [
    (((-0.25, -1.0), (1.0, 0.25)), 0.01),
    (((-0.75, 0.25), (1.25, 1.25)), 0.03),
    (((-0.625, -0.875, -0.375), (0.75, 0.5, 1.0)), 0.05),
    (((-0.5, -0.5, -0.5), (1.5, 0.5, 0.5)), 0.1),
    (((0.0, 0.0), (3.0, 1.0)), 0.1),
], ids=["boxes0-0.01", "boxes2-0.03", "boxes3-0.05", "boxes4-0.1", "boxes5-0.1"])
def test_dyadic_grid_points_match_odometer_bitwise(boxes, tau):
    pts = dyadic_grid_points(boxes, tau)
    want = np.array(_odometer_grid(boxes, tau))
    assert pts.shape == want.shape == (len(want), len(boxes[0]))
    assert (pts.view(np.int64) == want.view(np.int64)).all()


# On these non-dyadic domains the odometer's values, lo + (2i+1)·r, missed
# 1,167 of the square's 1,365 tree centers and 176 of the segment's 255.
@pytest.mark.parametrize("domain,tau,step,lipschitz", [
    (((0.0, 0.0), (0.3, 0.3)), 0.3 / 64, get_system("linear2d").map_points, 0.8225),
    (((-0.2,), (1.0,)), 0.004, lambda x: 0.9 * x + 0.2, 0.9),
], ids=["square", "segment"])
def test_dyadic_grid_hits_every_tree_center(domain, tau, step, lipschitz):
    pts = dyadic_grid_points(domain, tau)
    ds = Dataset(pts, step(pts))
    tree = new_tree(domain, ds)
    wave = tree.roots
    while wave:
        wave = tree.divide([i for i in wave if tree.nodes.target_radius[i] / 2.0 >= tau], ds)
    assert len(tree.nodes) == len(pts)
    centers = np.array(tree.nodes.target_center)
    assert (ds.x[ds.nearest(centers)] == centers).all()
    # A synth's samples sit at its centers, so each radius is the target
    # radius, widened only where the cell's rounded corners reach past it.
    res = synthesize(new_tree(domain, ds), ds, SynthConfig(lipschitz=lipschitz, tau=tau))
    nodes = res.tree.nodes
    assert len(nodes) > 1 + len(res.tree.roots)
    assert nodes.sample_x == nodes.target_center
    radius, target = np.array(nodes.radius), np.array(nodes.target_radius)
    tight = balls_contain_cells(target, nodes.lo, nodes.hi, nodes.target_center)
    assert (radius[tight] == target[tight]).all() and (radius[~tight] > target[~tight]).all()


def test_gen_dyadic_grid_contains_exact_centers(nonlin_oracle):
    ds = gen_dyadic_grid(nonlin_oracle, 0.25)
    xs = set(map(tuple, ds.x.tolist()))
    assert (0.0, 0.0) in xs
    assert (0.5, 0.5) in xs and (-0.5, 0.5) in xs
    assert (0.25, -0.75) in xs
    assert ds.metadata["mode"] == "grid"


# -- nearest neighbor ----------------------------------------------------------


def _distances_at(ds, qs, idx):
    """The max-norm distance from each query to the sample ``nearest``
    returned for it, as the linear scan computes it."""
    return np.abs(ds.x[idx] - np.asarray(qs, dtype=float).reshape(len(idx), ds.dim)).max(axis=1)


def test_nearest_basic():
    ds = make_dataset([(0.0, 0.0), (1.0, 1.0)])
    # the middle query is equidistant: lowest index wins
    qs = [(0.2, 0.1), (0.5, 0.5), (1.0, 1.0)]
    idx = ds.nearest(qs)
    assert idx.tolist() == [0, 0, 1]
    assert _distances_at(ds, qs, idx).tolist() == [0.2, 0.5, 0.0]


def test_nearest_dimension_mismatch():
    ds = make_dataset([(0.0, 0.0)])
    with pytest.raises(DimensionMismatchError):
        ds.nearest([(0.0, 0.0, 0.0)])
    with pytest.raises(DimensionMismatchError):
        ds.nearest((0.0, 0.0))  # a single point is a batch of one: [(x, y)]


def test_nearest_matches_linear_scan_exactly(rng):
    ds = make_dataset(rng.uniform(-2, 3, size=(400, 2)))
    qs = rng.uniform(-3, 4, size=(1000, 2))
    idx = ds.nearest(qs)
    want = [nearest_linear(ds, q) for q in qs.tolist()]
    assert idx.tolist() == [i for i, _ in want]
    assert _distances_at(ds, qs, idx).tolist() == [d for _, d in want]


def test_nearest_matches_linear_scan_3d(rng):
    ds = make_dataset(rng.uniform(-1, 1, size=(200, 3)))
    qs = rng.uniform(-1.5, 1.5, size=(300, 3))
    assert ds.nearest(qs).tolist() == [nearest_linear(ds, q)[0] for q in qs.tolist()]


def test_nearest_with_duplicate_points_breaks_ties_low():
    ds = make_dataset([(0.5, 0.5), (0.5, 0.5), (0.0, 0.0)])
    assert ds.nearest([(0.5, 0.5), (0.4, 0.4)]).tolist() == [0, 0]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 40),
    lattice=st.booleans(),
    data=st.data(),
)
def test_nearest_matches_linear_scan_property(n, m, lattice, data):
    # Lattice-snapped points and queries make exact distance ties common;
    # drawing indices with replacement makes duplicate points common.
    if lattice:
        coord = st.integers(-4, 4).map(lambda k: k * 0.25)
    else:
        coord = st.floats(-2.0, 2.0, allow_nan=False)
    point = st.tuples(*[coord] * n)
    base = data.draw(st.lists(point, min_size=1, max_size=m))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=m, max_size=m))
    pts = [base[k] for k in picks]
    qs = data.draw(st.lists(point, min_size=1, max_size=20))
    ds = make_dataset(pts)
    idx = ds.nearest(qs)
    want = [nearest_linear(ds, q) for q in qs]
    assert idx.tolist() == [i for i, _ in want]
    assert _distances_at(ds, qs, idx).tolist() == [d for _, d in want]


def _assert_same_answer(ds, qs, scan=True):
    """``Dataset.nearest`` agrees with cKDTree, and with the linear scan, on
    the indices, and the distance to each returned sample is, bit for bit,
    their least distance."""
    idx = ds.nearest(qs)
    dist = _distances_at(ds, qs, idx)
    want_idx, want_dist = nearest_kdtree(ds, qs)
    assert idx.tolist() == want_idx.tolist()
    assert dist.view(np.int64).tolist() == want_dist.view(np.int64).tolist()
    if scan:
        want = [nearest_linear(ds, q) for q in np.asarray(qs, dtype=float).tolist()]
        assert idx.tolist() == [i for i, _ in want]
        assert dist.view(np.int64).tolist() == np.array([d for _, d in want]).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 80), data=st.data())
def test_nearest_matches_references_property(n, m, data):
    # The index cuts the data's box into equal slabs, so eighths put
    # samples and queries on cell faces and make ties common; drawing
    # with replacement makes duplicates common.  Queries reach far outside
    # the data.
    eighths = st.integers(-16, 16).map(lambda k: k / 8)
    coord = st.one_of(eighths, st.floats(-2.0, 2.0, allow_nan=False))
    base = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=m))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=m, max_size=m))
    pts = np.array([base[k] for k in picks])
    if data.draw(st.booleans()):  # every sample shares one coordinate on an axis
        pts[:, data.draw(st.integers(0, n - 1))] = data.draw(eighths)
    far = st.floats(-1e6, 1e6, allow_nan=False)
    qs = data.draw(st.lists(st.tuples(*[st.one_of(coord, far)] * n), min_size=1, max_size=30))
    _assert_same_answer(Dataset(pts, pts), qs)


def test_nearest_on_cell_faces_of_a_shuffled_lattice(rng):
    # 33 x 33 samples 1/32 apart; the index cuts their box into 16 slabs
    # per axis, so every cell face holds samples.  Queries 1/64 apart sit
    # on samples, on faces and midway between samples (ties of 2 and 4).
    axis = np.arange(33) / 32
    pts = rng.permutation(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2))
    q_axis = np.arange(-4, 69, 3) / 64
    qs = np.stack(np.meshgrid(q_axis, q_axis), axis=-1).reshape(-1, 2)
    _assert_same_answer(Dataset(pts, pts), qs)


@pytest.mark.parametrize("past", [0.3, 5.0, 1e6])
def test_nearest_far_from_half_the_domain(rng, past):
    # Samples on the lower half of [-1, 1]^2 in x1; queries spread past
    # the data's box by the given factor of its half-width.
    pts = rng.uniform((-1.0, -1.0), (0.0, 1.0), size=(3000, 2))
    center, half = np.array([-0.5, 0.0]), np.array([0.5, 1.0]) * (1.0 + past)
    qs = rng.uniform(center - half, center + half, size=(3000, 2))
    _assert_same_answer(Dataset(pts, pts), qs, scan=False)
    _assert_same_answer(Dataset(pts, pts), qs[:40])


def test_nearest_on_grid_data_ties_past_a_face(lin_oracle):
    # Far past a face of grid data, every sample on that face is at the
    # same distance: the lowest index wins.
    ds = gen_dyadic_grid(lin_oracle, 0.01)
    qs = np.array([(5.0, -0.3), (-7.0, 0.1), (0.3, 40.0), (100.0, 100.0)])
    _assert_same_answer(ds, qs, scan=False)


def test_nearest_single_sample_and_empty_batch():
    ds = make_dataset([(0.25, -0.5)])
    qs = [(0.25, -0.5), (3.0, 1.0), (-1e9, 0.0)]
    idx = ds.nearest(qs)
    assert idx.tolist() == [0, 0, 0]
    assert _distances_at(ds, qs, idx).tolist() == [0.0, 2.75, 1e9 + 0.25]
    idx = ds.nearest(np.zeros((0, 2)))
    assert idx.shape == (0,) and idx.dtype == np.intp


@pytest.mark.parametrize("n,m", [(1, (1 << 18) + 1000), (3, 1 << 19)])
def test_nearest_with_morton_codes_past_16_bits(rng, n, m):
    # Leaves deep enough that a Morton code takes more than 16 bits.  The
    # samples sit on a lattice of 2^-10 steps with duplicates, and the
    # queries on samples, midway between them and far outside the data.
    pts = rng.integers(-(1 << 10), 1 << 10, size=(m, n)) / 1024.0
    ds = Dataset(pts, pts)
    qs = np.concatenate((
        pts[rng.integers(0, m, size=500)],
        rng.integers(-(1 << 11), 1 << 11, size=(500, n)) / 2048.0,
        rng.uniform(-1.5, 1.5, size=(500, n)),
        rng.uniform(-1e3, 1e3, size=(50, n)),
    ))
    _assert_same_answer(ds, qs, scan=False)
    assert len(ds._index.levels) * n > 16
    _assert_same_answer(ds, qs[::400])


def test_nearest_index_build_memory_per_sample(rng):
    # The build keys the samples through one float buffer and gathers
    # their coordinates in runs, so its peak is little more than what the
    # index keeps.  Columns of a wider array, as the loader hands them over.
    m = 350_000
    x = rng.uniform(-1.0, 1.0, size=(m, 4))[:, :2]
    tracemalloc.start()
    try:
        CellIndex(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m < 28, peak / m


@pytest.mark.parametrize(
    "points, query",
    [
        ([(0.0, 0.0)], (float("nan"), 0.0)),
        ([(0.0, 0.0)], (float("inf"), 0.0)),
        ([(-1e308, 0.0), (0.0, 0.0)], (1e308, 0.0)),  # the distance overflows
    ],
    ids=["nan", "inf", "overflow"],
)
def test_nearest_refuses_queries_without_a_finite_distance(points, query):
    with pytest.raises(ValueError, match="finite"):
        make_dataset(points).nearest([query])


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        Dataset([], [])


# -- oracles -------------------------------------------------------------------


def test_builtin_lipschitz_bounds_hold(lin_oracle, nonlin_oracle, rng):
    for oracle, samples in ((lin_oracle, 10 ** 5), (nonlin_oracle, 10 ** 5)):
        lo, hi = oracle.domain
        p = rng.uniform(lo, hi, size=(samples, 2))
        q = rng.uniform(lo, hi, size=(samples, 2))
        num = np.abs(oracle.map_points(p) - oracle.map_points(q)).max(axis=1)
        den = np.abs(p - q).max(axis=1)
        mask = den > 0
        assert (num[mask] <= oracle.lipschitz * den[mask] + 1e-12).all()


def test_oracle_point_and_batch_agree(nonlin_oracle, rng):
    pts = rng.uniform(-1, 1, size=(100, 2))
    batch = nonlin_oracle.map_points(pts)
    single = np.array([nonlin_oracle(tuple(p)) for p in pts])
    assert np.allclose(batch, single, atol=0)


def test_get_system_unknown():
    with pytest.raises(UnknownSystemError):
        get_system("bogus")


def test_oracle_call_maps_one_state():
    assert linear2d()((1.0, 0.0)) == (0.22, -0.5364)
