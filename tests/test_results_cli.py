import argparse
import functools
import gc
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import listed

import pinvset.cli as cli_module
import pinvset.results as results_module
from pinvset.cli import build_parser, main
from pinvset.dataset import (
    Dataset,
    EmptyDatasetError,
    MalformedRowError,
    gen_uniform,
    linear2d,
    load_dataset,
    save_dataset,
)
from pinvset.render import load_overlay, render_tree_svg
from pinvset.results import (
    ResultFormatError,
    RunManifest,
    load_result,
    result_from_document,
    result_to_document,
    save_result,
)
from pinvset.synthesis import SynthConfig, SynthResult, UpdateMode, synthesize
from pinvset.tree import Label, Nodes, new_tree
from pinvset.verify import check_fixpoint


def small_result(lin_oracle, tau=0.05, m=1500, seed=2):
    ds = gen_uniform(lin_oracle, m, seed)
    tree = new_tree(lin_oracle.domain, ds)
    return synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=tau))


# -- result round trip -----------------------------------------------------------


def _listed(doc: dict) -> dict:
    """``doc`` with each array column of its tree section as its
    ``tolist()``: the lists a parser reads back from the file."""
    return {**doc, "tree": {key: listed(column) for key, column in doc["tree"].items()}}


def test_result_round_trip_identity(lin_oracle, tmp_path):
    res = small_result(lin_oracle)
    manifest = RunManifest(command="test")
    path = tmp_path / "r.json"
    save_result(path, res, manifest)
    loaded_manifest, loaded = load_result(path)
    assert loaded_manifest == manifest
    doc_a = result_to_document(res, manifest)
    doc_b = result_to_document(loaded, loaded_manifest)
    assert list(doc_a) == ["manifest", "config", "tree", "sweeps"]
    assert list(doc_a["config"]) == ["lipschitz", "tau", "update_mode"]
    assert _listed(doc_a) == _listed(doc_b)
    assert loaded.volume == res.volume and loaded.leaf_counts == res.leaf_counts
    # the reloaded tree certifies on its own
    assert check_fixpoint(loaded).passed


def test_result_from_document_rejects_mismatched_union(lin_oracle):
    doc = result_to_document(small_result(lin_oracle), RunManifest(command="test"))
    # claims an empty set while the tree still has live leaves: the set is
    # the tree's to state, so the section is refused whatever it holds
    doc["pi_set"] = {"centers": [], "radii": []}
    with pytest.raises(ResultFormatError, match="unknown section 'pi_set'"):
        result_from_document(doc)


def test_result_from_document_rejects_garbage():
    with pytest.raises(ResultFormatError):
        result_from_document({"manifest": {}})
    with pytest.raises(ResultFormatError, match="not a JSON object"):
        result_from_document("abc")


def test_load_result_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ResultFormatError):
        load_result(p)


# -- SVG --------------------------------------------------------------------------


def test_svg_deterministic_and_well_formed(lin_oracle):
    res = small_result(lin_oracle)
    svg_a = render_tree_svg(res.tree)
    svg_b = render_tree_svg(res.tree)
    assert svg_a == svg_b
    assert svg_a.startswith("<?xml")
    assert svg_a.count("<rect") == len(list(res.tree.iter_leaves())) + 1
    assert svg_a.rstrip().endswith("</svg>")


def test_svg_overlay_polyline(lin_oracle):
    res = small_result(lin_oracle)
    svg = render_tree_svg(res.tree, overlay=[(0.0, 0.0), (0.5, 0.5), (0.5, 0.0)])
    assert "<polyline" in svg


# -- CLI --------------------------------------------------------------------------


def test_cli_gen_synth_verify_flow(tmp_path, capsys):
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    svg = tmp_path / "r.svg"
    assert main([
        "-q", "gen", "--system", "linear2d", "--mode", "uniform",
        "--m", "2000", "--seed", "7", "--out", str(data),
    ]) == 0
    ds = load_dataset(data)
    assert len(ds) == 2000 and ds.metadata["seed"] == 7

    assert main([
        "-q", "synth", "--data", str(data), "--system", "linear2d",
        "--lipschitz", "0.8225", "--tau", "0.02",
        "--out", str(result), "--svg", str(svg),
    ]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["certified"] is True
    assert payload["sweeps"] >= 1 and "terminated_by" not in payload
    assert svg.exists() and svg.read_text().startswith("<?xml")

    assert main(["-q", "verify", str(result)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["passed"] is True

    assert main([
        "-q", "verify", str(result), "--monte-carlo", "2000",
        "--horizon", "20", "--system", "linear2d",
    ]) == 0
    mc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["monte_carlo"]
    assert mc == {"passed": True, "samples": 2000, "horizon": 20, "first_failure": None}


def test_cli_gen_grid_mode(tmp_path):
    data = tmp_path / "g.csv"
    assert main([
        "-q", "gen", "--system", "nonlinear2d", "--mode", "grid",
        "--tau", "0.25", "--out", str(data),
    ]) == 0
    ds = load_dataset(data)
    assert len(ds) == 1 + 4 + 16
    assert ds.metadata["mode"] == "grid"


_HUGE_DOMAIN = "--domain=-8e307,-8e307:8e307,8e307"  # each side is finite, the area is not


@pytest.mark.parametrize("args,reason", [
    pytest.param(["bounds", "--vol", "inf", "--n", "2", "--tau", "0.01"],
                 "domain volume must be finite and positive, got inf", id="bounds-vol-inf"),
    pytest.param(["bounds", "--vol", "nan", "--n", "2", "--tau", "0.01"],
                 "domain volume must be finite and positive, got nan", id="bounds-vol-nan"),
    pytest.param(["bounds", "--vol", "1", "--n", "2", "--tau", "1e-200"],
                 "the cells covering bound for volume 1.0, dimension 2 and resolution 1e-200 "
                 "overflows or underflows a float", id="bounds-overflow"),
    pytest.param(["gen", "--system", "linear2d", _HUGE_DOMAIN, "--m", "10", "--out", "x.csv"],
                 "the volume of domain rectangle (-8e+307, -8e+307)..(8e+307, 8e+307) is not "
                 "a finite float", id="gen"),
    pytest.param(["synth", "--data", "d.csv", _HUGE_DOMAIN, "--lipschitz", "0.5", "--tau", "0.1",
                  "--out", "r.json"], "the volume of domain rectangle", id="synth"),
])
def test_cli_refuses_a_volume_that_is_not_a_finite_float(tmp_path, capsys, monkeypatch, args,
                                                         reason):
    # Each ended in a traceback (OverflowError or ZeroDivisionError) or
    # failed by accident; each is now a usage error with its reason.
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_text("x1,x2,xp1,xp2\n0,0,0,0\n")
    assert main(["-q", *args]) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert not Path("x.csv").exists() and not Path("r.json").exists()


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["-q", "gen", "--system", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["-q", "gen", "--system", "linear2d", "--mode", "uniform",
                 "--out", str(tmp_path / "x.csv")]) == 2  # missing --m
    assert main(["-q", "bounds", "--n", "2", "--tau", "0.01"]) == 2  # no --vol
    assert main(["-q", "nonsense"]) == 2
    # A domain corner that is not finite, or a domain of 10^9 cubes, is
    # refused with a reason before any cube is built.
    capsys.readouterr()
    for domain, reason in [
        ("0,0:inf,1", "domain upper corner (inf, 1.0) is not finite"),
        ("0,0:nan,1", "domain upper corner (nan, 1.0) is not finite"),
    ]:
        assert main(["-q", "gen", "--system", "linear2d", f"--domain={domain}", "--m", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert reason in capsys.readouterr().err
    assert main(["-q", "gen", "--system", "linear2d", "--domain=0,0:1e9,1", "--m", "10",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "needs more than 65536 cubes of side 1.0" in capsys.readouterr().err
    # A grid's resolution floor must be finite: tau=inf wrote a one-point grid.
    assert main(["-q", "gen", "--system", "linear2d", "--mode", "grid", "--tau", "inf",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "resolution floor must be positive and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("option", ["--horizon", "--monte-carlo"])
def test_cli_verify_refuses_a_negative_count_as_it_parses(tmp_path, capsys, option):
    # --horizon -1 verified with exit 0 when the Monte Carlo pass was off.
    # Now it is refused before the file is read: a missing file exits 2,
    # where a count of 0 reaches the load and exits 3.
    missing = str(tmp_path / "missing.json")
    assert main(["-q", "verify", missing, option, "-1"]) == 2
    assert f"argument {option}: must not be negative, got -1" in capsys.readouterr().err
    assert main(["-q", "verify", missing, option, "0"]) == 3


def test_cli_gen_refuses_a_grid_too_large_before_building_it(tmp_path, capsys, monkeypatch):
    # 1,431,655,765 points at tau=1e-5: refused from the count alone.  No
    # meshgrid runs at all; the roots come from a cut made beforehand.
    import pinvset.dataset as dataset_module

    cubes = dataset_module.rect_to_cubes(*linear2d().domain)
    monkeypatch.setattr(dataset_module, "rect_to_cubes", lambda lo, hi: cubes)

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    out = tmp_path / "x.csv"
    assert main(["-q", "gen", "--system", "linear2d", "--mode", "grid", "--tau", "1e-5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a dyadic grid at tau=1e-05 has 1431655765 points, more than the "
        "67108864 allowed\n"
    )
    assert not out.exists()


def test_cli_has_no_sweep_cap_and_one_resolution_flag(tmp_path, capsys):
    # synth runs to its fixpoint, and bounds takes the floor as --tau only.
    assert main(["-q", "synth", "--data", str(tmp_path / "d.csv"), "--lipschitz", "1",
                 "--tau", "0.1", "--out", str(tmp_path / "r.json"), "--max-sweeps", "1"]) == 2
    assert main(["-q", "bounds", "--vol", "1.0", "--n", "2", "--tau", "0.01",
                 "--epsilon", "0.01"]) == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
    assert main(["-q", "bounds", "--vol", "1.0", "--n", "2"]) == 2
    assert "the following arguments are required: --tau" in capsys.readouterr().err


def test_cli_surface(tmp_path, capsys):
    # Every settable value of the command line, by subcommand, read from the
    # parser: a new flag is a deliberate edit here.  With SynthConfig's
    # three fields, 32 in all.
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return [
            a.option_strings or [a.dest] for a in p._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        ]

    surface = {"": options(parser), **{name: options(p) for name, p in sub.choices.items()}}
    assert surface == {
        "": [["--version"], ["-q", "--quiet"]],
        "gen": [["--system"], ["--mode"], ["--m"], ["--tau"], ["--seed"], ["--domain"],
                ["--out"]],
        "synth": [["--data"], ["--domain"], ["--system"], ["--lipschitz"], ["--tau"],
                  ["--mode"], ["--out"], ["--svg"], ["--overlay"]],
        "verify": [["result"], ["--monte-carlo"], ["--horizon"], ["--seed"], ["--system"]],
        "bounds": [["--vol"], ["--n"], ["--tau"], ["--delta"]],
        "report": [["--dir"], ["--out"]],
    }
    assert sum(map(len, surface.values())) + len(fields(SynthConfig)) == 32
    # gen samples only a builtin system, and bounds takes the volume only.
    out = ["--out", str(tmp_path / "x.csv")]
    for argv, flag in [
        (["gen", "--system", "linear2d", "--map-table", "t.csv", "--m", "10", *out],
         "--map-table t.csv"),
        (["gen", "--system", "linear2d", "--lipschitz", "1", "--m", "10", *out],
         "--lipschitz 1"),
        (["bounds", "--vol", "1", "--domain=0,0:1,1", "--n", "2", "--tau", "0.01"],
         "--domain=0,0:1,1"),
    ]:
        assert main(["-q", *argv]) == 2
        assert f"unrecognized arguments: {flag}\n" in capsys.readouterr().err
    assert main(["-q", "gen", "--m", "10", *out]) == 2
    assert "the following arguments are required: --system" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _bits(value):
    """``value`` with every float as its hex form, so that == compares bits
    (0.0 and -0.0 differ) and types (a Label is not an int)."""
    if type(value) in (tuple, list):
        return tuple(map(_bits, value))
    return value.hex() if type(value) is float else (type(value), value)


def _column_bits(column) -> list:
    """A node column, ``listed``, with its values as ``_bits`` gives them."""
    return list(map(_bits, listed(column)))


@functools.cache
def _small_result_bytes() -> bytes:
    """A small result file as ``save_result`` writes it, with metadata: 77
    nodes, with leaves of every label."""
    oracle = linear2d()
    ds = gen_uniform(oracle, 400, seed=2)
    config = SynthConfig(lipschitz=oracle.lipschitz, tau=0.05)
    result = synthesize(new_tree(oracle.domain, ds), ds, config)
    manifest = RunManifest(command="test", dataset_meta={"system": "linear2d", "m": 400})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        save_result(path, result, manifest)
        return path.read_bytes()


def _orjson_int(token: str):
    """An integer token as orjson reads it: the nearest float outside
    [-2^63, 2^64)."""
    value = int(token)
    return value if -(2 ** 63) <= value < 2 ** 64 else float(token)


def _stdlib_load(path):
    """``load_result`` with the stdlib parser alone, reading an integer as
    orjson does: the reference."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_orjson_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ResultFormatError(f"{path}: invalid JSON: {exc}") from exc
    return result_from_document(doc)


# Number tokens that orjson refuses, reads as another type, or reads alike.
_TOKENS = ["NaN", "-Infinity", "1e400", "-1e400", "18446744073709551616",
           "-18446744073709551617", "9223372036854775808", "1e19", "-0", "-0.0", "0.5"]
# Where a token goes, as a path into the document; "*" is a node drawn at random.
_SLOTS = [
    ("tree", "sample_x", "*", 0),
    ("tree", "sample_xp", "*", 1),
    ("tree", "root_bounds", 1, 0),
    ("tree", "sample_index", "*"),
    ("tree", "parent", "*"),
    ("tree", "label", "*"),
    ("sweeps",),
    ("config", "lipschitz"),
    ("config", "tau"),
    ("manifest", "duration_s"),
    ("manifest", "dataset_meta", "m"),
]


@st.composite
def _result_bytes(draw) -> bytes:
    raw = _small_result_bytes()
    kind = draw(st.sampled_from(["token", "duplicate-key", "lone-surrogate", "bom", "as-saved"]))
    if kind == "as-saved":
        return raw
    if kind == "bom":
        return b"\xef\xbb\xbf" + raw
    doc = json.loads(raw)
    marker = '"@@marker@@"'
    if kind == "token":
        *path, last = draw(st.sampled_from(_SLOTS))
        nodes = len(doc["tree"]["parent"])
        container = doc
        for key in path:
            container = container[draw(st.integers(0, nodes - 1)) if key == "*" else key]
        container[draw(st.integers(0, nodes - 1)) if last == "*" else last] = marker[1:-1]
        return json.dumps(doc).replace(marker, draw(st.sampled_from(_TOKENS))).encode()
    text = json.dumps(doc)
    if kind == "duplicate-key":
        # Both parsers keep the last of two equal keys: the value saved.
        section = draw(st.sampled_from(["manifest", "config", "tree"]))
        key = draw(st.sampled_from(sorted(doc[section])))
        value = json.dumps(draw(st.sampled_from([0.25, -1, "x", [0.5], None])))
        return text.replace(f'"{section}": {{', f'"{section}": {{"{key}": {value}, ', 1).encode()
    doc["manifest"]["command"] = marker[1:-1]
    return json.dumps(doc).replace(marker, r'"x\ud800"').encode()


def _read_back(load, path):
    """What ``load`` makes of a file, with every number's type and bits."""
    try:
        manifest, result = load(path)
    except ResultFormatError as exc:
        return "refused", str(exc)
    nodes = {f.name: _column_bits(getattr(result.tree.nodes, f.name)) for f in fields(Nodes)}
    return (repr(manifest), repr(result.config), repr(result.sweeps),
            _bits(result.tree.root_bounds), nodes)


@settings(max_examples=150, deadline=None)
@given(raw=_result_bytes())
def test_load_result_reads_every_file_as_the_stdlib_does(tmp_path_factory, raw):
    # load_result parses with orjson, which reads an integer past 64 bits as
    # a float and refuses NaN, 1e400, a lone surrogate and a BOM.  Every file
    # still loads to what the stdlib parser gives when it reads such an
    # integer as orjson does, bit for bit and type for type, or is refused
    # alike, and verify exits alike.
    path = tmp_path_factory.mktemp("parity") / "r.json"
    path.write_bytes(raw)
    assert _read_back(load_result, path) == _read_back(_stdlib_load, path)
    codes = []
    for load in (load_result, _stdlib_load):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_module, "load_result", load)
            codes.append(main(["-q", "verify", str(path)]))
    assert codes[0] == codes[1]


# Domains of dim n: a dyadic cube, one whose side is no power of two, and
# a rectangle of two root cubes.
_ROUND_TRIP_DOMAINS = {
    "dyadic": lambda n: ((-0.5,) * n, (0.5,) * n),
    "non-dyadic": lambda n: ((0.0,) * n, (0.3,) * n),
    "two-roots": lambda n: ((0.0,) * n, (2.0,) + (1.0,) * (n - 1)),
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((1, 2)),
    domain=st.sampled_from(sorted(_ROUND_TRIP_DOMAINS)),
    mode=st.sampled_from(list(UpdateMode)),
    m=st.integers(1, 60),
    depth=st.integers(0, 5),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_result_round_trip_is_bit_exact(tmp_path_factory, n, domain, mode, m, depth, seed):
    # The file stores root_bounds and the parent column instead of the
    # cells; loading derives the cells, and every column of the node table,
    # stored or derived, comes back bit for bit.
    lo, hi = _ROUND_TRIP_DOMAINS[domain](n)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(m, n))
    middle = (np.array(lo) + np.array(hi)) / 2.0
    ds = Dataset(x, middle + 0.5 * (x - middle) + rng.normal(scale=0.05, size=(m, n)))
    side = min(b - a for a, b in zip(lo, hi))
    config = SynthConfig(lipschitz=0.5, tau=side / 2 ** (depth + 1), mode=mode)
    result = synthesize(new_tree((lo, hi), ds), ds, config)
    path = tmp_path_factory.mktemp("round-trip") / "r.json"
    save_result(path, result, RunManifest(command="test"))
    tree = load_result(path)[1].tree
    assert _bits(tree.root_bounds) == _bits(result.tree.root_bounds)
    assert tree.roots == result.tree.roots
    for column in fields(Nodes):
        got, want = getattr(tree.nodes, column.name), getattr(result.tree.nodes, column.name)
        assert _column_bits(got) == _column_bits(want), column.name


def test_cli_io_errors(tmp_path):
    assert main(["-q", "synth", "--data", str(tmp_path / "missing.csv"),
                 "--system", "linear2d", "--lipschitz", "0.8225",
                 "--tau", "0.02", "--out", str(tmp_path / "r.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["-q", "verify", str(bad)]) == 3


def test_cli_verify_detects_tampering(tmp_path, capsys):
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    main(["-q", "gen", "--system", "linear2d", "--m", "1500", "--seed", "3",
          "--out", str(data)])
    main(["-q", "synth", "--data", str(data), "--system", "linear2d",
          "--lipschitz", "0.8225", "--tau", "0.02", "--out", str(result)])
    capsys.readouterr()
    doc = json.loads(result.read_text())
    labels = doc["tree"]["label"]
    parents = doc["tree"]["parent"]
    is_parent = set(p for p in parents if p >= 0)
    leaf = next(
        i for i in range(len(labels)) if labels[i] == 1 and i not in is_parent
    )
    # Move the leaf's sample two domain widths away: the radius the loader
    # derives from the cell and the sample grows, and the successor box with it.
    doc["tree"]["sample_x"][leaf][0] += 2.5
    result.write_text(json.dumps(doc))
    assert main(["-q", "verify", str(result)]) == 1
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["passed"] is False
    assert report["first_failure"]["leaf"] == leaf


def _synth_linear_result(tmp_path) -> dict:
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    main(["-q", "gen", "--system", "linear2d", "--m", "1500", "--seed", "3",
          "--out", str(data)])
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.02", "--out", str(result)]) == 0
    return json.loads(result.read_text())


def test_cli_synth_records_the_sha256_of_its_data(tmp_path):
    doc = _synth_linear_result(tmp_path)
    digest = hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest()
    assert doc["manifest"]["dataset_sha256"] == digest


def test_cli_verify_rejects_children_that_are_not_one_block(tmp_path, capsys):
    # Move a retired leaf from its parent's block to the root: the root then
    # has 5 children and the old parent 3.  Such a file used to load and fail
    # only the tiling check.
    doc = _synth_linear_result(tmp_path)
    parents, labels = doc["tree"]["parent"], doc["tree"]["label"]
    interior = set(parents)
    leaf = next(
        i for i, p in enumerate(parents) if p > 0 and labels[i] != 1 and i not in interior
    )
    parents[leaf] = 0
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert (
        f"node {leaf} has parent 0, whose children are not one contiguous block of 4 nodes"
        in capsys.readouterr().err
    )


def test_load_rejects_short_child_block(lin_oracle):
    doc = _listed(result_to_document(small_result(lin_oracle), RunManifest(command="test")))
    tree = doc["tree"]
    last = len(tree["parent"]) - 1
    for column in ("parent", "sample_index", "sample_x", "sample_xp", "label"):
        del tree[column][last]
    with pytest.raises(ResultFormatError, match="has fewer than 4 children"):
        result_from_document(doc)


# Each key a result file used to hold beside the tree, by its path, with a
# stale value that disagrees with the tree.
_STALE_SECTIONS = {
    "domain": {"centers": [[5.0, 5.0]], "radii": [0.625]},
    "pi_set": {"centers": [], "radii": []},
    "volume": 99.0,
    "leaf_counts": {"included": 1, "excluded": 0, "unknown": 0},
    "certificate": {
        "method": "exact-fixpoint", "passed": True, "checked_leaves": 1, "first_failure": None,
    },
    "manifest.seed": 99,
    # The cells of the root and the dim, which follow from root_bounds.
    "tree.target_center": [[0.375, -0.375]],
    "tree.target_radius": [0.625],
    "tree.dim": 2,
    # The ball radius, which follows from the cell and its sample.
    "tree.radius": [1.0],
    # The sweep cap and whether it tripped: the loop always runs to its
    # fixpoint.  A config key the format never had is refused the same way.
    "terminated_by": "safeguard",
    "config.max_sweeps": 10000,
    "config.foo": 1,
}


@pytest.mark.parametrize("section", list(_STALE_SECTIONS))
def test_cli_rejects_section_that_contradicts_tree(tmp_path, capsys, caplog, section):
    # A file states each fact once, in the tree; these sections restated it
    # (manifest.seed restated dataset_meta.seed, and the tree's cells and
    # dim its root_bounds, and the radii the cells and samples), or reported
    # a sweep cap that is gone.  A file that carries one is refused by name, so
    # a stale copy never sits in a file that verifies, and report
    # aggregates only the good file.
    doc = _synth_linear_result(tmp_path)
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "good.json").write_text(json.dumps(doc))
    head, _, key = section.rpartition(".")
    (doc[head] if head else doc)[key] = _STALE_SECTIONS[section]
    reason = {
        "": f"unknown section {key!r}",
        "manifest": f"unexpected keyword argument {key!r}",
        "tree": f"unknown tree column {key!r}",
        "config": f"unknown config key {key!r}",
    }[head]
    bad = runs / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(bad)]) == 3
    assert reason in capsys.readouterr().err
    assert main(["-q", "report", "--dir", str(runs)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["runs"] == "1"
    assert any(
        "event=report-skip" in r.getMessage() and "bad.json" in r.getMessage()
        and reason in r.getMessage() for r in caplog.records
    )


@pytest.mark.parametrize("mode", ["sequential", "batch"])
@pytest.mark.parametrize("column,value", [("label", 0), ("label", -1), ("sample_index", -1)])
def test_cli_refuses_a_node_synth_never_writes(tmp_path, capsys, caplog, mode, column, value):
    # divide splits only INCLUDED leaves and set_label relabels only leaves,
    # so a split node is INCLUDED; a sample index names a row, so it is not
    # negative.  A file that says otherwise used to verify (exit 0); it is
    # refused naming the node, and report aggregates only the good file.
    data, result = tmp_path / "g.csv", tmp_path / "g.json"
    main(["-q", "gen", "--system", "linear2d", "--mode", "grid", "--tau", "0.05",
          "--out", str(data)])
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--mode", mode,
                 "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "good.json").write_text(json.dumps(doc))
    node = max(doc["tree"]["parent"])  # split in the last wave
    doc["tree"][column][node] = value
    reason = {
        "label": f"node {node} is split but {Label(value).name}",
        "sample_index": f"node {node} has a sample_index -1 below 0",
    }[column]
    bad = runs / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(bad)]) == 3
    assert reason in capsys.readouterr().err
    assert main(["-q", "report", "--dir", str(runs)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["runs"] == "1"
    assert any(
        "event=report-skip" in r.getMessage() and "bad.json" in r.getMessage()
        and reason in r.getMessage() for r in caplog.records
    )


def _synth_with_comment(tmp_path, old: str, new: str) -> Path:
    """The result of synth on linear2d data whose metadata comment has
    ``old`` replaced by ``new``; synth writes that metadata as it finds it."""
    data = tmp_path / "c.csv"
    result = tmp_path / "c.json"
    main(["-q", "gen", "--system", "linear2d", "--m", "1500", "--seed", "3",
          "--out", str(data)])
    comment, rest = data.read_text().split("\n", 1)
    assert old in comment
    data.write_text(comment.replace(old, new) + "\n" + rest)
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.02", "--out", str(result)]) == 0
    return result


def test_cli_report_skips_manifest_of_the_wrong_type(tmp_path, capsys, caplog):
    # report read dataset_meta with .get and died on a string, and sorted
    # or hashed m and system as it found them.
    doc = _synth_linear_result(tmp_path)
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "good.json").write_text(json.dumps(doc))
    reasons = {}
    for name, key, value, reason in [
        ("str", "dataset_meta", "x", "dataset_meta 'x' is not a JSON object"),
        ("list", "system", ["linear2d"],
         "dataset_meta.system ['linear2d'] is not a JSON string"),
        ("m-list", "m", [1], "dataset_meta.m [1] is not a JSON integer"),
    ]:
        edited = json.loads(json.dumps(doc))
        meta = edited["manifest"]
        (meta if key == "dataset_meta" else meta["dataset_meta"])[key] = value
        (runs / f"{name}.json").write_text(json.dumps(edited))
        reasons[name] = reason
    # A CSV comment alone gives synth an m that is not an integer; the
    # result still verifies, and report skips it.
    comment = _synth_with_comment(tmp_path, "m=1500", "m=abc")
    assert main(["-q", "verify", str(comment)]) == 0
    (runs / "comment.json").write_bytes(comment.read_bytes())
    reasons["comment"] = "dataset_meta.m 'abc' is not a JSON integer"
    capsys.readouterr()
    assert main(["-q", "report", "--dir", str(runs)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["runs"] == "1"
    skips = [r.getMessage() for r in caplog.records if "event=report-skip" in r.getMessage()]
    assert len(skips) == len(reasons)
    for name, reason in reasons.items():
        assert any(f"{name}.json" in line and reason in line for line in skips)


@pytest.mark.parametrize("raw,reason", [
    pytest.param(b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    pytest.param(b"[" * 200_000, "maximum recursion depth exceeded", id="nested-too-deep"),
    pytest.param(b'{"sweeps": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)",
                 id="integer-of-5001-digits"),
])
def test_cli_refuses_a_result_file_that_does_not_parse(tmp_path, capsys, caplog, raw, reason):
    # A file that is not UTF-8 made verify exit 2 (a usage error) and report
    # print no table; one nested too deep ended both in a RecursionError
    # (exit 1, which verify uses for a failed certificate).  An integer of
    # more digits than int() reads made both exit 2, report for the whole
    # directory.  Each is a fault of the file: verify exits 3, and report
    # skips it.
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "good.json").write_text(json.dumps(_synth_linear_result(tmp_path)))
    bad = runs / "bad.json"
    bad.write_bytes(raw)
    capsys.readouterr()
    assert main(["-q", "verify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"{bad}: invalid JSON: " in err and reason in err and "Traceback" not in err
    assert main(["-q", "report", "--dir", str(runs)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["runs"] == "1"
    assert any(
        "event=report-skip" in r.getMessage() and "bad.json" in r.getMessage()
        and reason in r.getMessage() for r in caplog.records
    )


# Seeds at the ends of orjson's integer range [-2^63, 2^64) and past it.
_SEEDS = [2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64, 2 ** 100]


def _no_stdlib_parse(*args, **kwargs):
    raise AssertionError("load_result parsed a file with the stdlib")


@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_every_file_pinvset_writes_loads_without_the_fallback(tmp_path, capsys, monkeypatch,
                                                              mode):
    # The stdlib parse in load_result is for hand-edited files alone: orjson
    # parses every result synth writes, of grid and uniform data, and of
    # seeds at and past the ends of orjson's integer range.
    monkeypatch.setattr(results_module, "json", SimpleNamespace(loads=_no_stdlib_parse))
    runs = tmp_path / "runs"
    runs.mkdir()
    gens = {"grid": ["--mode", "grid", "--tau", "0.05"]}
    for seed in _SEEDS:
        gens[f"seed-{seed}"] = ["--m", "300", "--seed", str(seed)]
    for name, args in gens.items():
        data, result = tmp_path / f"{name}.csv", runs / f"{name}.json"
        assert main(["-q", "gen", "--system", "linear2d", *args, "--out", str(data)]) == 0
        assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                     "--lipschitz", "0.8225", "--tau", "0.05", "--mode", mode,
                     "--out", str(result)]) == 0
        assert main(["-q", "verify", str(result)]) == 0
    capsys.readouterr()
    assert main(["-q", "report", "--dir", str(runs)]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    column = header.split(",").index("runs")
    assert sum(int(row.split(",")[column]) for row in rows) == len(gens)


def test_cli_verify_monte_carlo_refuses_system_of_the_wrong_type(tmp_path, capsys):
    # The oracle's name comes from the data's comment; one that is not a
    # string, or names no builtin system, is a fault of the file (exit 3),
    # not an unknown system (exit 2) or a crash.  Named on the command
    # line, the system is used instead.
    path = _synth_with_comment(tmp_path, "system=linear2d", "system=7")
    doc = json.loads(path.read_text())
    results = {}
    for name, value in [("list", ["linear2d"]), ("foo", "foo")]:
        doc["manifest"]["dataset_meta"]["system"] = value
        results[name] = tmp_path / f"{name}.json"
        results[name].write_text(json.dumps(doc))
    mc = ["--monte-carlo", "200", "--horizon", "5"]
    for result, reason in [
        (path, "dataset_meta.system 7 is not a JSON string"),
        (results["list"], "dataset_meta.system ['linear2d'] is not a JSON string"),
        (results["foo"], f"{results['foo']}: metadata system='foo' names no builtin system"),
    ]:
        capsys.readouterr()
        assert main(["-q", "verify", str(result), *mc]) == 3
        assert reason in capsys.readouterr().err
        assert main(["-q", "verify", str(result), *mc, "--system", "linear2d"]) == 0
    assert main(["-q", "verify", str(results["foo"]), *mc, "--system", "foo"]) == 2


@pytest.mark.parametrize("value", ["7", "foo"])
def test_cli_synth_refuses_a_system_its_data_names_that_is_no_builtin(tmp_path, capsys, value):
    # Without --system or --domain, synth takes the domain of the system the
    # dataset's comment names.  A value there that names no builtin is a
    # fault of the data (exit 3, naming the file); a --system that names
    # none is a usage error (exit 2).
    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    comment, rest = data.read_text().split("\n", 1)
    data.write_text(comment.replace("system=linear2d", f"system={value}") + "\n" + rest)
    synth = ["-q", "synth", "--data", str(data), "--lipschitz", "0.8225", "--tau", "0.05",
             "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(synth) == 3
    shown = "7" if value == "7" else "'foo'"
    assert f"{data}: metadata system={shown} names no builtin system" in capsys.readouterr().err
    assert main([*synth, "--system", "foo"]) == 2
    assert "unknown system 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    assert main([*synth, "--system", "linear2d"]) == 0


def test_cli_synth_writes_non_finite_metadata_as_written(tmp_path):
    # orjson writes a non-finite float as null, so such a value is kept as
    # its text when the CSV is read.
    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    comment, rest = data.read_text().split("\n", 1)
    data.write_text(comment.replace("lipschitz=0.8225", "lipschitz=inf note=nan big=1e400")
                    + "\n" + rest)
    result = tmp_path / "r.json"
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result)]) == 0
    meta = json.loads(result.read_text())["manifest"]["dataset_meta"]
    assert meta == load_dataset(data).metadata == {
        "system": "linear2d", "mode": "uniform", "m": 300, "seed": 1,
        "lipschitz": "inf", "note": "nan", "big": "1e400",
    }


@pytest.mark.parametrize("seed", _SEEDS)
def test_cli_synth_keeps_every_metadata_value(tmp_path, seed):
    # Comment metadata was read through float(), so digits past 2^53 were
    # lost (2^63 - 1 came back as 2^63), and a seed orjson cannot write as
    # an integer ended synth with exit 4 after the whole synthesis.  An
    # integer in orjson's range is kept, and one past it is kept as text.
    data, result = tmp_path / "d.csv", tmp_path / "r.json"
    assert main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", str(seed),
                 "--out", str(data)]) == 0
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result)]) == 0
    expected = {"system": "linear2d", "mode": "uniform", "m": 300,
                "seed": seed if seed < 2 ** 64 else str(seed), "lipschitz": 0.8225}
    for meta in (load_dataset(data).metadata, load_result(result)[0].dataset_meta):
        assert [(k, type(v), v) for k, v in meta.items()] == [
            (k, type(v), v) for k, v in expected.items()]


def test_cli_synth_takes_file_names_that_are_not_utf8(tmp_path, capsys):
    # The manifest's command held each such name's surrogate escapes, which
    # orjson does not write: synth ended with exit 4.  The name's bytes are
    # written with backslash escapes.
    data = tmp_path / os.fsdecode(b"d\xff.csv")
    result = tmp_path / os.fsdecode(b"r\xff.json")
    assert main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
                 "--out", str(data)]) == 0
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result)]) == 0
    command = load_result(result)[0].command
    assert r"d\xff.csv" in command and r"r\xff.json" in command
    assert main(["-q", "verify", str(result)]) == 0


def test_cli_synth_summary_is_strict_json_for_a_name_that_is_not_utf8(tmp_path, capsys):
    # The summary wrote such a name as a lone surrogate escape, which a
    # strict parser refuses; its bytes are written with backslash escapes,
    # as in the manifest's command.
    data = tmp_path / "d.csv"
    result = tmp_path / os.fsdecode(b"r\xff.json")
    assert main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result)]) == 0
    summary = orjson.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["out"] == f"{tmp_path}{os.sep}r\\xff.json"


def test_cli_report_exit_codes(tmp_path, capsys):
    # No result files is a usage error (2); result files that are all
    # unreadable are a data fault (3).  Both name the directory.
    assert main(["-q", "report", "--dir", str(tmp_path)]) == 2
    assert f"no readable result files under {tmp_path}" in capsys.readouterr().err
    (tmp_path / "bad.json").write_text('{"manifest": {}}')
    assert main(["-q", "report", "--dir", str(tmp_path)]) == 3
    assert f"no readable result files under {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["sample_x", "sample_xp"])
def test_cli_verify_rejects_vector_of_wrong_length(tmp_path, capsys, key):
    doc = _synth_linear_result(tmp_path)
    doc["tree"][key][0].append(0.0)
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert "malformed result document" in capsys.readouterr().err


def _half_parent(doc):
    parents = doc["tree"]["parent"]
    node = next(i for i, p in enumerate(parents) if p >= 0)
    parents[node] += 0.5
    return f"node {node} has a parent that is not an integer"


def _fractional_sample(doc):
    doc["tree"]["sample_index"][0] = 3.7
    return "node 0 has a sample_index that is not an integer"


def _float_label(doc, value=1.0):
    labels = doc["tree"]["label"]
    node = labels.index(1)
    labels[node] = value
    return f"node {node} has a label that is not an integer"


def _set(section, key, value):
    def edit(doc):
        (doc[section] if section else doc)[key] = value
        kinds = {"lipschitz": "number", "tau": "number", "manifest": "object",
                 "dataset_meta": "object", "config": "object", "command": "string",
                 "version": "string", "dataset_sha256": "string", "duration_s": "number"}
        return f"{key} {value!r} is not a JSON {kinds.get(key, 'integer')}"

    return edit


def _old_max_sweeps(value):
    # The sweep cap left the format: any config.max_sweeps, of whatever type,
    # is refused by name as an unknown config key.
    def edit(doc):
        doc["config"]["max_sweeps"] = value
        return "unknown config key 'max_sweeps'"

    return edit


def _sweeps(value):
    # synth runs one sweep at least, so no count below 1 is a claim it makes.
    def edit(doc):
        doc["sweeps"] = value
        return f"sweeps {value} is below 1"

    return edit


def _past_64_bits(key):
    # orjson reads an integer token outside [-2^63, 2^64) as the nearest
    # float.  Such a token verified while the loader parsed the file again
    # with the stdlib.
    def edit(doc):
        if key == "sweeps":
            doc["sweeps"] = 2 ** 64
            return "sweeps 1.8446744073709552e+19 is not a JSON integer"
        node = len(doc["tree"][key]) - 1
        doc["tree"][key][node] = 2 ** 64
        return f"node {node} has a {key} that is not an integer"

    return edit


def _huge_lipschitz(doc):
    # A JSON integer past the float range: float() raised OverflowError,
    # which verify did not catch.
    doc["config"]["lipschitz"] = 10 ** 400
    return "int too large to convert to float"


@pytest.mark.parametrize(
    "edit",
    [
        _half_parent,
        _fractional_sample,
        _float_label,
        lambda doc: _float_label(doc, True),
        _set("config", "lipschitz", "0.8225"),
        _set("config", "tau", "0.02"),
        _old_max_sweeps(3.7),
        _old_max_sweeps(True),
        _set(None, "sweeps", "3"),
        _huge_lipschitz,
        _set(None, "manifest", "x"),
        _set(None, "manifest", []),
        _set("manifest", "dataset_meta", "x"),
        _set(None, "config", "x"),
        _sweeps(-3),
        _sweeps(0),
        _set("manifest", "command", 5),
        _set("manifest", "version", None),
        _set("manifest", "dataset_sha256", 5),
        _set("manifest", "duration_s", "abc"),
        *map(_past_64_bits, ["parent", "sample_index", "label", "sweeps"]),
    ],
    ids=[
        "parent+0.5", "sample_index=3.7", "label=1.0", "label=true",
        "lipschitz=str", "tau=str", "max_sweeps=3.7", "max_sweeps=true", "sweeps=str",
        "lipschitz=10**400", "manifest=str", "manifest=list", "dataset_meta=str", "config=str",
        "sweeps=-3", "sweeps=0", "command=int", "version=null", "dataset_sha256=int",
        "duration_s=str", "parent=2**64", "sample_index=2**64", "label=2**64", "sweeps=2**64",
    ],
)
def test_cli_verify_rejects_non_integer_node_column(tmp_path, capsys, edit):
    # int() truncated 3.7 and Label() took 1.0 and true, so these verified;
    # so did config values and sweeps that float() and int() coerced, a
    # sweep count below 1, and manifest fields of the wrong JSON type.
    doc = _synth_linear_result(tmp_path)
    message = edit(doc)
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lipschitz", ["nan", "inf", "0", "-0.5"])
def test_cli_synth_rejects_bad_lipschitz(tmp_path, capsys, lipschitz):
    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    capsys.readouterr()
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", lipschitz, "--tau", "0.05",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "Lipschitz bound must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def test_cli_verify_refuses_a_long_integer_in_a_file_orjson_refuses(tmp_path, capsys):
    # orjson reads an integer past 64 bits as a float, so such a sweep count
    # is refused; the stdlib, which parses a file that orjson refuses, read
    # it as an exact int, and the same file with a NaN beside it verified.
    doc = _synth_linear_result(tmp_path)
    doc["sweeps"] = 2 ** 64
    for nan in (False, True):
        if nan:
            doc["manifest"]["dataset_meta"]["x"] = float("nan")
        result = tmp_path / f"bad-{nan}.json"
        result.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["-q", "verify", str(result)]) == 3
        assert "sweeps 1.8446744073709552e+19 is not a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("lipschitz", float("nan")),
    ("lipschitz", float("inf")),
    ("lipschitz", 0.0),
    ("tau", float("nan")),
])
def test_cli_verify_fails_on_bad_config(tmp_path, capsys, key, value):
    # A NaN bound made every successor box NaN, and those classified as
    # covered: such a file used to verify as invariant.
    doc = _synth_linear_result(tmp_path)
    doc["config"][key] = value
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 1
    report = json.loads(
        capsys.readouterr().out.strip().splitlines()[-1],
        parse_constant=_reject_constant,
    )
    assert report["passed"] is False
    assert report["first_failure"]["reason"].startswith("invalid config:")
    if key == "lipschitz":
        assert report["lipschitz"] == (value if math.isfinite(value) else repr(value))


def test_cli_verify_reports_trusted_lipschitz(tmp_path, capsys, caplog):
    _synth_linear_result(tmp_path)
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="pinvset")
    assert main(["verify", str(tmp_path / "r.json")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["lipschitz"] == 0.8225
    line = next(r.getMessage() for r in caplog.records if "event=verify" in r.getMessage())
    assert "lipschitz=0.8225" in line.split()


def test_cli_verify_reports_trusted_domain(tmp_path, capsys, caplog):
    # The report's domain is the rectangle the roots tile.  An extra
    # included root, whose sample maps to itself, is one root more than
    # rect_to_cubes cuts from that rectangle, so the file is refused.
    doc = _synth_linear_result(tmp_path)
    capsys.readouterr()
    assert main(["-q", "verify", str(tmp_path / "r.json")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["domain"] == [[-0.25, -1.0], [1.0, 0.25]]
    extra = {
        "parent": -1, "sample_index": 0, "sample_x": [50.0, 50.0],
        "sample_xp": [50.0, 50.0], "label": 1,
    }
    for key, value in extra.items():
        doc["tree"][key].append(value)
    (tmp_path / "extra").mkdir()
    path = tmp_path / "extra" / "extra.json"
    path.write_text(json.dumps(doc))
    assert main(["-q", "verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert (
        "the tree has 2 roots, but rect_to_cubes cuts 1 cubes from root_bounds "
        "(-0.25, -1.0)..(1.0, 0.25)" in err
    )
    assert main(["report", "--dir", str(tmp_path / "extra")]) == 3
    assert "the tree has 2 roots" in caplog.text


def _roots_document(doc: dict, root_bounds: list, count: int) -> dict:
    """``doc`` with its tree replaced by ``count`` unsplit included roots
    over ``root_bounds``.  Their samples sit at the origin and map to it."""
    doc["tree"] = {
        "root_bounds": root_bounds, "parent": [-1] * count,
        "sample_index": [0] * count, "sample_x": [[0.0, 0.0]] * count,
        "sample_xp": [[0.0, 0.0]] * count, "label": [1] * count,
    }
    return doc


@pytest.mark.parametrize("root_bounds,count,reason", [
    # The one root cube of the square [-0.25, 0.25]^2, inside linear2d's
    # domain, certifies: the origin maps to itself.
    pytest.param([[-0.25, -0.25], [0.25, 0.25]], 1, None, id="one-cube"),
    # Four roots, as many as its quarters, are not the one cube synth writes.
    pytest.param(
        [[-0.5, -0.5], [0.5, 0.5]], 4,
        "the tree has 4 roots, but rect_to_cubes cuts 1 cubes from root_bounds "
        "(-0.5, -0.5)..(0.5, 0.5)", id="quarters",
    ),
    pytest.param([[-0.5, 0.0], [0.5, 0.0]], 1, "root_bounds: degenerate domain rectangle",
                 id="zero-radius"),
    pytest.param(
        [[0.0, 0.0], [0.3, 0.1]], 3,
        "root_bounds: domain is not tileable by equal cubes: on axis 0, "
        "faces 0.1 and 0.10000000000000002 differ", id="not-tileable",
    ),
    # One cube of finite sides whose area overflows: its volume ended verify
    # in an OverflowError traceback.
    pytest.param(
        [[-8e307, -8e307], [8e307, 8e307]], 1,
        "root_bounds: the volume of domain rectangle (-8e+307, -8e+307)..(8e+307, 8e+307) "
        "is not a finite float", id="volume-overflows",
    ),
])
def test_cli_verify_takes_only_the_roots_synth_writes(tmp_path, capsys, root_bounds, count,
                                                      reason):
    path = tmp_path / "roots.json"
    doc = _roots_document(_synth_linear_result(tmp_path), root_bounds, count)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["-q", "verify", str(path)])
    if reason is None:
        assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
    else:
        assert code == 3
        assert reason in capsys.readouterr().err


def test_cli_verify_refuses_roots_outside_the_system_domain(tmp_path, capsys, caplog):
    # The one cube [-0.5, 0.5]^2 certifies (its sample at the origin maps
    # to itself), but reaches past the domain of linear2d, the system its
    # data names, on both axes.  nonlinear2d's domain [-1, 1]^2 holds it.
    path = tmp_path / "wide.json"
    doc = _roots_document(_synth_linear_result(tmp_path), [[-0.5, -0.5], [0.5, 0.5]], 1)
    path.write_text(json.dumps(doc))
    reason = (
        "root_bounds (-0.5, -0.5)..(0.5, 0.5) do not lie inside the domain "
        "(-0.25, -1.0)..(1.0, 0.25) of system linear2d"
    )
    for system in ([], ["--system", "linear2d"]):
        capsys.readouterr()
        caplog.clear()
        assert main(["-q", "verify", str(path), *system]) == 1
        assert json.loads(capsys.readouterr().out)["domain_refused"] == reason
        assert f"event=domain-refused reason={reason}" in caplog.text
    assert main(["-q", "verify", str(path), "--system", "nonlinear2d"]) == 0
    assert json.loads(capsys.readouterr().out)["domain_refused"] is None


def test_cli_verify_reports_the_monte_carlo_verdict(tmp_path, capsys):
    # L = 0.5 is below linear2d's true bound 0.8225: the exact certificate
    # trusts it and passes, and only the falsifier refutes the set, so the
    # report must say why verify exits 1.  An empty set runs no falsifier.
    data = tmp_path / "d.csv"
    assert main(["-q", "gen", "--system", "linear2d", "--m", "5000", "--seed", "3",
                 "--out", str(data)]) == 0
    reports = {}
    for lipschitz in ("0.5", "50"):
        result = tmp_path / f"r{lipschitz}.json"
        assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                     "--lipschitz", lipschitz, "--tau", "0.01", "--out", str(result)]) == 0
        capsys.readouterr()
        assert main(["-q", "verify", str(result)]) == 0
        assert json.loads(capsys.readouterr().out)["monte_carlo"] is None
        code = main(["-q", "verify", str(result), "--monte-carlo", "2000", "--horizon", "7",
                     "--system", "linear2d"])
        reports[lipschitz] = code, json.loads(capsys.readouterr().out)
    code, report = reports["0.5"]
    assert code == 1 and report["passed"] is True and report["volume"] > 0.0
    mc = report["monte_carlo"]
    assert mc["passed"] is False and (mc["samples"], mc["horizon"]) == (2000, 7)
    assert set(mc["first_failure"]) == {"step", "start", "state"}
    code, report = reports["50"]
    assert code == 0 and report["volume"] == 0.0 and report["monte_carlo"] is None


@pytest.mark.parametrize("value", ["foo", "7"])
def test_cli_verify_trusts_the_roots_of_a_system_that_is_no_builtin(tmp_path, capsys, value):
    # Data collected elsewhere may name a system of its own, and synth takes
    # it with --system or --domain.  verify knows no domain to check the
    # roots against, so the result verifies; only --monte-carlo needs the map.
    path = _synth_with_comment(tmp_path, "system=linear2d", f"system={value}")
    capsys.readouterr()
    assert main(["-q", "verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["domain_refused"] is None
    assert main(["-q", "verify", str(path), "--system", "linear2d"]) == 0


def test_cli_refuses_a_ball_radius_that_overflows(tmp_path, capsys):
    # The one cell of [-8e307, 8e307] has radius 8e307, and a sample at
    # 1.7e308 lies 1.7e308 from its center: r_target + dist is no float.
    # The loader derives that radius and refuses the file naming the node;
    # synth derives the same radius from such data and refuses it too.
    doc = _synth_linear_result(tmp_path)
    doc["tree"] = {
        "root_bounds": [[-8e307], [8e307]], "parent": [-1], "sample_index": [0],
        "sample_x": [[1.7e308]], "sample_xp": [[0.0]], "label": [1],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert "node 0 has a ball radius that is not finite" in err and "Traceback" not in err
    data = tmp_path / "far.csv"
    data.write_text("x1,xp1\n1.7e308,0\n")
    assert main(["-q", "synth", "--data", str(data), "--domain=-8e307:8e307",
                 "--lipschitz", "0.5", "--tau", "1e307", "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "node 0 has a ball radius that is not finite" in err and "Traceback" not in err


def test_radii_stepped_up_by_one_float_round_trip(tmp_path):
    # On [0, 0.3]^2 the cells' corners are rounded, and a ball of the rounded
    # r_target + dist misses part of some cells; ball_radii steps those up
    # to the next float, in synth and on load alike.
    domain = ((0.0, 0.0), (0.3, 0.3))
    data = gen_uniform(linear2d(), 100, 0, domain)
    result = synthesize(new_tree(domain, data), data, SynthConfig(lipschitz=0.8225, tau=0.005))
    nodes = result.tree.nodes
    plain = [
        r + max(abs(x - c) for x, c in zip(xs, cs))
        for r, xs, cs in zip(
            nodes.target_radius.tolist(), nodes.sample_x.tolist(), nodes.target_center.tolist()
        )
    ]
    stepped = [i for i, (r, p) in enumerate(zip(nodes.radius.tolist(), plain)) if r != p]
    assert stepped and all(nodes.radius[i] > plain[i] for i in stepped)
    path = tmp_path / "r.json"
    save_result(path, result, RunManifest(command="test"))
    assert "radius" not in json.loads(path.read_text())["tree"]
    loaded = load_result(path)[1].tree.nodes
    for column in fields(Nodes):
        got, want = getattr(loaded, column.name), getattr(nodes, column.name)
        assert _column_bits(got) == _column_bits(want), column.name


def test_cli_rejects_domain_whose_cubes_miss_by_an_ulp(tmp_path, capsys):
    assert main(["-q", "gen", "--system", "linear2d", "--domain=0,0:0.3,0.1",
                 "--m", "10", "--out", str(tmp_path / "d.csv")]) == 2
    assert (
        "domain is not tileable by equal cubes: on axis 0, "
        "faces 0.1 and 0.10000000000000002 differ" in capsys.readouterr().err
    )
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("module", ["scipy", "orjson", "pinvset.nnindex"])
def test_import_cli_does_not_load(module):
    # Importing the CLI loads none of these; no pinvset module imports
    # scipy, orjson is imported by the two writers and the two readers only,
    # and the NN index by the first nearest-neighbour query.
    import pinvset

    code = (
        f"import sys, pinvset.cli; "
        f"print(any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pinvset.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("collecting", [True, False])
def test_main_runs_without_the_cyclic_collector(monkeypatch, collecting):
    # A command runs with the collector off, and the caller's setting is
    # back after it returns, on an error as on success.
    import pinvset.cli as cli

    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if len(seen) == 2:
            raise ValueError("refused")
        return 0

    monkeypatch.setattr(cli, "cmd_bounds", command)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        codes = [main(["bounds", "--vol", "1", "--n", "2", "--tau", "0.1"]) for _ in range(2)]
        now = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [0, 2] and seen == [False, False] and now is collecting


def test_script_exits_with_the_code_of_main(tmp_path):
    # ``python -m pinvset.cli`` and the ``pinvset`` script end through
    # ``cli.run``, which freezes the collector's objects before it exits:
    # the exit code is still main's, 1 for a refuted certificate.
    import pinvset

    doc = json.loads(_small_result_bytes())
    doc["config"]["lipschitz"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(pinvset.__file__).parent.parent))
    script = [sys.executable, "-m", "pinvset.cli"]
    version = subprocess.run([*script, "--version"], env=env, capture_output=True, text=True)
    assert (version.returncode, version.stdout) == (0, "pinvset 0.1.0\n")
    refuted = subprocess.run([*script, "-q", "verify", str(bad)], env=env, capture_output=True)
    assert refuted.returncode == 1


def test_main_leaves_the_collector_unfrozen(capsys):
    # Only the script's exit freezes; an in-process caller keeps its heap
    # collectable.
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == "pinvset 0.1.0\n"
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("error,code,reason", [
    (RuntimeError("boom"), 4, "error: internal error: RuntimeError: boom"),
    (MemoryError("Unable to allocate 46. GiB"), 3, "error: out of memory: Unable to allocate"),
])
def test_cli_crash_never_reads_as_a_failed_certificate(tmp_path, capsys, monkeypatch, error,
                                                       code, reason):
    # An uncaught exception made Python exit 1, which this CLI uses for a
    # refuted certificate.  Running out of memory exits 3, any other crash 4,
    # each with one line on stderr and no traceback.
    path = tmp_path / "r.json"
    path.write_bytes(_small_result_bytes())

    def crash(result):
        raise error

    monkeypatch.setattr(cli_module, "check_fixpoint", crash)
    capsys.readouterr()
    assert main(["-q", "verify", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(reason) and err.count("\n") == 1


def test_cli_chain_does_not_load_scipy(tmp_path):
    # The nearest-neighbour index is numpy only: gen, synth and verify run
    # without importing scipy.
    import pinvset

    data, result = tmp_path / "d.csv", tmp_path / "r.json"
    steps = [
        ["-q", "gen", "--system", "linear2d", "--mode", "grid", "--tau", "0.05",
         "--out", str(data)],
        ["-q", "synth", "--data", str(data), "--system", "linear2d",
         "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result)],
        ["-q", "verify", str(result), "--monte-carlo", "1000", "--horizon", "3",
         "--system", "linear2d"],
    ]
    code = (
        "import sys; from pinvset.cli import main; "
        f"codes = [main(argv) for argv in {steps!r}]; "
        "print(codes, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pinvset.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip().splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.parametrize("value", [float("nan"), None], ids=["nan", "null"])
def test_cli_verify_rejects_non_finite_successor(tmp_path, capsys, value):
    # Every comparison with NaN reads as overlap, so an included leaf with a
    # NaN successor used to pass verification.
    doc = _synth_linear_result(tmp_path)
    tree = doc["tree"]
    parents = set(tree["parent"])
    leaf = next(
        i for i, label in enumerate(tree["label"]) if label == 1 and i not in parents
    )
    tree["sample_xp"][leaf] = [value, value]
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert f"node {leaf} has a sample_xp that is not finite" in capsys.readouterr().err


def test_cli_synth_rejects_nan_successor_csv(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    lines = data.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:2] + ["nan", "nan"])
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05",
                 "--out", str(tmp_path / "r.json")]) == 3
    assert f"{data}:6: non-finite value in data row" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_save_result_is_compact(lin_oracle, tmp_path):
    path = tmp_path / "r.json"
    save_result(path, small_result(lin_oracle), RunManifest(command="test"))
    text = path.read_text()
    assert ", " not in text and ": " not in text


@pytest.mark.parametrize("bad_parent", ["self", "later", "out-of-range"])
def test_cli_verify_rejects_malformed_node_table(tmp_path, capsys, bad_parent):
    doc = _synth_linear_result(tmp_path)
    parents = doc["tree"]["parent"]
    node = len(parents) // 2
    parents[node] = {"self": node, "later": node + 1, "out-of-range": -7}[bad_parent]
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert "malformed result document" in capsys.readouterr().err


# sha256 of a result file's bytes after its manifest (the first section),
# first taken before the tree was stored as columns.  When the sections that
# restated the tree went, and again when the cells left the tree section
# (target_center, target_radius and dim out, root_bounds first in), each
# digest was taken again from the old file with that edit made and the rest
# re-serialized by orjson: the same data must give the same partition,
# written the same way.  When the radius column left the file, each was
# taken again the same way, from the old file with tree.radius deleted, and
# when the sweep cap went, with config.max_sweeps and terminated_by deleted.
_PINNED_RESULTS = {
    "linear2d-sequential": (
        ["--system", "linear2d", "--m", "1500", "--seed", "3"],
        ["--lipschitz", "0.8225", "--tau", "0.02"],
        "635b9ce8765fd5f2e7be5e76d666ab749fe0cc5a4e251c080ed5580d5795db25",
    ),
    "nonlinear2d-batch": (
        ["--system", "nonlinear2d", "--m", "2000", "--seed", "0"],
        ["--lipschitz", "5.728", "--tau", "0.01", "--mode", "batch"],
        "eaa1e7047269adf30c03622091fedecec5c60948976d85f18cfa0a702d03da05",
    ),
    # Two root cubes tile a --domain of 2 x 1; grid data does not depend on
    # the uniform stream.  Pinned before the domain became one rectangle.
    "linear2d-two-roots": (
        ["--system", "linear2d", "--mode", "grid", "--tau", "0.01", "--domain=-1,-0.5:1,0.5"],
        ["--domain=-1,-0.5:1,0.5", "--lipschitz", "0.8225", "--tau", "0.01"],
        "9a64fc794d93a30f344febb3e7d0b824eb80229169e9e1fd90ba486a80cbb05c",
    ),
}


@pytest.mark.parametrize("run", list(_PINNED_RESULTS))
def test_cli_result_bytes_are_pinned(tmp_path, capsys, run):
    gen_args, synth_args, digest = _PINNED_RESULTS[run]
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    assert main(["-q", "gen", *gen_args, "--out", str(data)]) == 0
    assert main(["-q", "synth", "--data", str(data), gen_args[0], gen_args[1],
                 *synth_args, "--out", str(result)]) == 0
    raw = result.read_bytes()
    assert raw.startswith(b'{"manifest":')
    body = raw[raw.index(b',"config":'):]
    assert hashlib.sha256(body).hexdigest() == digest


# Data on the half of the domain below its midpoint in x1: the tree's
# cells on the other half ask for neighbours far from every sample.  The
# digests are those the KD-tree index gave, re-taken as above when the
# restated sections went, when the cells left the file, when the radii did
# and when the sweep cap did.
_HALF_DOMAIN_RESULTS = {
    "linear2d": (
        0.375,
        ["--lipschitz", "0.8225", "--tau", "0.01"],
        "d0e2fd7ffbb06dd4458c7c9af7c064410658100c1dbd9aa6cec96f8c088b0c7b",
    ),
    "nonlinear2d": (
        0.0,
        ["--lipschitz", "5.728", "--tau", "0.01"],
        "4146e5b279c9032c69ebb6aa06d1581978f1c986e09cc3dbcf3c271ca96d0e22",
    ),
}


@pytest.mark.parametrize("system", list(_HALF_DOMAIN_RESULTS))
def test_cli_synth_on_half_the_domain(tmp_path, capsys, system):
    middle, synth_args, digest = _HALF_DOMAIN_RESULTS[system]
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    assert main(["-q", "gen", "--system", system, "--m", "3000", "--seed", "1",
                 "--out", str(data)]) == 0
    full = load_dataset(data)
    low = full.x[:, 0] < middle
    save_dataset(Dataset(full.x[low], full.x_plus[low], full.metadata), data)
    capsys.readouterr()
    assert main(["-q", "synth", "--data", str(data), "--system", system,
                 *synth_args, "--out", str(result)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True
    raw = result.read_bytes()
    body = raw[raw.index(b',"config":'):]
    assert hashlib.sha256(body).hexdigest() == digest
    # The roots tile the system's domain, though the data covers half of it.
    assert main(["-q", "verify", str(result)]) == 0


def test_cli_rerun_reproduces_result(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "1200", "--seed", "8",
          "--out", str(data)])
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                     "--lipschitz", "0.8225", "--tau", "0.02",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.pop("manifest")  # wall-clock duration differs; everything else must not
        docs.append(doc)
    capsys.readouterr()
    assert docs[0] == docs[1]


def test_cli_synth_empty_set_still_certifies(tmp_path, capsys):
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    main(["-q", "gen", "--system", "nonlinear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    rc = main(["-q", "synth", "--data", str(data), "--system", "nonlinear2d",
               "--lipschitz", "5.728", "--tau", "0.05", "--out", str(result)])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert payload["volume"] == 0.0
    assert main(["-q", "verify", str(result)]) == 0


def test_cli_synth_accepts_domain_flag(tmp_path, capsys):
    data = tmp_path / "d.csv"
    result = tmp_path / "r.json"
    main(["-q", "gen", "--system", "linear2d", "--m", "1000", "--seed", "5",
          "--out", str(data)])
    assert main([
        "-q", "synth", "--data", str(data), "--domain=-0.25,-1:1,0.25",
        "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(result),
    ]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["certified"] is True


def test_cli_bounds_table(capsys):
    assert main(["-q", "bounds", "--vol", "1.5625", "--n", "2",
                 "--tau", "0.01", "--delta", "0.05"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    table = dict(l.split(",", 1) for l in lines)
    assert float(table["covering-cells"]) == 15625.0
    assert float(table["canonical"]) == 197687.0
    assert float(table["synth-raw"]) < 0
    assert "warning" in out  # sign anomaly surfaced


def test_cli_bounds_invalid_probability(capsys):
    assert main(["-q", "bounds", "--vol", "1.0", "--n", "2",
                 "--tau", "2.0", "--delta", "0.05"]) == 2


def test_cli_bounds_prints_every_row_or_its_refusal(capsys, caplog):
    # The cells bound 2^1100 and the hit probability 2^-1100 are no float;
    # the ball bound, 1.0, is.  Each refused row is a comment with its
    # reason and an event=bound-refused line, and the table exits 0.
    assert main(["-q", "bounds", "--vol", "1", "--n", "1100", "--tau", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("#")] == ["covering-balls,1.0"]
    for row in ("covering-cells", "net-raw", "synth-raw", "canonical"):
        assert any(line.startswith(f"# {row}: the ") for line in out)
        assert any(
            f"event=bound-refused row={row} reason=the " in r.getMessage()
            for r in caplog.records
        )
    assert "# covering-cells: the cells covering bound for volume 1.0, dimension 1100 and " \
        "resolution 0.5 overflows or underflows a float" in out
    assert "# canonical: the hit probability 0.5^1100 / 1.0 is 0.0 as a float; it must lie " \
        "in (0, 1)" in out


def test_cli_report(tmp_path, capsys):
    data = tmp_path / "d.csv"
    outdir = tmp_path / "runs"
    outdir.mkdir()
    for seed in (0, 1, 2):
        main(["-q", "gen", "--system", "linear2d", "--m", "800",
              "--seed", str(seed), "--out", str(data)])
        main(["-q", "synth", "--data", str(data), "--system", "linear2d",
              "--lipschitz", "0.8225", "--tau", "0.05",
              "--out", str(outdir / f"r{seed}.json")])
    capsys.readouterr()
    csv_out = tmp_path / "agg.csv"
    assert main(["-q", "report", "--dir", str(outdir), "--out", str(csv_out)]) == 0
    table = csv_out.read_text().strip().splitlines()
    assert table[0].startswith("system,m,tau,runs,empty")
    row = table[1].split(",")
    assert row[0] == "linear2d" and row[1] == "800" and int(row[3]) == 3
    assert main(["-q", "report", "--dir", str(tmp_path / "nope")]) in (2, 3)


def test_cli_report_single_result(tmp_path, capsys):
    data = tmp_path / "d.csv"
    outdir = tmp_path / "runs"
    outdir.mkdir()
    main(["-q", "gen", "--system", "linear2d", "--m", "500", "--seed", "0",
          "--out", str(data)])
    main(["-q", "synth", "--data", str(data), "--system", "linear2d",
          "--lipschitz", "0.8225", "--tau", "0.05",
          "--out", str(outdir / "only.json")])
    capsys.readouterr()
    assert main(["-q", "report", "--dir", str(outdir)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # header + one row


def test_cli_verify_one_root_of_high_dim_stays_small(tmp_path, capsys):
    # A tree without splits never builds the 2^n sign vectors: at dim 18
    # they alone would be 2^18 rows of 18 floats.
    n = 18
    origin = (0.0,) * n
    ds = Dataset([origin], [origin])
    tree = new_tree(((-1.0,) * n, (1.0,) * n), ds)
    result = SynthResult(tree, 1, SynthConfig(lipschitz=0.5, tau=0.5))
    path = tmp_path / "r.json"
    save_result(path, result, RunManifest(command="test"))
    tracemalloc.start()
    try:
        assert main(["-q", "verify", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("root_bounds", [
    pytest.param(2.5, id="2.5"),
    pytest.param(True, id="True"),
    pytest.param("2", id="2"),
    pytest.param(0, id="0"),
    pytest.param(None, id="None"),
    pytest.param([], id="empty"),
    pytest.param([[], []], id="no-axis"),
    pytest.param([[-0.25, -1.0]], id="one-corner"),
    pytest.param([[-0.25, -1.0], [1.0]], id="short-corner"),
    pytest.param([[-0.25, -1.0], [1.0, 0.25], [2.0, 2.0]], id="three-corners"),
    pytest.param([[-0.25, True], [1.0, 0.25]], id="true-coordinate"),
    pytest.param([[-0.25, "-1"], [1.0, 0.25]], id="string-coordinate"),
    pytest.param([[-0.25, float("nan")], [1.0, 0.25]], id="nan-coordinate"),
    pytest.param([[-0.25, -1.0], "1.0,0.25"], id="string-corner"),
])
def test_cli_verify_rejects_bad_dim(tmp_path, capsys, root_bounds):
    # The dim is the length of root_bounds' corners, so a bad dim is a
    # root_bounds that is not two corners of JSON numbers of one length.
    doc = _synth_linear_result(tmp_path)
    doc["tree"]["root_bounds"] = root_bounds
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert (
        f"root_bounds {root_bounds!r} is not two corners of finite JSON numbers of one length"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize("dim", [2, 16])
def test_cli_verify_rejects_empty_node_table(tmp_path, capsys, dim):
    doc = _synth_linear_result(tmp_path)
    doc["tree"] = {key: [] for key in doc["tree"]}
    doc["tree"]["root_bounds"] = [[0.0] * dim, [1.0] * dim]
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["-q", "verify", str(result)]) == 3
    assert "the node table has no node" in capsys.readouterr().err


# A bad overlay row and the reason the dataset reader gives for it.
_OVERLAY_REASONS = {
    "1,abc": "non-numeric cell in data row",
    "1": "1 columns, expected 2",
    "1,2,3": "3 columns, expected 2",
    "nan,0.5": "non-finite value in data row",
    "0.5,inf": "non-finite value in data row",
}


@pytest.mark.parametrize("row", list(_OVERLAY_REASONS))
def test_cli_synth_rejects_bad_overlay_before_synthesis(tmp_path, capsys, row):
    # The overlay is read by the dataset reader, and its reasons are the
    # dataset's; every one exits 3.
    data = tmp_path / "d.csv"
    overlay = tmp_path / "o.csv"
    overlay.write_text(f"# boundary\n0,0\n{row}\n1,1\n")
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    capsys.readouterr()
    assert main(["-q", "synth", "--data", str(data), "--system", "linear2d",
                 "--lipschitz", "0.8225", "--tau", "0.05", "--out", str(tmp_path / "r.json"),
                 "--svg", str(tmp_path / "r.svg"), "--overlay", str(overlay)]) == 3
    assert f"{overlay}:3: {_OVERLAY_REASONS[row]}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_load_overlay_skips_comments_and_blank_lines(tmp_path):
    overlay = tmp_path / "o.csv"
    overlay.write_text("# x,y\n0,0.5\n\n  1e-3 , -2\n")
    assert load_overlay(overlay) == [(0.0, 0.5), (1e-3, -2.0)]


def test_load_overlay_reads_the_dataset_dialect(tmp_path):
    # A header row and a '#' that ends a row, as in a dataset CSV.
    overlay = tmp_path / "o.csv"
    overlay.write_text("x,y\n0,0\n0.5,0.5 # end\n")
    assert load_overlay(overlay) == [(0.0, 0.0), (0.5, 0.5)]


@pytest.mark.parametrize("text,error,reason", [
    ("0,0\n1_0,2\n", MalformedRowError, "o.csv:2: non-numeric cell in data row"),
    ("# a boundary\n\n# with no vertex\n", EmptyDatasetError, "o.csv: no data rows"),
    ("0,0,1,1\n1,1,0,0\n", MalformedRowError, "o.csv: 4 columns, expected 2"),
])
def test_load_overlay_refuses(tmp_path, text, error, reason):
    # Python's float reads '1_0' as 10; the dataset reader refuses it.
    overlay = tmp_path / "o.csv"
    overlay.write_text(text)
    with pytest.raises(error, match=reason):
        load_overlay(overlay)


def _synth_exit(tmp_path, *args):
    return main(["-q", "synth", "--lipschitz", "0.8225", "--tau", "0.05",
                 "--out", str(tmp_path / "r.json"), *args])


def test_cli_rows_of_the_wrong_width_exit_3(tmp_path, capsys):
    # A row of the wrong width is a data-format fault, in a dataset or an
    # overlay; a --domain of the wrong dimension is still a usage error.
    bad = tmp_path / "cnt.csv"
    bad.write_text("x1,x2,xp1,xp2\n0,0,0,0\n1,1,1\n")
    assert _synth_exit(tmp_path, "--data", str(bad), "--system", "linear2d") == 3
    assert f"{bad}:3: 3 columns, expected 4" in capsys.readouterr().err

    data = tmp_path / "d.csv"
    main(["-q", "gen", "--system", "linear2d", "--m", "300", "--seed", "1",
          "--out", str(data)])
    overlay = tmp_path / "o.csv"
    overlay.write_text("0,0,1,1\n")
    capsys.readouterr()
    assert _synth_exit(tmp_path, "--data", str(data), "--system", "linear2d",
                       "--svg", str(tmp_path / "r.svg"), "--overlay", str(overlay)) == 3
    assert f"{overlay}: 4 columns, expected 2" in capsys.readouterr().err
    assert _synth_exit(tmp_path, "--data", str(data), "--domain=0,0,0:1,1,1") == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text,line", [
    (b"# seed=3 \xff\nx1,x2,xp1,xp2\n0,0,0,0\n", 1),
    (b"x1,x2,xp1,xp2\n0,0,0,0\n1,1,1,1\n0,\xff,0,0\n", 4),
])
def test_cli_refuses_bytes_that_are_not_utf8(tmp_path, capsys, text, line):
    # A comment or a data row that is not UTF-8 is a data-format fault
    # named by its line, not a decoding error without a file name.
    data = tmp_path / "d.csv"
    data.write_bytes(text)
    assert _synth_exit(tmp_path, "--data", str(data), "--system", "linear2d") == 3
    assert f"{data}:{line}: line is not UTF-8 text" in capsys.readouterr().err
