"""Result-file schema: one self-describing JSON document per run.

Sections, in file order: manifest (provenance), config, tree and sweeps;
a document with any other section or config key is refused.  The tree
section is the rectangle ``root_bounds`` and the node columns that no rule
derives (parent, sample index, state and successor, label), one list per
column as ``tree.Nodes`` holds it; any other key, ``radius`` too, is
refused.  That is all the independent verifier needs: a result file is
re-certified without the dataset.  Each fact is stored once:
``PartitionTree.from_columns`` derives the cells from ``root_bounds`` and
the parent column, and each ball radius from its cell and sample; the kept
set, its volume, the leaf counts and the certificate come from the tree
(``verify`` recomputes the certificate).  Serialization round-trips
exactly: numbers are written as shortest round-trip decimals (``orjson``,
compact) and parsed back to the same floats.  ``load_result`` parses with
``orjson`` and reads every file as the stdlib ``json`` does: bytes that
orjson refuses (a hand-edited NaN or 1e400, which ``verify`` must still
reject, a lone surrogate escape, a BOM, bytes that are not UTF-8, nesting
too deep) and documents where orjson may have read an integer past 64
bits as a float (``_may_hold_long_int``) are parsed again by the stdlib.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

from . import __version__
from .synthesis import SynthConfig, SynthResult, UpdateMode
from .tree import Label, PartitionTree


class ResultFormatError(ValueError):
    """Result document is missing sections or malformed."""


@dataclass
class RunManifest:
    command: str
    version: str = __version__
    dataset_sha256: str | None = None
    dataset_meta: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


_LABELS = {label.value: label for label in Label}


def _labels(column: list[int]) -> list[Label]:
    """The labels of a column of integers, looked up in a table: a
    ``Label(v)`` call per node costs many times more."""
    labels = list(map(_LABELS.get, column))
    if None in labels:
        Label(column[labels.index(None)])  # raises: "... is not a valid Label"
    return labels


def _vectors(column: list[list]) -> list[tuple]:
    return list(map(tuple, column))


# The node columns a result file stores, in file order, and how each is
# read back from its JSON list: as vectors (tuples), integers or labels.
# The cells and the radii are not stored: ``from_columns`` derives them.
_PARSE = {
    "parent": list,
    "sample_index": list,
    "sample_x": _vectors,
    "sample_xp": _vectors,
    "label": _labels,
}


def _tree_to_dict(tree: PartitionTree) -> dict:
    # orjson writes the tuples of the vector columns as arrays.  The corners
    # and the labels are lists and plain integers, as the loader requires.
    columns = {key: list(getattr(tree.nodes, key)) for key in _PARSE}
    columns["label"] = list(map(int, columns["label"]))
    return {"root_bounds": list(map(list, tree.root_bounds)), **columns}


def _all_finite(values) -> bool:
    """True when every value is a finite JSON number (not a bool, null or
    string): NaN geometry would read as covered in every overlap test."""
    values = list(values)
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _refuse_unknown(d: dict, known, what: str) -> None:
    unknown = next((key for key in d if key not in known), None)
    if unknown is not None:
        raise ResultFormatError(f"unknown {what} {unknown!r}")


def _tree_from_dict(d: dict) -> PartitionTree:
    _refuse_unknown(d, ("root_bounds", *_PARSE), "tree column")
    bounds = d["root_bounds"]
    if not (
        type(bounds) is list
        and len(bounds) == 2
        and type(bounds[0]) is list
        and type(bounds[1]) is list
        and len(bounds[0]) == len(bounds[1]) > 0
        and _all_finite(chain(*bounds))
    ):
        raise ResultFormatError(
            f"root_bounds {bounds!r} is not two corners of finite JSON numbers of one length"
        )
    dim = len(bounds[0])
    count = len(d["parent"])
    if not count:
        raise ResultFormatError("the node table has no node")
    for key, parse in _PARSE.items():
        column = d[key]
        if len(column) != count:
            raise ResultFormatError(f"the {key} column does not have {count} nodes")
        if parse is not _vectors:
            # Only a JSON integer: int() would truncate 3.7, and a bool is an int.
            if set(map(type, column)) != {int}:
                i = next(i for i, v in enumerate(column) if type(v) is not int)
                raise ResultFormatError(f"node {i} has a {key} that is not an integer")
            if key == "sample_index" and min(column) < 0:
                i = next(i for i, v in enumerate(column) if v < 0)
                raise ResultFormatError(f"node {i} has a sample_index {column[i]} below 0")
        elif not _all_finite(chain.from_iterable(column)):
            i = next(i for i, v in enumerate(column) if not _all_finite(v))
            raise ResultFormatError(f"node {i} has a {key} that is not finite")
        elif (lengths := list(map(len, column))).count(dim) != count:
            i = next(i for i, n in enumerate(lengths) if n != dim)
            raise ResultFormatError(f"node {i} has a {key} not of length {dim}")
    return PartitionTree.from_columns(
        bounds, **{key: parse(d[key]) for key, parse in _PARSE.items()}
    )


def result_to_document(result: SynthResult, manifest: RunManifest) -> dict:
    return {
        "manifest": manifest.to_dict(),
        "config": {
            "lipschitz": result.config.lipschitz,
            "tau": result.config.tau,
            "update_mode": result.config.mode.value,
        },
        "tree": _tree_to_dict(result.tree),
        "sweeps": result.sweeps,
    }


# The sections of a result document and the keys of its config, in file order.
_SECTIONS = ("manifest", "config", "tree", "sweeps")
_CONFIG = ("lipschitz", "tau", "update_mode")


_JSON_KINDS = {float: "number", int: "integer", dict: "object", str: "string"}


def _json_value(section: dict, key: str, kind: type):
    """``section[key]`` if a JSON value of ``kind`` (a float is any number):
    not "0.02", 3.7, true or "x" where those do not belong."""
    value = section[key]
    if type(value) is kind or kind is float and type(value) is int:
        return kind(value)
    raise ResultFormatError(f"{key} {value!r} is not a JSON {_JSON_KINDS[kind]}")


def result_from_document(doc: dict) -> tuple[RunManifest, SynthResult]:
    if type(doc) is not dict:
        raise ResultFormatError("malformed result document: not a JSON object")
    try:
        _refuse_unknown(doc, _SECTIONS, "section")
        manifest = RunManifest(**_json_value(doc, "manifest", dict))
        for key, kind in (("command", str), ("version", str), ("dataset_meta", dict),
                          ("duration_s", float)):
            _json_value(doc["manifest"], key, kind)
        if doc["manifest"]["dataset_sha256"] is not None:
            _json_value(doc["manifest"], "dataset_sha256", str)
        cfg = _json_value(doc, "config", dict)
        _refuse_unknown(cfg, _CONFIG, "config key")
        config = SynthConfig(
            lipschitz=_json_value(cfg, "lipschitz", float),
            tau=_json_value(cfg, "tau", float),
            mode=UpdateMode(cfg["update_mode"]),
        )
        result = SynthResult(
            tree=_tree_from_dict(_json_value(doc, "tree", dict)),
            sweeps=_json_value(doc, "sweeps", int),
            config=config,
        )
        if result.sweeps < 1:  # synth runs one sweep at least
            raise ResultFormatError(f"sweeps {result.sweeps} is below 1")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ResultFormatError(f"malformed result document: {exc}") from exc
    return manifest, result


def save_result(path: str | Path, result: SynthResult, manifest: RunManifest) -> None:
    import orjson

    Path(path).write_bytes(orjson.dumps(result_to_document(result, manifest)))


# orjson reads an integer token past 64 bits as a float, where the stdlib
# keeps the integer; every such float is at least this large in magnitude.
_INT64 = 2.0 ** 63


def _may_hold_long_int(value) -> bool:
    """Whether the parsed JSON ``value`` holds a number of magnitude 2^63 or
    more, which may be an integer token that orjson read as a float.  A
    list of numbers, or of lists of numbers, is settled in one C pass of
    ``min`` and ``max``; anything else item by item."""
    if type(value) is dict:
        return any(map(_may_hold_long_int, value.values()))
    if type(value) is not list:
        return type(value) is float and not -_INT64 < value < _INT64
    try:
        flat = list(chain.from_iterable(value)) if value and type(value[0]) is list else value
        return not -_INT64 < min(flat) <= max(flat) < _INT64
    except (TypeError, ValueError):  # an item that is no number, or no item
        return any(map(_may_hold_long_int, value))


def _parse_json(raw: bytes):
    """The document in ``raw`` as the stdlib ``json`` parses UTF-8 text,
    by ``orjson`` where that gives the same values."""
    import orjson

    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass  # NaN, 1e400, a lone surrogate, a BOM, ...: the stdlib decides
    else:
        if not _may_hold_long_int(doc):
            return doc
    return json.loads(raw.decode("utf-8"))


def load_result(path: str | Path) -> tuple[RunManifest, SynthResult]:
    try:
        # The bytes are freed before the tree is built: off the peak memory.
        doc = _parse_json(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # Not JSON, not UTF-8, or nested deeper than the parser recurses.
        raise ResultFormatError(f"{path}: invalid JSON: {exc}") from exc
    return result_from_document(doc)
