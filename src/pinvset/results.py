"""Result-file schema: one self-describing JSON document per run.

Sections, in file order: manifest (provenance), config, tree and sweeps;
a document with any other section or config key is refused.  The tree
section is the rectangle ``root_bounds`` and the node columns that no rule
derives (parent, sample index, state and successor, label), one JSON list
per column, of one row per node; any other key, ``radius`` too, is
refused.  The array columns of ``tree.Nodes`` are written from their
arrays (``orjson``'s OPT_SERIALIZE_NUMPY) and read back into arrays, after
the checks on the parsed lists.  That is all the independent verifier
needs: a result file is re-certified without the dataset.  Each fact is
stored once: ``PartitionTree.from_columns`` derives the cells from
``root_bounds`` and the parent column, and each ball radius from its cell
and sample; the kept set, its volume, the leaf counts and the certificate
come from the tree (``verify`` recomputes the certificate).
Serialization round-trips exactly: numbers are written as shortest
round-trip decimals (``orjson``, compact) and parsed back to the same
floats.  ``load_result`` reads every file as the stdlib ``json`` reads it,
except that an integer outside [-2^63, 2^64) becomes the nearest float, as
orjson reads it, so an integer column or ``sweeps`` that holds one is
refused, and an integer past the float range is refused.  Bytes that
orjson refuses (a hand-edited NaN or 1e400, which ``verify`` must still
reject, a lone surrogate escape, a BOM, bytes that are not UTF-8, nesting
too deep) are parsed again by the stdlib, with that integer rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

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


def _labels(column: list[int]) -> np.ndarray:
    """A column of integers as an int8 array, if each is a ``Label``
    value, an integer from -1 to 1."""
    if not -1 <= min(column) <= max(column) <= 1:
        Label(next(v for v in column if not -1 <= v <= 1))  # raises: "... is not a valid Label"
    return np.array(column, dtype=np.int8)


def _vectors(column: list[list]) -> np.ndarray:
    return np.array(column, dtype=float)


def _indices(column: list[int]) -> np.ndarray:
    return np.array(column, dtype=np.int64)


# The node columns a result file stores, in file order, and how each is
# read back from its JSON list into the type ``tree.Nodes`` holds: a list
# of integers, or an array of integers, vectors or labels.  The cells and
# the radii are not stored: ``from_columns`` derives them.
_PARSE = {
    "parent": list,
    "sample_index": _indices,
    "sample_x": _vectors,
    "sample_xp": _vectors,
    "label": _labels,
}


def _tree_to_dict(tree: PartitionTree) -> dict:
    # ``save_result`` writes the array columns with OPT_SERIALIZE_NUMPY,
    # as the same numbers as lists of their floats and integers.
    columns = {key: getattr(tree.nodes, key) for key in _PARSE}
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
            if key == "sample_index" and not 0 <= min(column) <= max(column) < 2 ** 63:
                i = next(i for i, v in enumerate(column) if not 0 <= v < 2 ** 63)
                side = "below 0" if column[i] < 0 else "past 2^63 - 1"
                raise ResultFormatError(f"node {i} has a sample_index {column[i]} {side}")
        elif not _all_finite(chain.from_iterable(column)):
            i = next(i for i, v in enumerate(column) if not _all_finite(v))
            raise ResultFormatError(f"node {i} has a {key} that is not finite")
        elif (lengths := list(map(len, column))).count(dim) != count:
            i = next(i for i, n in enumerate(lengths) if n != dim)
            raise ResultFormatError(f"node {i} has a {key} not of length {dim}")
    # The parsed lists leave the document as they are read into the node
    # table's types, so that they are freed before the cells are built.
    return PartitionTree.from_columns(
        bounds, **{key: parse(d.pop(key)) for key, parse in _PARSE.items()}
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
        return float(value) if kind is float else value
    raise ResultFormatError(f"{key} {value!r} is not a JSON {_JSON_KINDS[kind]}")


def result_from_document(doc: dict) -> tuple[RunManifest, SynthResult]:
    """The run a parsed result document records.  The node columns are
    taken out of ``doc["tree"]`` as the tree is built from them."""
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

    document = result_to_document(result, manifest)
    Path(path).write_bytes(orjson.dumps(document, option=orjson.OPT_SERIALIZE_NUMPY))


def _orjson_int(token: str) -> int | float:
    """An integer token as orjson reads it: the nearest float outside
    [-2^63, 2^64).  One past the float range, which orjson refuses, raises
    OverflowError."""
    value = int(token)
    return value if -(2 ** 63) <= value < 2 ** 64 else float(value)


def _parse_json(raw: bytes):
    """The document in ``raw`` as ``orjson`` parses it, or as the stdlib
    ``json`` parses UTF-8 text where orjson refuses the bytes."""
    import orjson

    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        # NaN, 1e400, a lone surrogate, a BOM, ...: the stdlib decides,
        # reading an integer as orjson does.
        return json.loads(raw.decode("utf-8"), parse_int=_orjson_int)


def load_result(path: str | Path) -> tuple[RunManifest, SynthResult]:
    try:
        # The bytes are freed before the tree is built: off the peak memory.
        doc = _parse_json(Path(path).read_bytes())
    except (ValueError, OverflowError, RecursionError) as exc:
        # Not JSON, not UTF-8, an integer of more digits than ``int`` reads
        # or past the float range, or nested deeper than the parser recurses.
        raise ResultFormatError(f"{path}: invalid JSON: {exc}") from exc
    return result_from_document(doc)
