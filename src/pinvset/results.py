"""Result-file schema: one self-describing JSON document per run.

Sections: manifest (provenance), config, domain, tree (the node table:
one list per column, as ``tree.Nodes`` holds it), pi_set,
volume/sweeps/leaf_counts/terminated_by, certificate.  The node table
stores everything the independent verifier needs (target geometry,
sample state and successor, ball radius, label), so a result file can be
re-certified without the dataset.  The domain, pi_set, volume and
leaf_counts sections restate the tree for readers of the file: they are
derived from it on save and checked against it on load.  Serialization
round-trips exactly: JSON numbers are written as shortest round-trip
decimals (``orjson``, compact) and parsed back to the same floats by the
stdlib ``json``, which also loads the NaN of a hand-edited config so that
``verify`` can reject it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

from . import __version__
from .synthesis import SynthConfig, SynthResult, Termination, UpdateMode
from .tree import Label, PartitionTree
from .verify import Certificate


class ResultFormatError(ValueError):
    """Result document is missing sections or malformed."""


@dataclass
class RunManifest:
    command: str
    version: str = __version__
    dataset_sha256: str | None = None
    dataset_meta: dict = field(default_factory=dict)
    seed: int | None = None
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _tree_sections(tree: PartitionTree) -> dict:
    """The sections that restate the tree: the domain (the roots' cells),
    pi_set (the included leaves' cells, in leaf order), their volume and the
    leaf counts by label."""
    centers, radii = tree.nodes.target_center, tree.nodes.target_radius
    kept = tree.active_leaves()
    return {
        "domain": {
            "centers": [list(centers[i]) for i in tree.roots],
            "radii": [radii[i] for i in tree.roots],
        },
        "pi_set": {
            "centers": [list(centers[i]) for i in kept],
            "radii": [radii[i] for i in kept],
        },
        "volume": tree.active_volume(),
        "leaf_counts": tree.leaf_counts(),
    }


_VECTORS = ("target_center", "sample_x", "sample_xp")
_INTEGERS = ("parent", "sample_index", "label")
# The node columns a result file stores, in file order, and how each is
# read back from JSON.
_PARSE = {
    "parent": int,
    "target_center": tuple,
    "target_radius": float,
    "radius": float,
    "sample_index": int,
    "sample_x": tuple,
    "sample_xp": tuple,
    "label": Label,
}


def _tree_to_dict(tree: PartitionTree) -> dict:
    # orjson writes the tuples of the vector columns as arrays.  The labels
    # are plain integers, as the loader requires.
    columns = {key: list(getattr(tree.nodes, key)) for key in _PARSE}
    columns["label"] = list(map(int, columns["label"]))
    return {"dim": tree.dim, **columns}


def _all_finite(values) -> bool:
    """True when every value is a finite JSON number (not a bool, null or
    string): NaN geometry would read as covered in every overlap test."""
    values = list(values)
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _tree_from_dict(d: dict) -> PartitionTree:
    dim = d["dim"]
    if type(dim) is not int or dim < 1:
        raise ResultFormatError(f"the tree's dim {dim!r} is not an integer >= 1")
    count = len(d["parent"])
    if not count:
        raise ResultFormatError("the node table has no node")
    for key in _PARSE:
        if len(d[key]) != count:
            raise ResultFormatError(f"the {key} column does not have {count} nodes")
    for key in (*_VECTORS, "target_radius", "radius"):
        column = d[key]
        vector = key in _VECTORS
        if not _all_finite(chain.from_iterable(column) if vector else column):
            i = next(i for i, v in enumerate(column) if not _all_finite(v if vector else [v]))
            raise ResultFormatError(f"node {i} has a {key} that is not finite")
    for key in _INTEGERS:
        # Only a JSON integer: int() would truncate 3.7, and a bool is an int.
        column = d[key]
        if set(map(type, column)) != {int}:
            i = next(i for i, v in enumerate(column) if type(v) is not int)
            raise ResultFormatError(f"node {i} has a {key} that is not an integer")
    for key in _VECTORS:
        lengths = list(map(len, d[key]))
        if lengths.count(dim) != count:
            i = next(i for i, n in enumerate(lengths) if n != dim)
            raise ResultFormatError(f"node {i} has a {key} not of length {dim}")
    return PartitionTree.from_columns(
        dim, **{key: list(map(parse, d[key])) for key, parse in _PARSE.items()}
    )


def _certificate_to_dict(cert: Certificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "method": cert.method,
        "passed": cert.passed,
        "checked_leaves": cert.checked_leaves,
        "first_failure": cert.first_failure,
    }


def _certificate_from_dict(d: dict | None) -> Certificate | None:
    if d is None:
        return None
    return Certificate(
        passed=_json_value(d, "passed", bool),
        checked_leaves=_json_value(d, "checked_leaves", int),
        first_failure=d["first_failure"],
        method=d["method"],
    )


def result_to_document(
    result: SynthResult,
    manifest: RunManifest,
    certificate: Certificate | None = None,
) -> dict:
    sections = _tree_sections(result.tree)
    return {
        "manifest": manifest.to_dict(),
        "config": {
            "lipschitz": result.config.lipschitz,
            "tau": result.config.tau,
            "max_sweeps": result.config.max_sweeps,
            "update_mode": result.config.mode.value,
        },
        "domain": sections["domain"],
        "tree": _tree_to_dict(result.tree),
        "pi_set": sections["pi_set"],
        "volume": sections["volume"],
        "sweeps": result.sweeps,
        "terminated_by": result.terminated_by.value,
        "leaf_counts": sections["leaf_counts"],
        "certificate": _certificate_to_dict(certificate),
    }


_JSON_KINDS = {float: "number", int: "integer", bool: "boolean", dict: "object"}


def _json_value(section: dict, key: str, kind: type):
    """``section[key]`` if a JSON value of ``kind`` (a float is any number):
    not "0.02", 3.7, true or "x" where those do not belong."""
    value = section[key]
    if type(value) is kind or kind is float and type(value) is int:
        return kind(value)
    raise ResultFormatError(f"{key} {value!r} is not a JSON {_JSON_KINDS[kind]}")


def result_from_document(doc: dict) -> tuple[RunManifest, SynthResult, Certificate | None]:
    try:
        manifest = RunManifest(**_json_value(doc, "manifest", dict))
        _json_value(doc["manifest"], "dataset_meta", dict)
        cfg = doc["config"]
        config = SynthConfig(
            lipschitz=_json_value(cfg, "lipschitz", float),
            tau=_json_value(cfg, "tau", float),
            max_sweeps=_json_value(cfg, "max_sweeps", int),
            mode=UpdateMode(cfg["update_mode"]),
        )
        tree = _tree_from_dict(doc["tree"])
        for key, derived in _tree_sections(tree).items():
            if doc[key] != derived:
                raise ResultFormatError(f"the {key} section does not match the tree")
        result = SynthResult(
            tree=tree,
            sweeps=_json_value(doc, "sweeps", int),
            terminated_by=Termination(doc["terminated_by"]),
            config=config,
        )
        certificate = _certificate_from_dict(doc.get("certificate"))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ResultFormatError(f"malformed result document: {exc}") from exc
    return manifest, result, certificate


def save_result(
    path: str | Path,
    result: SynthResult,
    manifest: RunManifest,
    certificate: Certificate | None = None,
) -> None:
    import orjson

    doc = result_to_document(result, manifest, certificate)
    Path(path).write_bytes(orjson.dumps(doc))


def load_result(path: str | Path) -> tuple[RunManifest, SynthResult, Certificate | None]:
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ResultFormatError(f"{path}: invalid JSON: {exc}") from exc
    return result_from_document(doc)
