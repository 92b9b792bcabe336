"""Planted mutants: each breaks one source line, and a named test must fail.

Usage, from any directory, with no options::

    python tests/plant_mutants.py

For each row of ``MUTANTS`` the script copies the checkout, without
``.git`` and the caches, to a temporary directory.  There it replaces the
row's line, which must occur exactly once as a whole line, and runs the
row's tests from the copy with ``PYTHONPATH=src``, so that the mutated
``src/`` is the one imported.  The mutant is killed when pytest exits 1:
some named test failed, and none was missing or broke collection.  The
script prints one line per row and exits 1 when a row's line has moved or
a mutant survives.

To add a mutant, add one row: the file, the line exactly as it stands
(indentation included), the text that replaces it, the node ids of the
tests that must fail, and why.  ``tests/test_plant_mutants.py`` checks in
the tier-1 suite that every row's line is still there, exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str
    line: str
    replacement: str
    tests: tuple[str, ...]
    reason: str


MUTANTS = (
    Mutant("src/pinvset/geometry.py",
           "            s = ((np.abs(x).max(axis=1) + 2.0 * reach) * 2.0 ** -51 + 2.0 ** -1073)[:, None]",
           "            s = 0.0",
           ("tests/test_tree.py::test_successor_crossing_a_face_by_less_than_an_ulp_is_partial",),
           "successor_corners loses its rounding slack"),
    Mutant("src/pinvset/verify.py",
           "                np.fmax(u, -1.0, out=u)",
           "                np.fmax(u, 0.0, out=u)",
           ("tests/test_verify.py::test_union_membership_matches_plain_scan_property",),
           "membership clamps a point below the bitmap, or a NaN one, into cell 0"),
    Mutant("src/pinvset/nnindex.py",
           "            np.minimum(low[a:b], np.minimum.reduceat(run, at), out=low[a:b])",
           "            np.minimum(low[a:b], np.maximum.reduceat(run, at), out=low[a:b])",
           ("tests/test_dataset.py::test_nearest_matches_linear_scan_exactly",),
           "a leaf box's lower corner takes the maximum, so it can prune the nearest sample"),
    Mutant("src/pinvset/tree.py",
           "        blo, bhi = self.root_bounds",
           "        return None",
           ("tests/test_acceptance.py::test_criterion_1_linear_deterministic_reproduction",),
           "a box reaching past the roots reads covered"),
    Mutant("src/pinvset/tree.py",
           "        blo, bhi = self.root_bounds",
           "        return _slab(self.dim, 0, -math.inf, math.inf)",
           ("tests/test_acceptance.py::test_criterion_1_linear_deterministic_reproduction",),
           "every box that touches the set has a gap, so every set empties"),
    Mutant("src/pinvset/verify.py",
           "    for i, ball, box in zip(leaves, held.tolist(), corners):",
           "    for i, ball, box in zip(leaves[:-1], held.tolist(), corners):",
           ("tests/test_verify.py::test_check_fixpoint_passes_on_synthesized",),
           "check_fixpoint skips its last kept leaf"),
    Mutant("src/pinvset/synthesis.py",
           "        splittable = (nodes.target_radius[wave] / 2.0 >= tau).tolist()",
           "        splittable = (nodes.target_radius[wave] / 4.0 >= tau).tolist()",
           ("tests/test_acceptance.py::test_criterion_2_nonlinear_deterministic_reproduction",),
           "sweep retires a PARTIAL leaf one level above the floor"),
    Mutant("src/pinvset/geometry.py",
           "    held = np.ones(len(r), dtype=bool)",
           "    return np.ones(len(r), dtype=bool)",
           ("tests/test_tree.py::test_grow_rounds_the_ball_radius_up_where_the_sum_falls_short",),
           "balls_contain_cells holds every ball"),
    Mutant("src/pinvset/dataset.py",
           r'                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")',
           "                pass",
           ("tests/test_dataset.py::test_load_cr_only_line_endings",
            "tests/test_dataset.py::test_load_cr_only_file_reads_block_by_block"),
           "the block reader hands on '\\r\\n' and '\\r' line ends as they are"),
    Mutant("src/pinvset/dataset.py",
           '            block, bom = block.removeprefix(bom), b""',
           '            bom = b""',
           ("tests/test_dataset.py::test_load_skips_a_utf8_bom",),
           "a UTF-8 BOM is read as part of the first line"),
    Mutant("src/pinvset/dataset.py",
           "    if not math.isfinite(v):",
           "    if False:",
           ("tests/test_dataset.py::test_non_finite_metadata_is_kept_as_written",
            "tests/test_results_cli.py::test_cli_synth_writes_non_finite_metadata_as_written"),
           "non-finite comment metadata is read as a float, which JSON writes as null"),
    Mutant("src/pinvset/dataset.py",
           "    if type(v) is int and not -2 ** 63 <= v < 2 ** 64:",
           "    if False:",
           ("tests/test_dataset.py::test_load_matches_plain_reference",
            "tests/test_results_cli.py::test_cli_synth_keeps_every_metadata_value"),
           "comment metadata holds an integer past 64 bits, which orjson cannot write"),
    Mutant("src/pinvset/results.py",
           '        return json.loads(raw.decode("utf-8"), parse_int=_orjson_int)',
           "        raise",
           ("tests/test_results_cli.py::test_cli_verify_fails_on_bad_config",
            "tests/test_results_cli.py::test_cli_verify_rejects_non_finite_successor"),
           "a file that orjson refuses is not parsed again by the stdlib"),
    Mutant("src/pinvset/cli.py",
           '        command=" ".join(map(_escaped, args.argv_echo)),',
           '        command=" ".join(args.argv_echo),',
           ("tests/test_results_cli.py::test_cli_synth_takes_file_names_that_are_not_utf8",),
           "the manifest's command holds the surrogates of a name that is not UTF-8"),
    Mutant("src/pinvset/results.py",
           '        return json.loads(raw.decode("utf-8"), parse_int=_orjson_int)',
           '        return json.loads(raw.decode("utf-8"))',
           ("tests/test_results_cli.py::"
            "test_cli_verify_refuses_a_long_integer_in_a_file_orjson_refuses",),
           "the stdlib fallback reads an integer past 64 bits as an exact int"),
    Mutant("src/pinvset/cli.py",
           '        "out": _escaped(args.out),',
           '        "out": str(args.out),',
           ("tests/test_results_cli.py::"
            "test_cli_synth_summary_is_strict_json_for_a_name_that_is_not_utf8",),
           "the synth summary writes a name that is not UTF-8 as a lone surrogate"),
    Mutant("src/pinvset/tree.py",
           "                        m = los[f + k - 1]",
           "                        m = los[f]",
           ("tests/test_tree.py::test_classify_across_roots",
            "tests/test_tree.py::test_tree_coverage_matches_plain_scan_property"),
           "the walk cuts a split cell at its first child's low corner, not its center"),
    Mutant("src/pinvset/tree.py",
           "        status = (nodes.label == Label.INCLUDED).tolist()",
           "        status = (nodes.label != Label.EXCLUDED).tolist()",
           ("tests/test_tree.py::test_status_follows_the_leaf_labels_property",
            "tests/test_verify.py::test_check_fixpoint_passes_on_synthesized"),
           "recount seeds an UNKNOWN leaf as included, so a loaded tree covers with it"),
)

_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")


def plant(mutant: Mutant, root: Path) -> str | None:
    """Replace the mutant's line in the checkout at ``root``; None when
    done, else why it could not be."""
    path = root / mutant.path
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines.count(mutant.line) != 1:
        return f"MOVED (the line occurs {lines.count(mutant.line)} times)"
    lines[lines.index(mutant.line)] = mutant.replacement
    path.write_text("\n".join(lines), encoding="utf-8")
    planted = path.read_text(encoding="utf-8").split("\n")
    return None if mutant.replacement in planted and mutant.line not in planted else "NOT PLANTED"


def main() -> int:
    faults = 0
    for k, mutant in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "checkout"
            shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
            fault = plant(mutant, copy)
            if fault is None:
                pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
                env = {**os.environ, "PYTHONPATH": "src"}
                status = subprocess.run(pytest + list(mutant.tests), cwd=copy, env=env,
                                        capture_output=True).returncode
                fault = None if status == 1 else f"SURVIVED (pytest exited {status})"
        faults += fault is not None
        print(f"row {k} {fault or 'killed'}: {mutant.path}: {mutant.reason}", flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
