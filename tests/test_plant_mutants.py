"""The planted mutants of ``tests/plant_mutants.py`` still find their lines.

The script breaks each row's line in a copy of the checkout, and refuses a
row whose line has moved; it runs in CI only, so a refactor that rewords a
guarded line would otherwise go unnoticed until then.
"""

import pytest

from plant_mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.reason)
def test_every_planted_line_occurs_once(mutant):
    lines = (ROOT / mutant.path).read_text(encoding="utf-8").split("\n")
    assert lines.count(mutant.line) == 1, f"{mutant.path}: {mutant.line.strip()!r}"
    for node in mutant.tests:
        path, name = node.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
