"""The benchmark's trace hooks still find what they wrap.

``perfbench/spans.py`` replaces named functions and methods with timing
wrappers, and sizes the synth span by ``len(result.tree.nodes)``.  Only a
traced bench run uses them, so a rename would otherwise go unnoticed.
"""

import importlib.util
import json
from pathlib import Path

from pinvset.dataset import gen_uniform
from pinvset.results import RunManifest, save_result
from pinvset.synthesis import SynthConfig, synthesize
from pinvset.tree import new_tree

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._targets()


def test_every_trace_target_is_defined_on_its_owner():
    for name, owner, attr, _ in trace_targets():
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr}"


def test_synth_span_size_is_the_file_node_count(lin_oracle, tmp_path):
    size = next(size for name, *_, size in trace_targets() if name == "synthesis.synthesize")
    ds = gen_uniform(lin_oracle, 600, seed=1)
    result = synthesize(
        new_tree(lin_oracle.domain, ds), ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.05)
    )
    path = tmp_path / "r.json"
    save_result(path, result, RunManifest(command="test"))
    nodes = len(json.loads(path.read_text())["tree"]["parent"])
    assert nodes > 1
    assert size((), result) == len(result.tree.nodes) == nodes
