import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    PermutedDiagonal,
    cube,
    exact_coverage,
    kept_cells,
    node_columns,
    reference_synthesize,
)

from pinvset.dataset import Dataset, SystemOracle, gen_uniform
from pinvset.geometry import CoverageClass, classify_coverage
from pinvset.synthesis import (
    ConfigError,
    SynthConfig,
    UpdateMode,
    sweep,
    synthesize,
)
from pinvset.results import RunManifest, load_result, save_result
from pinvset.tree import Label, PartitionTree, new_tree
from pinvset.verify import check_fixpoint


def collapse_oracle():
    """Everything maps to the origin; stays invariant for any tiny ball."""
    return SystemOracle("collapse", np.zeros_like, 1e-9, cube((0.0, 0.0), 0.5))


def escape_oracle():
    """Everything maps far outside the domain."""
    domain = cube((0.0, 0.0), 0.5)
    return SystemOracle("escape", lambda pts: np.full_like(pts, 50.0), 1e-9, domain)


def dense_dataset(oracle, m=400, seed=5):
    return gen_uniform(oracle, m, seed)


def successor_rect(tree, leaf, lipschitz):
    """The rectangle of a leaf's successor box, as the sweep builds it."""
    return cube(tree.nodes.sample_xp[leaf], lipschitz * tree.nodes.radius[leaf])


def test_successor_box_classification_cases():
    oracle = collapse_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    root = tree.roots[0]
    assert (
        classify_coverage(successor_rect(tree, root, 1e-9), tree)
        is CoverageClass.FULLY_COVERED
    )
    ds2 = dense_dataset(escape_oracle())
    tree2 = new_tree(escape_oracle().domain, ds2)
    assert (
        classify_coverage(successor_rect(tree2, tree2.roots[0], 1e-9), tree2)
        is CoverageClass.DISJOINT
    )


def test_sweep_skips_retired_leaves():
    # The escaping map would exclude the root if a sweep classified it.
    oracle = escape_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    tree.set_label(tree.roots[0], Label.EXCLUDED)
    labels = list(tree.nodes.label)
    stats = sweep(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert not stats.changed
    assert tree.nodes.label == labels == [Label.EXCLUDED]


def test_sweep_fixpoint_on_collapsing_map():
    oracle = collapse_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    stats = sweep(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert not stats.changed
    assert stats.divisions == stats.exclusions == stats.unknowns == 0


def test_sweep_excludes_everything_on_escaping_map():
    oracle = escape_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    stats = sweep(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert stats.changed and stats.exclusions == 1
    assert tree.n_included() == 0


def test_synthesize_collapsing_map_keeps_domain():
    oracle = collapse_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert check_fixpoint(res).passed
    assert res.sweeps == 1
    assert res.volume == pytest.approx(1.0)


def test_synthesize_escaping_map_returns_empty():
    oracle = escape_oracle()
    ds = dense_dataset(oracle)
    tree = new_tree(oracle.domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert check_fixpoint(res).passed
    assert kept_cells(tree) == []
    assert res.volume == 0.0


def test_synthesize_linear_divides_and_certifies(lin_oracle):
    ds = gen_uniform(lin_oracle, 10000, seed=11)
    tree = new_tree(lin_oracle.domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.01))
    assert len(tree.nodes) > 1  # corner states leave the domain, forcing splits
    assert res.volume > 0.9
    assert check_fixpoint(res).passed


def test_volume_monotone_across_sweeps(lin_oracle):
    ds = gen_uniform(lin_oracle, 2000, seed=7)
    tree = new_tree(lin_oracle.domain, ds)
    config = SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.02)
    vols = [tree.active_volume()]
    for z in range(1, 100):
        stats = sweep(tree, ds, config)
        vols.append(tree.active_volume())
        if not stats.changed:
            break
    assert all(b <= a + 1e-12 for a, b in zip(vols, vols[1:]))


def test_depth_floor_respected(lin_oracle):
    ds = gen_uniform(lin_oracle, 3000, seed=2)
    tree = new_tree(lin_oracle.domain, ds)
    tau = 0.05
    synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=tau))
    assert min(tree.nodes.target_radius) >= tau / 2


def test_label_history_is_monotone(lin_oracle, monkeypatch):
    # Every relabel a run makes, as (leaf, old label, new label).
    relabels = []
    set_label = PartitionTree.set_label

    def recording(tree, node_id, label):
        old = tree.nodes.label[node_id]
        set_label(tree, node_id, label)
        relabels.append((node_id, old, tree.nodes.label[node_id]))

    monkeypatch.setattr(PartitionTree, "set_label", recording)
    ds = gen_uniform(lin_oracle, 3000, seed=2)
    tree = new_tree(lin_oracle.domain, ds)
    synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.02))
    assert relabels
    for _, old, new in relabels:
        assert old == Label.INCLUDED and new in (Label.EXCLUDED, Label.UNKNOWN)
    leaves = [node for node, _, _ in relabels]
    assert len(set(leaves)) == len(leaves)  # each leaf changes once
    assert all(tree.nodes.label[node] == new for node, _, new in relabels)


def test_sequential_determinism(lin_oracle):
    results = []
    for _ in range(2):
        ds = gen_uniform(lin_oracle, 1500, seed=9)
        tree = new_tree(lin_oracle.domain, ds)
        res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.02))
        results.append(res)
    a, b = results
    assert a.volume == b.volume
    assert a.sweeps == b.sweeps
    assert a.leaf_counts == b.leaf_counts
    assert node_columns(a.tree.nodes) == node_columns(b.tree.nodes)


def test_batch_mode_also_certifies(lin_oracle, nonlin_oracle):
    for oracle, tau in ((lin_oracle, 0.02), (nonlin_oracle, 0.05)):
        ds = gen_uniform(oracle, 4000, seed=4)
        t_seq = new_tree(oracle.domain, ds)
        r_seq = synthesize(
            t_seq, ds, SynthConfig(lipschitz=oracle.lipschitz, tau=tau)
        )
        t_bat = new_tree(oracle.domain, ds)
        r_bat = synthesize(
            t_bat,
            ds,
            SynthConfig(lipschitz=oracle.lipschitz, tau=tau, mode=UpdateMode.BATCH),
        )
        assert check_fixpoint(r_seq).passed
        assert check_fixpoint(r_bat).passed


def test_batch_mode_deterministic(lin_oracle):
    vols = set()
    tables = []
    for _ in range(2):
        ds = gen_uniform(lin_oracle, 1500, seed=9)
        tree = new_tree(lin_oracle.domain, ds)
        res = synthesize(
            tree,
            ds,
            SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.02, mode=UpdateMode.BATCH),
        )
        vols.add(res.volume)
        tables.append(node_columns(tree.nodes))  # the labels are a column of the node table
    assert len(vols) == 1
    assert tables[0] == tables[1]


def test_config_validation(lin_oracle):
    ds = gen_uniform(lin_oracle, 100, seed=0)
    tree = new_tree(lin_oracle.domain, ds)
    with pytest.raises(ConfigError):
        synthesize(tree, ds, SynthConfig(lipschitz=0.0, tau=0.1))
    with pytest.raises(ConfigError):
        synthesize(tree, ds, SynthConfig(lipschitz=1.0, tau=-0.1))
    with pytest.raises(ConfigError):
        # resolution floor above the root radius
        synthesize(tree, ds, SynthConfig(lipschitz=1.0, tau=0.7))


def test_multi_root_domain(lin_oracle):
    xs = [(x, y) for x in (0.5, 1.5) for y in (0.25, 0.75)]
    ds = Dataset(xs, [(0.5, 0.5)] * len(xs))
    tree = new_tree(((0.0, 0.0), (2.0, 1.0)), ds)  # two unit cubes
    assert len(tree.roots) == 2
    res = synthesize(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert res.volume == pytest.approx(2.0)
    assert check_fixpoint(res).passed


def test_result_volume_matches_pi_set(lin_oracle):
    ds = gen_uniform(lin_oracle, 2000, seed=1)
    tree = new_tree(lin_oracle.domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.02))
    cells = kept_cells(tree)
    volumes = [math.prod(b - a for a, b in zip(lo, hi)) for lo, hi in cells]
    assert res.volume == pytest.approx(math.fsum(volumes), rel=1e-12)
    assert res.leaf_counts["included"] == len(cells)


def test_result_reads_its_set_from_the_tree(lin_oracle):
    ds = gen_uniform(lin_oracle, 1500, seed=2)
    tree = new_tree(lin_oracle.domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.05))
    volume, counts = res.volume, res.leaf_counts
    leaf = tree.active_leaves()[0]
    cell = (tree.nodes.lo[leaf], tree.nodes.hi[leaf])
    tree.set_label(leaf, Label.EXCLUDED)
    # No copy of the set is stored beside the tree, so none can go stale.
    assert cell not in kept_cells(res.tree)
    cell_volume = (2.0 * tree.nodes.target_radius[leaf]) ** 2
    assert res.volume == pytest.approx(volume - cell_volume, rel=1e-12)
    assert res.leaf_counts["excluded"] == counts["excluded"] + 1


def test_progress_events_logged(lin_oracle, caplog):
    ds = gen_uniform(lin_oracle, 800, seed=6)
    tree = new_tree(lin_oracle.domain, ds)
    with caplog.at_level("INFO", logger="pinvset.synthesis"):
        res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.05))
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == res.sweeps
    assert lines[0].startswith("sweep=1 ")
    for key in ("active=", "divisions=", "exclusions=", "unknowns=", "volume="):
        assert key in lines[0]


def test_logged_active_count_matches_walk(lin_oracle, caplog, monkeypatch):
    # The log line reads the roots' counters; they must agree with a walk.
    from pinvset import synthesis

    walked = []
    real_sweep = synthesis.sweep

    def counting_sweep(tree, *args):
        stats = real_sweep(tree, *args)
        walked.append(len(tree.active_leaves()))
        return stats

    monkeypatch.setattr(synthesis, "sweep", counting_sweep)
    ds = gen_uniform(lin_oracle, 800, seed=6)
    tree = new_tree(lin_oracle.domain, ds)
    with caplog.at_level("INFO", logger="pinvset.synthesis"):
        synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.05))
    logged = [
        int(token.partition("=")[2])
        for r in caplog.records
        for token in r.getMessage().split()
        if token.startswith("active=")
    ]
    assert len(logged) >= 2 and logged == walked


@pytest.mark.parametrize("level, calls_per_sweep", [("WARNING", 0), ("INFO", 1)])
def test_sweep_log_volume_only_when_info_enabled(lin_oracle, caplog, monkeypatch, level,
                                                 calls_per_sweep):
    from pinvset.tree import PartitionTree

    calls = []
    real_volume = PartitionTree.active_volume

    def counting_volume(tree):
        calls.append(1)
        return real_volume(tree)

    monkeypatch.setattr(PartitionTree, "active_volume", counting_volume)
    ds = gen_uniform(lin_oracle, 800, seed=6)
    tree = new_tree(lin_oracle.domain, ds)
    with caplog.at_level(level, logger="pinvset.synthesis"):
        res = synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.05))
    assert res.sweeps >= 2 and len(calls) == calls_per_sweep * res.sweeps


def test_domain_scaled_down_gives_the_same_partition(lin_oracle, tmp_path):
    # At 1e-11 the cells are far below the old 1e-12 coverage slack, and the
    # domain's corners are no longer dyadic: the partition must not change,
    # and its children must still tile their parents exactly.
    runs = []
    for scale in (1.0, 1e-11):
        # linear2d's domain, the cube (0.375, -0.375) ± 0.625, scaled
        domain = cube((0.375 * scale, -0.375 * scale), 0.625 * scale)
        oracle = SystemOracle("scaled", lin_oracle.map_points, lin_oracle.lipschitz, domain)
        ds = gen_uniform(oracle, 1500, seed=3)
        res = synthesize(
            new_tree(domain, ds), ds, SynthConfig(lipschitz=oracle.lipschitz, tau=0.02 * scale)
        )
        assert check_fixpoint(res).passed
        save_result(tmp_path / "r.json", res, RunManifest(command="test"))
        loaded = load_result(tmp_path / "r.json")[1]
        assert node_columns(loaded.tree.nodes) == node_columns(res.tree.nodes)
        assert check_fixpoint(loaded).passed
        runs.append((res.sweeps, res.leaf_counts, len(res.tree.nodes)))
    assert runs[0] == runs[1]
    assert runs[0][1]["excluded"] > 0 and runs[0][1]["unknown"] > 0


def test_sweep_and_certificate_take_no_tolerance_path(lin_oracle, nonlin_oracle, monkeypatch):
    # GEOM_TOL's one user is ``overlapping``, the full test of Monte Carlo
    # membership; a run and its certificate never call it.
    def forbidden(*args, **kwargs):
        raise AssertionError("a tolerance path was taken")

    monkeypatch.setattr(PartitionTree, "overlapping", forbidden)
    runs = ((lin_oracle, 0.02, UpdateMode.SEQUENTIAL), (nonlin_oracle, 0.01, UpdateMode.BATCH))
    for oracle, tau, mode in runs:
        ds = gen_uniform(oracle, 4000, seed=0)
        res = synthesize(
            new_tree(oracle.domain, ds), ds,
            SynthConfig(lipschitz=oracle.lipschitz, tau=tau, mode=mode),
        )
        counts = res.leaf_counts
        assert counts["included"] and counts["excluded"] + counts["unknown"]
        assert check_fixpoint(res).passed


# Domains of dim n: a dyadic cube, one whose side is no power of two (its
# cells' corners round, and some ball radii take the one-float step), and a
# rectangle of two root cubes.
_REFERENCE_DOMAINS = {
    "dyadic": lambda n: ((-0.5,) * n, (0.5,) * n),
    "non-dyadic": lambda n: ((0.0,) * n, (0.3,) * n),
    "two-roots": lambda n: ((0.0,) * n, (2.0,) + (1.0,) * (n - 1)),
}


@settings(
    max_examples=40,
    deadline=None,
    # No shrink phase: every shrink step reruns the fraction-based reference,
    # and shrinking one failure took minutes and hundreds of megabytes.
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    n=st.sampled_from((1, 2)),
    domain=st.sampled_from(sorted(_REFERENCE_DOMAINS)),
    lattice=st.booleans(),
    m=st.integers(1, 40),
    contraction=st.floats(0.2, 1.0),
    lipschitz=st.floats(0.1, 1.5),
    depth=st.integers(1, 6),
    mode=st.sampled_from(list(UpdateMode)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_synthesize_matches_the_reference(n, domain, lattice, m, contraction, lipschitz, depth,
                                          mode, seed):
    # synthesize against the loop written as the paper states it, node for
    # node.  Lattice samples, a quarter of the shortest side apart, sit at
    # equal distances from many cell centers: the lowest index must win.
    lo, hi = _REFERENCE_DOMAINS[domain](n)
    rng = np.random.default_rng(seed)
    side = min(b - a for a, b in zip(lo, hi))
    if lattice:
        steps = rng.integers(0, [round(4 * (b - a) / side) + 1 for a, b in zip(lo, hi)], (m, n))
        x = np.array(lo) + steps * (side / 4)
    else:
        x = rng.uniform(lo, hi, size=(m, n))
    middle = (np.array(lo) + np.array(hi)) / 2.0
    x_plus = middle + contraction * (x - middle) + rng.normal(scale=0.02, size=(m, n))
    # At most 6 levels below each root in 1-D and 4 in 2-D: a few hundred
    # nodes at most, so the fraction arithmetic stays quick.
    tau = side / 2 ** (min(depth, 8 - 2 * n) + 1)
    ds = Dataset(x, x_plus)
    config = SynthConfig(lipschitz=lipschitz, tau=tau, mode=mode)
    result = synthesize(new_tree((lo, hi), ds), ds, config)
    cells, sweeps = reference_synthesize(x, x_plus, (lo, hi), lipschitz, tau,
                                         mode is UpdateMode.BATCH)
    nodes = result.tree.nodes
    hexed = lambda vs: [tuple(v.hex() for v in vec) for vec in vs]
    assert result.sweeps == sweeps
    assert nodes.parent == [c.parent for c in cells]
    assert hexed(nodes.target_center.tolist()) == hexed([c.center for c in cells])
    assert [r.hex() for r in nodes.radius.tolist()] == [c.radius.hex() for c in cells]
    assert nodes.sample_index.tolist() == [c.sample for c in cells]
    assert nodes.label.tolist() == [c.label for c in cells]


_SLOPES = st.integers(6, 19).map(lambda k: k / 16) | st.integers(-19, -6).map(lambda k: k / 16)


@settings(max_examples=60, deadline=None)
@given(
    perm=st.permutations((0, 1)),
    a=st.tuples(_SLOPES, _SLOPES),
    b=st.tuples(*[st.integers(-6, 6).map(lambda k: k / 16)] * 2),
    seed=st.integers(0, 2 ** 32 - 1),
    m=st.integers(100, 4000),
    tau=st.sampled_from((0.02, 0.05, 0.1)),
)
def test_kept_cells_map_into_the_set(perm, a, b, seed, m, tau):
    # Ground truth from the map itself: with the true L, every kept cell's
    # exact image lies in the kept union, as the fraction reference decides.
    f = PermutedDiagonal(tuple(perm), a, b)
    x = PermutedDiagonal.states(np.random.default_rng(seed), m, 2)
    ds = Dataset(x, f(x))
    for mode in UpdateMode:
        config = SynthConfig(lipschitz=f.lipschitz, tau=tau, mode=mode)
        tree = synthesize(new_tree(((-1.0, -1.0), (1.0, 1.0)), ds), ds, config).tree
        cells = kept_cells(tree)
        for lo, hi in cells:
            assert exact_coverage(f.image(lo, hi), cells) is CoverageClass.FULLY_COVERED
