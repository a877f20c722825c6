from collections import Counter

import numpy as np
import pytest

import helpers
from helpers import row_of, rows_in_use, size_array
from spinsc.allocator import (
    CapacityExceeded,
    UnknownLevel,
    allocate,
    cost_metrics,
    verify_allocation,
)
from spinsc.logic import (
    ScNetlist,
    cluster_terminals,
    clusters_of,
    expand_products,
    extract_conflict_sets,
)
from spinsc.sbg import SbgArraySpec, SbgMode, build_array, generate_array


def reference_setup(reference_netlist_text, reference_assignment):
    net = ScNetlist.parse(reference_netlist_text)
    sets = extract_conflict_sets(net)
    spec = size_array(reference_assignment, sets, net.terminals, SbgMode.SELF_CONTROL)
    return net, sets, spec


def test_reference_sizing_needs_seven_generators(reference_netlist_text, reference_assignment):
    _, _, spec = reference_setup(reference_netlist_text, reference_assignment)
    assert spec.total_units == 7
    assert spec.levels == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert spec.multiplicity == (2, 1, 2, 1, 1)


def test_reference_allocation(reference_netlist_text, reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(reference_assignment, spec, sets, net.terminals)
    assert len(rows_in_use(matrix)) == 7
    assert row_of(matrix, "T1") == row_of(matrix, "T3")
    assert row_of(matrix, "T5") != row_of(matrix, "T1")
    assert row_of(matrix, "T4") == row_of(matrix, "T8")
    assert row_of(matrix, "T9") != row_of(matrix, "T8")
    assert verify_allocation(matrix, sets, reference_assignment) == []


def test_one_row_per_cluster_is_the_sized_array():
    for net, sets, assignment, by_level, _ in helpers.clustering_instances(300):
        cluster_map = cluster_terminals(net, sets, by_level)
        clusters = clusters_of(cluster_map)
        cluster_assignment = {cid: assignment[members[0]] for cid, members in clusters.items()}
        cluster_sets = [frozenset(cluster_map[t] for t in group) for group in sets]
        per_level = Counter(cluster_assignment.values())
        levels = tuple(sorted(per_level))
        spec = SbgArraySpec(levels, tuple(per_level[lvl] for lvl in levels))
        assert size_array(cluster_assignment, cluster_sets, list(clusters),
                          SbgMode.SELF_CONTROL) == spec
        matrix = allocate(cluster_assignment, spec, cluster_sets, list(clusters))
        assert verify_allocation(matrix, cluster_sets, cluster_assignment) == []


def test_single_terminal_single_level():
    spec = SbgArraySpec((0.5,), (1,))
    matrix = allocate({"t": 0.5}, spec, [frozenset({"t"})], ["t"])
    assert matrix.control.tolist() == [[1]]


def test_capacity_exceeded_by_pigeonhole():
    spec = SbgArraySpec((0.5,), (2,))
    sets = [frozenset({"a", "b", "c"})]
    assignment = {t: 0.5 for t in "abc"}
    with pytest.raises(CapacityExceeded) as err:
        allocate(assignment, spec, sets, ["a", "b", "c"])
    assert err.value.level == 0.5


def test_unknown_level_rejected():
    spec = SbgArraySpec((0.5,), (1,))
    with pytest.raises(UnknownLevel):
        allocate({"t": 0.4}, spec, [], ["t"])


def test_conflict_member_missing_from_assignment():
    spec = SbgArraySpec((0.5,), (2,))
    with pytest.raises(ValueError, match="missing from assignment"):
        allocate({"a": 0.5}, spec, [frozenset({"a", "ghost"})], ["a"])


def test_allocation_deterministic(reference_netlist_text, reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    m1 = allocate(reference_assignment, spec, sets, net.terminals)
    m2 = allocate(reference_assignment, spec, sets, net.terminals)
    assert np.array_equal(m1.control, m2.control)


def test_route_identity_and_sharing():
    spec = SbgArraySpec((0.3, 0.7), (1, 1))
    sets = [frozenset({"a", "b"})]
    assignment = {"a": 0.3, "b": 0.7, "c": 0.3}
    matrix = allocate(assignment, spec, sets, ["a", "b", "c"])
    streams = [np.array([1, 0, 1], dtype=np.uint8), np.array([0, 0, 1], dtype=np.uint8)]
    routed = {t: streams[row_of(matrix, t)] for t in matrix.col_terminals}
    assert routed["a"] is streams[0]
    assert routed["b"] is streams[1]
    assert routed["c"] is routed["a"]  # same non-conflicting level shares a row


def test_end_to_end_reference_network(reference_netlist_text, reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(reference_assignment, spec, sets, net.terminals)
    n = 4096
    row_streams = generate_array(build_array(spec, master_seed=31), n)
    terminal_streams = {t: row_streams[row_of(matrix, t)] for t in matrix.col_terminals}
    t1, t2, t3, t4, t5, t6, t7, t8, t9 = (terminal_streams[f"T{k}"] for k in range(1, 10))

    r1 = np.where(t5 == 1, t1 & t2, t3 & t4)
    r2 = (t6 & t7) & (t8 & t9)

    for out, stream in (("R1", r1), ("R2", r2)):
        expected = helpers.evaluate_products(expand_products(net, out),
                                             reference_assignment)
        assert stream.mean() == pytest.approx(expected, abs=0.04)


def test_sharing_never_worse_than_no_sharing():
    rng = np.random.default_rng(7)
    levels = [0.1, 0.3, 0.5, 0.7, 0.9]
    for _ in range(100):
        net = helpers.random_netlist(rng, max_terminals=20, max_gates=8)
        sets = extract_conflict_sets(net)
        assignment = helpers.random_assignment(rng, net, levels)
        spec = size_array(assignment, sets, net.terminals, SbgMode.SELF_CONTROL)
        matrix = allocate(assignment, spec, sets, net.terminals)
        assert len(rows_in_use(matrix)) <= len(net.terminals)
        assert verify_allocation(matrix, sets, assignment) == []


def test_verifier_flags_bad_matrices(reference_netlist_text, reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(reference_assignment, spec, sets, net.terminals)

    doubled = matrix.control.copy()
    doubled.flags.writeable = True
    doubled[:, 0] = 0
    doubled[0, 0] = doubled[1, 0] = 1
    bad = type(matrix)(control=doubled, row_levels=matrix.row_levels,
                       col_terminals=matrix.col_terminals)
    assert any("selects 2 rows" in msg for msg in verify_allocation(bad, sets, reference_assignment))

    shared = matrix.control.copy()
    shared.flags.writeable = True
    t5 = matrix.col_terminals.index("T5")
    shared[:, t5] = 0
    shared[row_of(matrix, "T1"), t5] = 1  # T5 now conflicts with T1 on one row
    bad2 = type(matrix)(control=shared, row_levels=matrix.row_levels,
                        col_terminals=matrix.col_terminals)
    messages = verify_allocation(bad2, sets, reference_assignment)
    assert any("share row" in msg for msg in messages)


def retarget(matrix, terminal, row):
    """Copy of matrix with terminal's column moved onto row."""
    control = matrix.control.copy()
    j = matrix.col_terminals.index(terminal)
    control[:, j] = 0
    control[row, j] = 1
    return type(matrix)(control=control, row_levels=matrix.row_levels,
                        col_terminals=matrix.col_terminals)


def test_verifier_reports_each_violation(reference_netlist_text, reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(reference_assignment, spec, sets, net.terminals)
    r1, r6 = row_of(matrix, "T1"), row_of(matrix, "T6")
    assert matrix.row_levels[r1] == 0.1 and matrix.row_levels[r6] == 0.7

    # T5 onto T1's row: T5 conflicts with T1 ({T1, T2, T5}) and with T3,
    # which shares T1's row ({T3, T4, T5}).
    assert verify_allocation(retarget(matrix, "T5", r1), sets, reference_assignment) == [
        f"conflicting terminals 'T1' and 'T5' share row {r1}",
        f"conflicting terminals 'T3' and 'T5' share row {r1}",
    ]
    # T6 onto a 0.1 row no conflicting terminal uses: only the level is wrong.
    assert verify_allocation(retarget(matrix, "T6", r1), sets, reference_assignment) == [
        f"terminal 'T6' requests 0.7 but row {r1} generates 0.1",
    ]
    # T7 onto T6's row: a shared row and a wrong level at once.
    assert verify_allocation(retarget(matrix, "T7", r6), sets, reference_assignment) == [
        f"conflicting terminals 'T6' and 'T7' share row {r6}",
        f"terminal 'T7' requests 0.9 but row {r6} generates 0.7",
    ]


def test_row_of_rejects_columns_without_exactly_one_row(reference_netlist_text,
                                                        reference_assignment):
    net, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(reference_assignment, spec, sets, net.terminals)
    for rows in ([], [0, 1]):
        control = matrix.control.copy()
        control[:, 0] = 0
        control[rows, 0] = 1
        bad = type(matrix)(control=control, row_levels=matrix.row_levels,
                           col_terminals=matrix.col_terminals)
        with pytest.raises(ValueError, match=f"has {len(rows)} active rows"):
            row_of(bad, matrix.col_terminals[0])
        assert verify_allocation(bad, sets, reference_assignment) == [
            f"column {matrix.col_terminals[0]!r} selects {len(rows)} rows"]


def test_cost_metrics_reference_rows():
    k_e, k_c = cost_metrics(92, 6144, 320, 2817)
    assert k_e == pytest.approx(0.052, abs=5e-4)
    assert np.floor(k_c * 100) / 100 == 1.64
    k_e, k_c = cost_metrics(92, 24576, 320, 5557)
    assert k_e == pytest.approx(0.013, abs=5e-4)
    assert np.floor(k_c * 100) / 100 == 0.79


def test_cost_metrics_degenerate_no_sharing():
    assert cost_metrics(92, 100, 100, 0) == (1.0, 1.0)


def test_cost_metrics_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cost_metrics(0, 1, 1, 1)
