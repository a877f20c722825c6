import numpy as np
import pytest

import helpers
from helpers import as_columns, first_fit_size, row_of, rows_in_use
from spinsc.allocator import (
    CapacityExceeded,
    UnknownLevel,
    allocate,
    size_array,
    verify_allocation,
)
from spinsc.logic import (
    ScNetlist,
    cluster_terminals,
    expand_products,
    extract_conflict_sets,
)
from spinsc.sbg import SbgArraySpec, SbgMode, build_array, generate_array


def reference_setup(reference_netlist_text, reference_assignment):
    """The reference netlist, its levels and conflict sets over columns
    (column j is terminal net.terminals[j]) and the sized array."""
    net = ScNetlist.parse(reference_netlist_text)
    levels, sets = as_columns(reference_assignment, extract_conflict_sets(net), net.terminals)
    return net, levels, sets, first_fit_size(levels, sets, SbgMode.SELF_CONTROL)


def test_reference_sizing_needs_seven_generators(reference_netlist_text, reference_assignment):
    *_, spec = reference_setup(reference_netlist_text, reference_assignment)
    assert spec.total_units == 7
    assert spec.levels == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert spec.multiplicity == (2, 1, 2, 1, 1)


def test_reference_allocation(reference_netlist_text, reference_assignment):
    net, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(levels, spec, sets)
    col = net.terminals.index
    assert len(rows_in_use(matrix)) == 7
    assert row_of(matrix, col("T1")) == row_of(matrix, col("T3"))
    assert row_of(matrix, col("T5")) != row_of(matrix, col("T1"))
    assert row_of(matrix, col("T4")) == row_of(matrix, col("T8"))
    assert row_of(matrix, col("T9")) != row_of(matrix, col("T8"))
    assert verify_allocation(matrix, sets, levels) == []


def test_one_row_per_cluster_is_the_sized_array():
    for net, sets, assignment, _, _ in helpers.clustering_instances(300):
        cluster_of = cluster_terminals(net, sets, assignment)
        col_levels = [assignment[members[0]]
                      for members in helpers.clusters_of(cluster_of).values()]
        cluster_sets = [{cluster_of[t] for t in group} for group in sets]
        spec = size_array(col_levels, SbgMode.SELF_CONTROL)
        assert first_fit_size(col_levels, cluster_sets, SbgMode.SELF_CONTROL) == spec
        matrix = allocate(col_levels, spec, cluster_sets)
        assert verify_allocation(matrix, cluster_sets, col_levels) == []


def test_single_terminal_single_level():
    spec = SbgArraySpec((0.5,), (1,))
    matrix = allocate([0.5], spec, [{0}])
    assert matrix.control.tolist() == [[1]]


def test_capacity_exceeded_by_pigeonhole():
    spec = SbgArraySpec((0.5,), (2,))
    with pytest.raises(CapacityExceeded) as err:
        allocate([0.5, 0.5, 0.5], spec, [{0, 1, 2}])
    assert err.value.level == 0.5


def test_unknown_level_rejected():
    spec = SbgArraySpec((0.5,), (1,))
    with pytest.raises(UnknownLevel):
        allocate([0.4], spec, [])


def test_conflict_member_missing_from_assignment():
    spec = SbgArraySpec((0.5,), (2,))
    with pytest.raises(ValueError, match=r"outside \[0, 1\): \[1\]"):
        allocate([0.5], spec, [{0, 1}])


def test_allocation_deterministic(reference_netlist_text, reference_assignment):
    _, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    m1 = allocate(levels, spec, sets)
    m2 = allocate(levels, spec, sets)
    assert np.array_equal(m1.control, m2.control)


def test_route_identity_and_sharing():
    spec = SbgArraySpec((0.3, 0.7), (1, 1))
    matrix = allocate([0.3, 0.7, 0.3], spec, [{0, 1}])
    streams = [np.array([1, 0, 1], dtype=np.uint8), np.array([0, 0, 1], dtype=np.uint8)]
    a, b, c = (streams[row_of(matrix, j)] for j in range(3))
    assert a is streams[0]
    assert b is streams[1]
    assert c is a  # same non-conflicting level shares a row


def test_end_to_end_reference_network(reference_netlist_text, reference_assignment):
    net, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(levels, spec, sets)
    n = 4096
    row_streams, _ = generate_array(build_array(spec, master_seed=31), n)
    terminal_streams = {t: row_streams[row_of(matrix, j)] for j, t in enumerate(net.terminals)}
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
        assignment = helpers.random_assignment(rng, net, levels)
        col_levels, sets = as_columns(assignment, extract_conflict_sets(net), net.terminals)
        spec = first_fit_size(col_levels, sets, SbgMode.SELF_CONTROL)
        matrix = allocate(col_levels, spec, sets)
        assert len(rows_in_use(matrix)) <= len(net.terminals)
        assert verify_allocation(matrix, sets, col_levels) == []


def test_verifier_flags_bad_matrices(reference_netlist_text, reference_assignment):
    net, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(levels, spec, sets)
    col = net.terminals.index

    doubled = matrix.control.copy()
    doubled.flags.writeable = True
    doubled[:, 0] = 0
    doubled[0, 0] = doubled[1, 0] = 1
    bad = type(matrix)(control=doubled, row_levels=matrix.row_levels)
    assert any("selects 2 rows" in msg for msg in verify_allocation(bad, sets, levels))

    shared = matrix.control.copy()
    shared.flags.writeable = True
    t5 = col("T5")
    shared[:, t5] = 0
    shared[row_of(matrix, col("T1")), t5] = 1  # T5 now conflicts with T1 on one row
    bad2 = type(matrix)(control=shared, row_levels=matrix.row_levels)
    messages = verify_allocation(bad2, sets, levels)
    assert any("share row" in msg for msg in messages)


def retarget(matrix, j, row):
    """Copy of matrix with column j moved onto row."""
    control = matrix.control.copy()
    control[:, j] = 0
    control[row, j] = 1
    return type(matrix)(control=control, row_levels=matrix.row_levels)


def test_verifier_reports_each_violation(reference_netlist_text, reference_assignment):
    net, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(levels, spec, sets)
    t1, t3, t5, t6, t7 = map(net.terminals.index, ("T1", "T3", "T5", "T6", "T7"))
    r1, r6 = row_of(matrix, t1), row_of(matrix, t6)
    assert matrix.row_levels[r1] == 0.1 and matrix.row_levels[r6] == 0.7

    # T5 onto T1's row: T5 conflicts with T1 ({T1, T2, T5}) and with T3,
    # which shares T1's row ({T3, T4, T5}).
    assert verify_allocation(retarget(matrix, t5, r1), sets, levels) == [
        f"conflicting columns {t1} and {t5} share row {r1}",
        f"conflicting columns {t3} and {t5} share row {r1}",
    ]
    # T6 onto a 0.1 row no conflicting terminal uses: only the level is wrong.
    assert verify_allocation(retarget(matrix, t6, r1), sets, levels) == [
        f"column {t6} requests 0.7 but row {r1} generates 0.1",
    ]
    # T7 onto T6's row: a shared row and a wrong level at once.
    assert verify_allocation(retarget(matrix, t7, r6), sets, levels) == [
        f"conflicting columns {t6} and {t7} share row {r6}",
        f"column {t7} requests 0.9 but row {r6} generates 0.7",
    ]


def test_row_of_rejects_columns_without_exactly_one_row(reference_netlist_text,
                                                        reference_assignment):
    _, levels, sets, spec = reference_setup(reference_netlist_text, reference_assignment)
    matrix = allocate(levels, spec, sets)
    for rows in ([], [0, 1]):
        control = matrix.control.copy()
        control[:, 0] = 0
        control[rows, 0] = 1
        bad = type(matrix)(control=control, row_levels=matrix.row_levels)
        with pytest.raises(ValueError, match=f"has {len(rows)} active rows"):
            row_of(bad, 0)
        assert verify_allocation(bad, sets, levels) == [f"column 0 selects {len(rows)} rows"]
