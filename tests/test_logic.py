import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import netlist_text
from spinsc import logic
from spinsc.logic import (
    CyclicNetlist,
    GateKind,
    Product,
    ScNetlist,
    cluster_terminals,
    expand_products,
    extract_conflict_sets,
    first_fit,
)


def test_parse_round_trip(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    again = ScNetlist.parse(netlist_text(net))
    assert again.terminals == net.terminals
    assert again.outputs == net.outputs
    assert again.gates.keys() == net.gates.keys()


def test_netlist_changed_after_parse_is_ordered_again():
    # parse keeps the order it validated; every add_* drops it, so a gate or
    # output added later is seen, and a bad one still raises.
    net = ScNetlist.parse("terminal a\nterminal b\ngate g AND a b\noutput g\n")
    assert net.topo_order() is net.topo_order() == ["g"]
    net.add_terminal("c")
    assert net.topo_order() == ["g"]
    net.add_gate("h", GateKind.AND, ("g", "c"))
    assert net.topo_order() == ["g", "h"]
    net.add_output("h")
    assert extract_conflict_sets(net) == [frozenset("abc")]
    net.add_output("ghost")
    with pytest.raises(CyclicNetlist, match="unknown node 'ghost'"):
        net.topo_order()


@pytest.mark.parametrize("text, message", [
    ("terminal a\ngate g XOR a a\n", "line 2: 'XOR' is not a valid GateKind"),
    ("terminal a\n\ngate g NOT a a\n", "line 3: NOT takes exactly one input"),
    ("terminal a\nterminal b\n# b is a terminal\ngate g MUX a b\n",
     "line 4: MUX takes exactly (data0, data1, select)"),
    ("terminal a\nterminal a\n", "line 2: duplicate node id 'a'"),
    ("terminal a\noutput\n", "line 2: cannot parse 'output'"),
], ids=["unknown-kind", "not-arity", "mux-arity", "duplicate-id", "unparsable"])
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as info:
        ScNetlist.parse(text)
    assert str(info.value) == message


def test_reference_products(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    products = expand_products(net, "R1")
    assert set(products) == {
        Product(frozenset({"T1", "T2", "T5"}), frozenset()),
        Product(frozenset({"T3", "T4"}), frozenset({"T5"})),
    }
    (r2,) = expand_products(net, "R2")
    assert r2 == Product(frozenset({"T6", "T7", "T8", "T9"}), frozenset())


def test_single_gate_products():
    net = ScNetlist()
    for t in ("a", "b"):
        net.add_terminal(t)
    net.add_gate("g", GateKind.AND, ("a", "b"))
    net.add_gate("n", GateKind.NOT, ("a",))
    net.add_output("g")
    net.add_output("n")
    assert expand_products(net, "g") == [Product(frozenset({"a", "b"}), frozenset())]
    assert expand_products(net, "n") == [Product(frozenset(), frozenset({"a"}))]


def test_reference_conflict_sets(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    sets = extract_conflict_sets(net)
    assert sets == [
        frozenset({"T1", "T2", "T5"}),
        frozenset({"T3", "T4", "T5"}),
        frozenset({"T6", "T7", "T8", "T9"}),
    ]


def test_disjoint_and_gates_disjoint_sets():
    net = ScNetlist()
    for t in ("a", "b", "c", "d"):
        net.add_terminal(t)
    net.add_gate("g1", GateKind.AND, ("a", "b"))
    net.add_gate("g2", GateKind.AND, ("c", "d"))
    net.add_output("g1")
    net.add_output("g2")
    assert extract_conflict_sets(net) == [frozenset({"a", "b"}), frozenset({"c", "d"})]


def test_cascaded_and_chain_single_set():
    # Six-input product built from five two-input ANDs.
    net = ScNetlist()
    names = [f"t{i}" for i in range(6)]
    for t in names:
        net.add_terminal(t)
    prev = names[0]
    for i, t in enumerate(names[1:], 1):
        net.add_gate(f"m{i}", GateKind.AND, (prev, t))
        prev = f"m{i}"
    net.add_output(prev)
    assert extract_conflict_sets(net) == [frozenset(names)]


def test_subset_sets_absorbed():
    net = ScNetlist()
    for t in ("a", "b", "c"):
        net.add_terminal(t)
    net.add_gate("small", GateKind.AND, ("a", "b"))
    net.add_gate("big", GateKind.AND, ("a", "b", "c"))
    net.add_output("small")
    net.add_output("big")
    assert extract_conflict_sets(net) == [frozenset({"a", "b", "c"})]


def test_negation_counts_for_membership():
    net = ScNetlist()
    for t in ("a", "b"):
        net.add_terminal(t)
    net.add_gate("nb", GateKind.NOT, ("b",))
    net.add_gate("g", GateKind.AND, ("a", "nb"))
    net.add_output("g")
    assert extract_conflict_sets(net) == [frozenset({"a", "b"})]


def test_cycle_detection():
    net = ScNetlist()
    net.add_terminal("a")
    net.add_gate("g1", GateKind.AND, ("a", "g2"))
    net.add_gate("g2", GateKind.AND, ("a", "g1"))
    net.add_output("g1")
    with pytest.raises(CyclicNetlist):
        expand_products(net, "g1")


def test_unknown_reference_detection():
    net = ScNetlist()
    net.add_terminal("a")
    net.add_gate("g", GateKind.AND, ("a", "ghost"))
    net.add_output("g")
    with pytest.raises(CyclicNetlist):
        net.topo_order()


def test_cluster_reference_example(reference_netlist_text, reference_assignment):
    net = ScNetlist.parse(reference_netlist_text)
    sets = extract_conflict_sets(net)
    mapping = cluster_terminals(net, sets, reference_assignment)
    # T1 and T3 merge; the conflicting T5 stays apart; T4/T8 merge, T9 not.
    assert mapping["T1"] == mapping["T3"]
    assert mapping["T5"] != mapping["T1"]
    assert mapping["T4"] == mapping["T8"]
    assert mapping["T9"] != mapping["T4"]
    assert len(set(mapping.values())) == 7


def test_cluster_identity_for_singletons(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    sets = extract_conflict_sets(net)
    mapping = cluster_terminals(net, sets, {t: k for k, t in enumerate(net.terminals)})
    assert len(set(mapping.values())) == len(net.terminals)


def test_cluster_requires_partition(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    with pytest.raises(ValueError):
        cluster_terminals(net, [], {"T1": 0.5, "T2": 0.5})


def test_cluster_never_merges_conflicting_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        net = helpers.random_netlist(rng, max_terminals=12, max_gates=6)
        sets = extract_conflict_sets(net)
        values = helpers.random_assignment(rng, net, [0.2, 0.5, 0.8])
        mapping = cluster_terminals(net, sets, values)
        clusters = helpers.clusters_of(mapping)
        for group in sets:
            for cid, members in clusters.items():
                assert len(group & set(members)) <= 1
        # Cluster-shared values evaluate identically to per-terminal values.
        for out in net.outputs:
            products = expand_products(net, out)
            shared = {t: values[clusters[mapping[t]][0]] for t in net.terminals}
            assert helpers.evaluate_products(products, shared) == pytest.approx(
                helpers.evaluate_products(products, values))


def test_cluster_terminals_matches_the_per_class_loop():
    for net, sets, assignment, by_level, random_classes in helpers.clustering_instances(300):
        labels = {t: k for k, cls in enumerate(random_classes) for t in cls}
        for level_of, classes in ((assignment, by_level), (labels, random_classes)):
            mapping = cluster_terminals(net, sets, level_of)
            oracle = helpers.cluster_terminals_per_class(net, sets, classes)
            assert list(mapping.items()) == list(oracle.items())


def test_first_fit_separates_only_same_key_neighbors():
    sets = [frozenset("abc"), frozenset("cd")]
    key = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 0}
    slots = first_fit(["c", "a", "b", "c", "d", "e"], sets, key)
    assert list(slots.items()) == [("c", 0), ("a", 0), ("b", 1), ("d", 1), ("e", 0)]


@st.composite
def small_netlists(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    net = helpers.random_netlist(rng, max_terminals=7, max_gates=6)
    values = {t: float(rng.uniform(0.05, 0.95)) for t in net.terminals}
    return net, values


@settings(max_examples=40)
@given(small_netlists())
def test_expansion_matches_brute_force(case):
    net, values = case
    for out in net.outputs:
        symbolic = helpers.evaluate_products(expand_products(net, out), values)
        exact = helpers.brute_force_probability(net, out, values)
        assert symbolic == pytest.approx(exact, abs=1e-12)


def test_evaluate_on_streams_matches_gates(reference_netlist_text):
    net = ScNetlist.parse(reference_netlist_text)
    rng = np.random.default_rng(9)
    streams = {t: rng.integers(0, 2, size=128, dtype=np.uint8) for t in net.terminals}
    outs = helpers.evaluate_on_streams(net, streams)
    r1 = outs["R1"]
    expected = (streams["T1"] & streams["T2"] & streams["T5"]) | (
        streams["T3"] & streams["T4"] & (1 - streams["T5"]))
    assert np.array_equal(r1, expected)


# --- Bitmask analysis against the frozenset oracle in helpers -------------

def assert_matches_oracle(net):
    for out in net.outputs:
        assert expand_products(net, out) == helpers.oracle_expand_products(net, out)
    assert extract_conflict_sets(net) == helpers.oracle_conflict_sets(net)


def shuffled_declarations(net, rng):
    """The same netlist with its gates declared in a random order."""
    again = ScNetlist(terminals=list(net.terminals), outputs=list(net.outputs))
    gates = list(net.gates.values())
    for k in rng.permutation(len(gates)):
        again.add_gate(gates[k].gate_id, gates[k].kind, gates[k].inputs)
    return again


@pytest.mark.parametrize("count, max_terminals, max_gates", [
    (200, 50, 12),  # helpers.random_netlist defaults
    (100, 6, 25),   # few terminals, deep sharing: many contradictions
    (40, 90, 30),   # masks wider than one machine word
    (100, 8, 40),   # deep: most terminals reach an output along two paths
])
def test_bitmask_analysis_matches_oracle_on_random_netlists(count, max_terminals, max_gates):
    rng = np.random.default_rng(max_terminals)
    for _ in range(count):
        net = helpers.random_netlist(rng, max_terminals=max_terminals, max_gates=max_gates)
        assert_matches_oracle(net)
        assert_matches_oracle(shuffled_declarations(net, rng))


def net_of(terminals, gates, outputs):
    net = ScNetlist()
    for t in terminals:
        net.add_terminal(t)
    for gid, kind, ins in gates:
        net.add_gate(gid, GateKind(kind), ins)
    for out in outputs:
        net.add_output(out)
    return net


def test_contradiction_has_no_products():
    net = net_of("a", [("na", "NOT", ["a"]), ("g", "AND", ["a", "na"])], ["g"])
    assert expand_products(net, "g") == []
    assert extract_conflict_sets(net) == []
    assert_matches_oracle(net)


def test_mux_select_also_data():
    # MUX(a, b, a) = a ? b : a = a*b.
    net = net_of("ab", [("m", "MUX", ["a", "b", "a"])], ["m"])
    assert expand_products(net, "m") == [Product(frozenset("ab"), frozenset())]
    net = net_of("ab", [("m", "MUX", ["b", "a", "a"])], ["m"])  # a ? a : b
    assert expand_products(net, "m") == [Product(frozenset("a"), frozenset()),
                                         Product(frozenset("b"), frozenset("a"))]
    assert_matches_oracle(net)
    # a ? !(b*d) : a*c = a*!b + a*b*!d: a keeps its polarity, or the
    # contradiction !a*a*c would leave the support a, c standing.
    net = net_of("abcd", [("x", "AND", ["a", "c"]), ("y", "AND", ["b", "d"]),
                          ("ny", "NOT", ["y"]), ("m", "MUX", ["x", "ny", "a"])], ["m"])
    assert extract_conflict_sets(net) == [frozenset("abd")]
    assert_matches_oracle(net)


def test_shared_subdag_in_both_polarities():
    net = net_of("abcd", [("g", "AND", ["a", "b"]), ("ng", "NOT", ["g"]),
                          ("m", "MUX", ["g", "ng", "c"]), ("h", "AND", ["ng", "d"])],
                 ["m", "h", "g"])
    assert expand_products(net, "h") == [Product(frozenset("d"), frozenset("a")),
                                         Product(frozenset("ad"), frozenset("b"))]
    assert extract_conflict_sets(net) == [frozenset("abc"), frozenset("abd")]
    assert_matches_oracle(net)


def test_duplicate_and_subset_supports():
    net = net_of("abc", [("x", "AND", ["a", "b"]), ("y", "AND", ["b", "a"]),
                         ("nb", "NOT", ["b"]), ("z", "AND", ["a", "nb"]),
                         ("w", "AND", ["c", "a", "b"]), ("v", "AND", ["c"])],
                 ["x", "y", "z", "w", "v"])
    assert extract_conflict_sets(net) == [frozenset("abc")]
    assert_matches_oracle(net)


def test_terminal_as_output():
    net = net_of("ab", [("g", "AND", ["a", "b"])], ["a", "g", "b"])
    assert expand_products(net, "a") == [Product(frozenset("a"), frozenset())]
    assert extract_conflict_sets(net) == [frozenset("ab")]
    net = net_of("abc", [("g", "AND", ["a", "b"])], ["c", "g"])
    assert extract_conflict_sets(net) == [frozenset("c"), frozenset("ab")]
    assert_matches_oracle(net)


def test_more_than_64_terminals():
    names = [f"t{i}" for i in range(130)]
    net = net_of(names, [("wide", "AND", names[::3]), ("nw", "NOT", ["wide"]),
                         ("m", "MUX", ["t1", "t128", "t127"]),
                         ("h", "AND", ["t129", "t64", "t63"])],
                 ["wide", "nw", "m", "h"])
    assert len(expand_products(net, "nw")) == len(names[::3])
    sets = extract_conflict_sets(net)
    assert sets[0] == frozenset(names[::3])
    assert frozenset({"t1", "t127"}) in sets and frozenset({"t127", "t128"}) in sets
    assert_matches_oracle(net)


# --- Read-once terminals: polarity dropped, dominated products pruned ----

def test_terminal_reaching_an_output_twice_through_a_nand_chain():
    # h = a * !(a*b) * (b ? d : c) = a*!b*c: a and b keep their polarity, or
    # the contradictions a*!a and b*!b would leave a*b*d standing.
    net = net_of("abcd", [("x", "AND", ["a", "b"]), ("nx", "NOT", ["x"]),
                          ("g", "AND", ["a", "nx"]), ("m", "MUX", ["c", "d", "b"]),
                          ("h", "AND", ["g", "m"])], ["g", "h"])
    assert expand_products(net, "g") == [Product(frozenset("a"), frozenset("b"))]
    assert extract_conflict_sets(net) == [frozenset("abc")]
    assert_matches_oracle(net)


def test_gate_shared_by_two_outputs_each_reading_it_once():
    net = net_of("abcde", [("x", "AND", ["a", "b"]), ("g", "NOT", ["x"]),
                           ("o1", "AND", ["g", "c"]), ("o2", "MUX", ["g", "d", "e"])],
                 ["o1", "o2"])
    assert extract_conflict_sets(net) == [frozenset(s) for s in ("abc", "de", "abe")]
    assert_matches_oracle(net)


def test_read_once_subformula_under_a_gate_used_in_both_polarities():
    # r = !(b*c) is read once by h, but m = (e ? g*f : d) * !g reads g = a*r
    # as g and as !g: m = !e*d*!g, and the branch e*g*f*!g, whose support
    # a..f no other product holds, is a contradiction.
    net = net_of("abcdefx", [("y", "AND", ["b", "c"]), ("r", "NOT", ["y"]),
                             ("g", "AND", ["a", "r"]), ("ng", "NOT", ["g"]),
                             ("gf", "AND", ["g", "f"]), ("mx", "MUX", ["d", "gf", "e"]),
                             ("m", "AND", ["mx", "ng"]), ("h", "AND", ["r", "x"])],
                 ["m", "h"])
    assert extract_conflict_sets(net) == [frozenset("abcde"), frozenset("bcx")]
    assert_matches_oracle(net)


@pytest.mark.parametrize("clauses", range(1, 7))
def test_read_once_families_hold_one_product_per_maximal_support(monkeypatch, clauses):
    # Every terminal of a MUX-of-NAND-chains netlist is read once, so each
    # output's family is one product per branch, where the disjoint
    # expansion has 3**clauses per branch.
    net = helpers.mux_of_nand_chains(np.random.default_rng(clauses), 40, 4, clauses)
    families = {}
    expand = logic._expand

    def spy(*args):
        families.update(expand(*args))
        return families

    monkeypatch.setattr(logic, "_expand", spy)
    sets = extract_conflict_sets(net)
    monkeypatch.undo()
    assert [frozenset(net.terminals[i] for i in range(40) if pos >> i & 1)
            for out in net.outputs for pos, neg in families[(out, False)]] == sets
    assert all(neg == 0 for out in net.outputs for _, neg in families[(out, False)])
    assert len(sets) == 2 * len(net.outputs)
    for out in net.outputs:
        assert len(expand_products(net, out)) == 2 * 3**clauses


# --- Absorption: dominance among supports, against the oracle -----------

def and_outputs(terminals, supports):
    """One AND output per support, in the order given."""
    gates = [(f"o{k}", "AND", list(sup)) for k, sup in enumerate(supports)]
    return net_of(terminals, gates, [gid for gid, _, _ in gates])


def test_outputs_sharing_lowest_and_highest_terminal():
    # 300 maximal supports lo & x_i & hi: all share lo and hi, so only the
    # middle terminal tells them apart.  Their subsets, some listed before
    # them, are absorbed by all of them or by exactly one.
    xs = [f"x{i}" for i in range(300)]
    terminals = ["lo", *xs, "hi"]
    supports = [("lo", "hi"), ("lo", "x7")]
    supports += [("lo", x, "hi") for x in xs]
    supports += [("x299", "hi"), ("lo",), ("hi", "lo"), ("x0",)]
    net = and_outputs(terminals, supports)
    assert extract_conflict_sets(net) == [frozenset(("lo", x, "hi")) for x in xs]
    assert_matches_oracle(net)


def test_support_held_by_two_maximal_supports_sharing_its_lowest_terminal():
    supports = ["ab", "abcd", "abd", "abce", "abc", "ade", "ae", "bcde", "cd"]
    net = and_outputs("abcde", supports)
    assert extract_conflict_sets(net) == [frozenset(s) for s in ("abcd", "abce", "ade", "bcde")]
    assert_matches_oracle(net)


def test_distinct_supports_of_equal_popcount():
    supports = ["ab", "bc", "ac", "ab", "cd", "da", "bd", "abd"]
    net = and_outputs("abcd", supports)
    assert extract_conflict_sets(net) == [frozenset(s) for s in ("bc", "ac", "cd", "abd")]
    assert_matches_oracle(net)


def test_disjoint_supports_of_equal_width_come_back_in_order():
    # The generic fusion network's shape: no support holds another, so each
    # one comes back, in the order given.
    terminals = [f"t{i}" for i in range(600)]
    starts = 3 * np.random.default_rng(3).permutation(200)
    supports = [terminals[i:i + 3] for i in starts.tolist()]
    net = and_outputs(terminals, supports)
    assert extract_conflict_sets(net) == [frozenset(sup) for sup in supports]


# Many supports of one width, mixed in any order with chains of nested ones.
EQUAL_WIDTH = st.integers(1, 6).flatmap(lambda k: st.lists(
    st.frozensets(st.sampled_from("abcdef"), min_size=k, max_size=k), max_size=16))
NESTED = st.permutations("abcdef").flatmap(
    lambda order: st.lists(st.integers(1, 6).map(lambda k: frozenset(order[:k])), max_size=8))


@settings(max_examples=100)
@given(st.one_of(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1), max_size=12),
                 st.tuples(EQUAL_WIDTH, NESTED).flatmap(lambda t: st.permutations(t[0] + t[1]))))
@example([])
def test_absorption_of_random_supports_matches_oracle(supports):
    # Subsets before or after their supersets, duplicates, equal widths,
    # nested chains: each support is its own output, so every absorption
    # crosses outputs.
    net = and_outputs("abcdef", [sorted(sup) for sup in supports])
    assert extract_conflict_sets(net) == helpers.oracle_conflict_sets(net)


def test_contradiction_only_output_next_to_terminal_output():
    net = net_of("ab", [("na", "NOT", ["a"]), ("g", "AND", ["a", "na"]),
                        ("h", "AND", ["na", "b", "a"])], ["g", "b", "h"])
    assert extract_conflict_sets(net) == [frozenset("b")]
    assert_matches_oracle(net)


@pytest.mark.parametrize("terminals, outputs, clauses, count", [
    (40, 4, 3, 12),  # the benchmark's shape, with one clause fewer
    (13, 2, 2, 12),  # every terminal in each output
    (40, 4, 4, 2),   # the benchmark's shape: 648 supports a netlist
])
def test_mux_of_nand_chains_match_oracle(terminals, outputs, clauses, count):
    rng = np.random.default_rng(terminals + clauses)
    for _ in range(count):
        assert_matches_oracle(helpers.mux_of_nand_chains(rng, terminals, outputs, clauses))


def not_chain(length, reverse=False):
    """a through `length` NOT gates, then AND with b; optionally declared
    consumers first."""
    gates = [(f"n{k}", "NOT", [f"n{k - 1}" if k else "a"]) for k in range(length)]
    gates.append(("g", "AND", [f"n{length - 1}", "b"]))
    return net_of("ab", gates[::-1] if reverse else gates, ["g"])


def test_deep_chain_expands_without_recursion():
    net = not_chain(3000)
    assert expand_products(net, "g") == [Product(frozenset("ab"), frozenset())]
    assert expand_products(net, "n2998") == [Product(frozenset(), frozenset("a"))]
    assert expand_products(net, "n2999") == [Product(frozenset("a"), frozenset())]
    assert extract_conflict_sets(net) == [frozenset("ab")]


def test_topo_order_of_reverse_declared_chain():
    net = not_chain(3000, reverse=True)
    assert net.topo_order() == [f"n{k}" for k in range(3000)] + ["g"]
    rng = np.random.default_rng(5)
    streams = {t: rng.integers(0, 2, size=64, dtype=np.uint8) for t in "ab"}
    (out,) = helpers.evaluate_on_streams(net, streams).values()
    assert np.array_equal(out, streams["a"] & streams["b"])
    values = {"a": 0.3, "b": 0.6}
    assert helpers.brute_force_probability(net, "g", values) == pytest.approx(0.18, abs=1e-15)
    assert helpers.evaluate_products(expand_products(net, "g"), values) == pytest.approx(0.18, abs=1e-15)
