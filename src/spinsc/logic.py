"""Stochastic-computing logic as a gate DAG.

Supports AND (k-ary), NOT and MUX gates over named input terminals.  The
analysis passes expand each output into a disjoint sum of products over
terminal literals, extract the terminal conflict structure (terminals that
meet inside one product must come from independent bitstream generators),
and cluster interchangeable terminals to shrink the switch-matrix width.

All functions are pure analyses over immutable netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, takewhile
from typing import Collection, Hashable, Iterable, Mapping, Sequence


class CyclicNetlist(ValueError):
    """The gate graph contains a cycle or dangling reference."""


class GateKind(Enum):
    AND = "AND"
    NOT = "NOT"
    MUX = "MUX"


@dataclass(frozen=True)
class Gate:
    gate_id: str
    kind: GateKind
    inputs: tuple[str, ...]  # MUX order: (data0, data1, select)

    def __post_init__(self) -> None:
        if self.kind is GateKind.NOT and len(self.inputs) != 1:
            raise ValueError("NOT takes exactly one input")
        if self.kind is GateKind.MUX and len(self.inputs) != 3:
            raise ValueError("MUX takes exactly (data0, data1, select)")
        if self.kind is GateKind.AND and len(self.inputs) < 1:
            raise ValueError("AND takes at least one input")


@dataclass
class ScNetlist:
    """Terminals, gates and outputs; insertion order is preserved."""

    terminals: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    # terminal id -> 1 << its position: the bit that stands for it in a mask
    _bit: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    # topo_order's result, kept until the next add_*
    _order: list[str] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._bit = {t: 1 << i for i, t in enumerate(self.terminals)}

    def add_terminal(self, term_id: str) -> None:
        if term_id in self._bit or term_id in self.gates:
            raise ValueError(f"duplicate node id {term_id!r}")
        self._bit[term_id] = 1 << len(self.terminals)
        self.terminals.append(term_id)
        self._order = None

    def add_gate(self, gate_id: str, kind: GateKind, inputs: Iterable[str]) -> None:
        if gate_id in self.gates or gate_id in self._bit:
            raise ValueError(f"duplicate node id {gate_id!r}")
        self.gates[gate_id] = Gate(gate_id, kind, tuple(inputs))
        self._order = None

    def add_output(self, node_id: str) -> None:
        self.outputs.append(node_id)
        self._order = None

    def is_terminal(self, node_id: str) -> bool:
        return node_id in self._bit

    def topo_order(self) -> list[str]:
        """Gate ids, each after the gates it reads (Kahn's algorithm).

        Also checks reference integrity and acyclicity; raises CyclicNetlist.
        The list is kept, and returned again, until the next add_* call.
        """
        if self._order is not None:
            return self._order
        known = self._bit
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in known and src not in self.gates:
                    raise CyclicNetlist(f"gate {gate.gate_id!r} references unknown node {src!r}")
        for out in self.outputs:
            if out not in known and out not in self.gates:
                raise CyclicNetlist(f"output references unknown node {out!r}")
        indeg = {gid: 0 for gid in self.gates}
        fanout: dict[str, list[str]] = {}
        for gid, g in self.gates.items():
            for s in g.inputs:
                if s in self.gates:
                    indeg[gid] += 1
                    fanout.setdefault(s, []).append(gid)
        order = [gid for gid, d in indeg.items() if d == 0]
        for gid in order:  # grows while it is walked
            for nxt in fanout.get(gid, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
        if len(order) != len(self.gates):
            raise CyclicNetlist("gate graph contains a cycle")
        self._order = order
        return order

    # Plain-text exchange format: one declaration per line.
    #   terminal <id>
    #   gate <id> AND <in> ...
    #   gate <id> NOT <in>
    #   gate <id> MUX <d0> <d1> <sel>
    #   output <id>
    @classmethod
    def parse(cls, text: str) -> "ScNetlist":
        """The netlist the text declares; a line it cannot take raises
        ValueError naming the line, and a bad reference or a cycle raises
        CyclicNetlist."""
        net = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0].lower()
            try:
                if kind == "terminal" and len(parts) == 2:
                    net.add_terminal(parts[1])
                elif kind == "gate" and len(parts) >= 4:
                    net.add_gate(parts[1], GateKind(parts[2].upper()), parts[3:])
                elif kind == "output" and len(parts) == 2:
                    net.add_output(parts[1])
                else:
                    raise ValueError(f"cannot parse {raw!r}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        net.topo_order()
        return net


@dataclass(frozen=True)
class Product:
    """One product term: positive and negated terminal literals.

    Products produced by expand_products are pairwise disjoint events, so the
    output probability is the plain sum of the product probabilities.
    """

    pos: frozenset[str]
    neg: frozenset[str]


# A product as an int pair (pos, neg): bit i stands for net.terminals[i].
Term = tuple[int, int]


def _conjoin(xs: list[Term], ys: list[Term]) -> list[Term]:
    """Pairwise conjunction of two product families, x-major; terms with a
    terminal in both polarities are dropped."""
    return [(xp | yp, xn | yn) for xp, xn in xs for yp, yn in ys
            if not (xp & yn or xn & yp)]


def _prune(terms: list[Term], free: int) -> list[Term]:
    """terms less its dominated products, the rest in order.

    A product is dominated when another has the same literals outside the
    free mask and a strict superset of its free terminals, or is an earlier
    duplicate of it.  Only negated literals outside free are in neg.
    """
    fixed = ~free
    groups: dict[Term, list[int]] = {}
    for pos, neg in terms:
        groups.setdefault((pos & fixed, neg), []).append(pos)
    if len(groups) == len(terms):  # no two agree outside free
        return terms
    # Widest first: only a strictly wider member can strictly contain pos.
    for members in groups.values():
        members.sort(key=int.bit_count, reverse=True)
    kept = []
    for pos, neg in dict.fromkeys(terms):
        size = pos.bit_count()
        wider = takewhile(lambda m: m.bit_count() > size, groups[(pos & fixed, neg)])
        if not any(m & pos == pos for m in wider):
            kept.append((pos, neg))
    return kept


def _expand(net: ScNetlist, order: list[str], roots: Iterable[str], free: int = 0,
            reach: Mapping[str, int] | None = None) -> dict[tuple[str, bool], list[Term]]:
    """Products of every (node, negated) key the positive roots need.

    order is net.topo_order().  Needed keys are marked consumers first
    (reverse order), then filled producers first, so the depth of the
    netlist never reaches the Python stack.

    free masks read-once terminals (see extract_conflict_sets) and reach
    maps each gate to the terminals of its cone.  A free terminal's negated
    literal is stored in pos, and every family whose cone holds one drops
    its dominated products (_prune).  free = 0 gives the disjoint expansion.
    """
    needed = {(r, False) for r in roots}
    for gid in reversed(order):
        gate = net.gates[gid]
        for negated in (False, True):
            if (gid, negated) not in needed:
                continue
            if gate.kind is GateKind.NOT:
                needed.add((gate.inputs[0], not negated))
            elif gate.kind is GateKind.AND:
                needed.update((src, negated) for src in gate.inputs)
                if negated:  # the chain's prefixes
                    needed.update((src, False) for src in gate.inputs[:-1])
            else:
                d0, d1, sel = gate.inputs
                needed.update(((sel, False), (sel, True), (d1, negated), (d0, negated)))

    memo: dict[tuple[str, bool], list[Term]] = {}
    for t, bit in net._bit.items():
        memo[(t, False)] = leaf = [(bit, 0)]
        memo[(t, True)] = leaf if free & bit else [(0, bit)]
    for gid in order:
        gate = net.gates[gid]
        shrinks = free and free & reach[gid]
        for negated in (False, True):
            if (gid, negated) not in needed:
                continue
            if gate.kind is GateKind.NOT:  # its input's family, pruned already
                memo[(gid, negated)] = memo[(gate.inputs[0], not negated)]
                continue
            if gate.kind is GateKind.AND and not negated:
                out = [(0, 0)]
                for src in gate.inputs:
                    out = _conjoin(out, memo[(src, False)])
            elif gate.kind is GateKind.AND:
                # NOT(x1..xk) as the disjoint chain: !x1 + x1*!x2 + x1*x2*!x3 ...
                out = []
                prefix = [(0, 0)]
                last = len(gate.inputs) - 1
                for k, src in enumerate(gate.inputs):
                    out.extend(_conjoin(prefix, memo[(src, True)]))
                    if k < last:
                        prefix = _conjoin(prefix, memo[(src, False)])
                        if shrinks and len(prefix) > 1:
                            prefix = _prune(prefix, free)
            else:  # MUX(d0, d1, sel): sel ? d1 : d0
                d0, d1, sel = gate.inputs
                out = (_conjoin(memo[(sel, False)], memo[(d1, negated)])
                       + _conjoin(memo[(sel, True)], memo[(d0, negated)]))
            memo[(gid, negated)] = _prune(out, free) if shrinks and len(out) > 1 else out
    return memo


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def expand_products(net: ScNetlist, output_id: str) -> list[Product]:
    """Disjoint sum-of-products form of one output.

    MUX(d0, d1, sel) expands to d1*sel + d0*(1-sel); NOT of a subexpression
    expands through the complement of its product family, which stays
    disjoint.  Contradictory terms (a terminal and its negation) are dropped.
    """
    order = net.topo_order()
    if output_id not in net.gates and not net.is_terminal(output_id):
        raise CyclicNetlist(f"unknown output node {output_id!r}")
    terms = _expand(net, order, [output_id])[(output_id, False)]
    names = net.terminals
    return [Product(frozenset(names[i] for i in _bits(pos)),
                    frozenset(names[i] for i in _bits(neg)))
            for pos, neg in terms]


def extract_conflict_sets(net: ScNetlist) -> list[frozenset[str]]:
    """Terminal groups that feed a common product term.

    Membership ignores literal polarity (a negated stream is bitwise
    dependent on its source).  The sets are the products' supports less
    every support that another one strictly contains or that repeats an
    earlier one, in first-occurrence order: _prune's dominance rule with
    every terminal free.

    The result equals this absorption of every output's disjoint expansion,
    order included, without building most of it: a terminal that no gate
    reaches along two paths (read-once) never meets its own negation, so it
    is expanded without polarity, and each family drops its dominated
    products by the same rule.  README, "Conflict analysis", gives the
    argument for the set and the order.
    """
    order = net.topo_order()
    reach = dict(net._bit)
    multi = 0  # terminals some gate reaches along two paths
    for gid in order:
        cone = 0
        for src in net.gates[gid].inputs:
            bits = reach[src]
            multi |= cone & bits
            cone |= bits
        reach[gid] = cone
    free = ((1 << len(net.terminals)) - 1) & ~multi
    terms = _expand(net, order, net.outputs, free, reach)
    maximal = _prune([(pos | neg, 0) for out in net.outputs for pos, neg in terms[(out, False)]],
                     -1)
    return [frozenset(net.terminals[i] for i in _bits(sup)) for sup, _ in maximal]


def conflict_neighbors(conflict_sets: list[Collection[Hashable]]) -> dict[Hashable, set]:
    """Adjacency of the conflict graph implied by the sets (cliques)."""
    adj: dict[Hashable, set] = {}
    for group in conflict_sets:
        for t in group:
            adj.setdefault(t, set()).update(group)
    for t, neighbors in adj.items():
        neighbors.discard(t)
    return adj


def first_fit(order: Iterable[Hashable], conflict_sets: list[Collection[Hashable]],
              key: Mapping | Sequence) -> dict[Hashable, int]:
    """Greedy slots: walking order, each member takes the lowest slot that
    no already placed conflict neighbor with the same key holds.

    Members are terminal names or column indices, and key[member] is the
    member's level.  A member visited twice keeps its first slot; the result
    lists the members in placement order.
    """
    adj = conflict_neighbors(conflict_sets)
    slot: dict[Hashable, int] = {}
    for t in order:
        if t in slot:
            continue
        blocked = {slot[nb] for nb in adj.get(t, ()) if nb in slot and key[nb] == key[t]}
        s = 0
        while s in blocked:
            s += 1
        slot[t] = s
    return slot


def cluster_terminals(net: ScNetlist, conflict_sets: list[frozenset[str]],
                      level_of: Mapping[str, float]) -> dict[str, int]:
    """Merge same-level terminals that never conflict into one cluster.

    level_of gives every netlist terminal its level.  Returns a map
    terminal -> cluster id: a terminal joins the first cluster of its level
    that holds none of its conflict neighbors (first_fit in netlist order),
    cluster ids count up level by level in ascending order, and the map
    lists the terminals level by level, each level in netlist order.
    """
    if level_of.keys() != set(net.terminals):
        raise ValueError("level_of must give exactly the netlist terminals a level")
    slot = first_fit(net.terminals, conflict_sets, level_of)
    count = dict.fromkeys(sorted(set(level_of.values())), 0)
    for t, s in slot.items():
        count[level_of[t]] = max(count[level_of[t]], s + 1)
    offset = dict(zip(count, accumulate(count.values(), initial=0)))
    return {t: offset[level_of[t]] + slot[t] for t in sorted(slot, key=level_of.__getitem__)}
