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
from typing import Iterable

from .stochastic import Bitstream, sc_and, sc_mux, sc_not


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
    _terminal_set: set[str] = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._terminal_set = set(self.terminals)

    def add_terminal(self, term_id: str) -> None:
        if term_id in self._terminal_set or term_id in self.gates:
            raise ValueError(f"duplicate node id {term_id!r}")
        self.terminals.append(term_id)
        self._terminal_set.add(term_id)

    def add_gate(self, gate_id: str, kind: GateKind, inputs: Iterable[str]) -> None:
        if gate_id in self.gates or gate_id in self._terminal_set:
            raise ValueError(f"duplicate node id {gate_id!r}")
        self.gates[gate_id] = Gate(gate_id, kind, tuple(inputs))

    def add_output(self, node_id: str) -> None:
        self.outputs.append(node_id)

    def is_terminal(self, node_id: str) -> bool:
        return node_id in self._terminal_set

    def validate(self) -> None:
        """Check reference integrity and acyclicity; raises CyclicNetlist."""
        known = self._terminal_set
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in known and src not in self.gates:
                    raise CyclicNetlist(f"gate {gate.gate_id!r} references unknown node {src!r}")
        for out in self.outputs:
            if out not in known and out not in self.gates:
                raise CyclicNetlist(f"output references unknown node {out!r}")
        # Kahn's algorithm over the gate subgraph.
        indeg = {gid: sum(1 for s in g.inputs if s in self.gates)
                 for gid, g in self.gates.items()}
        ready = [gid for gid, d in indeg.items() if d == 0]
        fanout: dict[str, list[str]] = {}
        for gid, g in self.gates.items():
            for s in g.inputs:
                if s in self.gates:
                    fanout.setdefault(s, []).append(gid)
        seen = 0
        while ready:
            gid = ready.pop()
            seen += 1
            for nxt in fanout.get(gid, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if seen != len(self.gates):
            raise CyclicNetlist("gate graph contains a cycle")

    def topo_order(self) -> list[str]:
        self.validate()
        order: list[str] = []
        done: set[str] = set(self.terminals)
        pending = list(self.gates)
        while pending:
            rest = []
            for gid in pending:
                if all(s in done for s in self.gates[gid].inputs):
                    order.append(gid)
                    done.add(gid)
                else:
                    rest.append(gid)
            pending = rest
        return order

    # Plain-text exchange format: one declaration per line.
    #   terminal <id>
    #   gate <id> AND <in> ...
    #   gate <id> NOT <in>
    #   gate <id> MUX <d0> <d1> <sel>
    #   output <id>
    def to_text(self) -> str:
        lines = [f"terminal {t}" for t in self.terminals]
        for gate in self.gates.values():
            lines.append(f"gate {gate.gate_id} {gate.kind.value} " + " ".join(gate.inputs))
        lines.extend(f"output {o}" for o in self.outputs)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ScNetlist":
        net = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0].lower()
            if kind == "terminal" and len(parts) == 2:
                net.add_terminal(parts[1])
            elif kind == "gate" and len(parts) >= 4:
                net.add_gate(parts[1], GateKind(parts[2].upper()), parts[3:])
            elif kind == "output" and len(parts) == 2:
                net.add_output(parts[1])
            else:
                raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        net.validate()
        return net


@dataclass(frozen=True)
class Product:
    """One product term: positive and negated terminal literals.

    Products produced by expand_products are pairwise disjoint events, so the
    output probability is the plain sum of the product probabilities.
    """

    pos: frozenset[str]
    neg: frozenset[str]

    @property
    def support(self) -> frozenset[str]:
        return self.pos | self.neg

    def probability(self, values: dict[str, float]) -> float:
        p = 1.0
        for t in self.pos:
            p *= values[t]
        for t in self.neg:
            p *= 1.0 - values[t]
        return p


def _merge(x: Product, y: Product) -> Product | None:
    """Conjunction of two partial assignments; None on contradiction."""
    if x.pos & y.neg or x.neg & y.pos:
        return None
    return Product(x.pos | y.pos, x.neg | y.neg)


def _expand(net: ScNetlist, node_id: str, negated: bool,
            memo: dict[tuple[str, bool], list[Product]]) -> list[Product]:
    """Expansion core; assumes the netlist has already been validated."""

    def expand(node: str, negated: bool) -> list[Product]:
        key = (node, negated)
        if key in memo:
            return memo[key]
        if net.is_terminal(node):
            out = [Product(frozenset(), frozenset({node})) if negated
                   else Product(frozenset({node}), frozenset())]
            memo[key] = out
            return out
        gate = net.gates[node]
        if gate.kind is GateKind.NOT:
            out = expand(gate.inputs[0], not negated)
        elif gate.kind is GateKind.AND:
            if not negated:
                out = [Product(frozenset(), frozenset())]
                for src in gate.inputs:
                    nxt = []
                    for left in out:
                        for right in expand(src, False):
                            merged = _merge(left, right)
                            if merged is not None:
                                nxt.append(merged)
                    out = nxt
            else:
                # NOT(x1..xk) as the disjoint chain: !x1 + x1*!x2 + x1*x2*!x3 ...
                out = []
                prefix = [Product(frozenset(), frozenset())]
                for src in gate.inputs:
                    terms = []
                    for left in prefix:
                        for right in expand(src, True):
                            merged = _merge(left, right)
                            if merged is not None:
                                terms.append(merged)
                    out.extend(terms)
                    nxt = []
                    for left in prefix:
                        for right in expand(src, False):
                            merged = _merge(left, right)
                            if merged is not None:
                                nxt.append(merged)
                    prefix = nxt
        else:  # MUX(d0, d1, sel): sel ? d1 : d0
            d0, d1, sel = gate.inputs
            out = []
            for s in expand(sel, False):
                for d in expand(d1, negated):
                    merged = _merge(s, d)
                    if merged is not None:
                        out.append(merged)
            for s in expand(sel, True):
                for d in expand(d0, negated):
                    merged = _merge(s, d)
                    if merged is not None:
                        out.append(merged)
        memo[key] = out
        return out

    return expand(node_id, negated)


def expand_products(net: ScNetlist, output_id: str) -> list[Product]:
    """Disjoint sum-of-products form of one output.

    MUX(d0, d1, sel) expands to d1*sel + d0*(1-sel); NOT of a subexpression
    expands through the complement of its product family, which stays
    disjoint.  Contradictory terms (a terminal and its negation) are dropped.
    """
    net.validate()
    if output_id not in net.gates and not net.is_terminal(output_id):
        raise CyclicNetlist(f"unknown output node {output_id!r}")
    return _expand(net, output_id, False, {})


def evaluate_products(products: list[Product], values: dict[str, float]) -> float:
    """Symbolic output probability for independent terminal probabilities."""
    return sum(p.probability(values) for p in products)


def evaluate_on_streams(net: ScNetlist, streams: dict[str, Bitstream]) -> dict[str, Bitstream]:
    """Fold actual bitstreams through the gate DAG, one stream per output."""
    signals: dict[str, Bitstream] = dict(streams)
    for gid in net.topo_order():
        gate = net.gates[gid]
        if gate.kind is GateKind.NOT:
            signals[gid] = sc_not(signals[gate.inputs[0]])
        elif gate.kind is GateKind.AND:
            acc = signals[gate.inputs[0]]
            for src in gate.inputs[1:]:
                acc = sc_and(acc, signals[src])
            signals[gid] = acc
        else:
            d0, d1, sel = gate.inputs
            signals[gid] = sc_mux(signals[d1], signals[d0], signals[sel])
    return {out: signals[out] for out in net.outputs}


def extract_conflict_sets(net: ScNetlist) -> list[frozenset[str]]:
    """Terminal groups that feed a common product term.

    Membership ignores literal polarity (a negated stream is bitwise
    dependent on its source).  Duplicate sets are removed and subsets are
    absorbed by supersets; first-occurrence order is preserved.
    """
    net.validate()
    memo: dict[tuple[str, bool], list[Product]] = {}
    supports: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    for out in net.outputs:
        for product in _expand(net, out, False, memo):
            sup = product.support
            if sup and sup not in seen:
                seen.add(sup)
                supports.append(sup)
    # Absorb subsets; look only at sets sharing some member.
    by_member: dict[str, list[int]] = {}
    for idx, sup in enumerate(supports):
        for t in sup:
            by_member.setdefault(t, []).append(idx)
    keep = []
    for idx, sup in enumerate(supports):
        candidates = {j for t in sup for j in by_member[t] if j != idx}
        if not any(sup < supports[j] for j in candidates):
            keep.append(sup)
    return keep


def conflict_neighbors(conflict_sets: list[frozenset[str]]) -> dict[str, set[str]]:
    """Adjacency of the conflict graph implied by the sets (cliques)."""
    adj: dict[str, set[str]] = {}
    for group in conflict_sets:
        for t in group:
            adj.setdefault(t, set()).update(group)
    for t, neighbors in adj.items():
        neighbors.discard(t)
    return adj


def cluster_terminals(net: ScNetlist, conflict_sets: list[frozenset[str]],
                      same_input_classes: list[list[str]]) -> dict[str, str]:
    """Merge terminals that always share one digital input and never conflict.

    same_input_classes must partition the netlist terminals.  Returns a map
    terminal -> cluster id; cluster ids are assigned in deterministic order
    and singleton classes map to their own cluster.
    """
    flat = [t for cls in same_input_classes for t in cls]
    if sorted(flat) != sorted(net.terminals) or len(flat) != len(set(flat)):
        raise ValueError("same_input_classes must partition the terminals")

    adj = conflict_neighbors(conflict_sets)
    order = {t: i for i, t in enumerate(net.terminals)}
    mapping: dict[str, str] = {}
    next_cluster = 0
    for cls in same_input_classes:
        clusters: list[tuple[str, set[str]]] = []  # (cluster id, members)
        for t in sorted(cls, key=order.__getitem__):
            neighbors = adj.get(t, set())
            placed = False
            for cid, members in clusters:
                if not (members & neighbors):
                    members.add(t)
                    mapping[t] = cid
                    placed = True
                    break
            if not placed:
                cid = f"C{next_cluster}"
                next_cluster += 1
                clusters.append((cid, {t}))
                mapping[t] = cid
    return mapping


def clusters_of(mapping: dict[str, str]) -> dict[str, list[str]]:
    """Inverse of a cluster map, members in insertion order."""
    inv: dict[str, list[str]] = {}
    for t, cid in mapping.items():
        inv.setdefault(cid, []).append(t)
    return inv
