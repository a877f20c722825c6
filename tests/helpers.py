"""Shared test utilities: brute-force oracles and random instance generators."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, product as iter_product
from typing import NamedTuple

import numpy as np

from spinsc.allocator import SwitchMatrix, allocate
from spinsc.device import (_TOL, _V_MARGIN, _V_MAX, MtjParams, PulseSpec, TargetUnreachable,
                           WriteDirection, base_switching_time, switch_probability,
                           switch_probability_at)
from spinsc.fusion import (
    CHANNELS,
    FusionPipeline,
    FusionProblem,
    FusionRunStats,
    PosteriorGrid,
    bearing_deg,
    condition_channels,
    likelihood_channels,
    quantize_levels,
)
from spinsc.logic import (
    GateKind,
    Product,
    ScNetlist,
    cluster_terminals,
    extract_conflict_sets,
    first_fit,
)
from spinsc.sbg import (SbgArray, SbgArraySpec, SbgMode, _write_pulse, build_array, counters,
                        generate_array, pulse_energy_nj)
from spinsc.seeding import DOMAIN_DEVICE, generators, stream_words


def rng_for(master_seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """The reference stream of (seed, domain, index): numpy's own SeedSequence,
    which seeding.stream_words re-implements."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(domain), int(index)))
    return np.random.default_rng(seq)


def rngs_for(master_seed: int, domain: int, indices) -> list[np.random.Generator]:
    """rng_for(master_seed, domain, index) for each index, through the batched
    seeding path that sbg.make_units takes (stream_words, then generators)."""
    return generators(stream_words(master_seed, domain, indices))


def quantize_levels_reference(values: np.ndarray, level_count: int) -> np.ndarray:
    """Oracle for fusion.quantize_levels in three steps: floor, round up a
    fraction above one half, clip to 1..L."""
    scaled = values * level_count
    k = np.floor(scaled)
    frac = scaled - k
    k = np.where(frac > 0.5, k + 1, k)
    return np.clip(k, 1, level_count).astype(np.intp)


def likelihood_channels_reference(problem: FusionProblem) -> np.ndarray:
    """Oracle for fusion.likelihood_channels that wraps both bearing steps
    with numpy's floored remainder, % 360.0."""
    w, h = problem.grid_w, problem.grid_h
    sx, sy = problem.cell_scale
    xs = np.arange(w)[:, None] * sx
    ys = np.arange(h)[None, :] * sy
    channels = np.empty((6, w, h), dtype=np.float64)
    with np.errstate(over="ignore"):
        for i, (cx, cy) in enumerate(problem.sensors):
            reading = problem.readings[i]
            dist = np.hypot(xs - cx, ys - cy)
            sd = problem.sigma_d(i)
            channels[2 * i] = np.exp(-0.5 * ((dist - reading.mu_d) / sd) ** 2) \
                / (math.sqrt(2.0 * math.pi) * sd)
            bearing = np.degrees(np.arctan2(ys - cy, xs - cx)) % 360.0
            diff = np.abs(bearing - reading.mu_b) % 360.0
            residual = np.minimum(diff, 360.0 - diff)
            channels[2 * i + 1] = np.exp(-0.5 * (residual / problem.sigma_b) ** 2) \
                / (math.sqrt(2.0 * math.pi) * problem.sigma_b)
    return channels


def brute_force_probability(net: ScNetlist, output_id: str,
                            values: dict[str, float]) -> float:
    """Exact output probability by enumerating every terminal assignment.

    Independent oracle for expand_products: evaluates the gate DAG bitwise
    on all 2^N corner assignments and sums the corner weights where the
    output is 1.
    """
    terminals = net.terminals
    order = net.topo_order()
    total = 0.0
    for bits in iter_product((0, 1), repeat=len(terminals)):
        signal = dict(zip(terminals, bits))
        for gid in order:
            gate = net.gates[gid]
            ins = [signal[s] for s in gate.inputs]
            if gate.kind is GateKind.AND:
                signal[gid] = int(all(ins))
            elif gate.kind is GateKind.NOT:
                signal[gid] = 1 - ins[0]
            else:
                d0, d1, sel = ins
                signal[gid] = d1 if sel else d0
        if signal[output_id]:
            weight = 1.0
            for t, b in zip(terminals, bits):
                weight *= values[t] if b else 1.0 - values[t]
            total += weight
    return total


def evaluate_products(products: list[Product], values: dict[str, float]) -> float:
    """Symbolic output probability of a disjoint sum of products, for
    independent terminal probabilities: the plain sum of the products'
    probabilities."""
    total = 0.0
    for product in products:
        p = 1.0
        for t in product.pos:
            p *= values[t]
        for t in product.neg:
            p *= 1.0 - values[t]
        total += p
    return total


def evaluate_on_streams(net: ScNetlist, streams: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Fold actual uint8 bitstreams through the gate DAG, one stream per
    output: AND is `&`, NOT is `1 - x` and MUX(d0, d1, sel) picks d1 where
    sel is 1."""
    signals = dict(streams)
    for gid in net.topo_order():
        gate = net.gates[gid]
        ins = [signals[src] for src in gate.inputs]
        if gate.kind is GateKind.NOT:
            signals[gid] = 1 - ins[0]
        elif gate.kind is GateKind.AND:
            signals[gid] = np.bitwise_and.reduce(ins)
        else:
            d0, d1, sel = ins
            signals[gid] = np.where(sel == 1, d1, d0)
    return {out: signals[out] for out in net.outputs}


def overlap_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int]:
    """Bit-overlap counts (a, b, c, d) = (#11, #10, #01, #00) of two uint8
    streams of one length."""
    a = int(np.sum(x & y))
    b = int(x.sum()) - a
    c = int(y.sum()) - a
    d = len(x) - a - b - c
    return a, b, c, d


def scc(x: np.ndarray, y: np.ndarray) -> float:
    """Scalar oracle for stochastic.scc: the SCC of two uint8 streams, one
    case at a time.

    SCC = (ad - bc) / (n*min(a+b, a+c) - (a+b)(a+c))     if ad > bc
        = (ad - bc) / ((a+b)(a+c) - n*max(a - d, 0))     otherwise

    and 0.0 where the denominator vanishes (a constant stream).
    """
    a, b, c, d = overlap_counts(x, y)
    n = len(x)
    num = a * d - b * c
    if num > 0:
        den = n * min(a + b, a + c) - (a + b) * (a + c)
    else:
        den = (a + b) * (a + c) - n * max(a - d, 0)
    if den == 0:
        return 0.0
    return num / den


def mean_abs_scc_by_length(rows: list[tuple], lengths: tuple[int, ...]) -> dict[int, float]:
    """Aggregate a (*, n, value) SCC table into mean |SCC| per length."""
    return {n: float(np.mean([r[-1] for r in rows if r[-2] == n])) for n in lengths}


def _merge(x: Product, y: Product) -> Product | None:
    """Conjunction of two partial assignments; None on contradiction."""
    if x.pos & y.neg or x.neg & y.pos:
        return None
    return Product(x.pos | y.pos, x.neg | y.neg)


def _oracle_expand(net: ScNetlist, node_id: str, negated: bool,
                   memo: dict[tuple[str, bool], list[Product]]) -> list[Product]:
    """Recursive frozenset expansion; assumes a validated netlist."""

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


def oracle_expand_products(net: ScNetlist, output_id: str) -> list[Product]:
    """Frozenset oracle for logic.expand_products (same products, same order)."""
    net.topo_order()
    return _oracle_expand(net, output_id, False, {})


def oracle_conflict_sets(net: ScNetlist) -> list[frozenset[str]]:
    """Frozenset oracle for logic.extract_conflict_sets: pairwise strict-subset
    absorption among supports that share a member."""
    net.topo_order()
    memo: dict[tuple[str, bool], list[Product]] = {}
    supports: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    for out in net.outputs:
        for product in _oracle_expand(net, out, False, memo):
            sup = product.pos | product.neg
            if sup and sup not in seen:
                seen.add(sup)
                supports.append(sup)
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


def random_netlist(rng: np.random.Generator, max_terminals: int = 50,
                   max_gates: int = 12) -> ScNetlist:
    """Random AND/NOT/MUX DAG with at least one output."""
    net = ScNetlist()
    n_terminals = int(rng.integers(2, max_terminals + 1))
    for i in range(n_terminals):
        net.add_terminal(f"T{i}")
    nodes = list(net.terminals)
    n_gates = int(rng.integers(1, max_gates + 1))
    for g in range(n_gates):
        kind = rng.choice(["AND", "AND", "AND", "NOT", "MUX"])
        if kind == "AND":
            k = int(rng.integers(2, 4))
            ins = [nodes[int(rng.integers(0, len(nodes)))] for _ in range(k)]
        elif kind == "NOT":
            ins = [nodes[int(rng.integers(0, len(nodes)))]]
        else:
            ins = [nodes[int(rng.integers(0, len(nodes)))] for _ in range(3)]
        gid = f"G{g}"
        net.add_gate(gid, GateKind(kind), ins)
        nodes.append(gid)
    sinks = [gid for gid in net.gates
             if not any(gid in g.inputs for g in net.gates.values())]
    for gid in sinks[: max(1, len(sinks))]:
        net.add_output(gid)
    return net


def mux_of_nand_chains(rng: np.random.Generator, terminals: int = 40, outputs: int = 4,
                       clauses: int = 4) -> ScNetlist:
    """Outputs MUX(A, B, s): A and B are ANDs of `clauses` three-input NANDs
    over distinct terminals and s is another terminal, so each output
    expands into 2 * 3**clauses products whose supports nest deeply."""
    net = ScNetlist()
    for i in range(terminals):
        net.add_terminal(f"t{i}")

    def gate(kind: str, inputs: list[str]) -> str:
        gid = f"g{len(net.gates)}"
        net.add_gate(gid, GateKind(kind), inputs)
        return gid

    for _ in range(outputs):
        names = [f"t{i}" for i in rng.choice(terminals, 6 * clauses + 1, replace=False)]
        branches = []
        for b in range(2):
            nands = [gate("NOT", [gate("AND", names[3 * (b * clauses + j):][:3])])
                     for j in range(clauses)]
            branches.append(gate("AND", nands))
        net.add_output(gate("MUX", [*branches, names[-1]]))
    return net


def random_assignment(rng: np.random.Generator, net: ScNetlist,
                      levels: list[float]) -> dict[str, float]:
    return {t: float(levels[int(rng.integers(0, len(levels)))])
            for t in net.terminals}


def conflict_neighbors(conflict_sets: list[frozenset[str]]) -> dict[str, set[str]]:
    """Adjacency of the conflict graph implied by the sets (cliques)."""
    adj: dict[str, set[str]] = {}
    for group in conflict_sets:
        for t in group:
            adj.setdefault(t, set()).update(group)
    for t, neighbors in adj.items():
        neighbors.discard(t)
    return adj


def cluster_terminals_per_class(net: ScNetlist, conflict_sets: list[frozenset[str]],
                                same_input_classes: list[list[str]]) -> dict[str, int]:
    """Oracle for logic.cluster_terminals: class by class, each terminal in
    netlist order joins the first earlier cluster of its class that holds
    none of its conflict neighbors, or opens the next cluster id."""
    adj = conflict_neighbors(conflict_sets)
    order = {t: i for i, t in enumerate(net.terminals)}
    mapping: dict[str, int] = {}
    next_cluster = 0
    for cls in same_input_classes:
        clusters: list[tuple[int, set[str]]] = []  # (cluster id, members)
        for t in sorted(cls, key=order.__getitem__):
            neighbors = adj.get(t, set())
            for cid, members in clusters:
                if not (members & neighbors):
                    members.add(t)
                    mapping[t] = cid
                    break
            else:
                cid = next_cluster
                next_cluster += 1
                clusters.append((cid, {t}))
                mapping[t] = cid
    return mapping


def clustering_instances(count: int, seed: int = 88):
    """count random netlists, each as (net, conflict sets, assignment over
    five levels, classes by level in ascending order, random classes)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_netlist(rng, max_terminals=30, max_gates=10)
        assignment = random_assignment(rng, net, [0.1, 0.3, 0.5, 0.7, 0.9])
        by_level: dict[float, list[str]] = {}
        for t in net.terminals:
            by_level.setdefault(assignment[t], []).append(t)
        labels = rng.integers(0, int(rng.integers(1, 6)), size=len(net.terminals))
        shuffled = rng.permutation(net.terminals).tolist()
        random_classes = [[t for t, k in zip(shuffled, labels) if k == c]
                          for c in range(int(labels.max()) + 1)]
        yield (net, extract_conflict_sets(net), assignment,
               [members for _, members in sorted(by_level.items())],
               [cls for cls in random_classes if cls])


class MtjState(IntEnum):
    P = 0   # parallel, low resistance, logic 0
    AP = 1  # anti-parallel, high resistance, logic 1


# The state a write in each direction switches the junction to.
WRITE_TARGET = {WriteDirection.P_TO_AP: MtjState.AP, WriteDirection.AP_TO_P: MtjState.P}


@dataclass
class Junction:
    """One MTJ stepped one pulse at a time: the per-bit oracle's device.

    scale is its process-variation factor on both resistances and on every
    switching time, as in sbg.SbgArray.scale.
    """

    params: MtjParams
    rng: np.random.Generator
    scale: float = 1.0
    state: MtjState = MtjState.P

    @property
    def resistance(self) -> float:
        r = self.params.r_ap if self.state is MtjState.AP else self.params.r_p
        return r * self.scale


def make_junction(params: MtjParams, master_seed: int, row: int, scale: float = 1.0, *,
                  domain: int = DOMAIN_DEVICE) -> Junction:
    """The junction of row `row`, on the stream sbg.make_units gives it in
    `domain`."""
    return Junction(params, rng_for(master_seed, domain, row), scale)


def variation_draw(rng: np.random.Generator, params: MtjParams, sigma_area: float,
                   sigma_tox: float) -> tuple[float, float, float]:
    """Oracle for device.draw_process_variation: (area, thickness, scale).
    The area and then the thickness multiplier ~ N(1, sigma) come from rng,
    each drawn again while non-positive; R ~ (1/A) * exp(t_ox) gives the
    resistance scale exp(t_ox * (thickness - 1)) / area."""
    factors = []
    for sigma in (sigma_area, sigma_tox):
        value = 0.0
        while value <= 0.0:
            value = 1.0 + sigma * rng.standard_normal()
        factors.append(value)
    area, tox = factors
    return area, tox, math.exp(params.t_ox * (tox - 1.0)) / area


def apply_write(junction: Junction, pulse: PulseSpec) -> bool:
    """Attempt one stochastic write; returns True iff the state flipped.

    Writing toward the current state is a no-op (no switching attempt, no
    random draw).  Otherwise one uniform U is drawn and the junction flips
    iff U < q, the switching probability at the junction's scaled dt.
    """
    target = WRITE_TARGET[pulse.direction]
    if junction.state is target:
        return False
    dt = base_switching_time(junction.params, pulse) * junction.scale
    if junction.rng.random() < switch_probability_at(dt, pulse.duration,
                                                     junction.params.sigma_rel):
        junction.state = target
        return True
    return False


def switching_time_fraction(rng: np.random.Generator, dt: float, duration: float,
                            sigma_rel: float, draws: int) -> float:
    """The physical reference for the switching law: a Monte Carlo of the
    normal switching-time model.  Of `draws` switching times from
    N(dt, sigma_rel * dt), clamped at zero, the fraction that fits inside
    the pulse."""
    t_sw = np.maximum(dt * (1.0 + sigma_rel * rng.standard_normal(draws)), 0.0)
    return float(np.count_nonzero(t_sw <= duration)) / draws


def read_state(junction: Junction) -> int:
    """Ideal non-destructive read: 1 for AP, 0 for P."""
    return int(junction.state)


# bisect_voltage's step limit.
_MAX_ITER = 200


def bisect_voltage(params: MtjParams, target_p: float, duration: float,
                   direction: WriteDirection) -> float:
    """Bisection oracle for device.calibrate_voltage: bias voltage whose
    switching probability matches target_p within _TOL.

    Bisection over the supercritical interval [vc0*(1+_V_MARGIN), _V_MAX],
    where the probability is monotone increasing in voltage.  A target at
    most _TOL above the top of the achievable range gets _V_MAX; one outside
    the range by more raises TargetUnreachable.
    """
    vc0, _ = params.direction_constants(direction)
    v_lo = vc0 * (1.0 + _V_MARGIN)
    v_hi = _V_MAX
    if v_lo >= v_hi:
        raise ValueError("empty voltage search interval")

    def prob(v: float) -> float:
        return switch_probability(params, PulseSpec(v, duration, direction))

    p_lo = prob(v_lo)
    p_hi = prob(v_hi)
    if not p_lo <= target_p <= p_hi + _TOL:
        raise TargetUnreachable(
            f"target probability {target_p} outside achievable range "
            f"[{p_lo:.3e}, {p_hi:.6f}] for {direction.value} at {duration} ns")
    if target_p == p_lo:
        return v_lo
    if target_p >= p_hi:
        return v_hi

    for _ in range(_MAX_ITER):
        v_mid = 0.5 * (v_lo + v_hi)
        p_mid = prob(v_mid)
        if abs(p_mid - target_p) <= _TOL:
            return v_mid
        if p_mid < target_p:
            v_lo = v_mid
        else:
            v_hi = v_mid
    # Interval collapsed without meeting _TOL; monotonicity makes this
    # unreachable for any realistic tolerance.
    raise TargetUnreachable(f"bisection did not converge to {target_p}")


class OracleRun(NamedTuple):
    """One row's run through scalar_generate."""

    bits: np.ndarray        # uint8 (n,)
    energy: float           # counts times pulse energies, in generate_array's order
    writes: int             # pulses, counted one at a time
    reads: int
    cycle_energy: float     # the energy summed one pulse and read at a time


def scalar_generate(array: SbgArray, row: int, n: int, rng: np.random.Generator) -> OracleRun:
    """Per-bit oracle for sbg.generate_array: steps one row of an array one
    pulse and one read at a time through the device model, from P, drawing
    from rng.  The row's write pulses are calibrated again from its target.

    Each pulse is counted by the pulse and the state it sees, and the energy
    is those counts times the pulses' energies, plus the reads', added in
    generate_array's order.  The energy summed one pulse and read at a time
    in cycle order rounds differently.
    """
    device = array.device
    junction = Junction(device.params, rng, float(array.scale[row]))
    target = float(array.targets[row])
    reset = device.reset_pulse
    p2ap = _write_pulse(device, target, WriteDirection.P_TO_AP)
    seen: Counter[tuple[PulseSpec, MtjState]] = Counter()
    cycle_energy = 0.0
    reads = 0

    def pulse(spec: PulseSpec) -> None:
        nonlocal cycle_energy
        # Energy uses the resistance of the state the pulse sees.
        seen[spec, junction.state] += 1
        cycle_energy += pulse_energy_nj(spec, junction.resistance)
        apply_write(junction, spec)

    def read() -> int:
        nonlocal cycle_energy, reads
        reads += 1
        cycle_energy += device.read_energy_nj
        return read_state(junction)

    def term(spec: PulseSpec, state: MtjState) -> float:
        r = device.params.r_ap if state is MtjState.AP else device.params.r_p
        return seen[spec, state] * pulse_energy_nj(spec, r * junction.scale)

    P, AP = MtjState.P, MtjState.AP
    bits = []
    if array.mode is SbgMode.SIMPLE:
        for _ in range(n):
            pulse(reset)
            pulse(p2ap)
            bits.append(read())
        energy = (term(reset, P) + term(reset, AP) + term(p2ap, P) + term(p2ap, AP)
                  + reads * device.read_energy_nj)
    else:
        ap2p = _write_pulse(device, target, WriteDirection.AP_TO_P)
        pulse(reset)
        last = read()
        for _ in range(n):
            pulse(p2ap if last == int(P) else ap2p)
            current = read()
            bits.append(current ^ last)
            last = current
        energy = (term(reset, P) + reads * device.read_energy_nj + term(ap2p, AP)
                  + term(p2ap, P))
    return OracleRun(np.array(bits, dtype=np.uint8), energy, seen.total(), reads, cycle_energy)


def first_fit_size(levels: list[float], conflict_sets: list[set[int]],
                   mode: SbgMode) -> SbgArraySpec:
    """Per-level multiplicities phi(i) for the columns' levels, unclustered
    or not; the oracle of allocator.size_array on clustered columns.

    One first-fit pass with unbounded rows, in allocate's walk: each level
    gets exactly the rows the switch controller consumes, its highest slot
    plus one, which always covers the worst per-set demand.
    """
    need = dict.fromkeys(sorted(set(levels)), 0)
    if not need:
        raise ValueError("at least one level is required")
    walk = chain(chain.from_iterable(map(sorted, conflict_sets)), range(len(levels)))
    for j, slot in first_fit(walk, conflict_sets, levels).items():
        need[levels[j]] = max(need[levels[j]], slot + 1)
    return SbgArraySpec(tuple(need), tuple(need.values()), mode)


def as_columns(assignment: dict[str, float], conflict_sets: list[frozenset[str]],
               order: list[str]) -> tuple[list[float], list[set[int]]]:
    """allocate's levels and conflict sets for named terminals, column j
    standing for terminal order[j]."""
    col = {t: j for j, t in enumerate(order)}
    return [assignment[t] for t in order], [{col[t] for t in group} for group in conflict_sets]


def clusters_of(mapping: dict[str, int]) -> dict[int, list[str]]:
    """Inverse of a cluster map, members in insertion order."""
    inv: dict[int, list[str]] = {}
    for t, cid in mapping.items():
        inv.setdefault(cid, []).append(t)
    return inv


def terminal_name(x: int, y: int, channel: str) -> str:
    return f"x{x}y{y}_{channel}"


def build_sc_network(problem: FusionProblem,
                     level_count: int = 64) -> tuple[ScNetlist, dict[str, float]]:
    """Per-cell 6-input AND chains plus the quantized input assignment.

    Returns one netlist holding W*H independent sub-circuits (6*W*H
    terminals) and the terminal -> level map derived from the conditioned,
    quantized likelihood channels.
    """
    channels = quantize_levels(condition_channels(likelihood_channels(problem)),
                               level_count) / level_count
    net = ScNetlist()
    assignment: dict[str, float] = {}
    for x in range(problem.grid_w):
        for y in range(problem.grid_h):
            names = [terminal_name(x, y, ch) for ch in CHANNELS]
            for i, name in enumerate(names):
                net.add_terminal(name)
                assignment[name] = float(channels[i, x, y])
            prev = names[0]
            for k in range(1, 6):
                gid = f"x{x}y{y}_m{k}"
                net.add_gate(gid, GateKind.AND, (prev, names[k]))
                prev = gid
            net.add_output(prev)
    return net, assignment


def generic_fusion_plan(problem: FusionProblem, level_count: int = 64,
                        mode: SbgMode = SbgMode.SELF_CONTROL):
    """Oracle for FusionPipeline's preparation: the fusion netlist through the
    generic conflict extraction, first-fit clustering, sizing and allocation.

    Returns (spec, matrix, cell_rows, num_clusters).
    """
    net, assignment = build_sc_network(problem, level_count)
    conflict_sets = extract_conflict_sets(net)
    cluster_of = cluster_terminals(net, conflict_sets, assignment)
    levels = [assignment[members[0]] for members in clusters_of(cluster_of).values()]
    cluster_sets = [{cluster_of[t] for t in group} for group in conflict_sets]
    spec = first_fit_size(levels, cluster_sets, mode)
    matrix = allocate(levels, spec, cluster_sets)

    row_of_col = np.argmax(matrix.control, axis=0)
    cell_rows = np.array([[row_of_col[cluster_of[terminal_name(x, y, ch)]]
                           for ch in CHANNELS]
                          for x in range(problem.grid_w) for y in range(problem.grid_h)],
                         dtype=np.int64)
    return spec, matrix, cell_rows, len(levels)


def oracle_run(pipeline: FusionPipeline, n: int, master_seed: int,
               pv_sigmas: tuple[float, float] | None = None
               ) -> tuple[PosteriorGrid, FusionRunStats]:
    """Oracle for FusionPipeline.run's counting step: the same streams
    gathered one byte per bit into (cells, 6, n), ANDed over the six channels
    and summed."""
    array = build_array(pipeline.spec, master_seed, pipeline.device,
                        pv_sigmas=pv_sigmas, calibration=pipeline.calibration)
    bits, energy = generate_array(array, n)
    counts = np.bitwise_and.reduce(bits[pipeline.cell_rows], axis=1).sum(axis=1).astype(np.float64)
    w, h = pipeline.problem.grid_w, pipeline.problem.grid_h
    grid = PosteriorGrid((counts / n).reshape(w, h)).normalize()
    writes, reads = counters(array.mode, n)
    stats = FusionRunStats(n_cycles=n, num_units=len(array),
                           total_energy_nj=sum(energy.tolist()),
                           writes=len(array) * writes, reads=len(array) * reads)
    return grid, stats


def row_of(matrix: SwitchMatrix, j: int) -> int:
    """The one row column j selects; ValueError if not one."""
    rows = np.flatnonzero(matrix.control[:, j])
    if rows.size != 1:
        raise ValueError(f"column {j} has {rows.size} active rows")
    return int(rows[0])


def rows_in_use(matrix: SwitchMatrix) -> list[int]:
    """Rows that at least one column selects."""
    return [int(r) for r in np.flatnonzero(matrix.control.any(axis=1))]


def netlist_text(net: ScNetlist) -> str:
    """The netlist in ScNetlist.parse's plain-text format."""
    lines = [f"terminal {t}" for t in net.terminals]
    for gate in net.gates.values():
        lines.append(f"gate {gate.gate_id} {gate.kind.value} " + " ".join(gate.inputs))
    lines.extend(f"output {o}" for o in net.outputs)
    return "\n".join(lines) + "\n"


def csv_text(header: list[str], rows) -> str:
    """Oracle for cli.write_csv: the CSV text of header and rows with every
    value formatted on its own, a float at 6 significant digits and
    anything else through str."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def angular_residual(a_deg: float, b_deg: float) -> float:
    """Minimal angular difference on [0, 180]; 359 vs 1 is 2, not 358."""
    diff = abs(a_deg - b_deg) % 360.0
    return min(diff, 360.0 - diff)


def gaussian_density(residual: float, sigma: float) -> float:
    return math.exp(-0.5 * (residual / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)


def cell_position(problem: FusionProblem, x: int, y: int) -> tuple[float, float]:
    sx, sy = problem.cell_scale
    return x * sx, y * sy


def likelihoods(problem: FusionProblem, cell: tuple[int, int]) -> tuple[float, ...]:
    """Per-cell oracle for fusion.likelihood_channels: the six conditional
    densities (d1, b1, d2, b2, d3, b3) of one cell, one at a time."""
    px, py = cell_position(problem, *cell)
    values = []
    for i, (sx, sy) in enumerate(problem.sensors):
        reading = problem.readings[i]
        d = math.hypot(px - sx, py - sy)
        sd = problem.sigma_d(i)
        values.append(gaussian_density(d - reading.mu_d, sd))
        b = bearing_deg((sx, sy), (px, py))
        values.append(gaussian_density(angular_residual(b, reading.mu_b), problem.sigma_b))
    return tuple(values)
