"""Stochastic bitstream generators built on the MTJ switching model.

Two state machines are modeled.  The simple generator runs
reset -> write -> read per bit (2n writes, n reads for n bits).  The
self-control generator re-uses every write as a bit attempt: after one
initialization cycle it writes toward the opposite of the latched state,
reads, and emits XOR(current, last), costing n+1 writes and n+1 reads.

Energy bookkeeping: a pulse costs V^2 * t / R(the state it sees) in nJ and a
read a fixed configurable amount, so a unit's energy is counts times costs.

The generators of a run are one SbgArray, a struct of per-unit columns
that make_units builds with its write voltages from device.calibrate_voltage
and its units' stream seeds.  A write switches with the probability q of the
device model's switching law; each attempt draws one uniform U and switches
iff U < q.  generate_array runs every unit from P on a fresh stream, a block
of rows at a time, with no loop over cycles: it pre-draws each unit's
uniforms, takes the states from the switching outcomes, and returns the bits
and energy that stepping each unit one pulse at a time from P would give,
energy up to rounding.  It changes nothing in the array, so an array runs
again to the same result.  counters gives a unit's writes and reads, which
follow from the mode and the length alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .device import (
    MtjParams,
    PulseSpec,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    draw_process_variation,
    switch_probability_at,
)
from .seeding import DOMAIN_DEVICE, DOMAIN_PROCESS_VARIATION, generators, stream_words

# Reset pulse: strong enough that AP->P switching is essentially certain.
RESET_PULSE = PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)

# generate_array runs units in blocks of about this many bits: its
# temporaries peak near 55 bytes per bit in simple mode and 16 to 22 in
# self-control mode, and a unit's run never depends on its block.
_BLOCK_BITS = 1 << 14


class SbgMode(Enum):
    SIMPLE = "simple"
    SELF_CONTROL = "self_control"


def pulse_energy_nj(pulse: PulseSpec, resistance: float) -> float:
    """Joule heating of one pulse: V^2 * t_ns / R comes out directly in nJ."""
    return pulse.voltage ** 2 * pulse.duration / resistance


@dataclass(frozen=True)
class SbgDevice:
    """The device settings every generator of a run shares: the junction, the
    write-pulse duration its write voltages are calibrated at, the fixed
    energy of one read and the reset pulse, which always writes toward P."""

    params: MtjParams = MtjParams()
    write_duration_ns: float = 5.4
    read_energy_nj: float = 0.002
    reset_pulse: PulseSpec = RESET_PULSE

    def __post_init__(self) -> None:
        if not self.write_duration_ns > 0:
            raise ValueError("write duration must be strictly positive")
        if not self.read_energy_nj >= 0:
            raise ValueError("read energy must be non-negative")
        if self.reset_pulse.direction is not WriteDirection.AP_TO_P:
            raise ValueError("the reset pulse must write toward P")


@dataclass(eq=False)
class SbgArray:
    """A generator array held as columns; row k is unit k.

    The device and the mode are the whole array's.  constants[..., l] holds
    level l's reset and write pulses' constants, the array's one record of
    its calibration, and level[k] is unit k's level.  The other columns are
    per unit: its target, scale (the process-variation factor on its
    resistances and switching times, exactly 1.0 when nominal) and the four
    words that seed its random stream (seeding.stream_words).  make_units
    builds it; generate_array reads it and changes nothing.
    """

    device: SbgDevice
    mode: SbgMode
    constants: np.ndarray    # float64 (4, pulses per cycle, levels), see _constants
    level: np.ndarray        # intp
    targets: np.ndarray      # float64
    scale: np.ndarray        # float64
    seeds: np.ndarray        # uint64 (units, 4)

    def __len__(self) -> int:
        return len(self.targets)


class CalibrationCache:
    """The (4, pulses per cycle) _constants of the reset and the calibrated
    write pulses make_units has built, per (device, mode) and target, so a
    cache that serves many builds calibrates each target once."""

    def __init__(self) -> None:
        self.pulses: dict[tuple[SbgDevice, SbgMode], dict[float, np.ndarray]] = {}


def _write_pulse(device: SbgDevice, target_p: float, direction: WriteDirection) -> PulseSpec:
    v = calibrate_voltage(device.params, target_p, device.write_duration_ns, direction)
    return PulseSpec(v, device.write_duration_ns, direction)


def _cycle(device: SbgDevice, mode: SbgMode, target_p: float) -> list[PulseSpec]:
    """The reset and write pulses of one cycle at a target."""
    writes = [WriteDirection.P_TO_AP] if mode is SbgMode.SIMPLE else list(WriteDirection)
    return [device.reset_pulse] + [_write_pulse(device, target_p, d) for d in writes]


def make_units(device: SbgDevice, mode: SbgMode, targets: Sequence[float],
               master_seed: int, *, domain: int = DOMAIN_DEVICE,
               pv_sigmas: tuple[float, float] | None = None,
               calibration: CalibrationCache | None = None) -> SbgArray:
    """Build and calibrate one generator per target; unit k draws stream k of
    `domain`, and its process variation stream k of DOMAIN_PROCESS_VARIATION.

    Write voltages are calibrated against the nominal device, once per
    distinct target and cache (in `calibration`, or a fresh cache), and units
    at one target share its pulses' constants.  Process variation
    (pv_sigmas = (sigma_area, sigma_tox)) perturbs only each unit's scale, as
    it would on silicon.  The device streams' seeds, and the process-variation
    streams', each come from one stream_words call, one index per unit.
    """
    calibration = calibration or CalibrationCache()
    cached = calibration.pulses.setdefault((device, mode), {})
    levels: dict[float, int] = {}
    for p in targets:
        if p in levels:
            continue
        if p not in cached:
            cached[p] = _constants(device.params, _cycle(device, mode, p))
        levels[p] = len(levels)
    count = len(targets)
    ids = range(count)
    per_cycle = 2 if mode is SbgMode.SIMPLE else 3
    constants = np.reshape([cached[p] for p in levels], (-1, 4, per_cycle)).transpose(1, 2, 0)
    level = np.array([levels[p] for p in targets], dtype=np.intp)
    scale = np.ones(count)
    if pv_sigmas is not None and any(pv_sigmas):
        scale = np.array([draw_process_variation(rng, device.params, *pv_sigmas)
                          for rng in generators(stream_words(master_seed,
                                                             DOMAIN_PROCESS_VARIATION, ids))])
        # A switching time near the float maximum can overflow once scaled:
        # base_switching_time refuses the first unit's pulse that does.
        with np.errstate(over="ignore"):
            for k in np.flatnonzero(np.isinf(constants[0][:, level] * scale).any(axis=0))[:1]:
                for pulse in _cycle(device, mode, targets[k]):
                    base_switching_time(device.params, pulse, float(scale[k]))
    return SbgArray(device, mode, constants, level=level,
                    targets=np.array(targets, dtype=np.float64), scale=scale,
                    seeds=stream_words(master_seed, domain, ids))


class _Pulse(NamedTuple):
    """One pulse per unit, as (units, 1) columns gathered by level, the
    shared reset included.

    The constants come from the scalar device functions, so every switching
    test and pulse energy is the float64 value the per-bit model gives.  A
    uniform draw u in [0, 1) switches iff u < q, so q = 0 never switches and
    q = 1 always does.
    """

    q: np.ndarray               # switching probability
    energy_p: np.ndarray        # energy of the pulse seen from P
    energy_ap: np.ndarray       # and from AP


def _constants(params: MtjParams, pulses: Sequence[PulseSpec]) -> np.ndarray:
    """(4, len(pulses)): each pulse's nominal switching time, its duration,
    its energy over one ohm, which must be finite, and its nominal switching
    probability."""
    rows = []
    for pulse in pulses:
        try:
            heat = pulse_energy_nj(pulse, 1.0)
        except OverflowError:    # V^2 beyond the float range
            heat = np.inf
        if heat == np.inf:
            raise ValueError(f"infinite energy: {pulse.voltage:g} V for {pulse.duration:g} ns")
        dt = base_switching_time(params, pulse)
        rows.append((dt, pulse.duration, heat,
                     switch_probability_at(dt, pulse.duration, params.sigma_rel)))
    return np.array(rows).T


def _pulses(constants: np.ndarray, params: MtjParams, scale: np.ndarray) -> list[_Pulse]:
    """The pulses from their (4, pulses, units, 1) constants.  Process
    variation scales the switching time and both resistances by the (units, 1)
    scale: a unit whose scale is not exactly 1 gets the switching probability
    at its scaled switching time, and the energies are pulse_energy_nj's
    quotient at the scaled resistance."""
    dt, duration, heat, q = constants
    varied = np.flatnonzero(scale != 1.0)
    if varied.size:
        scaled = dt[:, varied] * scale[varied]
        q = q.copy()
        q[:, varied] = np.reshape([switch_probability_at(t_sw, t, params.sigma_rel) for t_sw, t
                                   in zip(scaled.ravel().tolist(),
                                          duration[:, varied].ravel().tolist())], scaled.shape)
    return list(map(_Pulse, q, heat / (params.r_p * scale), heat / (params.r_ap * scale)))


def counters(mode: SbgMode, n: int) -> tuple[int, int]:
    """The writes and reads one unit of `mode` makes for n bits."""
    return (2 * n, n) if mode is SbgMode.SIMPLE else (n + 1, n + 1)


def generate_array(array: SbgArray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n bits from every unit of the array, stepped together from P on fresh
    streams, and each unit's energy in nJ: uint8 (units, n) and float64
    (units,).

    Simple units run reset -> write -> read per bit; self-control units run
    one initialization cycle (reset, read) and then n write/read cycles
    toward the opposite of the latched state, emitting XOR(current, last).
    counters(mode, n) gives the writes and reads.

    The result is the per-bit model's from P, bit for bit: each unit draws
    its own uniforms in the order the per-bit model would, a pulse draws only
    when it writes toward the other state and switches iff its draw lies
    below its switching probability.  Energy is each unit's pulse counts, by
    the state each pulse saw, times their energies, plus its reads': the
    per-bit model's sum in cycle order up to rounding.  Each block of about
    _BLOCK_BITS bits builds its units' Generators from their seeds, so the
    array is only read and a second call returns the same bits and energy.
    Nothing loops over cycles: the states come from one scan over the
    pre-drawn switching outcomes (_switching_scan) or, for a self-control row
    whose outcomes never depend on its state, from their running XOR.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    run = _run_simple if array.mode is SbgMode.SIMPLE else _run_self_control
    read = np.float64(array.device.read_energy_nj)    # a float's overflow would not raise
    bits = np.empty((len(array), n), dtype=np.uint8)
    energy = np.empty(len(array))
    step = max(1, _BLOCK_BITS // n)
    # An extreme junction (a tiny RA product, a huge read energy) would
    # otherwise end in warnings and infinite energies.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for first in range(0, len(array), step):
            rows = slice(first, first + step)
            pulses = _pulses(array.constants[:, :, array.level[rows], None],
                             array.device.params, array.scale[rows, None])
            bits[rows], energy[rows] = run(generators(array.seeds[rows]), n, read, *pulses)
    return bits, energy


def _switching_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States after each step, from P, of the two-state automaton whose next
    state is a from P and not b from AP; rows are units, columns steps, True
    is AP.

    A step with a != b sets the state to a, a = b = 1 negates it and
    a = b = 0 keeps it.  So the state after step k is the one the last
    setting step j <= k set (P if there is none), XOR parity[k] ^ parity[j]
    for the running parity of negating steps.  Setting step j gets the key
    2(j + 1) + (a[j] ^ parity[j]) and any other step 0, so the running
    maximum of the keys names j, and its low bit XOR parity[k] is the state.
    """
    parity = np.logical_xor.accumulate(a & b, axis=1)
    steps = a.shape[1]
    order = np.arange(2, 2 * steps + 2, 2, dtype=np.min_scalar_type(2 * steps + 1))
    key = np.multiply(a != b, order + (a ^ parity))
    return (np.maximum.accumulate(key, axis=1, out=key) & 1).astype(bool) ^ parity


def _run_simple(rngs: Sequence[np.random.Generator], n: int, read: np.float64,
                reset: _Pulse, write: _Pulse):
    # The uniforms a unit draws are tokens for a two-state automaton: "AP,
    # before reset" (the reset draws) and "P, before write" (the write
    # draws).  The next state is write_ok from P and not reset_ok from AP.
    # Every token but a successful reset ends a cycle and emits the state
    # after it, so 2n tokens always hold n bits, and a unit's bits are its
    # first n emissions.
    tokens = np.empty((len(rngs), 2 * n))
    for row, rng in zip(tokens, rngs):
        rng.random(out=row)
    reset_ok = tokens < reset.q
    after = _switching_scan(tokens < write.q, reset_ok)
    before = np.hstack((np.zeros((len(rngs), 1), dtype=bool), after[:, :-1]))
    emits = ~(before & reset_ok)
    # Each unit's first n emissions, row by row: row k's start after the
    # emissions of the rows before it.
    count = np.count_nonzero(emits, axis=1)
    emitted = np.flatnonzero(emits)[((np.cumsum(count) - count)[:, None] + np.arange(n)).ravel()]
    bits = after.ravel()[emitted].reshape(len(rngs), n)
    # Reset k sees bit k - 1 (reset 0 sees P).  Of the r resets that see AP,
    # the w that fail leave the write seeing AP and the others take a second
    # token, so a unit's first n cycles take n + r - w tokens.
    r = bits[:, :-1].sum(axis=1, dtype=np.int32, keepdims=True)
    used = emitted[n - 1::n] + 1 - np.arange(0, tokens.size, 2 * n)    # up to the n-th emission
    w = n + r - used[:, None]
    energy = ((n - r) * reset.energy_p + r * reset.energy_ap + (n - w) * write.energy_p
              + w * write.energy_ap + n * read)
    return bits, energy[:, 0]


def _run_self_control(rngs: Sequence[np.random.Generator], n: int, read: np.float64,
                      reset: _Pulse, p2ap: _Pulse, ap2p: _Pulse):
    # The initialization reset finds P and draws nothing; every later cycle
    # writes toward the other state and draws once.  np.zeros, not np.empty:
    # with np.empty, perfbench/run.py read kl-sweep-32 slower in 15 of 24
    # alternating pairs (medians 2-4% higher), though an in-process loop
    # shows no difference; it is glibc's allocator state, not the fill.
    u = np.zeros((len(rngs), n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    # Write k's bit is a[k] = u[k] < q(P->AP) from P and b[k] = u[k] < q(AP->P)
    # from AP, so a row with a == b throughout emits a, and its states are a's
    # running XOR.  Rows with a draw between their two q's take the scan.
    bits, b = u < p2ap.q, u < ap2p.q
    after = np.logical_xor.accumulate(bits, axis=1)
    mixed = np.flatnonzero((bits != b).any(axis=1))
    if mixed.size:
        after[mixed] = _switching_scan(bits[mixed], b[mixed])
        bits[mixed] = np.diff(after[mixed], axis=1, prepend=False)    # before XOR after
    # Write k sees the state after write k - 1 (write 0 sees P), AP->P from AP.
    ap = after[:, :-1].sum(axis=1, dtype=np.int32, keepdims=True)
    energy = reset.energy_p + (n + 1) * read + ap * ap2p.energy_ap + (n - ap) * p2ap.energy_p
    return bits, energy[:, 0]


@dataclass(frozen=True)
class SbgArraySpec:
    """Pre-built array layout: probability levels and their multiplicities."""

    levels: tuple[float, ...]
    multiplicity: tuple[int, ...]
    mode: SbgMode = SbgMode.SELF_CONTROL

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.multiplicity):
            raise ValueError("levels and multiplicity must have equal length")
        if not all(0.0 < p <= 1.0 for p in self.levels):
            raise ValueError("levels must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(m < 1 for m in self.multiplicity):
            raise ValueError("multiplicities must be at least 1")

    @property
    def total_units(self) -> int:
        return sum(self.multiplicity)

    def row_levels(self) -> list[float]:
        """Level of each array row, level-major order."""
        return [p for p, m in zip(self.levels, self.multiplicity) for _ in range(m)]


def build_array(spec: SbgArraySpec, master_seed: int, device: SbgDevice = SbgDevice(), *,
                pv_sigmas: tuple[float, float] | None = None,
                calibration: CalibrationCache | None = None) -> SbgArray:
    """Instantiate the array, row k as unit k: units within a level share the
    target probability but never a random stream."""
    return make_units(device, spec.mode, spec.row_levels(), master_seed,
                      pv_sigmas=pv_sigmas, calibration=calibration)
