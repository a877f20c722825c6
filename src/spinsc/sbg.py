"""Stochastic bitstream generators built on the MTJ switching model.

Two state machines are modeled.  The simple generator runs
reset -> write -> read per bit (2n writes, n reads for n bits).  The
self-control generator re-uses every write as a bit attempt: after one
initialization cycle it writes toward the opposite of the latched state,
reads, and emits XOR(current, last), costing n+1 writes and n+1 reads.

Energy bookkeeping: each pulse contributes V^2 * t / R(state before the
pulse) in nJ; each read costs a fixed configurable amount.

The generators of a run are one SbgArray, a struct of per-unit columns,
built with every junction in P and its write voltages from
device.calibrate_voltage.  generate_array runs a fresh array once, with no
loop over cycles: it pre-draws each unit's normals, scans the switching
outcomes for the states, and gives the bits, counters and energy that
stepping each unit one pulse at a time from P would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
)
from .seeding import DOMAIN_DEVICE, DOMAIN_PROCESS_VARIATION, rngs_for

# Reset pulse: strong enough that AP->P switching is essentially certain.
RESET_PULSE = PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)

# generate_array runs units in blocks of about this many bits: its
# temporaries take a few tens of bytes per bit, and a unit's run never
# depends on its block.
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


# The per-unit columns of an SbgArray, the ones a row slice slices.
_ROW_FIELDS = ("level", "targets", "scale", "energy_nj", "writes", "reads", "rngs")


@dataclass(eq=False)
class SbgArray:
    """A generator array held as columns; row k is unit k.

    The device and the mode are the whole array's.  constants[..., l] holds
    level l's reset and write pulses' constants, the array's one record of
    its calibration, and level[k] is unit k's level.  The other columns are
    per unit: its target, scale (the process-variation factor on its
    resistances and switching times, exactly 1.0 when nominal), energy_nj,
    writes, reads and its own random stream.  Every junction starts in P and
    the array generates once.  array[a:b] holds rows a to b - 1 in views of
    this array's columns, so generating from it updates this array.
    """

    device: SbgDevice
    mode: SbgMode
    constants: np.ndarray    # float64 (3, pulses per cycle, levels), see _constants
    level: np.ndarray        # intp
    targets: np.ndarray      # float64
    scale: np.ndarray        # float64
    energy_nj: np.ndarray    # float64
    writes: np.ndarray       # int64
    reads: np.ndarray        # int64
    rngs: list[np.random.Generator]

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, rows: slice) -> SbgArray:
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})


class CalibrationCache:
    """The (3, pulses per cycle) _constants of the reset and the calibrated
    write pulses make_units has built, per (device, mode) and target, so a
    cache that serves many builds calibrates each target once."""

    def __init__(self) -> None:
        self.pulses: dict[tuple[SbgDevice, SbgMode], dict[float, np.ndarray]] = {}


def _write_pulse(device: SbgDevice, target_p: float, direction: WriteDirection) -> PulseSpec:
    v = calibrate_voltage(device.params, target_p, device.write_duration_ns, direction)
    return PulseSpec(v, device.write_duration_ns, direction)


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
    it would on silicon.  The device streams, and the process-variation
    streams, are each seeded in one rngs_for call, equal to rng_for per unit.
    Every unit starts in P with no energy and no writes or reads.
    """
    calibration = calibration or CalibrationCache()
    cached = calibration.pulses.setdefault((device, mode), {})
    levels: dict[float, int] = {}
    for p in targets:
        if p in levels:
            continue
        if p not in cached:
            cycle = [device.reset_pulse, _write_pulse(device, p, WriteDirection.P_TO_AP)]
            if mode is SbgMode.SELF_CONTROL:
                cycle.append(_write_pulse(device, p, WriteDirection.AP_TO_P))
            cached[p] = _constants(device.params, cycle)
        levels[p] = len(levels)
    count = len(targets)
    ids = range(count)
    scale = np.ones(count)
    if pv_sigmas is not None and any(pv_sigmas):
        scale = np.array([draw_process_variation(rng, device.params, *pv_sigmas)
                          for rng in rngs_for(master_seed, DOMAIN_PROCESS_VARIATION, ids)])
    per_cycle = 2 if mode is SbgMode.SIMPLE else 3
    return SbgArray(device, mode,
                    np.reshape([cached[p] for p in levels], (-1, 3, per_cycle)).transpose(1, 2, 0),
                    level=np.array([levels[p] for p in targets], dtype=np.intp),
                    targets=np.array(targets, dtype=np.float64), scale=scale,
                    energy_nj=np.zeros(count), writes=np.zeros(count, dtype=np.int64),
                    reads=np.zeros(count, dtype=np.int64),
                    rngs=rngs_for(master_seed, domain, ids))


class _Pulse(NamedTuple):
    """One pulse per unit, as (units, 1) columns gathered by level, the
    shared reset included.

    The constants come from the scalar device functions, so every switching
    test and energy term below is the float64 value the per-bit model gives.
    """

    dt: np.ndarray
    duration: np.ndarray
    energy_p: np.ndarray        # energy of the pulse seen from P
    energy_ap: np.ndarray       # and from AP

    def switches(self, spread: np.ndarray) -> np.ndarray:
        """Whether a draw z switches: dt * (1 + sigma_rel * z) <= duration,
        given spread = 1 + sigma_rel * z.

        A negative switching time is clamped to zero in the device model;
        durations are non-negative, so the clamp never changes the outcome.
        """
        return self.dt * spread <= self.duration

    def energy(self, state: np.ndarray) -> np.ndarray:
        # Energy uses the resistance of the state the pulse sees.
        return np.where(state, self.energy_ap, self.energy_p)


def _constants(params: MtjParams, pulses: Sequence[PulseSpec]) -> np.ndarray:
    """(3, len(pulses)): each pulse's nominal switching time, its duration
    and its energy over one ohm, which must be finite."""
    rows = []
    for pulse in pulses:
        try:
            heat = pulse_energy_nj(pulse, 1.0)
        except OverflowError:    # V^2 beyond the float range
            heat = np.inf
        if heat == np.inf:
            raise ValueError(f"infinite energy: {pulse.voltage:g} V for {pulse.duration:g} ns")
        rows.append((base_switching_time(params, pulse), pulse.duration, heat))
    return np.array(rows).T


def _pulses(constants: np.ndarray, params: MtjParams, scale: np.ndarray) -> list[_Pulse]:
    """The pulses from their (3, pulses, units, 1) constants.  Process
    variation scales the switching time and both resistances by the (units, 1)
    scale, so the energies are pulse_energy_nj's quotient at the scaled
    resistance."""
    dt, duration, heat = constants
    return list(map(_Pulse, dt * scale, duration, heat / (params.r_p * scale),
                    heat / (params.r_ap * scale)))


def generate_array(array: SbgArray, n: int) -> np.ndarray:
    """n bits from every unit of a fresh array, stepped together from P;
    uint8 (units, n).

    Simple units run reset -> write -> read per bit (2n writes, n reads);
    self-control units run one initialization cycle (reset, read) and then n
    write/read cycles toward the opposite of the latched state, emitting
    XOR(current, last) (n+1 writes and reads).

    The result is the per-bit model's from P, bit for bit: each unit draws
    its own normals in the order the per-bit model would, a pulse draws only
    when it writes toward the other state, and energy is added per unit in
    cycle order (reset, write, read; or pulse, read), into the array's
    energy_nj, writes and reads columns.  An array generates once: its
    junction states and stream positions after the run are not kept, and a
    second call raises ValueError.  Nothing loops over cycles: the states
    come from one scan over the pre-drawn switching outcomes (_switching_scan).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if array.writes.any():
        raise ValueError("an array generates once; build a fresh one")
    bits = np.empty((len(array), n), dtype=np.uint8)
    step = max(1, _BLOCK_BITS // n)
    # An extreme junction (a tiny RA product, a huge read energy) would
    # otherwise end in warnings and infinite energies.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for first in range(0, len(array), step):
            bits[first:first + step] = _generate_block(array[first:first + step], n)
    return bits


def _generate_block(block: SbgArray, n: int) -> np.ndarray:
    """generate_array for one block of rows; bool (units, n)."""
    pulses = _pulses(block.constants[:, :, block.level, None], block.device.params,
                     block.scale[:, None])
    if block.mode is SbgMode.SIMPLE:
        bits, energy = _run_simple(block, n, *pulses)
        block.writes[:], block.reads[:] = 2 * n, n
    else:
        bits, energy = _run_self_control(block, n, *pulses)
        block.writes[:] = block.reads[:] = n + 1
    # energy is the (units, cycles) view of a (cycles, units) array of the
    # increments in cycle order.  add.reduce down it adds one row at a time,
    # as the per-bit model does; one unit's column is contiguous, and numpy
    # would add it pairwise and round differently, so a lone unit accumulates
    # (accumulating every block would cost about 5 times the reduce).
    cycles = energy.T
    block.energy_nj[:] = (np.add.reduce(cycles, axis=0) if len(block) > 1
                          else np.add.accumulate(cycles[:, 0])[-1])
    return bits


def _spread(z: np.ndarray, params: MtjParams) -> np.ndarray:
    """1 + sigma_rel * z for draws z, computed in place in z."""
    z *= params.sigma_rel
    z += 1.0
    return z


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


def _before(after: np.ndarray) -> np.ndarray:
    """The state before each step, from P, given the state after it."""
    return np.hstack((np.zeros((len(after), 1), dtype=bool), after[:, :-1]))


def _run_simple(block: SbgArray, n: int, reset: _Pulse, write: _Pulse):
    # The normals a unit draws are tokens for a two-state automaton: "AP,
    # before reset" (the reset draws) and "P, before write" (the write
    # draws).  The next state is write_ok from P and not reset_ok from AP.
    # Every token but a successful reset ends a cycle and emits the state
    # after it, so 2n tokens always hold n bits, and a unit's bits are its
    # first n emissions.
    tokens = np.empty((len(block), 2 * n))
    for row, rng in zip(tokens, block.rngs):
        rng.standard_normal(out=row)
    spread = _spread(tokens, block.device.params)
    reset_ok = reset.switches(spread)
    after = _switching_scan(write.switches(spread), reset_ok)
    before = _before(after)
    emits = ~(before & reset_ok)
    # Each unit's first n emissions, row by row: row k's start after the
    # emissions of the rows before it.
    count = np.count_nonzero(emits, axis=1)
    emitted = np.flatnonzero(emits)[((np.cumsum(count) - count)[:, None] + np.arange(n)).ravel()]
    bits = after.ravel()[emitted].reshape(len(block), n)
    # The write sees AP only after a failed reset, the token that emits.
    write_sees_ap = before.ravel()[emitted].reshape(len(block), n)
    energy = np.empty((3 * n, len(block))).T
    energy[:, 0::3] = reset.energy(_before(bits))
    energy[:, 1::3] = write.energy(write_sees_ap)
    energy[:, 2::3] = block.device.read_energy_nj
    return bits, energy


def _run_self_control(block: SbgArray, n: int, reset: _Pulse, p2ap: _Pulse, ap2p: _Pulse):
    # The initialization reset finds P and draws nothing; every later cycle
    # writes toward the other state and draws once.  np.zeros, not np.empty:
    # with np.empty, perfbench/run.py read kl-sweep-32 slower in 14 of 18
    # alternating pairs, though an in-process loop shows no difference; it is
    # glibc's allocator state, not the fill.
    z = np.zeros((len(block), n))
    for row, rng in zip(z, block.rngs):
        rng.standard_normal(out=row)
    spread = _spread(z, block.device.params)
    after = _switching_scan(p2ap.switches(spread), ap2p.switches(spread))
    before = _before(after)
    energy = np.empty((2 * n + 2, len(block))).T
    energy[:, :1] = reset.energy_p
    energy[:, 1::2] = block.device.read_energy_nj
    energy[:, 2::2] = np.where(before, ap2p.energy_ap, p2ap.energy_p)
    return before ^ after, energy


@dataclass(frozen=True)
class SbgArraySpec:
    """Pre-built array layout: probability levels and their multiplicities."""

    levels: tuple[float, ...]
    multiplicity: tuple[int, ...]
    mode: SbgMode = SbgMode.SELF_CONTROL

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.multiplicity):
            raise ValueError("levels and multiplicity must have equal length")
        for p in self.levels:
            if not 0.0 < p <= 1.0:
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
        out: list[float] = []
        for p, m in zip(self.levels, self.multiplicity):
            out.extend([p] * m)
        return out


def build_array(spec: SbgArraySpec, master_seed: int, device: SbgDevice = SbgDevice(), *,
                pv_sigmas: tuple[float, float] | None = None,
                calibration: CalibrationCache | None = None) -> SbgArray:
    """Instantiate the array, row k as unit k: units within a level share the
    target probability but never a random stream."""
    return make_units(device, spec.mode, spec.row_levels(), master_seed,
                      pv_sigmas=pv_sigmas, calibration=calibration)
