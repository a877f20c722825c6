"""Stochastic bitstream generators built on the MTJ switching model.

Two state machines are modeled.  The simple generator runs
reset -> write -> read per bit (2n writes, n reads for n bits).  The
self-control generator re-uses every write as a bit attempt: after one
initialization cycle it writes toward the opposite of the latched state,
reads, and emits XOR(current, last), costing n+1 writes and n+1 reads.

Energy bookkeeping: each pulse contributes V^2 * t / R(state before the
pulse) in nJ; each read costs a fixed configurable amount.

The generators of a run are one SbgArray, a struct of per-unit columns.
generate_array runs the whole array at once, with no loop over cycles: it
pre-draws each unit's normals, scans the switching outcomes for the states,
and gives the bits, counters and energy that stepping each unit one pulse at
a time through the device model would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .device import (
    MtjParams,
    PulseSpec,
    TargetUnreachable,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    draw_process_variation,
)
from .seeding import DOMAIN_DEVICE, DOMAIN_PROCESS_VARIATION, rngs_for

# Reset pulse: strong enough that AP->P switching is essentially certain.
RESET_PULSE = PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)

# Fallback bias for targets below the calibratable range: deep sub-critical,
# so the attempt probability collapses to the model floor (~3e-7).
_SUBCRITICAL_FRACTION = 0.5

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
_ROW_FIELDS = ("level", "targets", "scale", "state", "energy_nj", "writes", "reads", "rngs")


@dataclass(eq=False)
class SbgArray:
    """A generator array held as columns; row k is unit k.

    The device and the mode are the whole array's.  pulses holds one
    (P->AP, AP->P) write-pulse pair per distinct target, AP->P being None in
    simple mode, and level[k] is unit k's index into it.  The other columns
    are per unit: its target, scale (the process-variation factor on its
    resistances and switching times, exactly 1.0 when nominal), state (True
    for AP), energy_nj, writes, reads and its own random stream.
    array[a:b] holds rows a to b - 1 in views of this array's columns, so
    generating from it updates this array.
    """

    device: SbgDevice
    mode: SbgMode
    pulses: tuple[tuple[PulseSpec, PulseSpec | None], ...]
    level: np.ndarray        # intp
    targets: np.ndarray      # float64
    scale: np.ndarray        # float64
    state: np.ndarray        # bool
    energy_nj: np.ndarray    # float64
    writes: np.ndarray       # int64
    reads: np.ndarray        # int64
    rngs: list[np.random.Generator]

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, rows: slice) -> SbgArray:
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})


class CalibrationCache:
    """The write pulses make_units has built, per (device, mode) and target,
    so a cache that serves many builds calibrates each target once."""

    def __init__(self) -> None:
        self.pulses: dict[tuple[SbgDevice, SbgMode],
                          dict[float, tuple[PulseSpec, PulseSpec | None]]] = {}


def _write_pulse(device: SbgDevice, target_p: float, direction: WriteDirection) -> PulseSpec:
    duration = device.write_duration_ns
    try:
        v = calibrate_voltage(device.params, target_p, duration, direction)
    except TargetUnreachable:
        if target_p > 0.5:
            raise
        vc0, _ = device.params.direction_constants(direction)
        v = vc0 * _SUBCRITICAL_FRACTION
    return PulseSpec(v, duration, direction)


def make_units(device: SbgDevice, mode: SbgMode, targets: Sequence[float],
               master_seed: int, first_id: int, *,
               pv_sigmas: tuple[float, float] | None = None,
               calibration: CalibrationCache | None = None) -> SbgArray:
    """Build and calibrate one generator per target; unit k gets id first_id + k.

    Write voltages are calibrated against the nominal device, once per
    distinct target and cache (in `calibration`, or a fresh cache), and units
    at one target share the pulses.  Process variation (pv_sigmas =
    (sigma_area, sigma_tox)) perturbs only each unit's scale, as it would on
    silicon.  The device streams, and the process-variation streams, are each
    seeded in one rngs_for call, equal to rng_for per unit.  Every unit
    starts in P with no energy and no writes or reads.
    """
    calibration = calibration or CalibrationCache()
    pulses = calibration.pulses.setdefault((device, mode), {})
    levels: dict[float, int] = {}
    for p in targets:
        if p in levels:
            continue
        if p not in pulses:
            if not 0.0 <= p <= 1.0:
                raise ValueError("target_p must lie in [0, 1]")
            p2ap = _write_pulse(device, p, WriteDirection.P_TO_AP)
            ap2p = None
            if mode is SbgMode.SELF_CONTROL:
                ap2p = _write_pulse(device, p, WriteDirection.AP_TO_P)
            pulses[p] = (p2ap, ap2p)
        levels[p] = len(levels)
    count = len(targets)
    ids = range(first_id, first_id + count)
    scale = np.ones(count)
    if pv_sigmas is not None and any(pv_sigmas):
        scale = np.array([draw_process_variation(rng, *pv_sigmas).resistance_scale(device.params)
                          for rng in rngs_for(master_seed, DOMAIN_PROCESS_VARIATION, ids)])
    return SbgArray(device, mode, tuple(pulses[p] for p in levels),
                    level=np.array([levels[p] for p in targets], dtype=np.intp),
                    targets=np.array(targets, dtype=np.float64), scale=scale,
                    state=np.zeros(count, dtype=bool), energy_nj=np.zeros(count),
                    writes=np.zeros(count, dtype=np.int64),
                    reads=np.zeros(count, dtype=np.int64),
                    rngs=rngs_for(master_seed, DOMAIN_DEVICE, ids))


class _Pulse(NamedTuple):
    """One pulse per unit, as (units, 1) columns, or (1, 1) where every unit
    sees the same value.

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
    and its energy over one ohm."""
    return np.array([(base_switching_time(params, pulse), pulse.duration,
                      pulse_energy_nj(pulse, 1.0)) for pulse in pulses]).T


def _pulse(constants: np.ndarray, params: MtjParams, scale: np.ndarray) -> _Pulse:
    """The pulse from its (3, units or 1, 1) constants.  Process variation
    scales the switching time and both resistances by the (units, 1) scale,
    so the energies are pulse_energy_nj's quotient at the scaled resistance."""
    dt, duration, heat = constants
    return _Pulse(dt * scale, duration, heat / (params.r_p * scale), heat / (params.r_ap * scale))


def generate_array(array: SbgArray, n: int) -> np.ndarray:
    """n bits from every unit, all units stepped together; uint8 (units, n).

    Simple units run reset -> write -> read per bit (2n writes, n reads);
    self-control units run one initialization cycle (reset, read) and then n
    write/read cycles toward the opposite of the latched state, emitting
    XOR(current, last) (n+1 writes and reads).

    The result is the per-bit model's, bit for bit: each unit draws its own
    normals in the order the per-bit model would, a pulse draws only when it
    writes toward the other state, and energy is added per unit in cycle
    order (reset, write, read; or pulse, read).  The array's state,
    energy_nj, writes and reads columns and each unit's random stream end,
    updated in place, where n single-bit steps would leave them.  Nothing
    loops over cycles: the states come from one scan over the pre-drawn
    switching outcomes (_switching_scan).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    device = array.device
    simple = array.mode is SbgMode.SIMPLE
    # Each pulse's constants, per level; every unit shares the reset's.
    reset = _constants(device.params, [device.reset_pulse])[:, :, None]
    writes = [_constants(device.params, [pair[k] for pair in array.pulses])
              for k in range(1 if simple else 2)]
    bits = np.empty((len(array), n), dtype=np.uint8)
    step = max(1, _BLOCK_BITS // n)
    for first in range(0, len(array), step):
        bits[first:first + step] = _generate_block(array[first:first + step], n, reset, writes)
    return bits


def _generate_block(block: SbgArray, n: int, reset: np.ndarray,
                    writes: list[np.ndarray]) -> np.ndarray:
    """generate_array for one block of rows; bool (units, n)."""
    params = block.device.params
    scale = block.scale[:, None]
    pulses = [_pulse(reset, params, scale)]
    pulses += [_pulse(c[:, block.level, None], params, scale) for c in writes]
    if block.mode is SbgMode.SIMPLE:
        bits, final, energy = _run_simple(block, n, *pulses)
        block.writes += 2 * n
        block.reads += n
    else:
        bits, final, energy = _run_self_control(block, n, *pulses)
        block.writes += n + 1
        block.reads += n + 1
    # Column 0 holds each unit's energy so far and the columns after it the
    # increments in cycle order; accumulate adds them one at a time, as the
    # per-bit model does (np.sum would add pairwise and round differently).
    np.add.accumulate(energy, axis=1, out=energy)
    block.energy_nj[:] = energy[:, -1]
    block.state[:] = final
    return bits


def _spread(z: np.ndarray, params: MtjParams) -> np.ndarray:
    """1 + sigma_rel * z for draws z, computed in place in z."""
    z *= params.sigma_rel
    z += 1.0
    return z


def _switching_scan(start: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States after each step of the two-state automaton whose next state is
    a from P and not b from AP; rows are units, columns steps, True is AP,
    and start is the (units, 1) column of initial states.

    A step with a != b sets the state to a, a = b = 1 negates it and
    a = b = 0 keeps it.  So the state after step k is the value of the last
    setting step j <= k (or start, if there is none), XOR the parity of the
    negating steps in (j, k], which is parity[k] ^ parity[j] for the running
    parity of negating steps.  Setting step j gets the key
    2(j + 1) + (a[j] ^ parity[j]), above start's key (0 or 1) and above every
    earlier step's, so the running maximum of the keys names j and its low
    bit, XOR parity[k], is the state.
    """
    parity = np.logical_xor.accumulate(a & b, axis=1)
    steps = a.shape[1]
    order = np.arange(2, 2 * steps + 2, 2, dtype=np.min_scalar_type(2 * steps + 1))
    key = np.where(a != b, order + (a ^ parity), start)
    return (np.maximum.accumulate(key, axis=1) & 1).astype(bool) ^ parity


def _run_simple(block: SbgArray, n: int, reset: _Pulse, write: _Pulse):
    # The normals a unit draws are tokens for a two-state automaton: "AP,
    # before reset" (the reset draws) and "P, before write" (the write
    # draws).  The next state is write_ok from P and not reset_ok from AP.
    # Every token but a successful reset ends a cycle and emits the state
    # after it, so 2n tokens always hold n bits, and a unit's bits are its
    # first n emissions.
    state = block.state[:, None]
    tokens = np.empty((len(block), 2 * n))
    saved = []
    for row, rng in zip(tokens, block.rngs):
        # Every cycle draws at least once, so the first n tokens are used.
        rng.standard_normal(out=row[:n])
        saved.append(rng.bit_generator.state)
        rng.standard_normal(out=row[n:])
    spread = _spread(tokens, block.device.params)
    reset_ok = reset.switches(spread)
    after = _switching_scan(state, write.switches(spread), reset_ok)
    before = np.hstack((state, after[:, :-1]))
    emits = ~(before & reset_ok)
    count = np.cumsum(emits, axis=1, dtype=np.min_scalar_type(2 * n))
    emitted = np.flatnonzero(emits & (count <= n))   # n per unit, row by row
    bits = after.ravel()[emitted].reshape(len(block), n)
    # The write sees AP only after a failed reset, the token that emits.
    write_sees_ap = before.ravel()[emitted].reshape(len(block), n)
    used = emitted[n - 1::n] - np.arange(0, tokens.size, 2 * n) + 1
    energy = np.empty((len(block), 3 * n + 1))
    energy[:, :1] = block.energy_nj[:, None]
    energy[:, 1::3] = reset.energy(np.hstack((state, bits[:, :-1])))
    energy[:, 2::3] = write.energy(write_sees_ap)
    energy[:, 3::3] = block.device.read_energy_nj
    # Leave each stream where the per-bit model leaves it: rewind to the
    # second half, then redraw exactly the normals the unit used there.
    for rng, rewind, drawn in zip(block.rngs, saved, used.tolist()):
        rng.bit_generator.state = rewind
        rng.standard_normal(drawn - n)
    return bits, bits[:, -1], energy


def _run_self_control(block: SbgArray, n: int, reset: _Pulse, p2ap: _Pulse, ap2p: _Pulse):
    # The initialization reset draws only for a unit not yet in P; every
    # later cycle writes toward the other state and draws once.
    state = block.state[:, None]
    z = np.zeros((len(block), n + 1))    # column 0: the initialization draw
    for row, rng, draws in zip(z, block.rngs, block.state.tolist()):
        rng.standard_normal(out=row[0 if draws else 1:])
    spread = _spread(z, block.device.params)
    latched = state & ~reset.switches(spread[:, :1])
    after = _switching_scan(latched, p2ap.switches(spread[:, 1:]),
                            ap2p.switches(spread[:, 1:]))
    before = np.hstack((latched, after[:, :-1]))
    energy = np.empty((len(block), 2 * n + 3))
    energy[:, :1] = block.energy_nj[:, None]
    energy[:, 1:2] = reset.energy(state)
    energy[:, 2::2] = block.device.read_energy_nj
    energy[:, 3::2] = np.where(before, ap2p.energy_ap, p2ap.energy_p)
    return before ^ after, after[:, -1], energy


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
    """Instantiate the array, row k as unit id k: units within a level share
    the target probability but never a random stream."""
    return make_units(device, spec.mode, spec.row_levels(), master_seed, 0,
                      pv_sigmas=pv_sigmas, calibration=calibration)
