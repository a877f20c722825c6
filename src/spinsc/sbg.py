"""Stochastic bitstream generators built on the MTJ write/read primitives.

Two state machines are modeled.  The simple generator runs
reset -> write -> read per bit (2n writes, n reads for n bits).  The
self-control generator re-uses every write as a bit attempt: after one
initialization cycle it writes toward the opposite of the latched state,
reads, and emits XOR(current, last), costing n+1 writes and n+1 reads.

Energy bookkeeping: each pulse contributes V^2 * t / R(state before the
pulse) in nJ; each read costs a fixed configurable amount.

generate_array runs a whole array at once, with no loop over cycles: it
pre-draws each unit's normals, scans the switching outcomes for the states,
and gives the bits, counters and energy that stepping each unit one pulse at
a time through the device model would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .device import (
    NOMINAL_FACTORS,
    MtjInstance,
    MtjParams,
    MtjState,
    PulseSpec,
    TargetUnreachable,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    draw_process_variation,
)
from .seeding import DOMAIN_DEVICE, DOMAIN_PROCESS_VARIATION, rngs_for
from .stochastic import Bitstream

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
    energy of one read and the reset pulse."""

    params: MtjParams = MtjParams()
    write_duration_ns: float = 5.4
    read_energy_nj: float = 0.002
    reset_pulse: PulseSpec = RESET_PULSE

    def __post_init__(self) -> None:
        if not self.read_energy_nj >= 0:
            raise ValueError("read energy must be non-negative")


@dataclass
class SbgUnit:
    """One generator: an MTJ plus its calibrated pulses and counters."""

    mtj: MtjInstance
    mode: SbgMode
    target_p: float
    write_pulse_p2ap: PulseSpec
    write_pulse_ap2p: PulseSpec | None    # self-control units only
    reset_pulse: PulseSpec
    read_energy_nj: float
    last_state: int | None = None
    writes: int = 0
    reads: int = 0
    energy_nj: float = 0.0


class CalibrationCache:
    """Memoizes bisection results; units at one probability level share them.

    make_units also keeps here, per (device, mode), the write pulses of each
    target it has built, so a cache that serves many builds calibrates each
    target once.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, float] = {}
        self.pulses: dict[tuple[SbgDevice, SbgMode],
                          dict[float, tuple[PulseSpec, PulseSpec | None]]] = {}

    def voltage(self, params: MtjParams, target_p: float, duration: float,
                direction: WriteDirection) -> float:
        key = (params, round(target_p, 12), duration, direction)
        if key not in self._cache:
            self._cache[key] = calibrate_voltage(params, target_p, duration, direction)
        return self._cache[key]


def _write_pulse(device: SbgDevice, target_p: float, direction: WriteDirection,
                 cache: CalibrationCache) -> PulseSpec:
    duration = device.write_duration_ns
    try:
        v = cache.voltage(device.params, target_p, duration, direction)
    except TargetUnreachable:
        if target_p > 0.5:
            raise
        vc0, _ = device.params.direction_constants(direction)
        v = vc0 * _SUBCRITICAL_FRACTION
    return PulseSpec(v, duration, direction)


def make_units(device: SbgDevice, mode: SbgMode, targets: Sequence[float],
               master_seed: int, first_id: int, *,
               pv_sigmas: tuple[float, float] | None = None,
               calibration: CalibrationCache | None = None) -> list[SbgUnit]:
    """Build and calibrate one generator per target; unit k gets id first_id + k.

    Write voltages are calibrated against the nominal device, once per
    distinct target and cache (in `calibration`, or a fresh cache), and units
    at one target share the pulses.  Process variation (pv_sigmas =
    (sigma_area, sigma_tox)) perturbs only the instance, as it would on
    silicon.  The device streams, and the process-variation streams, are each
    seeded in one rngs_for call, equal to rng_for per unit.
    """
    calibration = calibration or CalibrationCache()
    params = device.params
    pulses = calibration.pulses.setdefault((device, mode), {})
    for p in targets:
        if p in pulses:
            continue
        if not 0.0 <= p <= 1.0:
            raise ValueError("target_p must lie in [0, 1]")
        p2ap = _write_pulse(device, p, WriteDirection.P_TO_AP, calibration)
        ap2p = None
        if mode is SbgMode.SELF_CONTROL:
            ap2p = _write_pulse(device, p, WriteDirection.AP_TO_P, calibration)
        pulses[p] = (p2ap, ap2p)
    ids = range(first_id, first_id + len(targets))
    factors = [NOMINAL_FACTORS] * len(targets)
    if pv_sigmas is not None and any(pv_sigmas):
        factors = [draw_process_variation(rng, *pv_sigmas)
                   for rng in rngs_for(master_seed, DOMAIN_PROCESS_VARIATION, ids)]
    units = []
    for p, rng, unit_factors in zip(targets, rngs_for(master_seed, DOMAIN_DEVICE, ids), factors):
        p2ap, ap2p = pulses[p]
        units.append(SbgUnit(mtj=MtjInstance(params, rng, unit_factors),
                             mode=mode, target_p=p,
                             write_pulse_p2ap=p2ap, write_pulse_ap2p=ap2p,
                             reset_pulse=device.reset_pulse,
                             read_energy_nj=device.read_energy_nj))
    return units


def make_unit(device: SbgDevice, mode: SbgMode, target_p: float,
              master_seed: int, unit_id: int, **options) -> SbgUnit:
    """One generator; make_units with a single target (same keyword options)."""
    return make_units(device, mode, (target_p,), master_seed, unit_id, **options)[0]


class _Pulse(NamedTuple):
    """One pulse per unit, as (units, 1) columns.

    The constants come from the scalar device functions, so every switching
    test and energy term below is the float64 value the per-bit model gives.
    """

    dt: np.ndarray
    duration: np.ndarray
    target: np.ndarray          # True where the pulse writes toward AP
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


class _Units:
    """The units' state and constants as (units, 1) columns."""

    def __init__(self, units: list[SbgUnit]) -> None:
        mtjs = [u.mtj for u in units]
        self.params = [m.params for m in mtjs]
        self.state = np.array([m.state is MtjState.AP for m in mtjs])[:, None]
        self.sigma = _column([p.sigma_rel for p in self.params])
        # Process variation scales the switching time by the resistance ratio.
        self.scale = _column([m.factors.resistance_scale(m.params) for m in mtjs])
        self.r_p = _column([m.r_p for m in mtjs])
        self.r_ap = _column([m.r_ap for m in mtjs])
        self.read_energy = _column([u.read_energy_nj for u in units])
        self.energy = _column([u.energy_nj for u in units])

    def spread(self, z: np.ndarray) -> np.ndarray:
        """1 + sigma_rel * z for draws z, computed in place in z."""
        z *= self.sigma
        z += 1.0
        return z

    def pulse(self, pulses: Sequence[PulseSpec]) -> _Pulse:
        # Units at one level share their pulse and parameter objects, so the
        # scalar device functions run once per distinct pair; the nominal
        # switching time times the unit's scale is base_switching_time's
        # product, and the 1-ohm energy over R is pulse_energy_nj's quotient.
        nominal: dict[tuple[int, int], tuple] = {}
        rows = []
        for params, pulse in zip(self.params, pulses):
            key = (id(params), id(pulse))
            if key not in nominal:
                nominal[key] = (base_switching_time(params, pulse), pulse.duration,
                                pulse.direction.target is MtjState.AP,
                                pulse_energy_nj(pulse, 1.0))
            rows.append(nominal[key])
        dt, duration, target, heat = (np.array(col)[:, None] for col in zip(*rows))
        return _Pulse(dt * self.scale, duration, target, heat / self.r_p, heat / self.r_ap)


def _column(values: list[float]) -> np.ndarray:
    return np.array(values, dtype=np.float64)[:, None]


def generate_array(units: Sequence[SbgUnit], n: int) -> np.ndarray:
    """n bits from every unit, all units stepped together; uint8 (units, n).

    All units must share one mode.  Simple units run reset -> write -> read
    per bit (2n writes, n reads); self-control units run one initialization
    cycle (reset, read) and then n write/read cycles toward the opposite of
    the latched state, emitting XOR(current, last) (n+1 writes and reads).
    A simple unit's reset pulse must write toward P.

    The result is the per-bit model's, bit for bit: each unit draws its own
    normals in the order the per-bit model would, a pulse draws only when it
    writes toward the other state, and energy is added per unit in cycle
    order (reset, write, read; or pulse, read).  Counters, energy, MTJ state,
    last_state and each unit's random stream end where n single-bit steps
    would leave them.  Nothing loops over cycles: the states come from one
    scan over the pre-drawn switching outcomes (_switching_scan).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    units = list(units)
    if not units:
        return np.zeros((0, n), dtype=np.uint8)
    modes = {u.mode for u in units}
    if len(modes) != 1:
        raise ValueError("units in one generate_array call must share a mode")
    if modes == {SbgMode.SIMPLE} and any(u.reset_pulse.direction is not WriteDirection.AP_TO_P
                                         for u in units):
        raise ValueError("simple generators need a reset pulse toward P")
    bits = np.empty((len(units), n), dtype=np.uint8)
    step = max(1, _BLOCK_BITS // n)
    for first in range(0, len(units), step):
        bits[first:first + step] = _generate_block(units[first:first + step], n)
    return bits


def _generate_block(units: list[SbgUnit], n: int) -> np.ndarray:
    """generate_array for one block of units; bool (units, n)."""
    arrays = _Units(units)
    if units[0].mode is SbgMode.SIMPLE:
        bits, final, energy = _run_simple(units, n, arrays)
        writes, reads = 2 * n, n
    else:
        bits, final, energy = _run_self_control(units, n, arrays)
        writes, reads = n + 1, n + 1
    # Column 0 holds each unit's energy so far and the columns after it the
    # increments in cycle order; accumulate adds them one at a time, as the
    # per-bit model does (np.sum would add pairwise and round differently).
    np.add.accumulate(energy, axis=1, out=energy)
    for unit, total, state in zip(units, energy[:, -1].tolist(), final.tolist()):
        unit.writes += writes
        unit.reads += reads
        unit.energy_nj = total
        unit.mtj.state = MtjState(int(state))
        if unit.mode is SbgMode.SELF_CONTROL:
            unit.last_state = int(state)
    return bits


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


def _run_simple(units: list[SbgUnit], n: int, arrays: _Units):
    # The normals a unit draws are tokens for a two-state automaton: "AP,
    # before reset" (the reset draws) and "P, before write" (the write
    # draws).  The next state is write_ok from P and not reset_ok from AP.
    # Every token but a successful reset ends a cycle and emits the state
    # after it, so 2n tokens always hold n bits, and a unit's bits are its
    # first n emissions.
    reset = arrays.pulse([u.reset_pulse for u in units])
    write = arrays.pulse([u.write_pulse_p2ap for u in units])
    tokens = np.empty((len(units), 2 * n))
    saved = []
    for row, unit in zip(tokens, units):
        # Every cycle draws at least once, so the first n tokens are used.
        unit.mtj.rng.standard_normal(out=row[:n])
        saved.append(unit.mtj.rng.bit_generator.state)
        unit.mtj.rng.standard_normal(out=row[n:])
    spread = arrays.spread(tokens)
    reset_ok = reset.switches(spread)
    after = _switching_scan(arrays.state, write.switches(spread), reset_ok)
    before = np.hstack((arrays.state, after[:, :-1]))
    emits = ~(before & reset_ok)
    count = np.cumsum(emits, axis=1, dtype=np.min_scalar_type(2 * n))
    emitted = np.flatnonzero(emits & (count <= n))   # n per unit, row by row
    bits = after.ravel()[emitted].reshape(len(units), n)
    # The write sees AP only after a failed reset, the token that emits.
    write_sees_ap = before.ravel()[emitted].reshape(len(units), n)
    used = emitted[n - 1::n] - np.arange(0, tokens.size, 2 * n) + 1
    energy = np.empty((len(units), 3 * n + 1))
    energy[:, :1] = arrays.energy
    energy[:, 1::3] = reset.energy(np.hstack((arrays.state, bits[:, :-1])))
    energy[:, 2::3] = write.energy(write_sees_ap)
    energy[:, 3::3] = arrays.read_energy
    # Leave each stream where the per-bit model leaves it: rewind to the
    # second half, then redraw exactly the normals the unit used there.
    for unit, state, drawn in zip(units, saved, used.tolist()):
        unit.mtj.rng.bit_generator.state = state
        unit.mtj.rng.standard_normal(drawn - n)
    return bits, bits[:, -1], energy


def _run_self_control(units: list[SbgUnit], n: int, arrays: _Units):
    # The initialization reset draws only for a unit not yet at its target;
    # every later cycle writes toward the other state and draws once.
    reset = arrays.pulse([u.reset_pulse for u in units])
    p2ap = arrays.pulse([u.write_pulse_p2ap for u in units])
    ap2p = arrays.pulse([u.write_pulse_ap2p for u in units])
    init_draw = arrays.state != reset.target
    z = np.zeros((len(units), n + 1))    # column 0: the initialization draw
    for row, unit, draws in zip(z, units, init_draw[:, 0].tolist()):
        unit.mtj.rng.standard_normal(out=row[0 if draws else 1:])
    spread = arrays.spread(z)
    latched = arrays.state ^ (init_draw & reset.switches(spread[:, :1]))
    after = _switching_scan(latched, p2ap.switches(spread[:, 1:]),
                            ap2p.switches(spread[:, 1:]))
    before = np.hstack((latched, after[:, :-1]))
    energy = np.empty((len(units), 2 * n + 3))
    energy[:, :1] = arrays.energy
    energy[:, 1:2] = reset.energy(arrays.state)
    energy[:, 2::2] = arrays.read_energy
    energy[:, 3::2] = np.where(before, ap2p.energy_ap, p2ap.energy_p)
    return before ^ after, after[:, -1], energy


def generate(unit: SbgUnit, n: int) -> Bitstream:
    """n bits from one unit: generate_array with a single row."""
    return Bitstream(generate_array([unit], n)[0])


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

    def rows_by_level(self) -> dict[float, list[int]]:
        rows: dict[float, list[int]] = {}
        idx = 0
        for p, m in zip(self.levels, self.multiplicity):
            rows[p] = list(range(idx, idx + m))
            idx += m
        return rows


def build_array(spec: SbgArraySpec, master_seed: int, device: SbgDevice = SbgDevice(), *,
                pv_sigmas: tuple[float, float] | None = None,
                calibration: CalibrationCache | None = None) -> list[SbgUnit]:
    """Instantiate the array, row k as unit id k: units within a level share
    the target probability but never a random stream."""
    return make_units(device, spec.mode, spec.row_levels(), master_seed, 0,
                      pv_sigmas=pv_sigmas, calibration=calibration)
