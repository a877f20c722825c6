"""Stochastic bitstream generators built on the MTJ write/read primitives.

Two state machines are modeled.  The simple generator runs
reset -> write -> read per bit (2n writes, n reads for n bits).  The
self-control generator re-uses every write as a bit attempt: after one
initialization cycle it writes toward the opposite of the latched state,
reads, and emits XOR(current, last), costing n+1 writes and n+1 reads.

Energy bookkeeping: each pulse contributes V^2 * t / R(state before the
pulse) in nJ; each read costs a fixed configurable amount.

generate_array runs a whole array in lock-step, one vectorized step per
cycle over all units, and gives the bits, counters and energy that stepping
each unit one pulse at a time through the device model would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .device import (
    InstanceFactors,
    MtjInstance,
    MtjParams,
    MtjState,
    PulseSpec,
    TargetUnreachable,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    make_instance,
    sample_process_variation,
)
from .stochastic import Bitstream

# Reset pulse: strong enough that AP->P switching is essentially certain.
RESET_PULSE = PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)

DEFAULT_WRITE_DURATION_NS = 5.4
DEFAULT_READ_ENERGY_NJ = 0.002

# Fallback bias for targets below the calibratable range: deep sub-critical,
# so the attempt probability collapses to the model floor (~3e-7).
_SUBCRITICAL_FRACTION = 0.5


class SbgMode(Enum):
    SIMPLE = "simple"
    SELF_CONTROL = "self_control"


def pulse_energy_nj(pulse: PulseSpec, resistance: float) -> float:
    """Joule heating of one pulse: V^2 * t_ns / R comes out directly in nJ."""
    return pulse.voltage ** 2 * pulse.duration / resistance


@dataclass
class SbgUnit:
    """One generator: an MTJ plus its calibrated pulses and counters."""

    mtj: MtjInstance
    mode: SbgMode
    target_p: float
    write_pulse_p2ap: PulseSpec
    write_pulse_ap2p: PulseSpec | None = None
    reset_pulse: PulseSpec = RESET_PULSE
    read_energy_nj: float = DEFAULT_READ_ENERGY_NJ
    last_state: int | None = None
    writes: int = 0
    reads: int = 0
    energy_nj: float = 0.0


class CalibrationCache:
    """Memoizes bisection results; units at one probability level share them."""

    def __init__(self) -> None:
        self._cache: dict[tuple, float] = {}

    def voltage(self, params: MtjParams, target_p: float, duration: float,
                direction: WriteDirection) -> float:
        key = (params, round(target_p, 12), duration, direction)
        if key not in self._cache:
            self._cache[key] = calibrate_voltage(params, target_p, duration, direction)
        return self._cache[key]


def _write_pulse(params: MtjParams, target_p: float, duration: float,
                 direction: WriteDirection, cache: CalibrationCache | None) -> PulseSpec:
    try:
        if cache is not None:
            v = cache.voltage(params, target_p, duration, direction)
        else:
            v = calibrate_voltage(params, target_p, duration, direction)
    except TargetUnreachable:
        if target_p > 0.5:
            raise
        vc0, _ = params.direction_constants(direction)
        v = vc0 * _SUBCRITICAL_FRACTION
    return PulseSpec(v, duration, direction)


def make_unit(params: MtjParams, mode: SbgMode, target_p: float,
              master_seed: int, unit_id: int, *,
              write_duration_ns: float = DEFAULT_WRITE_DURATION_NS,
              read_energy_nj: float = DEFAULT_READ_ENERGY_NJ,
              reset_pulse: PulseSpec = RESET_PULSE,
              pv_sigmas: tuple[float, float] | None = None,
              calibration: CalibrationCache | None = None) -> SbgUnit:
    """Build and calibrate one generator.

    Write voltages are calibrated against the nominal device; process
    variation (pv_sigmas = (sigma_area, sigma_tox)) perturbs only the
    instance, as it would on silicon.
    """
    if not 0.0 <= target_p <= 1.0:
        raise ValueError("target_p must lie in [0, 1]")
    factors: InstanceFactors | None = None
    if pv_sigmas is not None:
        factors = sample_process_variation(params, master_seed, unit_id,
                                           sigma_area=pv_sigmas[0],
                                           sigma_tox=pv_sigmas[1])
    mtj = make_instance(params, master_seed, unit_id, factors)
    p2ap = _write_pulse(params, target_p, write_duration_ns,
                        WriteDirection.P_TO_AP, calibration)
    ap2p = None
    if mode is SbgMode.SELF_CONTROL:
        ap2p = _write_pulse(params, target_p, write_duration_ns,
                            WriteDirection.AP_TO_P, calibration)
    return SbgUnit(mtj=mtj, mode=mode, target_p=target_p,
                   write_pulse_p2ap=p2ap, write_pulse_ap2p=ap2p,
                   reset_pulse=reset_pulse, read_energy_nj=read_energy_nj)


class _Pulse:
    """One pulse per unit, as arrays over the units.

    The constants come from the scalar device functions, so every switching
    test and energy term below is the float64 value the per-bit model gives.
    """

    __slots__ = ("dt", "duration", "target", "energy_p", "energy_ap")

    def __init__(self, units: Sequence[SbgUnit], pulses: Sequence[PulseSpec]) -> None:
        self.dt = np.array([base_switching_time(u.mtj.params, p, u.mtj.factors)
                            for u, p in zip(units, pulses)])
        self.duration = np.array([p.duration for p in pulses])
        self.target = np.array([p.direction.target is MtjState.AP for p in pulses])
        # Energy uses the resistance of the state the pulse sees.
        self.energy_p = np.array([pulse_energy_nj(p, u.mtj.r_p)
                                  for u, p in zip(units, pulses)])
        self.energy_ap = np.array([pulse_energy_nj(p, u.mtj.r_ap)
                                   for u, p in zip(units, pulses)])

    def switches(self, sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Whether a draw z switches: dt * (1 + sigma_rel * z) <= duration.

        A negative switching time is clamped to zero in the device model;
        durations are non-negative, so the clamp never changes the outcome.
        """
        return self.dt * (1.0 + sigma * z) <= self.duration

    def energy(self, state: np.ndarray) -> np.ndarray:
        return np.where(state, self.energy_ap, self.energy_p)


def generate_array(units: Sequence[SbgUnit], n: int) -> np.ndarray:
    """n bits from every unit, all units stepped together; uint8 (units, n).

    All units must share one mode.  Simple units run reset -> write -> read
    per bit (2n writes, n reads); self-control units run one initialization
    cycle (reset, read) and then n write/read cycles toward the opposite of
    the latched state, emitting XOR(current, last) (n+1 writes and reads).

    The result is the per-bit model's, bit for bit: each unit draws its own
    normals in the order the per-bit model would, a pulse draws only when it
    writes toward the other state, and energy is added per unit in cycle
    order (pulse, then read).  Counters, energy, MTJ state, last_state and
    each unit's random stream end where n single-bit steps would leave them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    units = list(units)
    if not units:
        return np.zeros((0, n), dtype=np.uint8)
    modes = {u.mode for u in units}
    if len(modes) != 1:
        raise ValueError("units in one generate_array call must share a mode")
    state = np.array([u.mtj.state is MtjState.AP for u in units])
    energy = np.array([u.energy_nj for u in units], dtype=np.float64)
    sigma = np.array([u.mtj.params.sigma_rel for u in units])
    read_energy = np.array([u.read_energy_nj for u in units], dtype=np.float64)
    reset = _Pulse(units, [u.reset_pulse for u in units])
    bits = np.empty((n, len(units)), dtype=bool)
    if modes == {SbgMode.SIMPLE}:
        _run_simple(units, n, state, energy, sigma, read_energy, reset, bits)
        writes, reads = 2 * n, n
    else:
        _run_self_control(units, n, state, energy, sigma, read_energy, reset, bits)
        writes, reads = n + 1, n + 1
    for i, unit in enumerate(units):
        unit.writes += writes
        unit.reads += reads
        unit.energy_nj = float(energy[i])
        unit.mtj.state = MtjState(int(state[i]))
        if unit.mode is SbgMode.SELF_CONTROL:
            unit.last_state = int(state[i])
    return np.ascontiguousarray(bits.T, dtype=np.uint8)


def _run_simple(units, n, state, energy, sigma, read_energy, reset, bits) -> None:
    # A cycle draws 0, 1 or 2 normals depending on the state, so each unit
    # pre-draws the 2n it could need and consumes them through a cursor; a
    # spare zero row keeps the cursor of a unit that used all 2n in range.
    write = _Pulse(units, [u.write_pulse_p2ap for u in units])
    pool = np.zeros((2 * n + 1, len(units)))
    saved = []
    for i, unit in enumerate(units):
        saved.append(unit.mtj.rng.bit_generator.state)
        pool[:2 * n, i] = unit.mtj.rng.standard_normal(2 * n)
    reset_ok = reset.switches(sigma, pool)
    write_ok = write.switches(sigma, pool)
    cursor = np.zeros(len(units), dtype=np.intp)
    cols = np.arange(len(units))
    for k in range(n):
        for pulse, ok in ((reset, reset_ok), (write, write_ok)):
            energy += pulse.energy(state)
            attempt = state != pulse.target
            state ^= attempt & ok[cursor, cols]
            cursor += attempt
        energy += read_energy
        bits[k] = state
    # Leave each stream where the per-bit model leaves it: rewind, then
    # redraw exactly the normals the unit consumed.
    for i, unit in enumerate(units):
        unit.mtj.rng.bit_generator.state = saved[i]
        unit.mtj.rng.standard_normal(int(cursor[i]))


def _run_self_control(units, n, state, energy, sigma, read_energy, reset, bits) -> None:
    # The initialization reset draws only for a unit not yet at its target;
    # every later cycle writes toward the other state and draws once.
    p2ap = _Pulse(units, [u.write_pulse_p2ap for u in units])
    ap2p = _Pulse(units, [u.write_pulse_ap2p for u in units])
    init_draw = state != reset.target
    z0 = np.zeros(len(units))
    z = np.empty((n, len(units)))
    for i, unit in enumerate(units):
        if init_draw[i]:
            z0[i] = unit.mtj.rng.standard_normal()
        z[:, i] = unit.mtj.rng.standard_normal(n)
    energy += reset.energy(state)
    state ^= init_draw & reset.switches(sigma, z0)
    energy += read_energy
    flip_from_p = p2ap.switches(sigma, z)
    flip_from_ap = ap2p.switches(sigma, z)
    for k in range(n):
        energy += np.where(state, ap2p.energy_ap, p2ap.energy_p)
        energy += read_energy
        flip = np.where(state, flip_from_ap[k], flip_from_p[k])
        state ^= flip
        bits[k] = flip


def _check_mode(unit: SbgUnit, mode: SbgMode) -> None:
    if unit.mode is not mode:
        raise ValueError(f"unit is not configured as a {mode.value} generator")


def generate(unit: SbgUnit, n: int) -> Bitstream:
    return Bitstream(generate_array([unit], n)[0])


def generate_simple(unit: SbgUnit, n: int) -> Bitstream:
    """reset -> write -> read per bit; exactly 2n writes and n reads."""
    _check_mode(unit, SbgMode.SIMPLE)
    return Bitstream(generate_array([unit], n)[0])


def generate_self_control(unit: SbgUnit, n: int) -> Bitstream:
    """Initialization cycle plus n write/read cycles emitting XOR(cur, last)."""
    _check_mode(unit, SbgMode.SELF_CONTROL)
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


def build_array(spec: SbgArraySpec, master_seed: int, *,
                params: MtjParams | None = None,
                write_duration_ns: float = DEFAULT_WRITE_DURATION_NS,
                read_energy_nj: float = DEFAULT_READ_ENERGY_NJ,
                reset_pulse: PulseSpec = RESET_PULSE,
                pv_sigmas: tuple[float, float] | None = None,
                base_unit_id: int = 0,
                calibration: CalibrationCache | None = None) -> list[SbgUnit]:
    """Instantiate the array: units within a level share the target
    probability but never a random stream."""
    params = params or MtjParams()
    calibration = calibration or CalibrationCache()
    units: list[SbgUnit] = []
    unit_id = base_unit_id
    for p, m in zip(spec.levels, spec.multiplicity):
        for _ in range(m):
            units.append(make_unit(params, spec.mode, p, master_seed, unit_id,
                                   write_duration_ns=write_duration_ns,
                                   read_energy_nj=read_energy_nj,
                                   reset_pulse=reset_pulse,
                                   pv_sigmas=pv_sigmas,
                                   calibration=calibration))
            unit_id += 1
    return units
