"""Behavioral model of the perpendicular MTJ used as a stochastic bit cell.

The junction is a two-state resistive element (P low / AP high).  A write
pulse switches it with a probability set by the bias voltage and pulse
duration: the characteristic switching time dt(V) follows a precessional law
above the critical voltage and a thermally activated law below it, and the
realized switching time of each pulse is drawn from N(dt, sigma_rel * dt).
Reads are ideal and non-destructive.  This module holds the switching law,
calibrate_voltage, which picks every write voltage, and the
process-variation draw of a device's resistance scale; the junctions' states
and random streams are columns of sbg.SbgArray.

Voltages are volts, durations nanoseconds, resistances ohms; energies (in the
generator layer) come out in nanojoules via V^2 * t_ns / R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class TargetUnreachable(ValueError):
    """No write voltage switches with the requested probability."""


class WriteDirection(Enum):
    P_TO_AP = "p2ap"
    AP_TO_P = "ap2p"


# Pulse-shape constants fitted so that a 1.8 V / 7 ns pulse switches AP->P
# essentially always while 1.166 V / 5.4 ns switches P->AP at p = 0.5.
_C_P2AP_DEFAULT = 5.4 * (1.166 / 0.70 - 1.0)  # ns
_C_AP2P_DEFAULT = 5.6                          # ns, gives dt(1.8 V) = 4.0 ns


@dataclass(frozen=True)
class MtjParams:
    """Physical and calibration parameters of the junction.

    The first block sets the junction's geometry and resistances (oxide
    thickness, footprint, TMR ratio and RA product); the second block
    parameterizes the stochastic switching model (per-direction critical
    voltages and pulse-shape constants, attempt time and thermal stability
    for the sub-critical regime, and the relative spread of the switching
    time distribution).
    """

    t_ox: float = 0.85            # oxide thickness, nm
    length: float = 45.0          # junction length, nm
    width: float = 45.0           # junction width, nm
    tmr: float = 1.5              # zero-bias TMR ratio
    ra: float = 5.0               # resistance-area product, ohm * um^2

    tau0: float = 1.0e-9          # attempt time, s
    delta: float = 45.0           # thermal stability factor
    sigma_rel: float = 0.2        # relative std-dev of switching time
    vc0_p2ap: float = 0.70        # critical voltage P->AP, V
    vc0_ap2p: float = 0.75        # critical voltage AP->P, V
    c_p2ap: float = _C_P2AP_DEFAULT  # precessional pulse-shape constant, ns
    c_ap2p: float = _C_AP2P_DEFAULT  # precessional pulse-shape constant, ns

    def __post_init__(self) -> None:
        for name in ("t_ox", "length", "width", "tmr", "ra", "tau0", "delta",
                     "vc0_p2ap", "vc0_ap2p", "c_p2ap", "c_ap2p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.sigma_rel < 1.0:
            raise ValueError("sigma_rel must lie in (0, 1)")
        if not 0.0 < self.r_p <= self.r_ap < math.inf:
            raise ValueError(f"resistances r_p = {self.r_p:g} and r_ap = {self.r_ap:g} ohm "
                             "must be positive and finite")

    @property
    def area_um2(self) -> float:
        return self.length * self.width * 1e-6

    @property
    def r_p(self) -> float:
        return self.ra / self.area_um2

    @property
    def r_ap(self) -> float:
        return self.r_p * (1.0 + self.tmr)

    def direction_constants(self, direction: WriteDirection) -> tuple[float, float]:
        """(critical voltage, precessional constant) for one write direction."""
        if direction is WriteDirection.P_TO_AP:
            return self.vc0_p2ap, self.c_p2ap
        return self.vc0_ap2p, self.c_ap2p


@dataclass(frozen=True)
class PulseSpec:
    voltage: float    # V
    duration: float   # ns
    direction: WriteDirection

    def __post_init__(self) -> None:
        if self.voltage < 0:
            raise ValueError("voltage must be non-negative")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


def base_switching_time(params: MtjParams, pulse: PulseSpec) -> float:
    """Nominal characteristic switching time dt in ns for the pulse's
    direction.

    Precessional regime above the critical voltage, thermally activated
    (attempt-time) regime at or below it.  Process variation multiplies dt
    by a device's resistance scale (the drop in effective write current);
    sbg applies it per unit.
    """
    if pulse.voltage <= 0:
        raise ValueError("switching time requires a positive bias voltage")
    vc0, c = params.direction_constants(pulse.direction)
    if pulse.voltage > vc0:
        dt = c / (pulse.voltage / vc0 - 1.0)
        if dt > 0:
            return dt
        name = pulse.direction.value
        raise ValueError(f"vc0_{name} = {vc0:g} V, c_{name} = {c:g} ns: the switching time "
                         f"at {pulse.voltage:g} V rounds to 0 ns")
    return (params.tau0 * 1e9) * math.exp(params.delta * (1.0 - pulse.voltage / vc0))


def switch_probability(params: MtjParams, pulse: PulseSpec) -> float:
    """Probability that the pulse switches the nominal junction,
    Phi((t - dt)/(sigma_rel*dt))."""
    dt = base_switching_time(params, pulse)
    z = (pulse.duration - dt) / (params.sigma_rel * dt)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# calibrate_voltage's probability tolerance, floor as a fraction above the
# critical voltage, ceiling in volts, and the bias of targets below the floor
# as a fraction of the critical voltage: deep sub-critical, p ~ 3e-7.
_TOL, _V_MARGIN, _V_MAX, _V_SUBCRITICAL = 1e-4, 0.02, 3.0, 0.5


def calibrate_voltage(params: MtjParams, target_p: float, duration: float,
                      direction: WriteDirection) -> float:
    """Bias voltage whose switching probability matches target_p in [0, 1].

    Inverts the precessional law: z = Phi^-1(target_p), dt = t/(1 + sigma_rel*z)
    and V = vc0*(1 + c/dt), capped at _V_MAX.  A V below the floor
    vc0*(1 + _V_MARGIN) becomes the sub-critical bias vc0*_V_SUBCRITICAL.
    Either voltage is returned only if its probability is within _TOL of the
    target, so a target at most _TOL above the probability at _V_MAX gets
    _V_MAX; any other miss raises TargetUnreachable.
    """
    from statistics import NormalDist  # loads fractions and decimal: pay on first use

    if not 0.0 <= target_p <= 1.0:
        raise ValueError("target_p must lie in [0, 1]")
    vc0, c = params.direction_constants(direction)
    v_lo = vc0 * (1.0 + _V_MARGIN)
    if v_lo >= _V_MAX:
        raise ValueError(f"vc0_{direction.value} = {vc0:g} V: {direction.value} writes need "
                         f"at least {v_lo:g} V, above the {_V_MAX} V cap")
    if 0.0 < target_p < 1.0:
        z = NormalDist().inv_cdf(target_p)
    else:
        z = math.copysign(math.inf, target_p - 0.5)
    # c/dt as c*(1 + sigma_rel*z)/t: no division by dt, which is 0 at z = +-inf.
    v = min(vc0 * (1.0 + c * (1.0 + params.sigma_rel * z) / duration), _V_MAX)
    if v < v_lo:
        v = vc0 * _V_SUBCRITICAL
    p = switch_probability(params, PulseSpec(v, duration, direction))
    if not abs(p - target_p) <= _TOL:
        raise TargetUnreachable(f"no {direction.value} voltage meets target {target_p} within "
                                f"{_TOL:g} at {duration} ns: {v:g} V switches with probability "
                                f"{p:.4g}")
    return v


def draw_process_variation(rng: np.random.Generator, params: MtjParams, sigma_area: float,
                           sigma_tox: float) -> float:
    """One device's resistance scale R ~ (1/A) * exp(t_ox), from area and
    then thickness multipliers ~ N(1, sigma) drawn from rng, each resampled
    while non-positive.  The exponent uses the nominal thickness in nm, so a
    2% thickness shift moves R by ~1.7%."""

    def draw(sigma: float) -> float:
        value = 1.0 + sigma * rng.standard_normal()
        while value <= 0.0:
            value = 1.0 + sigma * rng.standard_normal()
        return value

    area = draw(sigma_area)
    return math.exp(params.t_ox * (draw(sigma_tox) - 1.0)) / area


def characterization_rows(params: MtjParams, voltages: list[float],
                          durations: list[float],
                          direction: WriteDirection) -> list[tuple[float, float, float]]:
    """(voltage, duration, probability) grid for the characterization report."""
    rows = []
    for v in voltages:
        for t in durations:
            p = switch_probability(params, PulseSpec(v, t, direction))
            rows.append((v, t, p))
    return rows
