import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (MtjState, apply_write, bisect_voltage, make_junction, read_state, rng_for,
                     rngs_for, scc, variation_draw)
from spinsc import sbg
from spinsc.config import ArrayConfig
from spinsc.device import (
    _TOL,
    _V_MARGIN,
    _V_MAX,
    _V_SUBCRITICAL,
    MtjParams,
    PulseSpec,
    TargetUnreachable,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    draw_process_variation,
    switch_probability,
    switch_probability_at,
)
from spinsc.sbg import SbgDevice, SbgMode, generate_array, make_units
from spinsc.seeding import DOMAIN_PROCESS_VARIATION

PARAMS = MtjParams()
RESET = PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)
HALF = PulseSpec(1.166, 5.4, WriteDirection.P_TO_AP)


def test_default_resistances():
    # RA / (l * w), with the area converted from nm^2 to um^2
    area_um2 = 45.0 * 45.0 * 1e-6
    assert PARAMS.r_p == pytest.approx(5.0 / area_um2)
    assert PARAMS.r_ap == pytest.approx(PARAMS.r_p * 2.5)
    assert PARAMS.r_ap > PARAMS.r_p


def test_params_validation():
    with pytest.raises(ValueError):
        MtjParams(tmr=-1.0)
    with pytest.raises(ValueError):
        MtjParams(sigma_rel=1.5)
    for extreme in ({"length": 1e308}, {"tmr": 1e308}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            MtjParams(**extreme)
    with pytest.raises(ValueError):
        PulseSpec(-0.1, 1.0, WriteDirection.P_TO_AP)


def test_reset_anchor_near_certain():
    assert switch_probability(PARAMS, RESET) >= 0.999


def test_half_probability_anchor():
    assert switch_probability(PARAMS, HALF) == pytest.approx(0.5, abs=0.02)
    assert base_switching_time(PARAMS, HALF) == pytest.approx(5.4, abs=1e-6)


@pytest.mark.parametrize("vc0, c, voltage, outcome", [
    (1e-308, 5.6, 1.8, "rounds to 0 ns"),  # voltage / vc0 overflows
    (0.75, 1e308, 1.0, "is infinite"),     # c / (voltage / vc0 - 1) overflows
])
def test_switching_time_refuses_zero_and_infinity(vc0, c, voltage, outcome):
    params = replace(PARAMS, vc0_ap2p=vc0, c_ap2p=c)
    message = (f"vc0_ap2p = {vc0:g} V, c_ap2p = {c:g} ns: the switching time at "
               f"{voltage:g} V {outcome}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        base_switching_time(params, PulseSpec(voltage, 5.0, WriteDirection.AP_TO_P))


@pytest.mark.parametrize("tau0, delta, voltage", [
    (1e-9, 2000.0, 0.1),   # exp(delta * (1 - V/vc0)) overflows
    (1e300, 45.0, 0.5),    # tau0 in ns overflows, so dt is inf without an exception
])
def test_sub_critical_switching_time_refuses_infinity(tau0, delta, voltage):
    params = replace(PARAMS, tau0=tau0, delta=delta)
    message = (f"tau0 = {tau0:g} s, delta = {delta:g}, vc0_ap2p = 0.75 V: the switching time "
               f"at {voltage:g} V is infinite")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        base_switching_time(params, PulseSpec(voltage, 5.0, WriteDirection.AP_TO_P))


@pytest.mark.parametrize("tau0, c, voltage, law", [
    (2.8e289, 5.6, 0.375, "tau0 = 2.8e+289 s, delta = 45, vc0_ap2p = 0.75 V"),
    (1e-9, 1.7e308, 1.5, "vc0_ap2p = 0.75 V, c_ap2p = 1.7e+308 ns"),
], ids=["sub-critical", "precessional"])
def test_scaled_switching_time_refuses_overflow(tau0, c, voltage, law):
    # A finite switching time near the float maximum (1.65e308 and 1.7e308
    # ns) overflows once a process-variation scale of 2 multiplies it.
    params = replace(PARAMS, tau0=tau0, c_ap2p=c)
    pulse = PulseSpec(voltage, 5.0, WriteDirection.AP_TO_P)
    assert base_switching_time(params, pulse, 0.5) == base_switching_time(params, pulse) * 0.5
    message = f"{law}: the switching time at {voltage:g} V times process-variation scale 2 is infinite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        base_switching_time(params, pulse, 2.0)


def test_zero_duration_probability_negligible():
    pulse = PulseSpec(1.166, 0.0, WriteDirection.P_TO_AP)
    assert switch_probability(PARAMS, pulse) < 1e-6


def test_duration_equal_dt_gives_half():
    dt = base_switching_time(PARAMS, PulseSpec(1.4, 1.0, WriteDirection.P_TO_AP))
    pulse = PulseSpec(1.4, dt, WriteDirection.P_TO_AP)
    assert switch_probability(PARAMS, pulse) == pytest.approx(0.5, abs=1e-12)


def test_switching_time_decreasing_in_voltage():
    for direction in WriteDirection:
        vc0, _ = PARAMS.direction_constants(direction)
        voltages = np.linspace(vc0 * 1.05, 3.0, 25)
        dts = [base_switching_time(PARAMS, PulseSpec(v, 5.0, direction))
               for v in voltages]
        assert all(a > b for a, b in zip(dts, dts[1:]))


def test_probability_monotone_on_lattice():
    # non-decreasing in duration at fixed voltage, and in voltage above vc0
    durations = np.linspace(0.0, 12.0, 13)
    voltages = np.linspace(0.8, 2.4, 9)
    for v in voltages:
        probs = [switch_probability(PARAMS, PulseSpec(v, t, WriteDirection.P_TO_AP))
                 for t in durations]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
    for t in durations[1:]:
        probs = [switch_probability(PARAMS, PulseSpec(v, t, WriteDirection.P_TO_AP))
                 for v in voltages]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


@given(st.floats(min_value=0.75, max_value=3.0),
       st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=8))
def test_probability_monotone_in_duration_property(voltage, durations):
    durations = sorted(durations)
    probs = [switch_probability(PARAMS, PulseSpec(voltage, t, WriteDirection.P_TO_AP))
             for t in durations]
    assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))


def test_write_toward_current_state_is_noop():
    inst = make_junction(PARAMS, 1, 0)
    assert inst.state is MtjState.P
    assert apply_write(inst, PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P)) is False
    assert inst.state is MtjState.P


def test_read_is_ideal_and_nondestructive():
    inst = make_junction(PARAMS, 1, 0)
    inst.state = MtjState.AP
    assert read_state(inst) == 1
    assert read_state(inst) == 1
    inst.state = MtjState.P
    assert read_state(inst) == 0


def test_monte_carlo_matches_analytic_probability():
    inst = make_junction(PARAMS, 99, 0)
    target = switch_probability(PARAMS, HALF)
    n = 100_000
    flips = 0
    for _ in range(n):
        apply_write(inst, RESET)
        if apply_write(inst, HALF):
            flips += 1
    bound = 4.0 * math.sqrt(target * (1.0 - target) / n)
    assert abs(flips / n - target) <= bound


def test_reset_pulse_flips_nearly_always():
    inst = make_junction(PARAMS, 99, 1)
    n = 100_000
    flips = 0
    for _ in range(n):
        inst.state = MtjState.AP
        if apply_write(inst, RESET):
            flips += 1
    assert flips / n >= 0.999


def test_calibrate_half_probability_voltage():
    v = calibrate_voltage(PARAMS, 0.5, 5.4, WriteDirection.P_TO_AP)
    assert v == pytest.approx(1.166, abs=1e-3)


def test_calibrate_round_trip():
    # Random targets and the 64 default levels, 1.0 among them.
    rng = np.random.default_rng(5)
    for direction in WriteDirection:
        for target in (*rng.uniform(0.02, 0.98, size=10), *ArrayConfig().levels):
            v = calibrate_voltage(PARAMS, float(target), 5.4, direction)
            p = switch_probability(PARAMS, PulseSpec(v, 5.4, direction))
            assert abs(p - target) <= 1e-12


@given(st.sampled_from(list(WriteDirection)), st.sampled_from([3.5, 4.9, 5.4, 7.0]),
       st.floats(min_value=0.0, max_value=1.0))
@example(WriteDirection.P_TO_AP, 5.4, 0.0)   # z = -inf: the sub-critical bias
@example(WriteDirection.AP_TO_P, 4.9, 1.0)   # z = +inf: capped, within _TOL
@example(WriteDirection.AP_TO_P, 3.2, 1.0)   # 1.8e-4 above p(v_max): refused
def test_calibrate_agrees_with_the_bisection_oracle(direction, duration, target):
    # Where the bisection finds a voltage, the closed form meets the target
    # to rounding, or it is capped at v_max with the target above p(v_max).
    # A target the bisection refuses below its range gets the sub-critical
    # bias, which meets it at the default delta; one above it is refused.
    def prob(v):
        return switch_probability(PARAMS, PulseSpec(v, duration, direction))

    vc0, _ = PARAMS.direction_constants(direction)
    try:
        v_oracle = bisect_voltage(PARAMS, target, duration, direction)
    except TargetUnreachable:
        if target < prob(vc0 * (1.0 + _V_MARGIN)):
            v = calibrate_voltage(PARAMS, target, duration, direction)
            assert v == vc0 * _V_SUBCRITICAL and abs(prob(v) - target) <= _TOL
        else:
            with pytest.raises(TargetUnreachable):
                calibrate_voltage(PARAMS, target, duration, direction)
        return
    assert abs(prob(v_oracle) - target) <= _TOL
    v = calibrate_voltage(PARAMS, target, duration, direction)
    assert abs(prob(v) - target) <= 1e-12 or (v == _V_MAX and target > prob(v))


def test_calibrate_unreachable_target():
    # 1e-9 lies below the P->AP range, and the sub-critical bias meets it at
    # the default delta (p ~ 3e-7); at delta = 1 that bias switches always.
    assert calibrate_voltage(PARAMS, 1e-9, 5.4, WriteDirection.P_TO_AP) == 0.35
    message = ("no p2ap voltage meets target 1e-09 within 0.0001 at 5.4 ns: 0.35 V switches "
               "with probability 1")
    with pytest.raises(TargetUnreachable, match=f"^{re.escape(message)}$"):
        calibrate_voltage(MtjParams(delta=1.0), 1e-9, 5.4, WriteDirection.P_TO_AP)


@pytest.mark.parametrize("target", [-1e-300, 1.00005, math.nan, -math.inf])
def test_calibrate_refuses_a_target_outside_the_unit_interval(target):
    # 1.00005 lies within _TOL of p(v_max) = 1.0, so only this check refuses it.
    with pytest.raises(ValueError, match=r"^target_p must lie in \[0, 1\]$"):
        calibrate_voltage(PARAMS, target, 5.4, WriteDirection.P_TO_AP)


@pytest.mark.parametrize("sigma_rel, target", [(0.1, 0.0), (0.1, 1e-25), (1e-300, 0.0)])
@pytest.mark.parametrize("direction", list(WriteDirection))
def test_calibrate_target_below_a_floor_of_probability_zero(direction, sigma_rel, target):
    # The probability at 1.02 vc0 rounds to 0 at these sigma_rel, so no
    # comparison of probabilities puts these targets below the range; their
    # closed-form voltage, below 1.02 vc0, does, and they get the bias.
    params = replace(PARAMS, sigma_rel=sigma_rel)
    vc0, _ = params.direction_constants(direction)
    assert switch_probability(params, PulseSpec(1.02 * vc0, 5.4, direction)) == 0.0
    assert calibrate_voltage(params, target, 5.4, direction) == vc0 * _V_SUBCRITICAL


def test_calibrate_target_within_tol_above_the_range():
    # At 4.9 ns the top AP->P probability (at v_max = 3.0 V) falls just short
    # of 1.0, by far less than tol: the target 1.0 gets v_max.
    top = switch_probability(PARAMS, PulseSpec(3.0, 4.9, WriteDirection.AP_TO_P))
    assert 1.0 - 1e-4 < top < 1.0
    assert calibrate_voltage(PARAMS, 1.0, 4.9, WriteDirection.AP_TO_P) == 3.0
    # At 3.0 ns it falls short by more than tol, and 1.0 is refused.
    message = ("no ap2p voltage meets target 1.0 within 0.0001 at 3.0 ns: 3 V switches "
               "with probability 0.9988")
    with pytest.raises(TargetUnreachable, match=f"^{re.escape(message)}$"):
        calibrate_voltage(PARAMS, 1.0, 3.0, WriteDirection.AP_TO_P)


def test_process_variation_disabled_is_nominal():
    array = make_units(SbgDevice(PARAMS), SbgMode.SIMPLE, [0.5, 0.5], 3, pv_sigmas=(0.0, 0.0))
    assert array.scale.tolist() == [1.0, 1.0]
    assert draw_process_variation(rng_for(3, DOMAIN_PROCESS_VARIATION, 0), PARAMS, 0.0, 0.0) == 1.0


def test_process_variation_sample_statistics():
    # The scale is exactly the one the area and thickness drawn from its
    # stream give, and those multipliers have the configured spread.
    areas, toxes = [], []
    pairs = zip(rngs_for(11, DOMAIN_PROCESS_VARIATION, range(10_000)),
                rngs_for(11, DOMAIN_PROCESS_VARIATION, range(10_000)))
    for rng, twin in pairs:
        area, tox, scale = variation_draw(twin, PARAMS, 0.05, 0.02)
        assert draw_process_variation(rng, PARAMS, 0.05, 0.02) == scale
        areas.append(area)
        toxes.append(tox)
    assert np.std(areas) == pytest.approx(0.05, abs=0.005)
    assert np.std(toxes) == pytest.approx(0.02, abs=0.002)
    assert np.mean(areas) == pytest.approx(1.0, abs=0.005)
    assert min(areas) > 0 and min(toxes) > 0


def test_process_variation_deterministic():
    def sample(unit_id):
        return draw_process_variation(rng_for(42, DOMAIN_PROCESS_VARIATION, unit_id), PARAMS,
                                      0.05, 0.02)

    a = sample(7)
    b = sample(7)
    assert a == b
    c = sample(8)
    assert c != a


def test_process_variation_resamples_non_positive_draws():
    # At sigma 10 nearly half the draws are non-positive; each multiplier is drawn
    # again from the same stream until it is positive, area first.
    for unit in range(50):
        rng, twin = rngs_for(5, DOMAIN_PROCESS_VARIATION, [unit, unit])
        area, tox, scale = variation_draw(twin, PARAMS, 10.0, 10.0)
        assert area > 0 and tox > 0
        assert draw_process_variation(rng, PARAMS, 10.0, 10.0) == scale
        assert rng.bit_generator.state == twin.bit_generator.state


def test_variation_rescales_resistance_and_dt():
    scale = math.exp(PARAMS.t_ox * 0.1) / 0.9
    # sbg applies the scale once per unit: to the nominal switching time,
    # where the unit's switching probability is taken, and to both
    # resistances of every pulse.  A nominal unit keeps the calibrated
    # probability.
    dt_nom = base_switching_time(PARAMS, HALF)
    constants = sbg._constants(PARAMS, [HALF])[:, :, None, None]
    pulse, = sbg._pulses(constants, PARAMS, np.array([[scale]]))
    assert pulse.q.item() == switch_probability_at(dt_nom * scale, HALF.duration, PARAMS.sigma_rel)
    assert pulse.q.item() < switch_probability(PARAMS, HALF) == pytest.approx(0.5, abs=1e-4)
    nominal, = sbg._pulses(constants, PARAMS, np.array([[1.0]]))
    assert nominal.q.item() == switch_probability(PARAMS, HALF)
    assert pulse.energy_p.item() == pytest.approx(sbg.pulse_energy_nj(HALF, PARAMS.r_p * scale))
    assert pulse.energy_ap.item() == pytest.approx(sbg.pulse_energy_nj(HALF, PARAMS.r_ap * scale))


def test_distinct_instances_produce_distinct_streams():
    array = make_units(SbgDevice(PARAMS), SbgMode.SELF_CONTROL, [0.5, 0.5], 1234)
    s0, s1 = generate_array(array, 512)[0]
    assert not np.array_equal(s0, s1)
    assert abs(scc(s0, s1)) < 0.2


def test_instance_stream_determinism():
    def bits(seed):
        inst = make_junction(PARAMS, seed, 5)
        out = []
        for _ in range(200):
            apply_write(inst, RESET)
            apply_write(inst, HALF)
            out.append(read_state(inst))
        return out

    assert bits(77) == bits(77)
    assert bits(77) != bits(78)
