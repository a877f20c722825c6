"""generate_array against the per-bit oracle in helpers.scalar_generate.

Each case builds two identical unit lists (same seeds and ids), runs one
through the array engine and the other through the oracle, and demands
exact equality: bits, counters, energy (==, not approx), final MTJ state,
last_state, and the next draw of every unit's random stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import scalar_generate
from spinsc import sbg
from spinsc.device import MtjState, PulseSpec, WriteDirection
from spinsc.sbg import (
    RESET_PULSE,
    CalibrationCache,
    SbgDevice,
    SbgMode,
    generate,
    generate_array,
    make_unit,
    make_units,
)

DEVICE = SbgDevice()
PV = (0.05, 0.02)
# Below the calibratable range (subcritical fallback), mid-range, and the
# highest level calibration accepts.
TARGETS = (0.0, 1e-6, 0.13, 0.5, 0.87, 1.0)
# A reset that fails about half the time, so simple cycles draw 0, 1 or 2
# normals and self-control initializations start from either state.
WEAK_RESET = PulseSpec(1.35, 7.0, WriteDirection.AP_TO_P)


# Targets whose switching outcomes repeat for hundreds of cycles: 0 and 1e-6
# almost never switch and 1.0 always does.
EDGE_TARGETS = (0.0, 1e-6, 1.0)


def twins(mode, pv_of=lambda k: None, reset_pulse=RESET_PULSE, seed=9,
          targets=TARGETS, starts=None):
    def build():
        device = SbgDevice(reset_pulse=reset_pulse)
        units = [make_unit(device, mode, p, seed, k, pv_sigmas=pv_of(k))
                 for k, p in enumerate(targets)]
        for unit, start in zip(units, starts or ()):
            unit.mtj.state = start
        return units
    return build(), build()


def assert_same(engine_units, oracle_units, n):
    engine_bits = generate_array(engine_units, n)
    oracle_bits = np.stack([scalar_generate(u, n) for u in oracle_units])
    assert engine_bits.dtype == np.uint8
    assert engine_bits.shape == (len(engine_units), n)
    np.testing.assert_array_equal(engine_bits, oracle_bits)
    for a, b in zip(engine_units, oracle_units):
        assert (a.writes, a.reads) == (b.writes, b.reads)
        assert a.energy_nj == b.energy_nj
        assert a.mtj.state is b.mtj.state
        assert a.last_state == b.last_state


def assert_same_next_draw(engine_units, oracle_units):
    for a, b in zip(engine_units, oracle_units):
        assert a.mtj.rng.standard_normal() == b.mtj.rng.standard_normal()


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV])
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [1, 2, 97])
def test_engine_matches_per_bit_oracle(mode, pv, reset_pulse, n):
    engine, oracle = twins(mode, lambda k: pv, reset_pulse)
    assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_repeated_calls_continue_one_stream(mode):
    engine, oracle = twins(mode, reset_pulse=WEAK_RESET)
    for n in (5, 1, 64):
        assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_mixed_process_variation_in_one_array(mode):
    engine, oracle = twins(mode, lambda k: PV if k % 2 else None)
    assert_same(engine, oracle, 33)
    assert_same_next_draw(engine, oracle)


def test_self_control_initialization_from_ap():
    engine, oracle = twins(SbgMode.SELF_CONTROL, reset_pulse=WEAK_RESET)
    for unit in engine + oracle:
        unit.mtj.state = MtjState.AP
    assert_same(engine, oracle, 16)
    assert_same_next_draw(engine, oracle)


def test_single_unit_wrapper_matches_array_row():
    engine, oracle = twins(SbgMode.SIMPLE)
    stream = generate(engine[3], 40)
    np.testing.assert_array_equal(stream.bits, scalar_generate(oracle[3], 40))


def test_mixed_modes_rejected():
    units = [make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 1, 0),
             make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.5, 1, 1)]
    with pytest.raises(ValueError):
        generate_array(units, 8)
    assert all(u.writes == 0 for u in units)


def test_bad_length_and_empty_array():
    unit = make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 1, 0)
    with pytest.raises(ValueError):
        generate_array([unit], 0)
    assert generate_array([], 4).shape == (0, 4)


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [512, 1000])
def test_long_runs_at_edge_targets(mode, reset_pulse, n):
    # Self-control at 1.0 negates the state every cycle and at 0 keeps it;
    # simple units at 0 behind the strong reset set it to P every token.
    engine, oracle = twins(mode, reset_pulse=reset_pulse, targets=EDGE_TARGETS)
    assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
def test_start_in_ap_or_p_per_unit(mode, reset_pulse):
    starts = [MtjState.AP if k % 3 else MtjState.P for k in range(len(TARGETS))]
    engine, oracle = twins(mode, reset_pulse=reset_pulse, starts=starts)
    assert_same(engine, oracle, 65)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_three_calls_with_process_variation_and_mixed_starts(mode):
    starts = [MtjState(k % 2) for k in range(len(TARGETS))]
    engine, oracle = twins(mode, lambda k: PV, WEAK_RESET, starts=starts)
    for n in (300, 1, 47):
        assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_units_across_several_blocks(mode):
    n = 700
    count = 2 * (sbg._BLOCK_BITS // n) + 3
    targets = [TARGETS[k % len(TARGETS)] for k in range(count)]
    engine, oracle = twins(mode, lambda k: PV if k % 2 else None, WEAK_RESET,
                           targets=targets)
    assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


unit_specs = st.lists(
    st.tuples(st.one_of(st.sampled_from(TARGETS), st.floats(0.0, 1.0)),
              st.sampled_from(list(MtjState)), st.booleans()),
    min_size=1, max_size=5)


@settings(max_examples=40)
@given(mode=st.sampled_from(list(SbgMode)), specs=unit_specs,
       reset_voltage=st.floats(0.9, 1.9), n=st.integers(1, 200),
       seed=st.integers(0, 2**31 - 1))
def test_engine_matches_oracle_on_random_arrays(mode, specs, reset_voltage, n, seed):
    device = SbgDevice(reset_pulse=PulseSpec(reset_voltage, 7.0, WriteDirection.AP_TO_P))
    calibration = CalibrationCache()

    def build():
        units = []
        for k, (target, start, pv) in enumerate(specs):
            unit = make_unit(device, mode, target, seed, k,
                             pv_sigmas=PV if pv else None, calibration=calibration)
            unit.mtj.state = start
            units.append(unit)
        return units

    engine, oracle = build(), build()
    assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


def test_make_units_matches_one_unit_at_a_time():
    targets = [0.3, 0.7, 0.3, 1e-6, 0.7]
    batch = make_units(DEVICE, SbgMode.SELF_CONTROL, targets, 4, 20, pv_sigmas=PV)
    single = [make_unit(DEVICE, SbgMode.SELF_CONTROL, p, 4, 20 + k, pv_sigmas=PV)
              for k, p in enumerate(targets)]
    for a, b in zip(batch, single):
        assert a.target_p == b.target_p
        assert a.write_pulse_p2ap == b.write_pulse_p2ap
        assert a.write_pulse_ap2p == b.write_pulse_ap2p
        assert a.mtj.factors == b.mtj.factors
        assert a.mtj.rng.standard_normal() == b.mtj.rng.standard_normal()
    assert batch[0].write_pulse_p2ap is batch[2].write_pulse_p2ap


def test_make_units_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError):
        make_units(DEVICE, SbgMode.SIMPLE, [0.5, 1.5], 1, 0)


def test_simple_mode_refuses_reset_toward_ap():
    device = SbgDevice(reset_pulse=PulseSpec(1.8, 7.0, WriteDirection.P_TO_AP))
    unit = make_unit(device, SbgMode.SIMPLE, 0.5, 1, 0)
    with pytest.raises(ValueError, match="reset pulse toward P"):
        generate_array([unit], 4)
    assert unit.writes == 0
