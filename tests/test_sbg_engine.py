"""generate_array against the per-bit oracle in helpers.scalar_generate.

Each case builds two identical arrays (same seeds and ids), runs one
through the array engine and the other, row by row, through the oracle, and
demands exact equality: bits, counters, energy (==, not approx), final MTJ
state, and the next draw of every unit's random stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import MtjState, scalar_generate
from spinsc import sbg
from spinsc.device import PulseSpec, WriteDirection
from spinsc.sbg import RESET_PULSE, CalibrationCache, SbgDevice, SbgMode, generate_array, make_units

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


def build(mode, targets, seed, pv, starts=None, device=None, calibration=None):
    """Unit k targets targets[k], with process variation where pv(k), and
    starts in starts[k] (P when starts is None).  Process-variation streams
    are their own domain, so setting a unit's scale back to exactly 1.0
    leaves it as a build without process variation would."""
    array = make_units(device or DEVICE, mode, targets, seed, 0, pv_sigmas=PV,
                       calibration=calibration)
    for k in range(len(targets)):
        if not pv(k):
            array.scale[k] = 1.0
    if starts is not None:
        array.state[:] = [start is MtjState.AP for start in starts]
    return array


def twins(mode, pv=lambda k: False, reset_pulse=RESET_PULSE, seed=9,
          targets=TARGETS, starts=None):
    device = SbgDevice(reset_pulse=reset_pulse)
    return tuple(build(mode, targets, seed, pv, starts, device) for _ in range(2))


def assert_same(engine, oracle, n):
    engine_bits = generate_array(engine, n)
    oracle_bits = np.stack([scalar_generate(oracle, row, n) for row in range(len(oracle))])
    assert engine_bits.dtype == np.uint8
    assert engine_bits.shape == (len(engine), n)
    np.testing.assert_array_equal(engine_bits, oracle_bits)
    assert engine.writes.tolist() == oracle.writes.tolist()
    assert engine.reads.tolist() == oracle.reads.tolist()
    assert engine.energy_nj.tolist() == oracle.energy_nj.tolist()
    assert engine.state.tolist() == oracle.state.tolist()


def assert_same_next_draw(engine, oracle):
    for a, b in zip(engine.rngs, oracle.rngs):
        assert a.standard_normal() == b.standard_normal()


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV])
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [1, 2, 97])
def test_engine_matches_per_bit_oracle(mode, pv, reset_pulse, n):
    engine, oracle = twins(mode, lambda k: pv is not None, reset_pulse)
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
    engine, oracle = twins(mode, lambda k: k % 2)
    assert_same(engine, oracle, 33)
    assert_same_next_draw(engine, oracle)


def test_self_control_initialization_from_ap():
    engine, oracle = twins(SbgMode.SELF_CONTROL, reset_pulse=WEAK_RESET)
    for array in (engine, oracle):
        array.state[:] = True
    assert_same(engine, oracle, 16)
    assert_same_next_draw(engine, oracle)


def test_bad_length_and_empty_array():
    array = make_units(DEVICE, SbgMode.SIMPLE, [0.5], 1, 0)
    with pytest.raises(ValueError):
        generate_array(array, 0)
    assert generate_array(make_units(DEVICE, SbgMode.SIMPLE, [], 1, 0), 4).shape == (0, 4)


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
    engine, oracle = twins(mode, lambda k: True, WEAK_RESET, starts=starts)
    for n in (300, 1, 47):
        assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_units_across_several_blocks(mode):
    n = 700
    count = 2 * (sbg._BLOCK_BITS // n) + 3
    targets = [TARGETS[k % len(TARGETS)] for k in range(count)]
    engine, oracle = twins(mode, lambda k: k % 2, WEAK_RESET, targets=targets)
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
    targets, starts, pv = zip(*specs)
    engine, oracle = (build(mode, targets, seed, pv.__getitem__, starts, device, calibration)
                      for _ in range(2))
    assert_same(engine, oracle, n)
    assert_same_next_draw(engine, oracle)


def test_make_units_matches_one_unit_at_a_time():
    targets = [0.3, 0.7, 0.3, 1e-6, 0.7]
    batch = make_units(DEVICE, SbgMode.SELF_CONTROL, targets, 4, 20, pv_sigmas=PV)
    for k, p in enumerate(targets):
        single = make_units(DEVICE, SbgMode.SELF_CONTROL, [p], 4, 20 + k, pv_sigmas=PV)
        assert batch.targets[k] == single.targets[0]
        assert batch.pulses[batch.level[k]] == single.pulses[0]
        assert batch.scale[k] == single.scale[0]
        assert batch.rngs[k].standard_normal() == single.rngs[0].standard_normal()
    # One pulse pair per distinct target.
    assert batch.level.tolist() == [0, 1, 0, 2, 1]
    assert len(batch.pulses) == 3


def test_make_units_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError):
        make_units(DEVICE, SbgMode.SIMPLE, [0.5, 1.5], 1, 0)


def test_simple_mode_refuses_reset_toward_ap():
    # Every generator resets toward P, so the device refuses any other reset.
    with pytest.raises(ValueError, match="reset pulse must write toward P"):
        SbgDevice(reset_pulse=PulseSpec(1.8, 7.0, WriteDirection.P_TO_AP))
