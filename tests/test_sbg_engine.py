"""generate_array against the per-bit oracle in helpers.scalar_generate.

Each case builds two identical unit lists (same seeds and ids), runs one
through the array engine and the other through the oracle, and demands
exact equality: bits, counters, energy (==, not approx), final MTJ state,
last_state, and the next draw of every unit's random stream.
"""

import numpy as np
import pytest

from helpers import scalar_generate
from spinsc.device import MtjParams, MtjState, PulseSpec, WriteDirection
from spinsc.sbg import RESET_PULSE, SbgMode, generate, generate_array, make_unit

PARAMS = MtjParams()
PV = (0.05, 0.02)
# Below the calibratable range (subcritical fallback), mid-range, and the
# highest level calibration accepts.
TARGETS = (0.0, 1e-6, 0.13, 0.5, 0.87, 1.0)
# A reset that fails about half the time, so simple cycles draw 0, 1 or 2
# normals and self-control initializations start from either state.
WEAK_RESET = PulseSpec(1.35, 7.0, WriteDirection.AP_TO_P)


def twins(mode, pv_of=lambda k: None, reset_pulse=RESET_PULSE, seed=9):
    def build():
        return [make_unit(PARAMS, mode, p, seed, k, pv_sigmas=pv_of(k),
                          reset_pulse=reset_pulse)
                for k, p in enumerate(TARGETS)]
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
    units = [make_unit(PARAMS, SbgMode.SIMPLE, 0.5, 1, 0),
             make_unit(PARAMS, SbgMode.SELF_CONTROL, 0.5, 1, 1)]
    with pytest.raises(ValueError):
        generate_array(units, 8)
    assert all(u.writes == 0 for u in units)


def test_bad_length_and_empty_array():
    unit = make_unit(PARAMS, SbgMode.SIMPLE, 0.5, 1, 0)
    with pytest.raises(ValueError):
        generate_array([unit], 0)
    assert generate_array([], 4).shape == (0, 4)
