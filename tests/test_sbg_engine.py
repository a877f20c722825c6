"""generate_array against the per-bit oracle in helpers.scalar_generate.

Each case builds two identical arrays (same seeds and ids), runs one
through the array engine and the other, row by row, through the oracle, and
demands exact equality: bits, counters and energy (==, not approx), and in
self-control mode, which draws exactly n uniforms a unit, the next draw of
every unit's random stream.  Energy is also checked against the oracle's sum
in cycle order, within ENERGY_RTOL.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_junction, scalar_generate, variation_draw
from spinsc import sbg
from spinsc.device import PulseSpec, WriteDirection
from spinsc.sbg import RESET_PULSE, CalibrationCache, SbgDevice, SbgMode, generate_array, make_units
from spinsc.seeding import (
    DOMAIN_CROSS_SCC,
    DOMAIN_DEVICE,
    DOMAIN_PROCESS_VARIATION,
    DOMAIN_SELF_SCC,
    rng_for,
)

DEVICE = SbgDevice()
PV = (0.05, 0.02)
# Below the calibratable range (sub-critical fallback), just above its
# floor (about 6e-7 P->AP and 5e-7 AP->P), mid-range, and the highest level
# calibration accepts.
TARGETS = (0.0, 1e-6, 0.13, 0.5, 0.87, 1.0)
# A reset that fails about half the time, so simple cycles draw 1 or 2
# uniforms.
WEAK_RESET = PulseSpec(1.35, 7.0, WriteDirection.AP_TO_P)


# Relative bound between a unit's energy and its sum one pulse and read at
# a time in cycle order: that sum's rounding grows with the stream, to about
# 6e-14 at 1000 bits.
ENERGY_RTOL = 1e-12

# Targets whose switching outcomes repeat for hundreds of cycles: 0 and 1e-6
# almost never switch and 1.0 always does.
EDGE_TARGETS = (0.0, 1e-6, 1.0)


def build(mode, targets, seed, pv, device=None, calibration=None):
    """Unit k targets targets[k], with process variation where pv(k).
    Process-variation streams are their own domain, so setting a unit's scale
    back to exactly 1.0 leaves it as a build without process variation
    would."""
    array = make_units(device or DEVICE, mode, targets, seed, pv_sigmas=PV,
                       calibration=calibration)
    for k in range(len(targets)):
        if not pv(k):
            array.scale[k] = 1.0
    return array


def twins(mode, pv=lambda k: False, reset_pulse=RESET_PULSE, seed=9, targets=TARGETS):
    device = SbgDevice(reset_pulse=reset_pulse)
    return tuple(build(mode, targets, seed, pv, device) for _ in range(2))


def assert_same(engine, oracle, n):
    engine_bits = generate_array(engine, n)
    oracle_bits, cycle_energy = zip(*(scalar_generate(oracle, row, n)
                                      for row in range(len(oracle))))
    assert engine_bits.dtype == np.uint8
    assert engine_bits.shape == (len(engine), n)
    np.testing.assert_array_equal(engine_bits, np.stack(oracle_bits))
    assert engine.writes.tolist() == oracle.writes.tolist()
    assert engine.reads.tolist() == oracle.reads.tolist()
    assert engine.energy_nj.tolist() == oracle.energy_nj.tolist()
    np.testing.assert_allclose(engine.energy_nj, cycle_energy, rtol=ENERGY_RTOL, atol=0)
    if engine.mode is SbgMode.SELF_CONTROL:
        assert_same_next_draw(engine, oracle)


def assert_same_next_draw(engine, oracle):
    for a, b in zip(engine.rngs, oracle.rngs):
        assert a.random() == b.random()


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV])
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [1, 2, 97])
def test_engine_matches_per_bit_oracle(mode, pv, reset_pulse, n):
    engine, oracle = twins(mode, lambda k: pv is not None, reset_pulse)
    assert_same(engine, oracle, n)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_mixed_process_variation_in_one_array(mode):
    engine, oracle = twins(mode, lambda k: k % 2)
    assert_same(engine, oracle, 33)


def test_bad_length_and_empty_array():
    array = make_units(DEVICE, SbgMode.SIMPLE, [0.5], 1)
    with pytest.raises(ValueError):
        generate_array(array, 0)
    assert generate_array(make_units(DEVICE, SbgMode.SIMPLE, [], 1), 4).shape == (0, 4)


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [512, 1000])
def test_long_runs_at_edge_targets(mode, reset_pulse, n):
    # Self-control at 1.0 negates the state every cycle and at 0 keeps it;
    # simple units at 0 behind the strong reset set it to P every token.
    engine, oracle = twins(mode, reset_pulse=reset_pulse, targets=EDGE_TARGETS)
    assert_same(engine, oracle, n)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_units_across_several_blocks(mode):
    n = 700
    count = 2 * (sbg._BLOCK_BITS // n) + 3
    targets = [TARGETS[k % len(TARGETS)] for k in range(count)]
    engine, oracle = twins(mode, lambda k: k % 2, WEAK_RESET, targets=targets)
    assert_same(engine, oracle, n)


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [False, True], ids=["nominal", "pv"])
@pytest.mark.parametrize("count, n, block_bits", [
    (17, 1000, None),    # a 16-unit block, then a one-unit block
    (5, 97, 1),          # every block holds one unit
    (6, 97, 2 * 97),     # blocks of 2
    (6, 97, 3 * 97),     # blocks of 3
], ids=["trailing-one", "all-one", "twos", "threes"])
def test_energy_is_summed_in_cycle_order_at_every_block_size(monkeypatch, mode, pv, count, n,
                                                              block_bits):
    # A unit's energy is its counts times constants, so each block size, one
    # unit a block included, gives the same floats as one block of every
    # unit, and the oracle's (assert_same: ==, and the sum in cycle order
    # within ENERGY_RTOL).
    targets = [TARGETS[k % len(TARGETS)] for k in range(count)]
    engine, oracle = twins(mode, lambda k: pv, WEAK_RESET, targets=targets)
    whole, _ = twins(mode, lambda k: pv, WEAK_RESET, targets=targets)
    default = sbg._BLOCK_BITS
    monkeypatch.setattr(sbg, "_BLOCK_BITS", count * n)
    generate_array(whole, n)
    monkeypatch.setattr(sbg, "_BLOCK_BITS", block_bits or default)
    assert_same(engine, oracle, n)
    assert engine.energy_nj.tolist() == whole.energy_nj.tolist()


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV], ids=["nominal", "pv"])
@pytest.mark.parametrize("n", [1, 7, 64, 200])
@pytest.mark.parametrize("seed", [3, 41, 2024])
def test_a_run_is_the_prefix_of_every_longer_run(mode, pv, n, seed):
    # A unit draws in cycle order and a bit reads no draw after its cycle,
    # so the first n bits of a run at 200 are the run at n.
    device = SbgDevice(reset_pulse=WEAK_RESET)

    def run(length):
        return generate_array(make_units(device, mode, TARGETS, seed, pv_sigmas=pv), length)

    np.testing.assert_array_equal(run(200)[:, :n], run(n))


unit_specs = st.lists(
    st.tuples(st.one_of(st.sampled_from(TARGETS), st.floats(0.0, 1.0)), st.booleans()),
    min_size=1, max_size=5)


@settings(max_examples=40)
@given(mode=st.sampled_from(list(SbgMode)), specs=unit_specs,
       reset_voltage=st.floats(0.9, 1.9), n=st.integers(1, 200),
       seed=st.integers(0, 2**31 - 1))
def test_engine_matches_oracle_on_random_arrays(mode, specs, reset_voltage, n, seed):
    device = SbgDevice(reset_pulse=PulseSpec(reset_voltage, 7.0, WriteDirection.AP_TO_P))
    calibration = CalibrationCache()
    targets, pv = zip(*specs)
    engine, oracle = (build(mode, targets, seed, pv.__getitem__, device, calibration)
                      for _ in range(2))
    assert_same(engine, oracle, n)


def test_make_units_matches_one_unit_at_a_time():
    # Row k runs, bit for bit, as the per-bit oracle's junction on stream k
    # of the domain, with the process variation of stream k of its own domain.
    targets = [0.3, 0.7, 0.3, 1e-6, 0.7]
    for domain in (DOMAIN_DEVICE, DOMAIN_SELF_SCC, DOMAIN_CROSS_SCC):
        batch = make_units(DEVICE, SbgMode.SELF_CONTROL, targets, 4, domain=domain, pv_sigmas=PV)
        oracle = make_units(DEVICE, SbgMode.SELF_CONTROL, targets, 4)
        for k, p in enumerate(targets):
            single = make_units(DEVICE, SbgMode.SELF_CONTROL, [p], 4)
            assert batch.targets[k] == p
            assert np.array_equal(batch.constants[..., batch.level[k]], single.constants[..., 0])
            rng = rng_for(4, DOMAIN_PROCESS_VARIATION, k)
            _, _, scale = variation_draw(rng, DEVICE.params, *PV)
            assert batch.scale[k] == scale
            oracle.scale[k] = batch.scale[k]
            oracle.rngs[k] = make_junction(DEVICE.params, 4, k, domain=domain).rng
        assert_same(batch, oracle, 40)
        # One level of constants per distinct target.
        assert batch.level.tolist() == [0, 1, 0, 2, 1]
        assert batch.constants.shape == (4, 3, 3)


def test_make_units_takes_no_positional_unit_id():
    # A stale positional id must not become the seeding domain.
    with pytest.raises(TypeError):
        make_units(DEVICE, SbgMode.SIMPLE, [0.5], 1, 0)


def test_make_units_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError):
        make_units(DEVICE, SbgMode.SIMPLE, [0.5, 1.5], 1)


def test_simple_mode_refuses_reset_toward_ap():
    # Every generator resets toward P, so the device refuses any other reset.
    with pytest.raises(ValueError, match="reset pulse must write toward P"):
        SbgDevice(reset_pulse=PulseSpec(1.8, 7.0, WriteDirection.P_TO_AP))
