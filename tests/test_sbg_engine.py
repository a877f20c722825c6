"""generate_array against the per-bit oracle in helpers.scalar_generate.

Each case builds an array, runs it through the array engine and, row by
row, through the oracle on rng_for's stream of the row, and demands exact
equality: bits and energy (==, not approx), the oracle's pulse-by-pulse
writes and reads against sbg.counters, and in self-control mode, which draws
exactly n uniforms a unit, the next draw of every unit's random stream.
Energy is also checked against the oracle's sum in cycle order, within
ENERGY_RTOL.  Self-control arrays whose write probabilities are set by hand,
which the oracle would calibrate away, are checked against a loop one write
at a time over the array's own constants (self_control_loop).
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import rng_for, rngs_for, scalar_generate, variation_draw
from spinsc import sbg
from spinsc.device import PulseSpec, WriteDirection
from spinsc.sbg import (RESET_PULSE, CalibrationCache, SbgDevice, SbgMode, counters,
                        generate_array, make_units)
from spinsc.seeding import (
    DOMAIN_CROSS_SCC,
    DOMAIN_DEVICE,
    DOMAIN_PROCESS_VARIATION,
    DOMAIN_SELF_SCC,
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


SEED = 9


def array_of(mode, pv=lambda k: False, reset_pulse=RESET_PULSE, targets=TARGETS):
    return build(mode, targets, SEED, pv, SbgDevice(reset_pulse=reset_pulse))


def run_engine(array, n):
    """generate_array's bits and energy, and the Generators it drew from in
    row order, captured by wrapping seeding.generators."""
    made = []

    def recording(words):
        rngs = real(words)
        made.extend(rngs)
        return rngs

    real = sbg.generators
    with mock.patch.object(sbg, "generators", recording):
        bits, energy = generate_array(array, n)
    return bits, energy, made


def assert_same(array, n, seed=SEED, domain=DOMAIN_DEVICE):
    """The engine against the oracle, row k of the oracle on
    rng_for(seed, domain, k)."""
    bits, energy, engine_rngs = run_engine(array, n)
    oracle_rngs = [rng_for(seed, domain, row) for row in range(len(array))]
    oracle = [scalar_generate(array, row, n, rng) for row, rng in enumerate(oracle_rngs)]
    assert bits.dtype == np.uint8
    assert bits.shape == (len(array), n)
    assert energy.dtype == np.float64
    assert energy.shape == (len(array),)
    np.testing.assert_array_equal(bits, np.array([run.bits for run in oracle]).reshape(bits.shape))
    assert all((run.writes, run.reads) == counters(array.mode, n) for run in oracle)
    assert energy.tolist() == [run.energy for run in oracle]
    np.testing.assert_allclose(energy, [run.cycle_energy for run in oracle],
                               rtol=ENERGY_RTOL, atol=0)
    if array.mode is SbgMode.SELF_CONTROL:
        assert len(engine_rngs) == len(oracle_rngs)
        for a, b in zip(engine_rngs, oracle_rngs):
            assert a.random() == b.random()
    return bits, energy


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV])
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [1, 2, 97])
def test_engine_matches_per_bit_oracle(mode, pv, reset_pulse, n):
    assert_same(array_of(mode, lambda k: pv is not None, reset_pulse), n)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_mixed_process_variation_in_one_array(mode):
    assert_same(array_of(mode, lambda k: k % 2), 33)


def test_bad_length_and_empty_array():
    array = make_units(DEVICE, SbgMode.SIMPLE, [0.5], 1)
    with pytest.raises(ValueError):
        generate_array(array, 0)
    bits, energy = generate_array(make_units(DEVICE, SbgMode.SIMPLE, [], 1), 4)
    assert (bits.shape, energy.shape) == ((0, 4), (0,))


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("reset_pulse", [RESET_PULSE, WEAK_RESET], ids=["reset", "weak-reset"])
@pytest.mark.parametrize("n", [512, 1000])
def test_long_runs_at_edge_targets(mode, reset_pulse, n):
    # Self-control at 1.0 negates the state every cycle and at 0 keeps it;
    # simple units at 0 behind the strong reset set it to P every token.
    assert_same(array_of(mode, reset_pulse=reset_pulse, targets=EDGE_TARGETS), n)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_units_across_several_blocks(mode):
    n = 700
    count = 2 * (sbg._BLOCK_BITS // n) + 3
    targets = [TARGETS[k % len(TARGETS)] for k in range(count)]
    assert_same(array_of(mode, lambda k: k % 2, WEAK_RESET, targets=targets), n)


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
    array = array_of(mode, lambda k: pv, WEAK_RESET, targets=targets)
    default = sbg._BLOCK_BITS
    monkeypatch.setattr(sbg, "_BLOCK_BITS", count * n)
    _, whole = generate_array(array, n)
    monkeypatch.setattr(sbg, "_BLOCK_BITS", block_bits or default)
    _, energy = assert_same(array, n)
    assert energy.tolist() == whole.tolist()


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, PV], ids=["nominal", "pv"])
@pytest.mark.parametrize("n", [1, 7, 64, 200])
@pytest.mark.parametrize("seed", [3, 41, 2024])
def test_a_run_is_the_prefix_of_every_longer_run(mode, pv, n, seed):
    # A unit draws in cycle order and a bit reads no draw after its cycle,
    # so the first n bits of a run at 200 are the run at n.
    device = SbgDevice(reset_pulse=WEAK_RESET)

    def run(length):
        return generate_array(make_units(device, mode, TARGETS, seed, pv_sigmas=pv), length)[0]

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
    assert_same(build(mode, targets, seed, pv.__getitem__, device, calibration), n, seed)


def test_make_units_matches_one_unit_at_a_time():
    # Row k runs, bit for bit, as the per-bit oracle's junction on stream k
    # of the domain, with the process variation of stream k of its own domain.
    targets = [0.3, 0.7, 0.3, 1e-6, 0.7]
    for domain in (DOMAIN_DEVICE, DOMAIN_SELF_SCC, DOMAIN_CROSS_SCC):
        batch = make_units(DEVICE, SbgMode.SELF_CONTROL, targets, 4, domain=domain, pv_sigmas=PV)
        for k, p in enumerate(targets):
            single = make_units(DEVICE, SbgMode.SELF_CONTROL, [p], 4)
            assert batch.targets[k] == p
            assert np.array_equal(batch.constants[..., batch.level[k]], single.constants[..., 0])
            rng = rng_for(4, DOMAIN_PROCESS_VARIATION, k)
            _, _, scale = variation_draw(rng, DEVICE.params, *PV)
            assert batch.scale[k] == scale
        assert_same(batch, 40, 4, domain)
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


def self_control_loop(array, n, seed=SEED):
    """Self-control bits and energy one write at a time, read straight from
    the array's constants: from P, write k draws one uniform of the row's
    stream and switches iff it lies below q of the direction it writes in;
    its bit is whether it switched.  The energy is the engine's expression
    over the loop's counts, in the engine's order."""
    params, read = array.device.params, np.float64(array.device.read_energy_nj)
    bits, energy = [], []
    for row, rng in enumerate(rngs_for(seed, DOMAIN_DEVICE, range(len(array)))):
        heat, q = array.constants[2:, :, array.level[row]]
        state, ap = 0, 0
        for _ in range(n):
            ap += state
            switched = int(rng.random() < q[2 if state else 1])
            state ^= switched
            bits.append(switched)
        energy.append(heat[0] / params.r_p + (n + 1) * read + ap * (heat[2] / params.r_ap)
                      + (n - ap) * (heat[1] / params.r_p))
    return np.array(bits, dtype=np.uint8).reshape(len(array), n), energy


def first_draw_seen_from_ap(u):
    """The first k whose write sees AP when both of a row's q sit at u[k], so
    that draw k alone lies between them (the last k if no write sees AP): the
    state before k is the parity of the earlier draws below u[k]."""
    seen = [k for k in range(len(u)) if np.count_nonzero(u[:k] < u[k]) % 2]
    return seen[0] if seen else len(u) - 1


@pytest.mark.parametrize("pairs", ["equal", "one-ulp", "far", "pure-and-mixed", "ambiguous"])
@pytest.mark.parametrize("n", [1, 2, 97, 513])
def test_self_control_rows_with_and_without_ambiguous_draws(pairs, n):
    # A row takes the switching scan only where a draw lies between its P->AP
    # and AP->P probabilities.  Each row gets its own constants, with the two
    # write probabilities (constants[3, 1] and [3, 2]) equal, one ulp apart,
    # far apart or, in two rows, u and the float above it for one draw u that
    # a write sees from AP, where the bit depends on the state.  70 rows at
    # n = 513 span three blocks.
    array = make_units(DEVICE, SbgMode.SELF_CONTROL, [TARGETS[k % 6] for k in range(70)], SEED)
    c = array.constants[..., array.level].copy()
    q = c[3]
    for row in range(len(array)):
        kind = ("equal", "one-ulp", "far")[row % 3] if pairs == "pure-and-mixed" else pairs
        if kind == "one-ulp":
            q[2, row] = np.nextafter(q[1, row], row % 2)
        elif kind == "far":
            q[1:, row] = (0.2, 0.7) if row % 2 else (0.7, 0.2)
        else:
            q[2, row] = q[1, row]
    if pairs == "ambiguous":
        for row, lo in ((3, 1), (40, 2)):
            u = rngs_for(SEED, DOMAIN_DEVICE, [row])[0].random(n)
            k = first_draw_seen_from_ap(u)
            q[lo, row], q[3 - lo, row] = u[k], np.nextafter(u[k], 1)
    array = replace(array, constants=c, level=np.arange(len(array)))
    bits, energy = generate_array(array, n)
    expected_bits, expected_energy = self_control_loop(array, n)
    np.testing.assert_array_equal(bits, expected_bits)
    assert energy.tolist() == expected_energy
