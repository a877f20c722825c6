import math
import re
from statistics import NormalDist

import numpy as np
import pytest

from helpers import scc, switching_time_fraction
from spinsc.device import (MtjParams, PulseSpec, TargetUnreachable, WriteDirection,
                           base_switching_time, switch_probability)
from spinsc import experiments, sbg
from spinsc.experiments import density_sweep, self_scc_table
from spinsc.sbg import (
    RESET_PULSE,
    CalibrationCache,
    SbgArraySpec,
    SbgDevice,
    SbgMode,
    build_array,
    counters,
    generate_array,
    make_units,
    pulse_energy_nj,
)

DEVICE = SbgDevice()


def one_unit(mode, target_p, master_seed, device=DEVICE):
    return make_units(device, mode, [target_p], master_seed)


def test_simple_operation_counts():
    array = one_unit(SbgMode.SIMPLE, 0.5, 1)
    n = 257
    assert generate_array(array, n)[0].shape == (1, n)
    assert counters(SbgMode.SIMPLE, n) == (2 * n, n)


def test_self_control_operation_counts():
    array = one_unit(SbgMode.SELF_CONTROL, 0.5, 1)
    n = 257
    assert generate_array(array, n)[0].shape == (1, n)
    assert counters(SbgMode.SELF_CONTROL, n) == (n + 1, n + 1)


def test_mode_mismatch_rejected():
    # An array has one mode.  A calibration cache that serves both modes
    # keeps their pulses apart, so a simple array carries no AP->P pulse:
    # only the reset's and the P->AP write's constants.
    cache = CalibrationCache()
    make_units(DEVICE, SbgMode.SELF_CONTROL, [0.5], 1, calibration=cache)
    array = make_units(DEVICE, SbgMode.SIMPLE, [0.5], 1, calibration=cache)
    assert array.constants.shape == (4, 2, 1)
    with pytest.raises(ValueError):
        generate_array(array, 0)


def test_zero_target_gives_all_zero_stream():
    array = one_unit(SbgMode.SIMPLE, 0.0, 1)
    assert generate_array(array, 256)[0].sum() == 0


def test_full_target_gives_all_ones_stream():
    array = one_unit(SbgMode.SELF_CONTROL, 1.0, 1)
    # every attempt flips, XOR is always 1
    assert generate_array(array, 256)[0].sum() == 256


def test_self_control_density_converges():
    array = make_units(DEVICE, SbgMode.SELF_CONTROL, [0.3] * 200, 5)
    densities = generate_array(array, 512)[0].sum(axis=1) / 512
    assert np.mean(densities) == pytest.approx(0.30, abs=0.01)


@pytest.mark.parametrize("target", [0.13, 0.5, 0.87])
@pytest.mark.parametrize("scale", [1.0, 1.07], ids=["nominal", "scaled"])
def test_switching_frequencies_follow_the_switching_law(target, scale):
    # Independent of the per-bit oracle: a self-control bit is the state
    # before a write XOR the state after it, so the running XOR of the bits
    # before it is the state a write starts from (P for the first), and the
    # write switched iff its bit is 1.  Each direction's frequency lies within
    # 5 binomial standard deviations of Phi((t/(dt*s) - 1)/sigma_rel), and of
    # a Monte Carlo of the normal switching-time model (both estimates' sds).
    n, draws = 100_000, 1_000_000
    array = one_unit(SbgMode.SELF_CONTROL, target, 8)
    array.scale[0] = scale
    bits = generate_array(array, n)[0][0]
    before = np.bitwise_xor.accumulate(bits) ^ bits
    params, rng = DEVICE.params, np.random.default_rng(5)
    for state, direction in enumerate(WriteDirection):
        pulse = sbg._write_pulse(DEVICE, target, direction)
        dt = base_switching_time(params, pulse) * scale
        law = NormalDist().cdf((pulse.duration / dt - 1.0) / params.sigma_rel)
        switched = bits[before == state]
        freq = switched.mean()
        assert abs(freq - law) <= 5 * math.sqrt(law * (1 - law) / switched.size)
        reference = switching_time_fraction(rng, dt, pulse.duration, params.sigma_rel, draws)
        assert abs(freq - reference) <= 5 * math.sqrt(
            reference * (1 - reference) * (1 / switched.size + 1 / draws))
        # The scale moves the law far enough that ignoring it would show.
        assert scale == 1.0 or abs(freq - target) > 10 * math.sqrt(law * (1 - law) / switched.size)


def test_energy_starts_at_zero_and_grows():
    # A run starts from P with no energy spent, and every bit costs some.
    array = one_unit(SbgMode.SIMPLE, 0.5, 1)
    energies = [generate_array(array, n)[1][0] for n in (1, 2, 16)]
    assert 0 < energies[0] < energies[1] < energies[2]


@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, (0.05, 0.02)], ids=["nominal", "pv"])
@pytest.mark.parametrize("count, block_bits", [(3, None), (7, 2 * 40)], ids=["one-block", "blocks"])
def test_generate_array_runs_again_to_the_same_result(monkeypatch, mode, pv, count, block_bits):
    # An array holds its units' stream seeds, not their streams: a run reads
    # it and writes to none of its columns, so a second run starts every unit
    # afresh from P and returns the same bits and energy.
    if block_bits:
        monkeypatch.setattr(sbg, "_BLOCK_BITS", block_bits)
    array = make_units(DEVICE, mode, np.linspace(0.2, 0.8, count).tolist(), 4, pv_sigmas=pv)
    assert set(vars(array)) == {"device", "mode", "constants", "level", "targets", "scale",
                                "seeds"}
    columns = {name: value.copy() for name, value in vars(array).items()
               if isinstance(value, np.ndarray)}
    bits, energy = generate_array(array, 40)
    again, energy_again = generate_array(array, 40)
    for name, value in columns.items():
        assert np.array_equal(getattr(array, name), value)
    np.testing.assert_array_equal(again, bits)
    assert energy_again.tolist() == energy.tolist()


def test_pulse_energy_hand_computation():
    # One P->AP pulse at 1.166 V for 5.4 ns against the parallel resistance.
    r_p = 5.0 / (45.0 * 45.0 * 1e-6)
    expected = 1.166 ** 2 * 5.4 / r_p
    assert pulse_energy_nj(PulseSpec(1.166, 5.4, WriteDirection.P_TO_AP), r_p) \
        == pytest.approx(expected, rel=1e-12)

    # A one-bit simple stream from P: the reset and the write both see R_P,
    # and free reads leave only the two pulses.
    array = one_unit(SbgMode.SIMPLE, 0.5, 1, SbgDevice(read_energy_nj=0.0))
    _, energy = generate_array(array, 1)
    v = sbg._write_pulse(DEVICE, 0.5, WriteDirection.P_TO_AP).voltage
    assert energy[0] == pytest.approx((1.8 ** 2 * 7.0 + v ** 2 * 5.4) / r_p, rel=1e-12)


def test_self_control_energy_at_most_065_of_simple():
    n = 2048
    _, simple = generate_array(one_unit(SbgMode.SIMPLE, 0.5, 2), n)
    _, ctrl = generate_array(one_unit(SbgMode.SELF_CONTROL, 0.5, 2), n)
    assert ctrl[0] <= 0.65 * simple[0]


def test_self_control_energy_monotone_in_probability():
    array = make_units(DEVICE, SbgMode.SELF_CONTROL, np.linspace(0.1, 0.9, 9).tolist(), 7)
    _, energy = generate_array(array, 512)
    per_cycle = (energy / counters(SbgMode.SELF_CONTROL, 512)[0]).tolist()
    assert all(b > a for a, b in zip(per_cycle, per_cycle[1:]))


@pytest.mark.parametrize("mode", list(SbgMode))
def test_make_units_refuses_a_scaled_switching_time_that_overflows(mode):
    # At tau0 = 2.8e289 s the 0.35 V bias of a target-0 write switches in
    # about 1.65e308 ns, so a unit whose scale exceeds about 1.09 overflows.
    device = SbgDevice(MtjParams(tau0=2.8e289))
    make_units(device, mode, [0.0] * 20, 1)
    message = (r"^tau0 = 2\.8e\+289 s, delta = 45, vc0_p2ap = 0\.7 V: the switching time at "
               r"0\.35 V times process-variation scale 1\.\d+ is infinite$")
    with pytest.raises(ValueError, match=message):
        make_units(device, mode, [0.0] * 20, 1, pv_sigmas=(0.2, 0.02))


def test_reset_pulse_is_fixed():
    assert RESET_PULSE.voltage == 1.8
    assert RESET_PULSE.duration == 7.0
    assert RESET_PULSE.direction is WriteDirection.AP_TO_P


def test_array_spec_validation():
    with pytest.raises(ValueError):
        SbgArraySpec((0.5, 0.4), (1, 1))
    with pytest.raises(ValueError):
        SbgArraySpec((0.5,), (0,))
    with pytest.raises(ValueError):
        SbgArraySpec((0.0,), (1,))
    spec = SbgArraySpec((0.25, 0.75), (2, 3))
    assert spec.total_units == 5
    assert spec.row_levels() == [0.25, 0.25, 0.75, 0.75, 0.75]


def test_build_array_units_are_independent():
    spec = SbgArraySpec((0.5,), (3,))
    streams, _ = generate_array(build_array(spec, master_seed=11), 512)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(streams[i], streams[j])
            assert abs(scc(streams[i], streams[j])) < 0.2


def test_build_array_empty_spec():
    spec = SbgArraySpec((), ())
    assert spec.total_units == 0
    assert len(build_array(spec, master_seed=1)) == 0


def test_build_array_reference_scale():
    # 64 uniform levels with five generators each: the application-scale array.
    levels = tuple((k + 1) / 64 for k in range(64))
    spec = SbgArraySpec(levels, tuple(5 for _ in levels))
    assert spec.total_units == 320


def test_density_error_decreases_with_length():
    probs = tuple(round(0.1 * k, 1) for k in range(1, 10))
    results = density_sweep(probs, (64, 128, 256), repeats=50, master_seed=20260801)
    errors = [r.avg_error for r in results]
    assert errors[0] > errors[1] > errors[2]


def test_self_scc_decreases_with_length_per_probability():
    probs = (0.1, 0.3, 0.5, 0.7, 0.9)
    lengths = (64, 128, 256, 512)
    rows = self_scc_table(probs, lengths, pairs=20, master_seed=20260801)
    for p in probs:
        series = [v for (pp, n, v) in rows if pp == p]
        assert all(a > b for a, b in zip(series, series[1:])), f"p={p}: {series}"


def _refuse_build(device, mode, targets, *args, **kwargs):
    raise RuntimeError(f"building {len(targets)} units")


def test_density_sweep_has_no_unit_cap(monkeypatch):
    # One unit past the 10_000 a density sweep was once refused beyond.
    monkeypatch.setattr(experiments, "make_units", _refuse_build)
    with pytest.raises(RuntimeError, match="building 10001 units"):
        density_sweep((0.5,), (8,), 10_001, master_seed=1)


def test_self_scc_table_has_no_unit_cap(monkeypatch):
    # One pair past the 40_000 units a self-SCC table was once refused beyond.
    monkeypatch.setattr(experiments, "make_units", _refuse_build)
    with pytest.raises(RuntimeError, match="building 40002 units"):
        self_scc_table((0.5,), (8,), 20_001, master_seed=1)


def test_calibration_cache_shared_across_units(monkeypatch):
    calls = []
    real_calibrate = sbg.calibrate_voltage

    def counting_calibrate(*args):
        calls.append(args)
        return real_calibrate(*args)

    monkeypatch.setattr(sbg, "calibrate_voltage", counting_calibrate)
    cache = CalibrationCache()
    first = make_units(DEVICE, SbgMode.SELF_CONTROL, [0.37], 1, calibration=cache)
    assert len(calls) == 2            # one pulse per write direction
    second = make_units(DEVICE, SbgMode.SELF_CONTROL, [0.37, 0.37], 1, calibration=cache)
    assert len(calls) == 2
    assert np.array_equal(second.constants, first.constants)


@pytest.mark.parametrize("mode", list(SbgMode))
def test_pulse_constants_computed_once_per_cached_target(monkeypatch, mode):
    # The reset's and the write pulses' switching times are computed when a
    # target is first calibrated in a cache, and never by generate_array.
    calls = []
    real_time = sbg.base_switching_time

    def counting_time(params, pulse):
        calls.append(pulse)
        return real_time(params, pulse)

    monkeypatch.setattr(sbg, "base_switching_time", counting_time)
    cache = CalibrationCache()
    per_target = 2 if mode is SbgMode.SIMPLE else 3
    array = make_units(DEVICE, mode, [0.37, 0.6, 0.37], 1, calibration=cache)
    assert len(calls) == 2 * per_target
    generate_array(array, 64)
    generate_array(make_units(DEVICE, mode, [0.6, 0.37], 2, calibration=cache), 64)
    assert len(calls) == 2 * per_target
    assert array.constants.shape == (4, per_target, 2)


def test_only_targets_below_the_range_fall_back_to_subcritical_bias():
    # 0 lies below the probability at 1.02 vc0 in both directions, so it
    # gets half the critical voltage; 1e-6 lies above it and is calibrated.
    params = DEVICE.params
    p2ap, ap2p = (sbg._write_pulse(DEVICE, 0.0, direction) for direction in WriteDirection)
    assert (p2ap.voltage, ap2p.voltage) == (0.5 * params.vc0_p2ap, 0.5 * params.vc0_ap2p)
    p2ap, ap2p = (sbg._write_pulse(DEVICE, 1e-6, direction) for direction in WriteDirection)
    assert p2ap.voltage > 1.02 * params.vc0_p2ap and ap2p.voltage > 1.02 * params.vc0_ap2p


def test_subcritical_fallback_must_meet_its_target():
    # At the default delta the half-critical bias switches with p ~ 3e-7,
    # within tolerance of target 0; at delta = 1 its thermal switching time
    # is a few ns, so it switches always and target 0 is refused.
    pulse = sbg._write_pulse(DEVICE, 0.0, WriteDirection.P_TO_AP)
    assert 0 < switch_probability(DEVICE.params, pulse) < 1e-6
    message = ("no p2ap voltage meets target 0.0 within 0.0001 at 5.4 ns: 0.35 V switches "
               "with probability 1")
    with pytest.raises(TargetUnreachable, match=f"^{re.escape(message)}$"):
        sbg._write_pulse(SbgDevice(MtjParams(delta=1.0)), 0.0, WriteDirection.P_TO_AP)

