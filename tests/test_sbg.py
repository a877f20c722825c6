import numpy as np
import pytest

from spinsc.device import MtjState, PulseSpec, WriteDirection
from spinsc import experiments
from spinsc.experiments import density_sweep, self_scc_table
from spinsc.sbg import (
    RESET_PULSE,
    CalibrationCache,
    SbgArraySpec,
    SbgDevice,
    SbgMode,
    build_array,
    generate,
    generate_array,
    make_unit,
    pulse_energy_nj,
)
from spinsc.stochastic import scc

DEVICE = SbgDevice()


def test_simple_operation_counts():
    unit = make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 1, 0)
    n = 257
    stream = generate(unit, n)
    assert len(stream) == n
    assert (unit.writes, unit.reads) == (2 * n, n)


def test_self_control_operation_counts():
    unit = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.5, 1, 1)
    n = 257
    stream = generate(unit, n)
    assert len(stream) == n
    assert (unit.writes, unit.reads) == (n + 1, n + 1)


def test_mode_mismatch_rejected():
    unit = make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 1, 2)
    other = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.5, 1, 3)
    with pytest.raises(ValueError, match="share a mode"):
        generate_array([unit, other], 8)
    with pytest.raises(ValueError):
        generate(unit, 0)


def test_zero_target_gives_all_zero_stream():
    unit = make_unit(DEVICE, SbgMode.SIMPLE, 0.0, 1, 3)
    assert generate(unit, 256).ones() == 0


def test_full_target_gives_all_ones_stream():
    unit = make_unit(DEVICE, SbgMode.SELF_CONTROL, 1.0, 1, 4)
    stream = generate(unit, 256)
    assert stream.ones() == 256  # every attempt flips, XOR is always 1


def test_self_control_density_converges():
    densities = []
    for repeat in range(200):
        unit = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.3, 5, repeat)
        densities.append(generate(unit, 512).value())
    assert np.mean(densities) == pytest.approx(0.30, abs=0.01)


def test_energy_starts_at_zero_and_grows():
    unit = make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 1, 5)
    assert unit.energy_nj == 0.0
    generate(unit, 16)
    first = unit.energy_nj
    assert first > 0
    generate(unit, 16)
    assert unit.energy_nj > first


def test_pulse_energy_hand_computation():
    # One P->AP pulse at 1.166 V for 5.4 ns against the parallel resistance.
    r_p = 5.0 / (45.0 * 45.0 * 1e-6)
    expected = 1.166 ** 2 * 5.4 / r_p
    assert pulse_energy_nj(PulseSpec(1.166, 5.4, WriteDirection.P_TO_AP), r_p) \
        == pytest.approx(expected, rel=1e-12)

    # A one-bit simple stream from P: the reset and the write both see R_P,
    # and free reads leave only the two pulses.
    unit = make_unit(SbgDevice(read_energy_nj=0.0), SbgMode.SIMPLE, 0.5, 1, 6)
    assert unit.mtj.state is MtjState.P
    generate(unit, 1)
    v = unit.write_pulse_p2ap.voltage
    assert unit.energy_nj == pytest.approx((1.8 ** 2 * 7.0 + v ** 2 * 5.4) / r_p, rel=1e-12)


def test_self_control_energy_at_most_065_of_simple():
    n = 2048
    simple = make_unit(DEVICE, SbgMode.SIMPLE, 0.5, 2, 0)
    generate(simple, n)
    ctrl = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.5, 2, 1)
    generate(ctrl, n)
    assert ctrl.energy_nj <= 0.65 * simple.energy_nj


def test_self_control_energy_monotone_in_probability():
    per_cycle = []
    for k, p in enumerate(np.linspace(0.1, 0.9, 9)):
        unit = make_unit(DEVICE, SbgMode.SELF_CONTROL, float(p), 7, 100 + k)
        generate(unit, 512)
        per_cycle.append(unit.energy_nj / unit.writes)
    assert all(b > a for a, b in zip(per_cycle, per_cycle[1:]))


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
    units = build_array(spec, master_seed=11)
    streams = [generate(u, 512) for u in units]
    for i in range(3):
        for j in range(i + 1, 3):
            assert streams[i] != streams[j]
            assert abs(scc(streams[i], streams[j])) < 0.2


def test_build_array_empty_spec():
    spec = SbgArraySpec((), ())
    assert spec.total_units == 0
    assert build_array(spec, master_seed=1) == []


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


def _refuse_build(*args, **kwargs):
    raise RuntimeError("building started")


def test_density_sweep_id_block_boundary(monkeypatch):
    monkeypatch.setattr(experiments, "make_units", _refuse_build)
    with pytest.raises(ValueError, match="unit-id block"):
        density_sweep((0.5, 0.5), (8,), 5_001, master_seed=1)
    with pytest.raises(RuntimeError, match="building started"):
        density_sweep((0.5, 0.5), (8,), 5_000, master_seed=1)


def test_self_scc_id_block_boundary(monkeypatch):
    # 2 * pairs * len(probs) = 40_000 ends just below the cross-SCC block.
    monkeypatch.setattr(experiments, "make_units", _refuse_build)
    with pytest.raises(ValueError, match="unit-id block"):
        self_scc_table((0.3, 0.7), (8,), 10_001, master_seed=1)
    with pytest.raises(RuntimeError, match="building started"):
        self_scc_table((0.3, 0.7), (8,), 10_000, master_seed=1)


def test_calibration_cache_shared_across_units():
    cache = CalibrationCache()
    u1 = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.37, 1, 10, calibration=cache)
    u2 = make_unit(DEVICE, SbgMode.SELF_CONTROL, 0.37, 1, 11, calibration=cache)
    assert u1.write_pulse_p2ap == u2.write_pulse_p2ap
    assert u1.write_pulse_ap2p == u2.write_pulse_ap2p
