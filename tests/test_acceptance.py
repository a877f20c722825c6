"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria run at fixed seeds, so every run reproduces the same
numbers; tolerances are asserted exactly as stated, never recomputed from
the observed data.
"""

import filecmp
import math

import numpy as np
import pytest

import helpers
from helpers import as_columns, first_fit_size, rows_in_use, scc
from conftest import (REFERENCE_ASSIGNMENT, REFERENCE_ASSIGNMENT_PATH, REFERENCE_NETLIST,
                      REFERENCE_NETLIST_PATH)
from spinsc.allocator import (
    CapacityExceeded,
    allocate,
    verify_allocation,
)
from spinsc.cli import main as cli_main
from spinsc.cost import (FPGA_BASELINE, MTJ_BASELINE, SHARED_ARRAY_REFERENCE, compare,
                         cost_metrics, totals)
from spinsc.device import MtjParams, PulseSpec, WriteDirection, switch_probability
from spinsc.experiments import (
    cross_scc_table,
    density_sweep,
    kl_by_length,
    self_scc_table,
)
from spinsc.fusion import exact_posterior, likelihood_channels, make_problem
from spinsc.logic import ScNetlist, extract_conflict_sets
from spinsc.sbg import SbgArraySpec, SbgDevice, SbgMode, counters, generate_array, make_units

MASTER_SEED = 20260801
PARAMS = MtjParams()
DEVICE = SbgDevice(PARAMS)
SWEEP_PROBS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def report(criterion: int, label: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} PASS: {label}")


def test_criterion_01_calibration_anchors():
    p_reset = switch_probability(PARAMS, PulseSpec(1.8, 7.0, WriteDirection.AP_TO_P))
    p_half = switch_probability(PARAMS, PulseSpec(1.166, 5.4, WriteDirection.P_TO_AP))
    assert p_reset >= 0.999
    assert abs(p_half - 0.5) <= 0.02
    report(1, f"reset anchor {p_reset:.5f} >= 0.999, half anchor {p_half:.4f} = 0.50 +/- 0.02")


def test_criterion_02_bitstream_accuracy_trend():
    results = density_sweep(SWEEP_PROBS, (64, 128, 256), repeats=50,
                            master_seed=MASTER_SEED)
    errors = {r.length: r.avg_error for r in results}
    assert errors[64] > errors[128] > errors[256]
    assert errors[64] <= 0.03
    assert errors[128] <= 0.015
    assert errors[256] <= 0.012
    report(2, "mean density error " + ", ".join(
        f"n={n}: {errors[n]:.5f}" for n in (64, 128, 256)))


def test_criterion_03_scc_suite():
    array = make_units(DEVICE, SbgMode.SELF_CONTROL, [0.5], MASTER_SEED)
    stream = generate_array(array, 256)[0][0]
    assert 0 < stream.sum() < len(stream)
    assert scc(stream, stream) == 1.0
    assert scc(stream, 1 - stream) == -1.0

    lengths = (64, 128, 256, 512)
    self_rows = self_scc_table((0.1, 0.3, 0.5, 0.7, 0.9), lengths, pairs=20,
                               master_seed=MASTER_SEED)
    cross_rows = cross_scc_table(((0.19, 0.41), (0.12, 0.48), (0.49, 0.25),
                                  (0.23, 0.44), (0.18, 0.58)), lengths,
                                 pairs=20, master_seed=MASTER_SEED)
    self_mean = helpers.mean_abs_scc_by_length(self_rows, lengths)
    cross_mean = helpers.mean_abs_scc_by_length(cross_rows, lengths)
    for series in (self_mean, cross_mean):
        values = [series[n] for n in lengths]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert series[512] < 0.2
    report(3, f"self |SCC| {self_mean[512]:.4f} and cross |SCC| "
              f"{cross_mean[512]:.4f} at n=512, both decreasing")


def test_criterion_04_conflict_extraction_golden():
    net = ScNetlist.parse(REFERENCE_NETLIST)
    sets = extract_conflict_sets(net)
    assert sets == [frozenset({"T1", "T2", "T5"}),
                    frozenset({"T3", "T4", "T5"}),
                    frozenset({"T6", "T7", "T8", "T9"})]
    levels, columns = as_columns(REFERENCE_ASSIGNMENT, sets, net.terminals)
    spec = first_fit_size(levels, columns, SbgMode.SELF_CONTROL)
    matrix = allocate(levels, spec, columns)
    assert spec.total_units == 7
    assert len(rows_in_use(matrix)) == 7
    assert verify_allocation(matrix, columns, levels) == []
    report(4, "reference netlist yields the three conflict sets and M = 7")


def test_criterion_05_allocation_legality_property():
    rng = np.random.default_rng(MASTER_SEED)
    levels_pool = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    checked = 0
    capacity_probes = 0
    for _ in range(1000):
        net = helpers.random_netlist(rng, max_terminals=50, max_gates=10)
        sets = extract_conflict_sets(net)
        n_levels = int(rng.integers(2, 7))
        levels = sorted(rng.choice(levels_pool, size=n_levels, replace=False))
        assignment = helpers.random_assignment(rng, net, [float(v) for v in levels])

        col_levels, columns = as_columns(assignment, sets, net.terminals)
        spec = first_fit_size(col_levels, columns, SbgMode.SELF_CONTROL)
        matrix = allocate(col_levels, spec, columns)
        assert verify_allocation(matrix, columns, col_levels) == []
        checked += 1

        # Per-set demand per level; undersizing any level below its worst
        # per-set demand must raise CapacityExceeded.
        demand: dict[float, int] = {}
        for group in sets:
            per_level: dict[float, int] = {}
            for t in group:
                per_level[assignment[t]] = per_level.get(assignment[t], 0) + 1
            for lvl, count in per_level.items():
                demand[lvl] = max(demand.get(lvl, 0), count)
        squeezable = [lvl for lvl, d in demand.items() if d >= 2]
        if squeezable:
            victim = squeezable[int(rng.integers(0, len(squeezable)))]
            multiplicity = tuple(
                demand[lvl] - 1 if lvl == victim else m
                for lvl, m in zip(spec.levels, spec.multiplicity))
            undersized = SbgArraySpec(spec.levels, multiplicity, spec.mode)
            with pytest.raises(CapacityExceeded):
                allocate(col_levels, undersized, columns)
            capacity_probes += 1
    assert checked == 1000
    assert capacity_probes > 100
    report(5, f"1000 random allocations legal; {capacity_probes} undersized "
              f"probes all raised CapacityExceeded")


def test_criterion_06_cost_formulas():
    k_e, k_c = cost_metrics(6144, 320, 2817)
    assert math.floor(k_e * 1000) / 1000 == 0.052
    assert math.floor(k_c * 100) / 100 == 1.64
    k_e, k_c = cost_metrics(24576, 320, 5557)
    assert math.floor(k_e * 1000) / 1000 == 0.013
    assert math.floor(k_c * 100) / 100 == 0.79

    e_tot, t_tot = totals(SHARED_ARRAY_REFERENCE)
    assert round(e_tot, 2) == 0.10
    assert t_tot == pytest.approx(1.28, abs=1e-12)
    assert compare(MTJ_BASELINE, SHARED_ARRAY_REFERENCE) == pytest.approx(11.7, abs=0.05)
    assert compare(FPGA_BASELINE, SHARED_ARRAY_REFERENCE) == pytest.approx(26.4, abs=0.05)
    report(6, "scale ratios (0.052, 1.64)/(0.013, 0.79) and platform totals reproduce")


def test_criterion_07_operation_counts_and_energy():
    n = 2048
    _, simple = generate_array(make_units(DEVICE, SbgMode.SIMPLE, [0.5], MASTER_SEED), n)
    assert counters(SbgMode.SIMPLE, n) == (2 * n, n)

    _, ctrl = generate_array(make_units(DEVICE, SbgMode.SELF_CONTROL, [0.5], MASTER_SEED), n)
    assert counters(SbgMode.SELF_CONTROL, n) == (n + 1, n + 1)

    ratio = ctrl[0] / simple[0]
    assert ratio <= 0.65
    report(7, f"op counts exact; self-control energy ratio {ratio:.3f} <= 0.65")


def test_criterion_08_fusion_end_to_end():
    problem = make_problem(grid_w=32, grid_h=32, target_xy=(40.0, 22.0))
    exact = exact_posterior(likelihood_channels(problem))
    assert exact.argmax() == (20, 11)  # the cell at plane position (40, 22)

    seeds = tuple(range(10))
    kl = kl_by_length(problem, (64, 128, 256), seeds)
    means = {n: float(np.mean(v)) for n, v in kl.items()}
    assert means[64] > means[128] > means[256]
    assert means[128] <= 0.05
    report(8, "exact argmax at target; mean KL " + ", ".join(
        f"n={n}: {means[n]:.4f}" for n in (64, 128, 256)))


def test_criterion_09_process_variation_errors():
    results = density_sweep(SWEEP_PROBS, (64, 128, 256), repeats=50,
                            master_seed=MASTER_SEED, pv_sigmas=(0.05, 0.02))
    errors = {r.length: r.avg_error for r in results}
    reference = {64: 0.0460, 128: 0.0336, 256: 0.0269}
    assert errors[64] > errors[128] > errors[256]
    for n, bound in reference.items():
        assert errors[n] <= 2.0 * bound
    report(9, "variation-aware density error " + ", ".join(
        f"n={n}: {errors[n]:.5f} <= {2 * reference[n]:.4f}" for n in (64, 128, 256)))


DETERMINISM_CONFIG = """\
[run]
master_seed = 13
bitstream_len = 32

[fusion]
grid = 8x8

[report]
scc_pairs = 3
scc_lengths = 32,64
scc_probs = 0.3,0.7
scc_cross = 0.2,0.6
sweep_repeats = 5
sweep_lengths = 32,64
sweep_probs = 0.3,0.5
characterize_voltages = 1.0,1.3
characterize_durations = 2.0,5.4
"""


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(DETERMINISM_CONFIG, encoding="utf-8")

    commands = [
        ("sbg-characterize",),
        ("array-report",),
        ("scc-report",),
        ("allocate", "--netlist", str(REFERENCE_NETLIST_PATH),
         "--assignment", str(REFERENCE_ASSIGNMENT_PATH)),
        ("fusion-run",),
        ("cost-report",),
        ("pv-sweep",),
    ]
    for command in commands:
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / command[0] / run_dir
            code = cli_main(["--config", str(config), "--out-dir", str(out), *command])
            assert code == 0
            outputs.append(sorted(p for p in out.iterdir() if p.is_file()))
        names_a = [p.name for p in outputs[0]]
        names_b = [p.name for p in outputs[1]]
        assert names_a == names_b and names_a
        for fa, fb in zip(outputs[0], outputs[1]):
            assert filecmp.cmp(fa, fb, shallow=False), f"{command[0]}: {fa.name} differs"
    report(10, f"{len(commands)} subcommands re-ran byte-identically")
