import numpy as np
import pytest

from spinsc.cost import (
    FPGA_BASELINE,
    MTJ_BASELINE,
    SHARED_ARRAY_REFERENCE,
    CostProfile,
    compare,
    comparison_table,
    cost_metrics,
    simulated_profile,
    totals,
)
from spinsc.fusion import FusionPipeline, make_problem


def test_reference_row_totals():
    e, t = totals(SHARED_ARRAY_REFERENCE)
    assert e == pytest.approx(0.09984, rel=1e-12)  # reported as 0.10 uJ
    assert t == pytest.approx(1.28, rel=1e-12)

    e, t = totals(MTJ_BASELINE)
    assert e == pytest.approx(1.17248, rel=1e-12)  # 1.17 uJ at 3 figures
    assert t == pytest.approx(10.24, rel=1e-12)

    e, t = totals(FPGA_BASELINE)
    assert e == pytest.approx(2.6368, rel=1e-12)  # 2.64 uJ at 3 figures
    assert t == pytest.approx(2.56, rel=1e-12)


def test_zero_cycles_zero_totals():
    profile = CostProfile("idle", 1.0, 1.0, 0)
    assert totals(profile) == (0.0, 0.0)


def test_energy_ratios():
    assert compare(MTJ_BASELINE, SHARED_ARRAY_REFERENCE) == pytest.approx(11.7, abs=0.05)
    assert compare(FPGA_BASELINE, SHARED_ARRAY_REFERENCE) == pytest.approx(26.4, abs=0.05)
    assert compare(MTJ_BASELINE, MTJ_BASELINE) == 1.0


def test_simulated_profile_linear_in_length():
    problem = make_problem(grid_w=8, grid_h=8)
    pipeline = FusionPipeline(problem)
    _, stats_n = pipeline.run(64, 3)
    _, stats_2n = pipeline.run(128, 3)
    p_n = simulated_profile(stats_n)
    p_2n = simulated_profile(stats_2n)
    e_n, _ = totals(p_n)
    e_2n, _ = totals(p_2n)
    assert e_2n == pytest.approx(2.0 * e_n, rel=0.05)
    assert p_2n.e_cyc_nj == pytest.approx(p_n.e_cyc_nj, rel=0.05)
    assert p_n.e_cyc_nj == stats_n.total_energy_nj / stats_n.n_cycles
    # Only the energy is simulated; the cycle time is the cited reference's.
    assert p_n.t_cyc_ns == p_2n.t_cyc_ns == SHARED_ARRAY_REFERENCE.t_cyc_ns


def test_self_control_cheaper_than_simple_per_cycle():
    from spinsc.sbg import SbgMode

    problem = make_problem(grid_w=8, grid_h=8)
    self_ctl = FusionPipeline(problem, mode=SbgMode.SELF_CONTROL)
    simple = FusionPipeline(problem, mode=SbgMode.SIMPLE)
    _, stats_self = self_ctl.run(128, 3)
    _, stats_simple = simple.run(128, 3)
    assert simulated_profile(stats_self).e_cyc_nj < simulated_profile(stats_simple).e_cyc_nj


def test_simulated_energy_same_order_as_reference():
    # Full application scale: per-cycle array energy within one order of
    # magnitude of the 0.78 nJ reference constant.
    problem = make_problem(grid_w=32, grid_h=32)
    pipeline = FusionPipeline(problem)
    _, stats = pipeline.run(128, 3)
    ratio = simulated_profile(stats).e_cyc_nj / SHARED_ARRAY_REFERENCE.e_cyc_nj
    assert 0.1 <= ratio <= 10.0


def test_k_energy_identity_with_run_scale():
    problem = make_problem(grid_w=16, grid_h=16)
    pipeline = FusionPipeline(problem)
    k_energy, _ = cost_metrics(pipeline.num_terminals, pipeline.spec.total_units,
                               pipeline.matrix.control.shape[1])
    assert k_energy == pipeline.spec.total_units / pipeline.num_terminals


def test_comparison_rows_mirror_profiles():
    header, columns = comparison_table()
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    labels = [r["method"] for r in rows]
    assert labels == ["fpga", "mtj-direct", "shared-sbg"]
    shared = rows[-1]
    assert shared["e_tot_uj"] == pytest.approx(0.09984)
    assert shared["n_cmos_k"] == 1200.0
    assert rows[0]["n_cmos_k"] == ""


def test_cost_metrics_reference_rows():
    k_e, k_c = cost_metrics(6144, 320, 2817)
    assert k_e == pytest.approx(0.052, abs=5e-4)
    assert np.floor(k_c * 100) / 100 == 1.64
    k_e, k_c = cost_metrics(24576, 320, 5557)
    assert k_e == pytest.approx(0.013, abs=5e-4)
    assert np.floor(k_c * 100) / 100 == 0.79


def test_cost_metrics_degenerate_no_sharing():
    assert cost_metrics(100, 100, 0) == (1.0, 1.0)


def test_cost_metrics_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cost_metrics(0, 1, 1)


def test_profile_validation():
    with pytest.raises(ValueError):
        CostProfile("bad", -1.0, 1.0, 1)
