import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsc.allocator import verify_allocation
from spinsc.fusion import (
    CHANNELS,
    MAX_LEVEL_COUNT,
    FusionPipeline,
    FusionProblem,
    PosteriorGrid,
    SensorReading,
    bearing_deg,
    condition_channels,
    exact_posterior,
    kl_divergence,
    likelihood_channels,
    make_problem,
    quantize_levels,
    synthesize_readings,
)
from spinsc.logic import extract_conflict_sets
from spinsc.sbg import SbgMode

from helpers import (angular_residual, build_sc_network, generic_fusion_plan,
                     likelihood_channels_reference, likelihoods, oracle_run,
                     quantize_levels_reference)


def problem_64(target=(40.0, 22.0), **kw):
    return make_problem(grid_w=64, grid_h=64, target_xy=target, **kw)


def test_likelihood_hand_example():
    # Sensor at the origin, cell (3, 4): the distance is exactly 5, so the
    # density sits at the Gaussian peak 1 / (sqrt(2*pi) * (5 + 5/10)).
    readings = (SensorReading(5.0, bearing_deg((0, 0), (3, 4))),
                SensorReading(1.0, 0.0), SensorReading(1.0, 0.0))
    problem = FusionProblem(grid_w=64, grid_h=64, readings=readings)
    values = likelihoods(problem, (3, 4))
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * 5.5)
    assert values[0] == pytest.approx(expected, rel=1e-12)


def test_likelihood_peaks_at_measured_cell():
    problem = problem_64()
    peak = likelihoods(problem, (40, 22))
    for other in ((39, 22), (41, 22), (40, 21), (0, 0)):
        vals = likelihoods(problem, other)
        assert all(p >= v for p, v in zip(peak, vals))


def test_bearing_wraparound_residual():
    assert angular_residual(359.0, 1.0) == pytest.approx(2.0)
    assert angular_residual(1.0, 359.0) == pytest.approx(2.0)
    assert angular_residual(10.0, 190.0) == pytest.approx(180.0)


def test_channel_grid_matches_pointwise():
    problem = make_problem(grid_w=16, grid_h=16)
    channels = likelihood_channels(problem)
    for cell in ((0, 0), (3, 7), (15, 15)):
        vals = likelihoods(problem, cell)
        for i in range(6):
            assert channels[i, cell[0], cell[1]] == pytest.approx(vals[i], rel=1e-12)
    # the sigma floors keep every density inside (0, 1)
    assert np.all(channels > 0.0)
    assert np.all(channels < 1.0)


def test_exact_posterior_normalized_with_argmax_at_target():
    problem = make_problem(grid_w=32, grid_h=32, target_xy=(40.0, 22.0))
    post = exact_posterior(likelihood_channels(problem))
    assert post.total() == pytest.approx(1.0, abs=1e-12)
    assert post.argmax() == (20, 11)  # cell (20, 11) sits at plane (40, 22)


def test_uniform_weights_normalize_to_uniform():
    grid = PosteriorGrid(np.ones((4, 4))).normalize()
    assert np.allclose(grid.weights, 1.0 / 16.0)
    assert grid.argmax() == (0, 0)  # ties resolve lexicographically


def test_argmax_ties_resolve_in_cell_order_for_any_layout():
    # Memory order would pick (3, 2) first in a Fortran-ordered grid.
    weights = np.zeros((5, 7))
    weights[1, 6] = weights[3, 2] = 1.0
    fortran = PosteriorGrid(np.asfortranarray(weights))
    assert fortran.weights.flags.f_contiguous and not fortran.weights.flags.c_contiguous
    assert fortran.argmax() == (1, 6)
    assert PosteriorGrid(weights.T).argmax() == (2, 3)
    assert PosteriorGrid(weights[::-1, ::-1]).argmax() == (1, 4)


def test_bearing_just_below_the_axis_wraps_to_zero():
    # atan2 gives a tiny negative angle, whose % 360.0 rounds to 360.0.
    target = (40.0, 31.999999999999996)
    assert bearing_deg((0.0, 32.0), target) == 0.0
    assert make_problem(grid_w=4, grid_h=4, target_xy=target).readings[1].mu_b == 0.0


BELOW_360 = float(np.nextafter(360.0, 0.0))


def _random_bearing_problem(rng):
    # Sensors on cell positions (bearings arctan2(0, x) and arctan2(y, 0)) or
    # anywhere around the plane, bearing readings anywhere or at the ends of
    # [0, 360).
    w, h = (int(v) for v in rng.integers(1, 49, size=2))
    plane = float(rng.uniform(1.0, 100.0))
    if rng.random() < 0.5:
        cells = rng.integers(-2, 2 + max(w, h), size=(3, 2))
        sensors = tuple((float(x) * plane / w, float(y) * plane / h) for x, y in cells)
    else:
        sensors = tuple(tuple(float(v) for v in xy)
                        for xy in rng.uniform(-0.5 * plane, 1.5 * plane, size=(3, 2)))
    readings = tuple(SensorReading(float(rng.uniform(0.0, plane)),
                                   float(rng.choice([0.0, BELOW_360, 180.0, 90.0,
                                                     rng.uniform(0.0, 360.0)])))
                     for _ in range(3))
    return FusionProblem(grid_w=w, grid_h=h, plane=plane, sensors=sensors, readings=readings,
                         sigma_b=float(rng.uniform(0.5, 40.0)))


def test_likelihood_channels_equal_the_remainder_form_bytewise():
    below_axis = (40.0, 31.999999999999996)
    # A sensor just above a row of cells sees it at tiny negative angles,
    # whose % 360.0 rounds to 360.0.
    just_off = ((0.0, 32.000000000000007), (64.0, 0.0), (32.0, 64.0))
    edges = (SensorReading(10.0, 0.0), SensorReading(20.0, BELOW_360), SensorReading(30.0, 180.0))
    problems = [make_problem(grid_w=4, grid_h=4, target_xy=below_axis),
                make_problem(grid_w=32, grid_h=32, target_xy=below_axis),
                make_problem(grid_w=40, grid_h=3, noise_b=20.0, master_seed=7),
                make_problem(grid_w=1, grid_h=1),
                FusionProblem(grid_w=32, grid_h=32, readings=edges),
                FusionProblem(grid_w=9, grid_h=7, sensors=just_off, readings=edges[::-1]),
                FusionProblem(grid_w=32, grid_h=16, sensors=just_off, readings=edges)]
    rng = np.random.default_rng(40)
    problems += [_random_bearing_problem(rng) for _ in range(200)]
    for problem in problems:
        assert likelihood_channels(problem).tobytes() \
            == likelihood_channels_reference(problem).tobytes(), problem


def test_synthesized_readings_noise_free_geometry():
    readings = synthesize_readings(((0.0, 0.0),), (3.0, 4.0))
    assert readings[0].mu_d == pytest.approx(5.0)
    assert readings[0].mu_b == pytest.approx(math.degrees(math.atan2(4, 3)))


def test_synthesized_readings_noise_deterministic():
    a = synthesize_readings(((0.0, 0.0),), (3.0, 4.0), noise_d=1.0, master_seed=3)
    b = synthesize_readings(((0.0, 0.0),), (3.0, 4.0), noise_d=1.0, master_seed=3)
    assert a == b
    c = synthesize_readings(((0.0, 0.0),), (3.0, 4.0), noise_d=1.0, master_seed=4)
    assert c != a


def test_conditioning_preserves_exact_posterior():
    problem = make_problem(grid_w=16, grid_h=16)
    channels = likelihood_channels(problem)
    raw = PosteriorGrid(np.prod(channels, axis=0)).normalize()
    conditioned = PosteriorGrid(np.prod(condition_channels(channels), axis=0)).normalize()
    assert np.allclose(raw.weights, conditioned.weights, atol=1e-12)
    assert raw.argmax() == conditioned.argmax()


def test_quantizer_grid_and_ties():
    levels = 4  # grid {0.25, 0.5, 0.75, 1.0}
    vals = np.array([1.0, 0.9, 0.26, 0.125, 1e-9])
    out = quantize_levels(vals, levels)
    assert out.tolist() == [4, 4, 1, 1, 1]
    # 0.125 is the 0.25/0.5 midpoint scaled down: exactly between 0 and 0.25,
    # and the excluded zero level forces it up to level 1; a true midpoint
    # between two positive levels resolves to the lower one:
    assert quantize_levels(np.array([0.375]), levels).tolist() == [1]


@pytest.mark.parametrize("level_count", [1, 3, 64, 1000, 65536])
def test_quantizer_equals_the_three_step_oracle(level_count):
    # ceil(scaled - 0.5) in one expression: scaled - 0.5 is exact for
    # scaled >= 0.25, and below that both forms clip to level 1.  Every
    # midpoint and level, their one-ulp neighbours, the 0.25 / L edge and
    # random values.
    k = np.arange(level_count + 1, dtype=np.float64)
    points = np.concatenate([(k + 0.5) / level_count, k / level_count, [0.25 / level_count]])
    values = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0),
                             np.random.default_rng(level_count).random(100_000)])
    out = quantize_levels(values, level_count)
    assert out.dtype == np.intp
    np.testing.assert_array_equal(out, quantize_levels_reference(values, level_count))


def test_network_scale_and_conflict_structure():
    problem = make_problem(grid_w=32, grid_h=32)
    net, assignment = build_sc_network(problem)
    assert len(net.terminals) == 6 * 32 * 32 == 6144
    assert len(net.outputs) == 32 * 32
    sets = extract_conflict_sets(net)
    assert len(sets) == 1024
    assert all(len(s) == 6 for s in sets)
    cell = [t for t in net.terminals if t.startswith("x0y0_")]
    assert frozenset(cell) in sets
    assert set(assignment) == set(net.terminals)


def test_network_scale_64():
    problem = make_problem(grid_w=64, grid_h=64)
    net, _ = build_sc_network(problem)
    assert len(net.terminals) == 24576


@pytest.mark.parametrize("grid, level_count, noise, mode", [
    ((8, 8), 64, 0.0, SbgMode.SELF_CONTROL),
    ((16, 16), 64, 0.0, SbgMode.SELF_CONTROL),
    ((32, 32), 64, 0.0, SbgMode.SELF_CONTROL),
    ((12, 20), 64, 0.0, SbgMode.SELF_CONTROL),
    ((16, 16), 64, 4.0, SbgMode.SELF_CONTROL),
    ((16, 16), 4, 0.0, SbgMode.SELF_CONTROL),
    ((20, 12), 256, 2.0, SbgMode.SELF_CONTROL),
    ((12, 20), 64, 0.0, SbgMode.SIMPLE),
    # Level counts whose levels k/L are not exact binary fractions.
    ((16, 16), 3, 0.0, SbgMode.SELF_CONTROL),
    ((16, 16), 10, 2.0, SbgMode.SELF_CONTROL),
    ((20, 12), 100, 0.0, SbgMode.SIMPLE),
])
def test_pipeline_matches_generic_preparation(grid, level_count, noise, mode):
    problem = make_problem(grid_w=grid[0], grid_h=grid[1], noise_d=noise, noise_b=3.0 * noise,
                           master_seed=9)
    pipeline = FusionPipeline(problem, level_count=level_count, mode=mode)
    spec, matrix, cell_rows, num_clusters = generic_fusion_plan(problem, level_count, mode)
    assert pipeline.spec == spec
    assert np.array_equal(pipeline.matrix.control, matrix.control)
    assert pipeline.matrix.row_levels == matrix.row_levels
    assert np.array_equal(pipeline.cell_rows, cell_rows)
    assert pipeline.cell_rows.dtype == cell_rows.dtype
    assert pipeline.matrix.control.shape[1] == num_clusters
    # Each cluster takes its own row, in order: the matrix is the identity.
    assert np.array_equal(pipeline.matrix.control, np.eye(spec.total_units, dtype=np.uint8))
    assert pipeline.num_terminals == 6 * grid[0] * grid[1]

    # The pipeline hands allocate one conflict set per level.  The per-cell
    # sets (one per AND chain; a cell's rows are its columns, the matrix
    # being the identity) have exactly its edges among same-level columns,
    # the only edges first-fit reads.
    per_cell_sets = [set(rows) for rows in cell_rows.tolist()]
    levels = list(matrix.row_levels)

    def edges(sets, same_level_only):
        return {(a, b) for group in sets for a, b in combinations(sorted(group), 2)
                if not same_level_only or levels[a] == levels[b]}

    assert edges(per_cell_sets, True) == edges(pipeline.cluster_sets, False)
    assert len(pipeline.cluster_sets) <= len(set(levels))
    assert verify_allocation(pipeline.matrix, per_cell_sets, levels) == []


def test_level_count_is_bounded():
    problem = make_problem(grid_w=2, grid_h=2)
    assert FusionPipeline(problem, level_count=MAX_LEVEL_COUNT).spec.total_units > 0
    for level_count in (0, MAX_LEVEL_COUNT + 1):
        with pytest.raises(ValueError, match="level count must lie in"):
            FusionPipeline(problem, level_count=level_count)


def test_analytic_limit_equals_quantized_exact():
    problem = make_problem(grid_w=16, grid_h=16)
    pipeline = FusionPipeline(problem)
    limit = pipeline.analytic_estimate()
    channels = quantize_levels(
        condition_channels(likelihood_channels(problem)), 64) / 64
    oracle = PosteriorGrid(np.prod(channels, axis=0)).normalize()
    assert np.allclose(limit.weights, oracle.weights, atol=1e-12)


def test_sc_posterior_deterministic_and_normalized():
    problem = make_problem(grid_w=8, grid_h=8)
    a = FusionPipeline(problem).run(64, 5)[0]
    b = FusionPipeline(problem).run(64, 5)[0]
    assert np.array_equal(a.weights, b.weights)
    assert a.total() == pytest.approx(1.0, abs=1e-12)
    c = FusionPipeline(problem).run(64, 6)[0]
    assert not np.array_equal(a.weights, c.weights)


@pytest.mark.parametrize("grid", [(3, 5), (16, 16), (1, 1), (40, 3)])
@pytest.mark.parametrize("mode", list(SbgMode))
@pytest.mark.parametrize("pv", [None, (0.05, 0.02)])
def test_run_counts_equal_bytewise_oracle(grid, mode, pv):
    # Stream lengths around the packed byte and word boundaries.
    problem = make_problem(grid_w=grid[0], grid_h=grid[1])
    pipeline = FusionPipeline(problem, mode=mode)
    for n in (1, 7, 8, 9, 63, 64, 65, 129):
        estimate, stats = pipeline.run(n, 11, pv_sigmas=pv)
        oracle_estimate, oracle_stats = oracle_run(pipeline, n, 11, pv_sigmas=pv)
        assert np.array_equal(estimate.weights, oracle_estimate.weights)
        assert stats == oracle_stats


@pytest.mark.parametrize("mode", list(SbgMode))
def test_run_ands_every_column_of_cell_rows(mode):
    # run() takes a cell's fan-in from cell_rows: three of its rows, or a
    # seventh column on a row the cell does not use, count as the oracle does.
    pipeline = FusionPipeline(make_problem(grid_w=5, grid_h=4), mode=mode)
    six = pipeline.cell_rows
    rows = set(range(pipeline.spec.total_units))
    extra = np.array([[min(rows - set(cell))] for cell in six.tolist()])
    for n in (9, 64, 129):
        six_estimate = oracle_run(pipeline, n, 11)[0]
        for cell_rows in (six[:, :3], np.hstack([six, extra])):
            pipeline.cell_rows = cell_rows
            estimate, stats = pipeline.run(n, 11)
            oracle_estimate, oracle_stats = oracle_run(pipeline, n, 11)
            assert np.array_equal(estimate.weights, oracle_estimate.weights)
            assert stats == oracle_stats
            assert not np.array_equal(estimate.weights, six_estimate.weights)
            pipeline.cell_rows = six


def test_rescaling_before_quantization_preserves_sc_argmax():
    # An extra per-channel scale constant cancels inside the max-rescaling
    # conditioner, so the stochastic estimate is unchanged bit for bit.
    problem = make_problem(grid_w=8, grid_h=8)
    channels = likelihood_channels(problem)
    scaled = channels * np.array([0.5, 0.9, 0.3, 1.0, 0.7, 0.2])[:, None, None]
    q1 = quantize_levels(condition_channels(channels), 64)
    q2 = quantize_levels(condition_channels(scaled), 64)
    assert np.array_equal(q1, q2)


def test_kl_identical_grids_is_zero():
    problem = make_problem(grid_w=8, grid_h=8)
    post = exact_posterior(likelihood_channels(problem))
    assert kl_divergence(post, post, 64) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_computed_two_by_two():
    # Uniform truth against a point mass floored at eps and renormalized.
    eps = 1.0 / (10 * 64 * 4)
    exact = PosteriorGrid(np.full((2, 2), 0.25))
    est = PosteriorGrid(np.array([[1.0, 0.0], [0.0, 0.0]]))
    z = 1.0 + 3.0 * eps
    expected = 0.25 * (math.log(0.25 * z / 1.0) + 3.0 * math.log(0.25 * z / eps))
    assert kl_divergence(exact, est, 64) == pytest.approx(expected, rel=1e-12)


def kl_with_floor(exact, estimate, zero_floor):
    """KL(exact || estimate) with zero estimate cells floored at zero_floor."""
    p = exact.weights
    q = np.where(estimate.weights > 0.0, estimate.weights, zero_floor)
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@pytest.mark.parametrize("grid", [(12, 20), (9, 7)])
@pytest.mark.parametrize("n", [1, 13, 128, 16385])
def test_kl_floors_zero_cells_at_a_tenth_of_one_count(grid, n):
    # The floor 1/(10*n*W*H) is computed as 1/(10*n*(W*H)); both are the
    # same float, so the divergence keeps every bit.
    w, h = grid
    exact = exact_posterior(likelihood_channels(make_problem(grid_w=w, grid_h=h)))
    counts = np.random.default_rng(n).integers(0, 3, size=grid)
    estimate = PosteriorGrid(counts / n).normalize()
    assert np.any(counts == 0)
    assert kl_divergence(exact, estimate, n) == \
        kl_with_floor(exact, estimate, 1.0 / (10.0 * n * w * h))


@pytest.mark.parametrize("grid", [(12, 20), (9, 7), (32, 32)])
def test_pipeline_keeps_the_exact_posterior(grid):
    problem = make_problem(grid_w=grid[0], grid_h=grid[1])
    expected = exact_posterior(likelihood_channels(problem)).weights
    assert FusionPipeline(problem).exact.weights.tobytes() == expected.tobytes()


def test_kl_shape_mismatch():
    a = PosteriorGrid(np.ones((2, 2)) / 4)
    b = PosteriorGrid(np.ones((2, 3)) / 6)
    with pytest.raises(ValueError, match=re.escape("grid shapes differ: (2, 2) vs (2, 3)")):
        kl_divergence(a, b, 64)


def test_kl_requires_normalized_grids():
    a = PosteriorGrid(np.ones((2, 2)))
    b = PosteriorGrid(np.ones((2, 2)) / 4)
    with pytest.raises(ValueError):
        kl_divergence(a, b, 64)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kl_non_negative_random_grids(seed):
    rng = np.random.default_rng(seed)
    p = PosteriorGrid(rng.random((3, 3)) + 1e-9).normalize()
    q = PosteriorGrid(rng.random((3, 3)) + 1e-9).normalize()
    assert kl_divergence(p, q, 1) >= 0.0


def test_kl_decreases_with_length_small_grid():
    problem = make_problem(grid_w=16, grid_h=16)
    pipeline = FusionPipeline(problem)
    means = []
    for n in (64, 256):
        vals = []
        for seed in range(5):
            est, _ = pipeline.run(n, seed)
            vals.append(kl_divergence(pipeline.exact, est, n))
        means.append(np.mean(vals))
    assert means[0] > means[1]


def test_process_variation_degrades_but_preserves_trend():
    problem = make_problem(grid_w=16, grid_h=16)
    pipeline = FusionPipeline(problem)

    def mean_kl(n, pv):
        vals = []
        for seed in range(5):
            est, _ = pipeline.run(n, seed, pv_sigmas=pv)
            vals.append(kl_divergence(pipeline.exact, est, n))
        return float(np.mean(vals))

    lengths = (64, 128, 256)
    plain = [mean_kl(n, None) for n in lengths]
    varied = [mean_kl(n, (0.05, 0.02)) for n in lengths]
    for p, v in zip(plain, varied):
        assert v > p
    assert varied[0] > varied[1] > varied[2]


def test_run_stats_accounting():
    problem = make_problem(grid_w=8, grid_h=8)
    pipeline = FusionPipeline(problem)
    est, stats = pipeline.run(32, 1)
    assert stats.n_cycles == 32
    assert stats.num_units == pipeline.spec.total_units
    # self-control units: n+1 writes and reads each
    assert stats.writes == stats.num_units * 33
    assert stats.reads == stats.num_units * 33
    assert stats.total_energy_nj > 0
    assert est.weights.shape == (8, 8)


def test_cluster_count_bounded_by_levels_times_set_size():
    problem = make_problem(grid_w=32, grid_h=32)
    pipeline = FusionPipeline(problem)
    assert pipeline.num_terminals == 6144
    assert pipeline.matrix.control.shape[1] <= 64 * 6
    assert pipeline.spec.total_units <= 64 * 6
    # Clustering never merges two terminals of one cell: its six rows differ.
    assert all(len(set(rows)) == 6 for rows in pipeline.cell_rows.tolist())


def test_reading_validation():
    with pytest.raises(ValueError):
        SensorReading(-1.0, 0.0)
    with pytest.raises(ValueError):
        SensorReading(1.0, 360.0)
    with pytest.raises(ValueError):
        FusionProblem(readings=(SensorReading(1.0, 0.0),))


@pytest.mark.parametrize("count", [1, 4])
def test_problem_needs_three_sensors(count):
    # likelihood_channels fills exactly two channels per sensor.
    sensors = tuple((8.0 * k, 0.0) for k in range(count))
    with pytest.raises(ValueError, match="exactly 3 sensors, got"):
        FusionProblem(sensors=sensors, readings=(SensorReading(1.0, 0.0),) * count)
    with pytest.raises(ValueError, match="exactly 3 sensors, got"):
        make_problem(grid_w=4, grid_h=4, sensors=sensors)


@pytest.mark.parametrize("key, value", [("plane", 0.0), ("plane", -5.0), ("sigma_b", 0.0)])
def test_problem_refuses_nonpositive_plane_or_sigma_b(key, value):
    with pytest.raises(ValueError, match="plane and sigma_b must be strictly positive"):
        make_problem(grid_w=4, grid_h=4, **{key: value})
