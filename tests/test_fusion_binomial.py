"""The fusion counts against their binomial law.

In self-control mode without process variation a unit's bits are i.i.d.
Bernoulli(q), q its calibrated switching probability (its two write
directions' q differ by at most about 7e-15).  The conflict rule gives a
cell's six terminals six distinct rows, so a cell's count of ones is
Binomial(n, product of its rows' q).  The test takes one cell of every
distinct row set whose npq exceeds 5 and scores each count by
z = (c - np) / sqrt(npq) at many seeds.  Cells that share rows have
correlated z-scores within a seed, so it tests across seeds: the mean of the
per-seed mean z lies within 4 standard errors of 0, and the pooled variance
of z (its mean square) lies within 4 standard errors of 1, that standard
error taken from a simulation of the null law, the same rows drawn as
i.i.d. Bernoulli bits, so that cells share rows as the pipeline's do.
Routing every terminal to its level's first row, so that equal inputs of an
AND share a stream (x AND x = x), must fail both checks.  So must an array
whose units all draw row 0's stream; one in which only two rows share a
stream, the two with q inside (0.05, 0.95) that meet in the most cells, must
fail the variance check.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spinsc.fusion import FusionPipeline, make_problem
from spinsc.sbg import build_array, generate_array

N = 1024
SEEDS = range(100, 160)
# Standard errors a statistic may lie from its null value.
BOUND = 4.0


@pytest.fixture(scope="module")
def law():
    """The cell count; the z-scores (seeds, cells) of the pipeline's routing,
    of the first-row routing, of an array on row 0's stream alone and of one
    whose `pair` of rows shares a stream; the null law's pooled variance per
    run; the pair and the count of cells it meets in."""
    pipeline = FusionPipeline(make_problem(grid_w=32, grid_h=32), level_count=64)
    spec, rows = pipeline.spec, pipeline.cell_rows

    def build(seed):
        return build_array(spec, seed, pipeline.device, calibration=pipeline.calibration)

    template = build(SEEDS[0])
    q = template.constants[3][1][template.level]     # each row's P->AP switching probability
    sets, cells = np.unique(np.sort(rows, axis=1), axis=0, return_index=True)
    p = np.prod(q[sets], axis=1)
    keep = N * p * (1 - p) > 5
    cells, p = cells[keep], p[keep]
    first_row = (np.cumsum(spec.multiplicity) - spec.multiplicity)[template.level]
    own, first = rows[cells], first_row[rows[cells]]
    # How many kept cells each two rows meet in, over rows with q in (0.05, 0.95).
    incidence = np.zeros((len(cells), len(q)), dtype=np.int64)
    np.put_along_axis(incidence, sets[keep], 1, axis=1)
    meets = incidence.T @ incidence
    outside = (q <= 0.05) | (q >= 0.95)
    meets[outside], meets[:, outside] = 0, 0
    np.fill_diagonal(meets, 0)
    pair = np.unravel_index(np.argmax(meets), meets.shape)
    null_rng = np.random.default_rng(0)
    runs, null = [], []
    for seed in SEEDS:
        array = build(seed)
        paired = array.seeds.copy()
        paired[pair[1]] = paired[pair[0]]
        bits, one_stream, pair_stream = (generate_array(a, N)[0] for a in (
            array, replace(array, seeds=np.repeat(array.seeds[:1], len(array), axis=0)),
            replace(array, seeds=paired)))
        runs.append([np.bitwise_and.reduce(b[r], axis=1).sum(axis=1) for b, r in (
            (bits, own), (bits, first), (one_stream, own), (pair_stream, own))])
        null_bits = (null_rng.random(bits.shape) < q[:, None]).astype(np.uint8)
        null.append(np.bitwise_and.reduce(null_bits[own], axis=1).sum(axis=1))
    z = (np.array(runs) - N * p) / np.sqrt(N * p * (1 - p))      # (seeds, runs, cells)
    null_z = (np.array(null) - N * p) / np.sqrt(N * p * (1 - p))
    return SimpleNamespace(
        cells=len(p), z=dict(zip(("own", "first_row", "one_stream", "pair_stream"),
                                 z.transpose(1, 0, 2))),
        null_variances=np.mean(null_z ** 2, axis=1), pair=tuple(int(r) for r in pair),
        pair_cells=int(meets[pair]))


def checks(z, null_variances):
    """Whether the mean z and the pooled variance of z each fit the law."""
    means = z.mean(axis=1)
    se = means.std(ddof=1) / np.sqrt(len(means))
    variance_se = null_variances.std(ddof=1) / np.sqrt(len(null_variances))
    return abs(means.mean()) <= BOUND * se, abs(np.mean(z ** 2) - 1.0) <= BOUND * variance_se


def test_fusion_counts_follow_their_binomial_law(law):
    assert law.cells == 182
    assert checks(law.z["own"], law.null_variances) == (True, True)


def test_ignoring_the_conflicts_breaks_the_law(law):
    # x AND x = x: a cell whose equal inputs share a row counts more ones
    # than the product of its six inputs' probabilities, so both checks fail.
    assert checks(law.z["first_row"], law.null_variances) == (False, False)


def test_units_on_one_stream_break_the_law(law):
    assert checks(law.z["one_stream"], law.null_variances) == (False, False)


def test_two_rows_on_one_stream_break_the_variance(law):
    # The pair meets in 9 of the 182 cells; their counts spread wider than
    # the binomial law lets them.
    assert (law.pair, law.pair_cells) == ((105, 109), 9)
    assert not checks(law.z["pair_stream"], law.null_variances)[1]
