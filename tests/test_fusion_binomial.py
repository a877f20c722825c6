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
AND share a stream (x AND x = x), must fail both checks.
"""

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
    """The cell count, the z-scores (seeds, cells) of the pipeline's routing
    and of the first-row routing, and the null law's pooled variance per run."""
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
    routings = [rows[cells], first_row[rows[cells]]]
    null_rng = np.random.default_rng(0)
    runs, null = [], []
    for seed in SEEDS:
        bits, _ = generate_array(build(seed), N)
        runs.append([np.bitwise_and.reduce(bits[r], axis=1).sum(axis=1) for r in routings])
        null_bits = (null_rng.random(bits.shape) < q[:, None]).astype(np.uint8)
        null.append(np.bitwise_and.reduce(null_bits[routings[0]], axis=1).sum(axis=1))
    z = (np.array(runs) - N * p) / np.sqrt(N * p * (1 - p))      # (seeds, routings, cells)
    null_z = (np.array(null) - N * p) / np.sqrt(N * p * (1 - p))
    return len(p), z[:, 0], z[:, 1], np.mean(null_z ** 2, axis=1)


def checks(z, null_variances):
    """Whether the mean z and the pooled variance of z each fit the law."""
    means = z.mean(axis=1)
    se = means.std(ddof=1) / np.sqrt(len(means))
    variance_se = null_variances.std(ddof=1) / np.sqrt(len(null_variances))
    return abs(means.mean()) <= BOUND * se, abs(np.mean(z ** 2) - 1.0) <= BOUND * variance_se


def test_fusion_counts_follow_their_binomial_law(law):
    cells, z, _, null_variances = law
    assert cells == 182
    assert checks(z, null_variances) == (True, True)


def test_ignoring_the_conflicts_breaks_the_law(law):
    # x AND x = x: a cell whose equal inputs share a row counts more ones
    # than the product of its six inputs' probabilities, so both checks fail.
    _, _, first_row_z, null_variances = law
    assert checks(first_row_z, null_variances) == (False, False)
