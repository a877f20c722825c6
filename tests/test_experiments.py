"""The measurement protocols against per-pair and per-unit reference scoring.

The references rebuild each protocol's generators one unit at a time, unit k
of a protocol on stream k of its seeding domain (and of the process-variation
domain), run them one probability (or pair of probabilities) at a time, and
score them with the scalar SCC oracle in helpers on stream prefixes, or with
a density per prefix; the tables must equal them exactly (==, not approx).
"""

import numpy as np
import pytest

from helpers import overlap_counts, rng_for, scc, variation_draw
from spinsc.experiments import cross_scc_table, density_sweep, self_scc_table
from spinsc.sbg import SbgDevice, SbgMode, generate_array, make_units
from spinsc.seeding import (
    DOMAIN_CROSS_SCC,
    DOMAIN_DEVICE,
    DOMAIN_PROCESS_VARIATION,
    DOMAIN_SELF_SCC,
    stream_words,
)

DEVICE = SbgDevice()
SEED = 31
# Unsorted, with a repeat: every protocol sorts its lengths and keeps repeats.
LENGTHS = (100, 7, 32, 32)
PAIRS = 6


def reference_unit(p, domain, index, mode, pv_sigmas):
    """A one-unit array on stream `index` of `domain`, with the process
    variation of stream `index` of the process-variation domain."""
    unit = make_units(DEVICE, mode, [p], SEED)
    unit.seeds[0] = stream_words(SEED, domain, [index])[0]
    if pv_sigmas is not None:
        _, _, unit.scale[0] = variation_draw(rng_for(SEED, DOMAIN_PROCESS_VARIATION, index),
                                             DEVICE.params, *pv_sigmas)
    return unit


def reference_streams(targets, domain, first, n, mode=SbgMode.SELF_CONTROL, pv_sigmas=None):
    """n bits of each target's unit, the k-th on stream first + k of domain."""
    return [generate_array(reference_unit(p, domain, first + k, mode, pv_sigmas), n)[0][0]
            for k, p in enumerate(targets)]


def reference_scc(streams, n):
    return [abs(scc(a[:n], b[:n])) for a, b in zip(streams[0::2], streams[1::2])]


def scc_branches(streams, lengths):
    """Which of scc's cases the pairs reach: 'pos' (ad > bc), 'neg' and 'zero-den'."""
    seen = set()
    for a, b in zip(streams[0::2], streams[1::2]):
        for n in lengths:
            x, y = a[:n], b[:n]
            c11, c10, c01, c00 = overlap_counts(x, y)
            if x.sum() in (0, n) or y.sum() in (0, n):
                seen.add("zero-den")
            seen.add("pos" if c11 * c00 - c10 * c01 > 0 else "neg")
    return seen


def test_self_scc_table_equals_per_pair_scc():
    probs = (0.0, 0.3, 1.0, 0.5)
    rows = self_scc_table(probs, LENGTHS, PAIRS, SEED)
    lengths = sorted(LENGTHS)
    expected, branches = [], set()
    for k, p in enumerate(probs):
        streams = reference_streams([p] * (2 * PAIRS), DOMAIN_SELF_SCC, 2 * PAIRS * k,
                                    lengths[-1])
        branches |= scc_branches(streams, lengths)
        expected.extend((p, n, float(np.mean(reference_scc(streams, n)))) for n in lengths)
    assert rows == expected
    assert branches == {"pos", "neg", "zero-den"}


def test_cross_scc_table_equals_per_pair_scc():
    prob_pairs = ((0.0, 0.5), (0.3, 0.7), (1.0, 0.2), (0.6, 0.6))
    rows = cross_scc_table(prob_pairs, LENGTHS, PAIRS, SEED)
    lengths = sorted(LENGTHS)
    expected, branches = [], set()
    for k, (p1, p2) in enumerate(prob_pairs):
        streams = reference_streams([p1, p2] * PAIRS, DOMAIN_CROSS_SCC, 2 * PAIRS * k,
                                    lengths[-1])
        branches |= scc_branches(streams, lengths)
        expected.extend((p1, p2, n, float(np.mean(reference_scc(streams, n))))
                        for n in lengths)
    assert rows == expected
    assert branches == {"pos", "neg", "zero-den"}


@pytest.mark.parametrize("pv_sigmas", [None, (0.05, 0.02)])
def test_density_sweep_equals_per_unit_density(pv_sigmas):
    probs, repeats = (0.2, 0.5, 0.9), 5
    results = density_sweep(probs, LENGTHS, repeats, SEED, pv_sigmas=pv_sigmas)
    lengths = sorted(LENGTHS)
    errors = {n: [] for n in lengths}
    for k, p in enumerate(probs):
        streams = reference_streams([p] * repeats, DOMAIN_DEVICE, repeats * k, lengths[-1],
                                    SbgMode.SIMPLE, pv_sigmas)
        for n in lengths:
            density = np.array([int(s[:n].sum()) for s in streams]) / n
            errors[n].append(abs(float(np.mean(density)) - p))
    assert [(r.length, r.avg_error, r.max_error) for r in results] == \
        [(n, float(np.mean(errors[n])), float(np.max(errors[n]))) for n in lengths]


@pytest.mark.parametrize("table", [
    lambda lengths: self_scc_table((0.5,), lengths, 2, SEED),
    lambda lengths: cross_scc_table(((0.2, 0.6),), lengths, 2, SEED),
    lambda lengths: density_sweep((0.5,), lengths, 2, SEED),
], ids=["self-scc", "cross-scc", "density"])
def test_protocols_refuse_empty_prefixes(table):
    with pytest.raises(ValueError, match="at least 1"):
        table((0, 16))
