"""Measurement protocols: density-error sweeps, SCC tables, KL-vs-length.

Shared by the CLI reports and the acceptance tests so that a threshold
always refers to one well-defined procedure.

Density error is scored ensemble-style: for each requested probability the
sweep runs `repeats` independent generators, measures each stream's density
at nested prefix lengths (the 64-bit measurement is the first 64 bits of the
longest run), and reports |mean density - p| per length.  Re-using the same
devices and stream prefixes across lengths keeps the length comparison free
of between-run noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stochastic
from .fusion import FusionPipeline, FusionProblem, default_zero_floor, exact_posterior, kl_divergence
from .sbg import SbgDevice, SbgMode, generate_array, make_units
from .seeding import DOMAIN_CROSS_SCC, DOMAIN_SELF_SCC


@dataclass(frozen=True)
class SweepResult:
    length: int
    avg_error: float
    max_error: float


def _prefix_counts(bits: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    """Ones in each row's first n bits, for every n in the sorted lengths;
    int64 (rows, len(lengths))."""
    if lengths[0] < 1:
        raise ValueError("stream lengths must be at least 1")
    ends = np.unique(lengths)
    segments = np.add.reduceat(bits, np.r_[0, ends[:-1]], axis=1, dtype=np.int64)
    return np.cumsum(segments, axis=1)[:, np.searchsorted(ends, lengths)]


def density_sweep(probs: tuple[float, ...], lengths: tuple[int, ...],
                  repeats: int, master_seed: int, *,
                  mode: SbgMode = SbgMode.SIMPLE,
                  device: SbgDevice = SbgDevice(),
                  pv_sigmas: tuple[float, float] | None = None) -> list[SweepResult]:
    """Ensemble density error per stream length over a probability sweep."""
    lengths = tuple(sorted(lengths))
    units = make_units(device, mode, [p for p in probs for _ in range(repeats)],
                       master_seed, pv_sigmas=pv_sigmas)
    counts = _prefix_counts(generate_array(units, lengths[-1]), lengths)
    errors: dict[int, list[float]] = {n: [] for n in lengths}
    for k, p in enumerate(probs):
        block = counts[k * repeats:(k + 1) * repeats]
        for j, n in enumerate(lengths):
            errors[n].append(abs(float(np.mean(block[:, j] / n)) - p))
    return [SweepResult(n, float(np.mean(errors[n])), float(np.max(errors[n])))
            for n in lengths]


def _scc_rows(prob_pairs: tuple[tuple[float, float], ...], lengths: tuple[int, ...],
              pairs: int, master_seed: int, mode: SbgMode, device: SbgDevice,
              domain: int) -> list[tuple[float, float, int, float]]:
    """(p1, p2, n, mean |SCC| over `pairs` unit pairs at (p1, p2)) rows, on
    prefixes of one run of `domain`'s streams as long as the longest length.

    The overlap counts of every pair at every length come from prefix sums,
    and stochastic.scc scores them all in one call.
    """
    lengths = tuple(sorted(lengths))
    units = make_units(device, mode,
                       [p for pair in prob_pairs for _ in range(pairs) for p in pair],
                       master_seed, domain=domain)
    bits = generate_array(units, lengths[-1])
    x, y = bits[0::2], bits[1::2]
    a = _prefix_counts(x & y, lengths)            # (pairs, lengths): #11
    ab = _prefix_counts(x, lengths)               # ones of x, a + b
    ac = _prefix_counts(y, lengths)               # ones of y, a + c
    value = np.abs(stochastic.scc(a, ab, ac, np.array(lengths, dtype=np.int64)))
    by_length = np.ascontiguousarray(value.T)     # (lengths, pairs)
    return [(p1, p2, n, float(np.mean(row[g * pairs:(g + 1) * pairs])))
            for g, (p1, p2) in enumerate(prob_pairs) for n, row in zip(lengths, by_length)]


def self_scc_table(probs: tuple[float, ...], lengths: tuple[int, ...],
                   pairs: int, master_seed: int, *,
                   mode: SbgMode = SbgMode.SELF_CONTROL,
                   device: SbgDevice = SbgDevice()) -> list[tuple[float, int, float]]:
    """Mean |SCC| between independent generators at one probability.

    Rows are (p, n, mean |SCC| over `pairs` stream pairs); SCC at shorter
    lengths is measured on prefixes of the same streams.
    """
    return [(p, n, v) for p, _, n, v in _scc_rows(tuple(zip(probs, probs)), lengths, pairs,
                                                  master_seed, mode, device, DOMAIN_SELF_SCC)]


def cross_scc_table(prob_pairs: tuple[tuple[float, float], ...],
                    lengths: tuple[int, ...], pairs: int, master_seed: int, *,
                    mode: SbgMode = SbgMode.SELF_CONTROL,
                    device: SbgDevice = SbgDevice()
                    ) -> list[tuple[float, float, int, float]]:
    """Mean |SCC| between generators targeting two different probabilities."""
    return _scc_rows(prob_pairs, lengths, pairs, master_seed, mode, device, DOMAIN_CROSS_SCC)


def kl_by_length(problem: FusionProblem, lengths: tuple[int, ...],
                 seeds: tuple[int, ...], *, level_count: int = 64,
                 pv_sigmas: tuple[float, float] | None = None,
                 pipeline: FusionPipeline | None = None) -> dict[int, list[float]]:
    """Per-seed KL(exact || stochastic estimate) for each stream length.

    `pipeline`, prepared from `problem`, is run in place of one prepared
    here at `level_count` with the default device and mode.  The exact
    posterior comes from the pipeline's likelihood grids.
    """
    if pipeline is None:
        pipeline = FusionPipeline(problem, level_count=level_count)
    exact = exact_posterior(pipeline.likelihood)
    out: dict[int, list[float]] = {n: [] for n in lengths}
    for n in lengths:
        floor = default_zero_floor(n, problem.grid_w, problem.grid_h)
        for seed in seeds:
            estimate, _ = pipeline.run(n, seed, pv_sigmas=pv_sigmas)
            out[n].append(kl_divergence(exact, estimate, zero_floor=floor))
    return out
