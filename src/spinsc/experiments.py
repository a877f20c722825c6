"""Measurement protocols: density-error sweeps, SCC tables, KL-vs-length.

Shared by the CLI reports, the experiment scripts and the acceptance tests
so that a threshold always refers to one well-defined procedure.

Density error is scored ensemble-style: for each requested probability the
sweep runs `repeats` independent generators, measures each stream's density
at nested prefix lengths (the 64-bit measurement is the first 64 bits of the
longest run), and reports |mean density - p| per length.  Re-using the same
devices and stream prefixes across lengths keeps the length comparison free
of between-run noise.

Each protocol draws its generators' streams from its own block of unit ids:
density sweeps [0, 10_000), self-SCC tables [10_000, 50_000) and cross-SCC
tables from 50_000 up.  A protocol that would outgrow its block is refused
rather than silently re-using another protocol's streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import MtjParams, PulseSpec
from .fusion import FusionPipeline, FusionProblem, default_zero_floor, exact_posterior, kl_divergence
from .sbg import (
    DEFAULT_READ_ENERGY_NJ,
    DEFAULT_WRITE_DURATION_NS,
    RESET_PULSE,
    CalibrationCache,
    SbgMode,
    SbgUnit,
    generate_array,
    make_unit,
)
from .stochastic import Bitstream, scc

SWEEP_BASE_ID = 0
SELF_SCC_BASE_ID = 10_000
CROSS_SCC_BASE_ID = 50_000


def _check_id_block(protocol: str, units: int, base: int, limit: int) -> None:
    if units > limit - base:
        raise ValueError(f"{protocol} needs {units} generators but its unit-id block "
                         f"[{base}, {limit}) holds {limit - base}")


def prefix(stream: Bitstream, n: int) -> Bitstream:
    if n > len(stream):
        raise ValueError("prefix longer than the stream")
    return Bitstream(stream.bits[:n])


@dataclass(frozen=True)
class SweepResult:
    length: int
    avg_error: float
    max_error: float


def density_sweep(probs: tuple[float, ...], lengths: tuple[int, ...],
                  repeats: int, master_seed: int, *,
                  mode: SbgMode = SbgMode.SIMPLE,
                  params: MtjParams | None = None,
                  pv_sigmas: tuple[float, float] | None = None,
                  write_duration_ns: float = DEFAULT_WRITE_DURATION_NS,
                  read_energy_nj: float = DEFAULT_READ_ENERGY_NJ,
                  reset_pulse: PulseSpec = RESET_PULSE) -> list[SweepResult]:
    """Ensemble density error per stream length over a probability sweep."""
    _check_id_block("density_sweep", len(probs) * repeats, SWEEP_BASE_ID, SELF_SCC_BASE_ID)
    params = params or MtjParams()
    lengths = tuple(sorted(lengths))
    n_max = lengths[-1]
    calibration = CalibrationCache()
    errors: dict[int, list[float]] = {n: [] for n in lengths}
    unit_id = SWEEP_BASE_ID
    for p in probs:
        units = [make_unit(params, mode, p, master_seed, unit_id + r,
                           write_duration_ns=write_duration_ns,
                           read_energy_nj=read_energy_nj, reset_pulse=reset_pulse,
                           pv_sigmas=pv_sigmas, calibration=calibration)
                 for r in range(repeats)]
        unit_id += repeats
        cumulative = np.cumsum(generate_array(units, n_max), axis=1)
        for n in lengths:
            errors[n].append(abs(float(np.mean(cumulative[:, n - 1] / n)) - p))
    return [SweepResult(n, float(np.mean(errors[n])), float(np.max(errors[n])))
            for n in lengths]


def _mean_abs_scc(units: list[SbgUnit], n_max: int, lengths: tuple[int, ...]) -> list[float]:
    """Mean |SCC| per length between the streams of units 2k and 2k+1,
    measured on prefixes of one n_max-bit run."""
    streams = [Bitstream(bits) for bits in generate_array(units, n_max)]
    out = []
    for n in lengths:
        vals = [abs(scc(prefix(a, n), prefix(b, n)))
                for a, b in zip(streams[0::2], streams[1::2])]
        out.append(float(np.mean(vals)))
    return out


def self_scc_table(probs: tuple[float, ...], lengths: tuple[int, ...],
                   pairs: int, master_seed: int, *,
                   mode: SbgMode = SbgMode.SELF_CONTROL,
                   params: MtjParams | None = None,
                   write_duration_ns: float = DEFAULT_WRITE_DURATION_NS,
                   read_energy_nj: float = DEFAULT_READ_ENERGY_NJ,
                   reset_pulse: PulseSpec = RESET_PULSE) -> list[tuple[float, int, float]]:
    """Mean |SCC| between independent generators at one probability.

    Rows are (p, n, mean |SCC| over `pairs` stream pairs); SCC at shorter
    lengths is measured on prefixes of the same streams.
    """
    _check_id_block("self_scc_table", 2 * pairs * len(probs),
                    SELF_SCC_BASE_ID, CROSS_SCC_BASE_ID)
    params = params or MtjParams()
    lengths = tuple(sorted(lengths))
    n_max = lengths[-1]
    calibration = CalibrationCache()
    rows = []
    unit_id = SELF_SCC_BASE_ID
    for p in probs:
        units = [make_unit(params, mode, p, master_seed, unit_id + k,
                           write_duration_ns=write_duration_ns,
                           read_energy_nj=read_energy_nj, reset_pulse=reset_pulse,
                           calibration=calibration)
                 for k in range(2 * pairs)]
        unit_id += 2 * pairs
        rows.extend((p, n, v) for n, v in zip(lengths, _mean_abs_scc(units, n_max, lengths)))
    return rows


def cross_scc_table(prob_pairs: tuple[tuple[float, float], ...],
                    lengths: tuple[int, ...], pairs: int, master_seed: int, *,
                    mode: SbgMode = SbgMode.SELF_CONTROL,
                    params: MtjParams | None = None,
                    write_duration_ns: float = DEFAULT_WRITE_DURATION_NS,
                    read_energy_nj: float = DEFAULT_READ_ENERGY_NJ,
                    reset_pulse: PulseSpec = RESET_PULSE
                    ) -> list[tuple[float, float, int, float]]:
    """Mean |SCC| between generators targeting two different probabilities."""
    params = params or MtjParams()
    lengths = tuple(sorted(lengths))
    n_max = lengths[-1]
    calibration = CalibrationCache()
    rows = []
    unit_id = CROSS_SCC_BASE_ID
    for p1, p2 in prob_pairs:
        units = [make_unit(params, mode, (p1, p2)[k % 2], master_seed, unit_id + k,
                           write_duration_ns=write_duration_ns,
                           read_energy_nj=read_energy_nj, reset_pulse=reset_pulse,
                           calibration=calibration)
                 for k in range(2 * pairs)]
        unit_id += 2 * pairs
        rows.extend((p1, p2, n, v)
                    for n, v in zip(lengths, _mean_abs_scc(units, n_max, lengths)))
    return rows


def mean_abs_scc_by_length(rows: list[tuple], lengths: tuple[int, ...]) -> dict[int, float]:
    """Aggregate a (*, n, value) table into mean |SCC| per length."""
    out: dict[int, float] = {}
    for n in lengths:
        vals = [r[-1] for r in rows if r[-2] == n]
        out[n] = float(np.mean(vals))
    return out


def kl_by_length(problem: FusionProblem, lengths: tuple[int, ...],
                 seeds: tuple[int, ...], *, level_count: int = 64,
                 params: MtjParams | None = None,
                 pv_sigmas: tuple[float, float] | None = None
                 ) -> dict[int, list[float]]:
    """Per-seed KL(exact || stochastic estimate) for each stream length."""
    pipeline = FusionPipeline(problem, level_count=level_count, params=params)
    exact = exact_posterior(problem)
    out: dict[int, list[float]] = {n: [] for n in lengths}
    for n in lengths:
        floor = default_zero_floor(n, problem.grid_w, problem.grid_h)
        for seed in seeds:
            estimate, _ = pipeline.run(n, seed, pv_sigmas=pv_sigmas)
            out[n].append(kl_divergence(exact, estimate, zero_floor=floor))
    return out
