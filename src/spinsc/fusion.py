"""Target locating by fusing three range/bearing sensors on a 2-D grid.

Each sensor reports a distance and a bearing; the per-cell likelihoods are
Gaussian in the residuals, the exact posterior is their normalized product
(uniform prior), and the stochastic-computing estimate runs the same product
through quantized bitstream generators, a shared-generator switch matrix and
per-cell AND chains.  Accuracy is scored as KL(exact || estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import allocator
from .sbg import CalibrationCache, SbgDevice, SbgMode, build_array, counters, generate_array
from .seeding import DOMAIN_READINGS, generators, stream_words

CHANNELS = ("d1", "b1", "d2", "b2", "d3", "b3")

DEFAULT_PLANE = 64.0
DEFAULT_SENSORS = ((0.0, 0.0), (0.0, 32.0), (32.0, 0.0))
DEFAULT_SIGMA_B = 14.0626  # degrees
DEFAULT_SIGMA_D_BASE = 5.0
DEFAULT_SIGMA_D_SLOPE = 0.1
# Preparation keeps a table over the level numbers 1..L, so L is bounded
# (a 16-bit quantizer).
MAX_LEVEL_COUNT = 2**16


@dataclass(frozen=True)
class SensorReading:
    mu_d: float  # distance, plane units
    mu_b: float  # bearing, degrees in [0, 360)

    def __post_init__(self) -> None:
        if self.mu_d < 0:
            raise ValueError("distance reading must be non-negative")
        if not 0.0 <= self.mu_b < 360.0:
            raise ValueError("bearing reading must lie in [0, 360)")


@dataclass(frozen=True)
class FusionProblem:
    grid_w: int = 32
    grid_h: int = 32
    plane: float = DEFAULT_PLANE
    sensors: tuple[tuple[float, float], ...] = DEFAULT_SENSORS
    readings: tuple[SensorReading, ...] = ()
    sigma_b: float = DEFAULT_SIGMA_B
    sigma_d_base: float = DEFAULT_SIGMA_D_BASE
    sigma_d_slope: float = DEFAULT_SIGMA_D_SLOPE   # sigma_d = base + slope * mu_d

    def __post_init__(self) -> None:
        if self.grid_w < 1 or self.grid_h < 1:
            raise ValueError("grid must be at least 1x1")
        if not (self.plane > 0 and self.sigma_b > 0):
            raise ValueError("plane and sigma_b must be strictly positive")
        if 2 * len(self.sensors) != len(CHANNELS):
            raise ValueError(f"the fusion model takes exactly {len(CHANNELS) // 2} sensors, "
                             f"got {len(self.sensors)}")
        if len(self.readings) != len(self.sensors):
            raise ValueError("one reading per sensor is required")

    @property
    def cell_scale(self) -> tuple[float, float]:
        return self.plane / self.grid_w, self.plane / self.grid_h

    def sigma_d(self, sensor_index: int) -> float:
        return self.sigma_d_base + self.sigma_d_slope * self.readings[sensor_index].mu_d


@dataclass
class PosteriorGrid:
    """Non-negative per-cell weights over the (W, H) grid."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("posterior weights must be a 2-D grid")
        if np.any(self.weights < 0):
            raise ValueError("posterior weights must be non-negative")

    def total(self) -> float:
        return float(self.weights.sum())

    def normalize(self) -> "PosteriorGrid":
        total = self.total()
        if total <= 0.0:
            uniform = np.full_like(self.weights, 1.0 / self.weights.size)
            return PosteriorGrid(uniform)
        return PosteriorGrid(self.weights / total)

    def argmax(self) -> tuple[int, int]:
        """Peak cell; ties resolve to the lowest (x, y) lexicographically."""
        flat = int(np.argmax(self.weights))
        x, y = divmod(flat, self.weights.shape[1])
        return x, y


def _wrap_deg(angle: float) -> float:
    """angle % 360.0, save that the 360.0 it rounds to for a tiny negative angle is 0.0."""
    wrapped = angle % 360.0
    return 0.0 if wrapped == 360.0 else wrapped


def bearing_deg(from_xy: tuple[float, float], to_xy: tuple[float, float]) -> float:
    """Viewing angle in degrees within [0, 360)."""
    return _wrap_deg(math.degrees(math.atan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0])))


def synthesize_readings(sensors: tuple[tuple[float, float], ...],
                        target_xy: tuple[float, float],
                        noise_d: float = 0.0, noise_b: float = 0.0,
                        master_seed: int = 0) -> tuple[SensorReading, ...]:
    """Readings a target at target_xy would produce, plus optional Gaussian
    measurement noise per channel (deterministic in master_seed)."""
    rng, = generators(stream_words(master_seed, DOMAIN_READINGS, [0]))
    readings = []
    for sx, sy in sensors:
        d = math.hypot(target_xy[0] - sx, target_xy[1] - sy)
        b = bearing_deg((sx, sy), target_xy)
        if noise_d > 0.0:
            d = max(0.0, d + noise_d * rng.standard_normal())
        if noise_b > 0.0:
            b = _wrap_deg(b + noise_b * rng.standard_normal())
        readings.append(SensorReading(mu_d=d, mu_b=b))
    return tuple(readings)


def make_problem(grid_w: int = 32, grid_h: int = 32,
                 target_xy: tuple[float, float] = (40.0, 22.0),
                 noise_d: float = 0.0, noise_b: float = 0.0,
                 master_seed: int = 0, plane: float = DEFAULT_PLANE,
                 sensors: tuple[tuple[float, float], ...] = DEFAULT_SENSORS,
                 sigma_b: float = DEFAULT_SIGMA_B,
                 sigma_d_base: float = DEFAULT_SIGMA_D_BASE,
                 sigma_d_slope: float = DEFAULT_SIGMA_D_SLOPE) -> FusionProblem:
    readings = synthesize_readings(sensors, target_xy, noise_d, noise_b, master_seed)
    return FusionProblem(grid_w=grid_w, grid_h=grid_h, plane=plane,
                         sensors=sensors, readings=readings, sigma_b=sigma_b,
                         sigma_d_base=sigma_d_base, sigma_d_slope=sigma_d_slope)


def likelihood_channels(problem: FusionProblem) -> np.ndarray:
    """A distance and a bearing grid per sensor (CHANNELS), shape (2 x sensors, W, H):
    Gaussian densities of each cell's distance residual and of its bearing
    residual, the minimal angle on [0, 180] (359 against 1 is 2, not 358)."""
    w, h = problem.grid_w, problem.grid_h
    sx, sy = problem.cell_scale
    xs = np.arange(w)[:, None] * sx
    ys = np.arange(h)[None, :] * sy
    channels = np.empty((2 * len(problem.sensors), w, h), dtype=np.float64)
    # A residual over a tiny sigma overflows to inf, and exp(-inf) = 0 is the
    # exact tail.
    with np.errstate(over="ignore"):
        for i, (cx, cy) in enumerate(problem.sensors):
            reading = problem.readings[i]
            dist = np.hypot(xs - cx, ys - cy)
            sd = problem.sigma_d(i)
            channels[2 * i] = np.exp(-0.5 * ((dist - reading.mu_d) / sd) ** 2) \
                / (math.sqrt(2.0 * math.pi) * sd)
            # arctan2 lies in [-180, 180]: adding 360 below 0 is % 360, and
            # |bearing - mu_b| <= 360 needs no wrap, 360 and 0 giving one minimum.
            bearing = np.degrees(np.arctan2(ys - cy, xs - cx))
            np.add(bearing, 360.0, out=bearing, where=bearing < 0)
            diff = np.abs(bearing - reading.mu_b)
            residual = np.minimum(diff, 360.0 - diff)
            channels[2 * i + 1] = np.exp(-0.5 * (residual / problem.sigma_b) ** 2) \
                / (math.sqrt(2.0 * math.pi) * problem.sigma_b)
    return channels


def exact_posterior(channels: np.ndarray) -> PosteriorGrid:
    """Normalized product of the (2 x sensors, W, H) likelihood stack that
    likelihood_channels returns over its first axis (uniform prior)."""
    return PosteriorGrid(np.prod(channels, axis=0)).normalize()


def condition_channels(channels: np.ndarray) -> np.ndarray:
    """Rescale each channel so its grid maximum is 1.0.

    Per-channel constants cancel in posterior normalization, so this keeps
    the exact posterior intact while spreading values over the quantizer's
    dynamic range.
    """
    maxima = channels.reshape(channels.shape[0], -1).max(axis=1)
    if not np.all((maxima > 0) & np.isfinite(maxima)):
        raise ValueError("each likelihood channel needs a positive, finite maximum")
    return channels / maxima[:, None, None]


def quantize_levels(values: np.ndarray, level_count: int) -> np.ndarray:
    """Level numbers k in 1..L of (0, 1] values on the uniform grid
    {1/L, ..., 1}; nearest level, exact midpoints toward the lower level,
    level 0 excluded.  values * L - 0.5 is exact wherever values * L >= 0.25,
    and a smaller product clips to level 1 either way."""
    return np.clip(np.ceil(values * level_count - 0.5), 1, level_count).astype(np.intp)


@dataclass
class FusionRunStats:
    """Accounting from one stochastic inference run."""

    n_cycles: int
    num_units: int
    total_energy_nj: float
    writes: int
    reads: int


class FusionPipeline:
    """Clustering and allocation for one fusion problem, prepared from its
    quantized (2 x sensors, W, H) likelihood stack of C channels.

    Preparation is seed-independent; run() draws fresh generator streams for
    a given seed.  Cells re-use shared rows exactly as the switch matrix
    prescribes, so results are deterministic in (problem, seed, n).
    `exact` is the exact posterior of the grids preparation started from,
    which kl_divergence scores a run against.
    """

    def __init__(self, problem: FusionProblem, level_count: int = 64,
                 device: SbgDevice = SbgDevice(),
                 mode: SbgMode = SbgMode.SELF_CONTROL) -> None:
        if not 1 <= level_count <= MAX_LEVEL_COUNT:
            raise ValueError(f"the level count must lie in 1..{MAX_LEVEL_COUNT}, "
                             f"got {level_count}")
        self.problem = problem
        self.device = device
        self.calibration = CalibrationCache()

        # Each cell is one C-input AND chain, so its C terminals form one
        # conflict set and cells share no terminal.  First-fit clustering of
        # same-level terminals then puts a terminal in its level's cluster
        # number `rank`, the count of earlier channels of its cell with the
        # same level (see README, "Preparation").
        channels = likelihood_channels(problem)
        c = len(channels)
        k = quantize_levels(condition_channels(channels), level_count).reshape(c, -1)
        # Built once condition_channels has refused a non-finite grid, on which np.prod warns.
        self.exact = exact_posterior(channels)
        rank = np.zeros_like(k)                     # (C, cells), cells in (x, y) order
        for j in range(1, c):
            for i in range(j):
                rank[j] += k[i] == k[j]
        # A level's ranks run 0 .. its largest rank, so the ranks it shows
        # count its clusters, marked on a flat table read as (levels x C).
        seen = np.zeros((level_count + 1) * c, dtype=bool)
        seen[k * c + rank] = True
        clusters = seen.reshape(-1, c).sum(axis=1)  # indexed by level number k
        first = np.cumsum(clusters) - clusters
        cluster_ids = (first.take(k) + rank).T
        levels = np.flatnonzero(clusters)
        per_level = clusters[levels]
        col_levels = np.repeat(levels / level_count, per_level).tolist()

        # The cell that opens cluster `rank` of a level holds its ranks
        # 0 .. rank, so one set per level is the conflict graph first-fit sees.
        self.cluster_sets = [range(f, f + n) for f, n in zip(first[levels].tolist(),
                                                             per_level.tolist()) if n > 1]
        self.spec = allocator.size_array(col_levels, mode)
        self.matrix = allocator.allocate(col_levels, self.spec, self.cluster_sets)
        # Row index of each cell terminal, cells in (x, y) order.
        self.cell_rows = np.argmax(self.matrix.control, axis=0)[cluster_ids]

    @property
    def num_terminals(self) -> int:
        return self.cell_rows.size

    def run(self, n: int, master_seed: int,
            pv_sigmas: tuple[float, float] | None = None
            ) -> tuple[PosteriorGrid, FusionRunStats]:
        """One stochastic inference pass with n-bit streams."""
        array = build_array(self.spec, master_seed, self.device,
                            pv_sigmas=pv_sigmas, calibration=self.calibration)
        # Pack each row's bits into 64-bit words (zero-padded, so the padding
        # counts nothing) laid out words x rows, so one take gathers a channel's
        # row for every cell; AND all of a cell's rows and popcount down the words.
        bits, energy = generate_array(array, n)
        packed = np.packbits(bits, axis=1)
        words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64).T.copy()
        products = words.take(self.cell_rows[:, 0], axis=1)
        for j in range(1, self.cell_rows.shape[1]):
            products &= words.take(self.cell_rows[:, j], axis=1)
        counts = np.bitwise_count(products).sum(axis=0, dtype=np.int64).astype(np.float64)
        w, h = self.problem.grid_w, self.problem.grid_h
        grid = PosteriorGrid((counts / n).reshape(w, h)).normalize()
        # Python's sum adds the energies one at a time in row order; np.sum
        # would add pairwise and round differently.
        writes, reads = counters(self.spec.mode, n)
        stats = FusionRunStats(n_cycles=n, num_units=len(array),
                               total_energy_nj=sum(energy.tolist()),
                               writes=len(array) * writes, reads=len(array) * reads)
        return grid, stats

    def analytic_estimate(self) -> PosteriorGrid:
        """Infinite-length limit: exact per-cell products of quantized levels."""
        w, h = self.problem.grid_w, self.problem.grid_h
        levels = np.array(self.spec.row_levels())
        prods = np.prod(levels[self.cell_rows], axis=1)
        return PosteriorGrid(prods.reshape(w, h)).normalize()


def kl_divergence(exact: PosteriorGrid, estimate: PosteriorGrid, n: int) -> float:
    """KL(exact || estimate) in nats, for an estimate from n-bit streams.

    Estimated cells with zero mass are floored at 1/(10*n*W*H), one tenth
    of a single count's weight, and the estimate is renormalized, which
    keeps the divergence finite and non-negative.
    """
    p = exact.weights
    if p.shape != estimate.weights.shape:
        raise ValueError(f"grid shapes differ: {p.shape} vs {estimate.weights.shape}")
    for grid, name in ((exact, "exact"), (estimate, "estimate")):
        if abs(grid.total() - 1.0) > 1e-9:
            raise ValueError(f"{name} grid must be normalized")
    q = np.where(estimate.weights > 0.0, estimate.weights, 1.0 / (10.0 * n * p.size))
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
