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
from .sbg import CalibrationCache, SbgArraySpec, SbgDevice, SbgMode, build_array, generate_array
from .seeding import DOMAIN_READINGS, rng_for

CHANNELS = ("d1", "b1", "d2", "b2", "d3", "b3")

DEFAULT_PLANE = 64.0
DEFAULT_SENSORS = ((0.0, 0.0), (0.0, 32.0), (32.0, 0.0))
DEFAULT_SIGMA_B = 14.0626  # degrees
DEFAULT_SIGMA_D_BASE = 5.0
DEFAULT_SIGMA_D_SLOPE = 0.1


class ShapeMismatch(ValueError):
    """Posterior grids of different shapes were compared."""


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
    normalized: bool = False

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("posterior weights must be a 2-D grid")
        if np.any(self.weights < 0):
            raise ValueError("posterior weights must be non-negative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape  # type: ignore[return-value]

    def total(self) -> float:
        return float(self.weights.sum())

    def normalize(self) -> "PosteriorGrid":
        total = self.total()
        if total <= 0.0:
            uniform = np.full_like(self.weights, 1.0 / self.weights.size)
            return PosteriorGrid(uniform, normalized=True)
        return PosteriorGrid(self.weights / total, normalized=True)

    def argmax(self) -> tuple[int, int]:
        """Peak cell; ties resolve to the lowest (x, y) lexicographically."""
        flat = int(np.argmax(np.ascontiguousarray(self.weights)))
        x, y = divmod(flat, self.weights.shape[1])
        return x, y


def bearing_deg(from_xy: tuple[float, float], to_xy: tuple[float, float]) -> float:
    """Viewing angle in degrees within [0, 360)."""
    angle = math.degrees(math.atan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0]))
    return angle % 360.0


def synthesize_readings(sensors: tuple[tuple[float, float], ...],
                        target_xy: tuple[float, float],
                        noise_d: float = 0.0, noise_b: float = 0.0,
                        master_seed: int = 0) -> tuple[SensorReading, ...]:
    """Readings a target at target_xy would produce, plus optional Gaussian
    measurement noise per channel (deterministic in master_seed)."""
    rng = rng_for(master_seed, DOMAIN_READINGS, 0)
    readings = []
    for sx, sy in sensors:
        d = math.hypot(target_xy[0] - sx, target_xy[1] - sy)
        b = bearing_deg((sx, sy), target_xy)
        if noise_d > 0.0:
            d = max(0.0, d + noise_d * rng.standard_normal())
        if noise_b > 0.0:
            b = (b + noise_b * rng.standard_normal()) % 360.0
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
    """All six likelihood grids (d1, b1, d2, b2, d3, b3), shape (6, W, H):
    Gaussian densities of each cell's distance residual and of its bearing
    residual, the minimal angle on [0, 180] (359 against 1 is 2, not 358)."""
    w, h = problem.grid_w, problem.grid_h
    sx, sy = problem.cell_scale
    xs = np.arange(w)[:, None] * sx
    ys = np.arange(h)[None, :] * sy
    channels = np.empty((6, w, h), dtype=np.float64)
    # A residual over a tiny sigma overflows to inf, and exp(-inf) = 0 is the
    # exact tail.
    with np.errstate(over="ignore"):
        for i, (cx, cy) in enumerate(problem.sensors):
            reading = problem.readings[i]
            dist = np.hypot(xs - cx, ys - cy)
            sd = problem.sigma_d(i)
            channels[2 * i] = np.exp(-0.5 * ((dist - reading.mu_d) / sd) ** 2) \
                / (math.sqrt(2.0 * math.pi) * sd)
            bearing = np.degrees(np.arctan2(ys - cy, xs - cx)) % 360.0
            diff = np.abs(bearing - reading.mu_b) % 360.0
            residual = np.minimum(diff, 360.0 - diff)
            channels[2 * i + 1] = np.exp(-0.5 * (residual / problem.sigma_b) ** 2) \
                / (math.sqrt(2.0 * math.pi) * problem.sigma_b)
    return channels


def exact_posterior(problem: FusionProblem) -> PosteriorGrid:
    """Normalized product of the six likelihood grids (uniform prior)."""
    channels = likelihood_channels(problem)
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


def quantize_unit_interval(values: np.ndarray, level_count: int) -> np.ndarray:
    """Map (0, 1] values onto the uniform grid {1/L, ..., 1}; nearest level,
    exact midpoints toward the lower level, level 0 excluded."""
    scaled = values * level_count
    k = np.floor(scaled)
    frac = scaled - k
    k = np.where(frac > 0.5, k + 1, k)
    k = np.clip(k, 1, level_count)
    return k / level_count


@dataclass
class FusionRunStats:
    """Accounting from one stochastic inference run."""

    n_cycles: int
    num_units: int
    total_energy_nj: float
    writes: int
    reads: int

    @property
    def energy_per_cycle_nj(self) -> float:
        return self.total_energy_nj / self.n_cycles


class FusionPipeline:
    """Clustering and allocation for one fusion problem, prepared from its
    quantized channel grid.

    Preparation is seed-independent; run() draws fresh generator streams for
    a given seed.  Cells re-use shared rows exactly as the switch matrix
    prescribes, so results are deterministic in (problem, seed, n).
    """

    def __init__(self, problem: FusionProblem, level_count: int = 64,
                 device: SbgDevice = SbgDevice(),
                 mode: SbgMode = SbgMode.SELF_CONTROL) -> None:
        self.problem = problem
        self.level_count = level_count
        self.device = device
        self.mode = mode
        self.calibration = CalibrationCache()

        # Each cell is one 6-input AND chain, so its six terminals form one
        # conflict set and cells share no terminal.  First-fit clustering of
        # same-level terminals then puts a terminal in its level's cluster
        # number `rank`, the count of earlier channels of its cell with the
        # same level (see README, "Preparation").
        channels = quantize_unit_interval(condition_channels(likelihood_channels(problem)),
                                          level_count)
        values, level_ids = np.unique(channels.reshape(6, -1).T, return_inverse=True)
        level_ids = level_ids.reshape(-1, 6)        # (cells, 6), cells in (x, y) order
        same = level_ids[:, :, None] == level_ids[:, None, :]
        rank = np.tril(same, k=-1).sum(axis=2)
        per_level = np.zeros(values.size, dtype=np.int64)
        np.maximum.at(per_level, level_ids, rank + 1)
        cluster_ids = (np.cumsum(per_level) - per_level)[level_ids] + rank
        names = [f"C{k}" for k in range(int(per_level.sum()))]
        cluster_assignment = dict(zip(names, np.repeat(values, per_level).tolist()))
        unique_sets = dict.fromkeys(map(tuple, np.sort(cluster_ids, axis=1).tolist()))
        self.cluster_sets = [frozenset(names[k] for k in row) for row in unique_sets]

        # The clusters of one level pairwise conflict (the cell that opens
        # cluster `rank` holds ranks 0 .. rank), so each takes its own row.
        self.spec = SbgArraySpec(tuple(values.tolist()), tuple(per_level.tolist()), mode)
        self.matrix = allocator.allocate(cluster_assignment, self.spec, self.cluster_sets, names)
        # Row index of each cell terminal, cells in (x, y) order.
        self.cell_rows = np.argmax(self.matrix.control, axis=0)[cluster_ids]

    @property
    def num_terminals(self) -> int:
        return self.cell_rows.size

    @property
    def num_units(self) -> int:
        return self.spec.total_units

    def run(self, n: int, master_seed: int,
            pv_sigmas: tuple[float, float] | None = None
            ) -> tuple[PosteriorGrid, FusionRunStats]:
        """One stochastic inference pass with n-bit streams."""
        array = build_array(self.spec, master_seed, self.device,
                            pv_sigmas=pv_sigmas, calibration=self.calibration)
        row_bits = generate_array(array, n)
        gathered = row_bits[self.cell_rows]          # (cells, 6, n)
        products = np.bitwise_and.reduce(gathered, axis=1)
        counts = products.sum(axis=1).astype(np.float64)
        w, h = self.problem.grid_w, self.problem.grid_h
        grid = PosteriorGrid((counts / n).reshape(w, h)).normalize()
        # Python's sum adds the energies one at a time in row order; np.sum
        # would add pairwise and round differently.
        stats = FusionRunStats(
            n_cycles=n, num_units=len(array),
            total_energy_nj=sum(array.energy_nj.tolist()),
            writes=int(array.writes.sum()),
            reads=int(array.reads.sum()))
        return grid, stats

    def analytic_estimate(self) -> PosteriorGrid:
        """Infinite-length limit: exact per-cell products of quantized levels."""
        w, h = self.problem.grid_w, self.problem.grid_h
        levels = np.array(self.matrix.row_levels)
        prods = np.prod(levels[self.cell_rows], axis=1)
        return PosteriorGrid(prods.reshape(w, h)).normalize()


def kl_divergence(exact: PosteriorGrid, estimate: PosteriorGrid,
                  zero_floor: float = 1e-300) -> float:
    """KL(exact || estimate) in nats.

    Estimated cells with zero mass are floored at zero_floor (callers use
    1/(10*n*W*H) for n-bit runs) and the estimate is renormalized, which
    keeps the divergence finite and non-negative.
    """
    if exact.shape != estimate.shape:
        raise ShapeMismatch(f"grid shapes differ: {exact.shape} vs {estimate.shape}")
    for grid, name in ((exact, "exact"), (estimate, "estimate")):
        if not grid.normalized or abs(grid.total() - 1.0) > 1e-9:
            raise ValueError(f"{name} grid must be normalized")
    p = exact.weights
    q = np.where(estimate.weights > 0.0, estimate.weights, zero_floor)
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def default_zero_floor(n: int, grid_w: int, grid_h: int) -> float:
    """Floor for zero ones-counts: one tenth of a single-count weight."""
    return 1.0 / (10.0 * n * grid_w * grid_h)
