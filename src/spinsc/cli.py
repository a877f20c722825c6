"""Command-line front end: experiment orchestration and file emission.

Subcommands: sbg-characterize, array-report, scc-report, allocate, fusion-run,
cost-report, pv-sweep, kl-sweep.  Every output is a UTF-8 CSV with a one-line
header and floats at 6 significant digits (heat maps are binary 8-bit PGM),
and every run is a pure function of the configuration, so re-running a command
reproduces its files byte for byte.  The output directory is made by the
first file written to it, so a refused run leaves none behind.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np

from . import allocator, cost, experiments, fusion
from .config import ConfigError, RunConfig, apply, load_config
from .device import WriteDirection, characterization_rows
from .logic import ScNetlist, cluster_terminals, clusters_of, extract_conflict_sets
from .sbg import SbgArraySpec, SbgMode, build_array, generate_array

# Transistor count per self-control generator cell, used for K_cmos.
T_PER_SBG = 92


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pgm(path: Path, weights: np.ndarray) -> None:
    """Max-normalized 8-bit binary PGM heat map."""
    peak = float(weights.max())
    scale = 255.0 / peak if peak > 0 else 0.0
    gray = np.round(weights * scale).astype(np.uint8)
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + gray.tobytes())


def cmd_sbg_characterize(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    # Both tables are computed before either is written, so a refused run
    # leaves no directory.
    tables = {out / f"characterize_{direction.value}.csv": characterization_rows(
        cfg.device.params, list(cfg.report.characterize_voltages),
        list(cfg.report.characterize_durations), direction)
        for direction in (WriteDirection.P_TO_AP, WriteDirection.AP_TO_P)}
    for path, rows in tables.items():
        write_csv(path, ["voltage", "duration", "probability"], rows)
    return list(tables)


def cmd_array_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    """Per-unit density error and energy for the configured generator array."""
    out = Path(cfg.out_dir)
    levels = cfg.array.resolved_levels()
    multiplicity = cfg.array.multiplicity or tuple(1 for _ in levels)
    if len(multiplicity) != len(levels):
        raise ConfigError("array multiplicity must match the level count")
    spec = SbgArraySpec(tuple(levels), tuple(multiplicity), cfg.array.mode)
    array = build_array(spec, cfg.master_seed, cfg.device, pv_sigmas=cfg.pv_sigmas)
    n = cfg.bitstream_len
    ones = generate_array(array, n).sum(axis=1)
    columns = (array.targets, ones, array.energy_nj, array.writes, array.reads)
    rows = [(idx, p, count / n, abs(count / n - p), energy, writes, reads)
            for idx, (p, count, energy, writes, reads)
            in enumerate(zip(*(column.tolist() for column in columns)))]
    path = out / "array_report.csv"
    write_csv(path, ["unit", "target_p", "density", "abs_error",
                     "energy_nj", "writes", "reads"], rows)
    return [path]


def cmd_scc_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    rep = cfg.report
    self_rows = experiments.self_scc_table(
        rep.scc_probs, rep.scc_lengths, rep.scc_pairs, cfg.master_seed,
        mode=cfg.array.mode, device=cfg.device)
    cross_rows = experiments.cross_scc_table(
        rep.scc_cross, rep.scc_lengths, rep.scc_pairs, cfg.master_seed,
        mode=cfg.array.mode, device=cfg.device)
    self_path = out / "self_scc.csv"
    cross_path = out / "cross_scc.csv"
    write_csv(self_path, ["p", "n", "mean_abs_scc"], self_rows)
    write_csv(cross_path, ["p1", "p2", "n", "mean_abs_scc"], cross_rows)
    return [self_path, cross_path]


def _load_assignment(path: Path) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'terminal = probability'")
        name, _, value = line.partition("=")
        name = name.strip()
        if name in values:
            raise ConfigError(f"{path}:{lineno}: terminal {name!r} is assigned twice")
        try:
            p = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(p):
            raise ConfigError(f"{path}:{lineno}: must be finite")
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"{path}:{lineno}: must lie in (0, 1]")
        values[name] = p
    return values


def cmd_allocate(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    net = ScNetlist.parse(args.netlist.read_text(encoding="utf-8"))
    assignment = _load_assignment(args.assignment)
    missing = [t for t in net.terminals if t not in assignment]
    if missing:
        raise ConfigError(f"assignment misses terminals: {missing}")
    unknown = sorted(set(assignment) - set(net.terminals))
    if unknown:
        raise ConfigError(f"assignment names terminals the netlist lacks: {unknown}")

    conflict_sets = extract_conflict_sets(net)
    by_value: dict[float, list[str]] = {}
    for t in net.terminals:
        by_value.setdefault(assignment[t], []).append(t)
    classes = [members for _, members in sorted(by_value.items())]
    cluster_map = cluster_terminals(net, conflict_sets, classes)
    clusters = clusters_of(cluster_map)
    cluster_assignment = {cid: assignment[members[0]] for cid, members in clusters.items()}
    # The classes are the levels, and the clusters of one class pairwise
    # conflict (cluster_terminals opens a new one only for a terminal that
    # conflicts with every earlier one), so each cluster takes its own row.
    per_level = Counter(cluster_assignment.values())
    if not per_level:
        raise ValueError("at least one level is required")
    levels = tuple(sorted(per_level))
    spec = SbgArraySpec(levels, tuple(per_level[lvl] for lvl in levels), cfg.array.mode)
    matrix = allocator.allocate(
        cluster_assignment, spec,
        [frozenset(cluster_map[t] for t in group) for group in conflict_sets], list(clusters))

    matrix_path = out / "matrix.csv"
    entries = [(int(r), int(c)) for r, c in zip(*np.nonzero(matrix.control))]
    write_csv(matrix_path, ["row", "col"], sorted(entries))

    m = spec.total_units
    n_terminals = len(net.terminals)
    n_prime = len(clusters)
    k_energy, k_cmos = allocator.cost_metrics(T_PER_SBG, n_terminals, m, n_prime)
    summary_path = out / "allocate_summary.csv"
    write_csv(summary_path, ["m", "n_terminals", "n_clustered", "k_energy", "k_cmos"],
              [(m, n_terminals, n_prime, k_energy, k_cmos)])
    print(f"allocated {n_terminals} terminals onto {m} generators "
          f"({n_prime} clustered columns)")
    return [matrix_path, summary_path]


def _problem(cfg: RunConfig) -> fusion.FusionProblem:
    fus = cfg.fusion
    grid_w, grid_h = fus.grid
    return fusion.make_problem(
        grid_w=grid_w, grid_h=grid_h, target_xy=fus.target,
        noise_d=fus.noise_d, noise_b=fus.noise_b, master_seed=cfg.master_seed,
        plane=fus.plane, sensors=fus.sensors, sigma_b=fus.sigma_b,
        sigma_d_base=fus.sigma_d_base, sigma_d_slope=fus.sigma_d_slope)


def _cell_rows(weights: np.ndarray) -> list[tuple[int, int, float]]:
    """(x, y, weight) per grid cell, x-major."""
    return [(x, y, w) for x, column in enumerate(weights.tolist())
            for y, w in enumerate(column)]


def cmd_fusion_run(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    problem = _problem(cfg)
    grid_w, grid_h = cfg.fusion.grid
    pipeline = fusion.FusionPipeline(problem, cfg.fusion.level_count, cfg.device, cfg.array.mode)
    n = cfg.bitstream_len
    estimate, stats = pipeline.run(n, cfg.master_seed, pv_sigmas=cfg.pv_sigmas)
    exact = fusion.exact_posterior(problem)
    kl = fusion.kl_divergence(exact, estimate,
                              zero_floor=fusion.default_zero_floor(n, grid_w, grid_h))
    ax, ay = estimate.argmax()

    posterior_path = out / "posterior.csv"
    write_csv(posterior_path, ["x", "y", "weight"], _cell_rows(estimate.weights))
    pgm_path = out / "posterior.pgm"
    write_pgm(pgm_path, estimate.weights)
    exact_path = out / "posterior_exact.csv"
    write_csv(exact_path, ["x", "y", "weight"], _cell_rows(exact.weights))
    summary_path = out / "fusion_summary.csv"
    write_csv(summary_path, ["n", "kl", "argmax_x", "argmax_y"], [(n, kl, ax, ay)])
    print(f"{n},{fmt(kl)},{ax},{ay}")
    return [posterior_path, pgm_path, exact_path, summary_path]


def cmd_cost_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    rows = cost.comparison_rows()
    path = out / "cost_report.csv"
    header = ["method", "e_cyc_nj", "t_cyc_ns", "n_cyc", "e_tot_uj", "t_tot_us", "n_cmos_k"]
    write_csv(path, header, [tuple(r[h] for h in header) for r in rows])
    reference = cost.SHARED_ARRAY_REFERENCE
    for profile in (cost.MTJ_BASELINE, cost.FPGA_BASELINE):
        ratio = cost.compare(profile, reference)
        print(f"{profile.label} / {reference.label} energy ratio: {fmt(ratio)}")
    return [path]


def cmd_pv_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    out = Path(cfg.out_dir)
    rep = cfg.report
    sigmas = (cfg.pv_sigma_area, cfg.pv_sigma_tox)
    results = experiments.density_sweep(
        rep.sweep_probs, rep.sweep_lengths, rep.sweep_repeats, cfg.master_seed,
        mode=SbgMode.SIMPLE, device=cfg.device, pv_sigmas=sigmas)
    path = out / "pv_sweep.csv"
    write_csv(path, ["n", "avg_error", "max_error"],
              [(r.length, r.avg_error, r.max_error) for r in results])
    return [path]


def cmd_kl_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    """KL divergence against stream length, without and with process variation."""
    out = Path(cfg.out_dir)
    rep = cfg.report
    problem = _problem(cfg)
    pipeline = fusion.FusionPipeline(problem, cfg.fusion.level_count, cfg.device, cfg.array.mode)
    seeds = tuple(cfg.master_seed + k for k in range(rep.sweep_repeats))
    rows = []
    for label, sigmas in (("off", None), ("on", (cfg.pv_sigma_area, cfg.pv_sigma_tox))):
        table = experiments.kl_by_length(problem, rep.sweep_lengths, seeds,
                                         pv_sigmas=sigmas, pipeline=pipeline)
        rows.extend((n, label, np.mean(table[n]), min(table[n]), max(table[n]))
                    for n in rep.sweep_lengths)
    path = out / "kl_sweep.csv"
    write_csv(path, ["n", "variation", "mean_kl", "min_kl", "max_kl"], rows)
    return [path]


# Subcommand -> (handler, help).  A handler takes the run configuration and
# the parsed arguments and returns the files it wrote.
COMMANDS = {
    "sbg-characterize": (cmd_sbg_characterize, "voltage/duration/probability sweep"),
    "array-report": (cmd_array_report, "per-unit density error and energy"),
    "scc-report": (cmd_scc_report, "self- and cross-correlation tables"),
    "allocate": (cmd_allocate, "size and route a netlist onto the array"),
    "fusion-run": (cmd_fusion_run, "stochastic target-locating inference"),
    "cost-report": (cmd_cost_report, "platform cost comparison table"),
    "pv-sweep": (cmd_pv_sweep, "density error under process variation"),
    "kl-sweep": (cmd_kl_sweep, "fusion KL divergence against stream length"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsc",
        description="MTJ stochastic-computing Bayesian inference simulator")
    parser.add_argument("--config", type=Path, default=None,
                        help="key-value configuration file")
    parser.add_argument("--seed", help="master seed override ([run] master_seed)")
    parser.add_argument("--out-dir", help="output directory ([run] out_dir)")
    pv_group = parser.add_mutually_exclusive_group()
    pv_group.add_argument("--pv", action="store_const", const="true",
                          help="enable process variation ([run] pv)")
    pv_group.add_argument("--no-pv", dest="pv", action="store_const", const="false",
                          help="disable process variation ([run] pv)")
    parser.add_argument("--grid", help="fusion grid, e.g. 32x32 ([fusion] grid)")
    parser.add_argument("--bitstream-len", help="stream length ([run] bitstream_len)")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text).set_defaults(handler=handler)
    alloc = sub.choices["allocate"]
    alloc.add_argument("--netlist", type=Path, required=True)
    alloc.add_argument("--assignment", type=Path, required=True)
    return parser


# Global flag (its argparse dest) -> the config key it overrides.  A flag's
# text goes through that key's parser, so both take and refuse the same text.
FLAG_KEYS = {
    "seed": ("run", "master_seed"),
    "out_dir": ("run", "out_dir"),
    "pv": ("run", "pv"),
    "bitstream_len": ("run", "bitstream_len"),
    "grid": ("fusion", "grid"),
}


def apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for dest, (section, key) in FLAG_KEYS.items():
        text = getattr(args, dest)
        if text is not None:
            cfg = apply(cfg, section, key, text)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files = args.handler(apply_overrides(load_config(args.config), args), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
