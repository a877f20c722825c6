"""Command-line front end: experiment orchestration and file emission.

Subcommands: sbg-characterize, array-report, scc-report, allocate, fusion-run,
cost-report, pv-sweep, kl-sweep.  Every output is a UTF-8 CSV with a one-line
header and floats at 6 significant digits (heat maps are binary 8-bit PGM),
and every run is a pure function of the configuration, so re-running a command
reproduces its files byte for byte.  Only _emit, a command's last step,
makes the output directory, so a refused run leaves none behind.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import allocator, cost, experiments, fusion
from .config import ConfigError, RunConfig, apply, level, load_config, read_input
from .device import WriteDirection, characterization_rows
from .logic import ScNetlist, cluster_terminals, extract_conflict_sets
from .sbg import SbgArraySpec, SbgMode, build_array, counters, generate_array


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# A table of at least this many rows, every column a float or integer numpy
# array, is formatted by _format_array_table; any other goes through one %
# template.  The array pass costs some fifty numpy calls a float column
# whatever the row count, the template a fixed time a value: they break even
# near 256 rows for the posterior (x, y, weight) and matrix (row, col)
# tables, near 320 for array-report's seven columns (CHANGES.md).
_ARRAY_TABLE_ROWS = 256
# The "0.000" that %g's fixed form writes before the digits of a value of
# exponent -z: the slot of _FRACTION_CHARS[k] shows for z >= _FRACTION_Z[k].
_FRACTION_CHARS = np.frombuffer(b"0.000", np.uint8)[:, None]
_FRACTION_Z = np.array([1, 1, 2, 3, 4], np.int32)[:, None]
_DIGIT_INDEX = np.arange(6, dtype=np.int32)[:, None]
# Slots of one %.6g field: sign, fraction prefix, six digits each followed by
# a decimal-point slot (but the last), exponent suffix.
_FLOAT_WIDTH = 22
# An integer's digit of place p shows once its magnitude reaches
# _PLACE_VALUES[p]; the ones digit always.
_PLACE_VALUES = np.array([0] + [10 ** p for p in range(1, 20)], np.uint64)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lookup tables of the array formatter, built on its first use: made
    at import, they pinned freed heap in every process, one that never
    writes a long table too (CHANGES.md).

    digit_words[k] spells k in three decimal digits, its fourth byte counts
    k's trailing zeros; exponent_words[e + 300] spells the "e+XX" suffix of
    exponent e (|e| < 300), exponent_words[0] nothing; scale[e + 300] is
    10^(5 - e), which takes a value of exponent e to six digits before the
    point.  _word_slots reads a word's bytes; those past its text are NUL."""
    k = np.arange(1000)
    digit_words = np.stack([k // 100 + 48, k // 10 % 10 + 48, k % 10 + 48,
                            (k % 10 == 0) * 1 + (k % 100 == 0) + (k == 0)], axis=1
                           ).astype(np.uint8).view(np.uint32).ravel()
    e = np.arange(-300, 300)
    exponent_words = np.stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                               np.where(abs(e) < 100, 0, abs(e) // 100 + 48),
                               abs(e) // 10 % 10 + 48, abs(e) % 10 + 48, *[e * 0] * 3],
                              axis=1).astype(np.uint8).view(np.uint64).ravel()
    exponent_words[0] = 0
    return digit_words, exponent_words, 10.0 ** (5 - e)


def _word_slots(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bytes of each word, one byte a row."""
    return words.view(np.uint8).reshape(len(words), -1)[:, :count].T


def _format_floats(column: np.ndarray, out: np.ndarray) -> None:
    """Each float as '%.6g' % v writes it, into the slots of out, one slot a
    row and one value a column: an ASCII character a slot, NUL in each slot
    that the value leaves empty."""
    # Widening is exact; it only quiets a signalling NaN, which formats as
    # any NaN does.
    with np.errstate(invalid="ignore"):
        v = column.astype(np.float64, copy=False)
    digit_words, exponent_words, scale = _tables()
    a = np.abs(v)
    # Zero, non-finite and extreme magnitudes take stand-in 1.0 here; a
    # zero's digit is mended below and the others are formatted one by one.
    vector = (a >= 1e-290) & (a <= 1e290)
    a = np.where(vector, a, 1.0)
    # Six digits: a * 10^(5 - e) rounded.  Where log10 lands one off, next
    # to a power of ten, the scaled value lies within 1e-6 of 1e5 or 1e6, and
    # rounds to the same digits the right exponent gives.
    e = np.floor(np.log10(a)).astype(np.int32)
    scaled = a * scale.take(e + 300)
    r = np.rint(scaled)
    # The scaling errs by an ulp or two, far less than 1e-6, so only a
    # fraction that close to .5 can round otherwise than %.6g's correct
    # rounding, which takes exact ties to even.
    slow = (np.abs(scaled - r) > 0.5 - 1e-6) | ~vector & (v != 0)
    r = r.astype(np.int32)
    carry = r == 1_000_000
    r[carry] = 100_000
    e += carry
    hi = digit_words.take(r // 1000, mode="clip")
    lo = digit_words.take(r % 1000, mode="clip")
    trailing = _word_slots(lo, 4)[3]
    last = 5 - trailing - (trailing == 3) * _word_slots(hi, 4)[3]
    # %g writes -4 <= e < 6 in fixed form: every integer digit, a point after
    # digit e if a significant digit follows it, and "0.000" before a
    # fraction; any other exponent as d.ddddde+XX, which point_e (0 there)
    # puts after the first digit.
    fixed = (e >= -4) & (e < 6)
    point_e = e * fixed
    out[0] = np.signbit(v) * np.uint8(ord("-"))
    out[1:6] = (-point_e >= _FRACTION_Z) * _FRACTION_CHARS
    out[6:11:2] = _word_slots(hi, 3)
    out[12:17:2] = _word_slots(lo, 3)
    out[6] -= v == 0
    out[6:17:2] *= _DIGIT_INDEX <= np.maximum(last, point_e)
    out[7:16:2] = (_DIGIT_INDEX[:5] == np.where(point_e < last, point_e, -1)) * np.uint8(ord("."))
    out[17:] = _word_slots(exponent_words.take((e + 300) * ~fixed), 5)
    if np.count_nonzero(slow):
        out[:, slow] = np.array(["%.6g" % x for x in v[slow].tolist()], f"S{_FLOAT_WIDTH}"
                                ).view(np.uint8).reshape(-1, _FLOAT_WIDTH).T


def _format_ints(column: np.ndarray, out: np.ndarray) -> None:
    """Each integer as '%d' % v writes it, into the slots of out, one slot a
    row and one value a column: the sign, then the digits right-aligned, NUL
    in the slots before them."""
    digit_words = _tables()[0]
    negative = column < 0
    # Two's complement negation gives int64's minimum its magnitude 2^63.
    magnitude = column.astype(np.uint64)
    magnitude[negative] = -magnitude[negative]
    out[0] = negative * np.uint8(ord("-"))
    digits = out[1:]
    places = len(digits)
    # Three places a word, from the ones up; the top word may fill fewer.
    for end in range(places, 0, -3):
        words = digit_words.take(magnitude // 10 ** (places - end) % 1000, mode="clip")
        digits[max(end - 3, 0):end] = _word_slots(words, 3)[max(3 - end, 0):]
    digits *= magnitude >= _PLACE_VALUES[places - 1::-1, None]


def _format_array_table(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV lines of float and integer array columns, the bytes that a
    %.6g or %d field per value writes, formatted a column at a time.  Each
    value fills fixed slots of one byte buffer, NUL where it is shorter, and
    the NULs are deleted when the buffer is joined."""
    rows = len(columns[0])
    if any(len(column) != rows for column in columns):
        raise ValueError("CSV columns differ in length")
    widths = [_FLOAT_WIDTH if column.dtype.kind == "f"
              else 1 + len(str(max(int(column.max()), -int(column.min())))) for column in columns]
    # One row of slots per character position, so that every numpy call
    # runs along the values; the transpose puts each line's slots together.
    buf = np.zeros((sum(widths) + len(widths), rows), np.uint8)
    start = 0
    for column, width in zip(columns, widths):
        formatter = _format_floats if column.dtype.kind == "f" else _format_ints
        formatter(column, buf[start:start + width])
        buf[start + width] = ord(",")
        start += width + 1
    buf[-1] = ord("\n")
    return buf.T.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: list[str], columns: Sequence[Sequence]) -> None:
    """A CSV file, in a directory that exists, from its columns, every value
    as fmt writes it.  A float or integer numpy array takes a %.6g or %d
    field by its dtype; any other column is run through fmt into a %s field.
    A long table of array columns alone is formatted by _format_array_table,
    any other in one % call."""
    rows = len(columns[0]) if columns else 0
    if rows >= _ARRAY_TABLE_ROWS and all(
            isinstance(column, np.ndarray) and column.dtype.kind in "fiu" for column in columns):
        body = _format_array_table(columns)
    else:
        fields, values = [], []
        for column in columns:
            kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
            if kind in "fiu":
                fields.append("%.6g" if kind == "f" else "%d")
                values.append(column.tolist())
            else:
                fields.append("%s")
                values.append(map(fmt, column))
        line = ",".join(fields) + "\n"
        body = ((line * rows) % tuple(chain.from_iterable(zip(*values, strict=True)))
                ).encode("utf-8")
    path.write_bytes((",".join(header) + "\n").encode("utf-8") + body)


def write_pgm(path: Path, weights: np.ndarray) -> None:
    """Max-normalized 8-bit binary PGM heat map, in a directory that exists."""
    peak = float(weights.max())
    scale = 255.0 / peak if peak > 0 else 0.0
    gray = np.round(weights * scale).astype(np.uint8)
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + gray.tobytes())


def _emit(cfg: RunConfig, files: dict) -> list[Path]:
    """Write a command's files, in order, into cfg.out_dir, made here: a .pgm
    name maps to a weight grid, a CSV name to its (header, columns)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".pgm"):
            write_pgm(out / name, content)
        else:
            write_csv(out / name, *content)
    return [out / name for name in files]


def cmd_sbg_characterize(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    return _emit(cfg, {f"characterize_{direction.value}.csv": (
        ["voltage", "duration", "probability"], list(zip(*characterization_rows(
            cfg.device.params, list(cfg.report.characterize_voltages),
            list(cfg.report.characterize_durations), direction))))
        for direction in (WriteDirection.P_TO_AP, WriteDirection.AP_TO_P)})


def cmd_array_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    """Per-unit density error and energy for the configured generator array."""
    levels = cfg.array.levels
    multiplicity = cfg.array.multiplicity or tuple(1 for _ in levels)
    if len(multiplicity) != len(levels):
        raise ConfigError("array multiplicity must match the level count")
    spec = SbgArraySpec(levels, multiplicity, cfg.array.mode)
    array = build_array(spec, cfg.master_seed, cfg.device, pv_sigmas=cfg.pv_sigmas)
    n = cfg.bitstream_len
    bits, energy = generate_array(array, n)
    density = bits.sum(axis=1) / n
    writes, reads = (np.full(len(array), count, dtype=np.int64) for count in counters(spec.mode, n))
    return _emit(cfg, {"array_report.csv": (
        ["unit", "target_p", "density", "abs_error", "energy_nj", "writes", "reads"],
        [np.arange(len(array)), array.targets, density, np.abs(density - array.targets),
         energy, writes, reads])})


def cmd_scc_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    rep = cfg.report
    self_rows = experiments.self_scc_table(
        rep.scc_probs, rep.scc_lengths, rep.scc_pairs, cfg.master_seed,
        mode=cfg.array.mode, device=cfg.device)
    cross_rows = experiments.cross_scc_table(
        rep.scc_cross, rep.scc_lengths, rep.scc_pairs, cfg.master_seed,
        mode=cfg.array.mode, device=cfg.device)
    return _emit(cfg, {"self_scc.csv": (["p", "n", "mean_abs_scc"], list(zip(*self_rows))),
                       "cross_scc.csv": (["p1", "p2", "n", "mean_abs_scc"],
                                         list(zip(*cross_rows)))})


def _load_assignment(path: Path) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(read_input(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        name = name.strip()
        if not (eq and name):
            raise ConfigError(f"{path}:{lineno}: expected 'terminal = probability'")
        if name in values:
            raise ConfigError(f"{path}:{lineno}: terminal {name!r} is assigned twice")
        try:
            values[name] = level(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def cmd_allocate(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    text = read_input(args.netlist)
    try:
        net = ScNetlist.parse(text)
    except ValueError as exc:
        raise ValueError(f"{args.netlist}: {exc}") from exc
    if not net.terminals:
        raise ValueError(f"{args.netlist}: the netlist declares no terminal")
    assignment = _load_assignment(args.assignment)
    missing = [t for t in net.terminals if t not in assignment]
    if missing:
        raise ConfigError(f"assignment misses terminals: {missing}")
    unknown = sorted(set(assignment) - set(net.terminals))
    if unknown:
        raise ConfigError(f"assignment names terminals the netlist lacks: {unknown}")

    conflict_sets = extract_conflict_sets(net)
    cluster_of = cluster_terminals(net, conflict_sets, assignment)
    col_levels = [0.0] * len(set(cluster_of.values()))
    for t, k in cluster_of.items():
        col_levels[k] = assignment[t]
    spec = allocator.size_array(col_levels, cfg.array.mode)
    matrix = allocator.allocate(
        col_levels, spec, [{cluster_of[t] for t in group} for group in conflict_sets])
    m = spec.total_units
    n_terminals = len(net.terminals)
    n_prime = len(col_levels)
    k_energy, k_cmos = cost.cost_metrics(n_terminals, m, n_prime)
    files = _emit(cfg, {
        # np.nonzero lists the entries row by row, each row's columns ascending.
        "matrix.csv": (["row", "col"], np.nonzero(matrix.control)),
        "allocate_summary.csv": (["m", "n_terminals", "n_clustered", "k_energy", "k_cmos"],
                                 [[m], [n_terminals], [n_prime], [k_energy], [k_cmos]])})
    print(f"allocated {n_terminals} terminals onto {m} generators "
          f"({n_prime} clustered columns)")
    return files


def _pipeline(cfg: RunConfig) -> fusion.FusionPipeline:
    fus = cfg.fusion
    grid_w, grid_h = fus.grid
    problem = fusion.make_problem(
        grid_w=grid_w, grid_h=grid_h, target_xy=fus.target,
        noise_d=fus.noise_d, noise_b=fus.noise_b, master_seed=cfg.master_seed,
        plane=fus.plane, sensors=fus.sensors, sigma_b=fus.sigma_b,
        sigma_d_base=fus.sigma_d_base, sigma_d_slope=fus.sigma_d_slope)
    return fusion.FusionPipeline(problem, fus.level_count, cfg.device, cfg.array.mode)


def cmd_fusion_run(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    pipeline = _pipeline(cfg)
    grid_w, grid_h = cfg.fusion.grid
    n = cfg.bitstream_len
    estimate, stats = pipeline.run(n, cfg.master_seed, pv_sigmas=cfg.pv_sigmas)
    kl = fusion.kl_divergence(pipeline.exact, estimate, n)
    ax, ay = estimate.argmax()

    # One (x, y, weight) line per grid cell, x-major.
    xs, ys = np.repeat(np.arange(grid_w), grid_h), np.tile(np.arange(grid_h), grid_w)
    files = _emit(cfg, {
        "posterior.csv": (["x", "y", "weight"], [xs, ys, estimate.weights.ravel()]),
        "posterior.pgm": estimate.weights,
        "posterior_exact.csv": (["x", "y", "weight"], [xs, ys, pipeline.exact.weights.ravel()]),
        "fusion_summary.csv": (["n", "kl", "argmax_x", "argmax_y"], [[n], [kl], [ax], [ay]])})
    print(f"{n},{fmt(kl)},{ax},{ay}")
    return files


def cmd_cost_report(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    files = _emit(cfg, {"cost_report.csv": cost.comparison_table()})
    reference = cost.SHARED_ARRAY_REFERENCE
    for profile in (cost.MTJ_BASELINE, cost.FPGA_BASELINE):
        ratio = cost.compare(profile, reference)
        print(f"{profile.label} / {reference.label} energy ratio: {fmt(ratio)}")
    return files


def cmd_pv_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    rep = cfg.report
    sigmas = (cfg.pv_sigma_area, cfg.pv_sigma_tox)
    results = experiments.density_sweep(
        rep.sweep_probs, rep.sweep_lengths, rep.sweep_repeats, cfg.master_seed,
        mode=SbgMode.SIMPLE, device=cfg.device, pv_sigmas=sigmas)
    return _emit(cfg, {"pv_sweep.csv": (
        ["n", "avg_error", "max_error"],
        list(zip(*((r.length, r.avg_error, r.max_error) for r in results))))})


def cmd_kl_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[Path]:
    """KL divergence against stream length, without and with process variation."""
    rep = cfg.report
    pipeline = _pipeline(cfg)
    seeds = tuple(cfg.master_seed + k for k in range(rep.sweep_repeats))
    rows = []
    for label, sigmas in (("off", None), ("on", (cfg.pv_sigma_area, cfg.pv_sigma_tox))):
        table = experiments.kl_by_length(pipeline.problem, rep.sweep_lengths, seeds,
                                         pv_sigmas=sigmas, pipeline=pipeline)
        rows.extend((n, label, np.mean(table[n]), min(table[n]), max(table[n]))
                    for n in rep.sweep_lengths)
    return _emit(cfg, {"kl_sweep.csv": (["n", "variation", "mean_kl", "min_kl", "max_kl"],
                                        list(zip(*rows)))})


# Subcommand -> (handler, help).  A handler takes the run configuration and
# the parsed arguments and returns what its closing _emit call wrote.
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
            cfg = apply(cfg, section, {key: text})
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files = args.handler(apply_overrides(load_config(args.config), args), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
