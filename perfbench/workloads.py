"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, prepares in set-up what
a user would prepare once, then runs passes over the same inputs.  A pass is
a list of operations (one public spinsc call each); the runner times the
pass and afterwards checks every operation and digests its outputs.

Each workload makes one layer do most of the work:

* fusion-128     one `fusion-run` CLI call on a 128x128 grid: preparation
                 (network build, conflict sets, clustering, sizing and
                 allocation) dominates, generation is a few per cent;
* kl-sweep-32    the criterion-8 protocol (`kl_by_length`) on a 32x32
                 pipeline prepared in set-up: array generation dominates;
* sbg-protocols  density sweeps in simple mode with and without process
                 variation, plus self and cross SCC tables: one unit at a
                 time, a fresh calibration cache per protocol;
* netlist-alloc  random AND/NOT/MUX netlists through the `allocate` CLI:
                 the generic disjoint sum-of-products expansion, then the
                 standalone allocation verifier.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from probe import Probe


@dataclass
class Op:
    """One program call inside a pass, with what it produced."""

    name: str
    error: str | None = None
    data: dict = field(default_factory=dict)


def call(name: str, fn, *args, **kwargs) -> Op:
    """Run one operation; an exception is recorded, never raised."""
    op = Op(name)
    try:
        op.data["result"] = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def cli_call(sp: SimpleNamespace, name: str, argv: list[str]) -> Op:
    """cli.main in-process, its progress lines kept off the benchmark's stdout."""
    with redirect_stdout(io.StringIO()):
        return call(name, sp.cli.main, argv)


def floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def file_digest_parts(out_dir: Path, names: tuple[str, ...]) -> list[bytes]:
    parts = []
    for name in names:
        path = out_dir / name
        parts.append(name.encode() + b"\0" + (path.read_bytes() if path.is_file() else b""))
    return parts


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_grid(label: str, weights: np.ndarray, tol: float) -> list[str]:
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        return [f"{label} has non-finite or negative weights"]
    if abs(float(weights.sum()) - 1.0) > tol:
        return [f"{label} sums to {float(weights.sum())!r}, not 1"]
    return []


def verify(sp: SimpleNamespace, allocations: list) -> list[list[str]]:
    """The standalone verifier's findings for each captured allocation."""
    return [sp.allocator.verify_allocation(matrix, conflict_sets, assignment)
            for matrix, conflict_sets, assignment in allocations]


def check_allocation(allocations: list, violations: list[list[str]]) -> list[str]:
    """Exactly one allocation, and the verifier found nothing wrong with it."""
    if len(allocations) != 1:
        return [f"expected one allocation, observed {len(allocations)}"]
    return [f"verify_allocation: {v}" for v in violations[0]]


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")

    def params(self) -> dict:
        """Workload parameters, recorded with every run."""
        raise NotImplementedError

    def write_inputs(self, workdir: Path) -> None:
        """Write input files; not timed."""

    def setup(self, sp: SimpleNamespace, workdir: Path) -> SimpleNamespace:
        """Program-side preparation; timed as set-up."""
        return SimpleNamespace(sp=sp, workdir=workdir)

    def run_pass(self, state: SimpleNamespace, probe: Probe, out: Path) -> list[Op]:
        """One timed pass; files go under out, a fresh directory per pass."""
        raise NotImplementedError

    def check(self, state: SimpleNamespace, op: Op) -> list[str]:
        raise NotImplementedError

    def digest_parts(self, state: SimpleNamespace, op: Op) -> list[bytes]:
        raise NotImplementedError

    def sim(self, state: SimpleNamespace, ops: list[Op]) -> dict[str, float]:
        """Simulated and accuracy statistics of one pass (not host time)."""
        raise NotImplementedError

    def digest(self, state: SimpleNamespace, op: Op) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts(state, op):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()


def fusion_stats_metrics(sp: SimpleNamespace, runs: list) -> dict[str, float]:
    """Units, energy per cycle and generated bits over captured fusion runs."""
    if not runs:
        return {"sim_units": 0.0, "sim_energy_nj_per_cycle": 0.0, "sim_bits": 0.0}
    energies = [sp.cost.simulated_profile(stats).e_cyc_nj for _, _, stats in runs]
    return {"sim_units": float(runs[0][2].num_units),
            "sim_energy_nj_per_cycle": float(np.mean(energies)),
            "sim_bits": float(sum(stats.num_units * n for n, _, stats in runs))}


class Fusion128(Workload):
    """One `fusion-run` through cli.main; the seed picks the target and stream seed."""

    name = "fusion-128"
    FILES = ("fusion_summary.csv", "posterior.csv", "posterior.pgm", "posterior_exact.csv")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.grid = 8 if tiny else 128
        self.n = 16 if tiny else 128
        self.master_seed = self.rng.randrange(2**31)
        self.target = (self.rng.randrange(64, 193) / 4.0, self.rng.randrange(64, 193) / 4.0)

    def params(self) -> dict:
        return {"grid": self.grid, "bitstream_len": self.n, "target": self.target,
                "master_seed": self.master_seed}

    def write_inputs(self, workdir: Path) -> None:
        (workdir / "fusion.cfg").write_text(
            f"[run]\nmaster_seed = {self.master_seed}\nbitstream_len = {self.n}\n"
            f"[fusion]\ngrid = {self.grid}x{self.grid}\n"
            f"target = {self.target[0]},{self.target[1]}\n", encoding="utf-8")

    def setup(self, sp, workdir):
        sp.config.load_config(workdir / "fusion.cfg")
        return SimpleNamespace(sp=sp, workdir=workdir)

    def run_pass(self, state, probe, out):
        op = cli_call(state.sp, "fusion-run", [
            "--config", str(state.workdir / "fusion.cfg"), "--out-dir", str(out),
            "fusion-run"])
        op.data.update(out=out, runs=probe.take("run"), allocations=probe.take("allocate"),
                       problems=probe.take("problems"))
        return [op]

    def check(self, state, op):
        problems = list(op.data["problems"])
        out = op.data["out"]
        if op.data["result"] != 0:
            return problems + [f"fusion-run exited with {op.data['result']}"]
        missing = [f for f in self.FILES if not (out / f).is_file()]
        if missing:
            return problems + [f"fusion-run did not write {missing}"]
        cells = self.grid * self.grid
        for name in ("posterior.csv", "posterior_exact.csv"):
            header, rows = read_csv(out / name)
            if header != ["x", "y", "weight"] or len(rows) != cells:
                problems.append(f"{name} has header {header} and {len(rows)} rows")
                continue
            # Six significant digits per weight bound the rounded sum's error.
            problems += check_grid(name, np.array([float(r[2]) for r in rows]), 1e-4)
        pgm = (out / "posterior.pgm").read_bytes()
        head = f"P5\n{self.grid} {self.grid}\n255\n".encode()
        if not pgm.startswith(head) or len(pgm) != len(head) + cells:
            problems.append("posterior.pgm has a wrong header or size")
        _, rows = read_csv(out / "fusion_summary.csv")
        n, kl = int(rows[0][0]), float(rows[0][1])
        if n != self.n or not (math.isfinite(kl) and kl >= 0.0):
            problems.append(f"fusion_summary.csv reports n={n} kl={kl}")
        runs = op.data["runs"]
        if len(runs) != 1:
            return problems + [f"expected one fusion run, observed {len(runs)}"]
        n, grid, stats = runs[0]
        problems += check_grid("posterior", grid.weights, 1e-9)
        if stats.n_cycles != self.n:
            problems.append(f"run reports {stats.n_cycles} cycles, not {self.n}")
        allocations = op.data["allocations"]
        problems += check_allocation(allocations, verify(state.sp, allocations))
        return problems

    def digest_parts(self, state, op):
        return file_digest_parts(op.data["out"], self.FILES)

    def sim(self, state, ops):
        _, rows = read_csv(ops[0].data["out"] / "fusion_summary.csv")
        out = fusion_stats_metrics(state.sp, ops[0].data["runs"])
        out["kl_mean"] = float(rows[0][1])
        return out


class KlSweep32(Workload):
    """kl_by_length over several lengths and stream seeds on a prepared pipeline.

    The problem is the criterion-8 one (32x32 grid, target at (40, 22)), so
    the array does not change with the seed; the seed picks the stream seeds.
    """

    name = "kl-sweep-32"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.grid = 8 if tiny else 32
        self.lengths = (16, 32) if tiny else (64, 128, 256, 512)
        self.seeds = tuple(self.rng.randrange(2**31) for _ in range(2 if tiny else 4))
        self.level_count = 64

    def params(self) -> dict:
        return {"grid": self.grid, "lengths": self.lengths, "seeds": self.seeds,
                "target": (40.0, 22.0), "level_count": self.level_count}

    def setup(self, sp, workdir):
        problem = sp.fusion.make_problem(grid_w=self.grid, grid_h=self.grid,
                                         target_xy=(40.0, 22.0))
        pipeline = sp.fusion.FusionPipeline(problem, level_count=self.level_count)
        prepare = sp.experiments.FusionPipeline

        # kl_by_length prepares its own pipeline on every call; hand it the
        # one prepared here, so the timed part holds only generation, the
        # gather-AND-count step and KL, and preparation shows in setup_s.
        def prepared(problem_, level_count=64, params=None, *args, **kwargs):
            if problem_ == problem and level_count == self.level_count \
                    and params is None and not args and not kwargs:
                return pipeline
            return prepare(problem_, level_count, params, *args, **kwargs)

        sp.experiments.FusionPipeline = prepared
        return SimpleNamespace(sp=sp, workdir=workdir, problem=problem)

    def run_pass(self, state, probe, out):
        op = call("kl_by_length", state.sp.experiments.kl_by_length,
                  state.problem, self.lengths, self.seeds, level_count=self.level_count)
        op.data.update(runs=probe.take("run"), problems=probe.take("problems"))
        return [op]

    def check(self, state, op):
        problems = list(op.data["problems"])
        table = op.data["result"]
        if sorted(table) != sorted(self.lengths):
            return problems + [f"KL table has lengths {sorted(table)}"]
        for n in self.lengths:
            values = table[n]
            if len(values) != len(self.seeds) or \
                    not all(math.isfinite(v) and v >= 0.0 for v in values):
                problems.append(f"KL values at n={n} are {values}")
        runs = op.data["runs"]
        if len(runs) != len(self.lengths) * len(self.seeds):
            problems.append(f"observed {len(runs)} fusion runs")
        for n, grid, stats in runs:
            problems += check_grid(f"posterior at n={n}", grid.weights, 1e-9)
            expected = stats.num_units * (n + 1)
            if (stats.writes, stats.reads) != (expected, expected):
                problems.append(f"run at n={n}: {stats.writes} writes, "
                                f"{stats.reads} reads, expected {expected} each")
        return problems

    def digest_parts(self, state, op):
        table = op.data["result"]
        parts = [floats([table[n] for n in self.lengths])]
        parts += [floats(grid.weights) for _, grid, _ in op.data["runs"]]
        return parts

    def sim(self, state, ops):
        table = ops[0].data["result"]
        out = fusion_stats_metrics(state.sp, ops[0].data["runs"])
        out["kl_mean"] = float(np.mean([table[n] for n in self.lengths]))
        return out


class SbgProtocols(Workload):
    """density_sweep (simple mode, with and without PV) and the SCC tables.

    The seed jitters the probabilities around a fixed grid and picks the
    master seed, so the amount of work does not depend on it.
    """

    name = "sbg-protocols"
    PV_SIGMAS = (0.05, 0.02)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = self.rng
        self.master_seed = rng.randrange(2**31)
        grid = (0.3, 0.7) if tiny else tuple(0.1 * k for k in range(1, 10))
        self.sweep_probs = tuple(round(p + rng.uniform(-0.04, 0.04), 3) for p in grid)
        self.sweep_lengths = (16, 32) if tiny else (64, 128, 256)
        self.repeats = 3 if tiny else 50
        grid = (0.3, 0.7) if tiny else (0.1, 0.3, 0.5, 0.7, 0.9)
        self.scc_probs = tuple(round(p + rng.uniform(-0.05, 0.05), 3) for p in grid)
        self.scc_cross = tuple((round(rng.uniform(0.1, 0.5), 2), round(rng.uniform(0.2, 0.6), 2))
                               for _ in range(1 if tiny else 5))
        self.scc_lengths = (16, 32) if tiny else (64, 128, 256, 512)
        self.pairs = 2 if tiny else 20

    def params(self) -> dict:
        return {"master_seed": self.master_seed, "sweep_probs": self.sweep_probs,
                "sweep_lengths": self.sweep_lengths, "repeats": self.repeats,
                "pv_sigmas": self.PV_SIGMAS, "scc_probs": self.scc_probs,
                "scc_cross": self.scc_cross, "scc_lengths": self.scc_lengths,
                "scc_pairs": self.pairs}

    def run_pass(self, state, probe, out):
        ex, mode = state.sp.experiments, state.sp.sbg.SbgMode.SIMPLE
        ops = [
            call("density", ex.density_sweep, self.sweep_probs, self.sweep_lengths,
                 self.repeats, self.master_seed, mode=mode),
            call("density-pv", ex.density_sweep, self.sweep_probs, self.sweep_lengths,
                 self.repeats, self.master_seed, mode=mode, pv_sigmas=self.PV_SIGMAS),
            call("self-scc", ex.self_scc_table, self.scc_probs, self.scc_lengths,
                 self.pairs, self.master_seed),
            call("cross-scc", ex.cross_scc_table, self.scc_cross, self.scc_lengths,
                 self.pairs, self.master_seed),
        ]
        # Counter checks cannot be told apart per protocol; charge them to all.
        problems = probe.take("problems")
        for op in ops:
            op.data["problems"] = problems
        return ops

    def is_sweep(self, op: Op) -> bool:
        return op.name.startswith("density")

    def rows(self, op: Op) -> list[tuple]:
        """Sweeps as (n, avg_error, max_error); SCC tables as returned."""
        if self.is_sweep(op):
            return [(r.length, r.avg_error, r.max_error) for r in op.data["result"]]
        return [tuple(r) for r in op.data["result"]]

    def check(self, state, op):
        problems = list(op.data["problems"])
        rows = self.rows(op)
        if self.is_sweep(op):
            keys, expected = [r[:1] for r in rows], [(n,) for n in self.sweep_lengths]
        else:
            probs = self.scc_probs if op.name == "self-scc" else self.scc_cross
            keys = [r[:-1] for r in rows]
            expected = [(*(p if isinstance(p, tuple) else (p,)), n)
                        for p in probs for n in self.scc_lengths]
        if keys != expected:
            return problems + [f"{op.name} table is incomplete: {keys}"]
        for row in rows:
            values = row[1:] if self.is_sweep(op) else row[-1:]
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
                problems.append(f"{op.name} row {row} is out of range")
            elif self.is_sweep(op) and row[1] > row[2]:
                problems.append(f"{op.name} row {row}: mean error above max error")
        return problems

    def digest_parts(self, state, op):
        return [op.name.encode(), floats(self.rows(op))]

    def sim(self, state, ops):
        by_name = {op.name: self.rows(op) for op in ops}
        n_sweep, n_scc = self.sweep_lengths[-1], self.scc_lengths[-1]
        density = [r[1] for name in ("density", "density-pv") for r in by_name[name]
                   if r[0] == n_sweep]
        scc = [r[-1] for name in ("self-scc", "cross-scc") for r in by_name[name]
               if r[-2] == n_scc]
        sweep_units = 2 * len(self.sweep_probs) * self.repeats
        scc_units = 2 * self.pairs * (len(self.scc_probs) + len(self.scc_cross))
        return {"density_err": float(np.mean(density)),
                "scc_abs_mean": float(np.mean(scc)),
                "sim_units": float(sweep_units + scc_units),
                "sim_bits": float(sweep_units * n_sweep + scc_units * n_scc)}


class NetlistAlloc(Workload):
    """Random AND/NOT/MUX netlists through the `allocate` CLI, each allocation
    then checked by verify_allocation inside the timed pass.

    Every output is MUX(A, B, s): A and B are ANDs of `clauses` three-input
    NANDs over distinct terminals and s is another terminal.  Each output
    then expands into exactly 2 * 3**clauses disjoint products, so the
    expansion, not parsing, dominates and the work hardly varies with the
    wiring the seed draws.  Terminal probabilities sit on a 1/16 grid so
    that terminals cluster.
    """

    name = "netlist-alloc"
    FILES = ("allocate_summary.csv", "matrix.csv")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.count = 2 if tiny else 30
        self.terminals = 16 if tiny else 40
        self.outputs = 2 if tiny else 4
        self.clauses = 2 if tiny else 4
        self.netlists = [self.make_netlist() for _ in range(self.count)]

    def make_netlist(self) -> tuple[str, str]:
        rng = self.rng
        lines = [f"terminal t{i}" for i in range(self.terminals)]
        gates = 0

        def gate(kind: str, inputs: list[str]) -> str:
            nonlocal gates
            gid = f"g{gates}"
            gates += 1
            lines.append(f"gate {gid} {kind} " + " ".join(inputs))
            return gid

        for _ in range(self.outputs):
            names = [f"t{i}" for i in rng.sample(range(self.terminals), 6 * self.clauses + 1)]
            branches = []
            for b in range(2):
                nands = [gate("NOT", [gate("AND", names[3 * (b * self.clauses + j):][:3])])
                         for j in range(self.clauses)]
                branches.append(gate("AND", nands))
            lines.append(f"output {gate('MUX', [*branches, names[-1]])}")
        assignment = [f"t{i} = {rng.randrange(1, 16) / 16}" for i in range(self.terminals)]
        return "\n".join(lines) + "\n", "\n".join(assignment) + "\n"

    def params(self) -> dict:
        return {"netlists": self.count, "terminals": self.terminals,
                "outputs": self.outputs, "clauses": self.clauses, "levels": 16}

    def write_inputs(self, workdir: Path) -> None:
        for i, (netlist, assignment) in enumerate(self.netlists):
            (workdir / f"net{i}.net").write_text(netlist, encoding="utf-8")
            (workdir / f"net{i}.assign").write_text(assignment, encoding="utf-8")

    def run_pass(self, state, probe, out):
        ops = []
        for i in range(self.count):
            op = cli_call(state.sp, f"net{i}", [
                "--out-dir", str(out / f"net{i}"), "allocate",
                "--netlist", str(state.workdir / f"net{i}.net"),
                "--assignment", str(state.workdir / f"net{i}.assign")])
            op.data.update(out=out / f"net{i}", allocations=probe.take("allocate"))
            if op.error is None:
                try:
                    op.data["violations"] = verify(state.sp, op.data["allocations"])
                except Exception as exc:  # noqa: BLE001 - counted like any failed call
                    op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return ops

    def check(self, state, op):
        if op.data["result"] != 0:
            return [f"allocate exited with {op.data['result']}"]
        out = op.data["out"]
        missing = [f for f in self.FILES if not (out / f).is_file()]
        if missing:
            return [f"allocate did not write {missing}"]
        problems = check_allocation(op.data["allocations"], op.data["violations"])
        if problems:
            return problems
        control = op.data["allocations"][0][0].control
        _, rows = read_csv(out / "matrix.csv")
        entries = sorted((int(r), int(c)) for r, c in zip(*np.nonzero(control)))
        if [(int(r), int(c)) for r, c in rows] != entries:
            problems.append("matrix.csv differs from the allocated control matrix")
        _, rows = read_csv(out / "allocate_summary.csv")
        m, n_terminals, n_clustered = (int(v) for v in rows[0][:3])
        if (m, n_terminals, n_clustered) != (control.shape[0], self.terminals, control.shape[1]):
            problems.append(f"allocate_summary.csv reports m={m} n={n_terminals} "
                            f"n'={n_clustered} for a {control.shape} matrix")
        return problems

    def digest_parts(self, state, op):
        return file_digest_parts(op.data["out"], self.FILES)

    def sim(self, state, ops):
        units = sum(op.data["allocations"][0][0].num_rows for op in ops
                    if op.data.get("allocations"))
        return {"sim_units": float(units)}


WORKLOADS = {w.name: w for w in (Fusion128, KlSweep32, SbgProtocols, NetlistAlloc)}
