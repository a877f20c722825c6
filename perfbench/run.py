"""spinsc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fusion-128 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports spinsc from the checkout's
src/ and exits with code 2, printing no result, when that is missing.

Set-up (importing spinsc, loading the configuration and any preparation a
user does once) is repeated several times and its median reported as
setup_s.  The workload's passes then repeat over the same seed-made inputs
until --seconds have passed; wall_s is the median time of one pass.
Every operation is checked after its pass, outside the timed region, and
its outputs are digested with SHA-256; a pass whose digests differ from the
first pass's is a failure too.

Host speed is not steady on a shared machine: it switches between states
up to 1.7x apart, for a fraction of a second to tens of seconds, which
moved the median host time of a run by 20-35% from run to run.  So the
host's speed is sampled while every set-up and pass runs (SpeedSampler),
and setup_s, wall_s and the per-layer times are host seconds scaled to the
speed at which the sampled loop takes REFERENCE_SAMPLE_S.  The unscaled
host medians are recorded too (host.wall_s, host.setup_s), with the sampled
loop's median time (host.sample_s).

With --trace 1, passes alternate between traced (spans at every layer
boundary, see layers.py) and untraced, the per-layer metrics come from the
traced passes, and trace.overhead_s is the traced minus the untraced median.

sim_* values are statistics of the simulated array, not host measurements.
The model has not been validated against silicon and the repository holds
no hardware reference results, so the accuracy figures
compare with the exact posterior (kl_mean) and the target probability
(density_err), and scc_abs_mean with the ideal of zero correlation.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record (settings, parameters, digests, every
pass) goes to .perfbench/ in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from probe import Probe
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 7
SAMPLE_PERIOD_S = 0.01
SAMPLE_ITERATIONS = 2000
# Host seconds the sampled loop takes on the host the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11) when that host runs at its faster speed.
REFERENCE_SAMPLE_S = 165e-6
MODULES = ("device", "sbg", "stochastic", "logic", "allocator", "fusion", "cost",
           "experiments", "config", "cli")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SIM_METRICS = ("kl_mean", "density_err", "scc_abs_mean", "sim_units",
               "sim_energy_nj_per_cycle")


def load_spinsc(src: Path) -> SimpleNamespace:
    """A fresh import of spinsc from src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "spinsc" or n.startswith("spinsc.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module("spinsc")
    if Path(pkg.__file__).resolve().parent != (src / "spinsc").resolve():
        raise ImportError(f"spinsc was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"spinsc.{m}")
                                       for m in MODULES})


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def settings(root: Path, sp: SimpleNamespace) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "spinsc": getattr(sp.pkg, "__version__", "unknown"),
            "commit": git_commit(root), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "platform": platform.platform()}


def median_dict(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


class SpeedSampler:
    """Samples the host's speed while a block runs.

    Every SAMPLE_PERIOD_S a SIGALRM handler times a fixed pure-Python loop.
    A block's host seconds, less the handler's own time, are scaled by
    REFERENCE_SAMPLE_S over the loop's mean time during the block: the
    block's time at the speed at which the loop takes REFERENCE_SAMPLE_S.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(SAMPLE_ITERATIONS):
            acc += (i * 0.5) % 7.0
        self.samples.append(time.perf_counter() - t0)

    def timed(self, fn, *args) -> tuple:
        """fn's result and a timing record of the call."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            host = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        host -= sum(self.samples)
        if not self.samples:  # a block shorter than one period
            self.sample()
        loop_s = statistics.fmean(self.samples)
        return result, {"host_s": host, "sample_s": loop_s, "samples": len(self.samples),
                        "scale": REFERENCE_SAMPLE_S / loop_s}


def check_op(workload: Workload, state, op) -> tuple[list[str], str]:
    """Problems found in one operation, and the digest of its outputs."""
    if op.error is not None:
        return [op.error], ""
    try:
        problems = workload.check(state, op)
        digest = workload.digest(state, op)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failure
        return [f"check raised {type(exc).__name__}: {exc}"], ""
    return problems, digest


def measure(workload: Workload, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, run passes for `seconds`, check them; the full run record."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix=f"{workload.name}-") as tmp:
        workdir = Path(tmp)
        workload.write_inputs(workdir)

        def set_up():
            sp = load_spinsc(root / "src")
            return sp, workload.setup(sp, workdir)

        sampler, setups = SpeedSampler(), []
        for _ in range(SETUP_REPEATS):
            (sp, state), timing = sampler.timed(set_up)
            setups.append(timing)

        probe = Probe()
        layers.install_capture(probe, sp)
        passes, problems, first_digests, sim = [], [], None, {}
        attempted = failed = 0
        try:
            start = time.perf_counter()
            while True:
                index = len(passes)
                traced = trace and index % 2 == 0
                out = workdir / f"pass{index}"
                out.mkdir()
                probe.captured.clear()
                mark = probe.mark()
                if traced:
                    layers.install_trace(probe, sp)
                probe.run_id, probe.active = index, traced
                root_span = probe.open("pass") if traced else -1
                ops, timing = sampler.timed(workload.run_pass, state, probe, out)
                if traced:
                    probe.close(root_span)
                probe.active = False
                probe.uninstall(mark)

                digests, failed_before = [], failed
                for k, op in enumerate(ops):
                    found, digest = check_op(workload, state, op)
                    if first_digests is not None and digest != first_digests[k]:
                        found.append("outputs differ from the first pass on the same inputs")
                    digests.append(digest)
                    attempted += 1
                    failed += bool(found)
                    problems += [f"pass {index} {op.name}: {p}" for p in found]
                if first_digests is None:
                    first_digests = digests
                    # A failed pass has no statistics worth reading.
                    if failed == failed_before:
                        try:
                            sim = workload.sim(state, ops)
                        except Exception as exc:  # noqa: BLE001 - counted as a failure
                            failed += 1
                            problems.append(f"statistics of pass 0: {type(exc).__name__}: {exc}")
                passes.append({"traced": traced, "ops": len(ops), **timing})
                shutil.rmtree(out)
                if time.perf_counter() - start >= seconds and (not trace or index >= 1):
                    break
        finally:
            probe.uninstall()
        info = settings(root, sp)

    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["host_s"] * p["scale"] for p in untraced)
    end_to_end = {"setup_s": statistics.median(s["host_s"] * s["scale"] for s in setups),
                  "wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    host = {"host.wall_s": statistics.median(p["host_s"] for p in untraced),
            "host.setup_s": statistics.median(s["host_s"] for s in setups),
            "host.sample_s": statistics.median(t["sample_s"] for t in setups + passes)}
    simulated = {name: float(sim.get(name, 0.0)) for name in SIM_METRICS}
    simulated["sim_bits_per_s"] = float(sim.get("sim_bits", 0.0)) / wall_s
    per_layer = {}
    if trace:
        traced_runs = [i for i, p in enumerate(passes) if p["traced"]]
        per_layer = median_dict([layers.layer_metrics(probe, i, passes[i]["scale"])
                                 for i in traced_runs])
        per_layer["trace.wall_s"] = statistics.median(
            passes[i]["host_s"] * passes[i]["scale"] for i in traced_runs)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall_s
        per_layer.update(simulated)
        per_layer.update(host)
    return {"workload": workload.name, "seed": workload.seed, "seconds": seconds,
            "trace": trace, "settings": info, "params": workload.params(),
            "setups": setups, "passes": passes, "host": host,
            "digest": hashlib.sha256("".join(first_digests or []).encode()).hexdigest(),
            "attempted": attempted, "failed": failed, "problems": problems,
            "missing_hooks": sorted(set(probe.missing)), "end_to_end": end_to_end,
            "simulated": simulated, "per_layer": per_layer,
            "spans": [s.as_dict() for s in probe.spans]}


def report(record: dict, root: Path) -> dict:
    """Write the run record (and a traced run's spans) to .perfbench/, print
    the human summary and return the result line's object."""
    name, seed, trace = record["workload"], record["seed"], int(record["trace"])
    stem = root / ".perfbench" / f"{name}-seed{seed}-trace{trace}"
    spans = record.pop("spans")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    s = record["settings"]
    print(f"perfbench {name} seed={seed} trace={trace}: {len(record['passes'])} passes "
          f"in {record['seconds']} s, set-up repeated {SETUP_REPEATS} times")
    print(f"  python {s['python']}, numpy {s['numpy']}, spinsc {s['spinsc']}, "
          f"commit {s['commit']}, nproc {s['nproc']}, cpu {s['cpu_model']}")
    print(f"  params {json.dumps(record['params'])}")
    print(f"  outputs sha256 {record['digest']}")
    print(f"  failed {record['failed']} of {record['attempted']} operations "
          f"(fail_ratio {record['failed'] / max(record['attempted'], 1):.6g})")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}", file=sys.stderr)
    if record["missing_hooks"]:
        print(f"  hooks not installed: {record['missing_hooks']}")
    metrics = record["per_layer"] if trace else record["end_to_end"]
    units = layers.UNITS if trace else END_TO_END_UNITS
    for key, value in (record["end_to_end"] | record["host"] | record["simulated"]).items():
        unit = END_TO_END_UNITS.get(key) or layers.UNITS[key]
        print(f"  {key} = {value:.6g} {unit}")
    if trace:
        shares = layers.shares(record["per_layer"])
        print("  share of a traced pass: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"  trace.wall_s = {record['per_layer']['trace.wall_s']:.6g} s, "
              f"trace.overhead_s = {record['per_layer']['trace.overhead_s']:.6g} s")
    print(f"  record {stem.relative_to(root)}.json")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None, *, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "spinsc" / "__init__.py").is_file():
        print(f"perfbench: no spinsc sources under {root / 'src'}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tiny=tiny)
    record = measure(workload, args.seconds, bool(args.trace), root)
    result = report(record, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
