"""Where spinsc's layers meet, and what the benchmark measures there.

Capture hooks stay on in every run: they hand the benchmark results that the
public entry points keep to themselves (the allocation a CLI command verified
nothing about, each fusion run's posterior and statistics) and check every
generated stream's write/read counters.  Trace hooks add a span per call at
each layer boundary and the counters the per-layer metrics need; they are
installed only around traced passes.
"""

from __future__ import annotations

from types import SimpleNamespace

from probe import Probe

# Span name -> per-layer metric holding that span's self time.
SPAN_METRICS = {
    "fusion.likelihood": "fusion.likelihood_s",
    "fusion.network": "fusion.network_s",
    "fusion.prepare": "fusion.prepare_self_s",
    "fusion.run": "fusion.run_self_s",
    "fusion.exact": "fusion.exact_s",
    "fusion.kl": "fusion.kl_s",
    "logic.parse": "logic.parse_s",
    "logic.conflict_sets": "logic.conflict_sets_s",
    "logic.cluster": "logic.cluster_s",
    "allocator.size": "allocator.size_s",
    "allocator.allocate": "allocator.allocate_s",
    "allocator.verify": "allocator.verify_s",
    "sbg.build_array": "sbg.build_array_s",
    "sbg.make_unit": "sbg.make_unit_s",
    "sbg.generate": "sbg.generate_s",
    "device.calibrate": "device.calibrate_s",
    "device.pv_sample": "device.pv_sample_s",
    "stochastic.scc": "stochastic.scc_s",
    "experiments.density_sweep": "experiments.density_sweep_self_s",
    "experiments.scc_table": "experiments.scc_table_self_s",
    "experiments.kl_by_length": "experiments.kl_by_length_self_s",
    "config.load": "config.load_s",
    "cli.emit": "cli.emit_s",
    # The benchmark's own root span: time inside a pass that no layer span covers.
    "pass": "unattributed_s",
}

COUNTERS = ("fusion.terminals", "logic.conflict_sets", "logic.clusters",
            "allocator.units", "sbg.bits", "sbg.writes", "sbg.reads",
            "device.calibrate_calls", "stochastic.scc_calls")

UNITS = {metric: "s" for metric in SPAN_METRICS.values()}
UNITS.update({name: "count" for name in COUNTERS})
UNITS.update({
    "sbg.bits_per_write": "bits/write",
    "sbg.bits_per_s": "bits/s",
    "sbg.calib_hit_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "kl_mean": "nats",
    "density_err": "abs",
    "scc_abs_mean": "abs",
    "sim_units": "count",
    "sim_energy_nj_per_cycle": "nJ",
    "sim_bits_per_s": "bits/s",
    "host.wall_s": "s",
    "host.setup_s": "s",
    "host.sample_s": "s",
})


def install_capture(probe: Probe, sp: SimpleNamespace) -> None:
    """Always-on hooks: stream counter checks and result capture."""

    def before_generate(unit, n, *rest, **kwargs):
        return unit, n, unit.writes, unit.reads

    def after_generate(token, stream, *args, **kwargs):
        unit, n, writes0, reads0 = token
        writes, reads = unit.writes - writes0, unit.reads - reads0
        if unit.mode.value == "simple":
            expected = (2 * n, n)
        else:
            expected = (n + 1, n + 1)
        if (writes, reads) != expected or len(stream) != n:
            probe.captured["problems"].append(
                f"{unit.mode.value} stream of {len(stream)}/{n} bits took "
                f"{writes} writes and {reads} reads, expected {expected}")
        probe.count("sbg.bits", n)
        probe.count("sbg.writes", writes)
        probe.count("sbg.reads", reads)

    def after_run(token, result, pipeline, n, *rest, **kwargs):
        grid, stats = result
        probe.captured["run"].append((n, grid, stats))

    def after_allocate(token, matrix, assignment, spec, conflict_sets, *rest, **kwargs):
        probe.captured["allocate"].append((matrix, conflict_sets, assignment))

    probe.hook(sp.sbg, "generate", before=before_generate, after=after_generate)
    probe.hook(sp.fusion.FusionPipeline, "run", after=after_run)
    probe.hook(sp.allocator, "allocate", after=after_allocate)


def install_trace(probe: Probe, sp: SimpleNamespace) -> None:
    """Span hooks at every layer boundary, plus the counters they feed."""

    def counting(name, measure):
        return lambda token, result, *args, **kwargs: probe.count(name, measure(result, *args))

    hooks = [
        (sp.config, "load_config", "config.load", None),
        (sp.cli, "write_csv", "cli.emit", None),
        (sp.cli, "write_pgm", "cli.emit", None),
        (sp.fusion, "likelihood_channels", "fusion.likelihood", None),
        (sp.fusion, "build_sc_network", "fusion.network", None),
        (sp.fusion.FusionPipeline, "__init__", "fusion.prepare",
         counting("fusion.terminals", lambda _, pipeline, *a: pipeline.num_terminals)),
        (sp.fusion.FusionPipeline, "run", "fusion.run", None),
        (sp.fusion, "exact_posterior", "fusion.exact", None),
        (sp.fusion, "kl_divergence", "fusion.kl", None),
        (sp.logic.ScNetlist, "parse", "logic.parse", None),
        (sp.logic, "extract_conflict_sets", "logic.conflict_sets",
         counting("logic.conflict_sets", lambda sets, *a: len(sets))),
        (sp.logic, "cluster_terminals", "logic.cluster",
         counting("logic.clusters", lambda mapping, *a: len(set(mapping.values())))),
        (sp.allocator, "size_array", "allocator.size",
         counting("allocator.units", lambda spec, *a: spec.total_units)),
        (sp.allocator, "allocate", "allocator.allocate", None),
        (sp.allocator, "verify_allocation", "allocator.verify", None),
        (sp.sbg, "build_array", "sbg.build_array", None),
        (sp.sbg, "make_unit", "sbg.make_unit", None),
        (sp.sbg, "generate", "sbg.generate", None),
        (sp.sbg.CalibrationCache, "voltage", None,
         counting("sbg.calib_lookups", lambda *a: 1)),
        (sp.device, "calibrate_voltage", "device.calibrate",
         counting("device.calibrate_calls", lambda *a: 1)),
        (sp.device, "sample_process_variation", "device.pv_sample", None),
        (sp.stochastic, "scc", "stochastic.scc",
         counting("stochastic.scc_calls", lambda *a: 1)),
        (sp.experiments, "density_sweep", "experiments.density_sweep", None),
        (sp.experiments, "self_scc_table", "experiments.scc_table", None),
        (sp.experiments, "cross_scc_table", "experiments.scc_table", None),
        (sp.experiments, "kl_by_length", "experiments.kl_by_length", None),
    ]
    for owner, attr, span, after in hooks:
        probe.hook(owner, attr, span=span, after=after)


def layer_metrics(probe: Probe, run: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self times are multiplied by
    scale, the pass's factor from host seconds to the reference speed."""
    self_s = probe.self_times(run)
    counters = probe.counters[run]
    out = {metric: self_s.get(span, 0.0) * scale for span, metric in SPAN_METRICS.items()}
    out.update({name: counters.get(name, 0.0) for name in COUNTERS})
    bits, writes = out["sbg.bits"], out["sbg.writes"]
    lookups = counters.get("sbg.calib_lookups", 0.0)
    out["sbg.bits_per_write"] = bits / writes if writes else 0.0
    out["sbg.bits_per_s"] = bits / out["sbg.generate_s"] if out["sbg.generate_s"] else 0.0
    out["sbg.calib_hit_ratio"] = (1.0 - out["device.calibrate_calls"] / lookups
                                  if lookups else 0.0)
    return out


def shares(per_layer: dict[str, float]) -> dict[str, float]:
    """Self-time shares of a traced pass that say what a workload is for."""
    logic_allocator = sum(v for k, v in per_layer.items()
                          if k.startswith(("logic.", "allocator.")) and UNITS[k] == "s")
    fusion_prep = sum(per_layer[k] for k in ("fusion.likelihood_s", "fusion.network_s",
                                             "fusion.prepare_self_s"))
    wall = per_layer["trace.wall_s"]
    return {"logic+allocator": logic_allocator / wall,
            "logic+allocator+fusion-prep": (logic_allocator + fusion_prep) / wall,
            "sbg.generate": per_layer["sbg.generate_s"] / wall}
