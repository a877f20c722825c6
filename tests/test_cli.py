import io
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spinsc import cli, experiments, fusion, sbg
from spinsc.allocator import allocate, verify_allocation
from spinsc.cli import apply_overrides, build_parser, main, write_csv, write_pgm
from spinsc.config import KEYS, RunConfig, load_config
from spinsc.fusion import likelihood_channels
from spinsc.logic import Product, ScNetlist, expand_products
from spinsc.sbg import SbgMode, make_units
from spinsc.seeding import rng_for, rngs_for
from conftest import REFERENCE_ASSIGNMENT, REFERENCE_NETLIST
from helpers import csv_text

SMALL_CONFIG = """\
[run]
master_seed = 77
bitstream_len = 32

[array]
levels = 0.2,0.5,0.8
multiplicity = 2,1,1

[fusion]
grid = 8x8
target = 40,22

[report]
scc_pairs = 4
scc_lengths = 32,64
scc_probs = 0.3,0.7
scc_cross = 0.2,0.6
sweep_repeats = 6
sweep_lengths = 32,64
sweep_probs = 0.3,0.5
characterize_voltages = 1.0,1.2,1.4
characterize_durations = 2.0,5.4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def run_cli(*args):
    code = main([str(a) for a in args])
    assert code == 0, f"command failed: {args}"


def read_lines(path: Path):
    return path.read_text(encoding="utf-8").splitlines()


def test_characterize_output(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "sbg-characterize")
    for name in ("characterize_p2ap.csv", "characterize_ap2p.csv"):
        lines = read_lines(out / name)
        assert lines[0] == "voltage,duration,probability"
        assert len(lines) == 1 + 3 * 2  # three voltages x two durations
        probs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(0.0 <= p <= 1.0 for p in probs)


def test_array_report_output(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "array-report")
    lines = read_lines(out / "array_report.csv")
    assert lines[0] == "unit,target_p,density,abs_error,energy_nj,writes,reads"
    assert len(lines) == 1 + 4  # multiplicities 2 + 1 + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert 0.0 <= float(fields[2]) <= 1.0
        assert float(fields[4]) > 0.0
        assert int(fields[5]) == 33  # self-control: n + 1 writes at n = 32


def test_fusion_two_cell_toy_problem(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "--grid", "2x1", "fusion-run")
    posterior = read_lines(out / "posterior.csv")
    weights = [float(line.split(",")[2]) for line in posterior[1:]]
    assert len(weights) == 2
    assert sum(weights) == pytest.approx(1.0, abs=1e-4)


def test_scc_report_output(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "scc-report")
    self_lines = read_lines(out / "self_scc.csv")
    cross_lines = read_lines(out / "cross_scc.csv")
    assert self_lines[0] == "p,n,mean_abs_scc"
    assert cross_lines[0] == "p1,p2,n,mean_abs_scc"
    assert len(self_lines) == 1 + 2 * 2   # two probs x two lengths
    assert len(cross_lines) == 1 + 1 * 2  # one pair x two lengths


@pytest.mark.parametrize("command", ["array-report", "fusion-run", "kl-sweep"])
def test_write_duration_below_the_default(tmp_path, capsys, command):
    # The top level 1.0 lies within calibration tol of the AP->P range at
    # 4.9 ns, and far above it at 3.0 ns.
    for duration, code in (("4.9", 0), ("3.0", 1)):
        cfg = tmp_path / f"{duration}.cfg"
        cfg.write_text(f"[device]\nwrite_duration = {duration}\n\n[fusion]\ngrid = 4x4\n\n"
                       "[report]\nsweep_lengths = 16\nsweep_repeats = 2\n", encoding="utf-8")
        out = tmp_path / duration
        assert main(["--config", str(cfg), "--out-dir", str(out), command]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and out.is_dir()
        else:
            assert err == ("error: no ap2p voltage meets target 1.0 within 0.0001 at 3.0 ns: "
                           "3 V switches with probability 0.9988\n")
            assert not out.exists()


@pytest.mark.parametrize("command", ["array-report", "fusion-run"])
def test_tiny_critical_voltage_is_calibrated(tmp_path, capsys, command):
    # Every target's write voltage lies near 1.7e-300 V, inside the
    # supercritical range that starts at 1.02e-300 V.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[device]\nvc0_p2ap = 1e-300\n\n[fusion]\ngrid = 4x4\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), command]) == 0
    assert capsys.readouterr().err == ""
    assert out.is_dir()


@pytest.mark.parametrize("text, message", [
    # The probability jumps from 0 to 1 where dt = t: a target inside the
    # range that no voltage meets.
    ("[device]\nsigma_rel = 1e-300\n",
     "error: no p2ap voltage meets target 0.015625 within 0.0001 at 5.4 ns: 1.166 V switches "
     "with probability 0.5\n"),
    ("[device]\nvc0_ap2p = 3.0\n",
     "error: vc0_ap2p = 3 V: ap2p writes need at least 3.06 V, above the 3.0 V cap\n"),
], ids=["sigma-rel", "vc0-above-range"])
@pytest.mark.parametrize("command", ["array-report", "fusion-run"])
def test_uncalibratable_device_is_one_line_error(tmp_path, capsys, text, message, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n[fusion]\ngrid = 4x4\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), command]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_level_inside_the_range_does_not_fall_back_below_it(tmp_path, capsys):
    # Only a target whose closed-form voltage lies below 1.02 vc0 takes the
    # sub-critical bias; levels 0.2 and 0.5 lie inside the range, where no
    # voltage meets them, and must not come out as densities near 0.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[device]\nsigma_rel = 1e-300\n\n[array]\nlevels = 0.2,0.5\n"
                   "multiplicity = 1,1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), "array-report"]) == 1
    assert capsys.readouterr().err == \
        ("error: no p2ap voltage meets target 0.2 within 0.0001 at 5.4 ns: 1.166 V switches "
         "with probability 0.5\n")
    assert not out.exists()


def test_target_under_a_floor_of_probability_zero_falls_back(tmp_path, capsys):
    # At sigma_rel = 0.1 the probability at 1.02 vc0 rounds to 0, yet target
    # 0 lies below the range (its closed-form voltage is -inf), so it takes
    # the sub-critical bias.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG.replace("sweep_probs = 0.3,0.5", "sweep_probs = 0,0.5")
                   + "\n[device]\nsigma_rel = 0.1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), "pv-sweep"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "pv_sweep.csv").is_file()


@pytest.mark.parametrize("text, command, message", [
    ("[device]\ndelta = 1\n[report]\nsweep_probs = 0,0.5\n", "pv-sweep",
     "error: no p2ap voltage meets target 0.0 within 0.0001 at 5.4 ns: 0.35 V switches with "
     "probability 1\n"),
    ("[device]\nwrite_duration = 1e308\n[array]\nlevels = 0.5\n", "array-report",
     "error: no p2ap voltage meets target 0.5 within 0.0001 at 1e+308 ns: 0.35 V switches with "
     "probability 1\n"),
], ids=["low-delta", "long-write"])
def test_fallback_that_misses_its_target_is_one_line_error(tmp_path, capsys, text, command,
                                                           message):
    # A target below the calibratable range takes the sub-critical bias only
    # where that bias switches with the target's probability: at delta = 1
    # the thermal switching time is a few ns, and a write of 1e308 ns outlasts
    # any switching time, so both switch always.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), command]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


# 1.8 V over 1e-308 V overflows, so the switching time comes out 0.
TINY_VC0 = ("error: vc0_ap2p = 1e-308 V, c_ap2p = 5.6 ns: "
            "the switching time at 1.8 V rounds to 0 ns\n")
LONG_RESET = "error: infinite energy: 1.8 V for 1e+308 ns\n"


@pytest.mark.parametrize("text, command, message", [
    ("[device]\nvc0_ap2p = 1e-308\n", "array-report", TINY_VC0),
    ("[device]\nvc0_ap2p = 1e-308\n", "sbg-characterize", TINY_VC0),
    ("[run]\npv_sigma_tox = 1e308\n", "pv-sweep", None),
    ("[run]\npv = true\n[device]\nt_ox = 1e6\n", "array-report", None),
    ("[device]\nreset_voltage = 1e308\n", "array-report", None),
    ("[fusion]\nsigma_b = 1e-308\n", "fusion-run", None),
    ("[fusion]\nsigma_d_base = 1e-320\nsigma_d_slope = 0\n", "fusion-run", None),
    ("[device]\nra = 1e-320\n", "array-report", None),
    ("[run]\npv_sigma_area = 1e308\n", "pv-sweep", None),
    # A pulse's V^2 * t overflows: to inf for a long pulse, and in V^2
    # itself for a huge voltage.
    ("[device]\nreset_duration = 1e308\n", "array-report", LONG_RESET),
    ("[device]\nreset_duration = 1e308\n[fusion]\ngrid = 4x4\n", "fusion-run", LONG_RESET),
    ("[device]\nreset_duration = 1e308\n", "scc-report", LONG_RESET),
    ("[device]\nreset_voltage = 1e200\n", "array-report",
     "error: infinite energy: 1e+200 V for 7 ns\n"),
    ("[device]\nwrite_duration = 1e308\n[array]\nlevels = 1\n", "array-report",
     "error: infinite energy: 3 V for 1e+308 ns\n"),
    # c / (1 V / 0.75 V - 1) overflows, so the reset's switching time is inf.
    ("[device]\nc_ap2p = 1e308\nreset_voltage = 1.0\n[array]\nmode = simple\n", "array-report",
     "error: vc0_ap2p = 0.75 V, c_ap2p = 1e+308 ns: the switching time at 1 V is infinite\n"),
    # Sub-critical switching times: exp(delta * (1 - V/vc0)) overflows at
    # the target-0 bias 0.35 V and at a 0.1 V reset, and tau0 in ns is inf.
    ("[device]\ndelta = 2000\n[report]\nsweep_probs = 0,0.5\n", "pv-sweep",
     "error: tau0 = 1e-09 s, delta = 2000, vc0_p2ap = 0.7 V: the switching time at 0.35 V "
     "is infinite\n"),
    ("[device]\ndelta = 2000\nreset_voltage = 0.1\n", "array-report",
     "error: tau0 = 1e-09 s, delta = 2000, vc0_ap2p = 0.75 V: the switching time at 0.1 V "
     "is infinite\n"),
    ("[device]\ntau0 = 1e300\n[report]\ncharacterize_voltages = 0.5\n"
     "characterize_durations = 5\n", "sbg-characterize",
     "error: tau0 = 1e+300 s, delta = 45, vc0_p2ap = 0.7 V: the switching time at 0.5 V "
     "is infinite\n"),
    # Finite switching times near the float maximum that a unit's
    # process-variation scale makes infinite: the target-0 bias at tau0 =
    # 2.8e289 s, and a 1.5 V reset at c_ap2p = 1.7e308 ns.
    ("[device]\ntau0 = 2.8e289\n[report]\nsweep_probs = 0,0.5\n", "pv-sweep",
     "error: tau0 = 2.8e+289 s, delta = 45, vc0_p2ap = 0.7 V: the switching time at 0.35 V "
     "times process-variation scale 1.11671 is infinite\n"),
    ("[device]\nc_ap2p = 1.7e308\nreset_voltage = 1.5\n[array]\nmode = simple\n[run]\npv = true\n",
     "array-report", "error: vc0_ap2p = 0.75 V, c_ap2p = 1.7e+308 ns: the switching time at "
     "1.5 V times process-variation scale 1.11671 is infinite\n"),
], ids=["vc0-array-report", "vc0-characterize", "pv-sigma-tox", "pv-t-ox", "reset-voltage",
        "sigma-b", "sigma-d", "ra", "pv-sigma-area", "long-reset-array-report",
        "long-reset-fusion-run", "long-reset-scc-report", "huge-reset-voltage", "long-write",
        "huge-c-reset", "huge-delta-pv-sweep", "huge-delta-reset", "huge-tau0-characterize",
        "huge-tau0-pv-sweep", "huge-c-pv-reset"])
def test_extreme_floats_are_one_line_errors(tmp_path, capsys, text, command, message):
    # Floats that pass the key table but overflow, or divide by zero, in the
    # device or fusion model; numpy warnings would be errors here, as under
    # python -W error.  Where message is given, the line must be exactly it.
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == message
    assert not out.exists()


@pytest.mark.parametrize("text, command, message", [
    ("[run]\npv_sigma_tox = 1000\n", "pv-sweep",
     "error: process variation scale inf from sigma_area = 0.05 and sigma_tox = 1000 is not "
     "finite and positive\n"),
    ("[run]\npv = true\npv_sigma_area = 1e308\n", "array-report",
     "error: process variation scale 0 from sigma_area = 1e+308 and sigma_tox = 0.02 is not "
     "finite and positive\n"),
], ids=["sigma-tox", "sigma-area"])
def test_process_variation_overflow_names_the_scale_and_sigmas(tmp_path, capsys, text, command,
                                                                message):
    # A thickness multiplier of a few hundred overflows exp, and an area
    # multiplier of 1e308 overflows to inf and makes the scale 0.
    cfg = tmp_path / "pv.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), command]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("lines", [("length = 1e308", "width = 1e-300"),
                                   ("width = 1e-300", "length = 1e308")],
                         ids=["length-first", "width-first"])
def test_junction_geometry_is_checked_after_every_key(tmp_path, capsys, lines):
    # Together the two keys make a 100 um^2 junction; the length with the
    # default width alone would make its area overflow to inf.
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text("[device]\n" + "\n".join(lines) + "\n", encoding="utf-8")
    assert load_config(cfg).device.params.area_um2 == pytest.approx(100.0)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "cost-report"]) == 0
    assert capsys.readouterr().err == ""


def test_refused_junction_geometry_names_the_section_keys(tmp_path, capsys):
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text("[device]\nlength = 1e308\nwidth = 45\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out-dir", str(out), "array-report"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [device] length = '1e308', width = '45': "
                          "resistances r_p = 0")
    assert err.count("\n") == 1
    assert not out.exists()


def test_array_multiplicity_must_match_the_level_count(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[array]\nmultiplicity = 1,2\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "array-report"]) == 2
    assert capsys.readouterr().err == \
        "configuration error: array multiplicity must match the level count\n"
    assert not out.exists()


def write_reference_inputs(tmp_path, assignment_values=REFERENCE_ASSIGNMENT):
    netlist = tmp_path / "reference.net"
    netlist.write_text(REFERENCE_NETLIST, encoding="utf-8")
    assignment = tmp_path / "reference.assign"
    assignment.write_text(
        "\n".join(f"{t} = {v}" for t, v in assignment_values.items()) + "\n",
        encoding="utf-8")
    return netlist, assignment


def test_allocate_command_reports_seven_generators(tmp_path, config_path):
    netlist, assignment = write_reference_inputs(tmp_path)
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "allocate",
            "--netlist", netlist, "--assignment", assignment)
    summary = read_lines(out / "allocate_summary.csv")
    assert summary[0] == "m,n_terminals,n_clustered,k_energy,k_cmos"
    m, n_terminals, n_prime = summary[1].split(",")[:3]
    assert (int(m), int(n_terminals), int(n_prime)) == (7, 9, 7)
    matrix_lines = read_lines(out / "matrix.csv")
    assert matrix_lines[0] == "row,col"
    assert len(matrix_lines) == 1 + 7  # one entry per clustered column
    # Golden bytes of both files: planning must reproduce them exactly.
    assert (out / "allocate_summary.csv").read_bytes() == (
        b"m,n_terminals,n_clustered,k_energy,k_cmos\n7,9,7,0.777778,0.836957\n")
    assert (out / "matrix.csv").read_bytes() == (
        b"row,col\n" + b"".join(b"%d,%d\n" % (k, k) for k in range(7)))


@pytest.mark.parametrize("command", ["fusion-run", "kl-sweep", "allocate"])
def test_command_allocates_once_positionally(tmp_path, config_path, monkeypatch, command):
    calls = []

    def recording(*args, **kwargs):
        matrix = allocate(*args, **kwargs)
        calls.append((args, kwargs, matrix))
        return matrix

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spinsc" and getattr(module, "allocate", None) is allocate:
            monkeypatch.setattr(module, "allocate", recording)
    netlist, assignment = write_reference_inputs(tmp_path)
    inputs = {"fusion-run": ["fusion-run"], "kl-sweep": ["kl-sweep"],
              "allocate": ["allocate", "--netlist", netlist, "--assignment", assignment]}
    run_cli("--config", config_path, "--out-dir", tmp_path / "out", *inputs[command])
    # One positional call, so that a caller's hook sees (levels, spec, sets);
    # kl-sweep runs both process-variation passes on one prepared pipeline.
    [(args, kwargs, matrix)] = calls
    assert kwargs == {} and len(args) == 3
    levels, spec, sets = args
    assert matrix.num_rows == spec.total_units
    assert matrix.control.shape[1] == len(levels)
    assert verify_allocation(matrix, sets, levels) == []


@pytest.mark.parametrize("command", ["fusion-run", "kl-sweep"])
def test_command_computes_likelihoods_once(tmp_path, config_path, monkeypatch, command):
    # The exact posterior comes from the grid the pipeline prepared from.
    calls = []

    def recording(problem):
        calls.append(problem)
        return likelihood_channels(problem)

    monkeypatch.setattr(fusion, "likelihood_channels", recording)
    run_cli("--config", config_path, "--out-dir", tmp_path / "out", command)
    assert len(calls) == 1


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 74.5 TiB for an array", "Unable to allocate 74.5 TiB for an array"),
    ("", "MemoryError"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_line_error(tmp_path, config_path, capsys, monkeypatch,
                                        message, line):
    # Stands in for a grid too large to allocate; nothing is allocated here.
    def exhausted(problem):
        raise MemoryError(message)

    monkeypatch.setattr(fusion, "likelihood_channels", exhausted)
    out = tmp_path / "o"
    assert main(["--config", str(config_path), "--out-dir", str(out), "fusion-run"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n"
    assert captured.out == ""
    assert not out.exists()


def test_allocate_empty_netlist_is_one_line_error(tmp_path, config_path, capsys):
    netlist, assignment = tmp_path / "empty.net", tmp_path / "empty.assign"
    netlist.write_text("", encoding="utf-8")
    assignment.write_text("", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(config_path), "--out-dir", str(out), "allocate",
                 "--netlist", str(netlist), "--assignment", str(assignment)]) == 1
    assert capsys.readouterr().err == "error: at least one level is required\n"
    assert not out.exists()


def test_allocate_rejects_terminals_missing_from_netlist(tmp_path, config_path, capsys):
    netlist, assignment = write_reference_inputs(tmp_path, {**REFERENCE_ASSIGNMENT, "T10": 0.2})
    out = tmp_path / "o"
    assert main(["--config", str(config_path), "--out-dir", str(out), "allocate",
                 "--netlist", str(netlist), "--assignment", str(assignment)]) == 2
    err = capsys.readouterr().err
    assert "T10" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text, line, reason", [
    ("a = 0.5\nb = 0.5\na = 0.2\n", 3, "terminal 'a' is assigned twice"),
    ("a = x\nb = 0.5\n", 1, "could not convert string to float: ' x'"),
    ("a = 0.5\nb = nan\n", 2, "must be finite"),
    ("a = 1e400\nb = 0.5\n", 1, "must be finite"),
    ("a = 0.5\n\nb = 0\n", 3, "must lie in (0, 1]"),
    ("a = 1.5\nb = 0.5\n", 1, "must lie in (0, 1]"),
], ids=["assigned-twice", "non-numeric", "nan", "overflow", "zero", "above-one"])
def test_allocate_rejects_bad_assignment_lines(tmp_path, config_path, capsys, text, line, reason):
    netlist, assignment = tmp_path / "and.net", tmp_path / "and.assign"
    netlist.write_text("terminal a\nterminal b\ngate g AND a b\noutput g\n", encoding="utf-8")
    assignment.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(config_path), "--out-dir", str(out), "allocate",
                 "--netlist", str(netlist), "--assignment", str(assignment)]) == 2
    assert capsys.readouterr().err == f"configuration error: {assignment}:{line}: {reason}\n"
    assert not out.exists()


NODE_IDS = st.sampled_from(["a", "b", "c", "g0", "g1", "x"])
NETLIST_LINES = st.one_of(
    st.builds("terminal {}".format, NODE_IDS),
    st.builds(lambda gid, kind, inputs: " ".join(["gate", gid, kind, *inputs]), NODE_IDS,
              st.sampled_from(["AND", "NOT", "MUX", "and", "XOR"]),
              st.lists(NODE_IDS, max_size=4)),
    st.builds("output {}".format, NODE_IDS),
    st.text(max_size=12),
)
ASSIGNMENT_LINES = st.one_of(
    st.builds("{} = {}".format, NODE_IDS,
              st.one_of(st.sampled_from(["0.5", "1", "0", "1.5", "nan", "1e400", "x", ""]),
                        st.floats().map(repr))),
    st.text(max_size=12),
)


@st.composite
def allocate_inputs(draw):
    """(netlist lines, assignment lines): a well-formed pair over up to three
    terminals and three gates, with a few generated lines inserted into each."""
    terminals = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    nodes = list(terminals)
    netlist = [f"terminal {t}" for t in terminals]
    for k in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["AND", "NOT", "MUX"]))
        arity = {"NOT": 1, "MUX": 3}.get(kind) or draw(st.integers(1, 3))
        inputs = draw(st.lists(st.sampled_from(nodes), min_size=arity, max_size=arity))
        netlist.append(" ".join(["gate", f"g{k}", kind, *inputs]))
        nodes.append(f"g{k}")
    netlist += [f"output {node}" for node in draw(st.lists(st.sampled_from(nodes), max_size=2))]
    assignment = [f"{t} = {draw(st.sampled_from(['0.1', '0.5', '1']))}" for t in terminals]
    for lines, extra in ((netlist, NETLIST_LINES), (assignment, ASSIGNMENT_LINES)):
        for line in draw(st.lists(extra, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    return netlist, assignment


@settings(max_examples=200, deadline=None)
@given(allocate_inputs())
def test_allocate_fuzzed_input_text(inputs):
    # Any netlist and assignment text ends in exit 0, or in exit 1 or 2 with
    # one stderr line and no output directory; no exception escapes.
    netlist_lines, assignment_lines = inputs
    with tempfile.TemporaryDirectory() as tmp:
        netlist, assignment, out = Path(tmp, "f.net"), Path(tmp, "f.assign"), Path(tmp, "o")
        netlist.write_text("\n".join(netlist_lines), encoding="utf-8")
        assignment.write_text("\n".join(assignment_lines), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["--out-dir", str(out), "allocate",
                         "--netlist", str(netlist), "--assignment", str(assignment)])
        if code == 0:
            assert err.getvalue() == ""
            assert (out / "matrix.csv").is_file()
        else:
            assert code in (1, 2)
            assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
            assert not out.exists()


def test_allocate_deep_not_chain(tmp_path, config_path):
    # 3000 NOT gates in a row: deeper than the Python stack allows recursion.
    lines = ["terminal a", "terminal b", "gate n0 NOT a"]
    lines += [f"gate n{k} NOT n{k - 1}" for k in range(1, 3000)]
    lines += ["gate g AND n2999 b", "output g"]
    text = "\n".join(lines) + "\n"
    assert expand_products(ScNetlist.parse(text), "g") == [
        Product(frozenset({"a", "b"}), frozenset())]
    netlist, assignment = tmp_path / "chain.net", tmp_path / "chain.assign"
    netlist.write_text(text, encoding="utf-8")
    assignment.write_text("a = 0.2\nb = 0.2\n", encoding="utf-8")
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "allocate",
            "--netlist", netlist, "--assignment", assignment)
    # a and b meet in one product, so they need two generators.
    assert read_lines(out / "allocate_summary.csv")[1].split(",")[:3] == ["2", "2", "2"]


def test_fusion_run_outputs(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "fusion-run")
    posterior = read_lines(out / "posterior.csv")
    assert posterior[0] == "x,y,weight"
    weights = [float(line.split(",")[2]) for line in posterior[1:]]
    assert len(weights) == 64
    # weights are written at 6 significant digits
    assert sum(weights) == pytest.approx(1.0, abs=1e-4)
    summary = read_lines(out / "fusion_summary.csv")
    assert summary[0] == "n,kl,argmax_x,argmax_y"
    n, kl, ax, ay = summary[1].split(",")
    assert int(n) == 32
    assert float(kl) >= 0.0
    pgm = (out / "posterior.pgm").read_bytes()
    assert pgm.startswith(b"P5\n8 8\n255\n")
    assert len(pgm) == len(b"P5\n8 8\n255\n") + 64
    captured = capsys.readouterr()
    assert f"{n},{kl},{ax},{ay}" in captured.out


def test_cost_report_output(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "cost-report")
    lines = read_lines(out / "cost_report.csv")
    assert lines[0].startswith("method,e_cyc_nj")
    assert any(line.startswith("shared-sbg") for line in lines)
    captured = capsys.readouterr()
    assert "energy ratio" in captured.out


def test_pv_sweep_output(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "pv-sweep")
    lines = read_lines(out / "pv_sweep.csv")
    assert lines[0] == "n,avg_error,max_error"
    assert len(lines) == 3  # two configured lengths


def test_kl_sweep_output(tmp_path):
    cfg = tmp_path / "kl.cfg"
    cfg.write_text("[fusion]\ngrid = 4x4\nlevels = 8\n"
                   "[report]\nsweep_lengths = 16,8\nsweep_repeats = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    run_cli("--config", cfg, "--out-dir", out, "kl-sweep")
    lines = read_lines(out / "kl_sweep.csv")
    assert lines[0] == "n,variation,mean_kl,min_kl,max_kl"
    # Variation off, then on; lengths in the order the config gives them.
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["16", "off"], ["8", "off"], ["16", "on"], ["8", "on"]]


@pytest.mark.parametrize("key, command", [("scc_lengths", "scc-report"),
                                          ("sweep_lengths", "pv-sweep"),
                                          ("sweep_lengths", "kl-sweep")])
def test_repeated_lengths_are_config_errors(tmp_path, capsys, key, command):
    # Each report writes one row per length, so a repeated length would
    # repeat its rows.  ([array] multiplicity may repeat a value: the small
    # config's is 2,1,1.)
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[report]\n{key} = 64,64\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "--grid", "4x4", command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [report] {key} = '64,64': " \
                           "a length may not repeat\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, text, what", [("scc_probs", "0.5,0.5", "a probability"),
                                             ("scc_cross", "0.2,0.4;0.2,0.4", "a pair")])
def test_repeated_scc_values_are_config_errors(tmp_path, capsys, key, text, what):
    # scc-report writes one row per probability (or pair) and length, and
    # each copy would draw other streams: two rows, with different results,
    # under one key.
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[report]\n{key} = {text}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "scc-report"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [report] {key} = {text!r}: " \
                           f"{what} may not repeat\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["cost-report", "fusion-run"])
def test_level_count_above_the_maximum_is_config_error(tmp_path, capsys, command):
    # Preparation keeps a table over the level numbers, so the key table
    # refuses a count the pipeline would, for every command.
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\nlevels = {fusion.MAX_LEVEL_COUNT + 1}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "--grid", "4x4", command]) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: [fusion] levels = '65537': " \
                           "must be at most 65536\n"
    assert captured.out == ""
    assert not out.exists()


def test_fusion_run_writes_the_pipeline_posteriors(tmp_path, monkeypatch):
    # Both posterior files hold one line per cell, x-major: its x, its y and
    # the weight the pipeline computed for it.
    grids = {}
    run, exact_posterior = fusion.FusionPipeline.run, fusion.exact_posterior

    def recording_run(self, *args, **kwargs):
        estimate, stats = run(self, *args, **kwargs)
        grids["posterior.csv"] = estimate
        return estimate, stats

    def recording_exact(channels):
        grids["posterior_exact.csv"] = exact_posterior(channels)
        return grids["posterior_exact.csv"]

    monkeypatch.setattr(fusion.FusionPipeline, "run", recording_run)
    monkeypatch.setattr(fusion, "exact_posterior", recording_exact)
    out = tmp_path / "out"
    run_cli("--grid", "16x16", "--bitstream-len", "32", "--out-dir", out, "fusion-run")
    assert sorted(grids) == ["posterior.csv", "posterior_exact.csv"]
    for name, grid in grids.items():
        weights = grid.weights.tolist()
        rows = [(x, y, weights[x][y]) for x in range(16) for y in range(16)]
        assert (out / name).read_bytes() == csv_text(["x", "y", "weight"], rows).encode("utf-8")


def test_cli_flag_overrides(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("--config", config_path, "--out-dir", out, "--grid", "4x4",
            "--bitstream-len", "16", "--seed", "5", "fusion-run")
    summary = read_lines(out / "fusion_summary.csv")
    assert summary[1].startswith("16,")
    posterior = read_lines(out / "posterior.csv")
    assert len(posterior) == 1 + 16


@pytest.mark.parametrize("flags, text", [
    (["--seed", "5"], "[run]\nmaster_seed = 5\n"),
    (["--out-dir", "elsewhere"], "[run]\nout_dir = elsewhere\n"),
    (["--pv"], "[run]\npv = true\n"),
    (["--no-pv"], "[run]\npv = false\n"),
    (["--grid", "4X6"], "[fusion]\ngrid = 4X6\n"),
    (["--bitstream-len", "16"], "[run]\nbitstream_len = 16\n"),
], ids=["seed", "out-dir", "pv", "no-pv", "grid", "bitstream-len"])
def test_flag_sets_the_key_it_overrides(tmp_path, flags, text):
    path = tmp_path / "key.cfg"
    path.write_text(text, encoding="utf-8")
    by_flag = apply_overrides(RunConfig(), build_parser().parse_args([*flags, "cost-report"]))
    assert by_flag == load_config(path)


@pytest.mark.parametrize("flag, section, key, value", [
    ("--seed", "run", "master_seed", "abc"),
    ("--grid", "fusion", "grid", "4y4"),
    ("--bitstream-len", "run", "bitstream_len", "0"),
    ("--seed", "run", "master_seed", "-3"),
    ("--bitstream-len", "run", "bitstream_len", "x"),
    ("--out-dir", "run", "out_dir", ""),
])
def test_flag_and_key_refuse_bad_text_alike(tmp_path, capsys, monkeypatch, flag, section, key,
                                            value):
    # A blank out_dir would write into the working directory.
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    for command in ("fusion-run", "kl-sweep"):
        assert main(["--out-dir", str(out), flag, value, command]) == 2
        captured = capsys.readouterr()
        by_flag = captured.err
        assert captured.out == ""
        assert main(["--config", str(bad), "--out-dir", str(out), command]) == 2
        assert capsys.readouterr().err == by_flag
        assert by_flag.startswith(f"configuration error: [{section}] {key} = {value!r}: ")
        assert by_flag.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["bad.cfg"]


def test_every_config_field_is_set_by_one_key():
    def leaves(obj, path=()):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                yield from leaves(value, (*path, f.name))
            else:
                yield (*path, f.name)

    # The reset pulse always drives AP->P; its voltage and duration are the settings.
    fixed = {("device", "reset_pulse", "direction")}
    assert sorted(path for path, _ in KEYS.values()) == sorted(set(leaves(RunConfig())) - fixed)


@pytest.mark.parametrize("key", ["alpha", "gamma", "pol", "hk0", "t_sl"])
def test_unread_junction_keys_are_unknown(tmp_path, capsys, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[device]\n{key} = 1\n", encoding="utf-8")
    assert main(["--config", str(bad), "cost-report"]) == 2
    assert capsys.readouterr().err == f"configuration error: unknown [device] key {key!r}\n"


def test_unknown_config_key_fails(tmp_path, capsys):
    for section, key, command in (("run", "bogus", "cost-report"),
                                  ("array", "uniform_levels", "array-report")):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = 8\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out-dir", str(out), command]) == 2
        assert capsys.readouterr().err == \
            f"configuration error: unknown [{section}] key {key!r}\n"
        assert not out.exists()


def test_array_levels_default_to_64_uniform_levels():
    assert load_config(None).array.levels == tuple(k / 64 for k in range(1, 65))


@pytest.mark.parametrize("word, value", [
    ("1", True), ("yes", True), ("true", True), ("on", True),
    ("0", False), ("no", False), ("false", False), ("off", False),
])
def test_boolean_words_set_pv(tmp_path, word, value):
    for text in (word, word.upper()):
        path = tmp_path / "pv.cfg"
        path.write_text(f"[run]\npv = {text}\n", encoding="utf-8")
        assert load_config(path).pv is value


def test_unknown_boolean_word_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\npv = maybe\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "cost-report"]) == 2
    assert capsys.readouterr().err == \
        "configuration error: [run] pv = 'maybe': not a boolean\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nbitstream_len = 0\n",
    "[DEFAULT]\nbitstream_len = 0\n[fusion]\ngrid = 4x4\n",
    "[run]\npv = false\n[DEFAULT]\nbitstream_len = 16\n",
], ids=["alone", "with-fusion", "after-run"])
def test_default_section_is_unknown(tmp_path, capsys, text):
    # configparser would merge [DEFAULT] into every section (or, alone,
    # apply it nowhere); it is refused like any other unknown section.
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "cost-report"]) == 2
    assert capsys.readouterr().err == "configuration error: unknown section [DEFAULT]\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["4%x4", "%(x)s"])
def test_percent_in_a_value_is_taken_as_written(tmp_path, capsys, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\ngrid = {value}\n", encoding="utf-8")
    assert main(["--config", str(bad), "cost-report"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: [fusion] grid = {value!r}: ")
    assert err.count("\n") == 1


def test_missing_netlist_fails(tmp_path, config_path):
    assert main(["--config", str(config_path), "--out-dir", str(tmp_path / "o"),
                 "allocate", "--netlist", str(tmp_path / "none.net"),
                 "--assignment", str(tmp_path / "none.assign")]) == 1


def test_write_pgm_max_normalized(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 2.0]]))
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])


# Floats that format with an exponent, subnormals, signed zeros and the ends
# of the double range, beside whatever hypothesis draws.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-320, -2.2250738585072014e-308, 1e-5, 999999.5, 1e300,
               -1.7976931348623157e308, math.inf, -math.inf, math.nan]
FLOAT_VALUES = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
CSV_VALUES = {
    "float": FLOAT_VALUES,
    "float64": FLOAT_VALUES.map(np.float64),
    "int": st.integers(),
    "str": st.text(st.characters(blacklist_categories=("Cs",))),
}
CSV_VALUES["mixed"] = st.one_of(*CSV_VALUES.values())
# Log-uniform floats from 1e-320 (subnormal) to 1e300, with both signs.
_rng = np.random.default_rng(5)
WIDE_FLOATS = (10.0 ** _rng.uniform(-320, 300, 20_000) * _rng.choice([-1.0, 1.0], 20_000)).tolist()


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_VALUES)), min_size=1, max_size=5))
    return [draw(st.lists(CSV_VALUES[kind], min_size=rows, max_size=rows)) for kind in kinds]


@settings(max_examples=200, deadline=None)
@given(columns=csv_columns())
@example(columns=[WIDE_FLOATS, list(range(len(WIDE_FLOATS)))])
def test_write_csv_formats_each_value_as_the_oracle(columns):
    header = [f"c{k}" for k in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.csv")
        write_csv(path, header, columns)
        assert path.read_bytes() == csv_text(header, zip(*columns)).encode("utf-8")


# Numpy columns: write_csv takes a float or integer array's field from its
# dtype, and scans any other column as it scans a list.
ARRAY_DTYPES = [np.float64, np.float32, np.int64, np.intp, np.uint8, np.bool_]
# Random float32 bit patterns (normals, subnormals and NaNs of both signs),
# then the infinities and signed zeros.
FLOAT32_BITS = np.append(np.frombuffer(np.random.default_rng(6).bytes(4 * 20_000), np.float32),
                         np.float32([math.inf, -math.inf, 0.0, -0.0]))


# Float values where an array formatter's arithmetic could part from
# '%.6g', both signs: exact binary ties such as 2^-10 = 0.0009765625 (which
# round half to even) down through the subnormals, 10^k and its neighbours
# one ulp away across the whole exponent range, values within six ulps of a
# sixth-digit half (9.999995e-5 and the like) over that range, 999999.5,
# signed zeros, NaN and the infinities.
_POWERS = 10.0 ** np.arange(-323, 309)
_HALVES = np.outer([9.999995, 1.234565], 10.0 ** np.arange(-300, 290)).ravel()
_TIES = np.concatenate([np.ldexp(1.0, -np.arange(1, 1075)), np.nextafter(_POWERS, 0), _POWERS,
                        np.nextafter(_POWERS, math.inf),
                        (_HALVES + np.spacing(_HALVES) * np.arange(-6, 7)[:, None]).ravel(),
                        [999999.5, 9.999995e-5, 0.0, math.nan, math.inf, 5e-324]])
EDGE_TABLE_FLOATS = np.concatenate([_TIES, -_TIES])
# Integers at the ends of each dtype, repeated to a long table.
EDGE_TABLE_INTS = [np.resize(np.array(values, dtype), 300) for values, dtype in [
    ([-2 ** 63, 2 ** 63 - 1, -1, 0, 1, -10 ** 18, 999], np.int64),
    ([2 ** 64 - 1, 2 ** 63, 0, 10 ** 19, 10 ** 19 - 1], np.uint64),
    ([0, 9, 10, 99, 100, 255], np.uint8)]]


@st.composite
def csv_array_columns(draw, rows=st.integers(0, 12), kinds=ARRAY_DTYPES + sorted(CSV_VALUES)):
    rows = draw(rows)
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind in CSV_VALUES:
            columns.append(draw(st.lists(CSV_VALUES[kind], min_size=rows, max_size=rows)))
        else:
            elements = FLOAT_VALUES if kind is np.float64 else None
            columns.append(draw(hnp.arrays(kind, rows, elements=elements)))
    return columns


def assert_writes_the_oracle(columns):
    header = [f"c{k}" for k in range(len(columns))]
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.csv")
        write_csv(path, header, columns)
        assert path.read_bytes() == csv_text(header, rows).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(columns=csv_array_columns())
@example(columns=[np.array(EDGE_FLOATS), np.arange(len(EDGE_FLOATS))])
@example(columns=[np.array(WIDE_FLOATS), np.arange(len(WIDE_FLOATS))])
@example(columns=[FLOAT32_BITS, np.signbit(FLOAT32_BITS)])
@example(columns=[np.zeros(0, dtype) for dtype in ARRAY_DTYPES])
@example(columns=[EDGE_TABLE_FLOATS, np.arange(len(EDGE_TABLE_FLOATS))])
@example(columns=EDGE_TABLE_INTS)
def test_write_csv_formats_array_columns_as_the_oracle(columns):
    assert_writes_the_oracle(columns)


# Tables long enough for write_csv's array formatter, every column an array.
@settings(max_examples=60, deadline=None)
@given(columns=csv_array_columns(
    rows=st.integers(cli._ARRAY_TABLE_ROWS, cli._ARRAY_TABLE_ROWS + 40),
    kinds=[np.float64, np.float32, np.float16, np.int64, np.int8, np.uint64, np.uint8]))
@example(columns=[FLOAT32_BITS, np.arange(len(FLOAT32_BITS), dtype=np.uint16)])
def test_write_csv_formats_long_array_tables_as_the_oracle(columns):
    assert_writes_the_oracle(columns)


@pytest.mark.parametrize("rows", [cli._ARRAY_TABLE_ROWS - 1, cli._ARRAY_TABLE_ROWS])
def test_write_csv_takes_the_array_formatter_from_the_crossover_on(monkeypatch, rows):
    """The same bytes on either side of the crossover, and the array formatter
    only from it on."""
    calls = []

    def recording(columns):
        calls.append(len(columns[0]))
        return format_array_table(columns)

    format_array_table = cli._format_array_table
    monkeypatch.setattr(cli, "_format_array_table", recording)
    columns = [np.arange(rows), EDGE_TABLE_FLOATS[-rows:], np.array(WIDE_FLOATS[:rows]),
               FLOAT32_BITS[:rows], *(column[:rows] for column in EDGE_TABLE_INTS)]
    assert_writes_the_oracle(columns)
    # A list column or a bool array keeps any table on the % template.
    assert_writes_the_oracle([np.arange(rows), list(range(rows))])
    assert_writes_the_oracle([np.arange(rows), np.arange(rows) % 2 == 0])
    assert calls == ([rows] if rows >= cli._ARRAY_TABLE_ROWS else [])


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    long = cli._ARRAY_TABLE_ROWS
    for columns in ([[1, 2], [3]], [np.arange(2), np.arange(1)], [np.array([0.5, 1.5]), [3]],
                    [[1.0], np.zeros(2, np.uint8)],
                    [np.arange(long), np.arange(long - 1)],
                    [np.zeros(long + 1), np.arange(long)],
                    [np.arange(long), np.zeros(long), np.zeros(long + 5, np.float32)]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command, output", [("array-report", "array_report.csv"),
                                             ("pv-sweep", "pv_sweep.csv")])
def test_reset_voltage_key_changes_outputs(tmp_path, config_path, command, output):
    weak = tmp_path / "weak.cfg"
    weak.write_text(SMALL_CONFIG + "\n[device]\nreset_voltage = 0.1\n", encoding="utf-8")
    run_cli("--config", config_path, "--out-dir", tmp_path / "default", command)
    run_cli("--config", weak, "--out-dir", tmp_path / "weak", command)
    assert (tmp_path / "default" / output).read_bytes() != (tmp_path / "weak" / output).read_bytes()


def test_device_write_keys_reach_scc_report(tmp_path, config_path, monkeypatch):
    # Calibration retargets the write voltage to the same switching
    # probability at any pulse duration, so self_scc.csv itself does not move;
    # check that every generator the tables build carries the keys instead.
    built = []

    def recording(*args, **kwargs):
        array = make_units(*args, **kwargs)
        built.append(array)
        return array

    monkeypatch.setattr(experiments, "make_units", recording)
    changed = tmp_path / "changed.cfg"
    changed.write_text(SMALL_CONFIG + "\n[device]\nwrite_duration = 5.0\nread_energy = 0.5\n",
                       encoding="utf-8")
    run_cli("--config", changed, "--out-dir", tmp_path / "changed", "scc-report")
    # 4 pairs per self prob and per cross pair
    assert sum(len(array) for array in built) == 2 * 4 * (2 + 1)
    # Every level's reset (row 0) and write pulses' durations.
    for array in built:
        assert (array.constants[1][0] == 7.0).all() and (array.constants[1][1:] == 5.0).all()
        assert array.device.read_energy_nj == 0.5


@pytest.mark.parametrize("command, count", [
    ("array-report", 2 + 1 + 1),      # multiplicities 2,1,1
    ("scc-report", 2 * 4 * (2 + 1)),  # 4 pairs per self prob and per cross pair
    ("fusion-run", None),
    ("pv-sweep", 2 * 6),              # 6 repeats per sweep prob
    ("kl-sweep", None),
])
def test_device_keys_reach_every_unit(tmp_path, monkeypatch, command, count):
    # Calibration retargets the write voltage to the same switching
    # probability at any pulse duration, so the outputs alone need not move;
    # check that every generator the command builds carries the keys instead.
    built = []

    def recording(*args, **kwargs):
        array = make_units(*args, **kwargs)
        built.append(array)
        return array

    monkeypatch.setattr(sbg, "make_units", recording)
    monkeypatch.setattr(experiments, "make_units", recording)
    changed = tmp_path / "changed.cfg"
    changed.write_text(SMALL_CONFIG + "\n[device]\nwrite_duration = 6.0\nread_energy = 0.5\n"
                       "reset_voltage = 1.5\nreset_duration = 6.5\n", encoding="utf-8")
    run_cli("--config", changed, "--out-dir", tmp_path / "changed", command)
    assert built
    if count is not None:
        assert sum(len(array) for array in built) == count
    # A unit's pulses are its array's pulses at its level: every level's
    # reset (row 0) and write pulses' durations.
    for array in built:
        assert (array.constants[1][0] == 6.5).all() and (array.constants[1][1:] == 6.0).all()
        assert array.device.read_energy_nj == 0.5
        reset = array.device.reset_pulse
        assert (reset.voltage, reset.duration) == (1.5, 6.5)


@pytest.mark.parametrize("run", [
    lambda tmp_path, config_path: experiments.density_sweep(
        (0.3, 0.5, 0.7), (16, 32), 7, 5, pv_sigmas=(0.05, 0.02)),
    lambda tmp_path, config_path: run_cli("--config", config_path, "--out-dir", tmp_path,
                                          "scc-report"),
    lambda tmp_path, config_path: run_cli("--config", config_path, "--out-dir", tmp_path,
                                          "--pv", "fusion-run"),
], ids=["density-sweep-pv", "scc-report", "fusion-run"])
def test_no_two_units_in_a_run_share_a_stream(tmp_path, config_path, monkeypatch, run):
    keys = []

    def record_one(master_seed, domain, index=0):
        keys.append((domain, index))
        return rng_for(master_seed, domain, index)

    def record_many(master_seed, domain, indices):
        indices = list(indices)
        keys.extend((domain, index) for index in indices)
        return rngs_for(master_seed, domain, indices)

    # Every spinsc module that looks either seeding function up gets the
    # recording form, so no stream is made unrecorded.
    recorders = {id(rng_for): record_one, id(rngs_for): record_many}
    for name, module in list(sys.modules.items()):
        if name == "spinsc" or name.startswith("spinsc."):
            for attr, value in list(vars(module).items()):
                if id(value) in recorders:
                    monkeypatch.setattr(module, attr, recorders[id(value)])
    run(tmp_path, config_path)
    assert keys
    assert len(set(keys)) == len(keys)


def test_nonpositive_reset_voltage_is_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[device]\nreset_voltage = 0\n", encoding="utf-8")
    assert main(["--config", str(bad), "cost-report"]) == 2


@pytest.mark.parametrize("value", ["", "1,2;3,4", "1"])
def test_fusion_target_needs_one_pair(tmp_path, capsys, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\ntarget = {value}\n", encoding="utf-8")
    for command in ("fusion-run", "kl-sweep"):
        assert main(["--config", str(bad), "--out-dir", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("sensors", ["0,0", "0,0;0,32;32,0;32,32"], ids=["one", "four"])
def test_fusion_sensor_count_is_config_error(tmp_path, capsys, sensors):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\ngrid = 8x8\nsensors = {sensors}\n", encoding="utf-8")
    assert main(["--config", str(bad), "--out-dir", str(tmp_path / "o"), "fusion-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("sigma_d_base", "12.0"), ("sigma_d_slope", "0.5")])
def test_sigma_d_keys_change_exact_posterior(tmp_path, config_path, key, value):
    changed = tmp_path / "changed.cfg"
    changed.write_text(SMALL_CONFIG.replace("[fusion]\n", f"[fusion]\n{key} = {value}\n"),
                       encoding="utf-8")
    run_cli("--config", config_path, "--out-dir", tmp_path / "default", "fusion-run")
    run_cli("--config", changed, "--out-dir", tmp_path / "changed", "fusion-run")
    exact = "posterior_exact.csv"
    assert (tmp_path / "default" / exact).read_bytes() != \
        (tmp_path / "changed" / exact).read_bytes()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("section, key, command", [
    ("run", "bitstream_len", "array-report"),
    ("fusion", "levels", "fusion-run"),
    ("report", "scc_pairs", "scc-report"),
    ("report", "sweep_repeats", "pv-sweep"),
    ("report", "scc_lengths", "scc-report"),
    ("report", "sweep_lengths", "pv-sweep"),
    ("array", "multiplicity", "array-report"),
    ("report", "sweep_lengths", "kl-sweep"),
    ("report", "sweep_repeats", "kl-sweep"),
    ("fusion", "levels", "kl-sweep"),
])
def test_counts_below_one_are_config_errors(tmp_path, capsys, section, key, command, value):
    # A list of counts is refused for any element below 1, not only its first.
    path, _ = KEYS[section, key]
    text = f"16,{value}" if _field_type(path).startswith("tuple") else value
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [{section}] {key} = {text!r}: " \
                           "a count must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["0x4", "4x-1", "4x0"])
@pytest.mark.parametrize("source", ["key", "flag"])
def test_grid_dimensions_below_one_are_config_errors(tmp_path, capsys, source, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\ngrid = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    given = {"key": ["--config", str(bad)], "flag": ["--grid", value]}[source]
    for command in ("fusion-run", "kl-sweep"):
        assert main([*given, "--out-dir", str(out), command]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: [fusion] grid = {value!r}: " \
                               "a count must be at least 1\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("key, command", [
    ("scc_lengths", "scc-report"),
    ("scc_probs", "scc-report"),
    ("scc_cross", "scc-report"),
    ("sweep_lengths", "pv-sweep"),
    ("sweep_probs", "pv-sweep"),
    ("characterize_voltages", "sbg-characterize"),
    ("characterize_durations", "sbg-characterize"),
])
def test_empty_report_lists_are_config_errors(tmp_path, capsys, key, command):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[report]\n{key} =\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), command]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [report] {key} = '': " \
                           "a list needs at least one value\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["levels", "multiplicity"])
def test_empty_array_lists_are_config_errors(tmp_path, capsys, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[array]\n{key} =\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "array-report"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [array] {key} = '': " \
                           "a list needs at least one value\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("plane", "0"), ("plane", "-5"), ("sigma_b", "0")])
def test_nonpositive_plane_or_sigma_b_is_config_error(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[fusion]\ngrid = 8x8\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "fusion-run"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: [fusion] {key} = {value!r}: " \
                           "must be strictly positive\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, message", [
    ("device", "reset_duration", "duration must be non-negative"),
    ("device", "read_energy", "read energy must be non-negative"),
    ("device", "write_duration", "write duration must be strictly positive"),
    ("run", "pv_sigma_area", "must be at least 0"),
    ("run", "pv_sigma_tox", "must be at least 0"),
    ("run", "master_seed", "must be at least 0"),
    ("fusion", "noise_d", "must be at least 0"),
    ("fusion", "noise_b", "must be at least 0"),
    ("fusion", "sigma_d_base", "must be strictly positive"),
    ("fusion", "sigma_d_slope", "must be at least 0"),
], ids=["reset_duration", "read_energy", "write_duration", "pv_sigma_area", "pv_sigma_tox",
        "master_seed", "noise_d", "noise_b", "sigma_d_base", "sigma_d_slope"])
def test_negative_device_values_are_config_errors(tmp_path, capsys, section, key, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = -1\n", encoding="utf-8")
    assert main(["--config", str(bad), "cost-report"]) == 2
    assert capsys.readouterr().err == f"configuration error: [{section}] {key} = '-1': {message}\n"


@pytest.mark.parametrize("section, key, value, command, message", [
    ("report", "sweep_probs", "1.5", "pv-sweep", "must lie in [0, 1]"),
    ("report", "scc_probs", "-0.5", "scc-report", "must lie in [0, 1]"),
    ("report", "scc_cross", "0.2,1.5", "scc-report", "must lie in [0, 1]"),
    ("array", "levels", "1.5", "array-report", "must lie in (0, 1]"),
    ("array", "levels", "0", "array-report", "must lie in (0, 1]"),
    ("array", "levels", "0.5,0.25", "array-report", "must be strictly increasing"),
    ("report", "characterize_voltages", "0", "sbg-characterize", "must be strictly positive"),
    ("report", "characterize_voltages", "-1", "sbg-characterize", "must be strictly positive"),
    ("report", "characterize_durations", "-1", "sbg-characterize", "must be at least 0"),
], ids=["sweep_probs", "scc_probs", "scc_cross", "levels-above", "levels-zero",
        "levels-order", "characterize-voltage-zero", "characterize-voltage-negative",
        "characterize-duration-negative"])
def test_probabilities_out_of_range_are_config_errors(tmp_path, capsys, section, key, value,
                                                      command, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), command]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: [{section}] {key} = {value!r}: {message}\n"
    assert not out.exists()


def _field_type(path):
    """The annotation of the RunConfig field a key's path sets."""
    owner = RunConfig()
    for name in path[:-1]:
        owner = getattr(owner, name)
    return {f.name: f.type for f in fields(owner)}[path[-1]]


# Every key that parses floats: a scalar, or a list of floats or of pairs.
FLOAT_KEYS = [key for key, (path, _) in KEYS.items() if "float" in _field_type(path)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_float_keys_refuse_non_finite_text(tmp_path, capsys, section, key, value):
    path, _ = KEYS[section, key]
    text = value if _field_type(path) == "float" else f"0.5,{value}"
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out-dir", str(out), "--pv", "array-report"]) == 2
    assert capsys.readouterr().err == \
        f"configuration error: [{section}] {key} = {text!r}: must be finite\n"
    assert not out.exists()


# Config-driven commands (allocate also reads a netlist and an assignment).
CONFIG_COMMANDS = ["sbg-characterize", "array-report", "scc-report", "fusion-run",
                   "cost-report", "pv-sweep", "kl-sweep"]
VALUE_TOKENS = ["0", "-1", "-0", "1", "2", "0.5", "1e-320", "1e-308", "1e308", "nan", "inf",
                "-inf", "", "abc", "4y4", "4x4", "true", "simple", "0.2,0.6", "1,2,3",
                "0.1,0.5;0.3,0.9", "0,0;0,32;32,0", "1e308,1e-308", "5%", "%(x)s"]
# Every key under its own section, and two under [DEFAULT], which is refused.
FUZZ_KEYS = sorted(KEYS) + [("DEFAULT", "bitstream_len"), ("DEFAULT", "grid")]
# Small report settings, so a case runs in milliseconds unless it draws them.
FUZZ_REPORT = {"scc_pairs": "2", "scc_lengths": "16", "sweep_repeats": "2",
               "sweep_lengths": "16"}


@settings(max_examples=150, deadline=None)
@given(values=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(VALUE_TOKENS),
                                 min_size=1, max_size=3),
       command=st.sampled_from(CONFIG_COMMANDS))
@example(values={("device", "vc0_ap2p"): "1e-308"}, command="sbg-characterize")
@example(values={("fusion", "sigma_b"): "1e-308"}, command="fusion-run")
@example(values={("device", "ra"): "1e-308"}, command="array-report")
@example(values={("device", "length"): "1e308"}, command="fusion-run")
@example(values={("device", "read_energy"): "1e308"}, command="kl-sweep")
def test_fuzzed_config_text(values, command):
    # Any values of one to three keys end in exit 0, or in exit 1 or 2 with
    # one stderr line and no output directory; no warning is recorded either
    # way, and no exception escapes.
    sections = {"report": dict(FUZZ_REPORT)}
    for (section, key), value in values.items():
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in sections.items())
    grid = [] if ("fusion", "grid") in values else ["--grid", "4x4"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "f.cfg"), Path(tmp, "o")
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["--config", str(cfg), "--out-dir", str(out), *grid, command])
        assert not caught
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code in (1, 2)
            assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
            assert not out.exists()
