"""Every byte the commands write, pinned by SHA-256.

The digests were taken from the files the commands wrote at their defaults
before the generator array became one struct-of-arrays value, so any change
to a unit's stream, energy, counters or process variation shows here.  A
change that means to move these bytes must say so and re-pin them.
array-report, scc-report, pv-sweep and kl-sweep were re-pinned when write
voltages came to be calibrated by inverting the switching law exactly; the
fusion-run pins kept their bytes through that change.
Every generating command (all but sbg-characterize, cost-report and
allocate, and every posterior_exact.csv) was re-pinned when each switching
attempt came to draw one uniform against its switching probability in place
of a normal switching time: the law of every bit is the same, the random
stream is not.
sbg-characterize, cost-report and allocate run no generator; their pins guard
the device model, the cost table and the allocator.
"""

import hashlib

import pytest

from spinsc.cli import main
from conftest import DATA

# `{data}` in an argument stands for the tests' data directory.
GOLDEN = {
    "sbg-characterize": {
        "characterize_p2ap.csv": "9a585e6120ad353683fc9809e3d9bb6bb6fd7c78ef3d2e51ca3fbe17eeae79a3",
        "characterize_ap2p.csv": "fa593d876b5ab6c197219e663a0c7cc04dd27fef3034772c596da3903d2fd248",
    },
    "array-report": {
        "array_report.csv": "fd7a60a64f65490caecc308c9db161010a280dab27c8bc0b825cf56be955204c",
    },
    "--pv array-report": {
        "array_report.csv": "7d2b221d6d4818b572d2ec91260e4763ad7a5747cb4caf018031ca0b59e72a09",
    },
    # Simple mode's energy expression; the second run puts one unit in each
    # block, with process variation.  Pinned before the generator engine
    # came to walk its own row blocks.
    "--config {data}/simple.cfg array-report": {
        "array_report.csv": "658a65851ce9fb6d20bbfc29766331235133973a5a43e79273bcd60597a6b1d5",
    },
    "--config {data}/simple.cfg --pv --bitstream-len 16385 array-report": {
        "array_report.csv": "b48241078239c0f3024fd8b9dc6657814854d11b5e90bbe9da13dd61e2e0c60b",
    },
    # 288 units: a table above write_csv's crossover, float and integer
    # columns mixed.  Pinned before large numeric tables came to be formatted
    # in one array pass.
    "--config {data}/large_array.cfg array-report": {
        "array_report.csv": "cc72f557a737690252a47c0e97cb245aaa006207adbc22242640f568db3e25c1",
    },
    # Re-pinned when each SCC table got a seeding domain of its own, again
    # with the exact write voltages, and again with the uniform draws.
    "scc-report": {
        "self_scc.csv": "1e7a6947b335ee1a6ffa44950b67fc10558b738e3d3ce6aafec150723a5e1b8a",
        "cross_scc.csv": "c1e1edeaba34b4c21ae79d2e2268473e5685cfe50569447a2f754ea57c7edaf0",
    },
    "cost-report": {
        "cost_report.csv": "293ad4a3d43ee2f40296cfe0c1d1f0a7299fc6da54f5fa4731c32c23f81075c7",
    },
    "pv-sweep": {
        "pv_sweep.csv": "e8eadd9a3bf91b34a06bff0f29f1e94db0951a5c18c56683a30228b66c5de85a",
    },
    "--grid 8x8 fusion-run": {
        "posterior.csv": "47e7cd757fe48e8888d145f8476a74050eda4f6cf26e45ec1f4c4bc46e2325f9",
        "posterior.pgm": "188d50c1ea617535391d1ce4a2492749046c498031e9c1915a54c4536568ee71",
        "posterior_exact.csv": "fc91fc2766159ed3c1c652b4656aadd3cbac8a490f8ac37eefb1e0573cfa2440",
        "fusion_summary.csv": "190fede86c2d8ba19d66311c138c847e5517f2d2d02ea2eda17d81e2d765a9dc",
    },
    "--grid 8x8 --pv --bitstream-len 16 fusion-run": {
        "posterior.csv": "fdc6e5047c4833e043c79e837c25403b731d777dc0e3761882b6d40034740a22",
        "posterior.pgm": "35badf3d69e7146cef77d9324003455b85c533a42a47269d5d99dfaf29dc5853",
        "posterior_exact.csv": "fc91fc2766159ed3c1c652b4656aadd3cbac8a490f8ac37eefb1e0573cfa2440",
        "fusion_summary.csv": "92ffc6b7d1752040e14536dffedfef7659b0ccb2c53779666aa1dd4c0d5be713",
    },
    # 1024-row posteriors, above write_csv's crossover; pinned with the
    # large array-report above.
    "--grid 32x32 fusion-run": {
        "posterior.csv": "352d0f92a3f0b7839ff01f6503c6e48d2b26c8b984c0dbf90840a8602aa225c9",
        "posterior.pgm": "ba63a59a7570e9dc94efd5c6fd6795333f0a0d509ef25c6182d14b6dc5919496",
        "posterior_exact.csv": "1ba0c7bca4cf3d18d6a17739886b41ddd5599cf7f05986f1586ffc97f5444306",
        "fusion_summary.csv": "0b5a063ec3924e047f84cad6cf7aa319a8973a79f6170869c58967415b0dc34d",
    },
    # A stream length that is not a multiple of 8.
    "--grid 9x7 --bitstream-len 13 fusion-run": {
        "posterior.csv": "95d93930dd80020ca1cddc439f59c40c3f99a6b1e1976dd3cb1f4a4d0030f62b",
        "posterior.pgm": "5230c42ff6136fab30775e0aaba7e451783a0e2868dae248764673c93e3d1088",
        "posterior_exact.csv": "fdda2389000da12430c09473ad3b28f0708045c40299c5905402fa967372ea9d",
        "fusion_summary.csv": "a62f242178a562380449ade94ed16eb879553038e129520cad2929ba34f97373",
    },
    # First pinned from the bytes the standalone KL sweep script wrote with
    # `--grid 8x8 --seeds 50`; re-pinned with the exact write voltages and
    # again with the uniform draws.
    "--seed 0 --grid 8x8 kl-sweep": {
        "kl_sweep.csv": "91ece735255692d497139fad9920a00d0d94e9a75ae25755abe281aeb63cfa00",
    },
    # The reference netlist and assignment.
    "allocate --netlist {data}/reference.net --assignment {data}/reference.assign": {
        "matrix.csv": "e0a03ec2f395ba883f5982e18f2d49549aac60ecaf93f51b18ab3d0cb760d72a",
        "allocate_summary.csv": "899889f80cf60ed0d736504161ed88de073eb510d24b14e72b9fbf23b367f18e",
    },
}


@pytest.mark.parametrize("args", list(GOLDEN))
def test_command_writes_pinned_bytes(tmp_path, capsys, args):
    out = tmp_path / "out"
    argv = [arg.format(data=DATA) for arg in args.split()]
    assert main(["--out-dir", str(out), *argv]) == 0
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == GOLDEN[args]
