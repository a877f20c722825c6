"""Every byte the commands write, pinned by SHA-256.

The digests were taken from the files the commands wrote at their defaults
before the generator array became one struct-of-arrays value, so any change
to a unit's stream, energy, counters or process variation shows here.  A
change that means to move these bytes must say so and re-pin them.
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
        "array_report.csv": "26dc58474bb16669624d8713b41c8283f627a2c3414a16a952452d9910ff3faf",
    },
    "--pv array-report": {
        "array_report.csv": "f97265818fe9190ff70c805312f0c4b502d4b0d708b7ba05c4c2bc5e9ff696dd",
    },
    # Re-pinned when each SCC table got a seeding domain of its own.
    "scc-report": {
        "self_scc.csv": "db4abae808e8e93b511ad9c901fafade55194f7efd5d1b0dfe4308b4107bc79b",
        "cross_scc.csv": "ee80a58db529ec39bca2bcdf57ea2645b1c144ab8b81ea3a3d3d8ec0d2097859",
    },
    "cost-report": {
        "cost_report.csv": "293ad4a3d43ee2f40296cfe0c1d1f0a7299fc6da54f5fa4731c32c23f81075c7",
    },
    "pv-sweep": {
        "pv_sweep.csv": "24d8244e27a1f00c0ae5c3dd5570b878eeb1b60c8269154f79427b01266988fc",
    },
    "--grid 8x8 fusion-run": {
        "posterior.csv": "e2c0a8e1bdf332f2be833b58c64b8894588ed934e2ecec849fe325c3a5c70b05",
        "posterior.pgm": "604bc26f27e5ed2c0f3d259fc109214388726cb1fcc92f5eddaf214f2ccadfc4",
        "posterior_exact.csv": "fc91fc2766159ed3c1c652b4656aadd3cbac8a490f8ac37eefb1e0573cfa2440",
        "fusion_summary.csv": "df13c4a1782a7c819c4985b6a0748564da7db2553b5ef178fae06a5443010714",
    },
    "--grid 8x8 --pv --bitstream-len 16 fusion-run": {
        "posterior.csv": "4a825374281c76a2aa47a8295db9a92acbfead6c17e396aa25e252cc96b9738f",
        "posterior.pgm": "abaef00a12b28c3581c07306a1cceec36498b80232b42b64f2130824e9d80aaa",
        "posterior_exact.csv": "fc91fc2766159ed3c1c652b4656aadd3cbac8a490f8ac37eefb1e0573cfa2440",
        "fusion_summary.csv": "b20529a235c85a1898202bcd4fe74afa6033951bb7de8c73aa49db586cacf78b",
    },
    # A stream length that is not a multiple of 8.
    "--grid 9x7 --bitstream-len 13 fusion-run": {
        "posterior.csv": "65051f1a88d3485829923fb82d21928cb3ba94a6c3f4c39fba47919faf0328fb",
        "posterior.pgm": "e7db5345dc81d9816d5e1f502a5bd01e3471f50ffdd01f37bec2e77a9ab2d1e7",
        "posterior_exact.csv": "fdda2389000da12430c09473ad3b28f0708045c40299c5905402fa967372ea9d",
        "fusion_summary.csv": "f647fa2f807ee2bd4e0fc38ada46d7ec1a67652b63c36328de38cb5e6ac54f55",
    },
    # The bytes the standalone KL sweep script wrote with `--grid 8x8 --seeds 50`
    # before it became this command.
    "--seed 0 --grid 8x8 kl-sweep": {
        "kl_sweep.csv": "61ba20df76444a150f19b147e03fa9aa86911ffe33070c3fc711754d3d581985",
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
