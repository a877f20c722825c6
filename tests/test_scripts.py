import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fusion_kl_sweep.py"


@pytest.fixture(scope="module")
def kl_sweep():
    spec = importlib.util.spec_from_file_location("fusion_kl_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["--grid", "4y4"],
    ["--grid", "0x4"],
    ["--target", "1"],
    ["--lengths", "16", "0"],
    ["--seeds", "0"],
    ["--levels", "-1"],
    ["--seeds", "x"],
], ids=["grid-text", "grid-zero", "target", "lengths", "seeds", "levels", "seeds-text"])
def test_kl_sweep_refuses_bad_input_in_one_line(kl_sweep, tmp_path, capsys, argv):
    out = tmp_path / "kl.csv"
    assert kl_sweep.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_kl_sweep_writes_its_table(kl_sweep, tmp_path, capsys):
    out = tmp_path / "kl.csv"
    argv = ["--grid", "4x4", "--lengths", "8", "16", "--seeds", "1", "--levels", "8",
            "--out", str(out)]
    assert kl_sweep.main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,variation,mean_kl,min_kl,max_kl"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["8", "off"], ["16", "off"], ["8", "on"], ["16", "on"]]
    assert capsys.readouterr().err == ""
