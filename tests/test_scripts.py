"""kl-sweep refuses a bad grid in one line, before it writes anything."""
import pytest

from spinsc.cli import main


@pytest.mark.parametrize("argv", [
    ["--grid", "4y4"],
    ["--grid", "0x4"],
], ids=["grid-text", "grid-zero"])
def test_kl_sweep_refuses_bad_input_in_one_line(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out-dir", str(out), "kl-sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
