import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinsc.stochastic import (
    Bitstream,
    LengthMismatch,
    overlap_counts,
    sc_and,
    sc_mux,
    sc_not,
    scc,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


def paired_streams(draw, strategy=bit_lists):
    bits = draw(strategy)
    other = draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits)))
    return Bitstream(bits), Bitstream(other)


pairs = st.composite(paired_streams)()


def test_value_examples():
    assert Bitstream.from_string("0110").value() == 0.5
    assert Bitstream([1, 1, 1, 1]).value() == 1.0
    assert Bitstream.from_string("10100000").value() == 0.25
    assert Bitstream([0]).value() == 0.0


def test_bitstream_validation():
    with pytest.raises(ValueError):
        Bitstream([])
    with pytest.raises(ValueError):
        Bitstream([0, 2])
    frozen = Bitstream([0, 1])
    with pytest.raises(ValueError):
        frozen.bits[0] = 1


def test_and_against_all_ones():
    x = Bitstream.from_string("1111")
    y = Bitstream.from_string("1010")
    assert sc_and(x, y) == y


def test_mux_definition():
    a = Bitstream.from_string("1111")
    b = Bitstream.from_string("0000")
    sel = Bitstream.from_string("1010")
    assert sc_mux(a, b, sel) == sel


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        sc_and(Bitstream([1]), Bitstream([1, 0]))
    with pytest.raises(LengthMismatch):
        scc(Bitstream([1]), Bitstream([1, 0]))


def test_and_expectation_of_independent_streams():
    # Independent Bernoulli oracle, not the SBG path.
    rng = np.random.default_rng(123)
    n = 4096
    x = Bitstream((rng.random(n) < 0.6).astype(np.uint8))
    y = Bitstream((rng.random(n) < 0.5).astype(np.uint8))
    assert sc_and(x, y).value() == pytest.approx(0.30, abs=0.03)


def test_scc_identical_streams():
    x = Bitstream.from_string("0110100")
    assert scc(x, x) == 1.0


def test_scc_complement_streams():
    x = Bitstream.from_string("0110100")
    assert scc(x, sc_not(x)) == -1.0


def test_scc_hand_example():
    # X1=0110, X2=0101: a=b=c=d=1, ad - bc = 0
    x1 = Bitstream.from_string("0110")
    x2 = Bitstream.from_string("0101")
    assert overlap_counts(x1, x2) == (1, 1, 1, 1)
    assert scc(x1, x2) == 0.0


def test_scc_constant_stream_is_zero():
    ones = Bitstream([1, 1, 1, 1])
    assert scc(ones, ones) == 0.0
    assert scc(ones, Bitstream([0, 1, 0, 1])) == 0.0


@given(pairs)
def test_and_value_bounded_by_inputs(pair):
    x, y = pair
    v = sc_and(x, y).value()
    assert v <= min(x.value(), y.value()) + 1e-12


@given(bit_lists)
def test_not_value_exact(bits):
    x = Bitstream(bits)
    assert sc_not(x).value() == pytest.approx(1.0 - x.value(), abs=1e-12)


@given(st.data())
def test_mux_value_decomposition(data):
    n = data.draw(st.integers(min_value=1, max_value=48))
    mk = lambda: Bitstream(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    a, b, sel = mk(), mk(), mk()
    left = sc_mux(a, b, sel).value()
    right = sc_and(a, sel).value() + sc_and(b, sc_not(sel)).value()
    assert left == pytest.approx(right, abs=1e-12)


@given(pairs)
def test_scc_symmetric_and_bounded(pair):
    x, y = pair
    v = scc(x, y)
    assert -1.0 <= v <= 1.0
    assert v == pytest.approx(scc(y, x), abs=1e-12)
