"""Unipolar uint8 bitstreams (AND is `&`, NOT is `1 - x`, MUX is np.where),
and stochastic.scc on overlap-count arrays against the scalar SCC oracle in
helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import overlap_counts, scc
from spinsc import stochastic

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


def bits(text):
    return np.array([int(ch) for ch in text], dtype=np.uint8)


def paired_streams(draw, strategy=bit_lists):
    x = draw(strategy)
    y = draw(st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x)))
    return np.array(x, dtype=np.uint8), np.array(y, dtype=np.uint8)


pairs = st.composite(paired_streams)()


def array_scc(x, y):
    """stochastic.scc of one pair, from the pair's overlap counts."""
    a, b, c, _ = overlap_counts(x, y)
    counts = (np.array([k], dtype=np.int64) for k in (a, a + b, a + c, len(x)))
    return float(stochastic.scc(*counts)[0])


def both_scc(x, y):
    return scc(x, y), array_scc(x, y)


def test_and_against_all_ones():
    x = bits("1111")
    y = bits("1010")
    assert np.array_equal(x & y, y)


def test_mux_definition():
    a = bits("1111")
    b = bits("0000")
    sel = bits("1010")
    assert np.array_equal(np.where(sel == 1, a, b), sel)


def test_and_expectation_of_independent_streams():
    # Independent Bernoulli oracle, not the SBG path.
    rng = np.random.default_rng(123)
    n = 4096
    x = (rng.random(n) < 0.6).astype(np.uint8)
    y = (rng.random(n) < 0.5).astype(np.uint8)
    assert (x & y).mean() == pytest.approx(0.30, abs=0.03)


def test_scc_identical_streams():
    x = bits("0110100")
    assert both_scc(x, x) == (1.0, 1.0)


def test_scc_complement_streams():
    x = bits("0110100")
    assert both_scc(x, 1 - x) == (-1.0, -1.0)


def test_scc_hand_example():
    # X1=0110, X2=0101: a=b=c=d=1, ad - bc = 0
    x1 = bits("0110")
    x2 = bits("0101")
    assert overlap_counts(x1, x2) == (1, 1, 1, 1)
    assert both_scc(x1, x2) == (0.0, 0.0)


def test_scc_constant_stream_is_zero():
    ones = bits("1111")
    assert both_scc(ones, ones) == (0.0, 0.0)
    assert both_scc(ones, bits("0101")) == (0.0, 0.0)


@given(pairs)
def test_and_value_bounded_by_inputs(pair):
    x, y = pair
    assert (x & y).mean() <= min(x.mean(), y.mean()) + 1e-12


@given(bit_lists)
def test_not_value_exact(values):
    x = np.array(values, dtype=np.uint8)
    assert (1 - x).mean() == pytest.approx(1.0 - x.mean(), abs=1e-12)


@given(st.data())
def test_mux_value_decomposition(data):
    n = data.draw(st.integers(min_value=1, max_value=48))
    mk = lambda: np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    a, b, sel = mk(), mk(), mk()
    left = np.where(sel == 1, a, b).mean()
    right = (a & sel).mean() + (b & (1 - sel)).mean()
    assert left == pytest.approx(right, abs=1e-12)


@given(pairs)
def test_scc_symmetric_and_bounded(pair):
    x, y = pair
    v = scc(x, y)
    assert -1.0 <= v <= 1.0
    assert v == pytest.approx(scc(y, x), abs=1e-12)


@given(pairs)
def test_array_scc_equals_scalar_oracle(pair):
    x, y = pair
    assert array_scc(x, y) == scc(x, y)


def test_array_scc_broadcasts_pairs_against_lengths():
    # (pairs, lengths) counts against a (lengths,) row of prefix lengths, as
    # the SCC tables call it; every entry equals the oracle on the prefixes.
    rng = np.random.default_rng(4)
    x = (rng.random((40, 24)) < rng.random((40, 1))).astype(np.uint8)
    y = (rng.random((40, 24)) < rng.random((40, 1))).astype(np.uint8)
    x[:3] = 1                                   # constant streams: zero denominators
    lengths = np.array([1, 2, 5, 16, 24])
    prefix = lambda s: np.cumsum(s, axis=1, dtype=np.int64)[:, lengths - 1]
    table = stochastic.scc(prefix(x & y), prefix(x), prefix(y), lengths)
    expected = [[scc(x[k, :n], y[k, :n]) for n in lengths] for k in range(len(x))]
    assert table.tolist() == expected
    assert {np.sign(v) for row in expected for v in row} == {-1.0, 0.0, 1.0}
