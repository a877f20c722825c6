"""Unipolar stochastic bitstreams, gate-level arithmetic and the SCC metric.

A stream of n bits with k ones carries the value k/n.  Multiplication is a
bitwise AND, complement a bitwise NOT, and scaled addition a bitwise MUX.
All operations are pure and inputs are immutable, so everything here is safe
to call from any thread.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class LengthMismatch(ValueError):
    """Two streams fed to a bitwise operation have different lengths."""


class Bitstream:
    """Fixed-length binary sequence; the payload array is frozen on creation."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray) -> None:
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a bitstream is a non-empty 1-D bit sequence")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bitstream entries must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.bits = arr

    @classmethod
    def from_string(cls, text: str) -> "Bitstream":
        return cls([int(ch) for ch in text.strip()])

    def __len__(self) -> int:
        return int(self.bits.size)

    def ones(self) -> int:
        return int(self.bits.sum())

    def value(self) -> float:
        """Unipolar value k/n."""
        return self.ones() / len(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        head = "".join(str(b) for b in self.bits[:16])
        tail = "..." if len(self) > 16 else ""
        return f"Bitstream({head}{tail}, n={len(self)})"


def _check_lengths(*streams: Bitstream) -> None:
    n = len(streams[0])
    if any(len(s) != n for s in streams[1:]):
        raise LengthMismatch(f"stream lengths differ: {[len(s) for s in streams]}")


def sc_and(x: Bitstream, y: Bitstream) -> Bitstream:
    """Bitwise AND: multiplies the two stream values (independent inputs)."""
    _check_lengths(x, y)
    return Bitstream(x.bits & y.bits)


def sc_not(x: Bitstream) -> Bitstream:
    """Bitwise complement: value maps to 1 - value exactly."""
    return Bitstream(1 - x.bits)


def sc_mux(a: Bitstream, b: Bitstream, sel: Bitstream) -> Bitstream:
    """Per-bit select: a where sel is 1, b where sel is 0 (scaled addition)."""
    _check_lengths(a, b, sel)
    return Bitstream(np.where(sel.bits == 1, a.bits, b.bits))


def overlap_counts(x: Bitstream, y: Bitstream) -> tuple[int, int, int, int]:
    """Bit-overlap counts (a, b, c, d) = (#11, #10, #01, #00)."""
    _check_lengths(x, y)
    a = int(np.sum(x.bits & y.bits))
    b = x.ones() - a
    c = y.ones() - a
    d = len(x) - a - b - c
    return a, b, c, d


def scc(x: Bitstream, y: Bitstream) -> float:
    """Stochastic computing correlation in [-1, 1].

    SCC = (ad - bc) / (n*min(a+b, a+c) - (a+b)(a+c))     if ad > bc
        = (ad - bc) / ((a+b)(a+c) - n*max(a - d, 0))     otherwise

    Constant streams make both denominators vanish; correlation is undefined
    there and reported as 0.
    """
    a, b, c, d = overlap_counts(x, y)
    n = len(x)
    num = a * d - b * c
    if num > 0:
        den = n * min(a + b, a + c) - (a + b) * (a + c)
    else:
        den = (a + b) * (a + c) - n * max(a - d, 0)
    if den == 0:
        return 0.0
    return num / den
