"""The stochastic computing correlation (SCC) of bitstream pairs.

A stream of n bits with k ones carries the unipolar value k/n; two streams
multiply exactly under a bitwise AND only when they are uncorrelated.  SCC
scores that from the pair's bit-overlap counts: (a, b, c, d) = (#11, #10,
#01, #00).
"""

from __future__ import annotations

import numpy as np


def scc(a: np.ndarray, ab: np.ndarray, ac: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Signed SCC in [-1, 1] from int64 arrays that broadcast together: the
    #11 count a, the ones of x (a + b), the ones of y (a + c) and the
    length n.

    SCC = (ad - bc) / (n*min(a+b, a+c) - (a+b)(a+c))     if ad > bc
        = (ad - bc) / ((a+b)(a+c) - n*max(a - d, 0))     otherwise

    Constant streams make both denominators vanish; correlation is undefined
    there and reported as 0.0.  Counts stay exact and the one true division
    rounds once while they stay below 2**53.
    """
    b, c = ab - a, ac - a
    d = n - a - b - c
    num = a * d - b * c
    den = np.where(num > 0, n * np.minimum(ab, ac) - ab * ac,
                   ab * ac - n * np.maximum(a - d, 0))
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)
