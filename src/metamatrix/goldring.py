"""Exact sign tests in the quadratic ring Z[phi] (phi the golden ratio).

An element a + b*phi (phi^2 = phi + 1) is held as its integer coordinates.
Its sign is decided exactly by integer comparisons, never by floating point:
a + b*phi = ((2a + b) + b*sqrt(5)) / 2, so the sign reduces to comparing
(2a+b)^2 against 5*b^2 when the two terms disagree.
"""

from __future__ import annotations

import numpy as np


def nonneg_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise exact test a + b*phi >= 0 on integer arrays."""
    s = 2 * a + b
    pos_b = (s >= 0) | (5 * b * b >= s * s)
    neg_b = (s >= 0) & (s * s >= 5 * b * b)
    return np.where(b >= 0, pos_b, neg_b)
