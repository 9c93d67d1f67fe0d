"""The leaf gather of the N-table accumulation, on root permutations.

An element w = p * t is split into a tower prefix p and a tail element t.
Its right ascents are the j with p(t(alpha_j)) > 0 and its left ascents the
i with t^{-1}(p^{-1}(alpha_i)) > 0, so both counts are sums of lookups in
sign tables precomputed per prefix and per tail element.
"""

from __future__ import annotations

import numpy as np


def count_profiles_batch(
    prefix_pos: np.ndarray,
    prefix_inv: np.ndarray,
    tails: np.ndarray,
    tails_inv_pos: np.ndarray,
    out: np.ndarray,
) -> None:
    """Accumulate the ascent counts of every product p_k * t_b into `out`.

    prefix_pos:    (K, R) bool, prefix_pos[k, r] iff p_k(root r) > 0.
    prefix_inv:    (K, n) int, prefix_inv[k, i] = index of p_k^{-1}(alpha_i).
    tails:         (B, n) int, tails[b, j] = index of t_b(alpha_j).
    tails_inv_pos: (R, B) bool, tails_inv_pos[r, b] iff t_b^{-1}(root r) > 0.
    out:           (n+1, n+1) int64; out[l, r] += #products with l left and
                   r right ascents.
    """
    n = tails.shape[1]
    right = np.zeros((len(prefix_pos), len(tails)), dtype=np.uint8)
    left = np.zeros_like(right)
    for j in range(n):
        right += np.take(prefix_pos, tails[:, j], axis=1)
        left += np.take(tails_inv_pos, prefix_inv[:, j], axis=0)
    codes = left * np.uint8(n + 1) + right
    out += np.bincount(codes.ravel(), minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
