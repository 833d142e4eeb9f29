"""d-dimensional Hilbert curve indexing (Skilling's transform).

The Hilbert baseline of Ghinita et al. [16] maps every tuple to its position
on a space-filling curve over the QI domain and then groups curve-adjacent
tuples, exploiting the curve's locality: tuples close on the curve are close
in QI space and therefore cheap to generalize together.

This module implements John Skilling's compact algorithm ("Programming the
Hilbert curve", AIP 2004) for converting a d-dimensional coordinate vector
into its Hilbert index, for arbitrary dimension and bit depth.  Two variants
are provided: the scalar :func:`hilbert_index` (the reference) and the
batch :func:`hilbert_indices_vectorized`, which runs the same bit
transformation across all points at once with NumPy integer arrays — the
per-point Python loop is the dominant cost of the Hilbert baseline.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["hilbert_index", "hilbert_indices", "hilbert_indices_vectorized", "bits_needed"]


def bits_needed(domain_sizes: Sequence[int]) -> int:
    """The per-dimension bit depth required to index the given domains."""
    largest = max(domain_sizes, default=1)
    return max(1, int(largest - 1).bit_length()) if largest > 1 else 1


def _axes_to_transpose(coords: Sequence[int], bits: int) -> list[int]:
    """Skilling's AxesToTranspose: in-place Gray-code style transformation."""
    x = list(coords)
    n = len(x)
    m = 1 << (bits - 1)

    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """The Hilbert index of a point with the given coordinates.

    Parameters
    ----------
    coords:
        Non-negative integer coordinates, one per dimension, each smaller
        than ``2 ** bits``.
    bits:
        Bit depth per dimension; the index lies in ``[0, 2 ** (bits * d))``.
    """
    n = len(coords)
    if n == 0:
        raise ValueError("coords must have at least one dimension")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    limit = 1 << bits
    for coordinate in coords:
        if not 0 <= coordinate < limit:
            raise ValueError(
                f"coordinate {coordinate} out of range for bits={bits} (limit {limit})"
            )
    if n == 1:
        # The 1-D Hilbert curve is the identity ordering.
        return coords[0]

    transpose = _axes_to_transpose(coords, bits)
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(n):
            index = (index << 1) | ((transpose[i] >> bit) & 1)
    return index


def hilbert_indices(points: Sequence[Sequence[int]], bits: int) -> list[int]:
    """Hilbert indices for a batch of points (same bit depth for all)."""
    return [hilbert_index(point, bits) for point in points]


def hilbert_indices_vectorized(points: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices for an ``(n, d)`` coordinate matrix, as an int64 array.

    Skilling's transform applied across all points at once: the points are
    copied into one contiguous ``(d, n)`` row per dimension, and every
    mask-and-xor step sweeps whole rows.  Falls back to the scalar
    implementation when ``bits * d`` exceeds 62 (the index no longer fits an
    int64 — only reachable far beyond the paper's Table 6 domains).
    """
    coords = np.asarray(points)
    if coords.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {coords.shape}")
    n, d = coords.shape
    if d == 0:
        raise ValueError("points must have at least one dimension")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    # A fresh copy: the transform below works in place.
    x = np.array(coords.T, dtype=np.int64, order="C")
    limit = 1 << bits
    if n and (x.min() < 0 or x.max() >= limit):
        bad = int(x.min() if x.min() < 0 else x.max())
        raise ValueError(f"coordinate {bad} out of range for bits={bits} (limit {limit})")
    if d == 1:
        return x[0]
    if bits * d > 62:  # pragma: no cover - beyond any realistic domain
        return np.array(
            [hilbert_index([int(c) for c in row], bits) for row in x.T], dtype=object
        )

    m = 1 << (bits - 1)

    # Inverse undo excess work (row-wise over all points).
    q = m
    while q > 1:
        p = q - 1
        for i in range(d):
            hit = (x[i] & q) != 0
            # Hit points flip the low bits of x[0]; the rest exchange the
            # differing low bits between x[0] and x[i].
            t = np.where(hit, 0, (x[0] ^ x[i]) & p)
            x[0] ^= np.where(hit, p, t)
            x[i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, d):
        x[i] ^= x[i - 1]
    t = np.zeros(n, dtype=np.int64)
    q = m
    while q > 1:
        t ^= np.where((x[d - 1] & q) != 0, q - 1, 0)
        q >>= 1
    x ^= t

    # Interleave the transposed bits into the final index.
    index = np.zeros(n, dtype=np.int64)
    for bit in range(bits - 1, -1, -1):
        for i in range(d):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index
