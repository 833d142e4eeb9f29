"""d-dimensional Hilbert curve indexing (Skilling's transform).

The Hilbert baseline of Ghinita et al. [16] maps every tuple to its position
on a space-filling curve over the QI domain and then groups curve-adjacent
tuples, exploiting the curve's locality: tuples close on the curve are close
in QI space and therefore cheap to generalize together.

This module implements John Skilling's compact algorithm ("Programming the
Hilbert curve", AIP 2004) for converting a d-dimensional coordinate vector
into its Hilbert index, for arbitrary dimension and bit depth.  The scalar
:func:`hilbert_index` is the reference; the batch :func:`hilbert_key_words`
runs the same bit transformation across all points at once with NumPy
integer arrays and returns each index as int64 words, most significant
first, so indices wider than one int64 still sort as arrays.
:func:`hilbert_indices_vectorized` (one word) and :func:`hilbert_indices`
(Python ints) are views of it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "bits_needed",
    "hilbert_index",
    "hilbert_indices",
    "hilbert_indices_vectorized",
    "hilbert_key_words",
]

#: Index bits per int64 word of :func:`hilbert_key_words`.
WORD_BITS = 62


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
    """Hilbert indices for a batch of points (same bit depth for all), as Python ints.

    Runs :func:`hilbert_key_words` and joins each point's words, so any
    ``bits * d`` is exact.
    """
    if not len(points):
        return []
    words = hilbert_key_words(np.asarray(points, dtype=np.int64), bits)
    indices = words[0].tolist()
    for word in words[1:].tolist():
        indices = [(high << WORD_BITS) | low for high, low in zip(indices, word)]
    return indices


def hilbert_indices_vectorized(points: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices for an ``(n, d)`` coordinate matrix, as an int64 array.

    The single word of :func:`hilbert_key_words`; raises ``ValueError`` when
    ``bits * d`` exceeds :data:`WORD_BITS`, where the index needs more words.
    """
    words = hilbert_key_words(points, bits)
    if words.shape[0] > 1:
        raise ValueError(
            f"a {bits}-bit, {np.asarray(points).shape[1]}-dimensional index needs "
            f"{words.shape[0]} words; use hilbert_key_words"
        )
    return words[0]


def hilbert_key_words(points: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices for an ``(n, d)`` coordinate matrix, as ``(w, n)`` int64 words.

    Skilling's transform applied across all points at once: the points are
    copied into one contiguous ``(d, n)`` row per dimension, and every
    mask-and-xor step sweeps whole rows.  The ``bits * d`` index bits are
    then interleaved into ``w = ceil(bits * d / WORD_BITS)`` words, most
    significant first, each holding :data:`WORD_BITS` bits except the first,
    which holds the remainder.  Comparing the words in order compares the
    indices; when ``bits * d <= WORD_BITS`` (and always when ``d == 1``,
    where the index is the coordinate) the single word is the index.
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
    if d == 1:  # the 1-D Hilbert curve is the identity ordering
        return x
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

    # Interleave the transposed bits, most significant first; ``position``
    # counts from the least significant bit of the whole index.
    words = np.zeros((-(-bits * d // WORD_BITS), n), dtype=np.int64)
    position = bits * d
    for bit in range(bits - 1, -1, -1):
        for i in range(d):
            position -= 1
            word = words[-1 - position // WORD_BITS]
            word <<= 1
            word |= (x[i] >> bit) & 1
    return words
