"""Tests for the d-dimensional Hilbert curve indexing."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.hilbert.curve import (
    bits_needed,
    hilbert_index,
    hilbert_indices,
    hilbert_indices_vectorized,
)


class TestBitsNeeded:
    def test_values(self):
        assert bits_needed([2]) == 1
        assert bits_needed([4]) == 2
        assert bits_needed([5]) == 3
        assert bits_needed([79, 2, 9]) == 7
        assert bits_needed([]) == 1
        assert bits_needed([1, 1]) == 1


class TestTwoDimensionalCurve:
    def test_order_one_curve(self):
        """The classic 2x2 Hilbert 'U': (0,0) -> (0,1) -> (1,1) -> (1,0)."""
        order = sorted(
            itertools.product(range(2), repeat=2),
            key=lambda point: hilbert_index(point, bits=1),
        )
        assert order == [(0, 0), (0, 1), (1, 1), (1, 0)]

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_bijective_on_full_grid(self, bits):
        side = 2 ** bits
        points = list(itertools.product(range(side), repeat=2))
        indices = hilbert_indices(points, bits)
        assert sorted(indices) == list(range(side * side))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_consecutive_indices_are_grid_neighbours(self, bits):
        """The defining locality property of the Hilbert curve."""
        side = 2 ** bits
        by_index = {
            hilbert_index(point, bits): point
            for point in itertools.product(range(side), repeat=2)
        }
        for index in range(side * side - 1):
            x1, y1 = by_index[index]
            x2, y2 = by_index[index + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1


class TestHigherDimensions:
    @pytest.mark.parametrize("dimension", [3, 4])
    def test_bijective(self, dimension):
        bits = 2
        side = 2 ** bits
        points = list(itertools.product(range(side), repeat=dimension))
        indices = hilbert_indices(points, bits)
        assert sorted(indices) == list(range(side ** dimension))

    @pytest.mark.parametrize("dimension", [3, 4])
    def test_adjacency(self, dimension):
        bits = 1
        side = 2
        by_index = {
            hilbert_index(point, bits): point
            for point in itertools.product(range(side), repeat=dimension)
        }
        for index in range(side ** dimension - 1):
            first = by_index[index]
            second = by_index[index + 1]
            assert sum(abs(a - b) for a, b in zip(first, second)) == 1

    def test_one_dimension_is_identity(self):
        for value in range(8):
            assert hilbert_index((value,), bits=3) == value


class TestValidation:
    def test_empty_coords_rejected(self):
        with pytest.raises(ValueError):
            hilbert_index((), 2)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            hilbert_index((0, 0), 0)

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError):
            hilbert_index((4, 0), bits=2)
        with pytest.raises(ValueError):
            hilbert_index((-1, 0), bits=2)


class TestProperties:
    @given(
        coords=st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=5),
    )
    def test_index_in_range(self, coords):
        bits = 4
        index = hilbert_index(coords, bits)
        assert 0 <= index < 2 ** (bits * len(coords))

    @given(
        first=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        second=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    )
    def test_distinct_points_have_distinct_indices(self, first, second):
        if first == second:
            return
        assert hilbert_index(first, 3) != hilbert_index(second, 3)


def _grid_points(dimension: int, bits: int) -> np.ndarray:
    side = 1 << bits
    return np.array(list(itertools.product(range(side), repeat=dimension)), dtype=np.int64)


def _scalar_indices(points: np.ndarray, bits: int) -> list[int]:
    return [hilbert_index([int(c) for c in row], bits) for row in points]


class TestVectorizedTransform:
    """The batch transform works column-major on a private copy of its input."""

    @pytest.mark.parametrize(
        "layout",
        ["c-int64", "fortran-int64", "c-int32", "strided-columns", "gathered-rows"],
    )
    def test_every_input_layout_matches_scalar(self, layout):
        bits = 3
        grid = _grid_points(3, bits)
        if layout == "c-int64":
            points = np.ascontiguousarray(grid)
        elif layout == "fortran-int64":
            points = np.asfortranarray(grid)
        elif layout == "c-int32":
            points = grid.astype(np.int32)
        elif layout == "strided-columns":
            wide = np.zeros((grid.shape[0], 6), dtype=np.int64)
            wide[:, ::2] = grid
            points = wide[:, ::2]
            assert not points.flags.c_contiguous
        else:
            points = grid[np.arange(grid.shape[0] - 1, -1, -3)]
        assert hilbert_indices_vectorized(points, bits).tolist() == _scalar_indices(
            points, bits
        )

    def test_input_is_left_untouched(self):
        points = _grid_points(4, 2)
        before = points.copy()
        hilbert_indices_vectorized(points, 2)
        assert np.array_equal(points, before)

    @pytest.mark.parametrize("dimension", [2, 3, 4])
    def test_bijective_on_full_grid(self, dimension):
        bits = 2
        indices = hilbert_indices_vectorized(_grid_points(dimension, bits), bits)
        assert indices.dtype == np.int64
        assert sorted(indices.tolist()) == list(range(1 << (bits * dimension)))

    @given(d=st.integers(min_value=2, max_value=8), data=st.data())
    def test_wide_indices_match_scalar(self, d, data):
        """63-128-bit indices: the joined words equal the scalar index."""
        bits = data.draw(st.integers(min_value=-(-63 // d), max_value=min(62, 128 // d)))
        coordinate = st.integers(min_value=0, max_value=(1 << bits) - 1)
        points = data.draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=8))
        assert hilbert_indices(points, bits) == [hilbert_index(point, bits) for point in points]
        with pytest.raises(ValueError, match="hilbert_key_words"):
            hilbert_indices_vectorized(np.array(points, dtype=np.int64), bits)

    @pytest.mark.parametrize(
        ("points", "bits"),
        [
            (np.zeros(3, dtype=np.int64), 2),
            (np.zeros((3, 0), dtype=np.int64), 2),
            (np.zeros((3, 2), dtype=np.int64), 0),
            (np.array([[4, 0]], dtype=np.int64), 2),
            (np.array([[0, -1]], dtype=np.int64), 2),
        ],
        ids=["one-dimensional-array", "no-dimensions", "zero-bits", "too-large", "negative"],
    )
    def test_invalid_input_rejected(self, points, bits):
        with pytest.raises(ValueError):
            hilbert_indices_vectorized(points, bits)
