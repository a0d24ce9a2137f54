"""Tests for type-map flattening."""

import numpy as np
import pytest

from repro.mpi import typemap
from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hvector,
    Type_create_subarray,
    Type_indexed,
    Type_vector,
)
from repro.mpi.datatype import BYTE, DOUBLE, FLOAT, ORDER_C
from repro.mpi.errors import MpiTypeError


class TestMergeBlocks:
    def test_adjacent_blocks_merge(self):
        assert list(typemap.merge_blocks([(0, 4), (4, 4), (8, 4)])) == [(0, 12)]

    def test_gaps_preserved(self):
        assert list(typemap.merge_blocks([(0, 4), (8, 4)])) == [(0, 4), (8, 4)]

    def test_zero_length_blocks_skipped(self):
        assert list(typemap.merge_blocks([(0, 4), (4, 0), (4, 4)])) == [(0, 8)]

    def test_empty_input(self):
        assert list(typemap.merge_blocks([])) == []

    def test_negative_rejected(self):
        with pytest.raises(MpiTypeError):
            list(typemap.merge_blocks([(0, -1)]))


class TestFlatten:
    def test_named(self):
        assert list(typemap.flatten(DOUBLE)) == [(0, 8)]

    def test_base_offset(self):
        assert list(typemap.flatten(DOUBLE, base=16)) == [(16, 8)]

    def test_vector(self):
        t = Type_vector(3, 1, 2, FLOAT)
        assert list(typemap.flatten(t)) == [(0, 4), (8, 4), (16, 4)]

    def test_nested_hvector_of_contiguous(self):
        row = Type_contiguous(4, BYTE)
        t = Type_create_hvector(2, 1, 16, row)
        assert list(typemap.flatten(t)) == [(0, 4), (16, 4)]

    def test_total_bytes_equals_size(self):
        t = Type_create_subarray([8, 16], [3, 5], [2, 4], ORDER_C, FLOAT)
        assert sum(length for _, length in typemap.flatten(t)) == t.size


class TestFlattenMany:
    def test_elements_spaced_by_extent(self):
        # extent is ((2-1)*4 + 1)*4 = 20 bytes, so element 1 starts at 20 and
        # its first block (20, 4) merges with element 0's trailing (16, 4).
        t = Type_vector(2, 1, 4, FLOAT)
        result = list(typemap.flatten_many(t, 2))
        assert result == [(0, 4), (16, 8), (36, 4)]

    def test_contiguous_elements_merge_across_count(self):
        t = Type_contiguous(4, FLOAT)
        assert list(typemap.flatten_many(t, 3)) == [(0, 48)]

    def test_base_offset_applies(self):
        t = Type_contiguous(2, FLOAT)
        assert list(typemap.flatten_many(t, 1, base=100)) == [(100, 8)]

    def test_invalid_count(self):
        with pytest.raises(MpiTypeError):
            list(typemap.flatten_many(FLOAT, 0))


class TestBlockCount:
    def test_matches_flatten_for_strided_types(self):
        cases = [
            Type_vector(7, 3, 5, FLOAT),
            Type_create_hvector(4, 2, 64, DOUBLE),
            Type_create_subarray([8, 64], [4, 16], [1, 8], ORDER_C, BYTE),
            Type_indexed([2, 3, 1], [0, 10, 20], FLOAT),
        ]
        for t in cases:
            assert typemap.block_count(t) == len(list(typemap.flatten(t)))

    def test_count_scales_blocks(self):
        t = Type_vector(7, 3, 5, FLOAT)
        assert typemap.block_count(t, 3) == 21

    def test_contiguous_counts_as_one(self):
        t = Type_contiguous(64, BYTE)
        assert typemap.block_count(t, 10) == 1

    def test_invalid_count(self):
        with pytest.raises(MpiTypeError):
            typemap.block_count(FLOAT, 0)


class TestSizesAndHistograms:
    def test_packed_size(self):
        t = Type_vector(4, 2, 8, FLOAT)
        assert typemap.packed_size(t, 3) == 4 * 2 * 4 * 3

    def test_packed_size_invalid_count(self):
        with pytest.raises(MpiTypeError):
            typemap.packed_size(FLOAT, -1)

    def test_offsets_and_lengths_arrays(self):
        t = Type_vector(3, 1, 2, FLOAT)
        offsets, lengths = typemap.offsets_and_lengths(t)
        assert isinstance(offsets, np.ndarray)
        assert offsets.tolist() == [0, 8, 16]
        assert lengths.tolist() == [4, 4, 4]

    def test_offsets_and_lengths_of_indexed_blocks(self):
        """Unequal blocks keep their own lengths, in type-map order."""
        t = Type_indexed([2, 2, 1], [0, 10, 20], FLOAT)
        offsets, lengths = typemap.offsets_and_lengths(t)
        assert offsets.tolist() == [0, 40, 80]
        assert lengths.tolist() == [8, 8, 4]
        assert int(lengths.sum()) == typemap.packed_size(t, 1)
