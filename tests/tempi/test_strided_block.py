"""Tests for the StridedBlock lowering (Alg. 5)."""

import pytest

from repro.mpi.constructors import Type_contiguous, Type_create_subarray, Type_vector
from repro.mpi.datatype import BYTE, FLOAT, ORDER_C
from repro.tempi.canonicalize import simplify
from repro.tempi.ir import dense, stream
from repro.tempi.strided_block import StridedBlock, to_strided_block
from repro.tempi.translate import translate


def lower(datatype):
    return to_strided_block(simplify(translate(datatype)))


class TestStridedBlockValidation:
    def test_basic_properties(self):
        block = StridedBlock(start=4, counts=(16, 8, 2), strides=(1, 64, 1024))
        assert block.ndims == 3
        assert block.block_length == 16
        assert block.packed_bytes == 256
        assert block.num_blocks == 16
        assert block.extent == 4 * 0 + (16 - 1) * 1 + 7 * 64 + 1 * 1024 + 1

    def test_contiguous_detection(self):
        assert StridedBlock(0, (128,), (1,)).is_contiguous
        assert not StridedBlock(0, (128, 2), (1, 256)).is_contiguous

    def test_dimension_zero_must_be_unit_stride(self):
        with pytest.raises(ValueError):
            StridedBlock(0, (8, 2), (2, 64))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            StridedBlock(0, (8, 2), (1,))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            StridedBlock(-1, (8,), (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StridedBlock(0, (), ())

    def test_footprint_is_tiny(self):
        assert StridedBlock(0, (8, 4, 2), (1, 32, 256)).footprint() == 56


class TestLowering:
    def test_contiguous_type_is_1d(self):
        block = lower(Type_contiguous(64, FLOAT))
        assert block.is_contiguous
        assert block.counts == (256,)

    def test_vector_is_2d(self):
        block = lower(Type_vector(13, 100, 128, FLOAT))
        assert block.counts == (400, 13)
        assert block.strides == (1, 512)
        assert block.start == 0

    def test_subarray_3d(self):
        t = Type_create_subarray(
            [1024, 512, 512], [47, 13, 400], [0, 0, 0], ORDER_C, BYTE
        )
        block = lower(t)
        assert block.counts == (400, 13, 47)
        assert block.strides == (1, 512, 512 * 512)

    def test_offsets_accumulate_into_start(self):
        t = Type_create_subarray([8, 64], [2, 16], [3, 8], ORDER_C, BYTE)
        block = lower(t)
        assert block.start == 3 * 64 + 8

    def test_innermost_dimension_is_contiguous_run(self):
        block = lower(Type_vector(4, 25, 32, FLOAT))
        assert block.strides[0] == 1
        assert block.block_length == 100

    def test_packed_bytes_equals_type_size(self):
        t = Type_create_subarray([16, 8, 64], [7, 3, 24], [2, 1, 8], ORDER_C, BYTE)
        assert lower(t).packed_bytes == t.size

    def test_an_uncanonical_chain_lowers_as_it_stands(self):
        # The ablation lowers raw translations: one dimension per stream row,
        # innermost first, and the offsets of every level summed.
        block = to_strided_block(stream(2, 64, stream(4, 4, dense(4, offset=1)), offset=8))
        assert block == StridedBlock(9, (4, 4, 2), (1, 4, 64))

