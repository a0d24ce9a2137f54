"""Tests for MPI datatype → Type IR translation (Sec. 3.1)."""

import pytest

from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hvector,
    Type_create_resized,
    Type_create_struct,
    Type_create_subarray,
    Type_indexed,
    Type_vector,
)
from repro.mpi.datatype import BYTE, DOUBLE, FLOAT, ORDER_C, ORDER_FORTRAN
from repro.tempi.translate import TranslationError, translate


class TestNamed:
    def test_named_becomes_dense(self):
        ty = translate(FLOAT)
        assert ty.is_dense
        assert ty.data.extent == 4
        assert ty.data.offset == 0
        assert ty.child is None

    def test_byte_and_double_extents(self):
        assert translate(BYTE).data.extent == 1
        assert translate(DOUBLE).data.extent == 8


class TestContiguous:
    def test_stream_over_oldtype_extent(self):
        ty = translate(Type_contiguous(10, FLOAT))
        assert ty.is_stream
        assert ty.data.count == 10
        assert ty.data.stride == 4
        assert ty.child.is_dense

    def test_contiguous_of_strided_keeps_structure(self):
        inner = Type_vector(3, 1, 2, FLOAT)
        ty = translate(Type_contiguous(5, inner))
        assert ty.data.count == 5
        assert ty.data.stride == inner.extent
        assert ty.child.is_stream


class TestVectorAndHvector:
    def test_vector_becomes_two_streams(self):
        # The paper: parent is the blocks, child is the elements of a block.
        ty = translate(Type_vector(13, 100, 128, FLOAT))
        assert ty.is_stream
        assert ty.data.count == 13
        assert ty.data.stride == 128 * 4
        child = ty.child
        assert child.is_stream
        assert child.data.count == 100
        assert child.data.stride == 4
        assert child.child.is_dense

    def test_hvector_stride_taken_directly(self):
        ty = translate(Type_create_hvector(13, 100, 999, FLOAT))
        assert ty.data.stride == 999
        assert ty.child.data.count == 100

    def test_total_bytes_matches_size(self):
        t = Type_vector(7, 3, 5, DOUBLE)
        assert translate(t).total_bytes() == t.size


class TestSubarray:
    def test_2d_c_order_strides(self):
        t = Type_create_subarray([8, 64], [4, 16], [2, 8], ORDER_C, BYTE)
        ty = translate(t)
        # Slowest dimension on top: count 4, stride 64; then count 16, stride 1.
        assert ty.data.count == 4
        assert ty.data.stride == 64
        assert ty.data.offset == 2 * 64
        inner = ty.child
        assert inner.data.count == 16
        assert inner.data.stride == 1
        assert inner.data.offset == 8

    def test_fortran_order_swaps_fastest_dimension(self):
        t = Type_create_subarray([64, 8], [16, 4], [8, 2], ORDER_FORTRAN, BYTE)
        ty = translate(t)
        assert ty.data.count == 4
        assert ty.data.stride == 64
        assert ty.child.data.count == 16

    def test_element_type_scales_strides(self):
        t = Type_create_subarray([8, 64], [4, 16], [0, 0], ORDER_C, FLOAT)
        ty = translate(t)
        assert ty.data.stride == 64 * 4
        assert ty.child.data.stride == 4

    def test_3d_depth(self):
        t = Type_create_subarray([4, 8, 16], [2, 4, 8], [0, 0, 0], ORDER_C, BYTE)
        ty = translate(t)
        assert ty.depth() == 4  # three stream levels plus the dense leaf

    def test_total_bytes_matches_size(self):
        t = Type_create_subarray([4, 8, 16], [2, 4, 8], [1, 2, 4], ORDER_C, FLOAT)
        assert translate(t).total_bytes() == t.size


class TestResizedAndUnsupported:
    def test_resized_translates_inner_type(self):
        v = Type_vector(4, 2, 8, FLOAT)
        r = Type_create_resized(v, 0, 4096)
        assert translate(r).structure() == translate(v).structure()

    def test_indexed_rejected(self):
        with pytest.raises(TranslationError):
            translate(Type_indexed([1, 2], [0, 4], FLOAT))

    def test_struct_rejected(self):
        with pytest.raises(TranslationError):
            translate(Type_create_struct([1], [0], [FLOAT]))
