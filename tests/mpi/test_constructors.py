"""Tests for derived-datatype constructors: sizes, extents, layouts, block counts."""

import pytest

from repro.mpi import typemap
from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hindexed,
    Type_create_hvector,
    Type_create_resized,
    Type_create_struct,
    Type_create_subarray,
    Type_indexed,
    Type_vector,
)
from repro.mpi.datatype import BYTE, DOUBLE, FLOAT, INT, ORDER_C, ORDER_FORTRAN, Combiner
from repro.mpi.errors import MpiTypeError


def blocks(datatype):
    return list(typemap.flatten(datatype))


class TestContiguous:
    def test_size_and_extent(self):
        t = Type_contiguous(10, FLOAT)
        assert t.size == 40
        assert t.extent == 40

    def test_layout_merges_to_one_block(self):
        assert blocks(Type_contiguous(10, FLOAT)) == [(0, 40)]

    def test_block_count_dense(self):
        assert Type_contiguous(10, FLOAT).block_count() == 1

    def test_nested_contiguous(self):
        inner = Type_contiguous(4, FLOAT)
        outer = Type_contiguous(3, inner)
        assert outer.size == 48
        assert blocks(outer) == [(0, 48)]

    def test_contiguous_of_strided_is_not_dense(self):
        strided = Type_vector(2, 1, 4, FLOAT)
        t = Type_contiguous(3, strided)
        assert not t.is_contiguous_bytes
        assert t.block_count() == 3 * strided.block_count()

    def test_invalid_count(self):
        with pytest.raises(MpiTypeError):
            Type_contiguous(0, FLOAT)


class TestVector:
    def test_paper_row_equivalents(self):
        """Sec. 2's row constructions all describe E0 * 4 contiguous bytes."""
        e0 = 100
        constructions = [
            Type_contiguous(e0, FLOAT),
            Type_contiguous(e0 * 4, BYTE),
            Type_vector(1, e0, 1, FLOAT),
            Type_vector(e0, 4, 4, BYTE),
            Type_create_hvector(e0 * 4, 1, 1, BYTE),
        ]
        for t in constructions:
            assert t.size == e0 * 4
            assert blocks(t) == [(0, e0 * 4)]

    def test_strided_vector_layout(self):
        t = Type_vector(3, 2, 4, FLOAT)  # 3 blocks of 8 B, 16 B apart
        assert t.size == 24
        assert t.extent == (2 * 4 + 2) * 4
        assert blocks(t) == [(0, 8), (16, 8), (32, 8)]
        assert t.block_count() == 3

    def test_stride_equal_blocklength_is_contiguous(self):
        t = Type_vector(5, 3, 3, FLOAT)
        assert t.is_contiguous_bytes
        assert t.block_count() == 1

    def test_stride_smaller_than_blocklength_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_vector(3, 4, 2, FLOAT)

    def test_non_positive_stride_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_vector(3, 1, 0, FLOAT)
        with pytest.raises(MpiTypeError):
            Type_vector(3, 1, -2, FLOAT)

    def test_stride_bytes_property(self):
        assert Type_vector(3, 2, 8, FLOAT).stride_bytes == 32


class TestHvector:
    def test_equivalent_to_vector_when_stride_matches(self):
        v = Type_vector(4, 2, 8, FLOAT)
        h = Type_create_hvector(4, 2, 32, FLOAT)
        assert blocks(v) == blocks(h)
        assert v.size == h.size
        assert v.extent == h.extent

    def test_byte_stride_allows_non_multiple_of_extent(self):
        h = Type_create_hvector(2, 1, 10, DOUBLE)
        assert blocks(h) == [(0, 8), (10, 8)]

    def test_overlapping_stride_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_hvector(2, 2, 4, FLOAT)

    def test_block_count(self):
        assert Type_create_hvector(7, 1, 100, DOUBLE).block_count() == 7
        assert Type_create_hvector(7, 1, 8, DOUBLE).block_count() == 1


class TestSubarray:
    def test_2d_c_order(self):
        # 4x8 array of bytes, take rows 1-2, columns 2-5 (C order: last dim fastest).
        t = Type_create_subarray([4, 8], [2, 4], [1, 2], ORDER_C, BYTE)
        assert t.size == 8
        assert t.extent == 32
        assert blocks(t) == [(10, 4), (18, 4)]

    def test_2d_fortran_order(self):
        # Same region but FORTRAN order: first dim fastest.
        t = Type_create_subarray([8, 4], [4, 2], [2, 1], ORDER_FORTRAN, BYTE)
        assert t.size == 8
        assert blocks(t) == [(10, 4), (18, 4)]

    def test_full_coverage_is_contiguous(self):
        t = Type_create_subarray([4, 8], [4, 8], [0, 0], ORDER_C, BYTE)
        assert t.is_contiguous_bytes
        assert t.block_count() == 1

    def test_full_fastest_dimensions_merge(self):
        # The two fastest dims are fully covered, so the partially covered
        # slowest dim's slabs are adjacent and merge into one contiguous run.
        t = Type_create_subarray([4, 3, 8], [2, 3, 8], [1, 0, 0], ORDER_C, BYTE)
        assert t.block_count() == 1
        assert blocks(t) == [(24, 48)]

    def test_partial_middle_dimension_blocks(self):
        # Fastest dim fully covered, middle dim partial: one run per (middle,
        # slow) index pair that cannot merge across the middle dim's holes.
        t = Type_create_subarray([4, 3, 8], [2, 2, 8], [1, 0, 0], ORDER_C, BYTE)
        assert t.block_count() == 2
        assert blocks(t) == [(24, 16), (48, 16)]

    def test_element_type_scaling(self):
        t = Type_create_subarray([4, 8], [2, 4], [0, 0], ORDER_C, FLOAT)
        assert t.size == 8 * 4
        assert t.extent == 32 * 4
        assert blocks(t) == [(0, 16), (32, 16)]

    def test_3d_block_count(self):
        t = Type_create_subarray([8, 8, 64], [4, 4, 16], [0, 0, 0], ORDER_C, BYTE)
        assert t.block_count() == 16
        assert len(blocks(t)) == 16

    def test_out_of_bounds_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_subarray([4], [5], [0], ORDER_C, BYTE)
        with pytest.raises(MpiTypeError):
            Type_create_subarray([4], [2], [3], ORDER_C, BYTE)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_subarray([4, 4], [2], [0, 0], ORDER_C, BYTE)

    def test_bad_order_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_subarray([4], [2], [0], 7, BYTE)


class TestIndexed:
    def test_layout(self):
        t = Type_indexed([2, 1], [0, 4], FLOAT)
        assert t.size == 12
        assert blocks(t) == [(0, 8), (16, 4)]
        assert t.block_count() == 2

    def test_extent_spans_blocks(self):
        t = Type_indexed([1, 1], [0, 9], FLOAT)
        assert t.extent == 40

    def test_hindexed_displacements_in_bytes(self):
        t = Type_create_hindexed([1, 1], [0, 13], FLOAT)
        assert blocks(t) == [(0, 4), (13, 4)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_indexed([1, 2], [0], FLOAT)

    def test_empty_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_indexed([], [], FLOAT)

    def test_negative_displacement_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_indexed([1], [-1], FLOAT)


class TestStruct:
    def test_mixed_types(self):
        t = Type_create_struct([2, 1], [0, 16], [INT, DOUBLE])
        assert t.size == 16
        assert blocks(t) == [(0, 8), (16, 8)]

    def test_extent(self):
        t = Type_create_struct([1, 1], [0, 32], [INT, DOUBLE])
        assert t.extent == 40

    def test_block_count_counts_contiguous_members_once(self):
        inner = Type_vector(3, 1, 2, FLOAT)
        t = Type_create_struct([1, 1], [0, 100], [INT, inner])
        assert t.block_count() == 1 + inner.block_count()

    def test_length_mismatch_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_struct([1], [0, 8], [INT, DOUBLE])


class TestResized:
    def test_extent_overridden_but_layout_unchanged(self):
        v = Type_vector(2, 1, 4, FLOAT)
        r = Type_create_resized(v, 0, 64)
        assert r.extent == 64
        assert r.size == v.size
        assert blocks(r) == blocks(v)

    def test_consecutive_elements_spaced_by_new_extent(self):
        v = Type_vector(2, 1, 4, FLOAT)
        r = Type_create_resized(v, 0, 64)
        two = list(typemap.flatten_many(r, 2))
        assert (64, 4) in two

    def test_invalid_extent_rejected(self):
        with pytest.raises(MpiTypeError):
            Type_create_resized(FLOAT, 0, 0)


#: ``MPI_Type_get_contents`` in reverse: the constructor call each combiner's
#: contents spell.
REBUILD = {
    Combiner.CONTIGUOUS: lambda c: Type_contiguous(c["count"], c["oldtype"]),
    Combiner.VECTOR: lambda c: Type_vector(
        c["count"], c["blocklength"], c["stride"], c["oldtype"]
    ),
    Combiner.HVECTOR: lambda c: Type_create_hvector(
        c["count"], c["blocklength"], c["stride_bytes"], c["oldtype"]
    ),
    Combiner.SUBARRAY: lambda c: Type_create_subarray(
        c["sizes"], c["subsizes"], c["starts"], c["order"], c["oldtype"]
    ),
    Combiner.INDEXED: lambda c: Type_indexed(
        c["blocklengths"], c["displacements"], c["oldtype"]
    ),
    Combiner.HINDEXED: lambda c: Type_create_hindexed(
        c["blocklengths"], c["displacements"], c["oldtype"]
    ),
    Combiner.STRUCT: lambda c: Type_create_struct(
        c["blocklengths"], c["displacements"], c["datatypes"]
    ),
    Combiner.RESIZED: lambda c: Type_create_resized(c["oldtype"], c["lb"], c["extent"]),
}


@pytest.mark.parametrize(
    "datatype, combiner",
    [
        pytest.param(Type_contiguous(5, DOUBLE), Combiner.CONTIGUOUS, id="contiguous"),
        pytest.param(Type_vector(3, 2, 5, FLOAT), Combiner.VECTOR, id="vector"),
        pytest.param(
            Type_create_hvector(3, 2, 24, Type_contiguous(2, INT)), Combiner.HVECTOR, id="hvector"
        ),
        pytest.param(
            Type_create_subarray([6, 8], [2, 3], [1, 4], ORDER_C, FLOAT),
            Combiner.SUBARRAY, id="subarray-c",
        ),
        pytest.param(
            Type_create_subarray([6, 8], [2, 3], [1, 4], ORDER_FORTRAN, FLOAT),
            Combiner.SUBARRAY, id="subarray-fortran",
        ),
        pytest.param(Type_indexed([2, 1, 3], [0, 4, 9], INT), Combiner.INDEXED, id="indexed"),
        pytest.param(
            Type_create_hindexed([2, 1], [4, 40], DOUBLE), Combiner.HINDEXED, id="hindexed"
        ),
        pytest.param(
            Type_create_struct([1, 2], [0, 16], [INT, Type_vector(2, 1, 3, DOUBLE)]),
            Combiner.STRUCT, id="struct",
        ),
        pytest.param(
            Type_create_resized(Type_vector(2, 1, 4, FLOAT), 8, 64), Combiner.RESIZED, id="resized"
        ),
    ],
)
def test_envelope_round_trips_through_its_constructor(datatype, combiner):
    """``Get_envelope`` names the constructor and hands back its arguments:
    what the TEMPI translation is specified against."""
    got, contents = datatype.Get_envelope()
    assert got is combiner
    rebuilt = REBUILD[combiner](contents)
    assert rebuilt is not datatype
    assert (rebuilt.size, rebuilt.lb, rebuilt.extent) == (datatype.size, datatype.lb, datatype.extent)
    assert blocks(rebuilt) == blocks(datatype)
    assert rebuilt.Get_envelope() == (got, contents)
