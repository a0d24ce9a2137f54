"""Property-based tests of the MPI type-map flattener.

These are the invariants every downstream consumer (baseline engine, TEMPI
translation, halo datatypes) relies on:

* blocks never overlap and are maximal (no two adjacent blocks remain);
* the summed block length equals the datatype's size, for any element count;
* every block lies inside ``lb + count * extent`` worth of storage;
* the analytic ``block_count`` used for baseline cost accounting is exact for
  a single element of the strided family and never undercounts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mpi import typemap

from tests.property.test_property_canonicalize import strided_datatypes


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_blocks_are_disjoint_and_maximal(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    for (offset_a, length_a), (offset_b, _length_b) in zip(blocks, blocks[1:]):
        # strictly increasing starts, no touching (touching blocks must merge)
        assert offset_a + length_a < offset_b


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_total_length_equals_size(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    assert sum(length for _, length in blocks) == datatype.size * count


@settings(max_examples=80, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=4))
def test_blocks_inside_extent(datatype, count):
    blocks = list(typemap.flatten_many(datatype, count))
    upper_bound = datatype.lb + (count - 1) * datatype.extent + datatype.ub - datatype.lb
    for offset, length in blocks:
        assert offset >= 0
        assert offset + length <= upper_bound


@settings(max_examples=80, deadline=None)
@given(strided_datatypes())
def test_analytic_block_count_matches_flatten_for_one_element(datatype):
    assert datatype.block_count() >= len(list(typemap.flatten(datatype)))


@settings(max_examples=60, deadline=None)
@given(strided_datatypes(), st.integers(min_value=1, max_value=3))
def test_offsets_and_lengths_agree_with_flatten(datatype, count):
    offsets, lengths = typemap.offsets_and_lengths(datatype, count)
    assert list(zip(offsets.tolist(), lengths.tolist())) == list(
        typemap.flatten_many(datatype, count)
    )
