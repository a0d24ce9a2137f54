"""Tests for the canonicalisation passes (Sec. 3.2)."""

import pytest

from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hvector,
    Type_create_subarray,
    Type_vector,
)
from repro.mpi.datatype import BYTE, FLOAT, ORDER_C
from repro.tempi.canonicalize import (
    _elide_unit_streams,
    _flatten_streams,
    _fold_dense,
    _sort_streams,
    simplify,
)
from repro.tempi.ir import dense, stream
from repro.tempi.translate import translate


def rows_of(ty):
    """The ``[offset, stride, count]`` rows and ``[offset, extent]`` leaf the rules rewrite."""
    return [list(row) for row in ty.rows], list(ty.base)


class TestDenseFolding:
    def test_folds_matching_stride(self):
        # Stream of 10 elements, stride 4, over dense 4 bytes -> dense 40 bytes.
        rows, leaf = rows_of(stream(10, 4, dense(4)))
        assert _fold_dense(rows, leaf)
        assert rows == []
        assert leaf == [0, 40]

    def test_keeps_offsets(self):
        rows, leaf = rows_of(stream(10, 4, dense(4, offset=3), offset=5))
        _fold_dense(rows, leaf)
        assert leaf[0] == 8

    def test_does_not_fold_mismatched_stride(self):
        rows, leaf = rows_of(stream(10, 8, dense(4)))
        assert not _fold_dense(rows, leaf)
        assert rows == [[0, 8, 10]]

    def test_applies_bottom_up(self):
        # The inner pair folds even though the outer stream stays.
        rows, leaf = rows_of(stream(3, 512, stream(10, 4, dense(4))))
        assert _fold_dense(rows, leaf)
        assert rows == [[0, 512, 3]]
        assert leaf == [0, 40]


class TestStreamElision:
    def test_child_stream_of_one_removed(self):
        rows, leaf = rows_of(stream(5, 100, stream(1, 7, dense(4), offset=2)))
        assert _elide_unit_streams(rows, leaf)
        assert rows == [[0, 100, 5]]
        assert leaf == [2, 4]

    def test_unit_parent_removed(self):
        rows, leaf = rows_of(stream(1, 100, dense(8), offset=4))
        assert _elide_unit_streams(rows, leaf)
        assert rows == []
        assert leaf == [4, 8]

    def test_non_unit_streams_untouched(self):
        rows, leaf = rows_of(stream(5, 100, stream(2, 7, dense(3))))
        assert not _elide_unit_streams(rows, leaf)
        assert len(rows) == 2


class TestStreamFlatten:
    def test_chaining_strides_flatten(self):
        # parent stride 32 == child count 8 * child stride 4.
        rows, leaf = rows_of(stream(3, 32, stream(8, 4, dense(2))))
        assert _flatten_streams(rows, leaf)
        assert rows == [[0, 4, 24]]
        assert leaf == [0, 2]

    def test_offsets_accumulate(self):
        rows, leaf = rows_of(stream(3, 32, stream(8, 4, dense(2), offset=6), offset=10))
        _flatten_streams(rows, leaf)
        assert rows[0][0] == 16

    def test_non_chaining_strides_untouched(self):
        rows, leaf = rows_of(stream(3, 100, stream(8, 4, dense(2))))
        assert not _flatten_streams(rows, leaf)
        assert rows[0][2] == 3


class TestSorting:
    def test_streams_ordered_by_stride_descending(self):
        rows, leaf = rows_of(stream(4, 16, stream(2, 512, dense(8))))
        assert _sort_streams(rows, leaf)
        assert [row[1] for row in rows] == [512, 16]

    def test_already_sorted_unchanged(self):
        assert not _sort_streams(*rows_of(stream(2, 512, stream(4, 16, dense(8)))))

    def test_short_chains_skipped(self):
        assert not _sort_streams(*rows_of(stream(4, 16, dense(8))))


class TestSimplifyEquivalences:
    """Equivalent MPI constructions must canonicalise to the same Type."""

    def test_paper_row_constructions_agree(self):
        e0 = 100
        rows = [
            Type_contiguous(e0, FLOAT),
            Type_contiguous(e0 * 4, BYTE),
            Type_vector(1, e0, 1, FLOAT),
            Type_vector(e0, 4, 4, BYTE),
            Type_create_hvector(e0 * 4, 1, 1, BYTE),
            Type_create_subarray([512], [e0 * 4], [0], ORDER_C, BYTE),
        ]
        forms = {simplify(translate(t)).structure() for t in rows}
        assert len(forms) == 1
        assert forms.pop() == (("dense", 0, 400),)

    def test_plane_constructions_agree(self):
        e0, e1, a0 = 100, 13, 512
        planes = [
            Type_vector(e1, e0, a0 // 4, FLOAT),
            Type_create_subarray([512, a0], [e1, e0 * 4], [0, 0], ORDER_C, BYTE),
            Type_create_hvector(e1, 1, a0, Type_contiguous(e0, FLOAT)),
        ]
        forms = {simplify(translate(t)).structure() for t in planes}
        assert len(forms) == 1

    def test_cuboid_constructions_agree(self):
        e = (100, 13, 47)
        a = (512, 512, 1024)
        cuboids = [
            Type_create_subarray(
                [a[2], a[1], a[0]], [e[2], e[1], e[0] * 4], [0, 0, 0], ORDER_C, BYTE
            ),
            Type_create_hvector(
                e[2], 1, a[0] * a[1], Type_vector(e[1], e[0], a[0] // 4, FLOAT)
            ),
            Type_create_hvector(
                e[2],
                1,
                a[0] * a[1],
                Type_create_hvector(e[1], 1, a[0], Type_contiguous(e[0], FLOAT)),
            ),
        ]
        forms = {simplify(translate(t)).structure() for t in cuboids}
        assert len(forms) == 1

    def test_fully_contiguous_subarray_reduces_to_dense(self):
        t = Type_create_subarray([8, 16], [8, 16], [0, 0], ORDER_C, BYTE)
        canon = simplify(translate(t))
        assert canon.is_dense
        assert canon.data.extent == 128

    def test_simplify_preserves_total_bytes(self):
        t = Type_create_subarray([16, 8, 64], [7, 3, 24], [2, 1, 8], ORDER_C, BYTE)
        assert simplify(translate(t)).total_bytes() == t.size

    def test_simplify_does_not_mutate_input(self):
        ty = translate(Type_contiguous(10, FLOAT))
        before = ty.structure()
        simplify(ty)
        assert ty.structure() == before

    def test_offsets_preserved_for_offset_subarray(self):
        t = Type_create_subarray([8, 64], [2, 16], [3, 8], ORDER_C, BYTE)
        canon = simplify(translate(t))
        offsets = sum(level.data.offset for level in canon.levels())
        assert offsets == 3 * 64 + 8

    def test_rejects_a_canonical_form_with_a_bad_level(self):
        # No rule touches a zero stride over a wider leaf; the check names it.
        with pytest.raises(ValueError, match="^StreamData stride must be positive, got 0$"):
            simplify(stream(2, 0, dense(4)))

    def test_idempotent(self):
        t = Type_create_subarray([16, 8, 64], [7, 3, 24], [0, 0, 0], ORDER_C, BYTE)
        once = simplify(translate(t))
        twice = simplify(once)
        assert once.structure() == twice.structure()
