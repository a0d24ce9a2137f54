"""Type translation: MPI datatype → Type IR (Sec. 3.1).

Each MPI constructor maps onto the IR as the paper prescribes:

* a *named* type becomes a ``DenseData`` of its extent;
* *contiguous* becomes a ``StreamData`` whose stride equals the old type's
  extent (it is not a ``DenseData`` because the old type may not be dense);
* *vector*/*hvector* become two nested ``StreamData`` — the parent for the
  repeated blocks, the child for the elements within a block;
* *subarray* becomes one ``StreamData`` per dimension, outer (largest stride)
  levels above inner ones, with the start offsets converted to bytes;
* *resized* adds no level: it changes only the spacing of consecutive
  elements, not the bytes of one.

:func:`translate` is one loop down the ``oldtype`` chain.  A step table keyed
on the exact constructor class maps each class to a step that appends the
class's ``(offset, stride, count)`` rows, outermost first, and returns its
``oldtype``.  The loop stops at the named leaf, whose extent is the dense
base: the rows and the base are the flat :class:`~repro.tempi.ir.Type`.

Datatypes TEMPI does not canonicalise (indexed, struct) raise
:class:`TranslationError`; the interposer catches it and falls back to the
system MPI's block-list path, mirroring the paper's coverage.
"""

from __future__ import annotations

from typing import Callable

from repro.mpi.constructors import (
    ContiguousDatatype,
    HvectorDatatype,
    IndexedDatatype,
    ResizedDatatype,
    StructDatatype,
    SubarrayDatatype,
    VectorDatatype,
)
from repro.mpi.datatype import ORDER_C, Datatype, NamedDatatype
from repro.tempi.ir import Row, Type


class TranslationError(ValueError):
    """The datatype is outside the family TEMPI canonicalises."""


def translate(datatype: Datatype) -> Type:
    """Convert an MPI datatype into its Type IR.

    Raises
    ------
    TranslationError
        For datatype families TEMPI does not handle (indexed, struct);
        callers are expected to fall back to the baseline engine.
    """
    rows: list[Row] = []  # outermost first
    node = datatype
    while type(node) is not NamedDatatype:
        try:
            step = _STEPS[type(node)]
        except KeyError:
            raise TranslationError(_refusal(node)) from None
        node = step(node, rows)
    return Type(tuple(rows), (0, node.extent))


def _refusal(datatype: object) -> str:
    if type(datatype) in (IndexedDatatype, StructDatatype):
        return (
            f"{type(datatype).__name__} is handled by the baseline block-list path, "
            f"not by TEMPI's canonical representation"
        )
    return f"unknown datatype class {type(datatype).__name__}"


# --------------------------------------------------------------------------- #
# Per-constructor steps: append the class's rows, return its oldtype
# --------------------------------------------------------------------------- #

def _contiguous(datatype: ContiguousDatatype, rows: list[Row]) -> Datatype:
    """A stream whose stride equals the old type's extent."""
    oldtype = datatype.oldtype
    rows.append((0, oldtype.extent, datatype.count))
    return oldtype


def _vector(datatype: VectorDatatype, rows: list[Row]) -> Datatype:
    """Blocks (parent) of elements (child); the stride counts old-type extents."""
    oldtype = datatype.oldtype
    extent = oldtype.extent
    rows += ((0, datatype.stride * extent, datatype.count), (0, extent, datatype.blocklength))
    return oldtype


def _hvector(datatype: HvectorDatatype, rows: list[Row]) -> Datatype:
    """Like a vector, but the parent stride is the hvector's byte stride."""
    oldtype = datatype.oldtype
    rows += ((0, datatype.stride_bytes, datatype.count), (0, oldtype.extent, datatype.blocklength))
    return oldtype


def _subarray(datatype: SubarrayDatatype, rows: list[Row]) -> Datatype:
    """One stream per dimension, slowest on top.

    Walking the dimensions fastest first, a dimension's byte stride is the
    running product of the faster dimensions' full sizes and the old type's
    extent; its offset is its start index times that stride.
    """
    oldtype = datatype.oldtype
    sizes, subsizes, starts = datatype.sizes, datatype.subsizes, datatype.starts
    dims = range(datatype.ndims)
    if datatype.order == ORDER_C:  # the last listed dimension varies fastest
        dims = reversed(dims)
    stride = oldtype.extent
    levels: list[Row] = []
    for dim in dims:
        levels.append((starts[dim] * stride, stride, subsizes[dim]))
        stride *= sizes[dim]
    rows += reversed(levels)
    return oldtype


def _resized(datatype: ResizedDatatype, rows: list[Row]) -> Datatype:
    """Resizing changes only the extent (the spacing of *consecutive*
    elements); the bytes of one element are those of the inner type."""
    return datatype.oldtype


#: Exact constructor class -> its step.  Indexed and struct types are absent:
#: they stay on the baseline block-list path.
_STEPS: dict[type, Callable[..., Datatype]] = {
    ContiguousDatatype: _contiguous,
    VectorDatatype: _vector,
    HvectorDatatype: _hvector,
    SubarrayDatatype: _subarray,
    ResizedDatatype: _resized,
}

