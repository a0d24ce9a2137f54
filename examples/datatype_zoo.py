#!/usr/bin/env python
"""Datatype zoo: how distinct MPI constructions reach one canonical form.

Section 2 of the paper shows many equivalent ways to describe the same 3-D
object; Section 3 canonicalises them.  This example builds the paper's Fig. 2
object with several different constructor compositions and prints, for each:

* the raw Type IR produced by translation,
* the canonical Type after dense folding / elision / flattening / sorting,
* the StridedBlock and the launch its pack kernel runs: the word ``W`` and
  the shape of the view it moves.

All constructions end at the same StridedBlock — which is exactly why TEMPI
needs only a small family of generic kernels.

Run with:  python examples/datatype_zoo.py
"""

from __future__ import annotations

from repro.gpu.kernels import strided_layout
from repro.mpi.constructors import (
    Type_contiguous,
    Type_create_hvector,
    Type_create_resized,
    Type_create_subarray,
    Type_vector,
)
from repro.mpi.datatype import BYTE, FLOAT, ORDER_C
from repro.tempi.canonicalize import simplify
from repro.tempi.strided_block import to_strided_block
from repro.tempi.translate import translate

# The Fig. 2 object: E0 x E1 x E2 floats inside an A0 x A1 x A2-byte allocation.
# (The paper's A0 = 256 B cannot hold 100 floats; we use a 512 B row.)
E0, E1, E2 = 100, 13, 47
A0, A1, A2 = 512, 512, 1024


def build_constructions():
    """The same 3-D object, described five different ways."""
    subarray_bytes = Type_create_subarray(
        sizes=(A2, A1, A0), subsizes=(E2, E1, E0 * 4), starts=(0, 0, 0), order=ORDER_C, oldtype=BYTE
    )

    plane_vector = Type_vector(E1, E0, A0 // 4, FLOAT)
    hvector_of_vector = Type_create_hvector(E2, 1, A0 * A1, plane_vector)

    row_contig = Type_contiguous(E0, FLOAT)
    plane_hvector = Type_create_hvector(E1, 1, A0, row_contig)
    hvector_of_hvector = Type_create_hvector(E2, 1, A0 * A1, plane_hvector)

    row_bytes = Type_contiguous(E0 * 4, BYTE)
    plane_hvector_bytes = Type_create_hvector(E1, 1, A0, row_bytes)
    hvector_bytes = Type_create_hvector(E2, 1, A0 * A1, plane_hvector_bytes)

    plane_resized = Type_create_resized(Type_vector(E1, E0, A0 // 4, FLOAT), 0, A0 * A1)
    subarray_of_vector = Type_create_subarray(
        sizes=(A2,), subsizes=(E2,), starts=(0,), order=ORDER_C, oldtype=plane_resized
    )

    return {
        "subarray of MPI_BYTE": subarray_bytes,
        "hvector(vector(FLOAT))": hvector_of_vector,
        "hvector(hvector(contiguous FLOAT))": hvector_of_hvector,
        "hvector(hvector(contiguous BYTE))": hvector_bytes,
        "subarray(resized vector)": subarray_of_vector,
    }


def main() -> None:
    print(f"Object: {E0} x {E1} x {E2} floats in a {A0} x {A1} x {A2} B allocation")
    print(f"Payload: {4 * E0 * E1 * E2:,} bytes\n")

    blocks = []
    for name, datatype in build_constructions().items():
        raw = translate(datatype)
        canonical = simplify(raw)
        block = to_strided_block(canonical)
        launch = strided_layout(block.start, block.counts, block.strides)
        blocks.append(block)

        print(f"== {name}")
        print(f"   MPI size/extent : {datatype.size:,} / {datatype.extent:,} B")
        print(f"   raw IR          : {raw}")
        print(f"   canonical IR    : {canonical}")
        print(f"   strided block   : {block}")
        print(f"   launch          : word {launch.word} B, view {launch.shape}")
        print()

    identical = all(b == blocks[0] for b in blocks[1:])
    print(f"All constructions share one canonical StridedBlock: {identical}")
    print(f"Metadata footprint of that representation: {blocks[0].footprint()} bytes "
          f"(a block list would need {16 * blocks[0].num_blocks:,} bytes of GPU memory).")


if __name__ == "__main__":
    main()
