"""Kernel selection (Sec. 3.3).

Once a datatype has been lowered to a :class:`~repro.tempi.strided_block.StridedBlock`,
TEMPI chooses how to move it:

* 1-D (contiguous) blocks use a single ``cudaMemcpyAsync`` plus a stream
  synchronisation, like the MPI implementations it interposes on;
* 2-D and 3-D blocks use a parameterised kernel whose X/Y/Z thread-block
  dimensions are filled with the smallest powers of two that cover the
  corresponding counts, limited to 1024 threads per block, with the grid
  sized to cover the whole object;
* each kernel is specialised to a word size ``W`` — the widest GPU-native
  type that divides the contiguous run and respects the object's alignment —
  so the X dimension loads each run with as few transactions as possible.

Higher-dimensional objects reuse the 3-D kernel with outer loops; the dynamic
MPI ``count`` argument is absorbed by the grid's Z dimension (2-D) or by
applying the grid to each object in turn (3-D and above).

No metadata lands in device memory: ``W`` is baked into the kernel and the
remaining parameters are scalar kernel arguments — mirrored here by the
:class:`KernelSpec` being a plain host-side dataclass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.device import DeviceProperties
from repro.tempi.strided_block import StridedBlock

#: Word sizes the kernels can be specialised to, widest first (bytes):
#: char, short, int/float, long/double, float4.
WORD_SIZES = (16, 8, 4, 2, 1)


def select_word_size(block: StridedBlock) -> int:
    """Widest word that divides the contiguous run and all dimension strides.

    Alignment of every element of the object is guaranteed when both the
    start offset and every stride are multiples of the word, which is the
    "aligned to the object" condition of the paper.  Every word size is a
    power of two up to 16, so the widest is their greatest common divisor
    with 16 — the narrowing ``gpu.kernels.strided_layout`` applies too.
    """
    return math.gcd(WORD_SIZES[0], block.counts[0], block.start, *block.strides[1:])


@dataclass(frozen=True)
class KernelSpec:
    """Everything needed to launch one pack/unpack kernel."""

    dimensions: int
    word_size: int
    block_dim: tuple[int, int, int]
    grid_dim: tuple[int, int, int]
    #: How the dynamic object count is absorbed: "memcpy" (1-D), "grid-z"
    #: (2-D), or "loop" (3-D and higher).
    count_strategy: str

    @property
    def threads_per_block(self) -> int:
        x, y, z = self.block_dim
        return x * y * z

    @property
    def uses_kernel(self) -> bool:
        """False for the contiguous case, which is a plain memcpy."""
        return self.count_strategy != "memcpy"


def select_kernel(
    block: StridedBlock,
    properties: DeviceProperties = DeviceProperties(),
    *,
    count: int = 1,
) -> KernelSpec:
    """Choose the kernel configuration for a strided block (Sec. 3.3).

    The block's ``counts`` are read once.  Thread-block dimensions are the
    next powers of two of the counts they cover and grid dimensions their
    integer ceilings, both in integer arithmetic.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    word = select_word_size(block)
    counts = block.counts
    ndims = len(counts)

    if ndims == 1:
        return KernelSpec(
            dimensions=1,
            word_size=word,
            block_dim=(1, 1, 1),
            grid_dim=(1, 1, 1),
            count_strategy="memcpy",
        )

    # Elements the X dimension must cover: contiguous bytes divided by the
    # word, which divides them (so at least one).
    x_elements = counts[0] // word
    y_elements = counts[1]
    max_threads = properties.max_threads_per_block
    max_x, max_y, max_z = properties.max_block_dim

    # ``1 << (n - 1).bit_length()`` is the smallest power of two >= n >= 1,
    # and ``-(-a // b)`` the ceiling of a / b.  Each dimension takes what
    # the previous ones left of ``max_threads``, which is at least 1.
    x = min(1 << (x_elements - 1).bit_length(), max_x, max_threads)
    y = min(1 << (y_elements - 1).bit_length(), max_y, max_threads // x)
    if ndims == 2:
        # The dynamic object count rides on the grid's Z dimension.
        z, grid_z = 1, count
        strategy = "grid-z"
        dimensions = 2
    else:
        z_elements = counts[2]
        z = min(1 << (z_elements - 1).bit_length(), max_z, max_threads // (x * y))
        grid_z = -(-z_elements // z)
        strategy = "loop"
        dimensions = 3

    max_grid_x, max_grid_y, max_grid_z = properties.max_grid_dim
    return KernelSpec(
        dimensions=dimensions,
        word_size=word,
        block_dim=(x, y, z),
        grid_dim=(
            min(-(-x_elements // x), max_grid_x),
            min(-(-y_elements // y), max_grid_y),
            min(grid_z, max_grid_z),
        ),
        count_strategy=strategy,
    )
