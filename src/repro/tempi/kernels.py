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


def _next_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


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
    """Choose the kernel configuration for a strided block (Sec. 3.3)."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    word = select_word_size(block)

    if block.is_contiguous:
        return KernelSpec(
            dimensions=1,
            word_size=word,
            block_dim=(1, 1, 1),
            grid_dim=(1, 1, 1),
            count_strategy="memcpy",
        )

    # Elements the X dimension must cover: contiguous bytes divided by the word.
    x_elements = max(1, block.block_length // word)
    y_elements = block.counts[1]
    z_elements = block.counts[2] if block.ndims >= 3 else 1

    max_threads = properties.max_threads_per_block
    max_dim = properties.max_block_dim

    x = min(_next_power_of_two(x_elements), max_dim[0], max_threads)
    y = min(_next_power_of_two(y_elements), max_dim[1], max(1, max_threads // x))
    z = min(_next_power_of_two(z_elements), max_dim[2], max(1, max_threads // (x * y)))

    grid_x = math.ceil(x_elements / x)
    grid_y = math.ceil(y_elements / y)
    grid_z = math.ceil(z_elements / z)

    if block.ndims == 2:
        # The dynamic object count rides on the grid's Z dimension.
        grid_z = max(grid_z, count)
        strategy = "grid-z"
        dimensions = 2
    else:
        strategy = "loop"
        dimensions = 3

    grid_x = min(grid_x, properties.max_grid_dim[0])
    grid_y = min(grid_y, properties.max_grid_dim[1])
    grid_z = min(grid_z, properties.max_grid_dim[2])

    return KernelSpec(
        dimensions=dimensions,
        word_size=word,
        block_dim=(x, y, z),
        grid_dim=(grid_x, grid_y, grid_z),
        count_strategy=strategy,
    )
