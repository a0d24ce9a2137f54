"""The word TEMPI specialises its pack kernels to (Sec. 3.3).

The launch layout chooses it, in one place: the widest of 16, 8, 4, 2 and 1
bytes that divides the contiguous run, the start and every stride.
"""

from repro.gpu.kernels import strided_layout
from repro.tempi.strided_block import StridedBlock


def word(block: StridedBlock) -> int:
    """The word of a one-object launch of ``block``."""
    return strided_layout(block.start, block.counts, block.strides).word


class TestWordSize:
    def test_widest_word_dividing_block(self):
        assert word(StridedBlock(0, (400, 13), (1, 512))) == 16
        assert word(StridedBlock(0, (12, 4), (1, 64))) == 4
        assert word(StridedBlock(0, (6, 4), (1, 64))) == 2
        assert word(StridedBlock(0, (7, 4), (1, 64))) == 1

    def test_start_alignment_limits_word(self):
        assert word(StridedBlock(2, (16, 4), (1, 64))) == 2
        assert word(StridedBlock(3, (16, 4), (1, 64))) == 1

    def test_stride_alignment_limits_word(self):
        assert word(StridedBlock(0, (16, 4), (1, 68))) == 4
        assert word(StridedBlock(0, (16, 4), (1, 61))) == 1

    def test_contiguous_block_word(self):
        assert word(StridedBlock(0, (1024,), (1,))) == 16
